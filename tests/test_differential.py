"""Differential property test over generated parameter records.

Records are drawn over Q_p for p in {3, 5, 7, 10007} at precision 60, on
shapes with e, f <= 2, from bounded integers only.  For every record with a
two-step flag (each upper jump above its lower jump) the built module must
give the record back under extract_invariants, and its admissibility verdict
must agree with check_constraints.  A record with a crossed jump pair fails
check_constraints, and its collapsed flag is refused by the extractor.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phinmod.coeff import GaloisShape, ProductElement
from phinmod.errors import ConstraintViolation, NotMonodromyType
from phinmod.filtration import is_admissible
from phinmod.monodromy import (
    MonodromyData,
    build_degenerate,
    build_monodromy,
    check_constraints,
    extract_invariants,
)
from phinmod.padic import LocalFieldDesc

PRIMES = (3, 5, 7, 10007)


def _qp(p: int) -> LocalFieldDesc:
    return LocalFieldDesc(p, 1, 1, (0, 1), ((-p,), (1,)), 60)


@st.composite
def records(draw) -> MonodromyData:
    p = draw(st.sampled_from(PRIMES))
    desc = _qp(p)
    shape = GaloisShape(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    n = shape.n
    degenerate = draw(st.booleans())
    v = draw(st.integers(-2, 3))
    unit = draw(st.integers(0, 5)) * p + draw(st.integers(1, min(p - 1, 30)))
    m = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    k = [a + draw(st.integers(-1, 4)) for a in m]
    if draw(st.booleans()):
        # the last jump pair balances the degrees, with a gap of 1 or 2
        rest = shape.e * (2 * v + shape.f) - sum(m[:-1]) - sum(k[:-1])
        gap = 2 - rest % 2
        m[-1] = (rest - gap) // 2
        k[-1] = m[-1] + gap
    ells = [
        Fraction(draw(st.integers(-30, 30)) * p ** draw(st.integers(0, 2)))
        for _ in range(n)
    ]
    if degenerate:
        # the extractor fixes the first nonzero marked slope at 1
        if not any(ells):
            ells[draw(st.integers(0, n - 1))] = Fraction(1)
        pivot = next(c for c in ells if c)
        ells = [c / pivot for c in ells]
    ell = ProductElement.from_components(desc, shape, "K", [desc.from_rational(c) for c in ells])
    alpha = desc.from_rational(Fraction(unit) * Fraction(p) ** v)
    return MonodromyData(alpha, tuple(m), tuple(k), ell, degenerate)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(records())
def test_builders_extractor_and_verdict_agree_with_the_constraints(r):
    try:
        check_constraints(r)
        passes = True
    except ConstraintViolation:
        passes = False
    build = build_degenerate if r.degenerate else build_monodromy
    module, fil = build(r, check=False)
    if all(b > a for a, b in zip(r.m, r.k)):
        assert extract_invariants(module, fil) == r
        assert is_admissible(module, fil).admissible == passes
    else:
        assert not passes
        with pytest.raises(NotMonodromyType, match="two-step flag"):
            extract_invariants(module, fil)
