"""Differential property tests over generated parameter records.

Records are drawn over Q_p for p in {3, 5, 7, 10007} at precision 60, on
shapes with e, f <= 2, from bounded integers only.  For every record with a
two-step flag (each upper jump above its lower jump) the built module must
give the record back under extract_invariants, and its admissibility verdict
must agree with check_constraints; those two laws and the transport law
below are also drawn at precision 2000, over p in {3, 5, 7} (p = 10007 is
past the parse bound prec * log10(p) <= 3000 there).  A record with a
crossed jump pair fails check_constraints, and its collapsed flag is refused
by the extractor.

Every built module is isomorphic to its transport by a random change of
basis per slot, and wherever a record passes check_constraints and its lower
jumps twist away, the trace-zero endomorphisms of the twisted record match
the bracket module (end0_check).
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phinmod.coeff import GaloisShape, ProductElement
from phinmod.errors import ConstraintViolation, NotMonodromyType
from phinmod.filtration import is_admissible
from phinmod.isom import is_isomorphic
from phinmod.monodromy import (
    MonodromyData,
    build_degenerate,
    build_monodromy,
    check_constraints,
    end0_check,
    extract_invariants,
    twist_to_zero,
)
from phinmod.padic import LocalFieldDesc
from util import transport

PRIMES = (3, 5, 7, 10007)


def _qp(p: int, prec: int) -> LocalFieldDesc:
    return LocalFieldDesc(p, 1, 1, (0, 1), ((-p,), (1,)), prec)


@st.composite
def records(draw, passing=False, prec=60, primes=PRIMES) -> MonodromyData:
    """A parameter record at working precision prec; with passing, a
    non-degenerate one that passes check_constraints (every jump gap
    positive, the degrees balanced)."""
    p = draw(st.sampled_from(primes))
    desc = _qp(p, prec)
    shape = GaloisShape(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    n = shape.n
    degenerate = not passing and draw(st.booleans())
    v = draw(st.integers(-2, 3))
    unit = draw(st.integers(0, 5)) * p + draw(st.integers(1, min(p - 1, 30)))
    m = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    k = [a + draw(st.integers(1 if passing else -1, 4)) for a in m]
    if passing or draw(st.booleans()):
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


def _passes(r: MonodromyData) -> bool:
    try:
        check_constraints(r)
    except ConstraintViolation:
        return False
    return True


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(records())
def test_builders_extractor_and_verdict_agree_with_the_constraints(r):
    passes = _passes(r)
    build = build_degenerate if r.degenerate else build_monodromy
    module, fil = build(r, check=False)
    if all(b > a for a, b in zip(r.m, r.k)):
        assert extract_invariants(module, fil) == r
        assert is_admissible(module, fil).admissible == passes
    else:
        assert not passes
        with pytest.raises(NotMonodromyType, match="two-step flag"):
            extract_invariants(module, fil)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(records(prec=2000, primes=(3, 5, 7)))
def test_verdict_agrees_with_the_constraints_at_precision_2000(r):
    assume(all(b > a for a, b in zip(r.m, r.k)))
    build = build_degenerate if r.degenerate else build_monodromy
    module, fil = build(r, check=False)
    assert extract_invariants(module, fil) == r
    assert is_admissible(module, fil).admissible == _passes(r)


def _transport_law(r: MonodromyData, seed: int) -> None:
    build = build_degenerate if r.degenerate else build_monodromy
    module, fil = build(r, check=False)
    moved = transport(module, fil, seed)
    assert is_isomorphic(module, fil, *moved).isomorphic
    assert is_isomorphic(*moved, module, fil).isomorphic


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(records(), st.integers(0, 2**16))
def test_transport_keeps_the_isomorphism_class(r, seed):
    _transport_law(r, seed)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(records(prec=2000, primes=(3, 5, 7)), st.integers(0, 2**16))
def test_transport_keeps_the_isomorphism_class_at_precision_2000(r, seed):
    _transport_law(r, seed)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(records(passing=True))
def test_end0_matches_the_bracket_module_after_the_twist(r):
    check_constraints(r)
    try:
        twisted = twist_to_zero(r)
    except ConstraintViolation as exc:
        assert exc.constraint == "twist-integrality"
        return
    assert end0_check(twisted).ok
