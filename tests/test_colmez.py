from __future__ import annotations

import random
from fractions import Fraction

import pytest

from phinmod.coeff import DualNumber, GaloisShape, ProductElement
from phinmod.cohomology import H1Trivial, satisfies_colmez_condition
from phinmod.colmez import (
    FamilyGerm,
    colmez_form,
    degenerate_form,
    gamma_consistency,
    solve_ell_scalar,
)
from phinmod.errors import (
    FieldMismatch,
    PrecisionLoss,
    ShapeMismatch,
    SingularDirection,
    ValidationError,
    ZeroEll,
)
from util import sample_unit


def pe(desc, shape, values):
    return ProductElement.from_components(
        desc, shape, [desc.from_rational(v) for v in values]
    )


def germ(desc, shape, alpha, delta, kappa0, kappa1, ells):
    return FamilyGerm(
        DualNumber(desc.from_rational(alpha[0]), desc.from_rational(alpha[1])),
        DualNumber(desc.from_rational(delta[0]), desc.from_rational(delta[1])),
        DualNumber(pe(desc, shape, kappa0), pe(desc, shape, kappa1)),
        pe(desc, shape, ells),
    )


def random_germ(desc, shape, rng):
    n = shape.n

    def scalar():
        return Fraction(rng.randrange(-40, 41), rng.choice([1, 1, 2, 5]))

    alpha = (0, scalar())
    delta = (scalar(), scalar())
    kappa0 = [scalar() for _ in range(n)]
    kappa1 = [scalar() for _ in range(n)]
    ells = [scalar() for _ in range(n)]
    g = germ(desc, shape, alpha, delta, kappa0, kappa1, ells)
    unit = sample_unit(desc, rng.randrange(1 << 30))
    alpha_d = DualNumber(unit, g.alpha.a1)
    return FamilyGerm(alpha_d, g.delta, g.kappa, g.ell)


def test_single_embedding_specialization(q3):
    g = germ(q3, GaloisShape(1, 1), (1, 1), (0, 0), [0], [2], [1])
    assert colmez_form(g).is_zero_at_prec()
    g2 = germ(q3, GaloisShape(1, 1), (1, 1), (0, 3), [0], [2], [1])
    assert colmez_form(g2) == q3.from_rational(Fraction(3, 2))


def test_center_must_be_unit(q3):
    g = germ(q3, GaloisShape(1, 1), (3, 1), (0, 0), [0], [2], [1])
    with pytest.raises(ValidationError):
        colmez_form(g)
    fuzzed = FamilyGerm(
        DualNumber(q3.from_int(3**60), q3.from_int(1)), g.delta, g.kappa, g.ell
    )
    with pytest.raises(PrecisionLoss):
        colmez_form(fuzzed)


def test_degenerate_form(q3):
    s2 = GaloisShape(1, 2)
    g = germ(q3, s2, (1, 5), (2, 7), [1, 1], [3, 4], [1, 2])
    assert degenerate_form(g) == q3.from_int(11)
    # the degenerate form ignores the alpha and delta directions
    other = germ(q3, s2, (1, 9), (5, -1), [1, 1], [3, 4], [1, 2])
    assert degenerate_form(other) == degenerate_form(g)
    cancel = germ(q3, s2, (1, 0), (0, 0), [0, 0], [5, -5], [1, 1])
    assert degenerate_form(cancel).is_zero_at_prec()
    with pytest.raises(ZeroEll):
        degenerate_form(germ(q3, s2, (1, 0), (0, 0), [0, 0], [5, -5], [0, 0]))


def test_gamma_consistency_matches_form(q3, q5_unr):
    rng = random.Random(20260826)
    shapes = [GaloisShape(1, 1), GaloisShape(2, 1), GaloisShape(1, 2), GaloisShape(2, 3)]
    for desc in (q3, q5_unr):
        for shape in shapes:
            for _ in range(5):
                g = random_germ(desc, shape, rng)
                gamma, residual = gamma_consistency(g)
                assert residual == colmez_form(g)
                n = shape.n
                lhs = desc.from_rational(Fraction(1, n)) * (gamma * g.ell).trace()
                assert satisfies_colmez_condition(H1Trivial(lhs, gamma), g.ell)


def test_solve_ell_scalar_roundtrip(q3):
    s2 = GaloisShape(2, 1)
    rng = random.Random(7)
    for _ in range(10):
        g = random_germ(q3, s2, rng)
        direction = pe(q3, s2, [1, 2])
        try:
            s = solve_ell_scalar(g, direction)
        except SingularDirection:
            continue
        solved = FamilyGerm(g.alpha, g.delta, g.kappa, direction * s)
        assert colmez_form(solved).is_zero_at_prec()


def test_solve_ell_scalar_singular(q3):
    s2 = GaloisShape(1, 2)
    g = germ(q3, s2, (1, 1), (0, 0), [0, 0], [1, -1], [1, 1])
    with pytest.raises(SingularDirection):
        solve_ell_scalar(g, pe(q3, s2, [1, 1]))
    deep = germ(q3, s2, (1, 1), (0, 0), [0, 0], [3, 3], [1, 1])
    with pytest.raises(SingularDirection):
        solve_ell_scalar(deep, pe(q3, s2, [1, 1]))


def test_germ_validation(q3):
    s1 = GaloisShape(1, 1)
    with pytest.raises(ValidationError):
        FamilyGerm(
            DualNumber(pe(q3, s1, [1]), pe(q3, s1, [0])),
            DualNumber(q3.from_int(0), q3.from_int(0)),
            DualNumber(pe(q3, s1, [0]), pe(q3, s1, [1])),
            pe(q3, s1, [1]),
        )


def test_germ_refuses_mixed_data(q3, q2):
    shape = GaloisShape(1, 2)
    g = germ(q3, shape, (1, 1), (0, 0), [0, 0], [1, 2], [1, 1])
    other_shape = pe(q3, GaloisShape(2, 1), [1, 1])
    cases = [
        (ValidationError, "kappa must be", (g.alpha, g.delta, DualNumber(q3.from_int(1), q3.from_int(1)), g.ell)),
        (ShapeMismatch, "different shapes", (g.alpha, g.delta, g.kappa, other_shape)),
        (FieldMismatch, "different coefficient fields", (DualNumber(q2.from_int(1), q2.from_int(1)), g.delta, g.kappa, g.ell)),
    ]
    for error, message, parts in cases:
        with pytest.raises(error, match=message):
            FamilyGerm(*parts)
    with pytest.raises(ShapeMismatch, match="different shape"):
        solve_ell_scalar(g, other_shape)
