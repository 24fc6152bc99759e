from __future__ import annotations

from fractions import Fraction

import pytest

from phinmod.coeff import GaloisShape, ProductElement
from phinmod.cohomology import (
    H1Tate,
    H1Trivial,
    cup,
    degenerate_condition,
    monodromy_extension_class,
    pairing_is_perfect,
    satisfies_colmez_condition,
    unipotent_extension_class,
)
from phinmod.errors import FieldMismatch, NotUnipotent, ShapeMismatch, ValidationError
from phinmod.linalg import identity, mat
from phinmod.modules import PhiNModule
from phinmod.padic import INF
from util import sample_invertible

SHAPES = [GaloisShape(1, 1), GaloisShape(2, 1), GaloisShape(1, 2), GaloisShape(2, 2)]


def pe(desc, shape, values):
    return ProductElement.from_components(
        desc, shape, [desc.from_rational(v) for v in values]
    )


def triv(desc, shape, a1, values):
    return H1Trivial(desc.from_rational(a1), pe(desc, shape, values))


def tate(desc, shape, b1, values):
    return H1Tate(desc.from_rational(b1), pe(desc, shape, values))


def test_cup_known_values(q3):
    s1 = GaloisShape(1, 1)
    assert cup(triv(q3, s1, 1, [0]), tate(q3, s1, 1, [0])).c == q3.from_int(1)
    s2 = GaloisShape(1, 2)
    x = triv(q3, s2, 0, [1, 1])
    y = tate(q3, s2, 0, [1, -1])
    assert cup(x, y).c.is_zero_at_prec()
    zero = tate(q3, s2, 0, [0, 0])
    assert cup(x, zero).c.is_zero_at_prec()
    with pytest.raises(ShapeMismatch):
        cup(triv(q3, s1, 1, [0]), y)


def test_cup_bilinear(q3):
    s = GaloisShape(2, 2)
    x1 = triv(q3, s, 2, [1, 0, 3, 5])
    x2 = triv(q3, s, -1, [0, 2, 1, 7])
    y = tate(q3, s, 4, [1, 1, 2, 0])
    c = q3.from_int(6)
    lhs = cup(H1Trivial(c * x1.a1 + x2.a1, x1.a2 * c + x2.a2), y).c
    rhs = c * cup(x1, y).c + cup(x2, y).c
    assert lhs == rhs


def test_gram_rank_one_embedding(q3):
    s1 = GaloisShape(1, 1)
    one, zero = q3.from_int(1, INF), q3.zero()
    basis_t = [triv(q3, s1, 1, [0]), triv(q3, s1, 0, [1])]
    basis_y = [tate(q3, s1, 1, [0]), tate(q3, s1, 0, [1])]
    gram = [[cup(x, y).c for y in basis_y] for x in basis_t]
    assert gram[0][0] == one and gram[1][1] == -one
    assert gram[0][1].is_zero_at_prec() and gram[1][0].is_zero_at_prec()


def test_pairing_perfect_all_fields(all_fields):
    for desc in all_fields:
        for shape in SHAPES:
            assert pairing_is_perfect(desc, shape)


def test_extension_class_and_condition(q3):
    s2 = GaloisShape(1, 2)
    ell = pe(q3, s2, [2, 5])
    y = monodromy_extension_class(ell)
    assert y.b1 == q3.from_int(1) and y.b2 is ell
    # a1 = (1/n) tr(a2 * ell) forces cup vanishing and conversely
    x = triv(q3, s2, Fraction(7, 2), [1, 3])
    expected = q3.from_rational(Fraction(1, 2)) * (x.a2 * ell).trace()
    good = H1Trivial(expected, x.a2)
    assert satisfies_colmez_condition(good, ell)
    assert cup(good, y).c.is_zero_at_prec()
    assert not satisfies_colmez_condition(x, ell)
    assert not cup(x, y).c.is_zero_at_prec()


def test_condition_annihilator_dimension(q3):
    for shape in SHAPES:
        n = shape.n
        ell = pe(q3, shape, [i + 2 for i in range(n)])
        y = monodromy_extension_class(ell)
        basis = [triv(q3, shape, 1, [0] * n)]
        for i in range(n):
            basis.append(triv(q3, shape, 0, [1 if t == i else 0 for t in range(n)]))
        row = [cup(x, y).c for x in basis]
        from phinmod.linalg import right_kernel

        ker = right_kernel((tuple(row),))
        assert len(ker) == n


def test_degenerate_condition(q3):
    s2 = GaloisShape(1, 2)
    ell = pe(q3, s2, [1, 3])
    x = triv(q3, s2, 5, [3, -1])
    assert degenerate_condition(x, ell)
    assert not degenerate_condition(triv(q3, s2, 5, [1, 1]), ell)


def unipotent_module(desc, f, alpha):
    shape = GaloisShape(1, f)
    one, zero = desc.from_int(1, INF), desc.zero()
    wrap = mat([[one, alpha], [zero, one]])
    phi = tuple(wrap if i == f - 1 else identity(desc, 2) for i in range(f))
    nm = mat([[zero, zero], [zero, zero]])
    return PhiNModule(desc, shape, 2, phi, tuple(nm for _ in range(f)))


def test_unipotent_class_value(q3):
    one, zero = q3.from_int(1, INF), q3.zero()
    for f in (1, 2, 3):
        m = unipotent_module(q3, f, q3.from_int(5))
        cls = unipotent_extension_class(m, (one, zero), (zero, one))
        assert cls.a1 == q3.from_rational(Fraction(-5, f))
        assert cls.a2.is_zero()


def test_unipotent_class_invariance_and_scaling(q3):
    one, zero = q3.from_int(1, INF), q3.zero()
    m = unipotent_module(q3, 2, q3.from_int(7))
    base = unipotent_extension_class(m, (one, zero), (zero, one)).a1
    # shifting the lift by the fixed line does not move the class
    shifted = unipotent_extension_class(m, (one, zero), (q3.from_int(4), one)).a1
    assert shifted == base
    b1, b2 = q3.from_int(2), q3.from_int(9)
    scaled = unipotent_extension_class(m, (b1, zero), (zero, b2)).a1
    assert scaled == base * b2 / b1
    # conjugating the module and the trivializations together changes nothing
    from phinmod.linalg import inv, mat_mul, mat_vec

    f = m.shape.f
    gs = [sample_invertible(q3, 2, 31 + i) for i in range(f)]
    phi = tuple(
        mat_mul(gs[(i + 1) % f], mat_mul(m.phi[i], inv(gs[i]))) for i in range(f)
    )
    moved = PhiNModule(q3, m.shape, 2, phi, m.nmat)
    conj = unipotent_extension_class(
        moved, mat_vec(gs[0], (one, zero)), mat_vec(gs[0], (zero, one))
    ).a1
    assert conj == base


def test_unipotent_class_additive(q3):
    one, zero = q3.from_int(1, INF), q3.zero()
    for f in (1, 3):
        a = unipotent_extension_class(
            unipotent_module(q3, f, q3.from_int(4)), (one, zero), (zero, one)
        ).a1
        b = unipotent_extension_class(
            unipotent_module(q3, f, q3.from_int(11)), (one, zero), (zero, one)
        ).a1
        c = unipotent_extension_class(
            unipotent_module(q3, f, q3.from_int(15)), (one, zero), (zero, one)
        ).a1
        assert c == a + b


def test_unipotent_rejects(q3):
    one, zero = q3.from_int(1, INF), q3.zero()
    m = unipotent_module(q3, 1, q3.from_int(5))
    with pytest.raises(NotUnipotent):
        unipotent_extension_class(m, (zero, one), (one, zero))
    two = mat([[q3.from_int(2), zero], [zero, one]])
    bad = PhiNModule(q3, GaloisShape(1, 1), 2, (two,), m.nmat)
    with pytest.raises(NotUnipotent):
        unipotent_extension_class(bad, (one, zero), (zero, one))
    withn = PhiNModule(
        q3, GaloisShape(1, 1), 2, m.phi, (mat([[zero, zero], [one, zero]]),)
    )
    with pytest.raises(NotUnipotent):
        unipotent_extension_class(withn, (one, zero), (zero, one))
    with pytest.raises(ValidationError):
        unipotent_extension_class(m, (one, zero), (q3.from_int(2), zero))
    line = PhiNModule(q3, GaloisShape(1, 1), 1, (mat([[one]]),), (mat([[zero]]),))
    with pytest.raises(NotUnipotent, match="rank-two"):
        unipotent_extension_class(line, (one,), (one,))


def test_classes_refuse_mixed_data(q3, q2):
    shape = GaloisShape(1, 2)
    k3 = ProductElement.constant(q3, shape, 1)
    with pytest.raises(FieldMismatch, match="different coefficient fields"):
        H1Tate(q2.from_int(1), k3)
    x = H1Trivial(q3.from_int(1), k3)
    y2 = H1Tate(q2.from_int(1), ProductElement.constant(q2, shape, 1))
    with pytest.raises(FieldMismatch, match="classes use different"):
        cup(x, y2)
    other = ProductElement.constant(q3, GaloisShape(2, 1), 1)
    with pytest.raises(ShapeMismatch):
        satisfies_colmez_condition(x, other)
    with pytest.raises(ShapeMismatch):
        degenerate_condition(x, other)


def test_unipotent_defect_outside_a_low_precision_fixed_line(q3):
    # a = [[1, O(3)], [27, 1]] fixes sub = (6, 2 mod 9) at its floors, but
    # its defect (0, -54) on quot = (-2, 0) leaves sub's line
    shape = GaloisShape(1, 1)
    one, zero = q3.from_int(1, INF), q3.zero()
    a = mat([[one, q3.from_int(3, prec=1)], [q3.from_int(27, INF), one]])
    m = PhiNModule(q3, shape, 2, (a,), (mat([[zero] * 2] * 2),))
    sub = [q3.from_int(6, INF), q3.from_int(2, prec=2)]
    quot = [q3.from_int(-2, INF), zero]
    with pytest.raises(NotUnipotent, match="defect leaves the fixed line"):
        unipotent_extension_class(m, sub, quot)
    # sub = (-81 mod 3, 9) and quot = (4, 6) do not span: sub may be (6, 9)
    a = mat([[one, q3.from_int(2, INF)], [zero, one]])
    m = PhiNModule(q3, shape, 2, (a,), (mat([[zero] * 2] * 2),))
    sub = [q3.from_int(-81, prec=1), q3.from_int(9, INF)]
    quot = [q3.from_int(4, prec=3), q3.from_int(6, prec=3)]
    with pytest.raises(ValidationError, match="trivializations do not span the fiber"):
        unipotent_extension_class(m, sub, quot)
