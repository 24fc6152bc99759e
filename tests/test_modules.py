import random
from fractions import Fraction

import pytest

from phinmod.coeff import GaloisShape
from phinmod.errors import FieldMismatch, NonInvertiblePhi, RelationViolation, ShapeMismatch
from phinmod.linalg import mat, mat_eq, mat_mul, mat_vec, identity, kron
from phinmod.modules import (
    PhiNModule,
    _end0_coords,
    dual_module,
    end0_module,
    frobenius_composite,
    newton_number,
    tensor_module,
    validate_module,
)
from phinmod.padic import INF
from util import agrees_with_lift, exact_lift, loose_q3_matrix, map_to_vec, sample_element, vec_to_map


def imat(desc, rows):
    return mat([[desc.from_int(x, INF) for x in r] for r in rows])


def std2(desc, shape, with_n=True):
    """diag(p, 1) transitions with the standard nilpotent slot operator."""
    p = desc.p
    phi = tuple(imat(desc, [[p, 0], [0, 1]]) for _ in range(shape.f))
    n = [[0, 0], [1, 0]] if with_n else [[0, 0], [0, 0]]
    nmat = tuple(imat(desc, n) for _ in range(shape.f))
    return PhiNModule(desc, shape, 2, phi, nmat)


def test_validate_accepts_standard_pair(q3):
    validate_module(std2(q3, GaloisShape(1, 2)))
    validate_module(std2(q3, GaloisShape(2, 1)))


def test_validate_rejects_wrong_twist(q3):
    shape = GaloisShape(1, 1)
    phi = (imat(q3, [[3, 0], [0, 1]]),)
    nmat = (imat(q3, [[0, 1], [0, 0]]),)
    m = PhiNModule(q3, shape, 2, phi, nmat)
    with pytest.raises(RelationViolation) as err:
        validate_module(m)
    assert err.value.slot == 0


def test_validate_rejects_noninvertible_transition(q3):
    shape = GaloisShape(1, 1)
    m = PhiNModule(q3, shape, 2, (imat(q3, [[3, 0], [0, 0]]),), (imat(q3, [[0, 0], [0, 0]]),))
    with pytest.raises(NonInvertiblePhi):
        validate_module(m)


def test_newton_number_scales_with_ramification(q3):
    unram = std2(q3, GaloisShape(1, 2))
    assert newton_number(unram) == Fraction(2)
    ram = std2(q3, GaloisShape(2, 1))
    assert newton_number(ram) == Fraction(2)
    assert newton_number(std2(q3, GaloisShape(1, 1))) == Fraction(1)


def test_frobenius_composite_order(q2):
    shape = GaloisShape(1, 2)
    a = imat(q2, [[1, 1], [0, 1]])
    b = imat(q2, [[2, 0], [0, 1]])
    zero = imat(q2, [[0, 0], [0, 0]])
    m = PhiNModule(q2, shape, 2, (a, b), (zero, zero))
    # slot 0 goes through a first, then b
    assert mat_eq(frobenius_composite(m), mat_mul(b, a))


def test_dual_negates_newton_number(q3):
    m = std2(q3, GaloisShape(1, 2))
    d = dual_module(m)
    validate_module(d)
    assert newton_number(d) == -newton_number(m)
    dd = dual_module(d)
    for i in range(2):
        assert mat_eq(dd.phi[i], m.phi[i])
        assert mat_eq(dd.nmat[i], m.nmat[i])


def test_tensor_newton_additivity(q3):
    shape = GaloisShape(1, 2)
    a = std2(q3, shape)
    b = std2(q3, shape, with_n=False)
    t = tensor_module(a, b)
    validate_module(t)
    assert newton_number(t) == b.rank * newton_number(a) + a.rank * newton_number(b)


def test_tensor_monodromy_is_a_derivation(q3):
    shape = GaloisShape(1, 1)
    a = std2(q3, shape)
    b = std2(q3, shape)
    t = tensor_module(a, b)
    x = tuple(sample_element(q3, 0, 61 + i) for i in range(2))
    y = tuple(sample_element(q3, 0, 71 + i) for i in range(2))
    xy = tuple(u * w for u in x for w in y)
    lhs = mat_vec(t.nmat[0], xy)
    nx = mat_vec(a.nmat[0], x)
    ny = mat_vec(b.nmat[0], y)
    rhs = tuple(
        u * w + s * v for (u, w, s, v) in (
            (nx[i], y[j], x[i], ny[j]) for i in range(2) for j in range(2)
        )
    )
    for l, r in zip(lhs, rhs):
        diff = l - r
        assert diff.is_exact_zero() or diff.is_zero_at_prec()


def test_hom_action_convention(q3):
    from phinmod.linalg import inv, mat_sub

    shape = GaloisShape(1, 2)
    m1 = std2(q3, shape)
    m2 = std2(q3, shape, with_n=False)
    h = tensor_module(dual_module(m1), m2)
    x = imat(q3, [[2, 1], [5, 3]])
    for i in range(2):
        want = mat_mul(mat_mul(m2.phi[i], x), inv(m1.phi[i]))
        got = vec_to_map(mat_vec(h.phi[i], map_to_vec(x)), 2, 2)
        assert mat_eq(got, want)
        want_n = mat_sub(mat_mul(m2.nmat[i], x), mat_mul(x, m1.nmat[i]))
        got_n = vec_to_map(mat_vec(h.nmat[i], map_to_vec(x)), 2, 2)
        assert mat_eq(got_n, want_n)


def test_map_vec_roundtrip(q2):
    x = imat(q2, [[1, 2, 3], [4, 5, 6]])
    assert mat_eq(vec_to_map(map_to_vec(x), 3, 2), x)


def test_end0_of_standard_module(q3):
    m = std2(q3, GaloisShape(1, 1))
    e0, basis = end0_module(m)
    assert e0.rank == 3
    validate_module(e0)
    assert newton_number(e0) == 0
    # every basis member is traceless in map form
    for b in basis:
        as_map = vec_to_map(b, 2, 2)
        tr = as_map[0][0] + as_map[1][1]
        assert tr.is_exact_zero()
    # bracket with [[0,0],[1,0]] by hand expansion
    assert mat_eq(e0.nmat[0], imat(q3, [[0, 0, 0], [0, 0, 2], [-1, 0, 0]]))
    got_phi = e0.phi[0]
    assert got_phi[0][0] == q3.from_int(3)
    assert got_phi[1][1] == q3.from_rational(Fraction(1, 3))
    assert got_phi[2][2] == q3.from_int(1)


def test_module_refuses_malformed_slot_matrices(q3, q2):
    one = mat([[q3.from_int(1, INF)]])
    shape = GaloisShape(1, 2)
    with pytest.raises(ShapeMismatch, match="need 2 slot matrices"):
        PhiNModule(q3, shape, 1, (one,), (one,))
    with pytest.raises(ShapeMismatch, match="must be 1x1"):
        PhiNModule(q3, GaloisShape(1, 1), 1, (identity(q3, 2),), (one,))
    with pytest.raises(FieldMismatch, match="different field"):
        PhiNModule(q3, GaloisShape(1, 1), 1, (mat([[q2.from_int(1)]]),), (one,))
    a = PhiNModule(q3, GaloisShape(1, 1), 1, (one,), (one,))
    b = PhiNModule(q3, shape, 1, (one, one), (one, one))
    with pytest.raises(ShapeMismatch, match="different bases"):
        tensor_module(a, b)


def test_end0_of_a_line_is_zero(q3):
    three = mat([[q3.from_int(3, INF)]])
    m = PhiNModule(q3, GaloisShape(1, 1), 1, (three,), (mat([[q3.zero()]]),))
    e0, basis = end0_module(m)
    assert e0.rank == 0 and basis == [] and e0.phi == ((),)


def test_end0_of_an_operator_known_to_few_digits(q3):
    # an unvalidated rank-3 module whose entries are known to one to five
    # digits: conjugating a trace-zero map by phi keeps the trace zero at
    # precision, and every entry of E0 equals, at its floor, the entry
    # end0_module gives on exact lifts of the input
    def el(c, prec=INF):
        return q3.from_rational(Fraction(c), prec)

    phi = mat([[el(1), el(-1), el(243, 1)], [el(2), el(-99), el(9, 3)], [el(243), el(-1, 5), el(Fraction(1, 3), 3)]])
    nmat = mat([[el(-2), q3.zero(), q3.zero()], [q3.zero(), el(4), q3.zero()], [q3.zero()] * 3])
    m = PhiNModule(q3, GaloisShape(1, 1), 3, (phi,), (nmat,))
    e0, _ = end0_module(m)
    assert e0.rank == 8
    precs = [x.prec for r in e0.phi[0] for x in r]
    assert (min(precs), max(precs)) == (1, 8)
    rng = random.Random(5)
    for _ in range(5):
        lifted, _ = end0_module(PhiNModule(q3, m.shape, 3, (exact_lift(phi, rng),), (exact_lift(nmat, rng),)))
        assert agrees_with_lift(e0.phi[0], lifted.phi[0])
        assert agrees_with_lift(e0.nmat[0], lifted.nmat[0])


def test_end0_coords_refuse_a_certified_trace(q3):
    # conjugation and the commutator keep the trace at zero, so only a
    # caller's slip reaches this guard: a map whose trace is certified 5
    with pytest.raises(RelationViolation, match="not stable under the operator"):
        _end0_coords(imat(q3, [[1, 2], [3, 4]]))


def test_dual_keeps_the_floors_of_a_loose_zero(q3):
    # a transition with entries zero only at their floors: the dual's
    # transition equals, at its floors, the dual of every exact lift, and
    # holds no exact zero where a lift's does not vanish
    a = loose_q3_matrix(q3)
    zero = imat(q3, [[0, 0], [0, 0]])
    got = dual_module(PhiNModule(q3, GaloisShape(1, 1), 2, (a,), (zero,))).phi[0]
    rng = random.Random(7)
    for _ in range(10):
        lifted = dual_module(PhiNModule(q3, GaloisShape(1, 1), 2, (exact_lift(a, rng),), (zero,))).phi[0]
        assert agrees_with_lift(got, lifted)
