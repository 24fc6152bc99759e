import pytest

from phinmod.coeff import GaloisShape
from phinmod.eigen import LineBundleFamily, enumerate_submodules
from phinmod.errors import UnsupportedEnumeration
from phinmod.linalg import mat
from phinmod.modules import PhiNModule, tensor_module
from phinmod.padic import INF


def imat(desc, rows):
    return mat([[desc.from_int(x, INF) for x in r] for r in rows])


def onestot(desc, phi_rows, n_rows):
    shape = GaloisShape(1, 1)
    return PhiNModule(desc, shape, len(phi_rows), (imat(desc, phi_rows),), (imat(desc, n_rows),))


def test_two_distinct_lines(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [0, 0]])
    subs, family = enumerate_submodules(m)
    assert family is None
    assert [s.rank for s in subs] == [1, 1]
    values = sorted(s.module.phi[0][0][0].coefficients()[0][0] for s in subs)
    assert values == [1, 3]


def test_slot_operator_filters_lines(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    subs, family = enumerate_submodules(m)
    assert family is None
    assert len(subs) == 1
    only = subs[0]
    assert only.rank == 1
    assert only.slot_spaces[0].contains_vector((q3.zero(), q3.from_int(1)))
    assert only.module.phi[0][0][0] == q3.from_int(1)


def test_rank3_lines_and_planes(q3):
    from fractions import Fraction

    phi = [[3, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]]
    rows = mat([[q3.from_rational(Fraction(x)) for x in r] for r in phi])
    m = PhiNModule(q3, GaloisShape(1, 1), 3, (rows,), (imat(q3, [[0] * 3] * 3),))
    subs, family = enumerate_submodules(m)
    assert family is None
    assert sorted(s.rank for s in subs) == [1, 1, 1, 2, 2, 2]


def test_rank3_root_plus_irreducible_quadratic(q3):
    # 3 (+) companion(T^2 - 2): T^2 - 2 has no root mod 3, so the cycle has
    # one root in Q3 and the complementary plane is the kernel of the
    # deflated quadratic evaluated at the cycle
    m = onestot(q3, [[3, 0, 0], [0, 0, 2], [0, 1, 0]], [[0] * 3] * 3)
    subs, family = enumerate_submodules(m)
    assert family is None
    assert [s.rank for s in subs] == [1, 2]
    line, plane = subs
    one, zero = q3.from_int(1), q3.zero()
    assert line.slot_spaces[0].contains_vector((one, zero, zero))
    assert line.module.phi[0][0][0] == q3.from_int(3)
    assert plane.slot_spaces[0].contains_vector((zero, one, zero))
    assert plane.slot_spaces[0].contains_vector((zero, zero, one))


def test_rank4_unsupported(q3):
    a = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [0, 0]])
    with pytest.raises(UnsupportedEnumeration):
        enumerate_submodules(tensor_module(a, a))


def test_scalar_cycle_gives_line_family(q3):
    m = onestot(q3, [[2, 0], [0, 2]], [[0, 0], [0, 0]])
    subs, family = enumerate_submodules(m)
    assert subs == []
    assert isinstance(family, LineBundleFamily)
    assert family.value == q3.from_int(2)


def test_scalar_cycle_with_forced_kernel_line(q3):
    # not a coherent module, but exercises the kernel-pinned branch
    m = onestot(q3, [[1, 0], [0, 1]], [[0, 0], [1, 0]])
    subs, family = enumerate_submodules(m)
    assert family is None
    assert len(subs) == 1
    assert subs[0].slot_spaces[0].contains_vector((q3.zero(), q3.from_int(1)))


def test_jordan_cycle_single_line(q2):
    m = onestot(q2, [[1, 1], [0, 1]], [[0, 0], [0, 0]])
    subs, family = enumerate_submodules(m)
    assert family is None
    assert len(subs) == 1
    assert subs[0].slot_spaces[0].contains_vector((q2.from_int(1), q2.zero()))


def test_irreducible_cycle_has_no_proper_subs(q3):
    m = onestot(q3, [[0, 1], [1, 1]], [[0, 0], [0, 0]])
    subs, family = enumerate_submodules(m)
    assert subs == [] and family is None


def test_two_slot_propagation(q3):
    shape = GaloisShape(1, 2)
    phi0 = imat(q3, [[0, 1], [1, 0]])
    phi1 = imat(q3, [[0, 1], [3, 0]])
    z = imat(q3, [[0, 0], [0, 0]])
    m = PhiNModule(q3, shape, 2, (phi0, phi1), (z, z))
    subs, family = enumerate_submodules(m)
    assert len(subs) == 2
    for s in subs:
        # slot-1 fiber is the swap image of the slot-0 fiber
        v = s.slot_spaces[0].gens[0]
        swapped = (v[1], v[0])
        assert s.slot_spaces[1].contains_vector(swapped)
