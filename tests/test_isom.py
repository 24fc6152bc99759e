import pytest

from phinmod.coeff import GaloisShape
from phinmod.errors import UnsupportedEnumeration, ValidationError
from phinmod.filtration import Filtration
from phinmod.isom import is_isomorphic
from phinmod.linalg import Subspace, inv, mat, mat_mul, mat_vec
from phinmod.modules import PhiNModule
from phinmod.padic import INF


def imat(desc, rows):
    return mat([[desc.from_int(x, INF) for x in r] for r in rows])


def ivec(desc, xs):
    return tuple(desc.from_int(x, INF) for x in xs)


def span(desc, d, *vecs):
    return Subspace.from_vectors(desc, d, [ivec(desc, v) for v in vecs])


def onestot(desc, phi_rows, n_rows):
    shape = GaloisShape(1, 1)
    return PhiNModule(desc, shape, len(phi_rows), (imat(desc, phi_rows),), (imat(desc, n_rows),))


def fil1(desc, rank, steps):
    return Filtration(desc, GaloisShape(1, 1), rank, (tuple(steps),))


def conjugate(m, g):
    gi = inv(g)
    phi = tuple(mat_mul(g, mat_mul(p, gi)) for p in m.phi)
    nmat = tuple(mat_mul(g, mat_mul(n, gi)) for n in m.nmat)
    return PhiNModule(m.desc, m.shape, m.rank, phi, nmat)


def push_fil(f, g):
    steps = []
    for sig in f.steps:
        steps.append(
            tuple(
                (j, Subspace.from_vectors(f.desc, f.rank, [mat_vec(g, v) for v in sp.gens]))
                for j, sp in sig
            )
        )
    return Filtration(f.desc, f.shape, f.rank, tuple(steps))


def test_rank_one_iso_by_cycle_scalar(q3):
    m1 = onestot(q3, [[3]], [[0]])
    m2 = onestot(q3, [[3]], [[0]])
    m3 = onestot(q3, [[1]], [[0]])
    f = fil1(q3, 1, [(2, Subspace.full(q3, 1))])
    g = fil1(q3, 1, [(5, Subspace.full(q3, 1))])
    assert is_isomorphic(m1, f, m2, f).isomorphic
    assert not is_isomorphic(m1, f, m3, f).isomorphic
    assert not is_isomorphic(m1, f, m2, g).isomorphic


def test_conjugated_pair_is_isomorphic(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    f = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 1]))])
    g = imat(q3, [[2, 1], [1, 1]])
    m2 = conjugate(m, g)
    f2 = push_fil(f, g)
    verdict = is_isomorphic(m, f, m2, f2)
    assert verdict.isomorphic
    assert verdict.scaling is not None


def test_line_position_is_an_invariant_when_operator_acts(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    fa = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 1]))])
    fb = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 2]))])
    assert not is_isomorphic(m, fa, m, fb).isomorphic


def test_line_position_floats_without_operator(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [0, 0]])
    fa = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 1]))])
    fb = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 2]))])
    assert is_isomorphic(m, fa, m, fb).isomorphic


def test_spectra_must_agree(q3):
    m1 = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [0, 0]])
    m2 = onestot(q3, [[9, 0], [0, 1]], [[0, 0], [0, 0]])
    f = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 0]))])
    assert not is_isomorphic(m1, f, m2, f).isomorphic


def test_jordan_spectrum_unsupported(q2):
    m = onestot(q2, [[1, 1], [0, 1]], [[0, 0], [0, 0]])
    f = fil1(q2, 2, [(0, Subspace.full(q2, 2)), (1, span(q2, 2, [1, 0]))])
    with pytest.raises(UnsupportedEnumeration):
        is_isomorphic(m, f, m, f)


def test_is_isomorphic_refuses_mismatched_inputs(q3, q2):
    m = onestot(q3, [[9, 0], [0, 3]], [[0, 0], [0, 0]])
    fil = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 0]))])
    other = onestot(q2, [[4, 0], [0, 2]], [[0, 0], [0, 0]])
    other_fil = fil1(q2, 2, [(0, Subspace.full(q2, 2)), (1, span(q2, 2, [1, 0]))])
    with pytest.raises(ValidationError, match="different bases"):
        is_isomorphic(m, fil, other, other_fil)
    line_fil = fil1(q3, 1, [(0, Subspace.full(q3, 1))])
    with pytest.raises(ValidationError, match="filtration rank"):
        is_isomorphic(m, line_fil, m, fil)
