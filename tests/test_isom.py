import pytest

from phinmod.coeff import GaloisShape
from phinmod.errors import PrecisionLoss, UnsupportedEnumeration, ValidationError
from phinmod.filtration import Filtration, is_admissible
from phinmod.isom import IsoVerdict, is_isomorphic
from phinmod.linalg import Subspace, inv, mat, mat_mul, mat_vec
from phinmod.modules import PhiNModule
from phinmod.monodromy import extract_invariants
from phinmod.padic import INF, make_element


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
    m4 = onestot(q3, [[3]], [[1]])
    f = fil1(q3, 1, [(2, Subspace.full(q3, 1))])
    g = fil1(q3, 1, [(5, Subspace.full(q3, 1))])
    assert is_isomorphic(m1, f, m2, f).isomorphic
    assert is_isomorphic(m1, f, m3, f).reason == "cycle spectra differ"
    assert is_isomorphic(m1, f, m2, g).reason == "filtration jumps differ"
    # rank one follows the general rule, so the slot operator counts
    assert is_isomorphic(m4, f, m1, f).reason == "slot operator supports differ"


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
    assert is_isomorphic(m, fa, m, fb).reason == "filtration lines cannot be aligned"
    # a non-diagonal conjugate has the same characteristic polynomial but
    # another frame, which is taken at m's roots
    g = imat(q3, [[2, 1], [1, 1]])
    verdict = is_isomorphic(m, fa, conjugate(m, g), push_fil(fb, g))
    assert verdict.reason == "filtration lines cannot be aligned"


def test_zero_patterns_told_apart_only_at_precision_decide_nothing(q3):
    # an exact zero against a nonzero entry is a certified difference; a
    # zero known to five digits is not, and iso refuses at precision
    loose = make_element(q3, [0], 0, 5)
    one, zero = q3.from_int(1, INF), q3.zero()
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [0, 0]])

    def line_fil(x):
        return fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, Subspace.from_vectors(q3, 2, [(one, x)]))])

    assert is_isomorphic(m, line_fil(zero), m, line_fil(one)).reason == "filtration lines cannot be aligned"
    for first, second in ((line_fil(loose), line_fil(one)), (line_fil(one), line_fil(loose))):
        with pytest.raises(PrecisionLoss, match="vanish at precision only"):
            is_isomorphic(m, first, m, second)
    f = line_fil(one)
    acting = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])

    def with_n(x):
        return PhiNModule(q3, m.shape, 2, m.phi, (mat([[zero, zero], [x, zero]]),))

    assert is_isomorphic(acting, f, with_n(zero), f).reason == "slot operator supports differ"
    with pytest.raises(PrecisionLoss, match="vanish at precision only"):
        is_isomorphic(acting, f, with_n(loose), f)
    # a certified difference later on still decides
    assert is_isomorphic(acting, line_fil(zero), with_n(loose), line_fil(one)).reason == (
        "filtration lines cannot be aligned"
    )


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


def test_spectra_that_do_not_split_are_told_apart(q3):
    # T^2 - 2 and T^2 - 5 have no root in Q3: the differing polynomials
    # decide, in either order, before any root is looked for
    m1 = onestot(q3, [[0, 2], [1, 0]], [[0, 0], [0, 0]])
    m2 = onestot(q3, [[0, 5], [1, 0]], [[0, 0], [0, 0]])
    f = fil1(q3, 2, [(0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 0]))])
    for a, b in ((m1, m2), (m2, m1)):
        assert is_isomorphic(a, f, b, f) == IsoVerdict(False, "cycle spectra differ")


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


def test_a_filtration_over_another_field_or_shape_is_refused(q3, q9):
    # each filtration must have its module's field, shape and rank; a
    # two-embedding or a Q9 filtration on a one-embedding Q3 module is
    # refused by iso in either position, by admissible and by extract
    m = onestot(q3, [[9, 0], [0, 3]], [[0, 0], [1, 0]])
    steps = (0, Subspace.full(q3, 2)), (1, span(q3, 2, [1, 0]))
    fil = fil1(q3, 2, steps)
    two = Filtration(q3, GaloisShape(1, 2), 2, (steps, steps))
    over_q9 = fil1(q9, 2, [(0, Subspace.full(q9, 2)), (1, span(q9, 2, [1, 0]))])
    for bad in (two, over_q9):
        for call in (
            lambda: is_isomorphic(m, bad, m, fil),
            lambda: is_isomorphic(m, fil, m, bad),
            lambda: is_admissible(m, bad),
            lambda: extract_invariants(m, bad),
        ):
            with pytest.raises(ValidationError, match="does not match the module"):
                call()
