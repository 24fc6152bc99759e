from fractions import Fraction

import pytest

from phinmod.coeff import GaloisShape
from phinmod.eigen import StableSubmodule, enumerate_submodules
from phinmod.errors import ValidationError
from phinmod.filtration import (
    Filtration,
    dual_filtration,
    hodge_number,
    induce_on_submodule,
    is_admissible,
    jump_at,
    quotient_filtration,
    tensor_filtration,
)
from phinmod.linalg import Subspace, mat
from phinmod.modules import PhiNModule
from phinmod.padic import INF


def imat(desc, rows):
    return mat([[desc.from_int(x, INF) for x in r] for r in rows])


def ivec(desc, xs):
    return tuple(desc.from_int(x, INF) for x in xs)


def span(desc, d, *vecs):
    return Subspace.from_vectors(desc, d, [ivec(desc, v) for v in vecs])


def full(desc, d):
    return Subspace.full(desc, d)


def onestot(desc, phi_rows, n_rows):
    shape = GaloisShape(1, 1)
    return PhiNModule(desc, shape, len(phi_rows), (imat(desc, phi_rows),), (imat(desc, n_rows),))


def fil1(desc, rank, steps):
    return Filtration(desc, GaloisShape(1, 1), rank, (tuple(steps),))


def test_validation_rejects_bad_step_lists(q3):
    shape = GaloisShape(1, 1)
    with pytest.raises(ValidationError):
        Filtration(q3, shape, 2, ())
    with pytest.raises(ValidationError):
        fil1(q3, 2, [(0, full(q3, 2)), (0, span(q3, 2, [1, 0]))])
    with pytest.raises(ValidationError):
        fil1(q3, 2, [(0, span(q3, 2, [1, 0]))])
    with pytest.raises(ValidationError):
        fil1(q3, 2, [(0, full(q3, 2)), (1, span(q3, 2, [1, 0])), (2, span(q3, 2, [0, 1]))])


def test_hodge_number_single_embedding(q3):
    f = fil1(q3, 2, [(0, full(q3, 2)), (2, span(q3, 2, [1, 0]))])
    assert hodge_number(f) == Fraction(2)


def test_hodge_number_sums_over_embeddings(q3):
    shape = GaloisShape(2, 1)
    f = Filtration(
        q3,
        shape,
        1,
        (((3, full(q3, 1)),), ((-1, full(q3, 1)),)),
    )
    assert hodge_number(f) == Fraction(2)


def test_jump_at_picks_deepest_step(q3):
    steps = ((0, full(q3, 2)), (4, span(q3, 2, [0, 1])))
    assert jump_at(steps, span(q3, 2, [0, 1])) == 4
    assert jump_at(steps, span(q3, 2, [1, 1])) == 0


def test_induced_filtration_on_kernel_line(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    subs, _ = enumerate_submodules(m)
    assert len(subs) == 1
    sub = subs[0]  # the line through (0, 1)
    away = fil1(q3, 2, [(0, full(q3, 2)), (2, span(q3, 2, [1, 0]))])
    ind = induce_on_submodule(away, sub)
    assert ind.rank == 1
    assert ind.steps[0] == ((0, Subspace.full(q3, 1)),)
    assert hodge_number(ind) == 0
    onto = fil1(q3, 2, [(0, full(q3, 2)), (2, span(q3, 2, [0, 1]))])
    ind2 = induce_on_submodule(onto, sub)
    assert [j for j, _ in ind2.steps[0]] == [2]
    assert hodge_number(ind2) == 2


def test_induced_steps_restrict_onto_each_slot(q3):
    # one step object shared by both embeddings of shape (1, 2), cut down to
    # two different slot lines: the restriction of a shared piece is reused
    # only onto the same span, so the second slot loses the line the first
    # keeps
    shape = GaloisShape(1, 2)
    line0, line1 = span(q3, 2, [1, 0]), span(q3, 2, [1, 1])
    shared = ((0, full(q3, 2)), (2, line0))
    fil = Filtration(q3, shape, 2, (shared, shared))
    sub = StableSubmodule(1, (line0, line1), None)
    ind = induce_on_submodule(fil, sub)
    assert [[j for j, _ in sig] for sig in ind.steps] == [[2], [0]]
    assert hodge_number(ind) == 2


def test_dual_filtration_explicit_and_involutive(q3):
    f = fil1(q3, 2, [(-1, full(q3, 2)), (3, span(q3, 2, [1, 0]))])
    d = dual_filtration(f)
    assert [j for j, _ in d.steps[0]] == [-3, 1]
    assert d.steps[0][1][1] == span(q3, 2, [0, 1])
    assert hodge_number(d) == -hodge_number(f)
    dd = dual_filtration(d)
    assert [j for j, _ in dd.steps[0]] == [j for j, _ in f.steps[0]]
    assert all(a[1] == b[1] for a, b in zip(dd.steps[0], f.steps[0]))


def test_tensor_hodge_additivity(q2):
    fa = fil1(q2, 2, [(0, full(q2, 2)), (2, span(q2, 2, [1, 1]))])
    fb = fil1(q2, 2, [(-1, full(q2, 2)), (1, span(q2, 2, [0, 1]))])
    ft = tensor_filtration(fa, fb)
    assert ft.rank == 4
    assert hodge_number(ft) == 2 * hodge_number(fa) + 2 * hodge_number(fb)


def test_quotient_plus_induced_matches_total(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    subs, _ = enumerate_submodules(m)
    sub = subs[0]
    f = fil1(q3, 2, [(-2, full(q3, 2)), (1, span(q3, 2, [1, 1]))])
    assert hodge_number(induce_on_submodule(f, sub)) + hodge_number(
        quotient_filtration(f, sub)
    ) == hodge_number(f)


def test_admissibility_standard_balance(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    good = fil1(q3, 2, [(0, full(q3, 2)), (1, span(q3, 2, [1, 5]))])
    verdict = is_admissible(m, good)
    assert verdict.balanced and verdict.admissible
    assert verdict.t_newton == verdict.t_hodge == 1
    assert len(verdict.certificates) == 1 and verdict.certificates[0].ok


def test_admissibility_fails_on_deep_stable_line(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    bad = fil1(q3, 2, [(0, full(q3, 2)), (1, span(q3, 2, [0, 1]))])
    verdict = is_admissible(m, bad)
    assert verdict.balanced
    assert not verdict.admissible
    failing = [c for c in verdict.certificates if not c.ok]
    assert len(failing) == 1
    assert failing[0].t_newton == 0 and failing[0].t_hodge == 1


def test_admissibility_line_family_rejects_special_line(q3):
    m = onestot(q3, [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    f = fil1(q3, 2, [(-1, full(q3, 2)), (1, span(q3, 2, [1, 0]))])
    verdict = is_admissible(m, f)
    assert verdict.balanced  # 0 == -1 + 1
    assert verdict.family is not None
    assert verdict.family.max_line_hodge == 1
    assert verdict.family.line_newton == 0
    assert not verdict.admissible


def test_admissibility_line_family_accepts_uniform(q3):
    m = onestot(q3, [[3, 0], [0, 3]], [[0, 0], [0, 0]])
    f = fil1(q3, 2, [(1, full(q3, 2))])
    verdict = is_admissible(m, f)
    assert verdict.balanced and verdict.family is not None and verdict.family.ok
    assert verdict.admissible


def test_validation_names_each_malformed_step_list(q3, q2):
    shape = GaloisShape(1, 1)
    cases = [
        ((), 2, "empty step list"),
        (((Fraction(1, 2), full(q3, 2)),), 2, "jumps must be integers"),
        (((0, full(q3, 3)), (1, span(q3, 3, [1, 0, 0], [0, 1, 0])), (2, span(q3, 3, [0, 0, 1]))), 3, "steps must be nested"),
        (((0, full(q3, 2)), (1, span(q3, 3, [1, 0, 0]))), 2, "wrong ambient space"),
    ]
    for sig, rank, message in cases:
        with pytest.raises(ValidationError, match=message):
            Filtration(q3, shape, rank, (sig,))
    with pytest.raises(ValidationError, match="different bases"):
        tensor_filtration(fil1(q3, 1, [(0, full(q3, 1))]), fil1(q2, 1, [(0, full(q2, 1))]))
