import random
from collections import Counter
from fractions import Fraction

import pytest

from phinmod import filtration, serial
from phinmod.coeff import GaloisShape
from phinmod.eigen import StableSubmodule, enumerate_submodules
from phinmod.errors import PhinError, PrecisionLoss, ValidationError
from phinmod.filtration import (
    AdmissibilityVerdict,
    FamilyCertificate,
    Filtration,
    _intersection_dims,
    _loose_input,
    _submodule_hodge,
    dual_filtration,
    hodge_number,
    induce_on_submodule,
    is_admissible,
    tensor_filtration,
)
from phinmod.linalg import Subspace, mat
from phinmod.modules import PhiNModule
from phinmod.monodromy import build_degenerate, build_monodromy, build_w, end0_with_filtration
from phinmod.padic import INF, LocalFieldDesc, make_element
from util import bench_gen, exact_lift_module, jump_at, transport


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


# ---------------------------------------------------------------------------
# a certificate's t_H is read off intersection dimensions; the induced
# filtration is the reference


def _outcome(f, *args):
    try:
        return f(*args)
    except PhinError as exc:
        return type(exc), str(exc)


def _induced_hodge(fil, sub):
    return hodge_number(induce_on_submodule(fil, sub))


def _verdict_pairs(seed, prec):
    """(module, filtration) pairs on the benchmark's verdict records at the
    given precision: each record's transported module, its built module
    and, for an end0 record, End0 and W with their transport twins.  What
    does not parse or build at that precision is left out."""
    doc = bench_gen().verdict_inputs(seed, prec, True)
    for spec in doc["records"]:
        desc = serial.parse_field(doc["fields"][spec["tower"]])
        shape = serial.parse_shape(spec["shape"])
        moved = spec["moved"]
        try:
            yield (
                serial.parse_module(desc, shape, moved["module"], "/module"),
                serial.parse_filtration(desc, shape, 2, moved["filtration"], "/filtration"),
            )
            record = serial.parse_monodromy(desc, shape, spec["monodromy"], "/monodromy")
            built = (build_degenerate if record.degenerate else build_monodromy)(record, check=False)
            yield built
            if spec["end0"]:
                for pair in (end0_with_filtration(*built), build_w(record.ell, record.k)):
                    yield pair
                    yield transport(*pair, seed)
        except PhinError:
            continue


def test_certificates_match_the_induced_hodge_number():
    compared = refused = 0
    for prec in (60, 10, 4, 2, 1):
        for mod, fil in _verdict_pairs(5, prec):
            try:
                subs, _ = enumerate_submodules(mod)
            except PhinError:
                refused += 1
                continue
            want = [_outcome(_induced_hodge, fil, sub) for sub in subs]
            loose = _loose_input(mod, fil)
            assert [_outcome(_submodule_hodge, fil, sub, loose) for sub in subs] == want
            verdict = _outcome(is_admissible, mod, fil)
            if isinstance(verdict, AdmissibilityVerdict):
                assert [c.t_hodge for c in verdict.certificates] == want
            compared += len(subs)
    assert compared > 450 and refused


def test_plane_meeting_two_steps_in_one_line(q3):
    # e1 and e2 both leave <e1+e2, e3>, but their residuals are
    # proportional: the plane <e1, e2> meets the steps in dimensions 2, 1, 1
    m = onestot(q3, [[9, 0, 0], [0, 3, 0], [0, 0, 1]], [[0] * 3] * 3)
    f = fil1(q3, 3, [(0, full(q3, 3)), (1, span(q3, 3, [1, 1, 0], [0, 0, 1])), (2, span(q3, 3, [1, 1, 0]))])
    plane = span(q3, 3, [1, 0, 0], [0, 1, 0])
    assert _intersection_dims(f.steps[0], plane, False) == [2, 1, 1]
    subs, _ = enumerate_submodules(m)
    (sub,) = [s for s in subs if s.slot_spaces[0] == plane]
    assert _submodule_hodge(f, sub, False) == _induced_hodge(f, sub) == 2
    verdict = is_admissible(m, f)
    assert [c.t_hodge for c in verdict.certificates if c.slot0 == plane] == [2]


def test_is_admissible_builds_no_induced_filtration(monkeypatch):
    calls = []
    for name in ("induce_on_submodule", "restrict_steps"):
        real = getattr(filtration, name)
        monkeypatch.setattr(filtration, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    doc = bench_gen().inputs("verdicts-p60", 5)
    certificates = 0
    for spec in doc["records"]:
        desc = serial.parse_field(doc["fields"][spec["tower"]])
        record = serial.parse_monodromy(desc, serial.parse_shape(spec["shape"]), spec["monodromy"], "/monodromy")
        verdict = is_admissible(*(build_degenerate if record.degenerate else build_monodromy)(record, check=False))
        assert verdict.admissible == spec["admissible"]
        certificates += len(verdict.certificates)
    assert len(doc["records"]) == 36 and certificates and calls == []


# ---------------------------------------------------------------------------
# a scalar cycle's line family counts containment by the certificates' rule

Q3_20 = LocalFieldDesc(3, 1, 1, (0, 1), ((-3,), (1,)), 20)
Q3_RAM_20 = LocalFieldDesc(3, 1, 2, (0, 1), ((-3,), (0,), (1,)), 20)
NOT_CERTIFIED = (PrecisionLoss, "intersection with a filtration step is not certified")
LOOSE_ZERO = make_element(Q3_20, (0,), 0, 1)


def _entry(rng, desc, loose):
    """±r·3^v with v < 3, a quarter of them zeros; when loose, known to one
    to three digits, the zeros as O(π^k) for k = 1, 2, 3."""
    if rng.random() < 0.25:
        return make_element(desc, (0,) * desc.degree, 0, rng.randint(1, 3) if loose else INF)
    v = rng.randrange(3)
    c = rng.choice((1, -1)) * rng.choice((1, 2, 4, 5, 7, 8)) * 3**v
    return desc.from_int(c, Fraction(desc.e_l * v + rng.randint(1, 3), desc.e_l) if loose else INF)


def _scalar_family(desc, shape, lam, steps):
    """Rank 2 with the cycle λ on the wrap transition, the identity
    elsewhere and N = 0; steps holds (j0, j1, line) per embedding, the flag
    full ⊃ line with jumps j0 < j1."""
    phi = (imat(desc, [[1, 0], [0, 1]]),) * (shape.f - 1) + (imat(desc, [[lam, 0], [0, lam]]),)
    m = PhiNModule(desc, shape, 2, phi, (imat(desc, [[0, 0], [0, 0]]),) * shape.f)
    sigs = tuple(((j0, full(desc, 2)), (j1, Subspace.from_vectors(desc, 2, [line]))) for j0, j1, line in steps)
    return m, Filtration(desc, shape, 2, sigs)


def _family_inputs(seed, count, loose):
    """Seeded scalar families over Q3 and Q3(√3) at precision 20, shapes
    (e, f) in {1, 2}², λ in {1, 3, 9}, jumps j0 in {-1, 0} and j1 - j0 in
    {1, 2, 3}, line entries drawn by _entry; a line that vanishes is drawn
    again."""
    rng = random.Random(seed)
    while count:
        desc = rng.choice((Q3_20, Q3_RAM_20))
        shape = GaloisShape(rng.randint(1, 2), rng.randint(1, 2))
        lam = rng.choice((1, 3, 9))
        steps = []
        for _ in range(shape.n):
            j0 = rng.choice((-1, 0))
            steps.append((j0, j0 + rng.randint(1, 3), (_entry(rng, desc, loose), _entry(rng, desc, loose))))
        try:
            yield _scalar_family(desc, shape, lam, steps)
        except ValidationError:
            continue
        count -= 1


def _admissible(m, fil):
    return is_admissible(m, fil).admissible


def test_loose_families_answer_as_every_exact_lift():
    # a verdict that rests on a loose containment would disagree with some
    # lift; every such containment is refused instead
    seen = Counter()
    for m, fil in _family_inputs(30, 200, True):
        got = _outcome(_admissible, m, fil)
        seen[got] += 1
        if got != NOT_CERTIFIED:
            assert [_admissible(*exact_lift_module(m, fil, random.Random(s))) for s in range(4)] == [got] * 4
    assert seen[True] and seen[False] and seen[NOT_CERTIFIED]


def test_a_balanced_family_refuses_a_loose_containment():
    # t_N = t_H = 0 and t_N(L) = 0.  The step lines (1, 0) and (1, O(3))
    # agree at the working precision; counting each in the other's step
    # gives t_H(L) = 0 + 1 > 0, False, where every exact lift keeps them
    # apart (largest t_H(L) = 0) and answers True
    m, fil = _scalar_family(Q3_20, GaloisShape(2, 1), 1, [(-1, 0, ivec(Q3_20, [1, 0])), (0, 1, (Q3_20.one(), LOOSE_ZERO))])
    assert _outcome(is_admissible, m, fil) == NOT_CERTIFIED
    assert [_admissible(*exact_lift_module(m, fil, random.Random(s))) for s in range(8)] == [True] * 8


def test_a_special_line_lies_in_its_own_step():
    # the only line above the generic Hodge number is the step's own, loose
    # line: its containment needs no reduction, so the family answers
    # t_H(L) = 2 > t_N(L) = 1 as every exact lift does
    line = (Q3_20.one(), Q3_20.from_int(2, 1))
    m, fil = _scalar_family(Q3_20, GaloisShape(1, 1), 3, [(0, 2, line)])
    verdict = is_admissible(m, fil)
    assert verdict.balanced and (verdict.family.max_line_hodge, verdict.family.line_newton) == (2, 1)
    assert not verdict.admissible
    assert [_admissible(*exact_lift_module(m, fil, random.Random(s))) for s in range(8)] == [False] * 8


def test_an_unbalanced_module_leaves_an_undecided_family_out():
    # t_N = 0 against t_H = 2 decides False; whether a line lies in both
    # steps, (1, 0) and (1, O(3)), is not decided, so the family is left out
    m, fil = _scalar_family(Q3_20, GaloisShape(2, 1), 1, [(0, 1, ivec(Q3_20, [1, 0])), (0, 1, (Q3_20.one(), LOOSE_ZERO))])
    verdict = is_admissible(m, fil)
    assert not verdict.balanced and verdict.family is None and not verdict.admissible


def test_exact_family_certificates_match_the_jump_reference():
    # on exact input the rule counts containment as Subspace.contains does:
    # every line's Hodge number is at least the generic one, so the largest
    # is that of some step's line
    for m, fil in _family_inputs(31, 500, False):
        lines = [v for sig in fil.steps for _, v in sig[1:]]
        hodge = max(sum(jump_at(sig, line) for sig in fil.steps) for line in lines)
        newton = m.shape.e * m.phi[-1][0][0].valuation()
        assert is_admissible(m, fil).family == FamilyCertificate(newton, hodge, newton >= hodge)
