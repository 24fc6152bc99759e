from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from phinmod.coeff import GaloisShape, ProductElement
from phinmod import monodromy, serial
from phinmod.eigen import _is_diagonal
from phinmod.errors import (
    ConstraintViolation,
    FieldMismatch,
    NotMonodromyType,
    PhinError,
    PrecisionLoss,
    ShapeMismatch,
    ValidationError,
    ZeroEll,
)
from phinmod.filtration import Filtration, hodge_number, is_admissible
from phinmod.linalg import Subspace, det, identity, mat, mat_eq, mat_mul, trace
from phinmod.modules import PhiNModule, n_kernel_flag, newton_number, validate_module
from phinmod.monodromy import (
    MonodromyData,
    build_degenerate,
    build_monodromy,
    build_w,
    check_constraints,
    end0_check,
    end0_with_filtration,
    extract_invariants,
    iso_degenerate,
    twist_to_zero,
)
from phinmod.padic import INF, _times_monomial, make_element
from util import bench_gen, end0_via_hom, roots_by_charpoly, sample_element, sample_invertible, transport

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def kdata(desc, shape, alpha, m, k, ells, degenerate=False):
    ell = ProductElement.from_components(
        desc, shape, [desc.from_rational(c) for c in ells]
    )
    return MonodromyData(alpha, tuple(m), tuple(k), ell, degenerate)


def test_record_validation(q3):
    s2 = GaloisShape(1, 2)
    good = ProductElement.constant(q3, s2, q3.from_int(1))
    MonodromyData(q3.from_int(3), (0, 0), (1, 3), good)
    with pytest.raises(ValidationError):
        MonodromyData(q3.from_int(3), (0,), (1, 3), good)


def test_constraint_checks(q3):
    s1 = GaloisShape(1, 1)
    check_constraints(kdata(q3, s1, q3.from_int(3), [0], [3], [2]))
    with pytest.raises(ConstraintViolation) as err:
        check_constraints(kdata(q3, s1, q3.from_int(3), [2], [1], [2]))
    assert err.value.constraint == "jump-gap"
    with pytest.raises(ConstraintViolation) as err:
        check_constraints(kdata(q3, s1, q3.from_int(3), [0], [2], [2]))
    assert err.value.constraint == "degree-balance"


def test_degenerate_constraints(q3):
    s2 = GaloisShape(1, 2)
    alpha = q3.from_int(9)
    check_constraints(kdata(q3, s2, alpha, [0, 0], [3, 3], [1, 0], degenerate=True))
    with pytest.raises(ZeroEll):
        check_constraints(kdata(q3, s2, alpha, [0, 0], [3, 3], [0, 0], degenerate=True))
    # a vanishing marked slope under the largest jump starves the marked line
    with pytest.raises(ConstraintViolation) as err:
        check_constraints(kdata(q3, s2, alpha, [0, 0], [1, 5], [1, 0], degenerate=True))
    assert err.value.constraint == "marked-line-bound"


def test_build_monodromy_standard(q3):
    s1 = GaloisShape(1, 1)
    data = kdata(q3, s1, q3.from_int(3), [0], [3], [2])
    mod, fil = build_monodromy(data)
    validate_module(mod)
    assert mod.phi[0][0][0] == q3.from_int(9)
    assert mod.phi[0][1][1] == q3.from_int(3)
    assert mod.nmat[0][1][0] == q3.from_int(1)
    assert newton_number(mod) == 3 == hodge_number(fil)
    assert is_admissible(mod, fil).admissible
    assert n_kernel_flag(mod) == (Subspace.from_vectors(q3, 2, [(q3.zero(), q3.one())]),)


def test_build_monodromy_rejects_and_flag_collapse(q3):
    s1 = GaloisShape(1, 1)
    with pytest.raises(ConstraintViolation):
        build_monodromy(kdata(q3, s1, q3.from_int(1), [0], [3], [2]))
    with pytest.raises(ValidationError):
        build_monodromy(kdata(q3, s1, q3.from_int(3), [0], [3], [2], degenerate=True))
    # unchecked crossed jumps fall back to a one-step flag
    _, fil = build_monodromy(kdata(q3, s1, q3.from_int(3), [2], [1], [2]), check=False)
    assert fil.steps[0] == ((1, Subspace.full(q3, 2)),)


def test_build_degenerate(q3):
    s1 = GaloisShape(1, 1)
    data = kdata(q3, s1, q3.from_int(1), [0], [1], [1], degenerate=True)
    mod, fil = build_degenerate(data)
    validate_module(mod)
    assert n_kernel_flag(mod) == ()
    assert is_admissible(mod, fil).admissible
    with pytest.raises(ZeroEll):
        build_degenerate(kdata(q3, s1, q3.from_int(1), [0], [1], [0], degenerate=True))


def test_degenerate_bound_matches_admissibility(q3):
    s2 = GaloisShape(1, 2)
    bad = kdata(q3, s2, q3.from_int(9), [0, 0], [1, 5], [1, 0], degenerate=True)
    mod, fil = build_degenerate(bad, check=False)
    verdict = is_admissible(mod, fil)
    assert not verdict.admissible
    # the witness is the heavy eigenline pinned by the vanishing marked slope
    worst = [c for c in verdict.certificates if not c.ok]
    assert worst and any(c.t_hodge > c.t_newton for c in worst)


def test_build_w_shape(q3):
    s1 = GaloisShape(1, 1)
    ell = ProductElement.constant(q3, s1, q3.from_int(2))
    mod, fil = build_w(ell, (1,))
    validate_module(mod)
    assert newton_number(mod) == 0 == hodge_number(fil)
    assert is_admissible(mod, fil).admissible
    f3 = Subspace.from_vectors(q3, 3, [(q3.zero(), q3.zero(), q3.one())])
    f23 = Subspace.from_vectors(
        q3, 3, [(q3.zero(), q3.one(), q3.zero()), (q3.zero(), q3.zero(), q3.one())]
    )
    assert n_kernel_flag(mod) == (f3, f23)
    with pytest.raises(ConstraintViolation):
        build_w(ell, (0,))


def test_w_kernel_flag_pieces_balance(q3):
    # both kernel-flag pieces have slope and jump degree -n when every k is 1
    s2 = GaloisShape(1, 2)
    ell = ProductElement.constant(q3, s2, q3.from_int(1))
    mod, fil = build_w(ell, (1, 1))
    verdict = is_admissible(mod, fil)
    assert verdict.admissible
    flagged = {c.rank: c for c in verdict.certificates if c.slot0 in n_kernel_flag(mod)}
    assert flagged[1].t_newton == flagged[1].t_hodge == -2
    assert flagged[2].t_newton == flagged[2].t_hodge == -2


def test_extract_roundtrip(q3):
    s2 = GaloisShape(1, 2)
    data = kdata(q3, s2, q3.from_int(9), [0, 1], [2, 3], [2, 5])
    mod, fil = build_monodromy(data)
    out = extract_invariants(mod, fil)
    assert out.alpha == data.alpha and not out.degenerate
    assert out.m == data.m and out.k == data.k
    assert all(a == b for a, b in zip(out.ell.comps, data.ell.comps))
    moved, moved_fil = transport(mod, fil, seed=7)
    out2 = extract_invariants(moved, moved_fil)
    assert out2.alpha == data.alpha and out2.m == data.m and out2.k == data.k
    assert all(a == b for a, b in zip(out2.ell.comps, data.ell.comps))


def test_extract_roundtrip_degenerate(q3):
    s1 = GaloisShape(1, 1)
    data = kdata(q3, s1, q3.from_int(1), [0], [1], [5], degenerate=True)
    mod, fil = build_degenerate(data)
    moved, moved_fil = transport(mod, fil, seed=11)
    out = extract_invariants(moved, moved_fil)
    assert out.degenerate and out.alpha == data.alpha
    assert iso_degenerate(data, out)


def test_extract_rejects(q3):
    s1 = GaloisShape(1, 1)
    data = kdata(q3, s1, q3.from_int(3), [0], [3], [2])
    mod, fil = build_monodromy(data)
    pole = Filtration(
        q3,
        s1,
        2,
        (((0, Subspace.full(q3, 2)), (3, Subspace.from_vectors(q3, 2, [(q3.zero(), q3.one())]))),),
    )
    with pytest.raises(NotMonodromyType):
        extract_invariants(mod, pole)
    wrong, wrong_fil = build_degenerate(
        kdata(q3, s1, q3.from_int(1), [0], [1], [1], degenerate=True), check=False
    )
    # shift one slope so the two cycle slopes are no longer one twist apart
    bad = wrong.phi[0]
    bad = ((bad[0][0] * q3.from_int(3), bad[0][1]), bad[1])
    from phinmod.modules import PhiNModule

    with pytest.raises(NotMonodromyType):
        extract_invariants(PhiNModule(q3, s1, 2, (bad,), wrong.nmat), wrong_fil)


def test_iso_degenerate_classification(q3):
    s2 = GaloisShape(1, 2)
    alpha = q3.from_int(9)
    base = kdata(q3, s2, alpha, [0, 0], [3, 3], [1, 2], degenerate=True)
    assert iso_degenerate(base, kdata(q3, s2, alpha, [0, 0], [3, 3], [2, 4], degenerate=True))
    assert not iso_degenerate(base, kdata(q3, s2, alpha, [0, 0], [3, 3], [1, 3], degenerate=True))
    assert not iso_degenerate(base, kdata(q3, s2, alpha, [0, 0], [3, 3], [1, 0], degenerate=True))
    assert not iso_degenerate(
        base, kdata(q3, s2, alpha * q3.from_int(2), [0, 0], [3, 3], [1, 2], degenerate=True)
    )
    with pytest.raises(ValidationError):
        iso_degenerate(base, kdata(q3, s2, alpha, [0, 0], [3, 3], [1, 2]))


def test_twist_to_zero(q3, q3_ram):
    s1 = GaloisShape(1, 1)
    data = kdata(q3, s1, q3.from_int(9), [1], [4], [2])
    tw = twist_to_zero(data)
    assert tw.m == (0,) and tw.k == (3,)
    assert tw.alpha == q3.from_int(3)
    check_constraints(tw)
    s21 = GaloisShape(2, 1)
    odd = kdata(q3, s21, q3.from_int(3), [1, 0], [2, 3], [1, 1])
    with pytest.raises(ConstraintViolation) as err:
        twist_to_zero(odd)
    assert err.value.constraint == "twist-integrality"
    # over a ramified coefficient field the half step exists
    ram = kdata(q3_ram, s21, q3_ram.uniformizer(INF) ** 3, [1, 0], [3, 4], [1, 1])
    tw2 = twist_to_zero(ram)
    assert tw2.m == (0, 0) and tw2.k == (2, 4)
    assert tw2.alpha == q3_ram.uniformizer(INF) ** 2
    check_constraints(tw2)


def test_end0_check_matches_bracket_module(q3):
    s1 = GaloisShape(1, 1)
    verdict = end0_check(kdata(q3, s1, q3.from_int(6), [0], [3], [2]))
    assert verdict.intrinsic.isomorphic and verdict.direct_map and verdict.ok
    s2 = GaloisShape(1, 2)
    verdict2 = end0_check(kdata(q3, s2, q3.from_int(3), [0, 0], [1, 3], [1, 2]))
    assert verdict2.ok
    with pytest.raises(ConstraintViolation):
        end0_check(kdata(q3, s1, q3.from_int(9), [1], [4], [2]))


def test_records_and_builders_refuse_mixed_data(q3, q2):
    s1, s2 = GaloisShape(1, 1), GaloisShape(1, 2)
    with pytest.raises(FieldMismatch, match="different coefficient fields"):
        kdata(q3, s1, q2.from_int(3), [0], [3], [2])
    with pytest.raises(ValidationError, match="not marked degenerate"):
        build_degenerate(kdata(q3, s1, q3.from_int(3), [0], [3], [2]))
    with pytest.raises(ValidationError, match="need 2 jump entries"):
        build_w(ProductElement.constant(q3, s2, 1), (1,))
    base = kdata(q3, s2, q3.from_int(9), [0, 0], [3, 3], [1, 2], degenerate=True)
    with pytest.raises(FieldMismatch, match="different coefficient fields"):
        iso_degenerate(base, kdata(q2, s2, q2.from_int(4), [0, 0], [3, 3], [1, 2], degenerate=True))
    with pytest.raises(ShapeMismatch, match="different shapes"):
        iso_degenerate(base, kdata(q3, GaloisShape(2, 1), q3.from_int(9), [0, 0], [3, 3], [1, 2], degenerate=True))


def test_extract_refuses_a_filtration_of_another_module(q3):
    s1 = GaloisShape(1, 1)
    mod, fil = build_monodromy(kdata(q3, s1, q3.from_int(3), [0], [3], [2]))
    line = Filtration(q3, s1, 1, (((0, Subspace.full(q3, 1)),),))
    with pytest.raises(ValidationError, match="does not match the module"):
        extract_invariants(mod, line)


def test_twist_to_zero_keeps_a_record_already_at_zero(q3):
    data = kdata(q3, GaloisShape(1, 1), q3.from_int(3), [0], [3], [2])
    assert twist_to_zero(data) is data


def test_end0_check_reports_a_wrong_direct_map(q3, monkeypatch):
    data = kdata(q3, GaloisShape(1, 1), q3.from_int(6), [0], [3], [2])
    # the identity on (f1, f2, f3) intertwines neither operator nor the flags
    monkeypatch.setattr(monodromy, "_w_map", lambda desc: identity(desc, 3))
    verdict = end0_check(data)
    assert verdict.intrinsic.isomorphic and not verdict.direct_map and not verdict.ok


def _end0_inputs():
    """(module, filtration) pairs: the built module of every fixture with a
    monodromy payload and of each end0 record of the verdicts-p60 inputs
    for seeds 5 and 9, then the rank-three bracket modules on those
    records."""
    records = []
    for path in sorted(FIXTURES.glob("monodromy_*.json")):
        instance = serial.parse_instance(path.read_text("utf-8"))
        if instance.kind == "monodromy":
            records.append(instance.objects["monodromy"])
    gen = bench_gen()
    brackets = []
    for seed in (5, 9):
        doc = gen.inputs("verdicts-p60", seed)
        for spec in doc["records"]:
            if spec["end0"]:
                desc = serial.parse_field(doc["fields"][spec["tower"]])
                shape = serial.parse_shape(spec["shape"])
                record = serial.parse_monodromy(desc, shape, spec["monodromy"], "/monodromy")
                records.append(record)
                brackets.append(build_w(record.ell, record.k))
    built = [(build_degenerate if r.degenerate else build_monodromy)(r, check=False) for r in records]
    return built + brackets


def test_end0_matches_the_route_through_the_hom_module():
    inputs = _end0_inputs()
    # three fixtures, nine end0 records per seed and their bracket modules
    assert len(inputs) == 3 + 2 * 18
    for mod, fil in inputs:
        e0, efil = end0_with_filtration(mod, fil)
        ref, ref_fil = end0_via_hom(mod, fil)
        assert e0.rank == ref.rank and e0.phi == ref.phi and e0.nmat == ref.nmat
        assert efil.steps == ref_fil.steps


# ---------------------------------------------------------------------------
# the twist-pair rule: a dense cycle's spectrum read off its trace and
# determinant, against the charpoly route


def _cut(x, rng):
    """x known to 1-30 digits past its valuation, or x itself."""
    if x.is_zero_at_prec() or rng.random() < 0.3:
        return x
    return make_element(x.desc, x.mant, x.shift, min(x._k, x._val() + rng.randrange(1, 31)))


def _dense_twist_cycles(desc, f, rng, count):
    """Seeded dense cycles g diag(q alpha, alpha) adj(g), q = p^f, so of
    spectrum det(g) (q alpha, alpha): alpha exact or known to 1-30 digits,
    entries then cut to 1-30 digits, all exact on about one cycle in eight,
    and about one in ten moved off the twist by a factor 1 + c pi^j."""
    q = desc.from_int(desc.p**f, INF)
    zero = desc.zero()
    while count:
        v = Fraction(rng.randrange(-2 * desc.e_l, 2 * desc.e_l + 1), desc.e_l)
        alpha = sample_element(desc, v, rng.randrange(10**6), rng.randrange(1, 31))
        exact = rng.random() < 0.3
        if exact:
            alpha = make_element(desc, alpha.mant, alpha.shift, INF)
        heavy = q * alpha
        if rng.random() < 0.1:
            heavy = heavy * (1 + _times_monomial(desc.from_int(rng.randrange(1, 9), INF), rng.randrange(8)))
        (a, b), (c, d) = g = sample_invertible(desc, 2, rng.randrange(10**6))
        cycle = mat_mul(g, mat_mul(mat([[heavy, zero], [zero, alpha]]), mat([[d, -b], [-c, a]])))
        if not (exact and rng.random() < 0.4):
            cycle = mat([[_cut(x, rng) for x in r] for r in cycle])
        if not _is_diagonal(cycle):
            count -= 1
            yield q, cycle


def _slopes(cycle, q):
    try:
        return [(x.mant, x.shift, x._k) for x in monodromy._cycle_slopes(cycle, q)]
    except PhinError as exc:
        return (type(exc), str(exc))


def test_twist_pair_matches_the_charpoly_route(q3, q9, q3_ram, monkeypatch):
    # the spectrum read by Vieta equals the roots of the characteristic
    # polynomial, found by the Newton polygon and Hensel lifts, in bits and
    # floors; where one route refuses, the other refuses the same way
    cases = [
        case
        for desc in (q3, q9, q3_ram)
        for f in (1, 2)
        for case in _dense_twist_cycles(desc, f, random.Random(10 * desc.degree + f), 400)
    ]
    # a trace that cancels, so that v(det) < 2 v(tr) and the light root
    # would keep no digit: T^2 - 9T + 10 over Q3, known modulo 3^3
    cases.append((q3.from_int(3, INF), mat([[q3.from_int(1, 3), q3.from_int(1, INF)], [q3.from_int(-2, INF), q3.from_int(8, INF)]])))
    got = [_slopes(cycle, q) for q, cycle in cases]
    with monkeypatch.context() as patch:
        patch.setattr(monodromy, "_twist_pair", lambda cycle, q: None)
        patch.setattr(monodromy, "cycle_roots", roots_by_charpoly)
        want = [_slopes(cycle, q) for q, cycle in cases]
    assert got == want
    answered = [
        INF in (trace(cycle)._k, det(cycle)._k)
        for (_, cycle), outcome in zip(cases, got)
        if isinstance(outcome, list)
    ]
    refusals = {outcome for outcome in got if isinstance(outcome, tuple)}
    # most cases answer, some with an exact trace or determinant, and the
    # refusals name the twist and the precision
    assert len(answered) > 2000 and sum(answered) > 100
    assert (NotMonodromyType, "cycle slopes are not one twist apart") in refusals
    assert PrecisionLoss in {t for t, _ in refusals}


def test_extract_reads_a_diagonal_cycle_with_its_entries_digits(q3):
    # diag(3 alpha known to 5 digits, alpha known to 40): alpha is read off
    # the diagonal with all 40 digits, where the trace would give it 5
    alpha = sample_element(q3, 0, 11, 40)
    heavy = q3.from_int(3, INF) * alpha
    heavy = make_element(q3, heavy.mant, heavy.shift, 5)
    zero, one = q3.zero(), q3.from_int(1, INF)
    mod = PhiNModule(q3, GaloisShape(1, 1), 2, (mat([[heavy, zero], [zero, alpha]]),), (mat([[zero, zero], [one, zero]]),))
    line = Subspace.from_vectors(q3, 2, [(one, q3.from_int(2, INF))])
    fil = Filtration(q3, GaloisShape(1, 1), 2, (((0, Subspace.full(q3, 2)), (3, line)),))
    out = extract_invariants(mod, fil)
    assert out.alpha == alpha and out.alpha.prec == 40
