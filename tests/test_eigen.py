import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from phinmod import eigen, isom, linalg, monodromy, padic, serial
from phinmod.cli import Options, execute, run
from phinmod.coeff import GaloisShape
from phinmod.eigen import (
    LineBundleFamily,
    _minus_scalar,
    cycle_roots,
    eigenline,
    enumerate_submodules,
    propagate_space,
    pull_to_slot_zero,
)
from phinmod.errors import NotMonodromyType, PhinError, PrecisionLoss, UnsupportedEnumeration
from phinmod.filtration import Filtration, is_admissible
from phinmod.isom import is_isomorphic
from phinmod.linalg import Subspace, charpoly, mat, mat_vec, right_kernel
from phinmod.modules import PhiNModule, frobenius_composite, newton_number, tensor_module
from phinmod.monodromy import build_degenerate, build_monodromy, end0_check
from phinmod.padic import INF, _times_monomial, make_element, roots_in_field
from phinmod.serial import Instance
from util import (
    agrees_with_lift,
    bench_gen,
    exact_lift,
    loose_q3_matrix,
    newton_by_restriction,
    roots_by_charpoly,
    sample_element,
    transport,
    unram_gen,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def imat(desc, rows):
    return mat([[desc.from_int(x, INF) for x in r] for r in rows])


def onestot(desc, phi_rows, n_rows):
    shape = GaloisShape(1, 1)
    return PhiNModule(desc, shape, len(phi_rows), (imat(desc, phi_rows),), (imat(desc, n_rows),))


def line_value(m, sub):
    """The cycle's eigenvalue on a stable line: the cycle's image of the
    line's echelon generator, read at its unit pivot."""
    ((g,), (pc,)) = sub.slot_spaces[0].gens, sub.slot_spaces[0].pivots
    return mat_vec(frobenius_composite(m), g)[pc]


def test_two_distinct_lines(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [0, 0]])
    subs, family, t_newton = enumerate_submodules(m)
    assert family is None and t_newton == 1
    assert [s.rank for s in subs] == [1, 1]
    values = sorted((line_value(m, s).coefficients()[0][0], s.t_newton) for s in subs)
    assert values == [(1, 0), (3, 1)]


def test_slot_operator_filters_lines(q3):
    m = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [1, 0]])
    subs, family, _ = enumerate_submodules(m)
    assert family is None
    assert len(subs) == 1
    only = subs[0]
    assert only.rank == 1
    assert only.slot_spaces[0].contains_vector((q3.zero(), q3.from_int(1)))
    assert line_value(m, only) == q3.from_int(1) and only.t_newton == 0


def test_rank3_lines_and_planes(q3):
    from fractions import Fraction

    phi = [[3, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]]
    rows = mat([[q3.from_rational(Fraction(x)) for x in r] for r in phi])
    m = PhiNModule(q3, GaloisShape(1, 1), 3, (rows,), (imat(q3, [[0] * 3] * 3),))
    subs, family, _ = enumerate_submodules(m)
    assert family is None
    assert sorted(s.rank for s in subs) == [1, 1, 1, 2, 2, 2]


def test_rank3_root_plus_irreducible_quadratic(q3):
    # 3 (+) companion(T^2 - 2): T^2 - 2 has no root mod 3, so the cycle has
    # one root in Q3 and the complementary plane is the kernel of the
    # deflated quadratic evaluated at the cycle
    m = onestot(q3, [[3, 0, 0], [0, 0, 2], [0, 1, 0]], [[0] * 3] * 3)
    subs, family, _ = enumerate_submodules(m)
    assert family is None
    assert [s.rank for s in subs] == [1, 2]
    line, plane = subs
    one, zero = q3.from_int(1), q3.zero()
    assert line.slot_spaces[0].contains_vector((one, zero, zero))
    assert line_value(m, line) == q3.from_int(3) and line.t_newton == 1
    assert plane.slot_spaces[0].contains_vector((zero, one, zero))
    assert plane.slot_spaces[0].contains_vector((zero, zero, one))


def test_rank4_unsupported(q3):
    a = onestot(q3, [[3, 0], [0, 1]], [[0, 0], [0, 0]])
    with pytest.raises(UnsupportedEnumeration):
        enumerate_submodules(tensor_module(a, a))


def test_scalar_cycle_gives_line_family(q3):
    m = onestot(q3, [[2, 0], [0, 2]], [[0, 0], [0, 0]])
    subs, family, _ = enumerate_submodules(m)
    assert subs == []
    assert isinstance(family, LineBundleFamily)
    assert family.value == q3.from_int(2)


def test_scalar_cycle_with_forced_kernel_line(q3):
    # not a coherent module, but exercises the kernel-pinned branch
    m = onestot(q3, [[1, 0], [0, 1]], [[0, 0], [1, 0]])
    subs, family, _ = enumerate_submodules(m)
    assert family is None
    assert len(subs) == 1
    assert subs[0].slot_spaces[0].contains_vector((q3.zero(), q3.from_int(1)))


def test_jordan_cycle_single_line(q2):
    m = onestot(q2, [[1, 1], [0, 1]], [[0, 0], [0, 0]])
    subs, family, _ = enumerate_submodules(m)
    assert family is None
    assert len(subs) == 1
    assert subs[0].slot_spaces[0].contains_vector((q2.from_int(1), q2.zero()))


def test_irreducible_cycle_has_no_proper_subs(q3):
    m = onestot(q3, [[0, 1], [1, 1]], [[0, 0], [0, 0]])
    subs, family, _ = enumerate_submodules(m)
    assert subs == [] and family is None


def test_two_slot_propagation(q3):
    shape = GaloisShape(1, 2)
    phi0 = imat(q3, [[0, 1], [1, 0]])
    phi1 = imat(q3, [[0, 1], [3, 0]])
    z = imat(q3, [[0, 0], [0, 0]])
    m = PhiNModule(q3, shape, 2, (phi0, phi1), (z, z))
    subs, family, _ = enumerate_submodules(m)
    assert len(subs) == 2
    for s in subs:
        # slot-1 fiber is the swap image of the slot-0 fiber
        v = s.slot_spaces[0].gens[0]
        swapped = (v[1], v[0])
        assert s.slot_spaces[1].contains_vector(swapped)


def test_eigenline_refuses_a_plane(q3, q9):
    one = q3.from_int(1, INF)
    with pytest.raises(UnsupportedEnumeration, match="not a line"):
        eigenline(imat(q3, [[1, 0], [0, 1]]), one, UnsupportedEnumeration)
    # an off-diagonal entry zero only at precision, so not read as diagonal
    loose = mat([[one, q3.zero()], [make_element(q3, [0], 0, 5), one]])
    with pytest.raises(NotMonodromyType, match="not a line"):
        eigenline(loose, one, NotMonodromyType)
    # a diagonal entry repeated at precision only, and a value no entry has
    x = sample_element(q9, 1, 7, 20)
    zero = q9.zero()
    a = mat([[x, zero, zero], [zero, q9.from_int(1, INF), zero], [zero, zero, make_element(q9, x.mant, x.shift, 9)]])
    for lam in (x, q9.from_int(2, INF)):
        with pytest.raises(NotMonodromyType, match="not a line"):
            eigenline(a, lam, NotMonodromyType)


def test_propagate_space_carries_a_stable_line_and_not_others(q3):
    # phi0 = [[1, 1], [0, 1]], phi1 = 3 phi0^-1: the cycle is 3, so every
    # line closes up; phi0 = [[0, 1], [1, 0]] alone swaps the two axes
    m = PhiNModule(q3, GaloisShape(1, 2), 2, (imat(q3, [[1, 1], [0, 1]]), imat(q3, [[3, -3], [0, 3]])), (imat(q3, [[0, 0], [0, 0]]),) * 2)
    line = Subspace.from_vectors(q3, 2, [(q3.from_int(1, INF), q3.from_int(1, INF))])
    spaces = propagate_space(m, line, "line")
    assert spaces[0] == line and spaces[1] == Subspace.from_vectors(q3, 2, [(q3.from_int(2), q3.from_int(1))])
    swap = onestot(q3, [[0, 1], [1, 0]], [[0, 0], [0, 0]])
    axis = Subspace.from_vectors(q3, 2, [(q3.from_int(1, INF), q3.zero())])
    with pytest.raises(PrecisionLoss, match="line does not close up"):
        propagate_space(swap, axis, "line")


def test_enumeration_refuses_an_invertible_slot_operator(q3):
    # a scalar cycle with an operator that has no kernel line; validate_module
    # would refuse the module, is_admissible and enumerate_submodules do not
    m = onestot(q3, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(UnsupportedEnumeration, match="slot operator kernel is not a line"):
        enumerate_submodules(m)


def test_n_is_tested_at_every_slot(q3):
    # the cycle diag(3, 1) sits on the second transition; N vanishes at
    # slot 0, so it keeps both eigenlines there, and at slot 1 it maps e1
    # to e2: the line of 3 is no submodule, the line of 1 is
    shape = GaloisShape(1, 2)
    phi = (imat(q3, [[1, 0], [0, 1]]), imat(q3, [[3, 0], [0, 1]]))
    m = PhiNModule(q3, shape, 2, phi, (imat(q3, [[0, 0], [0, 0]]), imat(q3, [[0, 0], [1, 0]])))
    subs, family, t_newton = enumerate_submodules(m)
    assert family is None and t_newton == 1
    (only,) = subs
    assert only.slot_spaces[0].contains_vector((q3.zero(), q3.from_int(1))) and only.t_newton == 0


def test_a_slot_space_that_lost_a_dimension_is_refused(q3):
    # phi0 (det 3) carries the plane <e1, (0, 1, x)>, x = O(1), onto
    # <e3, (3 + x, x, 0)>; the second generator has no certified digit, so
    # the slot-1 space is the line <e3>.  N at slot 1 moves that line, yet
    # keeps the image plane of the lift x = -3/2 and not that of x = 0: the
    # input does not decide the candidate, so it is refused, not dropped
    shape = GaloisShape(1, 2)
    n1 = imat(q3, [[0, 0, 1], [0, 0, -1], [0, 0, 0]])
    phi = (imat(q3, [[0, 3, 1], [0, 0, 1], [1, 0, 0]]), imat(q3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    m = PhiNModule(q3, shape, 3, phi, (imat(q3, [[0] * 3] * 3), n1))
    one, zero = q3.from_int(1, INF), q3.zero()

    def plane(x):
        return Subspace.from_vectors(q3, 3, [(one, zero, zero), (zero, one, x)])

    loose = plane(make_element(q3, (0,), 0, 0))
    assert loose.dim == 2 and loose.image(phi[0]).dim == 1
    with pytest.raises(PrecisionLoss, match="plane does not close up"):
        propagate_space(m, loose, "plane")
    for x, kept in ((Fraction(-3, 2), True), (Fraction(0), False)):
        image = plane(q3.from_rational(x)).image(phi[0])
        assert image.dim == 2 and all(image.contains_vector(mat_vec(n1, g)) for g in image.gens) == kept


# ---------------------------------------------------------------------------
# Newton numbers from the spectrum: e times the valuations of the roots
# spanning a piece, against the restricted module's determinant


def _unit(desc, rng):
    """An exact unit: an integer prime to p, plus theta times an integer on
    an unramified step."""
    a = rng.choice([c for c in range(-8, 9) if c % desc.p])
    x = desc.from_int(a, INF)
    if desc.f_l > 1:
        x = x + desc.from_int(rng.randrange(-8, 9), INF) * unram_gen(desc, INF)
    return x


def _spectral_module(desc, shape, kind, rng):
    """An exact module and its trivial filtration whose cycle is the block
    B on the last transition, the others the identity:
    - "split": distinct roots of distinct valuations, rank 2 or 3;
    - "covector": a root r of nonzero valuation beside the companion of a
      quadratic without roots (T^2 - 2, or T^2 - 1 - theta over Q9, whose
      residue 1 + theta has order 8), rank 3;
    - "jordan": a Jordan block, rank 2;
    - "scalar": a scalar, with N the nilpotent E21 at one slot, rank 2.
    N vanishes elsewhere, so all but the scalar kind pass validate_module."""
    e_l = desc.e_l
    d = {"split": rng.choice((2, 3)), "covector": 3}.get(kind, 2)
    zero = [[0] * d for _ in range(d)]
    nmat = [imat(desc, zero)] * shape.f
    if kind == "split":
        vals = rng.sample(range(-2 * e_l, 3 * e_l), d)
        block = diag(desc, [_times_monomial(_unit(desc, rng), v) for v in vals])
    elif kind == "covector":
        r = _times_monomial(_unit(desc, rng), rng.choice((-2, -1, 1, 2, 3)) * e_l)
        c = desc.from_int(1, INF) + unram_gen(desc, INF) if desc.f_l > 1 else desc.from_int(2, INF)
        o, z = desc.from_int(1, INF), desc.zero()
        block = mat([[r, z, z], [z, z, c], [z, o, z]])
    else:
        lam = _times_monomial(_unit(desc, rng), rng.randrange(-e_l, 2 * e_l))
        o, z = desc.from_int(1, INF), desc.zero()
        block = mat([[lam, o if kind == "jordan" else z], [z, lam]])
        if kind == "scalar":
            nmat[rng.randrange(shape.f)] = imat(desc, [[0, 0], [1, 0]])
    phi = (imat(desc, [[int(i == j) for j in range(d)] for i in range(d)]),) * (shape.f - 1) + (block,)
    full = Subspace.full(desc, d)
    return PhiNModule(desc, shape, d, phi, tuple(nmat)), Filtration(desc, shape, d, ((((0, full),),) * shape.n))


def _spectral_modules(fields, kinds, seed):
    """Each kind on each field and shape (e, f) in {(1, 1), (1, 2), (2, 1)},
    as drawn and transported by a random integral basis change."""
    rng = random.Random(seed)
    for desc in fields:
        for shape in (GaloisShape(1, 1), GaloisShape(1, 2), GaloisShape(2, 1)):
            for kind in kinds:
                for t in range(2):
                    mod, fil = _spectral_module(desc, shape, kind, rng)
                    yield kind, mod, fil
                    yield kind, *transport(mod, fil, 1000 * seed + 10 * t)


def _fixture_modules():
    """The module of every fixture that holds one or builds one, both
    halves of a pair."""
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name.startswith("manifest"):
            continue
        instance = serial.parse_instance(path.read_bytes())
        if instance.kind == "monodromy":
            record = instance.objects["monodromy"]
            yield (build_degenerate if record.degenerate else build_monodromy)(record, check=False)[0]
        elif instance.kind == "module":
            yield instance.objects["module"]
        elif instance.kind == "pair":
            yield from (instance.objects[key][0] for key in ("first", "second"))


def _piece(sub, kind):
    """Which rule gave sub its Newton number."""
    if kind in ("jordan", "scalar"):
        return "repeated-root line"
    if sub.rank == 1:
        return "line"
    return "covector plane" if kind == "covector" else "two-root plane"


def test_spectrum_newton_numbers_match_the_restricted_modules(q3, q3_ram, q9):
    seen = Counter()
    for m in _fixture_modules():
        subs, _, _ = enumerate_submodules(m)
        assert all(s.t_newton == newton_by_restriction(m, s) for s in subs)
        seen["fixture"] += len(subs)
    for kind, m, _ in _spectral_modules((q3, q3_ram, q9), ("split", "covector", "jordan", "scalar"), 7):
        subs, family, t_newton = enumerate_submodules(m)
        assert family is None and t_newton == newton_number(m)
        for s in subs:
            assert s.t_newton == newton_by_restriction(m, s)
            seen[_piece(s, kind)] += 1
    assert seen["fixture"] >= 5
    assert all(seen[piece] >= 30 for piece in ("line", "two-root plane", "covector plane", "repeated-root line")), seen


def test_newton_command_and_admissible_witness_agree(q3, q3_ram, q9, monkeypatch):
    # newton reads the determinant of the cycle, admissible the spectrum:
    # on a cycle that splits into simple roots the determinant is not taken
    def determinant(m):
        raise AssertionError("determinant route on a split cycle")

    docs = [path.read_bytes() for path in sorted(FIXTURES.glob("*.json")) if not path.name.startswith("manifest")]
    compared = Counter()
    for doc in docs:
        (newton, code_n), (adm, code_a) = (execute(command, doc, Options()) for command in ("newton", "admissible"))
        if code_n == 0 and code_a in (0, 1):
            assert newton["value"] == adm["witness"]["t_newton"]
            compared["fixture"] += 1
    monkeypatch.setattr(eigen, "newton_number", determinant)
    pairs = list(_spectral_modules((q3, q3_ram, q9), ("split",), 8))
    pairs += [("bench", *items) for _, _, items in _bench_items(5)]
    for kind, m, fil in pairs:
        instance = Instance(m.desc, m.shape, "module", {"module": m, "filtration": fil})
        (newton, code_n), (adm, code_a) = (run(command, instance, Options()) for command in ("newton", "admissible"))
        assert code_n == 0 and code_a in (0, 1), (newton, adm)
        assert newton["value"] == adm["witness"]["t_newton"]
        compared[kind] += 1
    assert compared["fixture"] >= 5 and compared["split"] == 36 and compared["bench"] == 36


# ---------------------------------------------------------------------------
# the diagonal rule: a diagonal cycle with pairwise distinct certified
# valuations is its own spectrum, and its eigenlines are unit vectors


def bits(x):
    return (x.mant, x.shift, x._k)


def diag(desc, xs):
    zero = desc.zero()
    return mat([[x if i == j else zero for j in range(len(xs))] for i, x in enumerate(xs)])


def exact_monomial(desc, rng, n):
    """An exact residue digit vector times the monomial of valuation n digits."""
    digits = [rng.randrange(desc.p) for _ in range(desc.f_l)]
    digits[0] = digits[0] or 1
    return _times_monomial(make_element(desc, digits + [0] * (desc.degree - desc.f_l), 0, INF), n)


def exact_non_monomial(desc, rng, n):
    """An exact integer whose p-adic expansion has more than one digit,
    times the monomial of valuation n digits."""
    c = rng.randrange(1, desc.p) + desc.p * rng.randrange(1, 50)
    return _times_monomial(desc.from_int(c, INF), n)


@pytest.fixture
def diagonal_fields(q3, q2, q3_ram, q9, q5_unr):
    return [q3, q2, q3_ram, q9, q5_unr]


def _scan(fields, cases=12):
    """Seeded (desc, rng, distinct valuations in digits) triples, 2x2 and 3x3."""
    for desc in fields:
        for seed in range(cases):
            rng = random.Random(seed)
            yield desc, rng, rng.sample(range(-4 * desc.e_l, 4 * desc.e_l + 1), 2 + seed % 2)


def test_diagonal_roots_match_the_charpoly_route_in_bits(diagonal_fields):
    # one relative precision for every entry, or exact monomial entries (as
    # W's p, 1, 1/p are): the rule and the charpoly route agree bit for bit,
    # in the Newton-segment order (largest valuation first)
    for desc, rng, vals in _scan(diagonal_fields):
        prec = rng.randrange(1, 30)
        shared = [sample_element(desc, Fraction(v, desc.e_l), rng.randrange(10**6), prec) for v in vals]
        for xs in (shared, [exact_monomial(desc, rng, v) for v in vals]):
            a = diag(desc, xs)
            roots = cycle_roots(a)
            assert [bits(x) for x in roots] == [bits(x) for x in roots_in_field(charpoly(a))]
            assert [x._val() for x in roots] == sorted((x._val() for x in xs), reverse=True)


def test_diagonal_roots_keep_every_digit_the_entries_carry(diagonal_fields):
    # unequal relative precisions and exact entries that are not monomials:
    # each root is the entry itself, equal to the charpoly root at the lower
    # floor, and never known to fewer digits
    for desc, rng, vals in _scan(diagonal_fields):
        xs = [
            exact_non_monomial(desc, rng, v)
            if rng.random() < 0.3
            else sample_element(desc, Fraction(v, desc.e_l), rng.randrange(10**6), rng.randrange(1, 30))
            for v in vals
        ]
        roots = cycle_roots(diag(desc, xs))
        ref = roots_in_field(charpoly(diag(desc, xs)))
        assert [id(x) for x in roots] == [id(x) for x in sorted(xs, key=lambda x: x._val(), reverse=True)]
        assert all(x == y and x._k >= y._k for x, y in zip(roots, ref))


def test_diagonal_rule_gains_digits_over_the_charpoly_route(q3):
    # Q3 diag(21 known to 60 digits, 5/2 known to 10)
    a = diag(q3, [q3.from_int(21, 60), q3.from_rational(Fraction(5, 2), 10)])
    assert [x.prec for x in roots_in_field(charpoly(a))] == [11, 10]
    assert [x.prec for x in cycle_roots(a)] == [60, 10]
    # both exact: 21 is not a residue digit times a power of 3, so the
    # charpoly route lifts it to the default digits
    a = diag(q3, [q3.from_int(21, INF), q3.from_int(1, INF)])
    assert roots_in_field(charpoly(a))[0].prec == 62
    assert cycle_roots(a)[0].prec == INF


def _outcome(f, *args):
    try:
        return [bits(x) for x in f(*args)]
    except PhinError as exc:
        return (type(exc), str(exc))


def test_cycles_outside_the_rule_take_the_charpoly_route(diagonal_fields):
    for desc in diagonal_fields:
        rng = random.Random(desc.p * desc.degree)
        x = sample_element(desc, 1, rng.randrange(10**6), 20)
        y = sample_element(desc, 1, rng.randrange(10**6), 20)
        z = sample_element(desc, 0, rng.randrange(10**6), 20)
        zero_at_prec = make_element(desc, [0] * desc.degree, 0, 5)
        cycles = [
            diag(desc, [x, y]),  # tied valuations
            diag(desc, [x, z, y]),
            diag(desc, [x, zero_at_prec]),  # an entry indistinguishable from zero
            diag(desc, [desc.zero(), z]),  # the exact zero
            mat([[x, zero_at_prec], [desc.zero(), z]]),  # off-diagonal zero at precision only
        ]
        for a in cycles:
            assert _outcome(cycle_roots, a) == _outcome(roots_by_charpoly, a)
        assert isinstance(_outcome(cycle_roots, cycles[3]), tuple)


def test_diagonal_eigenline_is_the_kernel_generator_in_bits(diagonal_fields):
    for desc, rng, vals in _scan(diagonal_fields):
        xs = [sample_element(desc, Fraction(v, desc.e_l), rng.randrange(10**6), rng.randrange(1, 30)) for v in vals]
        xs[0] = exact_non_monomial(desc, rng, vals[0])
        a = diag(desc, xs)
        for lam in cycle_roots(a):
            assert [bits(c) for c in eigenline(a, lam, NotMonodromyType)] == [
                bits(c) for c in right_kernel(_minus_scalar(a, lam))[0]
            ]


# ---------------------------------------------------------------------------
# structural pin: a built module, End0 of one and W never lift a root


def _bench_items(seed):
    gen = bench_gen()
    doc = gen.inputs("verdicts-p60", seed)
    for spec in doc["records"]:
        desc = serial.parse_field(doc["fields"][spec["tower"]])
        shape = serial.parse_shape(spec["shape"])
        record = serial.parse_monodromy(desc, shape, spec["monodromy"], "/monodromy")
        moved = spec["moved"]
        yield spec, record, (
            serial.parse_module(desc, shape, moved["module"], "/module"),
            serial.parse_filtration(desc, shape, 2, moved["filtration"], "/filtration"),
        )


def test_built_modules_end0_and_w_never_lift_a_root(monkeypatch):
    lifts = []
    lift = padic.hensel_root
    monkeypatch.setattr(padic, "hensel_root", lambda *args: lifts.append(args) or lift(*args))
    seen = set()
    for spec, record, (moved, moved_fil) in _bench_items(5):
        mod, fil = (build_degenerate if record.degenerate else build_monodromy)(record, check=False)
        assert is_admissible(mod, fil).admissible == spec["admissible"]
        assert is_isomorphic(mod, fil, moved, moved_fil).isomorphic
        if spec["end0"]:
            assert end0_check(record).ok
        seen.add((spec["tower"], str(spec["shape"])))
    assert lifts == []
    assert len(seen) == 9
    # the counter sees the lifts of a dense cycle
    spec, record, (moved, moved_fil) = next(_bench_items(5))
    is_admissible(moved, moved_fil)
    assert lifts


def test_extract_on_transported_modules_lifts_no_root(monkeypatch):
    # the twist pair of a dense cycle is read off its trace and determinant
    calls = []
    for module, name in ((padic, "hensel_root"), (linalg, "charpoly"), (eigen, "charpoly")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    items = list(_bench_items(5))
    for spec, record, (moved, moved_fil) in items:
        assert monodromy.extract_invariants(moved, moved_fil) == record
    assert len(items) == 36 and calls == []


# ---------------------------------------------------------------------------
# verdicts on diagonal modules with mixed floors: the rule changes none, and
# what it returns is the charpoly route's answer with no fewer digits


def _mixed_floor_module(desc, f, rng):
    """A random rank-2 diagonal module with a two-step flag per embedding.
    Twisted: slot i is diag(p u_i, u_i') with u_i' the unit u_i cut to a
    lower floor and N e2 = e1, so the twist relation holds at that floor.
    Otherwise the entries are drawn apart, possibly of one valuation, and N
    vanishes."""
    shape = GaloisShape(1, f)
    p = desc.from_int(desc.p, INF)
    zero, one = desc.zero(), desc.from_int(1, INF)
    twisted = rng.random() < 0.6
    phi = []
    for _ in range(f):
        u = sample_element(desc, rng.randrange(-2, 3), rng.randrange(10**6), rng.randrange(2, 30))
        if twisted:
            light = make_element(desc, u.mant, u.shift, u._k - rng.randrange(0, u._k - u._val()))
            heavy = p * u
        else:
            light = u
            heavy = sample_element(desc, rng.randrange(-2, 3), rng.randrange(10**6), rng.randrange(2, 30))
        phi.append(mat([[heavy, zero], [zero, light]]))
    mod = PhiNModule(desc, shape, 2, tuple(phi), (mat([[zero, zero], [one if twisted else zero, zero]]),) * f)
    jumps = [(lo, lo + rng.randrange(1, 4)) for lo in (rng.randrange(-2, 2) for _ in range(shape.n))]
    # mostly balanced, so that the submodule certificates decide
    lo, hi = jumps[-1]
    deficit = newton_number(mod) - sum(map(sum, jumps))
    if rng.random() < 0.7 and deficit.denominator == 1 and hi + deficit > lo:
        jumps[-1] = (lo, hi + int(deficit))
    full = Subspace.full(desc, 2)
    steps = []
    for lo, hi in jumps:
        ell = sample_element(desc, rng.randrange(-1, 3), rng.randrange(10**6), rng.randrange(2, 30))
        steps.append(((lo, full), (hi, Subspace.from_vectors(desc, 2, [(one, ell)]))))
    return mod, Filtration(desc, shape, 2, tuple(steps))


def _reports(desc, mod, fil, moved, moved_fil):
    """(exit code, report) of admissible and extract on the module, and of
    iso against its twin in both orders."""
    module = Instance(desc, mod.shape, "module", {"module": mod, "filtration": fil})
    runs = {
        "admissible": ("admissible", module),
        "extract": ("extract", module),
        "iso": ("iso", Instance(desc, mod.shape, "pair", {"first": (mod, fil), "second": (moved, moved_fil)})),
        "iso swapped": ("iso", Instance(desc, mod.shape, "pair", {"first": (moved, moved_fil), "second": (mod, fil)})),
    }
    out = {}
    for key, (command, instance) in runs.items():
        report, code = run(command, instance, Options())
        out[key] = (code, report)
    return out


def _no_less_precise(desc, got, want) -> bool:
    """got equals want at want's floors and carries at least its digits:
    reported elements are compared as elements, everything else as it is."""
    if isinstance(want, dict) and want.keys() == {"c", "prec"}:
        x, y = serial.parse_element(desc, got, "/"), serial.parse_element(desc, want, "/")
        return x == y and x.prec >= y.prec
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_no_less_precise(desc, got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(_no_less_precise(desc, x, y) for x, y in zip(got, want))
    return got == want


def test_mixed_floor_verdicts_match_the_charpoly_route(q3, q9, monkeypatch):
    # admissible and extract on the diagonal module, and iso against its
    # transported twin in both orders, under the rule and under the charpoly
    # route.  Every twin is isomorphic, so neither route may answer False.
    # Where the charpoly route answers, the rule answers the same, and its
    # value and witness (extract's record with alpha, iso's scaling) equal
    # the charpoly route's at its floors with no fewer digits.  Where the
    # charpoly route refuses iso, its short root could not separate the
    # twin's eigenline; the rule then refuses the same way, refuses at
    # precision, or answers True.
    reference = []
    cases = []
    for desc in (q3, q9):
        rng = random.Random(desc.degree)
        for t in range(24):
            mod, fil = _mixed_floor_module(desc, 1 + t % 2, rng)
            cases.append((desc, mod, fil) + transport(mod, fil, 31 * t))
    got = [_reports(*case) for case in cases]
    with monkeypatch.context() as patch:
        for module in (eigen, isom, monodromy):
            patch.setattr(module, "cycle_roots", lambda a: reference.append(a) or roots_by_charpoly(a))
        want = [_reports(*case) for case in cases]
    assert reference
    answered = changed = 0
    for (desc, *_), g, w in zip(cases, got, want):
        for key in g:
            (code, report), (ref_code, ref_report) = g[key], w[key]
            if key.startswith("iso"):
                assert 1 not in (code, ref_code)
            if key.startswith("iso") and ref_code > 1:
                changed += code != ref_code
                assert report["error"] == ref_report["error"] or code in (0, 3), (key, report, ref_report)
                assert code != 3 or report["error"]["type"] == "PrecisionLoss"
                continue
            answered += ref_code <= 1
            assert (code, report["verdict"], report["error"]) == (ref_code, ref_report["verdict"], ref_report["error"])
            assert _no_less_precise(desc, report["value"], ref_report["value"]), key
            assert _no_less_precise(desc, report["witness"], ref_report["witness"]), key
        assert (g["iso"][0], g["iso"][1]["verdict"]) == (g["iso swapped"][0], g["iso swapped"][1]["verdict"])
    # where the charpoly route refuses iso, the rule exits with its code
    assert answered > 100 and changed == 0
    codes = {code for reports in got for code, _ in reports.values()}
    assert codes == {0, 1, 2, 3}


def test_iso_verdicts_do_not_depend_on_the_order_of_the_pair(q3, q9, monkeypatch):
    # a diagonal module against its transported twin, and two twins of one
    # module against each other, all with mixed floors: iso gives the same
    # exit code and verdict in both orders.  A dense pair's roots are lifted
    # from one polynomial, each coefficient at the higher of the floors
    # the two cycles' characteristic polynomials give it.
    lifted = []
    monkeypatch.setattr(isom, "roots_in_field", lambda cp: lifted.append(cp) or roots_in_field(cp), raising=False)
    pairs = 0
    for desc in (q3, q9):
        for seed in (1000, 2000):
            rng = random.Random(seed + desc.degree)
            for t in range(48):
                mod, fil = _mixed_floor_module(desc, 1 + t % 2, rng)
                first = (mod, fil) if seed == 1000 else transport(mod, fil, 31 * t + 7)
                second = transport(mod, fil, 31 * t)
                lifted.clear()
                answers = []
                for pair in ((first, second), (second, first)):
                    instance = Instance(desc, mod.shape, "pair", dict(zip(("first", "second"), pair)))
                    report, code = run("iso", instance, Options())
                    answers.append((code, report["verdict"]))
                assert answers[0] == answers[1], (desc.degree, seed, t, answers)
                cp1, cp2 = (charpoly(frobenius_composite(m)) for m, _ in (first, second))
                for cp in lifted:
                    assert [x._k for x in cp] == [max(x._k, y._k) for x, y in zip(cp1, cp2)]
                    assert cp == cp1 and cp == cp2
                pairs += bool(lifted)
    assert pairs > 50


def test_pull_to_slot_zero_keeps_the_floors_of_a_loose_zero(q3):
    # transitions with entries zero only at their floors: the pulled vector
    # equals, at its floors, the one pulled through exact lifts, and holds
    # no exact zero where that one does not vanish
    a = loose_q3_matrix(q3)
    zero = imat(q3, [[0, 0], [0, 0]])
    shape = GaloisShape(1, 3)
    v = (q3.from_int(1, INF),) * 2
    got = pull_to_slot_zero(PhiNModule(q3, shape, 2, (a, a, a), (zero,) * 3), v, 2)
    rng = random.Random(9)
    for _ in range(10):
        lifts = tuple(exact_lift(a, rng) for _ in range(3))
        lifted = pull_to_slot_zero(PhiNModule(q3, shape, 2, lifts, (zero,) * 3), v, 2)
        assert agrees_with_lift((got,), (lifted,))
