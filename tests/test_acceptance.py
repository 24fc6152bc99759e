"""Acceptance suite: one test per release criterion, all exact.

Each criterion is a single test function so the verbose run prints one
pass/fail line per criterion.  Constants are frozen; every assertion is an
exact arithmetic identity, never a tolerance.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from phinmod.coeff import DualNumber, GaloisShape, ProductElement
from phinmod.cohomology import (
    H1Tate,
    H1Trivial,
    cup,
    monodromy_extension_class,
    pairing_is_perfect,
    satisfies_colmez_condition,
    unipotent_extension_class,
)
from phinmod.colmez import (
    FamilyGerm,
    colmez_form,
    degenerate_form,
    gamma_consistency,
    solve_ell_scalar,
)
from phinmod.errors import ConstraintViolation, PrecisionLoss, SingularDirection, ZeroInput
from phinmod.filtration import (
    Filtration,
    dual_filtration,
    hodge_number,
    is_admissible,
    tensor_filtration,
)
from phinmod.isom import is_isomorphic
from phinmod.linalg import Subspace, identity, inv, mat, mat_mul, mat_vec, right_kernel
from phinmod.modules import (
    PhiNModule,
    dual_module,
    newton_number,
    tensor_module,
    validate_module,
)
from phinmod.monodromy import (
    MonodromyData,
    build_degenerate,
    build_monodromy,
    end0_check,
    extract_invariants,
    iso_degenerate,
)
from phinmod.padic import INF, LocalFieldDesc
from phinmod.cli import Options, render, run_batch

from util import sample_element, sample_invertible, sample_unit, transport

Q3 = LocalFieldDesc(3, 1, 1, (0, 1), ((-3,), (1,)))
Q2 = LocalFieldDesc(2, 1, 1, (0, 1), ((-2,), (1,)))
Q3_RAM = LocalFieldDesc(3, 1, 2, (0, 1), ((-3,), (0,), (1,)))
Q5_UNR = LocalFieldDesc(5, 2, 1, (2, 1, 1), ((-5, 0), (1, 0)))
Q3_MIXED = LocalFieldDesc(3, 2, 2, (1, 0, 1), ((-3, 0), (0, 0), (1, 0)))
ALL_FIELDS = [Q3, Q2, Q3_RAM, Q5_UNR, Q3_MIXED]

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _pe(desc, shape, comps):
    coerced = [
        c if hasattr(c, "desc") else desc.from_rational(Fraction(c)) for c in comps
    ]
    return ProductElement.from_components(desc, shape, coerced)


_pe_rat = _pe


_ALPHA_CACHE: dict = {}


def _alpha(desc, v, seed):
    """Unit times p^v, sampled unit part."""
    key = (id(desc), v, seed)
    if key not in _ALPHA_CACHE:
        _ALPHA_CACHE[key] = sample_unit(desc, seed) * desc.uniformizer(None) ** (v * desc.e_l)
    return _ALPHA_CACHE[key]


def _record(desc, shape, alpha, m, k, ell, degenerate=False):
    return MonodromyData(alpha, tuple(m), tuple(k), _pe(desc, shape, ell), degenerate)


# --------------------------------------------------------------------------
# criterion 1: exact valuation laws and inversion round trips


def test_criterion_01_padic_arithmetic_laws():
    for fi, desc in enumerate(ALL_FIELDS):
        rng = random.Random(1000 + fi)
        e = desc.e_l
        for _ in range(1000):
            vx = Fraction(rng.randrange(-4, 9), e)
            vy = Fraction(rng.randrange(-4, 9), e)
            x = sample_element(desc, vx, rng.randrange(1 << 30))
            y = sample_element(desc, vy, rng.randrange(1 << 30))
            assert (x * y).valuation() == vx + vy
            if vx != vy:
                assert (x + y).valuation() == min(vx, vy)
            else:
                try:
                    assert (x + y).valuation() >= vx
                except (ZeroInput, PrecisionLoss):
                    pass  # the sum vanished to working precision: still >= vx
        one = desc.one()
        for j in range(200):
            u = sample_unit(desc, 7000 * fi + j)
            assert u * u.inverse() == one
        for j in range(50):
            x = sample_element(desc, Fraction(rng.randrange(-3, 7), e), 9000 * fi + j)
            assert x * x.inverse() == one


# --------------------------------------------------------------------------
# criterion 2: parameter constraints match admissibility over the grid


_PAIRS_CONFORM = [(m, k) for m in range(5) for k in range(5) if k > m]


def _gate_check(desc, shape, points, witness_cap=60):
    """Assert the constraint gate composed with the admissibility verdict
    agrees with the three parameter conditions at every point; verify the
    kernel-line witness on a deterministic prefix of the violating points."""
    e, f = shape.e, shape.f
    kernel_line = Subspace.from_vectors(desc, 2, [(desc.zero(), desc.from_int(1))])
    admitted = witnessed = 0
    for v, m, k in points:
        data = _record(desc, shape, _alpha(desc, v, 17), m, k, [1] * shape.n)
        c1 = all(kt > mt for kt, mt in zip(k, m))
        c2 = e * (2 * v + f) == sum(m) + sum(k)
        c3 = e * v >= sum(m)
        try:
            module, fil = build_monodromy(data)
            ok = is_admissible(module, fil).admissible
        except ConstraintViolation:
            ok = False
        assert ok == (c1 and c2 and c3), (shape, v, m, k)
        admitted += ok
        if c1 and not c3 and witnessed < witness_cap:
            # the flag survives but the kernel line must betray the verdict
            module, fil = build_monodromy(data, check=False)
            verdict = is_admissible(module, fil)
            assert not verdict.admissible
            assert any(
                c.slot0 == kernel_line and not c.ok for c in verdict.certificates
            ), (shape, v, m, k)
            witnessed += 1
    return admitted, witnessed


def _exhaustive_points(n):
    for v in range(4):
        for mk in itertools.product(range(5), repeat=2 * n):
            yield v, mk[:n], mk[n:]


def _sampled_points_22():
    # sigma-uniform corners, every conforming tuple, and a seeded sample of
    # the whole parameter box
    for v in range(4):
        for m, k in itertools.product(range(5), repeat=2):
            yield v, (m,) * 4, (k,) * 4
        for combo in itertools.product(_PAIRS_CONFORM, repeat=4):
            if sum(m + k for m, k in combo) == 4 * (v + 1) and 2 * v >= sum(
                m for m, _ in combo
            ):
                yield v, tuple(m for m, _ in combo), tuple(k for _, k in combo)
    rng = random.Random(2024)
    for _ in range(200):
        yield (
            rng.randrange(4),
            tuple(rng.randrange(5) for _ in range(4)),
            tuple(rng.randrange(5) for _ in range(4)),
        )


def test_criterion_02_constraints_iff_admissible():
    grids = [
        (Q3, GaloisShape(1, 1)),
        (Q2, GaloisShape(1, 1)),
        (Q3_RAM, GaloisShape(2, 1)),
        (Q3, GaloisShape(1, 2)),
    ]
    total_adm = total_wit = 0
    for desc, shape in grids:
        adm, wit = _gate_check(desc, shape, _exhaustive_points(shape.n))
        total_adm += adm
        total_wit += wit
    adm, wit = _gate_check(Q3, GaloisShape(2, 2), _sampled_points_22())
    total_adm += adm
    total_wit += wit
    assert total_adm > 50 and total_wit > 100  # both directions exercised


# --------------------------------------------------------------------------
# criterion 3: slope bookkeeping


def _conforming(shape):
    out = []
    for v in range(4):
        target = shape.e * (2 * v + shape.f)
        for combo in itertools.product(_PAIRS_CONFORM, repeat=shape.n):
            m = tuple(x for x, _ in combo)
            k = tuple(x for _, x in combo)
            if sum(m) + sum(k) == target and shape.e * v >= sum(m):
                out.append((v, m, k))
    return out


def test_criterion_03_newton_hodge_bookkeeping():
    for desc, shape in [
        (Q3, GaloisShape(1, 1)),
        (Q3_RAM, GaloisShape(2, 1)),
        (Q3, GaloisShape(1, 2)),
    ]:
        for v, m, k in _conforming(shape):
            data = _record(desc, shape, _alpha(desc, v, 23), m, k, [2] * shape.n)
            module, fil = build_monodromy(data)
            degree = Fraction(sum(m) + sum(k))
            assert newton_number(module) == degree
            assert hodge_number(fil) == degree

    rng = random.Random(33)

    def rank1(desc, shape, seed):
        r = random.Random(seed)
        phi = tuple(
            mat([[sample_element(desc, r.randrange(-2, 3), r.randrange(1 << 30))]])
            for _ in range(shape.f)
        )
        nm = mat([[desc.zero()]])
        fil = Filtration(
            desc,
            shape,
            1,
            tuple(((r.randrange(-3, 4), Subspace.full(desc, 1)),) for _ in range(shape.n)),
        )
        return PhiNModule(desc, shape, 1, phi, (nm,) * shape.f), fil

    for desc, shape in [(Q3, GaloisShape(1, 2)), (Q3_RAM, GaloisShape(2, 1)), (Q2, GaloisShape(1, 1))]:
        base = _conforming(shape)
        for trial in range(12):
            v, m, k = base[rng.randrange(len(base))]
            data = _record(desc, shape, _alpha(desc, v, 40 + trial), m, k, [1] * shape.n)
            m2, f2 = build_monodromy(data)
            m1, f1 = rank1(desc, shape, 500 + trial)
            assert newton_number(dual_module(m1)) == -newton_number(m1)
            assert newton_number(dual_module(m2)) == -newton_number(m2)
            assert hodge_number(dual_filtration(f1)) == -hodge_number(f1)
            assert hodge_number(dual_filtration(f2)) == -hodge_number(f2)
            m1b, f1b = rank1(desc, shape, 800 + trial)
            assert newton_number(tensor_module(m1, m1b)) == newton_number(m1) + newton_number(m1b)
            assert hodge_number(tensor_filtration(f1, f1b)) == hodge_number(f1) + hodge_number(f1b)
            assert newton_number(tensor_module(m1, m2)) == 2 * newton_number(m1) + newton_number(m2)
            assert hodge_number(tensor_filtration(f1, f2)) == 2 * hodge_number(f1) + hodge_number(f2)


# --------------------------------------------------------------------------
# criterion 4: traceless endomorphisms against the three-step bracket module


def test_criterion_04_end0_matches_bracket_module():
    checked = 0
    rng = random.Random(44)

    def check(desc, shape, v, k, ell):
        nonlocal checked
        alpha = _alpha(desc, v, rng.randrange(1 << 30))
        data = _record(desc, shape, alpha, (0,) * shape.n, k, ell)
        verdict = end0_check(data)
        assert verdict.intrinsic.isomorphic, (shape, k, ell)
        assert verdict.direct_map, (shape, k, ell)
        checked += 1

    s11 = GaloisShape(1, 1)
    for i in range(18):
        k = (1, 3, 5)[i % 3]
        ell = [0] if i % 6 == 5 else [Fraction(rng.randrange(-8, 9), 1 + i % 3)]
        check(Q3, s11, (k - 1) // 2, (k,), [Q3.from_rational(e) for e in ell])
    for i in range(8):
        k = (1, 3)[i % 2]
        check(Q2, s11, (k - 1) // 2, (k,), [Q2.from_int(rng.randrange(-5, 6))])
    s12 = GaloisShape(1, 2)
    duos = [(1, (1, 3)), (1, (2, 2)), (1, (3, 1)), (2, (1, 5)), (2, (2, 4)), (2, (3, 3)), (3, (4, 4)), (3, (2, 6))]
    for i, (v, k) in enumerate(duos * 2):
        ell = [Q3.from_int(rng.randrange(-9, 10)), Q3.from_int(rng.randrange(-9, 10))]
        check(Q3, s12, v, k, ell)
    s21 = GaloisShape(2, 1)
    for i in range(10):
        j = (1, 3)[i % 2]
        sigma_k = {1: [(1, 3), (2, 2), (3, 1)], 3: [(3, 5), (4, 4), (2, 6)]}[j][i % 3]
        alpha = sample_unit(Q3_RAM, rng.randrange(1 << 30)) * Q3_RAM.uniformizer(None) ** j
        data = _record(
            Q3_RAM,
            s21,
            alpha,
            (0, 0),
            sigma_k,
            [Q3_RAM.from_int(rng.randrange(-9, 10)) for _ in range(2)],
        )
        verdict = end0_check(data)
        assert verdict.intrinsic.isomorphic and verdict.direct_map
        checked += 1
    assert checked >= 50


# --------------------------------------------------------------------------
# criterion 5: extraction round trips and the degenerate classifier


def test_criterion_05_extraction_round_trip():
    rng = random.Random(55)
    count = 0

    def roundtrip(desc, shape, v, m, k, ell, degenerate):
        nonlocal count
        data = _record(desc, shape, _alpha(desc, v, rng.randrange(1 << 30)), m, k, ell, degenerate)
        builder = build_degenerate if degenerate else build_monodromy
        module, fil = builder(data)
        moved_mod, moved_fil = transport(module, fil, rng.randrange(1 << 20))
        recovered = extract_invariants(moved_mod, moved_fil)
        assert recovered == data, (shape, v, m, k, degenerate)
        count += 1

    s11, s12, s21 = GaloisShape(1, 1), GaloisShape(1, 2), GaloisShape(2, 1)
    for i in range(20):
        v = 1 + i % 3
        m = rng.randrange(0, v + 1)
        k = 2 * v + 1 - m
        roundtrip(Q3, s11, v, (m,), (k,), [Q3.from_int(rng.randrange(-9, 10))], False)
    for i in range(15):
        v = 1 + i % 3
        m = rng.randrange(0, v + 1)
        roundtrip(Q3, s11, v, (m,), (2 * v + 1 - m,), [Q3.one()], True)
    tuples12 = [(1, (0, 0), (1, 3)), (1, (0, 1), (1, 2)), (2, (0, 0), (2, 4)), (2, (1, 1), (2, 2)), (2, (0, 2), (1, 3)), (3, (1, 2), (2, 3))]
    for i in range(25):
        v, m, k = tuples12[i % len(tuples12)]
        ell = [Q3.from_int(rng.randrange(-9, 10)), Q3.from_int(rng.randrange(-9, 10))]
        roundtrip(Q3, s12, v, m, k, ell, False)
    for i in range(15):
        v, m, k = tuples12[i % len(tuples12)]
        roundtrip(Q3, s12, v, m, k, [Q3.one(), Q3.from_int(rng.randrange(-9, 10))], True)
    tuples21 = [(1, (0, 1), (2, 3)), (1, (0, 0), (2, 4)), (2, (1, 2), (3, 4)), (2, (0, 1), (4, 5))]
    for i in range(15):
        v, m, k = tuples21[i % len(tuples21)]
        ell = [Q3_RAM.from_int(rng.randrange(-9, 10)), Q3_RAM.from_int(rng.randrange(-9, 10))]
        roundtrip(Q3_RAM, s21, v, m, k, ell, False)
    for i in range(10):
        v, m, k = tuples21[i % len(tuples21)]
        roundtrip(Q3_RAM, s21, v, m, k, [Q3_RAM.one(), Q3_RAM.from_int(rng.randrange(-9, 10))], True)
    assert count >= 100

    # classifier against the matrix-level comparison
    shape = s12
    records = []
    for spec in [
        (1, (0, 0), (1, 3), [1, 2]),
        (1, (0, 0), (1, 3), [1, 5]),
        (1, (0, 0), (2, 2), [1, 2]),
        (1, (0, 1), (1, 2), [1, 2]),
        (2, (1, 1), (2, 2), [1, 7]),
        (2, (1, 1), (2, 2), [0, 1]),
    ]:
        v, m, k, ell = spec
        records.append(
            _record(Q3, shape, Q3.from_int(2 * 3**v), m, k, [Fraction(x) for x in ell], True)
        )
    records.append(
        MonodromyData(
            records[0].alpha,
            records[0].m,
            records[0].k,
            records[0].ell * Q3.from_int(4),
            True,
        )
    )
    records.append(
        MonodromyData(Q3.from_int(5 * 3), records[0].m, records[0].k, records[0].ell, True)
    )
    pairs = 0
    for d1, d2 in itertools.product(records, repeat=2):
        expected = iso_degenerate(d1, d2)
        am, af = build_degenerate(d1)
        bm, bf = build_degenerate(d2)
        assert is_isomorphic(am, af, bm, bf).isomorphic == expected, (d1, d2)
        pairs += 1
    assert pairs >= 50


# --------------------------------------------------------------------------
# criterion 6: the coordinate pairing


def test_criterion_06_pairing_perfect_and_condition():
    shapes = [GaloisShape(1, 1), GaloisShape(2, 1), GaloisShape(1, 2), GaloisShape(2, 2), GaloisShape(2, 3)]
    for desc in ALL_FIELDS:
        for shape in shapes:
            assert pairing_is_perfect(desc, shape), (desc.p, shape)

    # bilinearity on sampled classes
    rng = random.Random(66)
    shape = GaloisShape(2, 2)
    for _ in range(10):
        def rnd():
            return _pe_rat(Q3, shape, [rng.randrange(-9, 10) for _ in range(4)])

        x1 = H1Trivial(Q3.from_int(rng.randrange(-9, 10)), rnd())
        x2 = H1Trivial(Q3.from_int(rng.randrange(-9, 10)), rnd())
        y1 = H1Tate(Q3.from_int(rng.randrange(-9, 10)), rnd())
        y2 = H1Tate(Q3.from_int(rng.randrange(-9, 10)), rnd())
        c = Q3.from_int(rng.randrange(2, 9))
        left = cup(H1Trivial(c * x1.a1 + x2.a1, x1.a2 * c + x2.a2), y1).c
        assert left == c * cup(x1, y1).c + cup(x2, y1).c
        right = cup(x1, H1Tate(c * y1.b1 + y2.b1, y1.b2 * c + y2.b2)).c
        assert right == c * cup(x1, y1).c + cup(x1, y2).c

    # annihilator of (1, ell) has codimension one
    for shape in [GaloisShape(1, 1), GaloisShape(1, 2), GaloisShape(2, 2), GaloisShape(2, 3)]:
        n = shape.n
        ell = _pe_rat(Q3, shape, [rng.randrange(-9, 10) for _ in range(n)])
        y = monodromy_extension_class(ell)
        basis = [H1Trivial(Q3.one(), _pe_rat(Q3, shape, [0] * n))]
        for t in range(n):
            basis.append(
                H1Trivial(Q3.zero(), _pe_rat(Q3, shape, [1 if s == t else 0 for s in range(n)]))
            )
        row = mat([[cup(x, y).c for x in basis]])
        assert len(right_kernel(row)) == n

    # pointwise agreement with the vanishing of the pairing
    for shape in [GaloisShape(1, 2), GaloisShape(2, 2)]:
        n = shape.n
        ell = _pe_rat(Q3, shape, [1 + t for t in range(n)])
        y = monodromy_extension_class(ell)
        scale = Q3.from_rational(Fraction(1, n))
        for trial in range(20):
            a2 = _pe_rat(Q3, shape, [rng.randrange(-9, 10) for _ in range(n)])
            if trial % 2:
                x = H1Trivial(scale * (a2 * ell).trace(), a2)  # engineered to vanish
            else:
                x = H1Trivial(Q3.from_int(rng.randrange(-9, 10)), a2)
            assert satisfies_colmez_condition(x, ell) == cup(x, y).c.is_zero_at_prec()


# --------------------------------------------------------------------------
# criterion 7: the unipotent extension class


def _unipotent(desc, f, alpha):
    shape = GaloisShape(1, f)
    one, zero = desc.from_int(1, INF), desc.zero()
    wrap = mat([[one, alpha], [zero, one]])
    phi = tuple(wrap if i == f - 1 else identity(desc, 2) for i in range(f))
    nm = mat([[zero, zero], [zero, zero]])
    return PhiNModule(desc, shape, 2, phi, (nm,) * f)


def test_criterion_07_unipotent_class():
    one, zero = Q3.from_int(1, INF), Q3.zero()
    for f in (1, 2, 3):
        cls = unipotent_extension_class(_unipotent(Q3, f, Q3.from_int(5)), (one, zero), (zero, one))
        assert cls.a1 == Q3.from_rational(Fraction(-5, f))
        assert cls.a2.is_zero()

    m = _unipotent(Q3, 2, Q3.from_int(7))
    base = unipotent_extension_class(m, (one, zero), (zero, one)).a1
    assert unipotent_extension_class(m, (one, zero), (Q3.from_int(4), one)).a1 == base
    gs = [sample_invertible(Q3, 2, 71 + i) for i in range(2)]
    moved = PhiNModule(
        Q3,
        m.shape,
        2,
        tuple(mat_mul(gs[(i + 1) % 2], mat_mul(m.phi[i], inv(gs[i]))) for i in range(2)),
        m.nmat,
    )
    conj = unipotent_extension_class(
        moved, mat_vec(gs[0], (one, zero)), mat_vec(gs[0], (zero, one))
    ).a1
    assert conj == base

    for f in (1, 3):
        a = unipotent_extension_class(_unipotent(Q3, f, Q3.from_int(4)), (one, zero), (zero, one)).a1
        b = unipotent_extension_class(_unipotent(Q3, f, Q3.from_int(11)), (one, zero), (zero, one)).a1
        c = unipotent_extension_class(_unipotent(Q3, f, Q3.from_int(15)), (one, zero), (zero, one)).a1
        assert a + b == c


# --------------------------------------------------------------------------
# criterion 8: the differential identity of the main evaluator


def _rand_product(desc, shape, rng, zero_rate=0.0):
    comps = []
    for _ in range(shape.n):
        if zero_rate and rng.random() < zero_rate:
            comps.append(desc.zero())
        else:
            comps.append(sample_element(desc, rng.randrange(-2, 3), rng.randrange(1 << 30)))
    return _pe(desc, shape, comps)


def _rand_germ(desc, shape, rng):
    alpha = DualNumber(
        sample_unit(desc, rng.randrange(1 << 30)),
        sample_element(desc, rng.randrange(-2, 3), rng.randrange(1 << 30)),
    )
    delta = DualNumber(
        sample_element(desc, rng.randrange(-2, 3), rng.randrange(1 << 30)),
        sample_element(desc, rng.randrange(-2, 3), rng.randrange(1 << 30)),
    )
    kappa = DualNumber(
        _rand_product(desc, shape, rng), _rand_product(desc, shape, rng)
    )
    return FamilyGerm(alpha, delta, kappa, _rand_product(desc, shape, rng, zero_rate=0.15))


def test_criterion_08_differential_identity():
    shapes = [
        GaloisShape(1, 1),
        GaloisShape(2, 1),
        GaloisShape(1, 2),
        GaloisShape(2, 2),
        GaloisShape(2, 3),
        GaloisShape(3, 2),
        GaloisShape(1, 6),
        GaloisShape(6, 1),
    ]
    rng = random.Random(88)
    germs = 0
    for desc in (Q3, Q2):
        for shape in shapes:
            for _ in range(63):
                g = _rand_germ(desc, shape, rng)
                gamma, residual = gamma_consistency(g)
                assert residual == colmez_form(g)
                assert gamma == g.kappa.a1 * desc.from_rational(Fraction(-1, 2))
                germs += 1
    assert germs >= 1000

    # scalar solve round trips to a vanishing form
    solved = 0
    shape = GaloisShape(1, 2)
    while solved < 30:
        g = _rand_germ(Q3, shape, rng)
        direction = _rand_product(Q3, shape, rng)
        try:
            s = solve_ell_scalar(g, direction)
        except SingularDirection:
            continue
        tuned = FamilyGerm(g.alpha, g.delta, g.kappa, direction * s)
        assert colmez_form(tuned).is_zero_at_prec()
        solved += 1

    # one-dimensional specialization agrees with the naked formula
    s11 = GaloisShape(1, 1)
    half = Q3.from_rational(Fraction(1, 2))
    for _ in range(20):
        g = _rand_germ(Q3, s11, rng)
        expected = (
            g.alpha.a1 / g.alpha.a0
            + half * g.delta.a1
            - half * g.ell.comps[0] * g.kappa.a1.comps[0]
        )
        assert colmez_form(g) == expected


# --------------------------------------------------------------------------
# criterion 9: the degenerate evaluator


def test_criterion_09_degenerate_evaluator():
    rng = random.Random(99)
    shape = GaloisShape(2, 1)
    kappa = DualNumber(_rand_product(Q3, shape, rng), _rand_product(Q3, shape, rng))
    ell = _rand_product(Q3, shape, rng)
    base = None
    for _ in range(10):
        g = FamilyGerm(
            DualNumber(sample_unit(Q3, rng.randrange(1 << 30)), sample_element(Q3, 0, rng.randrange(1 << 30))),
            DualNumber(sample_element(Q3, 1, rng.randrange(1 << 30)), sample_element(Q3, 0, rng.randrange(1 << 30))),
            kappa,
            ell,
        )
        value = degenerate_form(g)
        if base is None:
            base = value
        assert value == base  # no (alpha, delta) dependence

    alpha = DualNumber(Q3.one(), Q3.zero())
    delta = DualNumber(Q3.zero(), Q3.zero())
    for _ in range(10):
        u = _rand_product(Q3, shape, rng)
        w = _rand_product(Q3, shape, rng)
        c = Q3.from_int(rng.randrange(2, 9))
        combined = FamilyGerm(alpha, delta, DualNumber(kappa.a0, u * c + w), ell)
        left = degenerate_form(combined)
        right = c * degenerate_form(FamilyGerm(alpha, delta, DualNumber(kappa.a0, u), ell)) + degenerate_form(
            FamilyGerm(alpha, delta, DualNumber(kappa.a0, w), ell)
        )
        assert left == right

    # exact trace cancellations
    s12 = GaloisShape(1, 2)
    zero = Q3.zero()
    for a, b in [(1, 1), (2, 5), (-3, 7)]:
        ell_c = _pe_rat(Q3, s12, [a, b])
        kap = DualNumber(_pe_rat(Q3, s12, [0, 0]), _pe_rat(Q3, s12, [b, -a]))
        g = FamilyGerm(alpha, delta, kap, ell_c)
        assert degenerate_form(g) == zero


# --------------------------------------------------------------------------
# criterion 10: deterministic command line reports


def test_criterion_10_cli_determinism():
    manifest = json.loads((FIXTURES / "manifest.json").read_text("utf-8"))
    assert len({entry["instance"] for entry in manifest["entries"]}) >= 12
    runs = []
    for jobs in (1, 8, 1, 8):
        reports, code = run_batch(FIXTURES / "manifest.json", Options(jobs=jobs))
        runs.append((code, "\n".join(render(r, "json") for r in reports)))
    assert runs[0][0] == 1
    assert all(r == runs[0] for r in runs[1:])
