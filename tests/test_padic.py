from __future__ import annotations

import copy
import itertools
import math
import pickle
import sys
import threading
from fractions import Fraction

import pytest

from phinmod import padic
from phinmod.coeff import GaloisShape, ProductElement
from phinmod.errors import (
    FieldMismatch,
    PrecisionLoss,
    RootLiftingError,
    ValidationError,
    ZeroInput,
)
from phinmod.padic import (
    INF,
    LocalFieldDesc,
    hensel_root,
    newton_slopes,
    poly_eval,
    roots_in_field,
)
from phinmod.serial import dump_element, parse_field
from util import sample_element, sample_unit, unram_gen


# ---------------------------------------------------------------------------
# independent oracles (sympy resultants / polynomial remainders)


def oracle_valuation(desc: LocalFieldDesc, coords) -> Fraction:
    """Valuation via the norm down to Q_p, computed with resultants."""
    import sympy

    th, pi = sympy.symbols("__th __pi")
    x = 0
    for a, row in enumerate(coords):
        for b, c in enumerate(row):
            x += sympy.Rational(Fraction(c)) * pi**a * th**b
    eis = sum(
        sum(sympy.Integer(cb) * th**b for b, cb in enumerate(row)) * pi**i
        for i, row in enumerate(desc.eis_poly)
    )
    unram = sum(sympy.Integer(c) * th**i for i, c in enumerate(desc.unram_poly))
    norm_u = sympy.resultant(eis, x, pi)
    norm = sympy.resultant(unram, norm_u, th)
    norm = sympy.Rational(norm)
    if norm == 0:
        return INF
    num, den = norm.p, norm.q
    v = 0
    while num % desc.p == 0:
        num //= desc.p
        v += 1
    while den % desc.p == 0:
        den //= desc.p
        v -= 1
    return Fraction(v, desc.degree)


def oracle_product_coords(desc: LocalFieldDesc, cx, cy):
    """Product coordinates via sympy polynomial remainders."""
    import sympy

    th, pi = sympy.symbols("__th __pi")

    def lift(coords):
        return sum(
            sympy.Rational(Fraction(c)) * pi**a * th**b
            for a, row in enumerate(coords)
            for b, c in enumerate(row)
        )

    eis = sum(
        sum(sympy.Integer(cb) * th**b for b, cb in enumerate(row)) * pi**i
        for i, row in enumerate(desc.eis_poly)
    )
    unram = sum(sympy.Integer(c) * th**i for i, c in enumerate(desc.unram_poly))
    prod = sympy.expand(lift(cx) * lift(cy))
    if desc.e_l > 1:
        prod = sympy.rem(prod, eis, pi)
    else:
        prod = sympy.rem(prod, eis, pi)
    if desc.f_l > 1:
        prod = sympy.rem(sympy.expand(prod), unram, th)
    else:
        prod = sympy.rem(sympy.expand(prod), unram, th)
    poly = sympy.Poly(prod, pi, th)
    out = [[Fraction(0)] * desc.f_l for _ in range(desc.e_l)]
    for (a, b), coeff in zip(poly.monoms(), poly.coeffs()):
        out[a][b] = Fraction(sympy.Rational(coeff).p, sympy.Rational(coeff).q)
    return out


# ---------------------------------------------------------------------------
# field construction


def test_bad_fields_rejected():
    with pytest.raises(ValidationError):
        LocalFieldDesc(4, 1, 1, (0, 1), ((-4,), (1,)))  # composite p
    with pytest.raises(ValidationError):
        LocalFieldDesc(3, 2, 1, (1, 2, 1), ((-3, 0), (1, 0)))  # (T+1)^2 reducible
    with pytest.raises(ValidationError):
        LocalFieldDesc(3, 1, 2, ((0, 1)), ((-9,), (0,), (1,)))  # constant valuation 2
    with pytest.raises(ValidationError):
        LocalFieldDesc(3, 1, 2, (0, 1), ((-1,), (0,), (1,)))  # constant is a unit
    with pytest.raises(ValidationError):
        LocalFieldDesc(561, 1, 1, (0, 1), ((-561,), (1,)))  # Carmichael number
    with pytest.raises(ValidationError):
        # composite, and a strong pseudoprime to every base of the primality test
        LocalFieldDesc(padic.MAX_P, 1, 1, (0, 1), ((-padic.MAX_P,), (1,)))



@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 0, 1, (1,), ((-3,), (1,))), "tower degrees must be positive"),
        ((3, 1, 1, (0, 1), ((-3,), (1,)), 0), "default precision must be positive"),
        ((3, 1, 1, (0, 2), ((-3,), (1,))), "unramified polynomial must be monic"),
        ((3, 1, 2, (0, 1), ((-3,), (1,))), "degree equal to the ramification index"),
        ((3, 2, 1, (1, 0, 1), ((-3,), (1,))), "vectors over the unramified step"),
        ((3, 1, 1, (0, 1), ((-3,), (2,))), "Eisenstein polynomial must be monic"),
        ((3, 1, 2, (0, 1), ((-3,), (1,), (1,))), "coefficient 1 has valuation below 1"),
        ((1, 1, 1, (0, 1), ((-1,), (1,))), "p = 1 is not prime"),
    ],
)
def test_malformed_towers_name_their_fault(args, message):
    with pytest.raises(ValidationError, match=message):
        LocalFieldDesc(*args)


# ---------------------------------------------------------------------------
# certification against the sympy oracle

STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


def test_is_prime_matches_sympy():
    import sympy

    assert [n for n in range(20000) if padic._is_prime(n) != sympy.isprime(n)] == []
    for n in STRONG_PSEUDOPRIMES:
        assert not sympy.isprime(n) and not padic._is_prime(n)
    # the bound is where the test stops being exact: MAX_P fools every base
    assert not sympy.isprime(padic.MAX_P) and padic._is_prime(padic.MAX_P)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducible_mod_p_matches_sympy(p):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    # degree 6, the largest tower degree admitted, only for p in {2, 3}
    for degree in range(1, 7 if p < 5 else 5):
        for tail in itertools.product(range(p), repeat=degree):
            poly = tail + (1,)
            want = gf_irreducible_p([ZZ(c) for c in reversed(poly)], p, ZZ)
            assert padic._irreducible_mod_p(poly, p) == want, poly


def test_rootless_reducibles_rejected():
    # over F_3, x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) and (x^2 + 1)^2 have no
    # root, so a root search alone would accept them
    for poly in ((1, 0, 0, 0, 1), (1, 0, 2, 0, 1)):
        assert all(sum(c * r**i for i, c in enumerate(poly)) % 3 for r in range(3))
        assert not padic._irreducible_mod_p(poly, 3)
        with pytest.raises(ValidationError):
            LocalFieldDesc(3, 4, 1, poly, ((-3, 0, 0, 0), (1, 0, 0, 0)))


def test_descriptor_identity_is_one_rule():
    a = LocalFieldDesc(3, 1, 2, (0, 1), ((-3,), (0,), (1,)))
    b = LocalFieldDesc(3, 1, 2, [0, 1], [-3, 0, 1])
    c = parse_field({"p": 3, "eL": 2, "eis_poly": [[-3], [0], [1]]})
    assert a is b and b is c
    # an element of one construction mixes freely with another construction
    x = ProductElement.from_components(c, GaloisShape(1, 1), [a.from_int(2)])
    assert (x + b.from_int(1)).comps[0] == c.from_int(3)
    assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    assert LocalFieldDesc(3, 1, 2, (0, 1), ((-3,), (0,), (1,)), 80) is not a


def test_concurrent_construction_yields_one_descriptor():
    workers = 8
    barrier = threading.Barrier(workers, timeout=30)
    built = [None] * workers

    def build(i):
        barrier.wait()
        built[i] = LocalFieldDesc(7, 1, 1, (0, 1), ((-7,), (1,)), 41)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert built[0] is not None and all(d is built[0] for d in built)
    assert built[0] is LocalFieldDesc(7, 1, 1, (0, 1), ((-7,), (1,)), 41)


def test_tower_relations(q3_ram, q3_mixed):
    # pi * pi reduces to p under the Eisenstein relation T^2 - p
    pi = q3_ram.uniformizer()
    assert pi * pi == q3_ram.from_int(3)
    # mixed tower: theta satisfies theta^2 + 1 = 0
    th = unram_gen(q3_mixed)
    assert th * th == q3_mixed.from_int(-1)
    assert q3_mixed.uniformizer() ** 2 == q3_mixed.from_int(3)


# ---------------------------------------------------------------------------
# valuation


def test_valuation_basics(q3, q3_ram):
    assert q3.from_int(3).valuation() == 1
    assert q3.from_int(5).valuation() == 0
    assert q3.from_int(18).valuation() == 2
    assert q3.zero().valuation() == INF
    assert q3_ram.uniformizer().valuation() == Fraction(1, 2)
    assert q3.from_rational(Fraction(1, 3)).valuation() == -1
    assert q3.from_rational(Fraction(1, 2)).valuation() == 0


def test_vp_strips_high_valuations():
    # plain division for the first powers, then the squaring strip: every
    # valuation on both sides of each power of two up to 2^11
    for p in (2, 3, 7):
        for v in sorted({0, 1, 3, 4, 5} | {b + d for b in (2**i for i in range(2, 12)) for d in (-1, 0, 1)}):
            for u in (1, -(p + 1), p * 1000 + 1):
                assert padic._vp(u * p**v, p) == v
    # and through a digit valuation at precision 2000, ramified
    desc = LocalFieldDesc(3, 1, 2, (0, 1), ((-3,), (0,), (1,)), 2000)
    x = sample_element(desc, Fraction(1501, 2), seed=3)
    assert x.valuation() == Fraction(1501, 2)


def test_valuation_matches_norm_oracle(q3_ram):
    # element 3 + pi: the minimum-term rule gives 1/2, and so does the
    # independent resultant-norm oracle
    coords = [[3], [1]]
    x = q3_ram.element(coords)
    assert oracle_valuation(q3_ram, coords) == Fraction(1, 2)
    assert x.valuation() == Fraction(1, 2)
    # 1 + pi: unit term dominates
    coords = [[1], [1]]
    assert oracle_valuation(q3_ram, coords) == 0
    assert q3_ram.element(coords).valuation() == 0


def test_valuation_oracle_grid(all_fields):
    cases = [
        [[1]], [[7]], [[-6]], [[Fraction(5, 9)]],
    ]
    for desc in all_fields:
        for base in cases:
            coords = [[0] * desc.f_l for _ in range(desc.e_l)]
            coords[0][0] = base[0][0]
            if desc.e_l > 1:
                coords[1][0] = 2
            if desc.f_l > 1:
                coords[0][1] = 3
            x = desc.element(coords)
            assert x.valuation() == oracle_valuation(desc, coords)


def test_indistinguishable_zero_raises(q3):
    x = q3.from_int(7)
    diff = x - x
    assert diff.is_zero_at_prec()
    assert not diff.is_exact_zero()
    with pytest.raises(PrecisionLoss):
        diff.valuation()


def test_capped_tail_is_invisible(q3):
    # 3^100 at precision 60 cannot be told apart from zero
    tail = q3.from_int(3 ** 100)
    assert tail.is_zero_at_prec()
    with pytest.raises(PrecisionLoss):
        tail.valuation()


# ---------------------------------------------------------------------------
# ring arithmetic


def test_product_matches_sympy_reduction(q3_ram, q3_mixed, q5_unr):
    import itertools

    # e, f = 2 with theta in the Eisenstein rows: pi^2 + 5 theta pi + 5 (1 + theta)
    q5_twisted = LocalFieldDesc(5, 2, 2, (2, 1, 1), ((5, 5), (0, 5), (1, 0)))
    for desc in (q3_ram, q3_mixed, q5_unr, q5_twisted):
        vals = [1, 2, -1]
        shapes = []
        for fill in itertools.product(vals, repeat=min(4, desc.e_l * desc.f_l)):
            coords = [[0] * desc.f_l for _ in range(desc.e_l)]
            flat = [(a, b) for a in range(desc.e_l) for b in range(desc.f_l)]
            for (a, b), c in zip(flat, fill):
                coords[a][b] = c
            shapes.append(coords)
            if len(shapes) >= 6:
                break
        for cx, cy in zip(shapes, reversed(shapes)):
            x = desc.element(cx, INF)
            y = desc.element(cy, INF)
            expected = oracle_product_coords(desc, cx, cy)
            got = (x * y).coefficients()
            assert [list(r) for r in got] == expected


def test_ring_axioms_sampled(all_fields):
    for desc in all_fields:
        xs = [sample_element(desc, Fraction(v, desc.e_l), seed=100 + v) for v in range(-2, 3)]
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert x * y == y * x
                assert x + y == y + x
                z = xs[(i + j) % len(xs)]
                assert (x + y) * z == x * z + y * z
                assert (x * y) * z == x * (y * z)


def test_multiplicativity_of_valuation(all_fields):
    for desc in all_fields:
        for sv in range(-3, 4):
            for tv in range(-2, 3):
                x = sample_element(desc, Fraction(sv, desc.e_l), seed=sv * 17 + tv)
                y = sample_element(desc, Fraction(tv, desc.e_l), seed=sv - 31 * tv)
                assert (x * y).valuation() == x.valuation() + y.valuation()


def test_ultrametric(all_fields):
    for desc in all_fields:
        a = sample_element(desc, 0, seed=5)
        b = sample_element(desc, 1, seed=6)
        s = a + b
        # distinct valuations: minimum is attained
        assert s.valuation() == 0
        c = sample_element(desc, 1, seed=7)
        t = b + c
        assert t.valuation() >= 1


def test_inverse_roundtrip(all_fields):
    for desc in all_fields:
        one = desc.one()
        for v in range(-2, 3):
            x = sample_element(desc, Fraction(v, desc.e_l), seed=900 + v)
            assert x * x.inverse() == one
            assert x.inverse().valuation() == -x.valuation()


def test_inverse_errors(q3):
    with pytest.raises(ZeroInput):
        q3.zero().inverse()
    x = q3.from_int(2)
    with pytest.raises(PrecisionLoss):
        (x - x).inverse()


def oracle_inverse(x):
    """The inverse by the former algorithm, kept as an oracle: Newton with
    FieldElement operators from a brute-force residue inverse, a fixed
    ceil(log2(digits)) + 2 steps at full precision."""
    desc = x.desc
    e = desc.e_l
    q, r = divmod(int(x.valuation() * e), e)
    if r:
        q, r = q + 1, e - r
    # x * pi^r / p^q is a unit
    scale = desc.uniformizer(INF) ** r * desc.from_rational(Fraction(1, desc.p) ** q, INF)
    u = x * scale
    y = None
    for digits in itertools.product(range(desc.p), repeat=desc.f_l):
        t = desc.element([list(digits)] + [[0] * desc.f_l] * (e - 1), INF)
        if (u * t - 1).val_floor() > 0:
            y = t
            break
    two = desc.from_int(2, INF)
    for _ in range(math.ceil(math.log2(u.prec * e)) + 2):
        y = y * (two - u * y)
    return y * scale


INVERSE_TOWERS = {
    "q2": (2, 1, 1, (0, 1), ((-2,), (1,))),
    "q3": (3, 1, 1, (0, 1), ((-3,), (1,))),
    "q3ram": (3, 1, 2, (0, 1), ((-3,), (0,), (1,))),
    "q9": (3, 2, 1, (1, 0, 1), ((-3, 0), (1, 0))),
    # e = f = 2: products fold both theta and pi powers
    "q9ram": (3, 2, 2, (1, 0, 1), ((-3, 0), (0, 0), (1, 0))),
    # pi^2 + 3 pi + 3 = 0: a ramified step whose pi^e_l is not p
    "q3eis": (3, 1, 2, (0, 1), ((3,), (3,), (1,))),
}


@pytest.mark.parametrize("prec", [60, 2000])
@pytest.mark.parametrize("tower", sorted(INVERSE_TOWERS))
def test_inverse_properties(tower, prec):
    desc = LocalFieldDesc(*INVERSE_TOWERS[tower])
    e = desc.e_l
    for n in range(-4, 9):
        v = Fraction(n, e)
        x = sample_element(desc, v, seed=1000 * n + prec, prec=prec)
        inv = x.inverse()
        assert x * inv == 1
        assert inv.valuation() == -v
        assert inv.prec == x.prec - 2 * v
        expected = oracle_inverse(x)
        assert inv == expected and inv.prec == expected.prec


def test_inverse_needs_relative_precision(all_fields):
    for desc in all_fields:
        e = desc.e_l
        # relative precision below one pi-adic digit: p^2 known mod p^2
        with pytest.raises(PrecisionLoss):
            desc.from_int(desc.p**2, prec=2).inverse()
        # exactly one digit is enough, and the floor rule still holds
        x = desc.from_int(desc.p**2, prec=Fraction(2 * e + 1, e))
        inv = x.inverse()
        assert inv.prec == x.prec - 4
        assert x * inv == 1


def test_unit_inverse_searches_for_a_unit_pivot():
    # Q27, theta^3 + 2 theta + 1 irreducible mod 3.  For theta^2 + 3w the
    # first column of the multiplication matrix is (3w_0, 3w_1, 1 + 3w_2):
    # the elimination must pass two non-unit entries to find its pivot
    desc = LocalFieldDesc(3, 3, 1, (1, 2, 0, 1), ((-3, 0, 0), (1, 0, 0)))
    for seed in range(4):
        x = unram_gen(desc) ** 2 + 3 * sample_unit(desc, seed=seed)
        inv = x.inverse()
        assert x * inv == 1 and inv.prec == x.prec
        assert inv == oracle_inverse(x)


def test_unit_inverse_is_checked(q3_ram, monkeypatch):
    x = sample_unit(q3_ram, seed=3)
    good = x.inverse()
    # a scalar inverse wrong in its last digit makes the solve return a
    # wrong y; the check refuses the result instead of returning it
    right = padic._inverse_mod
    monkeypatch.setattr(padic, "_inverse_mod", lambda c, mod: right(c, mod) + mod // 3)
    with pytest.raises(PrecisionLoss):
        x.inverse()
    # on Q_p the solve is one scalar inverse, checked the same way
    with pytest.raises(PrecisionLoss):
        sample_unit(LocalFieldDesc(3, 1, 1, (0, 1), ((-3,), (1,))), seed=3).inverse()
    monkeypatch.undo()
    assert x.inverse() == good


def test_unit_inverse_refuses_a_non_unit(q3, q3_ram, q5_unr):
    # callers pass units only; called directly on 3, on pi (whose first
    # column has a unit entry but whose second has none) and on 5, the
    # solve finds a column without a unit pivot and refuses
    for desc, c in ((q3, [3]), (q3_ram, [0, 1]), (q5_unr, [5, 0])):
        with pytest.raises(PrecisionLoss, match="no unit pivot"):
            padic._unit_inverse(desc, c, 4)


def test_api_precision_types(q3_ram):
    e = q3_ram.e_l
    x = q3_ram.one() * q3_ram.uniformizer(INF).inverse()
    for value in (x.prec, x.valuation(), x.val_floor()):
        assert isinstance(value, Fraction) and e % value.denominator == 0
    assert (x.prec, x.valuation()) == (Fraction(119, 2), Fraction(-1, 2))
    assert dump_element(x) == {"c": [["0"], ["1/3"]], "prec": "119/2"}
    assert all(isinstance(c, Fraction) for row in x.coefficients() for c in row)
    gone = x - x
    assert isinstance(gone.val_floor(), Fraction) and gone.val_floor() == Fraction(119, 2)
    zero = q3_ram.zero()
    assert zero.prec is INF and zero.valuation() is INF and zero.val_floor() is INF
    assert dump_element(zero)["prec"] == "inf"
    # a floor between two digits names the lattice of the next digit
    assert q3_ram.from_int(1, prec=Fraction(1, 3)).prec == Fraction(1, 2)


def test_rational_embedding(q3):
    half = q3.from_rational(Fraction(1, 2))
    assert half * 2 == q3.one()
    third = q3.from_rational(Fraction(1, 3))
    assert third * 3 == q3.one()
    assert third.valuation() == -1


def test_precision_floor_tracking(q3):
    x = q3.from_int(5)
    y = q3.from_rational(Fraction(1, 3))
    assert x.prec == Fraction(60)
    prod = x * y
    # multiplying by a valuation -1 element lowers the absolute floor
    assert prod.prec == Fraction(59)
    inv = q3.from_int(9).inverse()
    assert inv.prec == Fraction(60 - 4)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_deterministic_and_exact(all_fields):
    for desc in all_fields:
        for tv in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, desc.e_l)):
            a = sample_element(desc, tv, seed=42)
            b = sample_element(desc, tv, seed=42)
            c = sample_element(desc, tv, seed=43)
            assert a == b
            assert a.valuation() == tv
            assert c.valuation() == tv
    with pytest.raises(ValueError):
        sample_element(LocalFieldDesc(3, 1, 1, (0, 1), ((-3,), (1,))), Fraction(1, 2), seed=1)


def test_sample_unit(q3_mixed):
    u = sample_unit(q3_mixed, seed=77)
    assert u.valuation() == 0


# ---------------------------------------------------------------------------
# Newton polygon and root lifting


def test_roots_linear_split(q3):
    one = q3.one()
    p = q3.from_int(3)
    # (T - 3)(T - 1) = T^2 - 4T + 3
    coeffs = [p, q3.from_int(-4), one]
    roots = roots_in_field(coeffs)
    vals = sorted(r.valuation() for r in roots)
    assert vals == [0, 1]
    for r in roots:
        assert poly_eval(coeffs, r).is_zero_at_prec()


def test_roots_same_valuation_distinct_residues():
    q5 = LocalFieldDesc(5, 1, 1, (0, 1), ((-5,), (1,)))
    one = q5.one()
    # (T - 1)(T - 2) = T^2 - 3T + 2, both roots are units
    coeffs = [q5.from_int(2), q5.from_int(-3), one]
    roots = roots_in_field(coeffs)
    assert len(roots) == 2
    assert sorted([r == q5.from_int(1) for r in roots]) == [False, True]
    assert any(r == q5.from_int(2) for r in roots)


def test_repeated_root_fails_loudly(q3):
    one = q3.one()
    # (T - 1)^2
    coeffs = [one, q3.from_int(-2), one]
    with pytest.raises(RootLiftingError):
        roots_in_field(coeffs)


def test_roots_three_distinct_slopes(q3):
    p = q3.from_int(3)
    pinv = p.inverse()
    one = q3.one()
    # (T - p)(T - 1)(T - 1/p)
    c0 = -(p * one * pinv)
    c1 = p * one + p * pinv + one * pinv
    c2 = -(p + one + pinv)
    coeffs = [c0, c1, c2, one]
    roots = roots_in_field(coeffs)
    assert sorted(r.valuation() for r in roots) == [-1, 0, 1]


def test_roots_in_ramified_field(q3_ram):
    pi = q3_ram.uniformizer()
    one = q3_ram.one()
    coeffs = [pi * one, -(pi + one), one]  # (T - pi)(T - 1)
    roots = roots_in_field(coeffs)
    assert sorted(r.valuation() for r in roots) == [0, Fraction(1, 2)]


@pytest.mark.parametrize("eis", [(3, 3, 1), (-3, -3, 1)])
def test_roots_on_towers_where_pi_e_is_not_p(eis):
    # pi^2 = -3 pi - 3 or 3 pi + 3: a root of valuation n/2 is u T for the
    # monomial u of valuation n/2, and the coefficient of T^i of f(uT)
    # takes u^i, which is not the monomial of valuation n i/2 here
    desc = LocalFieldDesc(3, 1, 2, (0, 1), tuple((c,) for c in eis))
    pi, one = desc.uniformizer(), desc.one()
    pairs = [(pi, 2 * pi), (pi, pi * pi * pi), (one + pi, pi), (3 + pi * pi, pi), (pi * pi, 2 * pi * pi)]
    for a, b in pairs:
        coeffs = [a * b, -(a + b), one]
        roots = roots_in_field(coeffs)
        assert len(roots) == 2
        for r in roots:
            assert poly_eval(coeffs, r).is_zero_at_prec()
        assert any(r == a for r in roots) and any(r == b for r in roots)


def test_newton_slopes_shape(q3):
    one = q3.one()
    coeffs = [q3.from_int(9), q3.from_int(3), one]
    # the hull falls 2 digits over a run of 2: two roots of valuation 1
    assert newton_slopes(coeffs) == [(2, 2, 0, 2)]


def test_newton_slopes_certify_unknown_coefficients(q3, q3_ram):
    # T^2 + cT + a with c indistinguishable from zero: the hull through
    # (0, v(a)) and (2, 0) has the value v(a)/2 at 1, so c known to that
    # floor is certified on or above it, and c known to no digit is not
    for desc, a, floor in ((q3, 9, 1), (q3_ram, 3, Fraction(1, 2))):
        coeffs = [desc.from_int(a), desc.from_int(3, prec=floor), desc.one()]
        assert coeffs[1].is_zero_at_prec()
        # v(a) is 2 digits on both towers: a drop of 2 over a run of 2
        assert newton_slopes(coeffs) == [(2, 2, 0, 2)]
        coeffs[1] = desc.from_int(3, prec=0)
        with pytest.raises(PrecisionLoss):
            newton_slopes(coeffs)


def test_roots_in_field_refuses_an_off_grid_segment(q3):
    # T^2 - 3 over Q3: the hull falls 1 digit over a run of 2, so both roots
    # would have valuation 1/2, outside the value group of Q3
    coeffs = [q3.from_int(-3), q3.zero(), q3.one()]
    assert newton_slopes(coeffs) == [(1, 2, 0, 2)]
    with pytest.raises(RootLiftingError, match="2 roots could not be resolved"):
        roots_in_field(coeffs)


def test_field_element_repr(q3, q3_ram):
    assert repr(q3.from_int(18)) == "FieldElement(v=2, prec=60)"
    assert repr(q3.zero()) == "FieldElement(v=inf, prec=inf)"
    # no digit survives below the floor: the valuation is only bounded
    assert repr(q3.from_int(9, prec=2)) == "FieldElement(v=>=2, prec=2)"
    assert repr(q3_ram.uniformizer()) == "FieldElement(v=1/2, prec=60)"


def test_hensel_root_quadratic(q2):
    # T^2 + T - 6 = (T - 2)(T + 3) over Q_2: the residue root 1 is simple
    coeffs = [q2.from_int(-6), q2.one(), q2.one()]
    x = hensel_root(coeffs, q2.from_int(1))
    assert x == q2.from_int(-3) and x.prec == 60
    # T^2 - 9 from 1: f'(1) = 2 is not a unit, so the start is refused
    coeffs = [q2.from_int(-9), q2.zero(), q2.one()]
    with pytest.raises(RootLiftingError):
        hensel_root(coeffs, q2.from_int(1))


def oracle_hensel(coeffs, x0):
    """The former lift, kept as an oracle: divide f(x) by f'(x) at every
    step on field elements, under the same start condition, stall rule and
    certificate."""
    deriv = [c * i for i, c in enumerate(coeffs)][1:]
    x, last = x0, None
    while True:
        fx = poly_eval(coeffs, x)
        if fx.is_zero_at_prec():
            return x
        v, dfx = fx.valuation(), poly_eval(deriv, x)
        if last is None:
            if v <= 2 * dfx.valuation():
                raise RootLiftingError("start point fails Hensel's condition")
        elif v <= last:
            raise PrecisionLoss("Newton lift stalled")
        last = v
        x = x - fx / dfx


@pytest.mark.parametrize("prec", [60, 2000])
@pytest.mark.parametrize("tower", ["q3", "q3eis", "q3ram", "q9", "q9ram"])
def test_hensel_root_matches_divide_every_step(tower, prec):
    desc = LocalFieldDesc(*INVERSE_TOWERS[tower], prec)
    one, pi = desc.one(), desc.uniformizer()
    s = sample_unit(desc, seed=prec + 1)
    t = s + 1  # a unit with another residue, since p = 3
    w = sample_unit(desc, seed=prec + 2)
    residue = desc.element([[c % 3 for c in s.coefficients()[0]]] + [[0] * desc.f_l] * (desc.e_l - 1))
    cases = [
        # T^2 - s^2 from the residue of s: a unit derivative
        ([-(s * s), desc.zero(), one], residue),
        # (T - s)(T - t)(T - pi w): three roots, two valuations
        ([-(s * t * pi * w), s * t + (s + t) * pi * w, -(s + t + pi * w), one], residue),
    ]
    for coeffs, x0 in cases:
        root = hensel_root(coeffs, x0)
        expected = oracle_hensel(coeffs, x0)
        assert (root.mant, root.shift, root.prec) == (expected.mant, expected.shift, expected.prec)
        assert poly_eval(coeffs, root).is_zero_at_prec()
    # (T - s)(T - s - pi) from s + pi^2: f'(x) of valuation 1/e_l, a start
    # the oracle lifts on element floors but not a simple residue root
    with pytest.raises(RootLiftingError):
        hensel_root([s * (s + pi), -(2 * s + pi), one], s + pi * pi)


@pytest.mark.parametrize("prec", [60, 2000])
@pytest.mark.parametrize("tower", ["q3", "q2", "q3_ram", "q5_unr", "q3_mixed", "q3_eis"])
def test_hensel_root_matches_oracle_on_every_tower(tower, prec, request, monkeypatch):
    # the doubling ladder gives the bits of the divide-every-step oracle,
    # from residue starts, from a start with v(f(x0)) = 3 digits and from
    # an exact one with v(f(x0)) = v(p^3), in at most ceil(log2 K) + 1 steps
    base = request.getfixturevalue(tower)
    desc = LocalFieldDesc(base.p, base.f_l, base.e_l, base.unram_poly, base.eis_poly, prec)
    p, one, pi = desc.p, desc.one(), desc.uniformizer()
    s, w = sample_unit(desc, seed=prec + 3), sample_unit(desc, seed=prec + 4)
    residue = desc.element([[c % p for c in s.coefficients()[0]]] + [[0] * desc.f_l] * (desc.e_l - 1))
    quad = [s * pi * w, -(s + pi * w), one]  # (T - s)(T - pi w)
    cubic = [-(s * pi * w * pi * pi), s * pi * w + (s + pi * w) * pi * pi, -(s + pi * w + pi * pi), one]
    a = 1 if 3 % p else 2  # f'(a) = 2a + 1 is a unit
    exact = [desc.from_int(p**3 - a * a - a, INF), desc.from_int(1, INF), desc.from_int(1, INF)]
    cases = [
        (quad, residue, None),
        (cubic, residue, None),
        (quad, s + pi * pi * pi, 3),
        (exact, desc.from_int(a, INF), 3 * desc.e_l),
    ]
    steps = []
    step = padic._newton_step
    monkeypatch.setattr(padic, "_newton_step", lambda *args: steps.append(1) or step(*args))
    for coeffs, x0, v in cases:
        assert v is None or poly_eval(coeffs, x0)._val() == v
        steps.clear()
        root = hensel_root(coeffs, x0)
        expected = oracle_hensel(coeffs, x0)
        assert (root.mant, root.shift, root._k) == (expected.mant, expected.shift, expected._k)
        assert 1 <= len(steps) <= math.ceil(math.log2(root._k)) + 1
    assert root._k == desc._digits(None) + 3 * desc.e_l


def test_hensel_root_stalls_on_a_wrong_residue_inverse(q3, monkeypatch):
    # with w twice the inverse of f'(x0) the first step leaves f(x) at
    # valuation 1, outside the lattice pi^2 the step promised
    coeffs = [q3.from_int(-7), q3.zero(), q3.one()]
    residue_inverse = padic._residue_inverse
    monkeypatch.setattr(padic, "_residue_inverse", lambda desc, u: [2 * c for c in residue_inverse(desc, u)])
    with pytest.raises(PrecisionLoss, match="stalled"):
        hensel_root(coeffs, q3.from_int(1))


def test_hensel_root_checks_the_last_step(q3, monkeypatch):
    # a last Newton step that lands one digit short of the root leaves
    # f(x) at valuation k - 1; the check on field elements refuses it
    coeffs = [q3.from_int(-7), q3.zero(), q3.one()]
    x0 = q3.from_int(1)
    step = padic._newton_step

    def one_digit_off(desc, x, w, r, d, t, s, e):
        x, w = step(desc, x, w, r, d, t, s, e)
        if t + s == x0._k:
            x = [x[0] + desc._moduli(t + s)[0] // desc.p] + x[1:]
        return x, w

    assert hensel_root(coeffs, x0) ** 2 == 7
    monkeypatch.setattr(padic, "_newton_step", one_digit_off)
    with pytest.raises(PrecisionLoss, match="failed its check"):
        hensel_root(coeffs, x0)


def test_roots_in_field_checks_each_segments_root_count(monkeypatch):
    # (T - 1)(T - 2) over Q_5: one segment of length 2 with two residue
    # roots; a lift that returns a root twice, or a residue search that
    # offers each start twice, leaves the segment with a wrong root count
    q5 = LocalFieldDesc(5, 1, 1, (0, 1), ((-5,), (1,)))
    coeffs = [q5.from_int(2), q5.from_int(-3), q5.one()]
    assert len(roots_in_field(coeffs)) == 2
    lift, first = padic.hensel_root, []

    def lift_once(h, x0):
        if not first:
            first.append(lift(h, x0))
        return first[0]

    with monkeypatch.context() as m:
        m.setattr(padic, "hensel_root", lift_once)
        with pytest.raises(RootLiftingError):
            roots_in_field(coeffs)
    search = padic._simple_residue_roots
    with monkeypatch.context() as m:
        m.setattr(padic, "_simple_residue_roots", lambda desc, res: (search(desc, res)[0] * 2, False))
        with pytest.raises(RootLiftingError):
            roots_in_field(coeffs)


def test_hensel_root_exact_inputs():
    # exact coefficients and start: the root's floor is the relative
    # precision of 1/f'(x0) plus v(f(x0)), in pi-adic digits 60 + 1 over
    # Q_7 (f(3) = 7) and 120 + 2 over Q_3(sqrt 3) (f(1) = -6, valuation 1)
    q7 = LocalFieldDesc(7, 1, 1, (0, 1), ((-7,), (1,)))
    q3ram = LocalFieldDesc(*INVERSE_TOWERS["q3ram"])
    for desc, a, start, digits in ((q7, 2, 3, 61), (q3ram, 7, 1, 122)):
        coeffs = [desc.from_int(-a, INF), desc.zero(), desc.from_int(1, INF)]
        x0 = desc.from_int(start, INF)
        root = hensel_root(coeffs, x0)
        expected = oracle_hensel(coeffs, x0)
        assert root == expected and root.prec == expected.prec
        assert (root.mant, root.shift) == (expected.mant, expected.shift)
        assert root.prec == Fraction(digits, desc.e_l)
        assert root * root == a
        # an exact root is returned as it is
        assert hensel_root([desc.from_int(-start * start, INF)] + coeffs[1:], x0) is x0


def _lift_or_raise(fn, coeffs, x0):
    try:
        root = fn(coeffs, x0)
    except (RootLiftingError, PrecisionLoss) as exc:
        return type(exc)
    return root.mant, root.shift, root.prec


def test_hensel_root_lifts_only_simple_residue_roots(q3, q3_ram):
    # integral starts and coefficients with floors >= the start's floor K:
    # a unit f'(x0) gives the root bits of oracle_hensel, which lifts on
    # field elements; any other start is refused, where the oracle may
    # still lift on element floors or fail otherwise
    for desc in (q3, q3_ram):

        def f(*cs, prec=None):
            return [desc.from_int(c, INF if prec is None else prec) for c in cs]

        x1 = desc.from_int(1, prec=4)
        simple = [
            # f(x0) zero at precision: (T - 2)(T + 2) from 2 + O(3^4)
            (f(-4, 0, 1), desc.from_int(2, prec=4)),
            # a unit derivative: T^2 - 7 from 1, lifted all the way
            (f(-7, 0, 1, prec=9), desc.from_int(1, prec=9)),
        ]
        for coeffs, x0 in simple:
            got = _lift_or_raise(hensel_root, coeffs, x0)
            assert got == _lift_or_raise(oracle_hensel, coeffs, x0)
        assert _lift_or_raise(hensel_root, *simple[0])[0] == (2,) + (0,) * (desc.degree - 1)
        refused = [
            # leading coefficients 3 and 3: f(1) = 0, but f'(1) = 9
            (f(-6, 3, 3), x1),
            # ... and f(1) = 81, zero modulo pi^K, with the same f'(1)
            (f(75, 3, 3), x1),
            # f'(x0) zero at precision: (T - 1)^2 + 3 from 1 + O(3^4)
            (f(4, -2, 1), x1),
            # v(f'(x0)) = 1: (T - 1)(T - 4) from 1 + 9, condition 3 > 2 holds
            (f(4, -5, 1), desc.from_int(10, prec=6)),
            # Hensel's condition fails: T^2 - 3 from 1
            (f(-3, 0, 1), x1),
            # a coefficient known to fewer digits than x0
            ([desc.from_int(-7, prec=3), desc.zero(), desc.one()], desc.from_int(1, prec=9)),
            # exact x0 on an inexact coefficient
            (f(-7, 0, 1, prec=9), desc.from_int(1, INF)),
            # a start known to no digit, whose f'(x0) is zero modulo pi^0
            (f(-7, 1, 1), desc.from_int(1, prec=0)),
            # a start or a coefficient that is not integral
            (f(-7, 0, 1), desc.from_rational(Fraction(1, 3))),
            ([desc.from_rational(Fraction(-7, 3)), desc.zero(), desc.one()], desc.from_int(1)),
        ]
        for coeffs, x0 in refused:
            with pytest.raises(RootLiftingError):
                hensel_root(coeffs, x0)


def test_hensel_root_refuses_a_start_failing_hensel(q3):
    # T^2 - 3 has no root in Q_3: at 1 the residual and the derivative are
    # both units, so v(f) > 2 v(f') fails and no simple root is singled out
    coeffs = [q3.from_int(-3), q3.zero(), q3.one()]
    with pytest.raises(RootLiftingError):
        hensel_root(coeffs, q3.from_int(1))
    # (T - 1)^2 from 1 + 3: v(f) = 2 = 2 v(f'), a double root, not a lift
    coeffs = [q3.one(), q3.from_int(-2), q3.one()]
    with pytest.raises(RootLiftingError):
        hensel_root(coeffs, q3.from_int(4))


def test_roots_need_a_residue_digit(q3):
    # T^2 + c T + 2 with c known to no 3-adic digit: the residue polynomial,
    # and with it every root, is undetermined; a precision failure, not a
    # structural one the callers would read as a repeated eigenvalue
    coeffs = [q3.from_int(2), q3.from_int(1, prec=0), q3.one()]
    with pytest.raises(PrecisionLoss):
        roots_in_field(coeffs)
    # one digit of c is enough: c = 0 + O(3) gives the residue roots 1 and 2
    coeffs[1] = q3.from_int(3, prec=1)
    roots = roots_in_field(coeffs)
    assert sorted(r.coefficients()[0][0] for r in roots) == [1, 2]
    assert all(r.prec == 1 for r in roots)


def test_vp_refuses_zero():
    with pytest.raises(ZeroInput):
        padic._vp(0, 3)


def test_moduli_cache_is_dropped_when_full(q3):
    size = padic._MODULI_CACHE_SIZE
    q3._moduli_cache.clear()
    for k in range(1, size + 1):
        q3._moduli(k)
    assert len(q3._moduli_cache) == size
    assert q3._moduli(size + 1) == (3 ** (size + 1),)
    assert list(q3._moduli_cache) == [size + 1]


def test_construction_refusals(q3, q2):
    with pytest.raises(ValidationError, match="infinite precision"):
        q3.from_rational(Fraction(1, 2), INF)
    with pytest.raises(ValidationError, match="e_l rows of f_l entries"):
        q3.element([[1, 2]])
    with pytest.raises(FieldMismatch):
        q3.from_int(1) + q2.from_int(1)


def test_operators_decline_foreign_operands(q3):
    x = q3.from_int(2)
    for method, operand in [
        (x.__add__, "a"),
        (x.__rsub__, "a"),
        (x.__mul__, "a"),
        (x.__truediv__, "a"),
        (x.__pow__, 0.5),
        (x.__eq__, "a"),
    ]:
        assert method(operand) is NotImplemented
    with pytest.raises(TypeError):
        x * 1.5


def test_exact_divisor_keeps_the_dividends_digits(q3, q3_ram):
    x = q3.from_int(1, prec=100)
    assert (x / 3).prec == 99 and (x / 3).valuation() == -1
    assert (x / 2).prec == 100 and (x / 2) * 2 == x
    assert (q3.from_int(9, prec=100) / 9).prec == 98
    # an inexact divisor still caps the quotient at its own relative digits
    assert (x / q3.from_int(2, prec=5)).prec == 5
    # an exact dividend takes the default digits, as inverse() does
    assert (q3.from_int(1, INF) / 2).prec == 60
    y = q3_ram.uniformizer(prec=80)
    assert (y / 3).prec == 79 and (y / 3).valuation() == Fraction(-1, 2)


def test_float_infinity_is_exact_precision(q3):
    two = q3.from_int(2, float("inf"))
    assert two.prec == INF and two == q3.from_int(2, INF)
    assert q3.from_rational(Fraction(3, 1), float("inf")).prec == INF
