"""Linear algebra over the exact coefficient field.

Rational-matrix results are checked against sympy computed over Q, then
embedded; identities on sampled extension-field matrices certify the
precision-aware paths.
"""
import random
from fractions import Fraction

import pytest
import sympy

from phinmod import padic
from phinmod.errors import PrecisionLoss
from phinmod.filtration import restrict_steps
from phinmod.linalg import (
    Subspace,
    _dot,
    charpoly,
    det,
    identity,
    inv,
    is_zero_matrix,
    kron,
    mat,
    mat_eq,
    mat_mul,
    mat_vec,
    rref,
    right_kernel,
    solve_columns,
    trace,
    transpose,
)
from phinmod.padic import INF, _mul_add, _sub_mul, poly_eval
from util import exact_lift, inv_by_rref, loose_q3_matrix, sample_element, sample_invertible


def imat(desc, rows):
    return mat([[desc.from_int(x, INF) for x in r] for r in rows])


def ivec(desc, entries):
    return tuple(desc.from_int(x, INF) for x in entries)


def zero_elt(x):
    return x.is_exact_zero() or x.is_zero_at_prec()


def sampled_matrix(desc, n, seed):
    rng = random.Random(seed)
    return mat(
        [
            [
                sample_element(desc, rng.randrange(0, 3), seed * 997 + 31 * i + j)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


RAT_CASES = [
    [[3, 1], [4, 2]],
    [[2, 5, 1], [0, 1, 7], [3, 0, 2]],
    [[1, 2, 0, 1], [0, 3, 1, 0], [2, 0, 1, 1], [1, 1, 1, 4]],
]


def test_det_matches_rational_oracle(all_fields):
    for desc in all_fields:
        for rows in RAT_CASES:
            expected = Fraction(sympy.Rational(sympy.Matrix(rows).det()))
            assert det(imat(desc, rows)) == desc.from_rational(expected)


def test_det_multiplicative(q3, q5_unr, q3_mixed):
    for desc in (q3, q5_unr, q3_mixed):
        a = sampled_matrix(desc, 3, 11)
        b = sampled_matrix(desc, 3, 12)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_certified_singular_is_exact_zero(q3):
    assert det(imat(q3, [[1, 2], [2, 4]])).is_exact_zero()


def test_inv_matches_rational_oracle(q3):
    rows = [[2, 5, 1], [0, 1, 7], [3, 0, 2]]
    got = inv(imat(q3, rows))
    want = sympy.Matrix(rows).inv()
    for i in range(3):
        for j in range(3):
            assert got[i][j] == q3.from_rational(Fraction(sympy.Rational(want[i, j])))


def test_inv_roundtrip(all_fields):
    for k, desc in enumerate(all_fields):
        a = sample_invertible(desc, 3, 500 + k)
        prod = mat_mul(a, inv(a))
        eye = identity(desc, 3)
        assert mat_eq(prod, eye)


def test_inv_uncertified_raises(q3):
    z = q3.from_int(3**60)  # all stored digits vanish
    assert z.is_zero_at_prec()
    with pytest.raises(PrecisionLoss):
        inv(mat([[z, z], [z, z]]))


def test_inverse_keeps_the_floors_of_loose_zeros(q3, q9, all_fields):
    # [[1/3 + O(3^2), O(3^2)], [O(3^3), 1 + O(3^7)]]: the zeros known only
    # at precision bound the entries they touch, so the inverse equals the
    # inverse of every exact lift of the input; the loose rule of rref
    # returns exact off-diagonal zeros, which those inverses do not have
    a = loose_q3_matrix(q3)
    got = inv(a)
    assert [[x.prec for x in r] for r in got] == [[4, 3], [4, 6]]
    assert inv_by_rref(a)[0][1].is_exact_zero() and inv_by_rref(a)[1][0].is_exact_zero()
    rng = random.Random(3)
    for _ in range(20):
        lift = exact_lift(a, rng)
        assert mat_eq(got, inv(lift))
    assert not mat_eq(inv_by_rref(a), inv(lift))
    # elsewhere the two rules agree at precision, and inv never claims more
    # digits than the loose rule
    for k, desc in enumerate([*all_fields, q9]):
        rng = random.Random(k)
        dense = mat([[sample_element(desc, 0, rng.randrange(10**6), 20) for _ in range(3)] for _ in range(3)])
        for b in (sample_invertible(desc, 3, 700 + k), dense):
            got, plain = inv(b), inv_by_rref(b)
            assert mat_eq(got, plain)
            assert all(x._k <= y._k for rs, rp in zip(got, plain) for x, y in zip(rs, rp))


def test_rref_canonical_under_row_operations(q3):
    a = imat(q3, [[1, 2, 3], [0, 1, 1]])
    e = sample_invertible(q3, 2, 9)
    b = mat_mul(e, a)
    sa = Subspace.from_vectors(q3, 3, [tuple(r) for r in a])
    sb = Subspace.from_vectors(q3, 3, [tuple(r) for r in b])
    assert sa == sb


def test_right_kernel_annihilates(q3, q3_mixed):
    for desc in (q3, q3_mixed):
        rows = [[1, 2, 0, 1], [0, 1, 1, 0]]
        a = imat(desc, rows)
        basis = right_kernel(a)
        assert len(basis) == 4 - sympy.Matrix(rows).rank()
        for v in basis:
            assert all(zero_elt(x) for x in mat_vec(a, v))


def test_solve_columns_roundtrip(q2):
    cols = [ivec(q2, [1, 0, 1]), ivec(q2, [2, 1, 0])]
    v = ivec(q2, [5, 3, -1])  # 5 = a + 2b, 3 = b, -1 = a
    x = solve_columns(cols, v)
    assert x is not None
    assert x[0] == q2.from_int(-1) and x[1] == q2.from_int(3)
    assert solve_columns(cols, ivec(q2, [0, 0, 1])) is None


def test_charpoly_matches_rational_oracle(q3, q5_unr):
    lam = sympy.symbols("lam")
    for desc in (q3, q5_unr):
        for rows in RAT_CASES:
            got = charpoly(imat(desc, rows))
            want = sympy.Poly(sympy.Matrix(rows).charpoly(lam).as_expr(), lam)
            coeffs = list(reversed(want.all_coeffs()))
            for c_got, c_want in zip(got, coeffs):
                assert c_got == desc.from_rational(Fraction(sympy.Rational(c_want)))


def test_cayley_hamilton_sampled(all_fields):
    for k, desc in enumerate(all_fields):
        a = sampled_matrix(desc, 3, 900 + k)
        coeffs = charpoly(a)
        acc = None
        power = identity(desc, 3)
        for c in coeffs:
            term = tuple(tuple(c * x for x in r) for r in power)
            acc = term if acc is None else mat(
                [[u + w for u, w in zip(ra, rb)] for ra, rb in zip(acc, term)]
            )
            power = mat_mul(power, a)
        assert is_zero_matrix(acc)


def test_charpoly_of_companion_matrix(q5_unr):
    # companion matrix of T^3 - 2T + 5
    rows = [[0, 0, -5], [1, 0, 2], [0, 1, 0]]
    got = charpoly(imat(q5_unr, rows))
    want = [5, -2, 0, 1]
    for c_got, c_want in zip(got, want):
        assert c_got == q5_unr.from_int(c_want)


def test_kron_mixed_product(q3):
    a = sampled_matrix(q3, 2, 41)
    b = sampled_matrix(q3, 2, 42)
    u = ivec(q3, [1, 2])
    v = ivec(q3, [3, -1])
    uv = tuple(x * y for x in u for y in v)
    lhs = mat_vec(kron(a, b), uv)
    au, bv = mat_vec(a, u), mat_vec(b, v)
    rhs = tuple(x * y for x in au for y in bv)
    assert all((l - r).is_exact_zero() or (l - r).is_zero_at_prec() for l, r in zip(lhs, rhs))


def test_trace_of_transpose(q3):
    a = sampled_matrix(q3, 3, 77)
    assert trace(a) == trace(transpose(a))


def _meet(u: Subspace, w: Subspace) -> Subspace:
    """u ∩ w through filtration.restrict_steps, in coordinates on the
    stored generators of w."""
    (sig,) = restrict_steps([((0, u),)], [w])
    return sig[0][1] if sig else Subspace.from_vectors(u.desc, w.dim, [])


def test_subspace_dimension_formula(q3):
    rng = random.Random(321)
    for trial in range(4):
        vs = [
            tuple(q3.from_int(rng.randrange(-9, 10), INF) for _ in range(4))
            for _ in range(2)
        ]
        ws = [
            tuple(q3.from_int(rng.randrange(-9, 10), INF) for _ in range(4))
            for _ in range(3)
        ]
        u = Subspace.from_vectors(q3, 4, vs)
        w = Subspace.from_vectors(q3, 4, ws)
        both = Subspace.from_vectors(q3, 4, vs + ws)
        assert _meet(u, w).dim + both.dim == u.dim + w.dim


def test_subspace_intersection_explicit(q3):
    u = Subspace.from_vectors(q3, 3, [ivec(q3, [1, 0, 0]), ivec(q3, [0, 1, 0])])
    v = Subspace.from_vectors(q3, 3, [ivec(q3, [0, 1, 1]), ivec(q3, [1, 0, 1])])
    piece = _meet(u, v)
    assert piece.dim == 1
    # back in the ambient space through v's generators
    line = Subspace.from_vectors(q3, 3, [mat_vec(transpose(v.gens), piece.gens[0])])
    assert line == Subspace.from_vectors(q3, 3, [ivec(q3, [1, -1, 0])])


def test_subspace_annihilator(q2):
    u = Subspace.from_vectors(q2, 4, [ivec(q2, [1, 2, 0, 1]), ivec(q2, [0, 1, 1, 0])])
    ann = u.annihilator()
    assert ann.dim == 2
    for g in u.gens:
        for a in ann.gens:
            s = None
            for x, y in zip(g, a):
                t = x * y
                s = t if s is None else s + t
            assert zero_elt(s)
    assert ann.annihilator() == u


def test_subspace_membership_and_coords(q3):
    u = Subspace.from_vectors(q3, 3, [ivec(q3, [1, 1, 0]), ivec(q3, [0, 2, 1])])
    v = tuple(q3.from_rational(Fraction(c)) for c in (2, 5, Fraction(3, 2)))
    coeffs = u.coords(v)
    assert coeffs is not None
    rebuilt = [None, None, None]
    for c, g in zip(coeffs, u.gens):
        for i, x in enumerate(g):
            t = c * x
            rebuilt[i] = t if rebuilt[i] is None else rebuilt[i] + t
    assert all((a - b).is_zero_at_prec() or (a - b).is_exact_zero() for a, b in zip(rebuilt, v))
    assert not u.contains_vector(ivec(q3, [1, 0, 0]))


def test_subspace_coords_rebuild_members_and_agree_with_solve_columns(q3, q5_unr):
    for desc in (q3, q5_unr):
        rng = random.Random(57)
        for trial in range(6):
            dim = rng.randrange(1, 4)
            gens = [
                tuple(sample_element(desc, rng.randrange(0, 2), 1000 * trial + 10 * k + i) for i in range(4))
                for k in range(dim)
            ]
            u = Subspace.from_vectors(desc, 4, gens)
            weights = [desc.from_int(rng.randrange(-9, 10), INF) for _ in gens]
            member = tuple(_dot(weights, col) for col in transpose(gens))
            coeffs = u.coords(member)
            assert coeffs is not None and len(coeffs) == u.dim
            rebuilt = mat_vec(transpose(u.gens), coeffs)
            assert all(zero_elt(x - y) for x, y in zip(rebuilt, member))
            solved = solve_columns(u.gens, member)
            assert all(x == y for x, y in zip(coeffs, solved))
            if u.dim < 4:
                # a standard basis vector at a non-pivot position is its
                # own residual, so neither rule finds coefficients for it
                free = next(i for i in range(4) if i not in u.pivots)
                outside = identity(desc, 4)[free]
                assert u.coords(outside) is None
                assert solve_columns(u.gens, outside) is None


def test_quotient_coords_vanish_on_members(q3):
    u = Subspace.from_vectors(q3, 3, [ivec(q3, [1, 4, 2])])
    member = tuple(q3.from_int(7, INF) * x for x in u.gens[0])
    assert all(zero_elt(x) for x in u.quotient_coords(member))
    assert len(u.quotient_coords(ivec(q3, [0, 1, 0]))) == 2


def test_equal_subspaces_from_scrambled_generators(q5_unr):
    g1 = ivec(q5_unr, [1, 2, 3])
    g2 = ivec(q5_unr, [0, 1, 4])
    combo = tuple(x + y + y for x, y in zip(g1, g2))
    a = Subspace.from_vectors(q5_unr, 3, [g1, g2])
    b = Subspace.from_vectors(q5_unr, 3, [combo, g2, g1])
    assert a == b and a.dim == 2


# ---------------------------------------------------------------------------
# exact zeros: skipped terms leave every element as the plain loops make it


def plain_dot(u, v):
    acc = None
    for x, y in zip(u, v):
        t = x * y
        acc = t if acc is None else acc + t
    return acc


def plain_rref(rows_in):
    """rref without the exact-zero shortcuts: every entry is scaled and
    every row update is formed."""
    rows = [list(r) for r in rows_in]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        best = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero_at_prec():
                v = rows[i][c].valuation()
                if best is None or v < best[0]:
                    best = (v, i)
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        inv_c = rows[r][c].inverse()
        rows[r] = [x * inv_c for x in rows[r]]
        for k in range(len(rows)):
            if k != r and not rows[k][c].is_zero_at_prec():
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def bits(x):
    return (x.mant, x.shift, x.prec)


def sparse_matrix(desc, n, seed):
    """Sampled entries, exact integers, the literal zero, an exact zero made
    by cancellation, which is not the descriptor's zero object, and a zero
    known only to its floor, which must not be skipped."""
    rng = random.Random(seed)
    three = desc.from_int(3, INF)
    cancelled = three - three
    assert cancelled.is_exact_zero() and cancelled is not desc.zero()
    vague = desc.from_int(desc.p**3, prec=2)
    assert vague.is_zero_at_prec() and not vague.is_exact_zero()
    pool = [desc.zero(), cancelled, vague, desc.from_int(2, INF), desc.from_int(-5, INF)]
    return mat(
        [
            [
                sample_element(desc, rng.randrange(0, 3), seed * 991 + 7 * i + j)
                if rng.random() < 0.4
                else rng.choice(pool)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def test_exact_zero_skips_match_plain_loops(all_fields):
    for desc in all_fields:
        for seed in range(6):
            a, b = sparse_matrix(desc, 4, seed), sparse_matrix(desc, 4, seed + 50)
            zeros = [desc.zero()] * 4
            for u, v in [(a[0], b[1]), (a[1], zeros), (zeros, a[2])]:
                assert bits(_dot(u, v)) == bits(plain_dot(u, v))
            got = mat_mul(a, b)
            want = [[plain_dot(ra, cb) for cb in zip(*b)] for ra in a]
            assert [[bits(x) for x in r] for r in got] == [[bits(x) for x in r] for r in want]
            rows, pivots = rref(a)
            rows_want, pivots_want = plain_rref(a)
            assert pivots == pivots_want
            assert [[bits(x) for x in r] for r in rows] == [[bits(x) for x in r] for r in rows_want]


def test_rref_exact_one_pivots_skip_inverse(all_fields, monkeypatch):
    # a pivot equal to 1, exact or known to a floor, in place and after a
    # swap, is inverted without a unit solve; the rows match the
    # always-scaling reference bit for bit
    calls = []
    original = padic._unit_inverse

    def counted(*args):
        calls.append(args)
        return original(*args)

    for desc in all_fields:
        one, zero = desc.from_int(1, INF), desc.zero()
        s = [sample_element(desc, 1, 40 + i) for i in range(4)]
        cases = [
            [[one, zero, desc.from_int(2, INF), s[0]], [zero, one, desc.from_int(-5, INF), s[1]]],
            [[zero, one, s[2]], [one, desc.from_int(3, INF), s[3]]],
            [[desc.one(), s[0], zero], [zero, desc.from_int(1, prec=5), s[1]]],
            [[zero, desc.from_int(1, prec=Fraction(7, 2)), s[2]], [desc.one(), zero, s[3]]],
        ]
        for a in cases:
            monkeypatch.setattr(padic, "_unit_inverse", counted)
            rows, pivots = rref(a)
            monkeypatch.setattr(padic, "_unit_inverse", original)
            assert calls == []
            rows_want, pivots_want = plain_rref(a)
            assert pivots == pivots_want == [0, 1]
            assert [[bits(x) for x in r] for r in rows] == [[bits(x) for x in r] for r in rows_want]


# ---------------------------------------------------------------------------
# fused kernels: one reduction per result, the bits of the two-step loops


def plain_horner(coeffs, x):
    out = x.desc.zero()
    for c in reversed(coeffs):
        out = out * x + c
    return out


def kernel_pool(desc):
    """Operands the fused kernels must agree with the two-step loops on:
    shifted entries of negative valuation (inexact and exact), exact
    integers next to inexact units at two floors, the literal zero, an exact
    zero made by cancellation and a zero known only to its floor."""
    p = desc.p
    three = desc.from_int(3, INF)
    pool = [
        sample_element(desc, -1, 7),
        sample_element(desc, Fraction(-1, desc.e_l), 8, prec=20),
        desc.from_rational(Fraction(1, p), INF),
        desc.from_rational(Fraction(-5, p * p), INF),
        desc.from_int(2, INF),
        desc.from_int(-p, INF),
        sample_element(desc, 0, 9),
        sample_element(desc, 1, 10, prec=12),
        desc.zero(),
        three - three,
        desc.from_int(p**3, prec=2),
    ]
    assert pool[0].shift > 0 and pool[2].shift > 0 and pool[-2].is_exact_zero()
    assert pool[-1].is_zero_at_prec() and not pool[-1].is_exact_zero()
    return pool


def test_fused_kernels_match_two_step_loops(all_fields):
    for desc in all_fields:
        pool = kernel_pool(desc)
        for x in pool:
            for f in pool:
                for y in pool:
                    assert bits(_sub_mul(x, f, y)) == bits(x - f * y)
                    assert bits(_mul_add(x, f, y)) == bits(x * f + y)
        for seed in range(8):
            rng = random.Random(seed)
            u, v = rng.choices(pool, k=4), rng.choices(pool, k=4)
            assert bits(_dot(u, v)) == bits(plain_dot(u, v))
            coeffs = rng.choices(pool, k=4)
            assert bits(poly_eval(coeffs, u[0])) == bits(plain_horner(coeffs, u[0]))
            a = [rng.choices(pool, k=4) for _ in range(3)]
            rows, pivots = rref(a)
            rows_want, pivots_want = plain_rref(a)
            assert pivots == pivots_want
            assert [[bits(x) for x in r] for r in rows] == [[bits(x) for x in r] for r in rows_want]


def test_fused_kernels_cancel_to_zero_at_precision(all_fields):
    # differences that vanish at their floor: the floor is the two-step
    # loops' floor, and what is left is zero at precision, not the exact zero
    for desc in all_fields:
        s, t, w = sample_element(desc, -1, 21), sample_element(desc, 0, 22, prec=15), sample_element(desc, 2, 23)
        x = s * t
        cases = [
            (_sub_mul(x, s, t), x - s * t),
            (_mul_add(s, t, -x), s * t + -x),
            (_dot([s, w, x], [t, desc.zero(), -desc.one()]), plain_dot([s, w, x], [t, desc.zero(), -desc.one()])),
            (poly_eval([-x, t], s), plain_horner([-x, t], s)),
        ]
        for got, want in cases:
            assert got.is_zero_at_prec() and not got.is_exact_zero()
            assert bits(got) == bits(want)
        # exact operands cancel to an exact zero
        two = desc.from_int(2, INF)
        assert _sub_mul(desc.from_int(6, INF), two, desc.from_int(3, INF)).is_exact_zero()


def test_subspace_equality_and_the_zero_subspace(q3):
    one, zero = q3.from_int(1, INF), q3.zero()
    x_axis = Subspace.from_vectors(q3, 2, [(one, zero)])
    y_axis = Subspace.from_vectors(q3, 2, [(zero, one)])
    assert x_axis != y_axis and x_axis.pivots != y_axis.pivots
    assert x_axis.__eq__(1) is NotImplemented
    nothing = Subspace.from_vectors(q3, 2, [])
    assert nothing.dim == 0 and nothing.annihilator() == Subspace.full(q3, 2)


def test_subspace_image(q3):
    swap = mat([[q3.zero(), q3.from_int(1, INF)], [q3.from_int(1, INF), q3.zero()]])
    x_axis = Subspace.from_vectors(q3, 2, [(q3.from_int(1, INF), q3.zero())])
    assert x_axis.image(swap) == Subspace.from_vectors(q3, 2, [(q3.zero(), q3.from_int(1, INF))])
    assert Subspace.full(q3, 2).image(swap) == Subspace.full(q3, 2)
