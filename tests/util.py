"""Shared test helpers: seeded sampling of elements and invertible matrices,
random basis transport of a (module, filtration) pair, the benchmark's input
generator, reference routes to End0, to element construction, to
equality, to cycle roots, to a line's jump and to a stable submodule's
Newton number, the kernel flag of a slot operator, a matrix with entries
zero only at their floors, seeded loose entries, the scalar-cycle module of
a line family, exact lifts of matrices and modules, and small views of
package data that only the tests need."""
from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from phinmod.filtration import Filtration, SigmaSteps, dual_filtration, restrict_steps, tensor_filtration
from phinmod.linalg import (
    Matrix,
    Subspace,
    Vector,
    charpoly,
    identity,
    inv,
    mat,
    mat_mul,
    mat_vec,
    right_kernel,
    solve_columns,
    transpose,
)
from phinmod.modules import PhiNModule, dual_module, end0_basis, newton_number, tensor_module
from phinmod.errors import ValidationError
from phinmod.padic import INF, FieldElement, LocalFieldDesc, _ceil_div, _times_monomial, _vp, make_element, roots_in_field


def sample_element(desc: LocalFieldDesc, valuation, seed: int, prec=None) -> FieldElement:
    """Deterministically sample an element with exactly the stated valuation.

    The unit part has uniformly random capped mantissa with a forced nonzero
    residue, then the result is scaled by the right power of p and pi.
    """
    v = Fraction(valuation)
    n = v * desc.e_l
    if n.denominator != 1:
        raise ValueError(f"valuation {v} is not a multiple of 1/{desc.e_l}")
    rng = random.Random(seed)
    k = desc._digits(prec)
    cap = desc.p ** _ceil_div(k, desc.e_l)
    mant = [rng.randrange(cap) for _ in range(desc.degree)]
    mant[0] = rng.randrange(1, desc.p) + desc.p * rng.randrange(cap // desc.p)
    return _times_monomial(make_element(desc, mant, 0, k), int(n))


def sample_unit(desc: LocalFieldDesc, seed: int, prec=None) -> FieldElement:
    return sample_element(desc, 0, seed, prec)


def sample_invertible(desc: LocalFieldDesc, n: int, seed: int, shears: int | None = None) -> Matrix:
    """Deterministic integral matrix with unit determinant, built from random
    shears, swaps, and unit row scalings.  Its inverse is integral too, so
    basis transport does not erode precision floors."""
    rng = random.Random(seed)
    rows = [list(r) for r in identity(desc, n)]
    count = shears if shears is not None else 3 * n + 2
    for _ in range(count):
        op = rng.randrange(3) if n > 1 else 2
        if op == 0:
            i, j = rng.sample(range(n), 2)
            c = desc.from_int(rng.randrange(-9, 10), INF)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif op == 1:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = rng.randrange(n)
            u = desc.from_int(rng.randrange(1, desc.p) + desc.p * rng.randrange(7), INF)
            rows[i] = [u * x for x in rows[i]]
    return mat(rows)


def unram_gen(desc: LocalFieldDesc, prec=None) -> FieldElement:
    """theta, the root of the unramified step's polynomial."""
    if desc.f_l == 1:
        # theta is the negated root of the degree-one polynomial
        mant = desc._monomial_mant(0, -desc.unram_poly[0])
    else:
        mant = desc._monomial_mant(1, 1)
    return make_element(desc, mant, 0, desc._digits(prec))


def map_to_vec(x: Matrix) -> Vector:
    """Flatten a d2 x d1 matrix into the coordinates of the hom module
    tensor_module(dual_module(a), b): the entry in row i, column j lands at
    index j*d2 + i."""
    d2, d1 = len(x), len(x[0])
    return tuple(x[i][j] for j in range(d1) for i in range(d2))


def vec_to_map(v: Vector, d1: int, d2: int) -> Matrix:
    """Inverse of map_to_vec: hom coordinates back to a d2 x d1 matrix."""
    return tuple(tuple(v[j * d2 + i] for j in range(d1)) for i in range(d2))


def transport(mod: PhiNModule, fil: Filtration, seed: int):
    """Conjugate by one random invertible matrix per slot and push the flag."""
    desc, shape, r = mod.desc, mod.shape, mod.rank
    f = shape.f
    gs = [sample_invertible(desc, r, seed + 101 * i) for i in range(f)]
    gs_inv = [inv(g) for g in gs]
    phi = tuple(
        mat_mul(gs[(i + 1) % f], mat_mul(mod.phi[i], gs_inv[i])) for i in range(f)
    )
    nmat = tuple(mat_mul(gs[i], mat_mul(mod.nmat[i], gs_inv[i])) for i in range(f))
    moved = PhiNModule(desc, shape, r, phi, nmat)
    steps = []
    for (i, j) in shape.sigmas():
        sig = fil.sigma_steps(i, j)
        steps.append(
            tuple(
                (jump, Subspace.from_vectors(desc, r, [mat_vec(gs[i], g) for g in v.gens]))
                for jump, v in sig
            )
        )
    return moved, Filtration(desc, shape, r, tuple(steps))


def bench_gen():
    """bench/gen.py, the generator of every benchmark input, as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def end0_via_hom(mod: PhiNModule, fil: Filtration):
    """End0 and its filtration the long way round, for comparison with
    monodromy.end0_with_filtration: the rank d*d hom module's operators and
    the internal-hom filtration, each restricted onto the span of
    end0_basis by solves on that basis."""
    desc, d = mod.desc, mod.rank
    basis = end0_basis(desc, d)
    h = tensor_module(dual_module(mod), mod)

    def restrict(op: Matrix) -> Matrix:
        return transpose([solve_columns(basis, mat_vec(op, g)) for g in basis])

    e0 = PhiNModule(desc, mod.shape, len(basis), tuple(map(restrict, h.phi)), tuple(map(restrict, h.nmat)))
    hfil = tensor_filtration(dual_filtration(fil), fil)
    span = Subspace.from_vectors(desc, d * d, basis)
    # restrict_steps writes pieces on the span's echelon generators; column
    # j of the change of basis holds generator j on end0_basis
    change = transpose([solve_columns(basis, g) for g in span.gens])
    steps = tuple(
        tuple(
            (jump, Subspace.from_vectors(desc, len(basis), [mat_vec(change, g) for g in piece.gens]))
            for jump, piece in sig
        )
        for sig in restrict_steps(hfil.steps, [span] * len(hfil.steps))
    )
    return e0, Filtration(desc, mod.shape, len(basis), steps)


def jump_at(sig: SigmaSteps, space: Subspace) -> int:
    """The Hodge number of a line in one embedding the long way round, for
    comparison with the family certificates: the largest jump whose step
    contains the line by Subspace.contains, every residual zero at the
    working precision counted as containment.  Exact inputs only."""
    best = sig[0][0]
    for j, v in sig:
        if v.contains(space):
            best = j
    return best


def newton_by_restriction(m: PhiNModule, sub) -> Fraction:
    """A stable submodule's Newton number the long way round, for comparison
    with the spectrum rule of enumerate_submodules: every transition and
    slot operator restricted to the submodule's slot spaces (column j holds
    the target space's coordinates of the image of generator j), the
    restricted module built and its newton_number taken.  Inputs known to
    the working precision only."""
    f, spaces = m.shape.f, sub.slot_spaces

    def restrict(op: Matrix, src: Subspace, dst: Subspace) -> Matrix:
        return transpose([dst.coords(mat_vec(op, g)) for g in src.gens])

    phi = tuple(restrict(m.phi[i], spaces[i], spaces[(i + 1) % f]) for i in range(f))
    nmat = tuple(restrict(m.nmat[i], spaces[i], spaces[i]) for i in range(f))
    return newton_number(PhiNModule(m.desc, m.shape, sub.rank, phi, nmat))


def n_kernel_flag(m: PhiNModule) -> tuple[Subspace, ...]:
    """Proper kernel flag of the slot-zero operator: ker N, ker N^2, ...
    stopping before the full space.  Empty for a vanishing operator."""
    flag: list[Subspace] = []
    power = m.nmat[0]
    while True:
        ker = Subspace.from_vectors(m.desc, m.rank, right_kernel(power))
        if ker.dim >= m.rank or (flag and ker.dim == flag[-1].dim):
            break
        flag.append(ker)
        power = mat_mul(m.nmat[0], power)
    return tuple(flag)


def element_by_terms(desc: LocalFieldDesc, coords, prec=None) -> FieldElement:
    """LocalFieldDesc.element the long way round, for comparison: each
    nonzero coordinate as its own element at the requested floor, times its
    exact basis monomial, the terms summed with +."""
    rows = [list(r) if isinstance(r, (tuple, list)) else [r] for r in coords]
    if len(rows) != desc.e_l or any(len(r) != desc.f_l for r in rows):
        raise ValidationError("coordinate array must be e_l rows of f_l entries")
    p, k = desc.p, desc._digits(prec)
    out = desc.zero()
    for a, row in enumerate(rows):
        for b, c in enumerate(row):
            c = Fraction(c)
            if c == 0:
                continue
            num, den = c.numerator, c.denominator
            s = _vp(den, p) if den % p == 0 else 0
            den //= p**s
            if den != 1:
                if k is INF:
                    raise ValidationError("cannot invert a denominator at infinite precision")
                num = num * pow(den, -1, p ** max(1, _ceil_div(k, desc.e_l) + s + 1))
            term = make_element(desc, desc._monomial_mant(0, num), s, k)
            mono = make_element(desc, desc._monomial_mant(a * desc.f_l + b, 1), 0, INF)
            out = out + term * mono
    return out


def equal_by_reduction(x: FieldElement, y: FieldElement) -> bool:
    """FieldElement equality the long way round, for comparison: both
    operands reduced again at the lower floor, then their bits compared."""
    k = min(x._k, y._k)
    a = make_element(x.desc, x.mant, x.shift, k)
    b = make_element(x.desc, y.mant, y.shift, k)
    return a.mant == b.mant and a.shift == b.shift


def roots_by_charpoly(cycle: Matrix) -> list[FieldElement]:
    """eigen.cycle_roots the long way round, for comparison: the roots of
    the characteristic polynomial for every cycle, a diagonal one too."""
    return roots_in_field(charpoly(cycle))


def loose_q3_matrix(q3: LocalFieldDesc) -> Matrix:
    """[[1/3 + O(3^2), O(3^2)], [O(3^3), 1 + O(3^7)]] over Q3: invertible,
    with two entries that are zero only at their floors."""
    loose = [make_element(q3, [0], 0, k) for k in (2, 3)]
    return mat([[q3.from_rational(Fraction(1, 3), 2), loose[0]], [loose[1], q3.from_int(1, 7)]])


def loose_entry(rng: random.Random, desc: LocalFieldDesc, digits=None, loose_zeros=1.0) -> FieldElement:
    """±u·3^v with v < 3 and u in {1, 2, 4, 5, 7, 8}, a quarter of the
    draws zeros.  With digits = (lo, hi) a nonzero entry is known to lo to
    hi pi-digits past its valuation, and a share loose_zeros of the zeros
    are O(pi^k) for k = 1, 2, 3 (a share below one takes one more draw per
    zero); with digits None every entry is exact."""
    if rng.random() < 0.25:
        if digits is not None and (loose_zeros == 1 or rng.random() < loose_zeros):
            return make_element(desc, (0,) * desc.degree, 0, rng.randint(1, 3))
        return desc.zero()
    v = rng.randrange(3)
    c = rng.choice((1, -1)) * rng.choice((1, 2, 4, 5, 7, 8)) * 3**v
    return desc.from_int(c, INF if digits is None else Fraction(desc.e_l * v + rng.randint(*digits), desc.e_l))


def scalar_cycle_module(desc: LocalFieldDesc, shape, lam: int) -> PhiNModule:
    """Rank 2 with the cycle lam on the wrap transition, the identity
    elsewhere and N = 0: its stable lines are a LineBundleFamily."""
    one, zero, scalar = desc.from_int(1, INF), desc.zero(), desc.from_int(lam, INF)
    phi = (mat([[one, zero], [zero, one]]),) * (shape.f - 1) + (mat([[scalar, zero], [zero, scalar]]),)
    return PhiNModule(desc, shape, 2, phi, (mat([[zero, zero], [zero, zero]]),) * shape.f)


def exact_lift(a: Matrix, rng: random.Random) -> Matrix:
    """An exact matrix equal to a at every entry's floor: an entry known to
    the floor k gets a random multiple of pi^k added, an exact one stays."""

    def lift(x: FieldElement) -> FieldElement:
        if x._k is INF:
            return x
        exact = make_element(x.desc, list(x.mant), x.shift, INF)
        return exact + _times_monomial(x.desc.from_int(rng.randrange(1, 99), INF), x._k)

    return mat([[lift(x) for x in r] for r in a])


def exact_lift_module(mod: PhiNModule, fil: Filtration, rng: random.Random):
    """An exact lift of a (module, filtration) pair: exact_lift on every
    transition, slot operator and step's generator rows."""
    lifted = PhiNModule(
        mod.desc, mod.shape, mod.rank, tuple(exact_lift(a, rng) for a in mod.phi), tuple(exact_lift(a, rng) for a in mod.nmat)
    )
    steps = tuple(
        tuple((j, Subspace.from_vectors(fil.desc, fil.rank, exact_lift(v.gens, rng))) for j, v in sig) for sig in fil.steps
    )
    return lifted, Filtration(fil.desc, fil.shape, fil.rank, steps)


def agrees_with_lift(got: Matrix, lifted: Matrix) -> bool:
    """got equals lifted entrywise at got's floors, and holds no exact zero
    where lifted is certified nonzero."""
    return all(
        x == y and not (x.is_exact_zero() and not y.is_zero_at_prec())
        for rg, rl in zip(got, lifted)
        for x, y in zip(rg, rl)
    )
