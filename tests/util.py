"""Shared test helpers: seeded sampling of elements and invertible matrices,
random basis transport of a (module, filtration) pair, the benchmark's input
generator, a reference route to End0, and small views of package data that
only the tests need."""
from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from phinmod.filtration import Filtration, dual_filtration, restrict_steps, tensor_filtration
from phinmod.linalg import (
    Matrix,
    Subspace,
    Vector,
    identity,
    inv,
    mat,
    mat_mul,
    mat_vec,
    solve_columns,
    transpose,
)
from phinmod.modules import PhiNModule, end0_basis, hom_module
from phinmod.padic import INF, FieldElement, LocalFieldDesc, _ceil_div, _times_monomial, make_element


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


def vec_to_map(v: Vector, d1: int, d2: int) -> Matrix:
    """Inverse of modules.map_to_vec: hom coordinates back to a d2 x d1 matrix."""
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
    h = hom_module(mod, mod)

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
