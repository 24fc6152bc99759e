"""Spectral splitting of the Frobenius cycle and stable-submodule search.

Proper nonzero submodules of a slot module are line or plane bundles that
are stable under every transition and every slot operator.  Stability under
the full cycle pins the slot-0 fiber to a sum of cycle eigenspaces, so the
search reduces to splitting the cycle's characteristic polynomial over the
coefficient field and propagating candidates through the slots.

Ranks up to 3 are supported.  A scalar cycle with vanishing slot operators
yields an infinite family of stable lines, reported as LineBundleFamily so
callers can treat the family symbolically.
"""
from __future__ import annotations

import itertools

from .errors import PhinError, RootLiftingError, UnsupportedEnumeration
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    charpoly,
    identity,
    inv,
    is_zero_matrix,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    restrict_operator,
    right_kernel,
    trace,
)
from .modules import PhiNModule, frobenius_composite
from .padic import FieldElement, roots_in_field
from .record import frozen


@frozen
class LineBundleFamily:
    """Marker: the cycle is scalar and all slot operators vanish, so every
    line bundle obtained by transition transport is a stable submodule."""

    value: FieldElement


@frozen(eq=False)
class StableSubmodule:
    rank: int
    slot_spaces: tuple[Subspace, ...]
    module: PhiNModule


def cycle_roots(m: PhiNModule) -> list[FieldElement]:
    """Eigenvalues of the full Frobenius cycle that lie in the coefficient
    field, assuming they are simple; RootLiftingError propagates otherwise."""
    return roots_in_field(charpoly(frobenius_composite(m)))


def _scaled_identity(desc, d, lam):
    return mat_scale(lam, identity(desc, d))


def eigenline(a: Matrix, lam: FieldElement, desc, error: type[PhinError]) -> Vector:
    """Generator of the kernel of a - lam; raises error unless it is a line."""
    kern = right_kernel(mat_sub(a, _scaled_identity(desc, len(a), lam)), desc)
    if len(kern) != 1:
        raise error("cycle eigenspace is not a line")
    return kern[0]


def _deflate(coeffs, lam):
    """Divide an ascending-coefficient monic polynomial by (T - lam)."""
    desc_coeffs = list(reversed(coeffs))
    out = [desc_coeffs[0]]
    for c in desc_coeffs[1:-1]:
        out.append(c + lam * out[-1])
    return list(reversed(out))


def _poly_of_matrix(coeffs, a: Matrix) -> Matrix:
    desc = a[0][0].desc
    d = len(a)
    acc = _scaled_identity(desc, d, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = mat_mul(acc, a)
        acc = tuple(
            tuple(x + (c if i == j else desc.zero()) for j, x in enumerate(r))
            for i, r in enumerate(acc)
        )
    return acc


def propagate_space(m: PhiNModule, space0: Subspace) -> tuple[Subspace, ...] | None:
    f = m.shape.f
    spaces = [space0]
    for i in range(f - 1):
        img = Subspace.from_vectors(
            m.desc, m.rank, [mat_vec(m.phi[i], g) for g in spaces[-1].gens]
        )
        if img.dim != space0.dim:
            return None
        spaces.append(img)
    back = Subspace.from_vectors(
        m.desc, m.rank, [mat_vec(m.phi[f - 1], g) for g in spaces[-1].gens]
    )
    if back != space0:
        return None
    return tuple(spaces)


def _try_bundle(m: PhiNModule, space0: Subspace) -> StableSubmodule | None:
    spaces = propagate_space(m, space0)
    if spaces is None:
        return None
    f = m.shape.f
    for i in range(f):
        for g in spaces[i].gens:
            if not spaces[i].contains_vector(mat_vec(m.nmat[i], g)):
                return None
    phi_r, n_r = [], []
    for i in range(f):
        pm = restrict_operator(m.phi[i], spaces[i].gens, spaces[(i + 1) % f].gens, m.desc)
        nm = restrict_operator(m.nmat[i], spaces[i].gens, spaces[i].gens, m.desc)
        if pm is None or nm is None:
            return None
        phi_r.append(pm)
        n_r.append(nm)
    sub = PhiNModule(m.desc, m.shape, space0.dim, tuple(phi_r), tuple(n_r))
    return StableSubmodule(space0.dim, spaces, sub)


def pull_to_slot_zero(m: PhiNModule, v: Vector, slot: int) -> Vector:
    """Carry a slot vector back to slot 0 through the inverse transitions."""
    w = v
    for i in range(slot - 1, -1, -1):
        w = mat_vec(inv(m.phi[i]), w)
    return w


def enumerate_submodules(
    m: PhiNModule,
) -> tuple[list[StableSubmodule], LineBundleFamily | None]:
    """All proper nonzero stable submodules, plus an optional line family.

    Raises UnsupportedEnumeration when the rank exceeds 3 or the cycle
    spectrum cannot be split over the coefficient field.
    """
    d = m.rank
    if d > 3:
        raise UnsupportedEnumeration("submodule enumeration is implemented through rank 3")
    if d == 1:
        return [], None
    a = frobenius_composite(m)
    desc = m.desc
    cp = charpoly(a)
    line_vecs: list[Vector] = []
    planes: list[Subspace] = []
    try:
        roots = roots_in_field(cp)
    except RootLiftingError:
        if d != 2:
            raise UnsupportedEnumeration(
                "repeated cycle eigenvalues are handled only in rank 2"
            ) from None
        lam = trace(a) / 2
        b = mat_sub(a, _scaled_identity(desc, d, lam))
        if is_zero_matrix(b):
            if all(is_zero_matrix(nm) for nm in m.nmat):
                return [], LineBundleFamily(lam)
            slot = next(i for i, nm in enumerate(m.nmat) if not is_zero_matrix(nm))
            kern = right_kernel(m.nmat[slot], desc)
            if len(kern) != 1:
                raise UnsupportedEnumeration("slot operator kernel is not a line")
            line_vecs = [pull_to_slot_zero(m, kern[0], slot)]
        elif is_zero_matrix(mat_mul(b, b)):
            kern = right_kernel(b, desc)
            if len(kern) != 1:
                raise UnsupportedEnumeration("cannot separate the cycle kernel at this precision")
            line_vecs = [kern[0]]
        else:
            raise UnsupportedEnumeration("cycle spectrum does not split at this precision") from None
    else:
        if (d == 2 and len(roots) == 1) or (d == 3 and len(roots) == 2):
            raise UnsupportedEnumeration("inconsistent root count for the cycle")
        line_vecs = [eigenline(a, lam, desc, UnsupportedEnumeration) for lam in roots]
        if d == 3 and len(roots) == 1:
            quad = _deflate(cp, roots[0])
            kern = right_kernel(_poly_of_matrix(quad, a), desc)
            if len(kern) != 2:
                raise UnsupportedEnumeration("complementary stable plane is not certified")
            planes.append(Subspace.from_vectors(desc, 3, kern))
    subs: list[StableSubmodule] = []
    for v in line_vecs:
        cand = _try_bundle(m, Subspace.from_vectors(desc, d, [v]))
        if cand is not None:
            subs.append(cand)
    if d == 3:
        for va, vb in itertools.combinations(line_vecs, 2):
            cand = _try_bundle(m, Subspace.from_vectors(desc, 3, [va, vb]))
            if cand is not None:
                subs.append(cand)
        for plane in planes:
            cand = _try_bundle(m, plane)
            if cand is not None:
                subs.append(cand)
    return subs, None
