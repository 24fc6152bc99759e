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

from .errors import PhinError, PrecisionLoss, RootLiftingError, UnsupportedEnumeration
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    charpoly,
    inv,
    is_zero_matrix,
    mat_mul,
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


def cycle_roots(cycle: Matrix) -> list[FieldElement]:
    """Eigenvalues of the full Frobenius cycle (frobenius_composite) that lie
    in the coefficient field, assuming they are simple; RootLiftingError
    propagates otherwise."""
    return roots_in_field(charpoly(cycle))


def _minus_scalar(a: Matrix, lam: FieldElement) -> Matrix:
    """a - lam*I, lam subtracted on the diagonal only."""
    return tuple(tuple(x - lam if i == j else x for j, x in enumerate(r)) for i, r in enumerate(a))


def eigenline(a: Matrix, lam: FieldElement, error: type[PhinError]) -> Vector:
    """Generator of the kernel of a - lam; raises error unless it is a line."""
    kern = right_kernel(_minus_scalar(a, lam))
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
    zero = desc.zero()
    acc = tuple(tuple(coeffs[-1] if i == j else zero for j in range(len(a))) for i in range(len(a)))
    for c in reversed(coeffs[:-1]):
        acc = tuple(tuple(x + c if i == j else x for j, x in enumerate(r)) for i, r in enumerate(mat_mul(acc, a)))
    return acc


def propagate_space(m: PhiNModule, space0: Subspace) -> tuple[Subspace, ...] | None:
    """The slot spaces of the bundle through space0 at slot 0: its images
    under phi[0], phi[0..1], ..., one per slot.  None unless the full cycle
    carries space0 back onto itself at the working precision (a transition
    that drops the dimension cannot)."""
    spaces = [space0]
    for a in m.phi:
        spaces.append(spaces[-1].image(a))
    return tuple(spaces[:-1]) if spaces[-1] == space0 else None


def _try_bundle(m: PhiNModule, space0: Subspace) -> StableSubmodule | None:
    """The submodule through space0, a sum of cycle eigenspaces, or None
    when a slot operator does not keep its slot space.  The full cycle maps
    each of its eigenspaces onto itself, so a bundle that does not close up
    or a transition that does not restrict means lost precision."""
    spaces = propagate_space(m, space0)
    if spaces is None:
        raise PrecisionLoss("cycle eigenspace does not close up under the transitions")
    f = m.shape.f
    phi_r = [restrict_operator(m.phi[i], spaces[i], spaces[(i + 1) % f]) for i in range(f)]
    if None in phi_r:
        raise PrecisionLoss("transition does not restrict to the propagated eigenspaces")
    n_r = [restrict_operator(m.nmat[i], spaces[i], spaces[i]) for i in range(f)]
    if None in n_r:
        return None
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
        b = _minus_scalar(a, lam)
        if is_zero_matrix(b):
            if all(is_zero_matrix(nm) for nm in m.nmat):
                return [], LineBundleFamily(lam)
            slot = next(i for i, nm in enumerate(m.nmat) if not is_zero_matrix(nm))
            kern = right_kernel(m.nmat[slot])
            if len(kern) != 1:
                raise UnsupportedEnumeration("slot operator kernel is not a line")
            line_vecs = [pull_to_slot_zero(m, kern[0], slot)]
        elif is_zero_matrix(mat_mul(b, b)):
            kern = right_kernel(b)
            if len(kern) != 1:
                raise UnsupportedEnumeration("cannot separate the cycle kernel at this precision")
            line_vecs = [kern[0]]
        else:
            raise UnsupportedEnumeration("cycle spectrum does not split at this precision") from None
    else:
        line_vecs = [eigenline(a, lam, UnsupportedEnumeration) for lam in roots]
        if d == 3 and len(roots) == 1:
            quad = _deflate(cp, roots[0])
            kern = right_kernel(_poly_of_matrix(quad, a))
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
