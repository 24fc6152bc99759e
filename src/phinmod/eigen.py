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
    transpose,
)
from .modules import PhiNModule, frobenius_composite
from .padic import INF, FieldElement, roots_in_field
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


def _is_diagonal(a: Matrix) -> bool:
    """True when every off-diagonal entry of a is the exact zero."""
    return all(x.is_exact_zero() for i, r in enumerate(a) for j, x in enumerate(r) if i != j)


def _spectrum_on_diagonal(cycle: Matrix) -> bool:
    """Whether the cycle is diagonal with entries of pairwise distinct certified finite valuations."""
    vals = {r[i]._val() for i, r in enumerate(cycle)} if _is_diagonal(cycle) else {None}
    return len(vals) == len(cycle) and None not in vals and INF not in vals


def cycle_roots(cycle: Matrix) -> list[FieldElement]:
    """Eigenvalues of the full Frobenius cycle (frobenius_composite) that lie
    in the coefficient field, assuming they are simple; RootLiftingError
    propagates otherwise.

    A cycle that _spectrum_on_diagonal accepts gives its entries, largest
    valuation first (the Newton-segment order of roots_in_field), with every
    digit they carry; any other, roots_in_field(charpoly(cycle))."""
    if _spectrum_on_diagonal(cycle):
        return sorted((r[i] for i, r in enumerate(cycle)), key=lambda x: x._val(), reverse=True)
    return roots_in_field(charpoly(cycle))


def _minus_scalar(a: Matrix, lam: FieldElement) -> Matrix:
    """a - lam*I, lam subtracted on the diagonal only."""
    return tuple(tuple(x - lam if i == j else x for j, x in enumerate(r)) for i, r in enumerate(a))


def eigenline(a: Matrix, lam: FieldElement, error: type[PhinError]) -> Vector:
    """Generator of the kernel of a - lam; raises error unless it is a line.
    On a diagonal a the kernel is read off: the unit vector at each entry
    equal to lam at precision, as right_kernel would give it."""
    if _is_diagonal(a):
        one, zero = lam.desc.from_int(1, INF), lam.desc.zero()
        kern = [tuple(one if j == i else zero for j in range(len(a))) for i, r in enumerate(a) if r[i] == lam]
    else:
        kern = right_kernel(_minus_scalar(a, lam))
    if len(kern) != 1:
        raise error("cycle eigenspace is not a line")
    return kern[0]


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
    means lost precision.  A transition that does not restrict counts as
    one, though each image reduces against the echelon form rref built
    from it by the same rule, to a residual zero at precision."""
    spaces = propagate_space(m, space0)
    f = m.shape.f
    phi_r = None if spaces is None else [restrict_operator(m.phi[i], spaces[i], spaces[(i + 1) % f]) for i in range(f)]
    if phi_r is None or None in phi_r:
        raise PrecisionLoss("cycle eigenspace does not close up under the transitions")
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
    line_vecs: list[Vector] = []
    planes: list[Subspace] = []
    try:
        roots = cycle_roots(a)
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
        elif is_zero_matrix(mat_mul(b, b)) and len(kern := right_kernel(b)) == 1:
            # b is nilpotent at precision, and its kernel the one stable line
            line_vecs = kern
        else:
            raise UnsupportedEnumeration("cycle spectrum does not split at this precision") from None
    else:
        line_vecs = [eigenline(a, lam, UnsupportedEnumeration) for lam in roots]
        if d == 3 and len(roots) == 1:
            # the stable plane beside a simple root's line is the kernel of
            # the covector that the cycle scales by that root
            covector = eigenline(transpose(a), roots[0], UnsupportedEnumeration)
            planes.append(Subspace.from_vectors(desc, 3, right_kernel((covector,))))
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
