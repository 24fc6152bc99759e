"""Spectral splitting of the Frobenius cycle and stable-submodule search.

Proper nonzero submodules of a slot module are line or plane bundles that
are stable under every transition and every slot operator.  Stability under
the full cycle pins the slot-0 fiber to a sum of cycle eigenspaces, so the
search reduces to splitting the cycle's characteristic polynomial over the
coefficient field and propagating candidates through the slots.  Each
piece's Newton number is read off the roots that span it.

Ranks up to 3 are supported.  A scalar cycle with vanishing slot operators
yields an infinite family of stable lines, reported as LineBundleFamily so
callers can treat the family symbolically.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

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
    right_kernel,
    trace,
    transpose,
)
from .modules import PhiNModule, frobenius_composite, newton_number
from .padic import INF, FieldElement, roots_in_field
from .record import frozen


@frozen
class LineBundleFamily:
    """Marker: the cycle is scalar and all slot operators vanish, so every
    line bundle obtained by transition transport is a stable submodule."""

    value: FieldElement


@frozen(eq=False)
class StableSubmodule:
    """A proper stable sub-(phi, N)-module D': its rank, its space at each
    slot, and its Newton number t_N(D'), read off the cycle's spectrum by
    enumerate_submodules."""

    rank: int
    slot_spaces: tuple[Subspace, ...]
    t_newton: Fraction


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


def propagate_space(m: PhiNModule, space0: Subspace, what: str) -> tuple[Subspace, ...] | None:
    """The slot spaces of the bundle through space0 at slot 0: its images
    under phi[0], phi[0..1], ..., one per slot, or None as soon as a slot's
    N moves its slot space, before that space is carried further or
    compared (on a scalar family N vanishes, so every line passes).  The
    full cycle carries each sum of its eigenspaces back onto itself, so a
    space0 it does not carry back at the working precision is lost
    precision: PrecisionLoss, naming what space0 is.  A slot space that
    has lost a dimension (rref drops an image with no certified digit)
    raises it there, before N is tested on what is left."""
    spaces = [space0]
    for i, a in enumerate(m.phi):
        s = spaces[i]
        if s.dim != space0.dim:
            raise PrecisionLoss(f"{what} does not close up under the transitions")
        if not all(s.contains_vector(mat_vec(m.nmat[i], g)) for g in s.gens):
            return None
        spaces.append(s.image(a))
    if spaces[-1] != space0:
        raise PrecisionLoss(f"{what} does not close up under the transitions")
    return tuple(spaces[:-1])


def _try_bundle(m: PhiNModule, space0: Subspace, t_newton: Fraction) -> StableSubmodule | None:
    """The submodule through space0, a sum of cycle eigenspaces whose
    Newton number is t_newton, or None when some slot's N moves its slot
    space; that is tested slot by slot as space0 is carried round
    (propagate_space), and a slot space that lost a dimension, or a space N
    keeps everywhere that does not close up, raises PrecisionLoss.  Each
    transition image is the next slot space, so the transitions restrict to
    the bundle by construction."""
    spaces = propagate_space(m, space0, "cycle eigenspace")
    return None if spaces is None else StableSubmodule(space0.dim, spaces, t_newton)


def pull_to_slot_zero(m: PhiNModule, v: Vector, slot: int) -> Vector:
    """Carry a slot vector back to slot 0 through the inverse transitions."""
    w = v
    for i in range(slot - 1, -1, -1):
        w = mat_vec(inv(m.phi[i]), w)
    return w


def enumerate_submodules(
    m: PhiNModule,
) -> tuple[list[StableSubmodule], LineBundleFamily | None, Fraction]:
    """All proper nonzero stable submodules, an optional line family, and
    the Newton number t_N(D) of m itself.

    Newton numbers come from the cycle's spectrum: a piece spanned by
    eigenlines takes e times the valuations of their roots, summed, and so
    does m when the cycle splits into d simple roots.  Otherwise t_N(D) is
    newton_number's determinant, the rank-3 plane beside a single root r
    takes t_N(D) - e v(r), and a line of a repeated root t_N(D)/2.

    Raises UnsupportedEnumeration when the rank exceeds 3 or the cycle
    spectrum cannot be split over the coefficient field.
    """
    d = m.rank
    if d > 3:
        raise UnsupportedEnumeration("submodule enumeration is implemented through rank 3")
    if d == 1:
        return [], None, newton_number(m)
    a = frobenius_composite(m)
    desc = m.desc
    # (generators of a slot-0 candidate, its Newton number)
    pieces: list[tuple[list[Vector], Fraction]] = []
    try:
        roots = cycle_roots(a)
    except RootLiftingError:
        t_newton = newton_number(m)
        if d != 2:
            raise UnsupportedEnumeration(
                "repeated cycle eigenvalues are handled only in rank 2"
            ) from None
        lam = trace(a) / 2
        b = _minus_scalar(a, lam)
        if is_zero_matrix(b):
            if all(is_zero_matrix(nm) for nm in m.nmat):
                return [], LineBundleFamily(lam), t_newton
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
        pieces.append((line_vecs, t_newton / 2))
    else:
        weights = [m.shape.e * lam.valuation() for lam in roots]
        t_newton = sum(weights) if len(roots) == d else newton_number(m)
        lines = [([eigenline(a, lam, UnsupportedEnumeration)], w) for lam, w in zip(roots, weights)]
        pieces += lines
        if d == 3:
            pieces += [(va + vb, wa + wb) for (va, wa), (vb, wb) in itertools.combinations(lines, 2)]
            if len(roots) == 1:
                # the stable plane beside a simple root's line is the kernel
                # of the covector that the cycle scales by that root
                covector = eigenline(transpose(a), roots[0], UnsupportedEnumeration)
                pieces.append((right_kernel((covector,)), t_newton - weights[0]))
    subs = [_try_bundle(m, Subspace.from_vectors(desc, d, vecs), t) for vecs, t in pieces]
    return [s for s in subs if s is not None], None, t_newton
