"""Isomorphism testing for filtered slot modules.

One rule serves every rank.  The two Frobenius cycles must have the same
characteristic polynomial, else the spectra differ; its roots must be simple
and lie in the coefficient field.  One root list serves the pair in either
order: the diagonal of a cycle that is its own spectrum (when both are,
either gives the same permutation frames), else the roots of the shared
polynomial, each coefficient at its higher floor.  Both modules take their
eigenframes at those roots, propagated through the transitions, which turns
every transition into the identity except the wrap, the eigenvalue diagonal;
any isomorphism is then a single diagonal scaling matrix.  A slot operator
is matched entry by entry, and a filtration step through the reduced echelon
form of its eigen coordinates, where the scaling keeps the pivots and
multiplies the entry (c, pivot) by t_c / t_pivot.  Both reduce to a
multiplicative consistency problem on entrywise ratios.  The scaling keeps
zeros, so zero patterns must agree; a difference certifies a failing verdict
only where one side holds the exact zero, and one that rests on zeros known
to their floors alone makes the verdict PrecisionLoss.
"""
from __future__ import annotations

from .eigen import _spectrum_on_diagonal, cycle_roots, eigenline
from .errors import PrecisionLoss, RootLiftingError, UnsupportedEnumeration, ValidationError
from .filtration import Filtration, _check_fits
from .linalg import Matrix, Subspace, charpoly, inv, mat_mul, transpose
from .modules import PhiNModule, frobenius_composite
from .padic import FieldElement, roots_in_field
from .record import frozen


@frozen
class IsoVerdict:
    isomorphic: bool
    reason: str | None = None
    scaling: tuple[FieldElement, ...] | None = None


def _eigen_frames(m: PhiNModule, a: Matrix, roots: list[FieldElement]) -> list[Matrix]:
    """The eigenframe of the cycle a at the given roots, propagated through
    the transitions to one frame per slot.  The roots are certified
    distinct, so an eigenspace that is not a line is lost precision."""
    frames = [transpose([eigenline(a, lam, PrecisionLoss) for lam in roots])]
    for i in range(m.shape.f - 1):
        frames.append(mat_mul(m.phi[i], frames[-1]))
    return frames


class _RatioGraph:
    """Union-find with multiplicative potentials t_a / t_b."""

    def __init__(self, n: int, one: FieldElement):
        self.parent = list(range(n))
        self.ratio = [one for _ in range(n)]  # t_node / t_parent
        self.one = one

    def find(self, a: int) -> tuple[int, FieldElement]:
        if self.parent[a] == a:
            return a, self.one
        root, r = self.find(self.parent[a])
        self.parent[a] = root
        self.ratio[a] = self.ratio[a] * r
        return root, self.ratio[a]

    def relate(self, a: int, b: int, c: FieldElement) -> bool:
        """Impose t_a / t_b = c; False when inconsistent."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa == pb * c
        self.parent[ra] = rb
        self.ratio[ra] = pa.inverse() * c * pb
        return True

    def solution(self, n: int):
        return tuple(self.find(a)[1] for a in range(n))


def _zeros_differ(x1: FieldElement, x2: FieldElement) -> bool | None:
    """Whether exactly one of x1, x2 vanishes, which a diagonal scaling rules
    out: True when the vanishing one is the exact zero, None when it is zero
    only at precision, so that the working precision cannot tell."""
    z1 = x1.is_zero_at_prec()
    if z1 == x2.is_zero_at_prec():
        return False
    return True if (x1 if z1 else x2).is_exact_zero() else None


def _align(graph, e1: Subspace, e2: Subspace) -> bool | None:
    """Impose that the diagonal scaling carries e1 onto e2, both in reduced
    echelon form.  The scaling keeps every row's zero pattern, and so its
    pivot, and multiplies the entry (c, pivot) by t_c / t_pivot: the
    patterns must agree and every other nonzero entry fixes one ratio.
    None when the patterns differ only where a zero is one at precision."""
    differ = [_zeros_differ(x1, x2) for g1, g2 in zip(e1.gens, e2.gens) for x1, x2 in zip(g1, g2)]
    if any(differ):
        return False
    if None in differ:
        return None
    return all(
        graph.relate(c, pc, x2 / x1)
        for g1, g2, pc in zip(e1.gens, e2.gens, e1.pivots)
        for c, (x1, x2) in enumerate(zip(g1, g2))
        if c != pc and not x1.is_zero_at_prec()
    )


def is_isomorphic(
    m1: PhiNModule, f1: Filtration, m2: PhiNModule, f2: Filtration
) -> IsoVerdict:
    if m1.desc is not m2.desc or m1.shape != m2.shape:
        raise ValidationError("modules live over different bases")
    _check_fits(m1, f1)
    _check_fits(m2, f2)
    if m1.rank != m2.rank:
        return IsoVerdict(False, "ranks differ")
    d = m1.rank
    a1 = frobenius_composite(m1)
    a2 = frobenius_composite(m2)
    cp1, cp2 = charpoly(a1), charpoly(a2)
    if cp1 != cp2:
        return IsoVerdict(False, "cycle spectra differ")
    diagonal = [a for a in (a1, a2) if _spectrum_on_diagonal(a)]
    shared = [x if x._k >= y._k else y for x, y in zip(cp1, cp2)]
    try:
        roots = cycle_roots(diagonal[0]) if diagonal else roots_in_field(shared)
    except RootLiftingError as exc:
        raise UnsupportedEnumeration("cycle spectrum does not split simply") from exc
    if len(roots) != d:
        raise UnsupportedEnumeration("cycle spectrum does not split simply")
    roots.sort(key=lambda x: (x._certified_val(), x.mant, x.shift))
    frames1 = _eigen_frames(m1, a1, roots)
    frames2 = _eigen_frames(m2, a2, roots)

    inv1 = [inv(w) for w in frames1]
    inv2 = [inv(w) for w in frames2]
    graph = _RatioGraph(d, m1.desc.from_int(1))
    # a zero pattern that differs only at precision decides nothing; it
    # turns the verdict into PrecisionLoss unless a certified one follows
    loose = False

    for i in range(m1.shape.f):
        n1 = mat_mul(inv1[i], mat_mul(m1.nmat[i], frames1[i]))
        n2 = mat_mul(inv2[i], mat_mul(m2.nmat[i], frames2[i]))
        for a in range(d):
            for b in range(d):
                differ = _zeros_differ(n1[a][b], n2[a][b])
                if differ:
                    return IsoVerdict(False, "slot operator supports differ")
                if differ is None:
                    loose = True
                elif not n1[a][b].is_zero_at_prec():
                    if not graph.relate(a, b, n2[a][b] / n1[a][b]):
                        return IsoVerdict(False, "slot operator ratios are inconsistent")

    for (i, j) in m1.shape.sigmas():
        s1 = f1.sigma_steps(i, j)
        s2 = f2.sigma_steps(i, j)
        if [jmp for jmp, _ in s1] != [jmp for jmp, _ in s2]:
            return IsoVerdict(False, "filtration jumps differ")
        if [v.dim for _, v in s1] != [v.dim for _, v in s2]:
            return IsoVerdict(False, "filtration step dimensions differ")
        for (_, v1), (_, v2) in zip(s1, s2):
            if v1.dim == d:
                continue
            aligned = _align(graph, v1.image(inv1[i]), v2.image(inv2[i]))
            if aligned is None:
                loose = True
            elif not aligned:
                kind = "lines" if v1.dim == 1 else "hyperplanes" if v1.dim == d - 1 else "steps"
                return IsoVerdict(False, f"filtration {kind} cannot be aligned")
    if loose:
        raise PrecisionLoss("eigen coordinates vanish at precision only where the other module's do not")
    return IsoVerdict(True, None, graph.solution(d))
