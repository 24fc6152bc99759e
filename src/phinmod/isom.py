"""Isomorphism testing for filtered slot modules.

Supported regime: rank 1, or a cycle with simple spectrum split over the
coefficient field.  Propagating each eigenframe through the transitions
turns every transition into the identity except the wrap, which becomes the
eigenvalue diagonal; any isomorphism is then a single diagonal scaling
matrix, and matching the slot operators and filtration steps reduces to a
multiplicative consistency problem on entrywise ratios.
"""
from __future__ import annotations


from .eigen import cycle_roots, eigenline
from .errors import RootLiftingError, UnsupportedEnumeration, ValidationError
from .filtration import Filtration
from .linalg import (
    Matrix,
    Vector,
    inv,
    mat_mul,
    transpose,
)
from .modules import PhiNModule, frobenius_composite
from .padic import FieldElement
from .record import frozen


@frozen
class IsoVerdict:
    isomorphic: bool
    reason: str | None = None
    scaling: tuple[FieldElement, ...] | None = None


def _root_key(x: FieldElement):
    flat = tuple((c.numerator, c.denominator) for row in x.coefficients() for c in row)
    return (x._certified_val(), flat)


def _eigen_frames(m: PhiNModule) -> tuple[list[FieldElement], list[Matrix]]:
    """Cycle roots in canonical order and the propagated frame per slot."""
    a = frobenius_composite(m)
    try:
        roots = cycle_roots(a)
    except RootLiftingError as exc:
        raise UnsupportedEnumeration("cycle spectrum does not split simply") from exc
    if len(roots) != m.rank:
        raise UnsupportedEnumeration("cycle spectrum does not split simply")
    roots = sorted(roots, key=_root_key)
    cols = [eigenline(a, lam, m.desc, UnsupportedEnumeration) for lam in roots]
    frames = [transpose(cols)]
    for i in range(m.shape.f - 1):
        frames.append(mat_mul(m.phi[i], frames[-1]))
    return roots, frames


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
        out = []
        for a in range(n):
            _, r = self.find(a)
            out.append(r)
        return tuple(out)


def _zero_pattern(vec) -> tuple[bool, ...]:
    return tuple(x.is_zero_at_prec() for x in vec)


def _line_constraints(graph, v1: Vector, v2: Vector) -> bool:
    """Impose that the diagonal scaling carries the line of v1 to that of v2;
    a hyperplane's covectors transform inversely, so pass them swapped."""
    if _zero_pattern(v1) != _zero_pattern(v2):
        return False
    support = [a for a, x in enumerate(v1) if not x.is_zero_at_prec()]
    base = support[0]
    q_base = v2[base] / v1[base]
    for a in support[1:]:
        if not graph.relate(a, base, (v2[a] / v1[a]) / q_base):
            return False
    return True


def is_isomorphic(
    m1: PhiNModule, f1: Filtration, m2: PhiNModule, f2: Filtration
) -> IsoVerdict:
    if m1.desc is not m2.desc or m1.shape != m2.shape:
        raise ValidationError("modules live over different bases")
    if f1.rank != m1.rank or f2.rank != m2.rank:
        raise ValidationError("filtration rank does not match its module")
    if m1.rank != m2.rank:
        return IsoVerdict(False, "ranks differ")
    d = m1.rank
    desc = m1.desc
    if d == 1:
        a1 = frobenius_composite(m1)[0][0]
        a2 = frobenius_composite(m2)[0][0]
        if a1 != a2:
            return IsoVerdict(False, "cycle scalars differ")
        for s1, s2 in zip(f1.steps, f2.steps):
            if [j for j, _ in s1] != [j for j, _ in s2]:
                return IsoVerdict(False, "filtration jumps differ")
        return IsoVerdict(True, None, (desc.from_int(1),))

    roots1, frames1 = _eigen_frames(m1)
    roots2, frames2 = _eigen_frames(m2)
    for r1, r2 in zip(roots1, roots2):
        if r1 != r2:
            return IsoVerdict(False, "cycle spectra differ")

    inv1 = [inv(w) for w in frames1]
    inv2 = [inv(w) for w in frames2]
    graph = _RatioGraph(d, desc.from_int(1))

    for i in range(m1.shape.f):
        n1 = mat_mul(inv1[i], mat_mul(m1.nmat[i], frames1[i]))
        n2 = mat_mul(inv2[i], mat_mul(m2.nmat[i], frames2[i]))
        for a in range(d):
            for b in range(d):
                if n1[a][b].is_zero_at_prec() != n2[a][b].is_zero_at_prec():
                    return IsoVerdict(False, "slot operator supports differ")
                if not n1[a][b].is_zero_at_prec():
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
            c1 = v1.image(inv1[i])
            c2 = v2.image(inv2[i])
            if v1.dim == 1:
                if not _line_constraints(graph, c1.gens[0], c2.gens[0]):
                    return IsoVerdict(False, "filtration lines cannot be aligned")
            elif v1.dim == d - 1:
                u1 = c1.annihilator().gens[0]
                u2 = c2.annihilator().gens[0]
                if not _line_constraints(graph, u2, u1):
                    return IsoVerdict(False, "filtration hyperplanes cannot be aligned")
            else:
                raise UnsupportedEnumeration(
                    "filtration steps of intermediate dimension are not supported"
                )
    return IsoVerdict(True, None, graph.solution(d))
