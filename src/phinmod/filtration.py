"""Step filtrations over the embedding set and the weak-admissibility test.

Each embedding carries a decreasing exhaustive filtration recorded by its
jump list: pairs (j, V) with strictly increasing integer jumps and strictly
decreasing subspaces, V being the piece in degrees up to and including j,
zero above the last jump, the full space at the first.  The Hodge number
adds jump * (dimension drop) over every embedding; the Newton number of the
module is compared against it globally and on every stable submodule.
"""
from __future__ import annotations

from fractions import Fraction

from .coeff import GaloisShape
from .eigen import (
    LineBundleFamily,
    StableSubmodule,
    enumerate_submodules,
    propagate_space,
    pull_to_slot_zero,
)
from .errors import PrecisionLoss, ValidationError
from .linalg import Subspace, right_kernel, transpose
from .modules import PhiNModule, newton_number
from .padic import LocalFieldDesc
from .record import frozen

SigmaSteps = tuple[tuple[int, Subspace], ...]


@frozen(eq=False)
class Filtration:
    desc: LocalFieldDesc
    shape: GaloisShape
    rank: int
    steps: tuple[SigmaSteps, ...]

    def __post_init__(self):
        if len(self.steps) != self.shape.n:
            raise ValidationError(
                f"need one step list per embedding ({self.shape.n}), got {len(self.steps)}"
            )
        for idx, sig in enumerate(self.steps):
            if not sig:
                raise ValidationError(f"embedding {idx}: empty step list")
            jumps = [j for j, _ in sig]
            if any(not isinstance(j, int) for j in jumps):
                raise ValidationError(f"embedding {idx}: jumps must be integers")
            if any(b <= a for a, b in zip(jumps, jumps[1:])):
                raise ValidationError(f"embedding {idx}: jumps must strictly increase")
            dims = [v.dim for _, v in sig]
            if dims[0] != self.rank:
                raise ValidationError(f"embedding {idx}: first step must be the full space")
            if any(b >= a for a, b in zip(dims, dims[1:])):
                raise ValidationError(f"embedding {idx}: step dimensions must strictly decrease")
            if dims[-1] == 0:
                raise ValidationError(f"embedding {idx}: trailing zero step must be dropped")
            for (_, big), (_, small) in zip(sig, sig[1:]):
                if not big.contains(small):
                    raise ValidationError(f"embedding {idx}: steps must be nested")
            for _, v in sig:
                if v.ambient != self.rank:
                    raise ValidationError(f"embedding {idx}: step in the wrong ambient space")

    def sigma_steps(self, i: int, j: int) -> SigmaSteps:
        return self.steps[self.shape.index(i, j)]


def hodge_number(fil: Filtration) -> Fraction:
    total = 0
    for sig in fil.steps:
        dims = [v.dim for _, v in sig] + [0]
        for k, (j, _) in enumerate(sig):
            total += j * (dims[k] - dims[k + 1])
    return Fraction(total)


def jump_at(sig: SigmaSteps, space: Subspace) -> int:
    """Largest jump whose step still contains the given subspace."""
    best = sig[0][0]
    for j, v in sig:
        if v.contains(space):
            best = j
    return best


def _dedupe(steps: list[tuple[int, Subspace]]) -> tuple[tuple[int, Subspace], ...]:
    """Keep the largest jump among consecutive equal pieces, drop zeros."""
    out: list[tuple[int, Subspace]] = []
    for j, v in steps:
        if v.dim == 0:
            continue
        if out and out[-1][1] == v:
            out[-1] = (j, v)
        else:
            out.append((j, v))
    return tuple(out)


def _bits(vectors):
    """The stored data of a list of vectors, on which everything computed
    from them depends, as one flat tuple: a tuple per entry would leave
    thousands of small tuples to the allocator's free lists."""
    flat = []
    for g in vectors:
        for x in g:
            flat += (x.mant, x.shift, x._k)
    return tuple(flat)


def restrict_steps(sigs, spans) -> tuple[SigmaSteps, ...]:
    """Cut every step of each embedding's step list down to that
    embedding's span, in coordinates on the span's stored generators.

    A piece is one right kernel: the kernel vectors of the matrix with
    columns [span.gens | -v.gens] are the relations sum a_j s_j = sum b_l v_l,
    and their first span.dim entries a are the coordinates of the
    intersection's vectors on the span's generators.

    Embeddings of one slot share a span, and their steps often share pieces
    (one full space for every embedding, equal lines), so a piece whose
    stored data was already restricted onto the same span in this call is
    not restricted again."""
    done = {}
    out = []
    for sig, span in zip(sigs, spans):
        onto = _bits(span.gens)
        collected = []
        for jump, v in sig:
            key = (onto, _bits(v.gens))
            piece = done.get(key)
            if piece is None:
                cols = list(span.gens) + [tuple(-x for x in g) for g in v.gens]
                rels = right_kernel(transpose(cols))
                piece = done[key] = Subspace.from_vectors(span.desc, span.dim, [k[: span.dim] for k in rels])
            collected.append((jump, piece))
        out.append(_dedupe(collected))
    return tuple(out)


def induce_on_submodule(fil: Filtration, sub: StableSubmodule) -> Filtration:
    """Intersect every step with the submodule fibers, in fiber coordinates."""
    spans = [sub.slot_spaces[i] for (i, _) in fil.shape.sigmas()]
    return Filtration(fil.desc, fil.shape, sub.rank, restrict_steps(fil.steps, spans))


def dual_filtration(fil: Filtration) -> Filtration:
    """Steps of the dual: annihilators of the pieces, jumps negated in
    reverse order, shifted so the dual piece in degree -j kills the piece
    strictly above j."""
    new_steps = []
    full = Subspace.full(fil.desc, fil.rank)
    for sig in fil.steps:
        rev = []
        jumps = [j for j, _ in sig]
        pieces = [v for _, v in sig]
        rev.append((-jumps[-1], full))
        for k in range(len(sig) - 1, 0, -1):
            rev.append((-jumps[k - 1], pieces[k].annihilator()))
        new_steps.append(_dedupe(rev))
    return Filtration(fil.desc, fil.shape, fil.rank, tuple(new_steps))


def tensor_filtration(fa: Filtration, fb: Filtration) -> Filtration:
    """Product filtration on the tensor square; the piece in degree c is
    spanned by products of pieces whose jumps sum to at least c."""
    if fa.shape != fb.shape or fa.desc is not fb.desc:
        raise ValidationError("tensor factors over different bases")
    da, db = fa.rank, fb.rank
    rank = da * db
    new_steps = []
    for sig_a, sig_b in zip(fa.steps, fb.steps):
        sums = sorted({ja + jb for ja, _ in sig_a for jb, _ in sig_b})
        collected = []
        for c in sums:
            gens = []
            for ja, va in sig_a:
                for jb, vb in sig_b:
                    if ja + jb >= c:
                        for x in va.gens:
                            for y in vb.gens:
                                gens.append(tuple(u * w for u in x for w in y))
            collected.append((c, Subspace.from_vectors(fa.desc, rank, gens)))
        new_steps.append(_dedupe(collected))
    return Filtration(fa.desc, fa.shape, rank, tuple(new_steps))


def quotient_filtration(fil: Filtration, sub: StableSubmodule) -> Filtration:
    """Image filtration on the quotient by a stable submodule, written on
    the complementary coordinate positions of each fiber."""
    shape = fil.shape
    new_steps = []
    for (i, j) in shape.sigmas():
        w = sub.slot_spaces[i]
        sig = fil.sigma_steps(i, j)
        collected = []
        for jump, v in sig:
            imgs = [w.quotient_coords(g) for g in v.gens]
            collected.append(
                (jump, Subspace.from_vectors(fil.desc, fil.rank - w.dim, imgs))
            )
        new_steps.append(_dedupe(collected))
    return Filtration(fil.desc, shape, fil.rank - sub.rank, tuple(new_steps))


# ---------------------------------------------------------------------------
# admissibility


@frozen
class SubmoduleCertificate:
    rank: int
    slot0: Subspace
    t_newton: Fraction
    t_hodge: Fraction
    ok: bool


@frozen
class FamilyCertificate:
    line_newton: Fraction
    max_line_hodge: Fraction
    ok: bool


@frozen
class AdmissibilityVerdict:
    t_newton: Fraction
    t_hodge: Fraction
    balanced: bool
    certificates: tuple[SubmoduleCertificate, ...]
    family: FamilyCertificate | None

    @property
    def admissible(self) -> bool:
        if not self.balanced:
            return False
        if any(not c.ok for c in self.certificates):
            return False
        if self.family is not None and not self.family.ok:
            return False
        return True


def _line_bundle_hodge(m: PhiNModule, fil: Filtration, line0: Subspace) -> Fraction:
    spaces = propagate_space(m, line0)
    if spaces is None:
        raise PrecisionLoss("line bundle does not close up under the transitions")
    total = 0
    for (i, j) in m.shape.sigmas():
        total += jump_at(fil.sigma_steps(i, j), spaces[i])
    return Fraction(total)


def _family_certificate(
    m: PhiNModule, fil: Filtration, family: LineBundleFamily
) -> FamilyCertificate:
    desc = m.desc
    d = m.rank
    # pull every proper step back to slot 0 through the transition chain
    specials: list[Subspace] = []
    for (i, j) in m.shape.sigmas():
        for jump, v in fil.sigma_steps(i, j):
            if 0 < v.dim < d:
                cand = Subspace.from_vectors(desc, d, [pull_to_slot_zero(m, g, i) for g in v.gens])
                if all(cand != s for s in specials):
                    specials.append(cand)
    generic = None
    one = desc.from_int(1)
    probes = [
        (one, desc.from_int(c)) for c in range(len(specials) + 2)
    ] + [(desc.zero(), one)]
    for probe in probes:
        cand = Subspace.from_vectors(desc, d, [probe])
        if all(cand != s for s in specials):
            generic = cand
            break
    candidates = specials + ([generic] if generic is not None else [])
    max_hodge = max(_line_bundle_hodge(m, fil, c) for c in candidates)
    line_newton = Fraction(m.shape.e) * family.value.valuation()
    return FamilyCertificate(line_newton, max_hodge, line_newton >= max_hodge)


def is_admissible(m: PhiNModule, fil: Filtration) -> AdmissibilityVerdict:
    """Global balance plus the submodule inequality over every stable
    proper submodule (symbolically over a scalar line family)."""
    t_n = newton_number(m)
    t_h = hodge_number(fil)
    subs, family = enumerate_submodules(m)
    certs = []
    for sub in subs:
        sub_tn = newton_number(sub.module)
        sub_th = hodge_number(induce_on_submodule(fil, sub))
        certs.append(
            SubmoduleCertificate(sub.rank, sub.slot_spaces[0], sub_tn, sub_th, sub_tn >= sub_th)
        )
    fam_cert = _family_certificate(m, fil, family) if family is not None else None
    return AdmissibilityVerdict(t_n, t_h, t_n == t_h, tuple(certs), fam_cert)
