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
from .linalg import Subspace, right_kernel, rref, transpose
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


def _check_fits(m: PhiNModule, fil: Filtration) -> None:
    if fil.desc is not m.desc or fil.shape != m.shape or fil.rank != m.rank:
        raise ValidationError("filtration rank, field or shape does not match the module")


def _jump_sum(sig: SigmaSteps, dims: list[int]) -> int:
    """Sum of jump * (dimension drop) over one step list, given the
    dimension of each step; zero lies above the last one."""
    return sum(j * (d - below) for (j, _), d, below in zip(sig, dims, dims[1:] + [0]))


def hodge_number(fil: Filtration) -> Fraction:
    return Fraction(sum(_jump_sum(sig, [v.dim for _, v in sig]) for sig in fil.steps))


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


def restrict_steps(sigs, spans) -> tuple[SigmaSteps, ...]:
    """Cut every step of each embedding's step list down to that
    embedding's span, in coordinates on the span's stored generators.

    A piece is one right kernel: the kernel vectors of the matrix with
    columns [span.gens | -v.gens] are the relations sum a_j s_j = sum b_l v_l,
    and their first span.dim entries a are the coordinates of the
    intersection's vectors on the span's generators.  Only the tests and
    library callers build induced filtrations; is_admissible reads the same
    Hodge numbers off _intersection_dims."""
    out = []
    for sig, span in zip(sigs, spans):
        collected = []
        for jump, v in sig:
            cols = list(span.gens) + [tuple(-x for x in g) for g in v.gens]
            rels = right_kernel(transpose(cols))
            collected.append((jump, Subspace.from_vectors(span.desc, span.dim, [k[: span.dim] for k in rels])))
        out.append(_dedupe(collected))
    return tuple(out)


def induce_on_submodule(fil: Filtration, sub: StableSubmodule) -> Filtration:
    """Intersect every step with the submodule fibers, in fiber coordinates."""
    spans = [sub.slot_spaces[i] for (i, _) in fil.shape.sigmas()]
    return Filtration(fil.desc, fil.shape, sub.rank, restrict_steps(fil.steps, spans))


def _intersection_dims(sig: SigmaSteps, span: Subspace, loose: bool) -> list[int]:
    """dim(span ∩ V) for each step (j, V) of one embedding: dim span less
    the rank of span's generators modulo V, counted in the residuals with a
    certified digit; a residual zero at the working precision adds none.
    On a loose input (_loose_input) such a residual may add rank on one
    exact lift and none on another, so it decides nothing unless the count
    meets its bound (the residuals that are not the exact zero, at most the
    codimension of V): PrecisionLoss.  The full space needs no reduction."""
    dims = []
    for _, v in sig:
        if v.dim == v.ambient:
            dims.append(span.dim)
            continue
        residuals = [v.quotient_coords(g) for g in span.gens]
        certified = [q for q in residuals if not all(x.is_zero_at_prec() for x in q)]
        rank = len(rref(certified)[0]) if len(certified) > 1 else len(certified)
        if loose and rank < min(v.ambient - v.dim, sum(not all(x.is_exact_zero() for x in q) for q in residuals)):
            raise PrecisionLoss("intersection with a filtration step is not certified")
        dims.append(span.dim - rank)
    return dims


def _loose_input(m: PhiNModule, fil: Filtration) -> bool:
    """Whether some entry of a transition, slot operator or step generator
    is known to fewer relative digits than the working precision (and not
    to its floor): such an input stands for a family of exact inputs."""
    n = m.desc._digits(None)
    entries = [x for a in m.phi + m.nmat for r in a for x in r]
    entries += [x for sig in fil.steps for _, v in sig for g in v.gens for x in g]
    return any(x._k < n and x._k - x._floor() < n for x in entries)


def _submodule_hodge(fil: Filtration, sub: StableSubmodule, loose: bool) -> Fraction:
    """hodge_number(induce_on_submodule(fil, sub)) from the intersection
    dimensions alone: consecutive equal pieces add nothing to the sum, so
    they need not be merged, and no induced filtration is built."""
    dims = (_intersection_dims(sig, sub.slot_spaces[i], loose) for (i, _), sig in zip(fil.shape.sigmas(), fil.steps))
    return Fraction(sum(_jump_sum(sig, d) for sig, d in zip(fil.steps, dims)))


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


def _line_bundle_hodge(fil: Filtration, spaces: tuple[Subspace, ...], origin: tuple[int, int] | None, loose: bool) -> Fraction:
    """The Hodge number of one line bundle of a family, given its slot
    spaces, read off dim(L_t ∩ Fil^j) by _intersection_dims, the rule of
    the submodule certificates.  A special line pulled back from step k of
    embedding t (origin (t, k)) lies in that step and every larger step of
    t by construction, so those dimensions are 1 without a reduction; on a
    loose input the rule could not certify even that containment."""
    total = 0
    for t, ((i, _), sig) in enumerate(zip(fil.shape.sigmas(), fil.steps)):
        inside = origin[1] + 1 if origin is not None and origin[0] == t else 0
        total += _jump_sum(sig, [1] * inside + _intersection_dims(sig[inside:], spaces[i], loose))
    return Fraction(total)


def _family_certificate(
    m: PhiNModule, fil: Filtration, family: LineBundleFamily, loose: bool, balanced: bool
) -> FamilyCertificate | None:
    """t_H(L) <= t_N(L) over the line bundles of a scalar family, checked on
    its special lines (each proper step pulled back to slot 0, with the step
    it came from) and one generic line outside them.  Every line is carried
    round the slots before any intersection is counted: one that does not
    close up is lost precision.  A Hodge number the input does not decide
    raises PrecisionLoss on a balanced module; on an unbalanced one the
    certificate is left out (None), as for submodule certificates."""
    desc = m.desc
    d = m.rank
    specials: list[tuple[Subspace, tuple[int, int]]] = []
    for t, ((i, _), sig) in enumerate(zip(m.shape.sigmas(), fil.steps)):
        for k, (_, v) in enumerate(sig):
            if 0 < v.dim < d:
                cand = Subspace.from_vectors(desc, d, [pull_to_slot_zero(m, g, i) for g in v.gens])
                if all(cand != s for s, _ in specials):
                    specials.append((cand, (t, k)))
    generic = None
    one = desc.from_int(1)
    probes = [
        (one, desc.from_int(c)) for c in range(len(specials) + 2)
    ] + [(desc.zero(), one)]
    for probe in probes:
        cand = Subspace.from_vectors(desc, d, [probe])
        if all(cand != s for s, _ in specials):
            generic = cand
            break
    candidates = specials + ([(generic, None)] if generic is not None else [])
    lines = [(propagate_space(m, c), origin) for c, origin in candidates]
    if any(spaces is None for spaces, _ in lines):
        raise PrecisionLoss("line bundle does not close up under the transitions")
    try:
        max_hodge = max(_line_bundle_hodge(fil, spaces, origin, loose) for spaces, origin in lines)
    except PrecisionLoss:
        if balanced:
            raise
        return None
    line_newton = Fraction(m.shape.e) * family.value.valuation()
    return FamilyCertificate(line_newton, max_hodge, line_newton >= max_hodge)


def is_admissible(m: PhiNModule, fil: Filtration) -> AdmissibilityVerdict:
    """Global balance t_N = t_H plus t_H(D') <= t_N(D') on every stable
    proper submodule D' that enumerate_submodules finds, or on every line
    bundle of a scalar family.  Every t_H(D'), a family line's too, is read
    off dim(D'_t ∩ Fil^j) for each embedding t and step j by one rule
    (_intersection_dims), without building the induced filtration.  An
    unbalanced module fails whatever D' gives, so there a certificate the
    input does not decide is left out."""
    _check_fits(m, fil)
    t_n = newton_number(m)
    t_h = hodge_number(fil)
    subs, family = enumerate_submodules(m)
    loose = _loose_input(m, fil)
    certs = []
    for sub in subs:
        sub_tn = newton_number(sub.module)
        try:
            sub_th = _submodule_hodge(fil, sub, loose)
        except PrecisionLoss:
            if t_n == t_h:
                raise
            continue
        certs.append(
            SubmoduleCertificate(sub.rank, sub.slot_spaces[0], sub_tn, sub_th, sub_tn >= sub_th)
        )
    fam_cert = _family_certificate(m, fil, family, loose, t_n == t_h) if family is not None else None
    return AdmissibilityVerdict(t_n, t_h, t_n == t_h, tuple(certs), fam_cert)
