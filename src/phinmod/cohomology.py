"""Coordinate classes for first and second cohomology, and their cup product.

A first-cohomology class of the trivial character is a pair (a1, a2): the
value on the unramified direction and a K-level product element for the
exponential directions.  A class of the Tate twist is a pair (b1, b2) of the
same shape.  Cup products land in the one-dimensional second cohomology,
coordinatized by a single scalar c.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import GaloisShape, ProductElement
from .errors import (
    FieldMismatch,
    LevelMismatch,
    NotUnipotent,
    ShapeMismatch,
    ValidationError,
)
from .linalg import (
    Subspace,
    identity,
    is_zero_matrix,
    mat,
    mat_mul,
    mat_sub,
    mat_vec,
    right_kernel,
    solve_columns,
)
from .modules import PhiNModule, frobenius_composite
from .padic import INF, FieldElement, LocalFieldDesc


def _check_pair(scalar: FieldElement, vec: ProductElement, what: str):
    if vec.level != "K":
        raise LevelMismatch(f"{what}: exponential part must be a K-level product element")
    if scalar.desc is not vec.desc:
        raise FieldMismatch(f"{what}: components use different coefficient fields")


@dataclass(frozen=True)
class H1Trivial:
    """Class for the trivial character: unramified value and exponential part."""

    a1: FieldElement
    a2: ProductElement

    def __post_init__(self):
        _check_pair(self.a1, self.a2, "trivial-character class")

    @property
    def desc(self):
        return self.a1.desc

    @property
    def shape(self):
        return self.a2.shape


@dataclass(frozen=True)
class H1Tate:
    """Class for the Tate twist: cyclotomic value and exponential part."""

    b1: FieldElement
    b2: ProductElement

    def __post_init__(self):
        _check_pair(self.b1, self.b2, "Tate-twist class")

    @property
    def desc(self):
        return self.b1.desc

    @property
    def shape(self):
        return self.b2.shape


@dataclass(frozen=True)
class H2Class:
    """Top class, one scalar coordinate."""

    c: FieldElement


def _reciprocal(desc: LocalFieldDesc, n: int) -> FieldElement:
    """1/n, exact when n = 1 and at working precision otherwise."""
    return desc.from_rational(Fraction(1, n)) if n > 1 else desc.from_int(1, INF)


def cup(x: H1Trivial, y: H1Tate) -> H2Class:
    """Pair the unramified values directly and the exponential parts through
    the normalized trace."""
    if x.shape != y.shape:
        raise ShapeMismatch("classes live over different shapes")
    if x.desc is not y.desc:
        raise FieldMismatch("classes use different coefficient fields")
    scale = _reciprocal(x.desc, x.shape.n)
    return H2Class(x.a1 * y.b1 - scale * (x.a2 * y.b2).trace())


def pairing_is_perfect(desc: LocalFieldDesc, shape: GaloisShape) -> bool:
    """Certify the Gram matrix of cup on the standard bases has full rank."""
    n = shape.n
    one, zero = desc.from_int(1, INF), desc.zero()

    def basis(cls, i):
        # i = -1 is the scalar direction, i >= 0 the i-th exponential one
        comps = [one if t == i else zero for t in range(n)]
        return cls(one if i < 0 else zero, ProductElement.from_components(desc, shape, "K", comps))

    rows = []
    for i in range(-1, n):
        rows.append([cup(basis(H1Trivial, i), basis(H1Tate, j)).c for j in range(-1, n)])
    gram = mat(rows)
    ker = right_kernel(gram, desc)
    return len(ker) == 0


def monodromy_extension_class(ell: ProductElement) -> H1Tate:
    """The marked-line parameters seen as a Tate-twist class (1, ell)."""
    if ell.level != "K":
        raise LevelMismatch("marked slopes must be a K-level product element")
    return H1Tate(ell.desc.from_int(1, INF), ell)


def satisfies_colmez_condition(x: H1Trivial, ell: ProductElement) -> bool:
    """Whether the unramified value equals the normalized trace against the
    marked slopes; equivalent to cup-vanishing against (1, ell)."""
    if x.shape != ell.shape:
        raise ShapeMismatch("class and marked slopes live over different shapes")
    return x.a1 == _reciprocal(x.desc, x.shape.n) * (x.a2 * ell).trace()


def degenerate_condition(x: H1Trivial, ell: ProductElement) -> bool:
    """Trace pairing of the exponential part against the marked slopes."""
    if x.shape != ell.shape:
        raise ShapeMismatch("class and marked slopes live over different shapes")
    return (x.a2 * ell).trace().is_zero_at_prec()


def unipotent_extension_class(
    m: PhiNModule, sub_vec, quot_vec
) -> H1Trivial:
    """Extension class of a rank-two crystalline module with unipotent cycle.

    sub_vec trivializes the fixed line at slot zero, quot_vec lifts a
    trivialization of the quotient line.  With the cycle acting as
    quot -> quot + c * sub, the class is (-c/f, 0).
    """
    desc, shape = m.desc, m.shape
    if m.rank != 2:
        raise NotUnipotent("rank-two input required")
    if any(not is_zero_matrix(nm) for nm in m.nmat):
        raise NotUnipotent("slot operators must vanish")
    a = frobenius_composite(m)
    ident = identity(desc, 2)
    shifted = mat_sub(a, ident)
    if not is_zero_matrix(mat_mul(shifted, shifted)):
        raise NotUnipotent("cycle is not unipotent at working precision")
    sub_vec, quot_vec = tuple(sub_vec), tuple(quot_vec)
    if Subspace.from_vectors(desc, 2, [sub_vec, quot_vec]).dim != 2:
        raise ValidationError("trivializations do not span the fiber")
    if not all(u == v for u, v in zip(mat_vec(a, sub_vec), sub_vec)):
        raise NotUnipotent("sub trivialization is not fixed by the cycle")
    moved = mat_vec(a, quot_vec)
    defect = tuple(u - v for u, v in zip(moved, quot_vec))
    coeff = solve_columns([sub_vec], defect, desc)
    if coeff is None:
        raise NotUnipotent("cycle defect leaves the fixed line")
    return H1Trivial(
        -_reciprocal(desc, shape.f) * coeff[0], ProductElement.constant(desc, shape, "K", desc.zero())
    )
