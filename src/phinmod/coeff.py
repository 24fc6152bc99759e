"""Product-of-copies coefficient algebras indexed by embeddings.

A base field of residue degree f and ramification e has n = e*f embeddings
into a large enough coefficient field.  Per-embedding data (marked slopes,
weight derivatives, exponential parts of H^1 classes) lives in K (x) L, a
product of n copies of the coefficient field, one component per embedding
in slot-major index order i*e + j.

DualNumber adjoins a square-zero infinitesimal to either a field element or
a product element, which is how first-order family directions are tracked.
"""
from __future__ import annotations

import itertools
import operator

from .errors import FieldMismatch, ShapeMismatch
from .padic import FieldElement, LocalFieldDesc
from .record import frozen


@frozen
class GaloisShape:
    """Embedding bookkeeping for a base field: e ramified branches over each
    of f unramified slots."""

    e: int
    f: int

    def __post_init__(self):
        if self.e < 1 or self.f < 1:
            raise ShapeMismatch("shape parameters must be positive")

    @property
    def n(self) -> int:
        return self.e * self.f

    def index(self, i: int, j: int) -> int:
        return (i % self.f) * self.e + (j % self.e)

    def sigmas(self):
        """Embedding labels (i, j) in index order."""
        for i in range(self.f):
            for j in range(self.e):
                yield (i, j)


@frozen(eq=False)
class ProductElement:
    """An element of a finite product of copies of the coefficient field."""

    desc: LocalFieldDesc
    shape: GaloisShape
    comps: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.comps) != self.shape.n:
            raise ShapeMismatch(f"shape needs {self.shape.n} components, got {len(self.comps)}")
        for c in self.comps:
            if c.desc is not self.desc:
                raise FieldMismatch("component from a different coefficient field")

    @classmethod
    def from_components(cls, desc, shape, comps) -> "ProductElement":
        return cls(desc, shape, tuple(comps))

    @classmethod
    def constant(cls, desc, shape, value) -> "ProductElement":
        """value in every component: a FieldElement of the field, or an int
        taken exactly, as FieldElement arithmetic takes it."""
        v = desc.zero()._coerce(value)
        if v is None:
            raise FieldMismatch(f"cannot interpret {type(value).__name__} as a field element")
        return cls(desc, shape, (v,) * shape.n)

    def _map2(self, other, op):
        """op(a, b) per component a of self: b is the matching component of
        a product element over the same shape and field, or a scalar
        (a FieldElement or an int) handed as it is to each component's own
        arithmetic, so a component keeps the precision FieldElement gives
        it.  NotImplemented for any other operand."""
        if isinstance(other, ProductElement):
            if other.shape != self.shape:
                raise ShapeMismatch("mixing product elements over different shapes")
            if other.desc is not self.desc:
                raise FieldMismatch("mixing coefficient fields")
            others = other.comps
        elif isinstance(other, (FieldElement, int)):
            others = itertools.repeat(other)
        else:
            return NotImplemented
        return tuple(map(op, self.comps, others))

    def _like(self, comps):
        """A product element over self's shape and field."""
        if comps is NotImplemented:
            return comps
        return ProductElement(self.desc, self.shape, tuple(comps))

    def __add__(self, other):
        return self._like(self._map2(other, operator.add))

    __radd__ = __add__

    def __sub__(self, other):
        return self._like(self._map2(other, operator.sub))

    def __rsub__(self, other):
        return self._like(self._map2(other, lambda a, b: b - a))

    def __neg__(self):
        return self._like(-a for a in self.comps)

    def __mul__(self, other):
        return self._like(self._map2(other, operator.mul))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._like(self._map2(other, operator.truediv))

    def inverse(self) -> "ProductElement":
        return self._like(a.inverse() for a in self.comps)

    def __pow__(self, k: int):
        return self._like(a**k for a in self.comps)

    def trace(self) -> FieldElement:
        acc = self.comps[0]
        for c in self.comps[1:]:
            acc = acc + c
        return acc

    def is_zero(self) -> bool:
        return all(c.is_zero_at_prec() for c in self.comps)

    def __eq__(self, other):
        eq = self._map2(other, operator.eq)
        return eq if eq is NotImplemented else all(eq)

    __hash__ = None


@frozen(eq=False)
class DualNumber:
    """a0 + a1*eps with eps^2 = 0; parts are field or product elements."""

    a0: object
    a1: object

    # A scalar s acts as s + 0*eps: it goes as it is to the parts' own
    # arithmetic, whose precision rule then holds.

    def __add__(self, other):
        if isinstance(other, DualNumber):
            return DualNumber(self.a0 + other.a0, self.a1 + other.a1)
        return DualNumber(self.a0 + other, self.a1) if isinstance(other, _SCALARS) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualNumber):
            return DualNumber(self.a0 - other.a0, self.a1 - other.a1)
        return DualNumber(self.a0 - other, self.a1) if isinstance(other, _SCALARS) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, DualNumber):
            return DualNumber(self.a0 * other.a0, self.a0 * other.a1 + self.a1 * other.a0)
        return DualNumber(self.a0 * other, self.a1 * other) if isinstance(other, _SCALARS) else NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "DualNumber":
        i0 = self.a0.inverse()
        return DualNumber(i0, -(self.a1 * i0 * i0))

    def __truediv__(self, other):
        if isinstance(other, DualNumber):
            return self * other.inverse()
        return DualNumber(self.a0 / other, self.a1 / other) if isinstance(other, _SCALARS) else NotImplemented

    def __eq__(self, other):
        if isinstance(other, DualNumber):
            return self.a0 == other.a0 and self.a1 == other.a1
        return self.a0 == other and self.a1 == 0 if isinstance(other, _SCALARS) else NotImplemented

    __hash__ = None


_SCALARS = (FieldElement, ProductElement, int)
