"""Product-of-copies coefficient algebras indexed by embeddings.

A base field of residue degree f and ramification e has n = e*f embeddings
into a large enough coefficient field.  Per-slot data lives at two levels:
"K0" carries one component per unramified slot (f of them, cyclically
permuted by the Frobenius shift), "K" carries one component per embedding
(n of them, ordered by slot-major index i*e + j).

DualNumber adjoins a square-zero infinitesimal to either a field element or
a product element, which is how first-order family directions are tracked.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, LevelMismatch, ShapeMismatch
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

    def size(self, level: str) -> int:
        if level == "K0":
            return self.f
        if level == "K":
            return self.n
        raise LevelMismatch(f"unknown level {level!r}")


@frozen(eq=False)
class ProductElement:
    """An element of a finite product of copies of the coefficient field."""

    desc: LocalFieldDesc
    shape: GaloisShape
    level: str
    comps: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.comps) != self.shape.size(self.level):
            raise ShapeMismatch(
                f"level {self.level} needs {self.shape.size(self.level)} components, got {len(self.comps)}"
            )
        for c in self.comps:
            if c.desc is not self.desc:
                raise FieldMismatch("component from a different coefficient field")

    @classmethod
    def from_components(cls, desc, shape, level, comps) -> "ProductElement":
        return cls(desc, shape, level, tuple(comps))

    @classmethod
    def constant(cls, desc, shape, level, value) -> "ProductElement":
        v = _to_field(desc, value)
        return cls(desc, shape, level, tuple(v for _ in range(shape.size(level))))

    def _coerce(self, other):
        if isinstance(other, ProductElement):
            if other.shape != self.shape:
                raise ShapeMismatch("mixing product elements over different shapes")
            if other.level != self.level:
                raise LevelMismatch(f"mixing levels {self.level} and {other.level}")
            if other.desc is not self.desc:
                raise FieldMismatch("mixing coefficient fields")
            return other
        if isinstance(other, (FieldElement, int, Fraction)):
            return ProductElement.constant(self.desc, self.shape, self.level, other)
        return None

    def _map2(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ProductElement(
            self.desc, self.shape, self.level, tuple(op(a, b) for a, b in zip(self.comps, o.comps))
        )

    def __add__(self, other):
        return self._map2(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._map2(other, lambda a, b: a - b)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __neg__(self):
        return ProductElement(self.desc, self.shape, self.level, tuple(-a for a in self.comps))

    def __mul__(self, other):
        return self._map2(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._map2(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def inverse(self) -> "ProductElement":
        return ProductElement(self.desc, self.shape, self.level, tuple(a.inverse() for a in self.comps))

    def __pow__(self, k: int):
        out = ProductElement.constant(self.desc, self.shape, self.level, 1)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(int(k))):
            out = out * base
        return out

    def frobenius(self) -> "ProductElement":
        """Shift the unramified slot index by one: slot i receives slot i-1."""
        f, e = self.shape.f, self.shape.e
        if self.level == "K0":
            comps = tuple(self.comps[(i - 1) % f] for i in range(f))
        else:
            comps = tuple(
                self.comps[self.shape.index(i - 1, j)] for i in range(f) for j in range(e)
            )
        return ProductElement(self.desc, self.shape, self.level, comps)

    def trace(self) -> FieldElement:
        acc = self.comps[0]
        for c in self.comps[1:]:
            acc = acc + c
        return acc

    def embed_K(self) -> "ProductElement":
        """Spread level-K0 data across the e ramified branches of each slot."""
        if self.level != "K0":
            raise LevelMismatch("embed_K expects level K0 data")
        comps = tuple(self.comps[i] for i in range(self.shape.f) for _ in range(self.shape.e))
        return ProductElement(self.desc, self.shape, "K", comps)

    def is_zero(self) -> bool:
        return all(c.is_zero_at_prec() for c in self.comps)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None or o is NotImplemented:
            return NotImplemented
        return all(a == b for a, b in zip(self.comps, o.comps))

    __hash__ = None

    def __repr__(self):
        return f"ProductElement({self.level}, {list(self.comps)!r})"


def _to_field(desc: LocalFieldDesc, value) -> FieldElement:
    if isinstance(value, FieldElement):
        if value.desc is not desc:
            raise FieldMismatch("value from a different coefficient field")
        return value
    if isinstance(value, int):
        return desc.from_int(value)
    if isinstance(value, Fraction):
        return desc.from_rational(value)
    raise FieldMismatch(f"cannot interpret {type(value).__name__} as a field element")


@frozen(eq=False)
class DualNumber:
    """a0 + a1*eps with eps^2 = 0; parts are field or product elements."""

    a0: object
    a1: object

    def _wrap(self, other):
        if isinstance(other, DualNumber):
            return other
        if isinstance(other, (FieldElement, ProductElement, int, Fraction)):
            return DualNumber(other, _zero_like(self.a0))
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.a0 + o.a0, self.a1 + o.a1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.a0 - o.a0, self.a1 - o.a1)

    def __rsub__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o - self

    def __neg__(self):
        return DualNumber(-self.a0, -self.a1)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.a0 * o.a0, self.a0 * o.a1 + self.a1 * o.a0)

    __rmul__ = __mul__

    def inverse(self) -> "DualNumber":
        i0 = self.a0.inverse() if hasattr(self.a0, "inverse") else 1 / self.a0
        return DualNumber(i0, -(self.a1 * i0 * i0))

    def __truediv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._wrap(other)
        return NotImplemented if o is None else o * self.inverse()

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.a0 == o.a0 and self.a1 == o.a1

    __hash__ = None

    def __repr__(self):
        return f"DualNumber({self.a0!r} + {self.a1!r} eps)"


def _zero_like(x):
    if isinstance(x, FieldElement):
        return x.desc.zero()
    if isinstance(x, ProductElement):
        return ProductElement.constant(x.desc, x.shape, x.level, 0)
    return 0
