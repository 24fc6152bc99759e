"""Exact capped-precision arithmetic in finite extensions of Q_p.

A coefficient field is described by a two-step tower: an unramified step
generated by a root theta of a monic integer polynomial irreducible modulo p,
then a totally ramified step generated by a root pi of an Eisenstein
polynomial whose coefficients live in the first step.  Elements are stored on
the monomial basis pi^a * theta^b.

Why this basis: the monomials pi^a have pairwise distinct valuations a/e
modulo 1, and an integral theta-combination is a unit unless every
coefficient vanishes mod p.  The valuation of an element is therefore the
minimum of its per-monomial valuations, exactly, whenever at least one
stored coefficient survives reduction at the working precision.  Every
verdict in the package builds on that fact; nothing here estimates.

Precision model: each element carries an absolute precision floor, a
rational with denominator dividing the ramification degree, meaning the
element is known modulo everything of valuation >= floor.  The literal zero
from LocalFieldDesc.zero() is exact and reports valuation infinity; a
computed value that merely reduced to zero at its floor refuses to produce a
valuation and raises PrecisionLoss instead.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .errors import (
    FieldMismatch,
    InvalidValuation,
    PrecisionLoss,
    RootLiftingError,
    ValidationError,
    ZeroInput,
)

INF = math.inf

DEFAULT_PRECISION = 60

# Brute-force residue root search is only attempted for residue fields up to
# this size; larger repeated-slope segments fail loudly instead.
_RESIDUE_SEARCH_CAP = 4096


def _vp(n: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ZeroInput("valuation of integer zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, init=False)
class LocalFieldDesc:
    """Description of the coefficient field as a two-step tower over Q_p.

    unram_poly: monic, ascending integer coefficients, degree f_l,
        irreducible modulo p; its root is called theta.
    eis_poly: monic, ascending, degree e_l; each coefficient is a length-f_l
        integer vector on the theta-basis of the unramified step.  Non-leading
        coefficients need valuation >= 1 and the constant term valuation
        exactly 1; its root is called pi.

    Descriptors are interned: parameters that agree after normalization give
    back the same object, so field identity is always tested with ``is``.
    """

    p: int
    f_l: int
    e_l: int
    unram_poly: tuple[int, ...]
    eis_poly: tuple[tuple[int, ...], ...]
    default_prec: int = DEFAULT_PRECISION

    _interned: ClassVar[dict] = {}

    def __new__(cls, p, f_l, e_l, unram_poly, eis_poly, default_prec=DEFAULT_PRECISION):
        up = tuple(int(c) for c in unram_poly)
        ep = tuple(
            tuple(int(c) for c in row) if isinstance(row, (tuple, list)) else (int(row),) + (0,) * (f_l - 1)
            for row in eis_poly
        )
        key = (p, f_l, e_l, up, ep, default_prec)
        found = cls._interned.get(key)
        if found is not None:
            return found
        self = object.__new__(cls)
        for name, value in zip(("p", "f_l", "e_l", "unram_poly", "eis_poly", "default_prec"), key):
            object.__setattr__(self, name, value)
        self.__post_init__()
        # a concurrent construction of the same tower may have won the race;
        # only a fully certified descriptor is ever published
        return cls._interned.setdefault(key, self)

    def __reduce__(self):
        # copies and unpickled descriptors are interned like any construction
        return (LocalFieldDesc, (self.p, self.f_l, self.e_l, self.unram_poly, self.eis_poly, self.default_prec))

    def __post_init__(self):
        if self.p < 2:
            raise ValidationError("p must be at least 2")
        if self.f_l < 1 or self.e_l < 1:
            raise ValidationError("tower degrees must be positive")
        if self.default_prec < 1:
            raise ValidationError("default precision must be positive")
        up, ep = self.unram_poly, self.eis_poly
        if len(up) != self.f_l + 1 or up[-1] != 1:
            raise ValidationError("unramified polynomial must be monic of the stated degree")
        if len(ep) != self.e_l + 1:
            raise ValidationError("Eisenstein polynomial must have degree equal to the ramification index")
        if any(len(row) != self.f_l for row in ep):
            raise ValidationError("Eisenstein coefficients must be vectors over the unramified step")
        if ep[-1] != (1,) + (0,) * (self.f_l - 1):
            raise ValidationError("Eisenstein polynomial must be monic")
        self._certify()
        object.__setattr__(self, "_theta_red", self._build_theta_table())
        object.__setattr__(self, "_pi_red", self._build_pi_table())
        object.__setattr__(self, "_zero", None)
        object.__setattr__(self, "_one", None)

    # -- construction-time certification ---------------------------------

    def _certify(self) -> None:
        from sympy import isprime
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p

        if not isprime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        dense = [c % self.p for c in reversed(self.unram_poly)]
        while dense and dense[0] == 0:
            dense = dense[1:]
        dense = [ZZ(c) for c in dense]
        if len(dense) != self.f_l + 1 or not gf_irreducible_p(dense, self.p, ZZ):
            raise ValidationError("unramified polynomial is not irreducible modulo p")
        for i, row in enumerate(self.eis_poly[:-1]):
            vals = [_vp(c, self.p) for c in row if c != 0]
            vmin = min(vals) if vals else None
            if i == 0:
                if vmin != 1:
                    raise ValidationError("Eisenstein constant term must have valuation exactly 1")
            elif vmin is not None and vmin < 1:
                raise ValidationError(f"Eisenstein coefficient {i} has valuation below 1")

    # -- reduction tables -------------------------------------------------

    def _build_theta_table(self) -> tuple[tuple[int, ...], ...]:
        # theta^k for k = f..2f-2 expressed on the theta-basis, exact ints.
        f = self.f_l
        if f == 1:
            return ()
        rows = []
        cur = [-c for c in self.unram_poly[:f]]
        rows.append(tuple(cur))
        for _ in range(f, 2 * f - 2):
            nxt = [0] * f
            for b in range(f - 1):
                nxt[b + 1] += cur[b]
            top = cur[f - 1]
            if top:
                for b in range(f):
                    nxt[b] += top * rows[0][b]
            rows.append(tuple(nxt))
            cur = nxt
        return tuple(rows)

    def _umul(self, u, v) -> list[int]:
        # product of two theta-vectors with exact integer coefficients
        f = self.f_l
        conv = [0] * (2 * f - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        conv[i + j] += ui * vj
        for k in range(2 * f - 2, f - 1, -1):
            c = conv[k]
            if c:
                red = self._theta_red[k - f]
                for b in range(f):
                    conv[b] += c * red[b]
                conv[k] = 0
        return conv[:f]

    def _build_pi_table(self):
        # pi^k for k = e..2e-2 as vectors of theta-vectors over the pi-basis
        e, f = self.e_l, self.f_l
        if e == 1:
            return ()
        neg = [tuple(-c for c in row) for row in self.eis_poly[:e]]
        rows = [tuple(neg)]
        cur = list(neg)
        for _ in range(e, 2 * e - 2):
            nxt = [[0] * f for _ in range(e)]
            for a in range(e - 1):
                for b in range(f):
                    nxt[a + 1][b] += cur[a][b]
            top = cur[e - 1]
            if any(top):
                for a in range(e):
                    prod = self._umul(top, neg[a])
                    for b in range(f):
                        nxt[a][b] += prod[b]
            cur = [tuple(r) for r in nxt]
            rows.append(tuple(cur))
        return tuple(rows)

    # -- basic constructors ----------------------------------------------

    @property
    def degree(self) -> int:
        return self.e_l * self.f_l

    def _prec(self, prec) -> Fraction:
        if prec is None:
            return Fraction(self.default_prec)
        if prec is INF:
            return INF
        return Fraction(prec)

    def zero(self) -> "FieldElement":
        z = object.__getattribute__(self, "_zero")
        if z is None:
            mant = tuple(tuple(0 for _ in range(self.f_l)) for _ in range(self.e_l))
            z = FieldElement(self, mant, 0, INF)
            object.__setattr__(self, "_zero", z)
        return z

    def one(self) -> "FieldElement":
        o = object.__getattribute__(self, "_one")
        if o is None:
            o = self.from_int(1)
            object.__setattr__(self, "_one", o)
        return o

    def from_int(self, n: int, prec=None) -> "FieldElement":
        if int(n) == 0:
            return self.zero()
        mant = [[0] * self.f_l for _ in range(self.e_l)]
        mant[0][0] = int(n)
        return make_element(self, mant, 0, self._prec(prec))

    def from_rational(self, r, prec=None) -> "FieldElement":
        r = Fraction(r)
        if r == 0:
            return self.from_int(0, prec)
        num, den = r.numerator, r.denominator
        s = _vp(den, self.p) if den % self.p == 0 else 0
        den //= self.p ** s
        pr = self._prec(prec)
        if den != 1:
            # invert the prime-to-p part of the denominator modulo p^cap
            cap = max(1, math.ceil(pr) + s + 1) if pr is not INF else None
            if cap is None:
                raise ValidationError("cannot invert a denominator at infinite precision")
            num = num * pow(den, -1, self.p ** cap)
        mant = [[0] * self.f_l for _ in range(self.e_l)]
        mant[0][0] = num
        return make_element(self, mant, s, pr)

    def uniformizer(self, prec=None) -> "FieldElement":
        if self.e_l == 1:
            # pi is the negated Eisenstein constant term, a valuation-1 scalar
            mant = [list(-c for c in self.eis_poly[0])]
            return make_element(self, mant, 0, self._prec(prec))
        mant = [[0] * self.f_l for _ in range(self.e_l)]
        mant[1][0] = 1
        return make_element(self, mant, 0, self._prec(prec))

    def unram_gen(self, prec=None) -> "FieldElement":
        if self.f_l == 1:
            # theta is the negated root of the degree-one polynomial
            mant = [[0] for _ in range(self.e_l)]
            mant[0][0] = -self.unram_poly[0]
            return make_element(self, mant, 0, self._prec(prec))
        mant = [[0] * self.f_l for _ in range(self.e_l)]
        mant[0][1] = 1
        return make_element(self, mant, 0, self._prec(prec))

    def element(self, coords, prec=None) -> "FieldElement":
        """Build an element from a 2-D array of rationals indexed [pi-power][theta-power]."""
        rows = [list(r) if isinstance(r, (tuple, list)) else [r] for r in coords]
        if len(rows) != self.e_l or any(len(r) != self.f_l for r in rows):
            raise ValidationError("coordinate array must be e_l rows of f_l entries")
        out = self.zero()
        pr = self._prec(prec)
        for a, row in enumerate(rows):
            for b, c in enumerate(row):
                c = Fraction(c)
                if c == 0:
                    continue
                mono = self.from_int(1, INF)
                if a:
                    mono = mono * self.uniformizer(INF) ** a
                if b:
                    mono = mono * self.unram_gen(INF) ** b
                out = out + self.from_rational(c, pr) * mono
        return out

    def valuation_lattice_exponent(self, prec: Fraction, a: int) -> int:
        """Mantissa cap exponent for the pi^a row at absolute precision prec."""
        return math.ceil(prec - Fraction(a, self.e_l))


def make_element(desc: LocalFieldDesc, mant, shift: int, prec) -> "FieldElement":
    """Canonical constructor: caps each coefficient at the precision lattice
    and strips common powers of p between the mantissa and the shift."""
    e, f, p = desc.e_l, desc.f_l, desc.p
    rows = [list(r) for r in mant]
    if prec is not INF:
        for a in range(e):
            cap = desc.valuation_lattice_exponent(prec, a) + shift
            if cap <= 0:
                rows[a] = [0] * f
            else:
                mod = p ** cap
                rows[a] = [c % mod for c in rows[a]]
    nz = [c for r in rows for c in r if c]
    if not nz:
        return FieldElement(desc, tuple(tuple(r) for r in rows), 0, prec)
    if shift > 0:
        t = min(shift, min(_vp(c, p) for c in nz))
        if t:
            q = p ** t
            rows = [[c // q for c in r] for r in rows]
            shift -= t
    return FieldElement(desc, tuple(tuple(r) for r in rows), shift, prec)


@dataclass(frozen=True, eq=False)
class FieldElement:
    """An element of the coefficient field, known modulo valuation >= prec.

    mant holds integers; the element is (1/p^shift) * sum of
    mant[a][b] * pi^a * theta^b.  Instances are produced canonically by
    make_element and must be treated as immutable.
    """

    desc: LocalFieldDesc
    mant: tuple[tuple[int, ...], ...]
    shift: int
    prec: Fraction | float

    # -- predicates -------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.prec is INF and not any(c for r in self.mant for c in r)

    def is_zero_at_prec(self) -> bool:
        """True when no stored coefficient certifies the element nonzero."""
        return not any(c for r in self.mant for c in r)

    # -- valuation --------------------------------------------------------

    def valuation(self) -> Fraction | float:
        """Exact valuation; INF for the literal zero; PrecisionLoss when the
        element is indistinguishable from zero at its floor."""
        if self.is_exact_zero():
            return INF
        best = None
        p, e = self.desc.p, self.desc.e_l
        for a, row in enumerate(self.mant):
            for c in row:
                if c:
                    v = Fraction(_vp(c, p) - self.shift) + Fraction(a, e)
                    if best is None or v < best:
                        best = v
        if best is None:
            raise PrecisionLoss(
                f"element indistinguishable from zero at precision {self.prec}"
            )
        return best

    def val_floor(self) -> Fraction:
        """Certified lower bound for the valuation (the valuation itself when
        available, the precision floor otherwise)."""
        try:
            v = self.valuation()
        except PrecisionLoss:
            return self.prec
        return self.prec if v is INF else v

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.desc is not self.desc:
                raise FieldMismatch("operands belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            den = r.denominator
            while den % self.desc.p == 0:
                den //= self.desc.p
            if den == 1:
                return self.desc.from_rational(r, INF)
            pr = self.prec if self.prec is not INF else None
            return self.desc.from_rational(r, pr)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact_zero():
            return o
        if o.is_exact_zero():
            return self
        s = max(self.shift, o.shift)
        pa = self.desc.p ** (s - self.shift)
        pb = self.desc.p ** (s - o.shift)
        rows = [
            [ca * pa + cb * pb for ca, cb in zip(ra, rb)]
            for ra, rb in zip(self.mant, o.mant)
        ]
        return make_element(self.desc, rows, s, min(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        if self.is_exact_zero():
            return self
        rows = [[-c for c in r] for r in self.mant]
        return make_element(self.desc, rows, self.shift, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_exact_zero() or o.is_exact_zero():
            return self.desc.zero()
        rows = _raw_mul(self.desc, self.mant, o.mant)
        shift = self.shift + o.shift
        if self.prec is INF and o.prec is INF:
            prec = INF
        elif self.prec is INF:
            prec = self.val_floor() + o.prec
        elif o.prec is INF:
            prec = o.val_floor() + self.prec
        else:
            prec = min(self.val_floor() + o.prec, o.val_floor() + self.prec)
        return make_element(self.desc, rows, shift, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self.desc.from_int(1, INF)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale_p(self, k: int) -> "FieldElement":
        """Multiply by p^k exactly (a shift of the mantissa scale)."""
        if self.is_exact_zero() or k == 0:
            return self
        shift = self.shift - k
        rows = self.mant
        if shift < 0:
            q = self.desc.p ** (-shift)
            rows = [[c * q for c in r] for r in rows]
            shift = 0
        prec = self.prec if self.prec is INF else self.prec + k
        return make_element(self.desc, [list(r) for r in rows], shift, prec)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by Newton iteration from the residue of the
        unit part.  Relative precision is preserved."""
        if self.is_exact_zero():
            raise ZeroInput("inverting exact zero")
        v = self.valuation()  # PrecisionLoss propagates
        desc = self.desc
        unit = _times_monomial(self, -v)
        rel = unit.prec  # = self.prec - v, the relative precision
        if rel is INF:
            rel = Fraction(desc.default_prec)
            unit = make_element(desc, [list(r) for r in unit.mant], unit.shift, rel)
        if rel * desc.e_l < 1:
            raise PrecisionLoss("no relative precision left for inversion")
        # x^{-1} = unit^{-1} * (monomial of valuation -v)
        return _times_monomial(_unit_inverse(unit, rel), -v)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pr = min(self.prec, o.prec)
        a = make_element(self.desc, [list(r) for r in self.mant], self.shift, pr)
        b = make_element(self.desc, [list(r) for r in o.mant], o.shift, pr)
        return a.mant == b.mant and a.shift == b.shift

    __hash__ = None

    def __repr__(self):
        try:
            v = self.valuation()
            vs = "inf" if v is INF else str(v)
        except PrecisionLoss:
            vs = f">={self.prec}"
        return f"FieldElement(v={vs}, prec={self.prec})"

    def coefficients(self) -> tuple[tuple[Fraction, ...], ...]:
        """Coordinates on the pi^a theta^b basis as exact fractions."""
        d = Fraction(1, self.desc.p ** self.shift)
        return tuple(tuple(c * d for c in row) for row in self.mant)


def _raw_mul(desc: LocalFieldDesc, x, y):
    e, f = desc.e_l, desc.f_l
    z = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for a1, row1 in enumerate(x):
        for b1, c1 in enumerate(row1):
            if not c1:
                continue
            for a2, row2 in enumerate(y):
                for b2, c2 in enumerate(row2):
                    if c2:
                        z[a1 + a2][b1 + b2] += c1 * c2
    # fold theta powers back under the unramified relation
    if f > 1:
        for row in z:
            for k in range(2 * f - 2, f - 1, -1):
                c = row[k]
                if c:
                    red = desc._theta_red[k - f]
                    for b in range(f):
                        row[b] += c * red[b]
                    row[k] = 0
    # fold pi powers back under the Eisenstein relation
    if e > 1:
        for k in range(2 * e - 2, e - 1, -1):
            row = z[k]
            if any(row[:f]):
                table = desc._pi_red[k - e]
                for a in range(e):
                    prod = desc._umul(row[:f], table[a])
                    for b in range(f):
                        z[a][b] += prod[b]
                z[k] = [0] * (2 * f - 1)
    return [row[:f] for row in z[:e]]


def _times_monomial(x: FieldElement, v) -> FieldElement:
    """x times the monomial p^q * pi^r of valuation v = q + r/e_l, 0 <= r < e_l.

    The pi-power goes through one multiplication, the p-power through
    scale_p, which only moves the mantissa scale."""
    desc = x.desc
    q = math.floor(v)
    r = int((v - q) * desc.e_l)
    if r:
        x = x * desc.uniformizer(INF) ** r
    if q:
        x = x.scale_p(q)
    return x


def _residue_vec(x: FieldElement) -> tuple[int, ...]:
    """Residue of an integral element as a theta-vector mod p."""
    p, s = x.desc.p, x.shift
    q = p ** s
    out = []
    for c in x.mant[0]:
        if c % q:
            raise PrecisionLoss("residue of a non-integral element")
        out.append((c // q) % p)
    return tuple(out)


def _gfq_mul(desc: LocalFieldDesc, u, v):
    return tuple(c % desc.p for c in desc._umul(list(u), list(v)))


def _gfq_pow(desc: LocalFieldDesc, u, k: int):
    out = (1,) + (0,) * (desc.f_l - 1)
    base = tuple(c % desc.p for c in u)
    while k:
        if k & 1:
            out = _gfq_mul(desc, out, base)
        base = _gfq_mul(desc, base, base)
        k >>= 1
    return out

def _gfq_inv(desc: LocalFieldDesc, u):
    if not any(c % desc.p for c in u):
        raise ZeroInput("inverting zero residue")
    return _gfq_pow(desc, u, desc.p ** desc.f_l - 2)


def _unit_inverse(u: FieldElement, rel: Fraction) -> FieldElement:
    desc = u.desc
    res = _residue_vec(u)
    inv0 = _gfq_inv(desc, res)
    mant = [[0] * desc.f_l for _ in range(desc.e_l)]
    mant[0] = list(inv0)
    y = make_element(desc, mant, 0, rel)
    two = desc.from_int(2, INF)
    steps = max(1, math.ceil(math.log2(float(rel * desc.e_l)))) + 2
    for _ in range(steps):
        y = y * (two - u * y)
    return y


# ---------------------------------------------------------------------------
# sampling


def sample_element(desc: LocalFieldDesc, valuation, seed: int, prec=None) -> FieldElement:
    """Deterministically sample an element with exactly the stated valuation.

    The unit part has uniformly random capped mantissa with a forced nonzero
    residue, then the result is scaled by the right power of p and pi.
    """
    v = Fraction(valuation)
    e = desc.e_l
    if (v * e).denominator != 1:
        raise InvalidValuation(f"valuation {v} is not a multiple of 1/{e}")
    rng = random.Random(seed)
    pr = desc._prec(prec)
    cap = desc.p ** math.ceil(pr)
    mant = [[rng.randrange(cap) for _ in range(desc.f_l)] for _ in range(e)]
    mant[0][0] = rng.randrange(1, desc.p) + desc.p * rng.randrange(cap // desc.p)
    return _times_monomial(make_element(desc, mant, 0, pr), v)


def sample_unit(desc: LocalFieldDesc, seed: int, prec=None) -> FieldElement:
    return sample_element(desc, 0, seed, prec)


# ---------------------------------------------------------------------------
# polynomials over the field: evaluation, Newton polygon, simple-root lifting


def poly_eval(coeffs, x: FieldElement) -> FieldElement:
    out = x.desc.zero()
    for c in reversed(list(coeffs)):
        out = out * x + c
    return out


def poly_derivative(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:]


def lower_hull(points):
    """Lower convex hull of (x, y) points with strictly increasing x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_slopes(coeffs):
    """Segments of the Newton polygon of a monic polynomial.

    Returns a list of (root_valuation, length) pairs, plus the hull itself.
    Coefficients indistinguishable from zero are fine as long as their
    precision floors certify that they lie above the hull.
    """
    d = len(coeffs) - 1
    pts, floors = [], []
    for i, c in enumerate(coeffs):
        try:
            v = c.valuation()
        except PrecisionLoss:
            floors.append((i, c.prec))
            continue
        if v is not INF:
            pts.append((i, v))
    if not pts or pts[-1][0] != d:
        raise PrecisionLoss("leading coefficient not certified nonzero")
    if pts[0][0] != 0:
        raise PrecisionLoss("constant coefficient not certified nonzero")
    hull = lower_hull(pts)

    def hull_value(x):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return y1 + (y2 - y1) * Fraction(x - x1, x2 - x1)
        return None

    for i, floor in floors:
        hv = hull_value(i)
        if hv is not None and floor < hv:
            raise PrecisionLoss(f"coefficient {i} cannot be certified above the Newton polygon")
    segs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        segs.append((-slope, x2 - x1, x1, x2))
    return segs, hull


def _scale_elt(desc: LocalFieldDesc, v: Fraction) -> FieldElement:
    """An exact monomial of valuation v (a power of p times a power of pi)."""
    if (v * desc.e_l).denominator != 1:
        raise InvalidValuation(f"valuation {v} not attainable")
    return _times_monomial(desc.from_int(1, INF), v)


def hensel_root(coeffs, x0: FieldElement, max_iter: int = 64) -> FieldElement:
    """Newton-lift a simple root from a starting point where the derivative
    is a unit relative to the function value."""
    deriv = poly_derivative(coeffs)
    x = x0
    last = None
    for _ in range(max_iter):
        fx = poly_eval(coeffs, x)
        if fx.is_zero_at_prec():
            return x
        v = fx.valuation()
        if last is not None and v <= last:
            return x
        last = v
        x = x - fx / poly_eval(deriv, x)
    return x


def roots_in_field(coeffs) -> list[FieldElement]:
    """All roots of a monic polynomial that lie in the field, assuming each
    Newton segment resolves into simple residue roots.

    Raises RootLiftingError when a segment cannot be resolved (repeated
    residue roots, slopes outside the value group, or residue fields too
    large to search).  Used by the eigenvalue machinery, which maps the
    failure onto its own unsupported-regime error.
    """
    desc = coeffs[0].desc
    segs, _hull = newton_slopes(coeffs)
    roots: list[FieldElement] = []
    unresolved = 0
    for val, length, i1, i2 in segs:
        if (val * desc.e_l).denominator != 1:
            unresolved += length
            continue
        u = _scale_elt(desc, val)
        scaled = [c * u ** i for i, c in enumerate(coeffs)]
        mu = min(c.val_floor() for c in scaled)
        mu = min(
            (c.valuation() for c in scaled if not c.is_zero_at_prec()),
            default=mu,
        )
        norm = _scale_elt(desc, -mu)
        h = [c * norm for c in scaled]
        res_poly = []
        for c in h:
            if c.is_zero_at_prec():
                res_poly.append((0,) * desc.f_l)
            else:
                res_poly.append(_residue_vec(c))
        if length == 1:
            a = res_poly[i1]
            b = res_poly[i1 + 1]
            rbar = _gfq_mul(desc, tuple(-c % desc.p for c in a), _gfq_inv(desc, b))
            starts = [rbar]
        else:
            qsize = desc.p ** desc.f_l
            if qsize > _RESIDUE_SEARCH_CAP:
                raise RootLiftingError("residue field too large for segment search")
            starts, saw_multiple = _simple_residue_roots(desc, res_poly)
            if saw_multiple:
                # a repeated residue root may hide any number of field roots
                unresolved += 1
        for rbar in starts:
            mant = [[0] * desc.f_l for _ in range(desc.e_l)]
            mant[0] = list(rbar)
            x0 = make_element(desc, mant, 0, min(c.prec for c in h))
            root_scaled = hensel_root(h, x0)
            roots.append(root_scaled * u)
    if unresolved:
        raise RootLiftingError(f"{unresolved} roots could not be resolved in the field")
    return roots


def _gfq_eval(desc: LocalFieldDesc, poly, vec):
    """Value at vec of a residue polynomial with ascending theta-vector coefficients."""
    acc = (0,) * desc.f_l
    power = (1,) + (0,) * (desc.f_l - 1)
    for c in poly:
        term = _gfq_mul(desc, c, power)
        acc = tuple((a + t) % desc.p for a, t in zip(acc, term))
        power = _gfq_mul(desc, power, vec)
    return acc


def _simple_residue_roots(desc: LocalFieldDesc, res_poly):
    """Nonzero simple roots of a residue polynomial by exhaustive search."""
    dres = [tuple(i * c % desc.p for c in vec) for i, vec in enumerate(res_poly)][1:]
    found = []
    saw_multiple = False
    for idx in range(1, desc.p ** desc.f_l):
        vec = []
        k = idx
        for _ in range(desc.f_l):
            vec.append(k % desc.p)
            k //= desc.p
        vec = tuple(vec)
        if not any(_gfq_eval(desc, res_poly, vec)):
            if any(_gfq_eval(desc, dres, vec)):
                found.append(vec)
            else:
                saw_multiple = True
    return found, saw_multiple
