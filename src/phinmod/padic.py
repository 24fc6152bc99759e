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

Precision model: each element carries an absolute precision floor, meaning
the element is known modulo everything of valuation >= floor.  Inside this
module floors and valuations are integer counts of pi-adic digits (units of
1/e_l), so the hot path never builds a Fraction; at the API (.prec,
.valuation(), .val_floor(), coefficients()) they are rationals with
denominator dividing the ramification degree.  A requested floor that is not
a multiple of 1/e_l is rounded up to the next digit, which names the same
lattice.  The literal zero from LocalFieldDesc.zero() is exact and reports
valuation and floor infinity; a computed value that merely reduced to zero
at its floor refuses to produce a valuation and raises PrecisionLoss
instead.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import (
    FieldMismatch,
    PrecisionLoss,
    RootLiftingError,
    ValidationError,
    ZeroInput,
)
from .record import frozen

INF = math.inf

DEFAULT_PRECISION = 60

# Brute-force residue root search is only attempted for residue fields up to
# this size; larger repeated-slope segments fail loudly instead.
_RESIDUE_SEARCH_CAP = 4096

# Distinct precisions whose coefficient moduli a tower keeps cached; a
# computation touches a few dozen, so the table is dropped when it overflows.
_MODULI_CACHE_SIZE = 1024


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


# Valuations up to this many are stripped by plain division; a larger one
# switches to the squaring strip, which needs O(log v) big divisions.
_PLAIN_STRIP = 4


def _vp(n: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer: plain division for the
    first few powers, then dividing by p, p^2, p^4, ... while the power
    divides, then by the same powers descending, a binary search for the
    rest of the valuation."""
    if n == 0:
        raise ZeroInput("valuation of integer zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == _PLAIN_STRIP:
            powers = []
            q, step = p, 1
            while n % q == 0:
                n //= q
                v += step
                powers.append((q, step))
                q, step = q * q, 2 * step
            # what is left of the valuation is below the last step tried
            for q, step in reversed(powers):
                if n % q == 0:
                    n //= q
                    v += step
            break
    return v


# Miller-Rabin to the first 13 prime bases has no strong pseudoprime below
# MAX_P (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017), so primality below it is certified, not probable.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_P = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every n < MAX_P."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _theta_mul(u, v, f, m=None) -> list[int]:
    """Product of two length-n vectors in Z[theta]/(f), f monic of degree n
    with ascending integer coefficients: the convolution, folded from the
    top by theta^n = -(f_0 + ... + f_{n-1} theta^{n-1}); exact, or reduced
    modulo m when m is given."""
    n = len(f) - 1
    conv = [0] * (2 * n - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                conv[i + j] += ui * vj
    for k in range(2 * n - 2, n - 1, -1):
        c = conv[k] if m is None else conv[k] % m
        if c:
            for i in range(n):
                conv[k - n + i] -= c * f[i]
    return conv[:n] if m is None else [c % m for c in conv[:n]]


def _irreducible_mod_p(poly, p: int) -> bool:
    """Distinct-degree test (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 14) for a monic polynomial with ascending integer
    coefficients over F_p, p prime: f of degree n is irreducible iff
    gcd(x^(p^k) - x, f) = 1 for k = 1 ... floor(n/2), since x^(p^k) - x is
    the product of the monic irreducibles of degree dividing k and a
    reducible f has a factor of degree at most n/2."""
    f = [c % p for c in poly]
    n = len(f) - 1

    def frobenius(a):
        # a^p by square-and-multiply, most significant bit first
        out = a
        for bit in bin(p)[3:]:
            out = _theta_mul(out, out, f, p)
            if bit == "1":
                out = _theta_mul(out, a, f, p)
        return out

    def coprime_to_f(a):
        # Euclid over F_p on ascending lists; a has degree < n
        u, v = f, a
        while True:
            while v and v[-1] == 0:
                v = v[:-1]
            if not v:
                return len(u) == 1
            inv = pow(v[-1], -1, p)
            u = list(u)
            while len(u) >= len(v):
                c = u[-1] * inv % p
                shift = len(u) - len(v)
                for i, vi in enumerate(v):
                    u[shift + i] = (u[shift + i] - c * vi) % p
                u.pop()
                while u and u[-1] == 0:
                    u.pop()
            u, v = v, u

    h = [0, 1] + [0] * (n - 2)  # x, the start of x^(p^k)
    for _ in range(n // 2):
        h = frobenius(h)
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        if not coprime_to_f(h_minus_x):
            return False
    return True


# normalized tower parameters -> the one descriptor built from them
_INTERNED: dict = {}


@frozen(init=False)
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

    def __new__(cls, p, f_l, e_l, unram_poly, eis_poly, default_prec=DEFAULT_PRECISION):
        up = tuple(int(c) for c in unram_poly)
        ep = tuple(
            tuple(int(c) for c in row) if isinstance(row, (tuple, list)) else (int(row),) + (0,) * (f_l - 1)
            for row in eis_poly
        )
        key = (p, f_l, e_l, up, ep, default_prec)
        found = _INTERNED.get(key)
        if found is not None:
            return found
        self = object.__new__(cls)
        for name, value in zip(("p", "f_l", "e_l", "unram_poly", "eis_poly", "default_prec"), key):
            object.__setattr__(self, name, value)
        self.__post_init__()
        # a concurrent construction of the same tower may have won the race;
        # only a fully certified descriptor is ever published
        return _INTERNED.setdefault(key, self)

    def __reduce__(self):
        # copies and unpickled descriptors are interned like any construction
        return (LocalFieldDesc, (self.p, self.f_l, self.e_l, self.unram_poly, self.eis_poly, self.default_prec))

    def __post_init__(self):
        # p < 2 fails the primality certificate
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
        object.__setattr__(self, "_mul_table", self._build_mul_table())
        object.__setattr__(self, "_moduli_cache", {})
        object.__setattr__(self, "_zero", None)
        object.__setattr__(self, "_one", None)

    # -- construction-time certification ---------------------------------

    def _certify(self) -> None:
        if self.p >= MAX_P:
            raise ValidationError(f"p must be below {MAX_P}, where primality is certified")
        if not _is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if not _irreducible_mod_p(self.unram_poly, self.p):
            raise ValidationError("unramified polynomial is not irreducible modulo p")
        for i, row in enumerate(self.eis_poly[:-1]):
            vals = [_vp(c, self.p) for c in row if c != 0]
            vmin = min(vals) if vals else None
            if i == 0:
                if vmin != 1:
                    raise ValidationError("Eisenstein constant term must have valuation exactly 1")
            elif vmin is not None and vmin < 1:
                raise ValidationError(f"Eisenstein coefficient {i} has valuation below 1")

    # -- reduction table --------------------------------------------------

    def _build_mul_table(self):
        # the products of basis monomials reduced onto the basis, flat
        # indices a*f + b for pi^a theta^b: one (i, j, r, t) per nonzero
        # term, monomial i times monomial j having coefficient t at index r.
        # Each pi^a theta^b, a <= 2e-2 and b <= 2f-2, is formed once: theta^b
        # by theta-multiplication, then pi step by step, the pi^e row folded
        # by pi^e = -(eis_0 + ... + eis_{e-1} pi^{e-1}).
        e, f, up = self.e_l, self.f_l, self.unram_poly
        neg = [[-c for c in row] for row in self.eis_poly[:e]]
        theta_b = [1] + [0] * (f - 1)
        products = []  # products[b][a]: the nonzero (index, coefficient) of pi^a theta^b
        for b in range(2 * f - 1):
            if b:
                theta_b = _theta_mul(theta_b, [0, 1] + [0] * (f - 2), up)
            rows = [theta_b] + [[0] * f] * (e - 1)
            powers = []
            for a in range(2 * e - 1):
                if a:
                    top, rows = rows[-1], [[0] * f] + rows[:-1]
                    if any(top):
                        rows = [list(map(operator.add, row, _theta_mul(top, c, up))) for row, c in zip(rows, neg)]
                powers.append(tuple((r, t) for r, t in enumerate(c for row in rows for c in row) if t))
            products.append(powers)
        basis = [(a, b) for a in range(e) for b in range(f)]
        return tuple(
            (i, j, r, t)
            for i, (a1, b1) in enumerate(basis)
            for j, (a2, b2) in enumerate(basis)
            for r, t in products[b1 + b2][a1 + a2]
        )

    def _moduli(self, k: int) -> tuple[int, ...]:
        """Per-coefficient moduli of the lattice pi^k O on the flat monomial
        basis: p^ceil((k - a)/e_l) for the pi^a entries, 1 where a row
        vanishes.  One cached tuple per k."""
        mods = self._moduli_cache.get(k)
        if mods is None:
            e, f, p = self.e_l, self.f_l, self.p
            mods = tuple(p ** max(0, _ceil_div(k - a, e)) for a in range(e) for _ in range(f))
            if len(self._moduli_cache) >= _MODULI_CACHE_SIZE:
                self._moduli_cache.clear()
            self._moduli_cache[k] = mods
        return mods

    # -- basic constructors ----------------------------------------------

    @property
    def degree(self) -> int:
        return self.e_l * self.f_l

    def _digits(self, prec):
        """An absolute precision (None for the default) as a count of
        pi-adic digits, rounded up to the next one; INF stays INF."""
        if prec is None:
            return self.default_prec * self.e_l
        if prec == INF:
            return INF
        return math.ceil(Fraction(prec) * self.e_l)

    def zero(self) -> "FieldElement":
        z = self._zero
        if z is None:
            z = FieldElement(self, (0,) * self.degree, 0, INF)
            object.__setattr__(self, "_zero", z)
        return z

    def one(self) -> "FieldElement":
        o = self._one
        if o is None:
            o = self.from_int(1)
            object.__setattr__(self, "_one", o)
        return o

    def _monomial_mant(self, index: int, c: int) -> list[int]:
        mant = [0] * self.degree
        mant[index] = c
        return mant

    def from_int(self, n: int, prec=None) -> "FieldElement":
        n = int(n)
        if n == 0:
            return self.zero()
        return make_element(self, self._monomial_mant(0, n), 0, self._digits(prec))

    def from_rational(self, r, prec=None) -> "FieldElement":
        return self.element([[r] + [0] * (self.f_l - 1)] + [[0] * self.f_l] * (self.e_l - 1), prec)

    def uniformizer(self, prec=None) -> "FieldElement":
        if self.e_l == 1:
            # pi is the negated Eisenstein constant term, a valuation-1 scalar
            mant = [-c for c in self.eis_poly[0]]
        else:
            mant = self._monomial_mant(self.f_l, 1)
        return make_element(self, mant, 0, self._digits(prec))

    def element(self, coords, prec=None) -> "FieldElement":
        """Build an element from a 2-D array of rationals indexed [pi-power][theta-power].

        Each nonzero coordinate num / (d p^s), d prime to p, is written over
        the largest p^s, d inverted modulo p^max(1, ceil(k/e_l) + s + 1), k
        the digits of prec; one make_element reduces the mantissa at the
        floor k plus the lowest pi-row used, the floor of the sum of the
        coordinates times their exact monomials.  All zeros: the exact zero."""
        rows = [list(r) if isinstance(r, (tuple, list)) else [r] for r in coords]
        if len(rows) != self.e_l or any(len(r) != self.f_l for r in rows):
            raise ValidationError("coordinate array must be e_l rows of f_l entries")
        p, k = self.p, self._digits(prec)
        mant, pows = [0] * self.degree, [0] * self.degree
        for i, c in enumerate(Fraction(x) for row in rows for x in row):
            if c:
                num, den = c.numerator, c.denominator
                s = _vp(den, p) if den % p == 0 else 0
                den //= p**s
                if den != 1:
                    if k is INF:
                        raise ValidationError("cannot invert a denominator at infinite precision")
                    num *= pow(den, -1, p ** max(1, _ceil_div(k, self.e_l) + s + 1))
                mant[i], pows[i] = num, s
        if not any(mant):
            return self.zero()
        shift, low = max(pows), next(i for i, m in enumerate(mant) if m) // self.f_l
        mant = [m * p ** (shift - s) for m, s in zip(mant, pows)]
        return make_element(self, mant, shift, k if k is INF else k + low)


def make_element(desc: LocalFieldDesc, mant, shift: int, k) -> "FieldElement":
    """Canonical constructor from a flat mantissa (index a*f_l + b), a p-power
    shift >= 0 and an absolute floor of k pi-adic digits (INF when exact):
    caps each coefficient at the lattice pi^k, so any surviving coefficient
    has valuation below the floor, and strips common powers of p between the
    mantissa and the shift."""
    if k is not INF:
        k_mant = k + desc.e_l * shift
        mant = tuple(map(operator.mod, mant, desc._moduli_cache.get(k_mant) or desc._moduli(k_mant)))
    else:
        mant = tuple(mant)
    if shift:
        g = math.gcd(*mant)
        if not g:
            shift = 0
        elif g % desc.p == 0:
            # at most shift powers of p come out, so plain division
            p, t = desc.p, 0
            while t < shift and g % p == 0:
                g //= p
                t += 1
            q = p**t
            mant = tuple(c // q for c in mant)
            shift -= t
    return FieldElement(desc, mant, shift, k)


class FieldElement:
    """An element of the coefficient field, known modulo valuation >= prec.

    mant is a flat tuple of integers indexed a*f_l + b; the element is
    (1/p^shift) * sum of mant[a*f_l + b] * pi^a * theta^b.  The absolute
    floor is kept as k pi-adic digits (INF when exact) and exposed as the
    rational .prec.  Instances are produced canonically by make_element and
    must be treated as immutable; the valuation is computed once, on demand.
    """

    __slots__ = ("desc", "mant", "shift", "_k", "_v")

    def __init__(self, desc: LocalFieldDesc, mant: tuple[int, ...], shift: int, k):
        self.desc = desc
        self.mant = mant
        self.shift = shift
        self._k = k
        self._v = None

    @property
    def prec(self) -> Fraction | float:
        k = self._k
        return INF if k is INF else Fraction(k, self.desc.e_l)

    # -- predicates -------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self._k is INF and not any(self.mant)

    def is_zero_at_prec(self) -> bool:
        """True when no stored coefficient certifies the element nonzero."""
        return not any(self.mant)

    # -- valuation --------------------------------------------------------

    def _val(self):
        """Valuation in pi-adic digits: INF for the literal zero, None when
        the element is indistinguishable from zero at its floor."""
        v = self._v
        if v is None:
            if not any(self.mant):
                return INF if self._k is INF else None
            v = self._v = _mant_val(self.desc, self.mant, self.shift)
        return v

    def _certified_val(self):
        v = self._val()
        if v is None:
            raise PrecisionLoss(f"element indistinguishable from zero at precision {self.prec}")
        return v

    def _floor(self):
        """Certified lower bound for the valuation, in pi-adic digits."""
        v = self._val()
        return self._k if v is None else v

    def valuation(self) -> Fraction | float:
        """Exact valuation; INF for the literal zero; PrecisionLoss when the
        element is indistinguishable from zero at its floor."""
        v = self._certified_val()
        return INF if v is INF else Fraction(v, self.desc.e_l)

    def val_floor(self) -> Fraction | float:
        """Certified lower bound for the valuation (the valuation itself when
        available, the precision floor otherwise)."""
        v = self._floor()
        return INF if v is INF else Fraction(v, self.desc.e_l)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.desc is not self.desc:
                raise FieldMismatch("operands belong to different fields")
            return other
        if isinstance(other, int):
            return self.desc.from_int(other, INF)
        return None

    def _combine(self, other, op):
        """self op other for op operator.add or operator.sub, on the
        mantissas brought to the larger shift."""
        if other.__class__ is not FieldElement or other.desc is not self.desc:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if other.is_exact_zero():
            return self
        if self.is_exact_zero():
            return other if op is operator.add else -other
        mant, s = _combined(self.desc, self.mant, self.shift, other.mant, other.shift, op)
        return make_element(self.desc, mant, s, min(self._k, other._k))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        if self.is_exact_zero():
            return self
        return make_element(self.desc, [-c for c in self.mant], self.shift, self._k)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, operator.sub)

    def __mul__(self, other):
        o = other
        if o.__class__ is not FieldElement or o.desc is not self.desc:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if (self._k is INF and not any(self.mant)) or (o._k is INF and not any(o.mant)):
            return self.desc.zero()
        return make_element(self.desc, *_product(self, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._k is INF and self._k is not INF and self._val() is not None:
            # an exact divisor is inverted to the dividend's relative
            # precision, so the quotient keeps every digit the dividend has
            o = make_element(self.desc, o.mant, o.shift, self._k - self._val() + o._val())
        return self * o.inverse()

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

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: the unit part x / (monomial of valuation
        v) is inverted by one multiplication-matrix solve (_unit_inverse),
        then divided by the monomial.  Relative precision is preserved.  The
        unit 1 needs no solve: the exact 1 gives desc.one(), a 1 at a floor itself."""
        if self.is_exact_zero():
            raise ZeroInput("inverting exact zero")
        desc = self.desc
        one = desc.one()
        if self.mant == one.mant and not self.shift:
            return one if self._k is INF else self
        v = self._certified_val()
        unit = _times_monomial(self, -v)
        # the relative precision in digits; a certified valuation lies at
        # least one digit below the floor, so rel >= 1
        rel = unit._k
        if rel is INF:
            rel = desc._digits(None)
            unit = make_element(desc, unit.mant, unit.shift, rel)
        # x^{-1} = unit^{-1} * (monomial of valuation -v); make_element
        # stores a unit with shift 0, its mantissa integral
        return _times_monomial(make_element(desc, _unit_inverse(desc, unit.mant, rel), 0, rel), -v)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # equal at the lower floor exactly when the difference reduces to zero
        return not any((self - o).mant)

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
        d = self.desc.p ** self.shift
        f = self.desc.f_l
        m = self.mant
        return tuple(tuple(Fraction(c, d) for c in m[i : i + f]) for i in range(0, len(m), f))


def _mant_val(desc: LocalFieldDesc, mant, shift: int):
    """Valuation in pi-adic digits of (1/p^shift) * mant, a flat mantissa
    with at least one nonzero coefficient: the least per-monomial
    valuation, each pi-row's theta-combination being a unit times its gcd."""
    p, e, f = desc.p, desc.e_l, desc.f_l
    if e == 1:
        g = math.gcd(*mant)
        return (_vp(g, p) if g % p == 0 else 0) - shift
    v = None
    for a in range(e):
        g = math.gcd(*mant[a * f : (a + 1) * f])
        if g:
            n = a - e * shift
            if g % p == 0:
                n += e * _vp(g, p)
            if v is None or n < v:
                v = n
    return v


def _raw_mul(desc: LocalFieldDesc, x, y) -> list[int]:
    """Product of two flat mantissas on the monomial basis, exact integers."""
    if len(x) == 1:
        return [x[0] * y[0]]  # Q_p: the basis is {1}
    out = [0] * len(x)
    for i, j, r, t in desc._mul_table:
        out[r] += x[i] * y[j] * t
    return out


# ---------------------------------------------------------------------------
# fused kernels: a product and a sum formed on raw mantissas, reduced once
#
# The floor of x*y is min(v(x) + k_y, v(y) + k_x), an exact factor adding
# no floor of its own, and the floor of a sum is the least floor of its
# terms (Caruso, Roe and Vaccon, arXiv:1402.0619).  make_element's result,
# the mantissa reduced modulo the lattice pi^k and stripped of common powers
# of p, names the value modulo that lattice and does not depend on the
# shift at which the value is formed.  Reducing a term first, modulo its
# own finer lattice, therefore changes nothing: these kernels return the
# very bits of the two-step loops, with one make_element instead of two per
# term.


def _product(x: FieldElement, y: FieldElement):
    """(mantissa, shift, floor) of x*y before its reduction, for factors
    that are not the exact zero; a valuation not yet computed is computed
    once and cached, one known only to a floor stands at that floor."""
    kx, ky = x._k, y._k
    if kx is INF:
        if ky is INF:
            k = INF
        else:
            v = x._v
            k = (x._floor() if v is None else v) + ky
    else:
        v = y._v
        k = (y._floor() if v is None else v) + kx
        if ky is not INF:
            v = x._v
            k = min(k, (x._floor() if v is None else v) + ky)
    return _raw_mul(x.desc, x.mant, y.mant), x.shift + y.shift, k


def _combined(desc: LocalFieldDesc, a, s: int, b, t: int, op):
    """(a / p^s) op (b / p^t) for flat mantissas: the mantissa at the larger
    shift, and that shift."""
    if s == t:
        return list(map(op, a, b)), s
    if s > t:
        q = desc.p ** (s - t)
        return [op(x, y * q) for x, y in zip(a, b)], s
    q = desc.p ** (t - s)
    return [op(x * q, y) for x, y in zip(a, b)], t


def _sub_mul(x: FieldElement, f: FieldElement, y: FieldElement) -> FieldElement:
    """x - f*y, reduced once; x itself when f or y is the exact zero."""
    if (f._k is INF and not any(f.mant)) or (y._k is INF and not any(y.mant)):
        return x
    prod, s, k = _product(f, y)
    mant, s = _combined(x.desc, x.mant, x.shift, prod, s, operator.sub)
    return make_element(x.desc, mant, s, min(x._k, k))


def _mul_add(acc: FieldElement, x: FieldElement, c: FieldElement) -> FieldElement:
    """The Horner step acc*x + c, reduced once; c itself when acc or x is
    the exact zero."""
    if (acc._k is INF and not any(acc.mant)) or (x._k is INF and not any(x.mant)):
        return c
    prod, s, k = _product(acc, x)
    mant, s = _combined(x.desc, prod, s, c.mant, c.shift, operator.add)
    return make_element(x.desc, mant, s, min(k, c._k))


def _dot(u, v) -> FieldElement:
    """Sum of the products x*y over a nonempty pair of vectors, reduced
    once; a term with an exact-zero factor is the exact zero and is
    skipped, and the sum of no terms is the exact zero."""
    desc = u[0].desc
    acc = None
    for x, y in zip(u, v):
        if (x._k is INF and not any(x.mant)) or (y._k is INF and not any(y.mant)):
            continue
        prod, t, kt = _product(x, y)
        if acc is None:
            acc, s, k = prod, t, kt
        else:
            acc, s = _combined(desc, acc, s, prod, t, operator.add)
            k = min(k, kt)
    return desc.zero() if acc is None else make_element(desc, acc, s, k)


def _times_monomial(x: FieldElement, n: int) -> FieldElement:
    """x times the monomial p^q * pi^r of valuation n/e_l, n = q*e_l + r with
    0 <= r < e_l."""
    if not n:
        return x
    desc = x.desc
    q, r = divmod(n, desc.e_l)
    return _scaled(x, desc._monomial_mant(r * desc.f_l, 1) if r else None, q, n)


def _scaled(x: FieldElement, mono, q: int, n: int) -> FieldElement:
    """x times p^q and the integral mantissa mono (None for 1) of an exact
    monomial product of valuation n digits, in one make_element: mono
    multiplies the mantissa, p^q moves the shift, the floor rises by n."""
    if (mono is None and not q) or (x._k is INF and not any(x.mant)):
        return x
    desc = x.desc
    mant = x.mant if mono is None else _raw_mul(desc, x.mant, mono)
    s = x.shift - q
    if s < 0:
        m = desc.p**-s
        mant = [c * m for c in mant]
        s = 0
    k = x._k
    return make_element(desc, mant, s, k if k is INF else k + n)


def _residue_vec(x: FieldElement) -> tuple[int, ...]:
    """Residue of an integral element as a theta-vector mod p."""
    p = x.desc.p
    # x is integral, so p^shift divides the pi^0 row of its mantissa
    q = p**x.shift
    return tuple(c // q % p for c in x.mant[: x.desc.f_l])


def _residue_inverse(desc: LocalFieldDesc, u) -> list[int]:
    """Inverse modulo pi of a nonzero residue theta-vector, as a flat mantissa."""
    if desc.f_l == 1:
        return [pow(u[0], -1, desc.p)] + [0] * (desc.degree - 1)
    return _unit_inverse(desc, list(u) + [0] * (desc.degree - desc.f_l), 1)


def _inverse_mod(c: int, mod: int) -> int:
    """Inverse modulo mod = p^top of an integer prime to p."""
    return pow(c, -1, mod)


def _unit_inverse(desc: LocalFieldDesc, c, k: int) -> list[int]:
    """Inverse of a unit with integral flat mantissa c, known to k >= 1
    pi-adic digits, as the flat mantissa y of an integral element.

    The monomial basis is a Z_p-basis of the integers O, so u^{-1} is the
    solution y of M_u y = e_0, where column j of the multiplication matrix
    M_u holds u times basis monomial j (read off the descriptor's product
    table).  The system is solved modulo p^top, top = ceil(k/e_l): forward
    elimination on unit pivots, scaling rows by those units instead of
    dividing, then back-substitution, with every pivot inverted through one
    scalar inverse of their product.  det M_u is the norm of u, a p-adic
    unit, so every column offers a unit pivot.  On Q_p this is the 1x1
    case, one scalar inverse.  The result is checked, M_u y == e_0 at k
    digits (M_u y is u*y, the same integers), before it is used."""
    p, n = desc.p, desc.degree
    moduli = desc._moduli(k)
    mod = moduli[0]  # p^top, which lies in the lattice pi^k O
    if n == 1:
        # Q_p: M_u is the 1x1 matrix (c_0), one scalar inverse
        if not c[0] % p:
            raise PrecisionLoss("multiplication matrix of a unit has no unit pivot")
        return _checked_inverse([[c[0]]], [_inverse_mod(c[0] % mod, mod) % mod], moduli)
    # rows of M_u, kept for the check; the elimination rewrites a copy
    # augmented with e_0, the coordinates of 1
    mu = [[0] * n for _ in range(n)]
    for i, j, r, t in desc._mul_table:
        mu[r][j] += c[i] * t
    m = [row + [0] for row in mu]
    m[0][n] = 1
    # prefix[i] = d_0 ... d_{i-1}, the product of the first i pivots
    prefix = [1]
    for col in range(n):
        prow = m[col]
        if not prow[col] % p:
            for piv in range(col + 1, n):
                if m[piv][col] % p:
                    break
            else:
                raise PrecisionLoss("multiplication matrix of a unit has no unit pivot")
            prow, m[piv] = m[piv], prow
            m[col] = prow
        d = prow[col]
        prefix.append(prefix[col] * d % mod)
        if col + 1 < n:
            head = prow[col + 1 :]
            for row in m[col + 1 :]:
                f = row[col]
                if f:
                    row[col + 1 :] = [(d * x - f * h) % mod for x, h in zip(row[col + 1 :], head)]
    # inv runs through 1/(d_0 ... d_i) for i = n-1 down to 0
    inv = _inverse_mod(prefix[n], mod)
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        s = row[n]
        for j in range(i + 1, n):
            s -= row[j] * y[j]
        y[i] = s * inv * prefix[i] % mod
        if i:
            inv = inv * row[i] % mod
    return _checked_inverse(mu, y, moduli)


def _checked_inverse(mu, y, moduli) -> list[int]:
    """y, once M_u y == e_0, that is u*y == 1, holds modulo the lattice
    whose moduli are given; mu holds the rows of M_u."""
    check = [sum(map(operator.mul, row, y)) for row in mu]
    check[0] -= 1
    if any(map(operator.mod, check, moduli)):
        raise PrecisionLoss("unit inverse failed its check u*y == 1")
    return y


# ---------------------------------------------------------------------------
# polynomials over the field: evaluation, Newton polygon, simple-root lifting


def poly_eval(coeffs, x: FieldElement) -> FieldElement:
    """Horner evaluation at x of field-element coefficients, ascending."""
    out = x.desc.zero()
    for c in reversed(list(coeffs)):
        out = _mul_add(out, x, c)
    return out


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

    Returns a list of (drop, run, x1, x2) segments, the hull running from
    index x1 to x2 = x1 + run and falling by drop pi-adic digits, so the
    run roots of the segment have valuation drop/run digits.  Coefficients
    indistinguishable from zero are fine as long as their precision floors
    certify that they lie above the hull.  The exact zero as constant
    coefficient, a root no precision removes, raises ZeroInput.
    """
    if coeffs[0].is_exact_zero():
        raise ZeroInput("constant coefficient is the exact zero")
    pts, floors = [], []
    for i, c in enumerate(coeffs):
        v = c._val()
        if v is None:
            floors.append((i, c._k))
        elif v is not INF:
            pts.append((i, v))
    if pts[0][0] != 0:
        raise PrecisionLoss("constant coefficient not certified nonzero")
    hull = lower_hull(pts)

    def below_hull(x, floor):
        # floor < the hull's value at x, cross-multiplied by the run x2 - x1
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return floor * (x2 - x1) < y1 * (x2 - x1) + (y2 - y1) * (x - x1)

    for i, floor in floors:
        if below_hull(i, floor):
            raise PrecisionLoss(f"coefficient {i} cannot be certified above the Newton polygon")
    return [(y1 - y2, x2 - x1, x1, x2) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def hensel_root(coeffs, x0: FieldElement) -> FieldElement:
    """Newton-lift a simple residue root: from a start x0 where f'(x0) is a
    unit and f(x0) is not, the root of f it singles out.

    x0 and the coefficients are integral (shift 0) and no coefficient is
    known to fewer digits than K, the floor of x0, so a unit f'(x0) pins
    the root modulo pi^K.  An exact x0 on exact coefficients lifts to K the
    default digits plus v(f(x0)), or is returned when f(x0) is zero.

    The lift runs on flat mantissas up a doubling ladder (von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 9): step x <- x - f(x) w
    takes f(x) = 0 modulo pi^t, t = v(f(x0)) at first, to pi^(t+s), s <= t,
    so only the last step works at K digits.  w ~ 1/f'(x) starts as the
    residue-field inverse of f'(x0) and is refreshed one step behind x,
    w <- w(2 - f'(x) w) (Caruso-Roe-Vaccon, arXiv:1402.0619), to the s
    digits the step needs.  One Horner pass per step gives f and f'.

    Returns only a root certified by f(x) == 0 on field elements.  Raises
    RootLiftingError for any other start: a non-integral one, coefficients
    known to too few digits, a derivative that is not a unit, or a unit
    f(x0), which fails Hensel's condition v(f(x0)) > 2 v(f'(x0)).  A
    residual outside the lattice pi^t a step promised: PrecisionLoss."""
    desc, k = x0.desc, x0._k
    if x0.shift or any(c.shift or c._k < k for c in coeffs):
        raise RootLiftingError("Newton lift needs integral coefficients known to an integral start's floor")
    f = [c.mant for c in coeffs]
    x = x0.mant
    r, d = _horner(desc, f, x)
    if k is INF:
        if not any(r):
            return x0
        k = desc._digits(None) + _mant_val(desc, r, 0)
    # f'(x0) modulo pi, or modulo pi^K when K < 1, where it vanishes
    dbar = list(map(operator.mod, d, desc._moduli(min(k, 1))))
    if not any(dbar):
        raise RootLiftingError("start point is not a simple residue root")
    r = list(map(operator.mod, r, desc._moduli(k)))
    if any(r):
        t = _mant_val(desc, r, 0)
        if not t:
            raise RootLiftingError("start point fails Hensel's condition")
        w, e = _residue_inverse(desc, dbar[: desc.f_l]), 1  # w f'(x) == 1 modulo pi^e
        s = min(2 * e, t, k - t)
        while True:
            x, w = _newton_step(desc, x, w, r, d, t, s, e)
            t, e = t + s, s
            if t == k:
                break
            s = min(2 * e, t, k - t)
            r, d = _horner(desc, f, x, desc._moduli(t + s))
    root = make_element(desc, x, 0, k)
    if not poly_eval(coeffs, root).is_zero_at_prec():
        raise PrecisionLoss("Hensel lift failed its check f(x) == 0")
    return root


def _newton_step(desc: LocalFieldDesc, x, w, r, d, t: int, s: int, e: int):
    """One rung: from r = f(x) == 0 mod pi^t, d = f'(x), w d == 1 mod pi^e
    and s <= min(2e, t), w refreshed to s digits and x <- x - r w, so that
    f(x) == 0 mod pi^(t+s) and w f'(x) == 1 mod pi^s.  Returns (x, w)."""
    if any(map(operator.mod, r, desc._moduli(t))):
        raise PrecisionLoss(f"Newton lift stalled: residual not in the lattice of {Fraction(t, desc.e_l)}")
    if s > e:
        dw = _raw_mul(desc, d, w)
        dw[0] -= 2
        w = [-c % m for c, m in zip(_raw_mul(desc, w, dw), desc._moduli(s))]
    x = list(map(operator.mod, map(operator.sub, x, _raw_mul(desc, r, w)), desc._moduli(t + s)))
    return x, w


def _horner(desc: LocalFieldDesc, poly, x, mods=None):
    """(f(x), f'(x)) at the flat mantissa x of a polynomial with
    flat-mantissa coefficients, ascending, in one Horner pass: exact, or
    with f(x) reduced by the given moduli at every step."""
    fx, dx, dxx = poly[-1], None, None
    for c in reversed(poly[:-1]):
        fxx = _raw_mul(desc, fx, x)
        if dx is None:  # f' starts as the leading coefficient fx, times x fxx
            dx, dxx = fx, fxx
        else:
            dx = list(map(operator.add, dxx or _raw_mul(desc, dx, x), fx))
            dxx = None
        fx = list(map(operator.add, fxx, c))
        if mods is not None:
            fx = list(map(operator.mod, fx, mods))
    return fx, dx or [0] * len(x)


def roots_in_field(coeffs) -> list[FieldElement]:
    """All roots of a monic polynomial that lie in the field, assuming each
    Newton segment resolves into simple residue roots.

    A segment of root valuation n digits is brought to valuation 0 as f(uT),
    u the monomial p^q pi^r of valuation n, times the monomial of valuation
    -mu, mu the least coefficient valuation.  Valuations and floors come
    from digit counts; the monomials multiply each mantissa once on integers
    and p-powers only move shifts.  Each simple residue root is lifted by
    hensel_root and scaled back by u; a segment of length L must yield at
    most L pairwise distinct roots.

    Raises RootLiftingError when a segment cannot be resolved (repeated
    residue roots, slopes outside the value group, residue fields too large
    to search) or yields a wrong root count; the eigenvalue machinery maps
    it onto its unsupported-regime error.  A residue polynomial not
    determined at the working precision raises PrecisionLoss.
    """
    desc = coeffs[0].desc
    e, f = desc.e_l, desc.f_l
    vals = [c._val() for c in coeffs]
    roots: list[FieldElement] = []
    unresolved = 0
    for drop, length, i1, _ in newton_slopes(coeffs):
        n, off_grid = divmod(drop, length)
        if off_grid:
            unresolved += length
            continue
        # coefficient i takes u^i, the monomial of valuation n*i only if pi^e_l = p
        mu = min(v + n * i for i, v in enumerate(vals) if v is not None and v is not INF)
        q, r = divmod(n, e)
        q0, r0 = divmod(-mu, e)
        pi_r = desc._monomial_mant(r * f, 1) if r else None
        mono = desc._monomial_mant(r0 * f, 1) if r0 else None
        h = []
        for i, c in enumerate(coeffs):
            h.append(_scaled(c, mono, q * i + q0, n * i - mu))
            if pi_r is not None:
                mono = pi_r if mono is None else _raw_mul(desc, mono, pi_r)
        k = min(c._k for c in h)
        if k < 1:
            raise PrecisionLoss("residue polynomial of a Newton segment not determined at this precision")
        res_poly = [(0,) * f if c.is_zero_at_prec() else _residue_vec(c) for c in h]
        if length == 1:
            b_inv = _residue_inverse(desc, res_poly[i1 + 1])[:f]
            starts = [_theta_mul([-c for c in res_poly[i1]], b_inv, desc.unram_poly, desc.p)]
        else:
            if desc.p**f > _RESIDUE_SEARCH_CAP:
                raise RootLiftingError("residue field too large for segment search")
            starts, saw_multiple = _simple_residue_roots(desc, res_poly)
            if saw_multiple:
                # a repeated residue root may hide any number of field roots
                unresolved += 1
        found = []
        for rbar in starts:
            x0 = make_element(desc, list(rbar) + [0] * (desc.degree - f), 0, k)
            found.append(_times_monomial(hensel_root(h, x0), n))
        if len(found) > length or any(a == b for i, a in enumerate(found) for b in found[:i]):
            raise RootLiftingError(f"a Newton segment of length {length} yielded {len(found)} roots or one root twice")
        roots += found
    if unresolved:
        raise RootLiftingError(f"{unresolved} roots could not be resolved in the field")
    return roots


def _gfq_eval(desc: LocalFieldDesc, poly, vec):
    """Value at vec of a residue polynomial with ascending theta-vector
    coefficients, by Horner."""
    acc = [0] * desc.f_l
    for c in reversed(poly):
        acc = [(a + t) % desc.p for a, t in zip(_theta_mul(acc, vec, desc.unram_poly), c)]
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
