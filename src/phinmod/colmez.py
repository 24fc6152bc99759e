"""First-order germs of parameter families and the differential identity.

A germ packs dual-number deformations of the slope unit (alpha), the
determinant-direction parameter (delta), and the weight vector (kappa),
together with the marked slopes at the center.  The main form combines
their derivatives; its vanishing is the first-order criterion the
coordinate cup-product condition reproduces through gamma_consistency.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import DualNumber, ProductElement
from .errors import (
    FieldMismatch,
    LevelMismatch,
    PrecisionLoss,
    ShapeMismatch,
    SingularDirection,
    ValidationError,
    ZeroEll,
)
from .padic import FieldElement


@dataclass(frozen=True)
class FamilyGerm:
    """Dual-number family data: alpha and delta over the coefficient field,
    kappa over the K-level product ring, ell the marked slopes at center."""

    alpha: DualNumber
    delta: DualNumber
    kappa: DualNumber
    ell: ProductElement

    def __post_init__(self):
        if not isinstance(self.alpha.a0, FieldElement) or not isinstance(
            self.delta.a0, FieldElement
        ):
            raise ValidationError("alpha and delta must be scalar dual numbers")
        if not isinstance(self.kappa.a0, ProductElement) or not isinstance(
            self.kappa.a1, ProductElement
        ):
            raise ValidationError("kappa must be a product-element dual number")
        if self.ell.level != "K" or self.kappa.a0.level != "K" or self.kappa.a1.level != "K":
            raise LevelMismatch("kappa and ell must live at the K level")
        if self.kappa.a0.shape != self.ell.shape:
            raise ShapeMismatch("kappa and ell use different shapes")
        descs = {
            id(self.alpha.a0.desc),
            id(self.delta.a0.desc),
            id(self.kappa.a0.desc),
            id(self.ell.desc),
        }
        if len(descs) != 1:
            raise FieldMismatch("germ components use different coefficient fields")

    @property
    def desc(self):
        return self.alpha.a0.desc

    @property
    def shape(self):
        return self.ell.shape


def _scalar_part(g: FamilyGerm) -> FieldElement:
    """alpha'/(f*alpha0) + delta'/2, after certifying the slope center alpha0
    is a unit."""
    desc = g.desc
    a0 = g.alpha.a0
    if a0.valuation() != 0:
        raise ValidationError("slope center must be a unit")
    return g.alpha.a1 / (desc.from_int(g.shape.f) * a0) + desc.from_rational(Fraction(1, 2)) * g.delta.a1


def colmez_form(g: FamilyGerm) -> FieldElement:
    """alpha'/(f*alpha0) + delta'/2 - (1/(2n)) tr(ell * kappa')."""
    scale = g.desc.from_rational(Fraction(1, 2 * g.shape.n))
    return _scalar_part(g) - scale * (g.ell * g.kappa.a1).trace()


def degenerate_form(g: FamilyGerm) -> FieldElement:
    """tr(ell * kappa'); defined whenever the marked slopes do not vanish."""
    if g.ell.is_zero():
        raise ZeroEll("the marked slopes vanish at the center")
    return (g.ell * g.kappa.a1).trace()


def gamma_consistency(g: FamilyGerm) -> tuple[ProductElement, FieldElement]:
    """Candidate exponential part gamma = -kappa'/2 and the residual of the
    form rewritten through the trace against gamma; the residual equals
    colmez_form identically."""
    scalar = _scalar_part(g)
    gamma = g.kappa.a1 * g.desc.from_rational(Fraction(-1, 2))
    return gamma, scalar + g.desc.from_rational(Fraction(1, g.shape.n)) * (gamma * g.ell).trace()


def solve_ell_scalar(g: FamilyGerm, direction: ProductElement) -> FieldElement:
    """Scale on the given direction making the form vanish when the marked
    slopes are s * direction; the trace of direction against kappa' must be
    a certified unit."""
    desc, shape = g.desc, g.shape
    if direction.level != "K":
        raise LevelMismatch("direction must be a K-level product element")
    if direction.shape != shape:
        raise ShapeMismatch("direction uses a different shape")
    top = _scalar_part(g)
    denom = (direction * g.kappa.a1).trace()
    try:
        if denom.valuation() != 0:
            raise SingularDirection("trace against the direction is not a unit")
    except PrecisionLoss as exc:
        raise SingularDirection("trace against the direction is not a unit at precision") from exc
    return desc.from_int(2 * shape.n) * top / denom
