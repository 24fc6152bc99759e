from fractions import Fraction

import pytest

from phinmod.coeff import DualNumber, GaloisShape, ProductElement
from phinmod.errors import FieldMismatch, ShapeMismatch
from phinmod.padic import INF
from util import sample_element


def pe(desc, shape, ints):
    return ProductElement.from_components(desc, shape, [desc.from_int(v, INF) for v in ints])


def test_shape_indexing():
    s = GaloisShape(e=2, f=3)
    assert s.n == 6
    assert [s.index(i, j) for (i, j) in s.sigmas()] == list(range(6))
    assert s.index(1, 0) == 2
    assert s.index(4, 1) == s.index(1, 1)


def test_component_count_enforced(q3):
    s = GaloisShape(2, 2)
    with pytest.raises(ShapeMismatch):
        pe(q3, s, [1, 2, 3])


def test_trace_is_frobenius_invariant(q3):
    # Frobenius shifts the slot index: slot i receives slot i - 1
    s = GaloisShape(1, 4)
    x = pe(q3, s, [3, -1, 7, 2])
    shifted = ProductElement.from_components(q3, s, [x.comps[s.index(i - 1, j)] for i, j in s.sigmas()])
    assert x.trace() == q3.from_int(11)
    assert shifted.trace() == x.trace()


def test_ring_operations_and_broadcast(q5_unr):
    s = GaloisShape(1, 2)
    x = pe(q5_unr, s, [2, 3])
    y = pe(q5_unr, s, [4, -1])
    assert (x + y) * x == x * x + y * x
    assert x * 2 == x + x
    assert 1 - x == -(x - 1)
    assert (x * y) / y == x
    assert x**3 == x * x * x
    assert x.inverse() * x == ProductElement.constant(q5_unr, s, 1)


def test_dual_number_arithmetic(q3):
    a = DualNumber(q3.from_int(2), q3.from_int(5))
    b = DualNumber(q3.from_int(3), q3.from_int(-1))
    prod = a * b
    assert prod.a0 == q3.from_int(6)
    assert prod.a1 == q3.from_int(2 * (-1) + 5 * 3)
    assert a * (b + 1) == a * b + a
    assert (a - b) + b == a


def test_dual_number_inverse_roundtrip(q3):
    x = DualNumber(sample_element(q3, 0, 7), sample_element(q3, 1, 8))
    one = x * x.inverse()
    assert one.a0 == q3.from_int(1)
    assert one.a1.is_zero_at_prec() or one.a1.is_exact_zero()
    assert (x / x).a0 == q3.from_int(1)


def test_dual_number_product_rule_over_products(q2):
    s = GaloisShape(1, 2)
    x = DualNumber(pe(q2, s, [3, 5]), pe(q2, s, [1, 0]))
    y = DualNumber(pe(q2, s, [7, 1]), pe(q2, s, [0, 2]))
    assert (x * y).a1 == x.a0 * y.a1 + x.a1 * y.a0
    assert (x * y).a1.trace() == q2.from_int(3 * 0 + 5 * 2 + 1 * 7 + 0 * 1)


def bits(x):
    """Everything a field element stores: mantissa, shift and floor."""
    return x.mant, x.shift, x.prec


def test_scalar_operands_follow_the_field_element_rule(q3):
    # components known to 100 digits, past the field's default of 60: an
    # exact int goes to each component's own arithmetic, as for x * 2
    s = GaloisShape(1, 2)
    xs = [q3.from_int(7, prec=100), q3.from_int(-4, prec=100)]
    x = ProductElement.from_components(q3, s, xs)
    two = q3.from_int(2, INF)
    cases = [
        (x * 2, [c * 2 for c in xs]),
        (2 * x, [c * 2 for c in xs]),
        (x * two, [c * two for c in xs]),
        (x + 1, [c + 1 for c in xs]),
        (1 - x, [1 - c for c in xs]),
        (x - two, [c - two for c in xs]),
        (x**3, [c**3 for c in xs]),
    ]
    for got, want in cases:
        assert [c.prec for c in got.comps] == [100, 100]
        assert [bits(c) for c in got.comps] == [bits(c) for c in want]
    # pe ** k is a ** k per component, for every k
    for k in (0, 1, 5, -3, 200000):
        assert [bits(c) for c in (x**k).comps] == [bits(c**k) for c in xs]
    assert ProductElement.constant(q3, s, 2) == x * 0 + 2
    assert ProductElement.constant(q3, s, 2).comps[0].prec == INF
    with pytest.raises(FieldMismatch):
        ProductElement.constant(q3, s, Fraction(1, 2))
    with pytest.raises(TypeError):
        x * Fraction(1, 2)


def test_dual_number_scalars_act_on_both_parts(q3):
    a0, a1 = q3.from_int(5, prec=100), q3.from_int(6, prec=100)
    d = DualNumber(a0, a1)
    assert [bits(c) for c in ((d * 2).a0, (d * 2).a1)] == [bits(a0 * 2), bits(a1 * 2)]
    assert bits((d + 1).a0) == bits(a0 + 1) and (d + 1).a1 is a1
    assert bits((d - 1).a0) == bits(a0 - 1) and (d - 1).a1 is a1
    assert bits((d / 2).a1) == bits(a1 / 2)
    assert DualNumber(q3.from_int(3), q3.zero()) == 3
    s = GaloisShape(1, 2)
    p = pe(q3, s, [1, 2])
    dp = DualNumber(p, p) * 2
    assert dp.a0 == p * 2 and dp.a1 == p * 2


def test_reprs_come_from_the_record_helper(q3):
    s = GaloisShape(1, 1)
    x = pe(q3, s, [1])
    assert repr(x).startswith("ProductElement(desc=LocalFieldDesc(p=3,")
    assert repr(DualNumber(x, x)).startswith("DualNumber(a0=ProductElement(")


def test_product_element_refuses_mixed_data(q3, q2):
    shape = GaloisShape(1, 2)
    pe = ProductElement.constant(q3, shape, 1)
    with pytest.raises(FieldMismatch, match="component from a different"):
        ProductElement.from_components(q3, shape, [q3.from_int(1), q2.from_int(1)])
    with pytest.raises(ShapeMismatch, match="different shapes"):
        pe + ProductElement.constant(q3, GaloisShape(2, 1), 1)
    with pytest.raises(FieldMismatch, match="mixing coefficient fields"):
        pe * ProductElement.constant(q2, shape, 1)


def test_exact_scalar_division_keeps_component_precision(q3):
    x = q3.from_int(1, prec=100)
    pe = ProductElement.constant(q3, GaloisShape(1, 2), x)
    assert [c.prec for c in (pe / 3).comps] == [99, 99]
    assert [c.prec for c in (pe / 2).comps] == [100, 100]
    d = DualNumber(x, q3.from_int(3, prec=100))
    assert ((d / 3).a0.prec, (d / 3).a1.prec) == (99, 99)
    assert ((d / 2).a0.prec, (d / 2).a1.prec) == (100, 100)
