"""Tests for the exact Laurent / rational-function core."""

import math
from fractions import Fraction

import pytest

from stringymass import (
    INFINITY,
    L,
    ONE,
    ZERO,
    ExtendedMotivic,
    GeometricStrand,
    MotivicElement,
    MotivicRational,
    PoincareFunction,
    PoleError,
    UndefinedProduct,
    euler_realize,
    geometric_sum,
    l_power,
    poincare_realize,
)

half = Fraction(1, 2)
third = Fraction(1, 3)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def test_addition_merges_terms():
    assert (1 + L) + L == MotivicElement({0: 1, 1: 2})


def test_additive_identity():
    x = MotivicElement({half: 3, -2: 1})
    assert x + ZERO == x
    assert x + 0 == x


def test_opposite_terms_cancel_to_empty_map():
    total = l_power(half) + (-l_power(half))
    assert total == ZERO
    assert total.terms == {}


def test_zero_coefficients_never_stored():
    elem = MotivicElement({1: 5, 2: 0})
    assert elem.terms == {Fraction(1): 5}


def test_exponents_add_under_multiplication():
    assert l_power(half) * l_power(third) == l_power(Fraction(5, 6))


def test_element_power_and_subtraction():
    assert (L - 1) * (L + 1) == L**2 - 1
    assert (L + 1) ** 3 == L**3 + 3 * L**2 + 3 * L + 1


def test_ramification_index():
    assert ZERO.ramification_index == 1
    assert (ONE + l_power(half) + l_power(third)).ramification_index == 6


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        MotivicElement({0: Fraction(1, 2)})


# ---------------------------------------------------------------------------
# rational canonical form
# ---------------------------------------------------------------------------

def test_unit_cancellation():
    x = MotivicRational(ONE + 2 * L, L - 1)
    assert MotivicRational(L - 1, L - 1) * x == x


def test_mixed_ramification_product_reduces_to_polynomial():
    # oracle first: the expected polynomial times the denominator recovers
    # the expanded numerator, checked by plain element multiplication
    expected = ONE + l_power(Fraction(2, 3)) + l_power(Fraction(4, 3))
    assert expected * (l_power(Fraction(2, 3)) - 1) == L**2 - 1
    product = MotivicRational(ONE + L) * MotivicRational(L - 1, l_power(Fraction(2, 3)) - 1)
    assert product == expected
    assert product.is_polynomial


def test_denominator_monomial_moves_to_numerator():
    # L - L^(-1) = L^(-1)(L-1)(L+1)
    value = MotivicRational((L - 1) * L, L - l_power(-1))
    assert value.numerator == L**2
    assert value.denominator == L + 1


def test_canonical_scaling_is_primitive_with_positive_leading_denominator():
    value = MotivicRational(MotivicElement({1: 4, 0: -4}), MotivicElement({2: -6}))
    assert value.numerator == MotivicElement({Fraction(-1): -2, Fraction(-2): 2})
    assert value.denominator == MotivicElement({0: 3})


def test_equality_by_cross_multiplication():
    a = MotivicRational(L**2 - 1, (L - 1) * (L + 1) * (L + 2))
    b = MotivicRational(ONE, L + 2)
    assert a == b
    assert a.numerator == b.numerator and a.denominator == b.denominator


def test_division_and_zero_guard():
    a = MotivicRational(L + 3, L - 1)
    b = MotivicRational(L - 2, L + 5)
    assert (a * b) / b == a
    with pytest.raises(ZeroDivisionError):
        a / MotivicRational(ZERO)
    with pytest.raises(ZeroDivisionError):
        MotivicRational(ONE, ZERO)


def test_rational_serialization_round_trip():
    value = MotivicRational(L**2 - 1, l_power(Fraction(2, 3)) - 1)
    assert MotivicRational.from_json(value.to_json()) == value


def test_render_strings():
    assert (ONE + 2 * L).render() == "2L + 1"
    assert (L - 1).render() == "L - 1"
    assert (l_power(Fraction(4, 3)) + l_power(Fraction(2, 3)) + 1).render() == "L^(4/3) + L^(2/3) + 1"
    assert MotivicRational(L - 1, L + 1).render() == "(L - 1)/(L + 1)"
    assert MotivicRational(l_power(-1)).render() == "L^(-1)"
    assert ZERO.render() == "0"


# ---------------------------------------------------------------------------
# geometric series
# ---------------------------------------------------------------------------

def test_geometric_sum_closed_form_and_partial_sums():
    strand = GeometricStrand(0, 1)
    total = geometric_sum(strand)
    assert total == ExtendedMotivic.finite(MotivicRational(L, L - 1))
    # tail after 50 terms is L^(-49)/(L - 1): the partial sums converge to the
    # closed form in the topology where high negative exponents are small
    partial = strand.partial_sum(50)
    tail = total.value - MotivicRational(partial)
    assert tail == MotivicRational(l_power(-49), L - 1)


def test_geometric_sum_zero_step_diverges():
    assert geometric_sum(GeometricStrand(0, 0)) is INFINITY
    assert geometric_sum(GeometricStrand(3, -half, ONE + L)).is_infinite


def test_geometric_sum_zero_class_is_zero():
    assert geometric_sum(GeometricStrand(2, -1, ZERO)) == ExtendedMotivic.finite(0)


def test_geometric_sum_telescopes_exactly():
    strand = GeometricStrand(half, Fraction(3, 2), ONE + L)
    total = geometric_sum(strand).value
    assert total * MotivicRational(ONE - l_power(-strand.step)) == MotivicRational(
        strand.class_factor.shift(strand.initial_exponent)
    )


# ---------------------------------------------------------------------------
# extended values
# ---------------------------------------------------------------------------

def test_infinity_absorbs_addition_and_nonzero_products():
    finite = ExtendedMotivic.finite(MotivicRational(L + 1))
    assert (INFINITY + finite).is_infinite
    assert (finite + INFINITY).is_infinite
    assert (INFINITY * finite).is_infinite
    assert (INFINITY + INFINITY).is_infinite


def test_infinity_times_zero_is_an_error():
    with pytest.raises(UndefinedProduct):
        INFINITY * ExtendedMotivic.finite(0)
    with pytest.raises(UndefinedProduct):
        ExtendedMotivic.finite(ZERO) * INFINITY


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def test_poincare_realize_basic_values():
    assert poincare_realize(MotivicRational(L)) == MotivicRational(l_power(2))
    assert poincare_realize(MotivicRational(ONE + 2 * L)) == MotivicRational(ONE + 2 * l_power(2))
    assert poincare_realize(MotivicRational(l_power(half))) == MotivicRational(L)


def test_poincare_render_uses_t():
    assert poincare_realize(MotivicRational(ONE + 2 * L)).render() == "2T^2 + 1"


def test_euler_realize_values():
    assert euler_realize(ONE + 2 * L) == 3
    assert euler_realize(MotivicRational(L - 1, L - l_power(-1))) == Fraction(1, 2)
    assert euler_realize(INFINITY) == math.inf


def test_euler_realize_pole():
    with pytest.raises(PoleError):
        euler_realize(MotivicRational(ONE, L - 1))


def test_euler_removable_singularity_cancels_before_evaluation():
    assert euler_realize(MotivicRational(L - 1, L - 1)) == 1


# ---------------------------------------------------------------------------
# Poincare functions: T = 0, duality, integrality
# ---------------------------------------------------------------------------

def test_eval_at_zero_constant_term():
    f = PoincareFunction(MotivicRational(ONE + 2 * l_power(2)))
    assert f.eval_at_zero() == 1


def test_eval_at_zero_generic_batyrev_factor():
    # (T^2 - 1)/(T^(2(a+1)) - 1) at a = 1 evaluates to (-1)/(-1)
    f = PoincareFunction(MotivicRational(l_power(2) - 1, l_power(4) - 1))
    assert f.eval_at_zero() == 1


def test_eval_at_zero_pole():
    with pytest.raises(PoleError):
        PoincareFunction(MotivicRational(ONE, L)).eval_at_zero()


def test_eval_at_zero_vanishing_numerator():
    assert PoincareFunction(MotivicRational(L, L + 1)).eval_at_zero() == 0


def test_duality_check_examples():
    palindrome = PoincareFunction(MotivicRational(ONE + l_power(2)))
    assert palindrome.satisfies_duality(1)
    assert not palindrome.satisfies_duality(2)
    assert PoincareFunction(MotivicRational(ONE + l_power(2) + l_power(4))).satisfies_duality(2)


def test_is_integral_polynomial():
    assert PoincareFunction(MotivicRational(ONE + 2 * l_power(2))).is_integral_polynomial()
    assert not PoincareFunction(MotivicRational(ONE + l_power(Fraction(4, 3)))).is_integral_polynomial()
    reduced = PoincareFunction(MotivicRational(l_power(2) - 1, l_power(4) - 1))
    assert not reduced.is_integral_polynomial()
    assert not PoincareFunction(MotivicRational(l_power(-1))).is_integral_polynomial()


def test_poincare_arithmetic_stays_poincare():
    f = PoincareFunction(MotivicRational(ONE + l_power(2)))
    g = MotivicRational(L)
    for value in (f + f, g + f, f + g, 2 * f, f + 1):
        assert type(value) is PoincareFunction
    assert (f + 1).render() == "T^2 + 2"
    assert (g + f).render() == "T^2 + T + 1"
    assert repr(2 * f) == "PoincareFunction(2T^2 + 2)"
    assert f == MotivicRational(ONE + l_power(2)) and hash(f) == hash(f.rational)
    assert f.to_json() == f.rational.to_json()


def test_poincare_ramification_index_tracked():
    f = poincare_realize(MotivicRational(l_power(Fraction(2, 3)) + 1))
    assert f.ramification_index == 3
