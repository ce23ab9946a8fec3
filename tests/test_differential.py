"""Differential test of canonical reduction against sympy (a test-only dependency)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from stringymass import MotivicElement, MotivicRational

sympy = pytest.importorskip("sympy")

u = sympy.Symbol("u")

exponents = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.integers(min_value=-9, max_value=9)
elements = st.dictionaries(exponents, coefficients, max_size=4).map(MotivicElement)
nonzero_elements = elements.filter(lambda e: not e.is_zero)


def in_u(elem: MotivicElement, r: int):
    """elem as a sympy Laurent polynomial in u = L^(1/r)."""
    return sum((c * u ** int(e * r) for e, c in elem.terms.items()), sympy.Integer(0))


def polynomial_part(elem: MotivicElement, r: int):
    """elem divided by its lowest monomial, as a sympy polynomial in u."""
    return sympy.expand(in_u(elem.shift(-elem.min_exponent), r))


@settings(max_examples=100, deadline=None)
@given(elements, nonzero_elements, nonzero_elements)
def test_reduction_agrees_with_sympy_cancel(a, b, common):
    num, den = a * common, b * common
    value = MotivicRational(num, den)
    r = math.lcm(num.ramification_index, den.ramification_index)
    reduced = in_u(value.numerator, r) / in_u(value.denominator, r)
    assert sympy.cancel(in_u(num, r) / in_u(den, r) - reduced) == 0
    if not value.is_zero:
        gcd = sympy.gcd(polynomial_part(value.numerator, r), polynomial_part(value.denominator, r))
        assert sympy.degree(gcd, u) == 0
