"""Randomized and exhaustive property suites for the whole package."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from stringymass import motivic
from stringymass import (
    L,
    ONE,
    ZERO,
    MotivicElement,
    MotivicRational,
    PoincareFunction,
    PoleError,
    SncStrataData,
    TameCyclicRep,
    WildCyclicRep,
    closed_from_open,
    crepant_total_class,
    euler_realize,
    geometric_sum,
    GeometricStrand,
    l_power,
    poincare_realize,
    stringy_motif,
)

CASES = settings(max_examples=120, deadline=None)

exponents = st.fractions(min_value=-3, max_value=3, max_denominator=3)
coefficients = st.integers(min_value=-9, max_value=9)
elements = st.dictionaries(exponents, coefficients, max_size=4).map(MotivicElement)
nonzero_elements = elements.filter(lambda e: not e.is_zero)
rationals = st.builds(MotivicRational, elements, nonzero_elements)
nonzero_rationals = rationals.filter(lambda r: not r.is_zero)


# ---------------------------------------------------------------------------
# ring axioms and canonical form
# ---------------------------------------------------------------------------

@CASES
@given(elements, elements, elements)
def test_element_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@CASES
@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * 1 == a
    assert a + 0 == a


@CASES
@given(rationals)
def test_canonicalization_is_idempotent(a):
    again = MotivicRational(a.numerator, a.denominator)
    assert again.numerator == a.numerator
    assert again.denominator == a.denominator


@CASES
@given(rationals, nonzero_rationals)
def test_multiply_then_divide_recovers(a, b):
    assert (a * b) / b == a


@CASES
@given(rationals)
def test_canonical_denominator_shape(a):
    den = a.denominator
    assert not den.is_zero
    assert den.min_exponent == 0
    assert den.terms[den.max_exponent] > 0


def test_ramification_index_drops_after_cancellation():
    half = l_power(Fraction(1, 2))
    assert (half + 1 - half).ramification_index == 1
    assert (half * half).ramification_index == 1
    assert half * half == L and hash(half * half) == hash(L)
    assert half != L  # the same stored exponent 1, with r = 2 against r = 1


@CASES
@given(elements, elements)
def test_ramification_index_is_minimal(a, b):
    for value in (a + b, a - b, a * b, (a + b) - b):
        assert value.ramification_index == math.lcm(*(e.denominator for e in value.terms))


@CASES
@given(elements, elements, elements)
def test_equal_values_have_equal_hashes(a, b, c):
    assert hash((a + b) * c) == hash(a * c + b * c)
    assert hash((a + b) - b) == hash(a)
    if not c.is_zero and not (c + 1).is_zero:
        x, y = MotivicRational(a + b, c + 1), MotivicRational(a * c + b * c, c * c + c)
        assert x == y and hash(x) == hash(y)


@CASES
@given(elements)
def test_terms_and_triples_are_in_lowest_terms(a):
    assert all(isinstance(e, Fraction) for e in a.terms)
    assert all(math.gcd(n, d) == 1 and d > 0 for n, d, _ in a.to_triples())
    assert MotivicElement.from_triples(a.to_triples()) == a


integer_polys = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=12).filter(
    lambda p: p[-1] != 0)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@CASES
@given(integer_polys, integer_polys, integer_polys)
def test_heuristic_gcd_matches_pseudo_remainder_sequence(a, b, common):
    a, b = _times(a, common), _times(b, common)
    reference = motivic._poly_gcd_prs(motivic._poly_primitive(a), motivic._poly_primitive(b))
    assert motivic._poly_gcd(a, b) == reference


def test_reduction_falls_back_to_pseudo_remainders(monkeypatch):
    monkeypatch.setattr(motivic, "_poly_value", lambda a, x: 0)
    value = MotivicRational(L**2 - 1, 2 * L - 2)
    assert (value.numerator, value.denominator) == (L + 1, MotivicElement.constant(2))


@CASES
@given(elements, nonzero_elements, nonzero_elements)
def test_common_factors_cancel(num, den, common):
    assert MotivicRational(num * common, den * common) == MotivicRational(num, den)


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

@CASES
@given(rationals, rationals)
def test_poincare_realization_is_a_ring_homomorphism(a, b):
    assert poincare_realize(a * b) == poincare_realize(a) * poincare_realize(b)
    assert poincare_realize(a + b) == poincare_realize(a) + poincare_realize(b)


@CASES
@given(rationals, rationals)
def test_euler_realization_is_multiplicative_off_poles(a, b):
    try:
        ea, eb = euler_realize(a), euler_realize(b)
    except PoleError:
        assume(False)
    try:
        eab = euler_realize(a * b)
    except PoleError:
        assume(False)
    assert eab == ea * eb


# ---------------------------------------------------------------------------
# geometric series
# ---------------------------------------------------------------------------

@CASES
@given(exponents, st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4), elements)
def test_geometric_sum_satisfies_its_functional_equation(b, c, cls):
    total = geometric_sum(GeometricStrand(b, c, cls))
    assert not total.is_infinite
    lhs = total.value * MotivicRational(ONE - l_power(-c))
    assert lhs == MotivicRational(cls.shift(b))


# ---------------------------------------------------------------------------
# duality <-> palindromic coefficients
# ---------------------------------------------------------------------------

@st.composite
def palindrome_cases(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=0, max_value=3))
    half = draw(st.lists(coefficients, min_size=d * r, max_size=d * r))
    middle = draw(coefficients)
    coeffs = half + [middle] + half[::-1]
    make_palindrome = draw(st.booleans())
    if not make_palindrome and len(coeffs) > 1:
        index = draw(st.integers(min_value=0, max_value=d * r - 1))
        coeffs[index] += draw(st.integers(min_value=1, max_value=3))
    assume(any(coeffs))
    poly = MotivicElement({Fraction(k, r): c for k, c in enumerate(coeffs)})
    return poly, d, coeffs


@CASES
@given(palindrome_cases())
def test_duality_equivalent_to_palindromic_coefficients(case):
    poly, d, coeffs = case
    is_palindrome = coeffs == coeffs[::-1]
    assert PoincareFunction(MotivicRational(poly)).satisfies_duality(d) == is_palindrome


# ---------------------------------------------------------------------------
# tame representations
# ---------------------------------------------------------------------------

@st.composite
def tame_reps(draw):
    m = draw(st.integers(min_value=1, max_value=13))
    d = draw(st.integers(min_value=1, max_value=4))
    weights = tuple(draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(d))
    assume(math.gcd(m, *weights) == 1)
    return TameCyclicRep(m, weights)


@CASES
@given(tame_reps())
def test_tame_mass_has_m_terms_and_euler_m(rep):
    mass = rep.mass()
    assert euler_realize(MotivicRational(mass)) == rep.m
    assert mass.evaluate_at_one() == rep.m
    assert all(c > 0 for c in mass.terms.values())
    assert mass.constant_term >= 1


@CASES
@given(tame_reps())
def test_age_pairing(rep):
    for s in range(1, rep.m):
        moved = sum(1 for a in rep.weights if (s * a) % rep.m != 0)
        assert rep.age(s) + rep.age(rep.m - s) == moved


def test_tame_weight_additive_under_concatenation():
    # exhaustive over pairs of one-dimensional faithful reps for m <= 13
    for m in range(2, 14):
        units = [a for a in range(m) if math.gcd(a, m) == 1]
        for a in units:
            for b in units:
                combined = TameCyclicRep(m, (a, b))
                left, right = TameCyclicRep(m, (a,)), TameCyclicRep(m, (b,))
                for s in range(1, m):
                    assert combined.weight(s) == left.weight(s) + right.weight(s)


def test_wild_weight_additive_under_concatenation():
    # exhaustive over pairs of single blocks for p <= 13
    for p in (2, 3, 5, 7, 11, 13):
        for b1 in range(1, p + 1):
            for b2 in range(1, p + 1):
                combined = WildCyclicRep(p, (b1, b2))
                left, right = WildCyclicRep(p, (b1,)), WildCyclicRep(p, (b2,))
                for j in range(1, p):
                    assert combined.weight(j) == left.weight(j) + right.weight(j)


# ---------------------------------------------------------------------------
# wild representations
# ---------------------------------------------------------------------------

def _essential_decompositions(p, target):
    """Block multisets with every part >= 2 and d(d-1)/2 summing to target."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for b in range(min(cap, p), 1, -1):
            contribution = b * (b - 1) // 2
            if contribution <= remaining:
                for rest in rec(remaining - contribution, b):
                    yield (b,) + rest
    yield from rec(target, p)


def test_mass_at_critical_d_invariant_is_monic_polynomial():
    for p in (2, 3, 5, 7):
        found = 0
        for blocks in _essential_decompositions(p, p):
            for padded in (blocks, blocks + (1,)):
                rep = WildCyclicRep(p, padded)
                mass = rep.mass().value
                assert mass.is_polynomial
                poly = mass.as_element()
                assert poly.is_integral_polynomial()
                assert all(c > 0 for c in poly.terms.values())
                assert poly.constant_term == 1
                assert poly.evaluate_at_one() == p
                found += 1
        assert found > 0


def test_alpha_minus_weight_telescopes():
    for p in (2, 3, 5, 7, 11):
        for blocks in _essential_decompositions(p, p):
            rep = WildCyclicRep(p, blocks)
            lifted = rep.lift()
            for s in range(1, p):
                assert lifted.alpha(s) - rep.weight(s) == s


def test_doubled_blocks_give_projective_space():
    for p in (2, 3, 5, 7):
        rep = WildCyclicRep(p, (2,) * p)
        expected = MotivicElement({Fraction(i): 1 for i in range(p)})
        assert rep.mass().value == MotivicRational(expected)


# ---------------------------------------------------------------------------
# strata inputs
# ---------------------------------------------------------------------------

DIVISOR_IDS = ("E1", "E2", "E3", "E4", "E5")

subset_keys = st.sets(st.sampled_from(DIVISOR_IDS), max_size=5).map(frozenset)
strata_maps = st.dictionaries(subset_keys, nonzero_elements, max_size=8)


@CASES
@given(strata_maps)
def test_crepant_specialization(strata):
    data = SncStrataData(3, [(i, 0) for i in DIVISOR_IDS], strata)
    assert stringy_motif(data) == MotivicRational(crepant_total_class(data))


@CASES
@given(strata_maps)
def test_mobius_round_trip(strata):
    data = SncStrataData(3, [(i, 0) for i in DIVISOR_IDS], strata)
    closed = closed_from_open(data)
    # independent inversion: open(J) = sum over J' >= J of (-1)^(|J'|-|J|) closed(J')
    keys = set(closed)
    for subset in set(strata) | keys:
        recovered = ZERO
        for other in keys:
            if subset <= other:
                sign = (-1) ** (len(other) - len(subset))
                recovered = recovered + sign * closed[other]
        assert recovered == data.open_class(subset)


@CASES
@given(strata_maps, st.fractions(min_value=Fraction(-2, 3), max_value=3, max_denominator=3))
def test_stringy_motif_additive_in_strata(strata, discrepancy):
    assume(discrepancy > -1)
    divisors = [(i, discrepancy) for i in DIVISOR_IDS]
    whole = stringy_motif(SncStrataData(3, divisors, strata))
    split_at = next(iter(strata), None)
    assume(split_at is not None)
    first = dict(strata)
    second = {split_at: first.pop(split_at)}
    part_a = stringy_motif(SncStrataData(3, divisors, first))
    part_b = stringy_motif(SncStrataData(3, divisors, second))
    assert whole == part_a + part_b
