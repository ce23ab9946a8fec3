"""Tests for the stringy-motif formula engine.

The two committed fixtures record the minimal resolutions of the cyclic
surface quotients of type 1/2(1,1) and 1/3(1,1), worked out beforehand by the
continued-fraction resolution of cyclic quotient surface singularities: a
single exceptional rational curve of self-intersection -m, discrepancy
2/m - 1, and fiber class 1 + L over the singular point.
"""

from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stringymass import (
    InvalidDiscrepancy,
    L,
    MissingPi0,
    MotivicElement,
    MotivicRational,
    NotCrepant,
    ONE,
    SncStrataData,
    TameCyclicRep,
    TooManyDivisors,
    batyrev_factor,
    closed_from_open,
    crepant_total_class,
    dual_complex_euler_direct,
    dual_complex_euler_from_pst,
    duality_report,
    l_power,
    stringy_motif,
    stringy_poincare,
    stringy_result,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def a1_data():
    return SncStrataData.from_json(FIXTURES / "a1_resolution.json")


@pytest.fixture
def third_data():
    return SncStrataData.from_json(FIXTURES / "one_third_1_1_resolution.json")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_rejects_discrepancy_at_minus_one():
    with pytest.raises(InvalidDiscrepancy):
        SncStrataData(2, [("E1", -1)], {("E1",): ONE})
    with pytest.raises(InvalidDiscrepancy):
        batyrev_factor(Fraction(-5, 4))


def test_rejects_undeclared_ids_and_duplicates():
    with pytest.raises(ValueError):
        SncStrataData(2, [("E1", 0)], {("E2",): ONE})
    with pytest.raises(ValueError):
        SncStrataData(2, [("E1", 0), ("E1", 0)], {})


def test_rejects_too_many_divisors():
    divisors = [(f"E{i}", 0) for i in range(21)]
    with pytest.raises(TooManyDivisors):
        SncStrataData(2, divisors, {})


def test_pi0_must_cover_nonzero_closed_strata():
    with pytest.raises(ValueError):
        SncStrataData(2, [("E1", 0), ("E2", 0)],
                      {("E1",): L, ("E1", "E2"): 1},
                      pi0=[(("E1",), 1)])


# ---------------------------------------------------------------------------
# the Batyrev sum
# ---------------------------------------------------------------------------

def test_a1_motif_equals_tame_mass(a1_data):
    motif = stringy_motif(a1_data)
    assert motif == ONE + L
    assert motif == MotivicRational(TameCyclicRep(2, (1, 1)).mass())
    assert crepant_total_class(a1_data) == ONE + L


def test_one_third_motif_equals_tame_mass(third_data):
    motif = stringy_motif(third_data)
    assert motif == ONE + l_power(Fraction(2, 3)) + l_power(Fraction(4, 3))
    assert motif == MotivicRational(TameCyclicRep(3, (1, 1)).mass())


def test_zero_discrepancies_make_every_factor_one():
    data = SncStrataData(
        3,
        [("E1", 0), ("E2", 0)],
        {(): L**3, ("E1",): L, ("E2",): ONE + L, ("E1", "E2"): 2},
    )
    total = crepant_total_class(data)
    assert total == L**3 + L + (ONE + L) + 2
    assert stringy_motif(data) == MotivicRational(total)


def _fold_oracle(data):
    """The sum term by term: class(J) times the factors of J, reduced each step."""
    total = MotivicRational(0)
    for subset, cls in data.strata.items():
        term = MotivicRational(cls)
        for div_id in subset:
            term = term * batyrev_factor(data.divisors[div_id])
        total = total + term
    return total


discrepancies = st.fractions(min_value=Fraction(-5, 6), max_value=3, max_denominator=6)
stratum_classes = st.dictionaries(
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.integers(min_value=-5, max_value=5),
    max_size=3,
).map(MotivicElement)


@st.composite
def snc_data(draw):
    """Up to 5 divisors, any subsets (the empty one included) present or absent."""
    ids = [f"E{i}" for i in range(draw(st.integers(min_value=0, max_value=5)))]
    divisors = [(i, draw(discrepancies)) for i in ids]
    subsets = [frozenset(c) for size in range(len(ids) + 1) for c in combinations(ids, size)]
    chosen = draw(st.lists(st.sampled_from(subsets), unique=True, max_size=8))
    return SncStrataData(2, divisors, {J: draw(stratum_classes) for J in chosen})


def _cancelling_data():
    # equal discrepancies and opposite classes: the two terms cancel exactly
    a = Fraction(-1, 3)
    cls = L + l_power(Fraction(-1, 2))
    return SncStrataData(2, [("E1", a), ("E2", a)], {("E1",): cls, ("E2",): -cls})


@settings(max_examples=150, deadline=None)
@given(snc_data())
@example(_cancelling_data())
def test_single_reduction_matches_term_by_term_fold(data):
    got, want = stringy_motif(data), _fold_oracle(data)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_cancelling_sum_is_zero():
    assert stringy_motif(_cancelling_data()).is_zero


def test_crepant_total_class_guard(third_data):
    with pytest.raises(NotCrepant):
        crepant_total_class(third_data)


def test_crepant_total_class_empty_strata():
    assert crepant_total_class(SncStrataData(2, [("E1", 0)], {})) == MotivicElement()


# ---------------------------------------------------------------------------
# open/closed strata
# ---------------------------------------------------------------------------

def test_closed_from_open_single_divisor():
    data = SncStrataData(2, [("E1", 0)], {(): MotivicElement.constant(3), ("E1",): L})
    closed = closed_from_open(data)
    assert closed[frozenset()] == L + 3
    assert closed[frozenset(["E1"])] == L


def test_closed_from_open_two_divisors():
    x, y, z = L, ONE + L, MotivicElement.constant(2)
    data = SncStrataData(2, [("E1", 0), ("E2", 0)],
                         {("E1",): x, ("E2",): y, ("E1", "E2"): z})
    closed = closed_from_open(data)
    assert closed[frozenset(["E1"])] == x + z
    assert closed[frozenset(["E2"])] == y + z
    assert closed[frozenset(["E1", "E2"])] == z
    assert closed[frozenset()] == x + y + z


def test_closed_from_open_drops_zero_entries():
    assert closed_from_open(SncStrataData(2, [("E1", 0)], {})) == {}


# ---------------------------------------------------------------------------
# Poincare function, chi, duality
# ---------------------------------------------------------------------------

def test_stringy_poincare_values(a1_data, third_data):
    assert stringy_poincare(a1_data) == MotivicRational(ONE + l_power(2))
    assert stringy_poincare(third_data) == MotivicRational(
        ONE + l_power(Fraction(4, 3)) + l_power(Fraction(8, 3))
    )


def test_dual_complex_euler_single_divisor(a1_data):
    assert dual_complex_euler_from_pst(a1_data) == 1
    assert dual_complex_euler_direct(a1_data) == 1


def test_dual_complex_euler_chain_of_two():
    data = SncStrataData(
        2,
        [("E1", Fraction(-1, 2)), ("E2", Fraction(-2, 3))],
        {("E1",): L, ("E2",): L, ("E1", "E2"): 1},
        pi0=[(("E1",), 1), (("E2",), 1), (("E1", "E2"), 1)],
    )
    assert dual_complex_euler_from_pst(data) == 1
    assert dual_complex_euler_direct(data) == 1


def test_dual_complex_euler_disjoint_divisors():
    data = SncStrataData(
        2,
        [("E1", 0), ("E2", Fraction(-1, 3))],
        {("E1",): ONE + L, ("E2",): ONE + L},
        pi0=[(("E1",), 1), (("E2",), 1), (("E1", "E2"), 0)],
    )
    assert dual_complex_euler_from_pst(data) == 2
    assert dual_complex_euler_direct(data) == 2


def test_dual_complex_euler_requires_pi0(a1_data, third_data):
    with pytest.raises(MissingPi0):
        dual_complex_euler_direct(SncStrataData(2, [("E1", 0)], {("E1",): L}))


def test_batyrev_factor_normalized_at_zero():
    from stringymass import poincare_realize

    for a in (0, Fraction(-1, 3), Fraction(5, 4), 2, Fraction(-3, 4)):
        assert poincare_realize(batyrev_factor(a)).eval_at_zero() == 1


def test_duality_report_examples(a1_data):
    crepant_curve = SncStrataData(1, [("E1", 0)], {("E1",): ONE + L})
    assert duality_report(crepant_curve)
    assert not duality_report(a1_data)  # center is a point, not the whole space
    palindromic = SncStrataData(2, [("E1", 0)], {("E1",): ONE + 2 * L + L**2})
    assert duality_report(palindromic)


def test_stringy_result_bundle(a1_data):
    outcome = stringy_result(a1_data, duality_dim=2)
    assert outcome.motif == ONE + L
    assert outcome.crepant
    assert outcome.duality_dim == 2
    assert outcome.duality_holds is False
    assert outcome.chi_from_pst == 1
    assert not outcome.chi_pole
    assert outcome.chi_direct == 1
