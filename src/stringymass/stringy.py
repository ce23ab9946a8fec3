"""Stringy motifs from simple-normal-crossing resolution data.

The input is combinatorial: a list of exceptional divisors with rational
discrepancies a_i > -1, and for each subset J of divisor indices the motivic
class of the locally closed stratum (intersection of the divisors in J, minus
the others, cut down to the fiber over the chosen center).  The stringy motif
is the exact sum over subsets of the stratum class times the product of the
factors (L - 1)/(L^(a_j + 1) - 1).  ``stringy_motif`` puts every term over
the least common denominator, a product of cyclotomic polynomials in
u = L^(1/r), adds the integer numerators and reduces once; inputs whose sum
would exceed ``MAX_UDEGREE`` in u are rejected when the data is built.

Strata classes are caller-supplied Laurent polynomials in L, not computed from
geometry; this module is a formula engine.  Connected-component counts of the
closed strata may be supplied separately so that the Euler characteristic of
the dual complex can be computed by two independent routes: from the Poincare
function at T = 0, and by inclusion-exclusion over the counts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import InvalidDiscrepancy, MissingPi0, NotCrepant, PoleError, TooManyDivisors
from .motivic import (
    L,
    ZERO,
    MotivicElement,
    MotivicRational,
    PoincareFunction,
    _element_from_u,
    l_power,
    poincare_realize,
)
from .util import as_fraction, as_int

MAX_DIVISORS = 20

# Largest u-degree (u = L^(1/r)) of the numerator of the Batyrev sum over its
# least common denominator; see ``_batyrev_shape``.  The sum costs time and
# memory in proportion to it, so larger inputs are rejected before any
# polynomial is built.  Every chain of 1/m(1,q) with m <= 40 stays below 300.
MAX_UDEGREE = 4096


def _as_subset(key) -> frozenset:
    if isinstance(key, str):
        return frozenset([key])
    return frozenset(key)


def _as_class(value) -> MotivicElement:
    if isinstance(value, MotivicElement):
        return value
    if isinstance(value, int):
        return MotivicElement.constant(value)
    raise TypeError(f"stratum class must be a MotivicElement or integer, got {value!r}")


class SncStrataData:
    """Discrepancies and stratum classes of a simple-normal-crossing resolution.

    ``divisors`` is an id -> discrepancy list, ``strata`` maps subsets of ids
    (including the empty set) to the class of the open stratum over the chosen
    center; absent subsets contribute zero.  ``pi0`` optionally counts the
    connected components of the closed strata and must cover every nonempty
    subset whose closed stratum class is nonzero.  Data whose Batyrev sum has
    u-degree above ``MAX_UDEGREE`` raises ValueError.
    """

    __slots__ = ("dimension", "divisors", "strata", "pi0")

    def __init__(self, dimension, divisors, strata, pi0=None):
        self.dimension = as_int(dimension)
        if self.dimension < 0:
            raise ValueError("dimension must be nonnegative")

        seen: dict[str, Fraction] = {}
        for div_id, disc in divisors:
            div_id = str(div_id)
            if div_id in seen:
                raise ValueError(f"duplicate divisor id {div_id!r}")
            disc = as_fraction(disc)
            if disc <= -1:
                raise InvalidDiscrepancy(
                    f"divisor {div_id!r} has discrepancy {disc} <= -1 (not log terminal)"
                )
            seen[div_id] = disc
        if len(seen) > MAX_DIVISORS:
            raise TooManyDivisors(f"at most {MAX_DIVISORS} divisors are supported")
        self.divisors = seen

        cleaned: dict[frozenset, MotivicElement] = {}
        for key, value in (strata.items() if hasattr(strata, "items") else strata):
            subset = _as_subset(key)
            if not subset <= seen.keys():
                unknown = sorted(subset - seen.keys())
                raise ValueError(f"stratum subset uses undeclared divisor ids {unknown}")
            cls = _as_class(value)
            if subset in cleaned:
                raise ValueError(f"duplicate stratum subset {sorted(subset)}")
            if not cls.is_zero:
                cleaned[subset] = cls
        self.strata = cleaned
        _batyrev_shape(self)

        if pi0 is None:
            self.pi0 = None
        else:
            counts: dict[frozenset, int] = {}
            for key, value in (pi0.items() if hasattr(pi0, "items") else pi0):
                subset = _as_subset(key)
                if not subset:
                    raise ValueError("pi0 entries are indexed by nonempty subsets")
                if not subset <= seen.keys():
                    unknown = sorted(subset - seen.keys())
                    raise ValueError(f"pi0 subset uses undeclared divisor ids {unknown}")
                value = as_int(value)
                if value < 0:
                    raise ValueError("component counts must be nonnegative")
                counts[subset] = value
            for subset in closed_from_open(self):
                if subset and subset not in counts:
                    raise ValueError(
                        f"pi0 must cover subset {sorted(subset)}: its closed stratum is nonzero"
                    )
            self.pi0 = counts

    def open_class(self, subset) -> MotivicElement:
        return self.strata.get(_as_subset(subset), ZERO)

    def discrepancy(self, div_id: str) -> Fraction:
        return self.divisors[div_id]

    @property
    def is_crepant(self) -> bool:
        return all(a == 0 for a in self.divisors.values())

    # -- JSON interface -----------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "SncStrataData":
        divisors = [
            (entry["id"], Fraction(int(entry["a"][0]), int(entry["a"][1])))
            for entry in payload["divisors"]
        ]
        strata = [
            (frozenset(entry["J"]), MotivicElement.from_triples(entry["class"]))
            for entry in payload["strata"]
        ]
        pi0 = None
        if payload.get("pi0") is not None:
            pi0 = [(frozenset(entry["J"]), int(entry["count"])) for entry in payload["pi0"]]
        return cls(payload["dimension"], divisors, strata, pi0)

    @classmethod
    def from_json(cls, path) -> "SncStrataData":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def batyrev_factor(discrepancy) -> MotivicRational:
    """(L - 1) / (L^(a + 1) - 1) for a single divisor of discrepancy a > -1."""
    a = as_fraction(discrepancy)
    if a <= -1:
        raise InvalidDiscrepancy(f"discrepancy {a} <= -1 (not log terminal)")
    return MotivicRational(L - 1, l_power(a + 1) - 1)


def stringy_motif(data: SncStrataData) -> MotivicRational:
    """Sum over subsets J of the open-stratum class times the factors of J.

    In u = L^(1/r) the factor of divisor j is (u^r - 1)/(u^n_j - 1).  Every
    term is put over the least common denominator D = prod Phi_d^m_d, so the
    integer numerators add up as coefficient lists, and the sum is reduced
    once, when the quotient is made.
    """
    if not data.strata:
        return MotivicRational(ZERO)
    r, n, binomials = _batyrev_shape(data)
    # All multiplications come before the divisions, so each division is exact.
    den = [1]
    for e, t in sorted(binomials.items(), key=lambda item: -item[1]):
        step = _times_binomial if t > 0 else _over_binomial
        for _ in range(abs(t)):
            den = step(den, e)
    classes = {J: [(int(e * r), c) for e, c in cls.terms.items()]
               for J, cls in data.strata.items()}
    low = min(k for terms in classes.values() for k, _ in terms)
    num: list[int] = []
    for J, terms in classes.items():
        cofactor = den
        for div_id in J:
            cofactor = _times_binomial(_over_binomial(cofactor, n[div_id]), r)
        top = max(k for k, _ in terms) - low + len(cofactor)
        num.extend([0] * (top - len(num)))
        for k, c in terms:
            base = k - low
            for i, p in enumerate(cofactor):
                num[base + i] += c * p
    return MotivicRational(_element_from_u(num, r, low), _element_from_u(den, r, 0))


def _batyrev_shape(data: SncStrataData):
    """(r, n, binomials) of the Batyrev sum of data, checked against MAX_UDEGREE.

    r is the least common index u = L^(1/r) of the classes and of the
    divisors that occur in a stratum, and n[j] = (a_j + 1) r.  Since
    u^n - 1 = prod over d | n of Phi_d, the least common denominator of the
    factors is D = prod Phi_d^m_d, m_d the most divisors j of one stratum
    with d | n[j].  Expanding each Phi_d by Moebius inversion,
    Phi_d = prod over e | d of (u^e - 1)^mu(d/e), gives D as a product of
    binomials: ``binomials[e]`` is the exponent of u^e - 1.

    The u-degree of the sum is the largest degree its numerator can reach:
    r times the spread of the class exponents, plus deg D, plus the most that
    negative discrepancies add, max over J of the sum of r - n[j].  It is
    bounded by MAX_UDEGREE before anything of that size is built.
    """
    strata = data.strata
    used = set().union(*strata)
    shares = {j: data.divisors[j] + 1 for j in used}
    r = math.lcm(*(cls.ramification_index for cls in strata.values()),
                 *(share.denominator for share in shares.values()))
    n = {j: int(share * r) for j, share in shares.items()}
    degree = 0
    if strata:
        low = min(cls.min_exponent for cls in strata.values())
        high = max(cls.max_exponent for cls in strata.values())
        degree = int((high - low) * r)
        degree += max(0, *(sum(r - n[j] for j in J) for J in strata))
    # deg D >= max n[j], because the Phi_d with d | n[j] multiply to u^n[j] - 1.
    _check_udegree(degree + max(n.values(), default=0), r, "at least ")
    orders = {j: [d for d in range(1, k + 1) if k % d == 0] for j, k in n.items()}
    multiplicity: dict[int, int] = {}
    for J in strata:
        for d, count in Counter(d for j in J for d in orders[j]).items():
            multiplicity[d] = max(multiplicity.get(d, 0), count)
    binomials: Counter = Counter()
    for d, m in multiplicity.items():
        for e, mu in _moebius_pairs(d):
            binomials[e] += mu * m
    _check_udegree(degree + sum(e * t for e, t in binomials.items()), r, "")
    return r, n, binomials


def _check_udegree(degree: int, r: int, qualifier: str) -> None:
    if degree > MAX_UDEGREE:
        raise ValueError(
            f"the Batyrev sum has u-degree {qualifier}{degree} in u = L^(1/{r}), "
            f"above MAX_UDEGREE = {MAX_UDEGREE}"
        )


def _moebius_pairs(d: int) -> list[tuple[int, int]]:
    """The pairs (e, mu(d/e)) over divisors e of d with d/e squarefree."""
    primes, rest, p = [], d, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    pairs = [(d, 1)]
    for p in primes:
        pairs += [(e // p, -mu) for e, mu in pairs]
    return pairs


def _times_binomial(poly: list[int], e: int) -> list[int]:
    """poly * (u^e - 1), coefficient lists lowest degree first."""
    out = [-c for c in poly] + [0] * e
    for i, c in enumerate(poly):
        out[i + e] += c
    return out


def _over_binomial(poly: list[int], e: int) -> list[int]:
    """poly / (u^e - 1) for a poly that u^e - 1 divides."""
    quot = [-c for c in poly[:len(poly) - e]]
    for i in range(e, len(quot)):
        quot[i] += quot[i - e]
    return quot


def crepant_total_class(data: SncStrataData) -> MotivicElement:
    """Sum of all open-stratum classes; equals the stringy motif when crepant."""
    if not data.is_crepant:
        nonzero = sorted(i for i, a in data.divisors.items() if a != 0)
        raise NotCrepant(f"divisors {nonzero} have nonzero discrepancy")
    total = ZERO
    for cls in data.strata.values():
        total = total + cls
    return total


def closed_from_open(data: SncStrataData) -> dict[frozenset, MotivicElement]:
    """Classes of the closed strata: closed(J) = sum of open(J') over J' >= J.

    Inverts the alternating-sum relation expressing open strata through closed
    ones; applying that alternating sum to the output recovers the input.
    Zero entries are dropped.
    """
    closed: dict[frozenset, MotivicElement] = {}
    for subset, cls in data.strata.items():
        members = sorted(subset)
        for size in range(len(members) + 1):
            for combo in combinations(members, size):
                key = frozenset(combo)
                closed[key] = closed.get(key, ZERO) + cls
    return {key: cls for key, cls in closed.items() if not cls.is_zero}


def stringy_poincare(data: SncStrataData) -> PoincareFunction:
    """The Poincare realization of the stringy motif."""
    return poincare_realize(stringy_motif(data))


def dual_complex_euler_from_pst(data: SncStrataData) -> Fraction:
    """Euler characteristic of the dual complex, read off the Poincare function at T = 0."""
    return stringy_poincare(data).eval_at_zero()


def dual_complex_euler_direct(data: SncStrataData) -> int:
    """Euler characteristic by inclusion-exclusion over connected-component counts."""
    if data.pi0 is None:
        raise MissingPi0("connected-component counts were not supplied")
    return sum((-1) ** (len(subset) - 1) * count for subset, count in data.pi0.items())


def duality_report(data: SncStrataData) -> bool:
    """Check the d-dimensional duality of the Poincare function, d the input dimension.

    Meaningful when the resolved space is proper and the center is everything;
    that hypothesis is the caller's responsibility.
    """
    return stringy_poincare(data).satisfies_duality(data.dimension)


@dataclass(frozen=True)
class StringyResult:
    """Bundle of the invariants computed from one strata input."""

    motif: MotivicRational
    poincare: PoincareFunction
    crepant: bool
    duality_dim: Optional[int] = None
    duality_holds: Optional[bool] = None
    chi_from_pst: Optional[Fraction] = None
    chi_pole: bool = False
    chi_direct: Optional[int] = None


def stringy_result(data: SncStrataData, duality_dim: Optional[int] = None) -> StringyResult:
    """Compute the motif, its realizations, and the optional duality check."""
    motif = stringy_motif(data)
    poincare = poincare_realize(motif)
    duality_holds = None
    if duality_dim is not None:
        duality_holds = poincare.satisfies_duality(duality_dim)
    chi_pole = False
    try:
        chi: Optional[Fraction] = poincare.eval_at_zero()
    except PoleError:
        chi = None
        chi_pole = True
    chi_direct = None
    if data.pi0 is not None:
        chi_direct = dual_complex_euler_direct(data)
    return StringyResult(
        motif=motif,
        poincare=poincare,
        crepant=data.is_crepant,
        duality_dim=duality_dim,
        duality_holds=duality_holds,
        chi_from_pst=chi,
        chi_pole=chi_pole,
        chi_direct=chi_direct,
    )
