"""Enumeration of totally tamely ramified extensions of F_q((t)).

A totally tamely ramified extension of degree n (with n prime to the residue
characteristic) is generated by a root of an Eisenstein polynomial
y^n - u t with u a unit of the residue field, and two units give isomorphic
extensions exactly when they agree modulo n-th powers.  This module carries
out that enumeration with explicit finite-field arithmetic, computes the
discriminant exponent n - 1 and the automorphism count of each class by
exhaustive search, and sums the weighted count that the mass formula
predicts to be q^(1 - n).

Finite fields of non-prime order use a fixed table of defining polynomials so
results are reproducible bit for bit; irreducibility is re-verified at
construction by brute-force trial division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import WildDegree
from .util import is_prime

# Defining polynomials for the supported non-prime orders.
# Coefficients are listed low to high, e.g. 4: x^2 + x + 1 over F_2.
DEFINING_POLYNOMIALS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    49: (1, 0, 1),
}


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, over F_p."""
    num = [c % p for c in num]
    deg = len(den) - 1
    for k in range(len(num) - 1, deg - 1, -1):
        coeff = num[k]
        if coeff:
            for j in range(deg + 1):
                num[k - deg + j] = (num[k - deg + j] - coeff * den[j]) % p
    result = num[:deg]
    result += [0] * (deg - len(result))
    return result


def _check_irreducible(modulus: tuple[int, ...], p: int) -> None:
    """Brute-force check: no monic polynomial of degree 1..e//2 divides modulus."""
    e = len(modulus) - 1
    for deg in range(1, e // 2 + 1):
        for lower in product(range(p), repeat=deg):
            divisor = tuple(lower) + (1,)
            if not any(_poly_mod(list(modulus), divisor, p)):
                raise ValueError(
                    f"defining polynomial {modulus} is divisible by {divisor} over F_{p}"
                )


class FiniteField:
    """F_q with q = p^e, elements represented as coefficient tuples of length e."""

    __slots__ = ("p", "e", "q", "modulus")

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = None
        else:
            if modulus is None:
                raise ValueError("a defining polynomial is required for e > 1")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError(f"defining polynomial must be monic of degree {e}")
            _check_irreducible(modulus, p)
            self.modulus = modulus

    @classmethod
    def of_order(cls, q: int) -> "FiniteField":
        """Field of order q: any prime, or a prime power from the built-in table."""
        if is_prime(q):
            return cls(q)
        if q not in DEFINING_POLYNOMIALS:
            raise ValueError(f"no defining polynomial on record for q = {q}")
        poly = DEFINING_POLYNOMIALS[q]
        p = next(d for d in range(2, q + 1) if q % d == 0)
        return cls(p, len(poly) - 1, poly)

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.e

    @property
    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.e - 1)

    def elements(self):
        """All q elements, ordered by their integer encoding."""
        for coeffs in product(range(self.p), repeat=self.e):
            yield tuple(reversed(coeffs))

    def units(self) -> list[tuple[int, ...]]:
        return [a for a in self.elements() if a != self.zero]

    def encode(self, a: tuple[int, ...]) -> int:
        """Integer encoding sum a_i p^i, used for deterministic ordering."""
        total = 0
        for c in reversed(a):
            total = total * self.p + c
        return total

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        raw = [0] * (2 * self.e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    raw[i + j] = (raw[i + j] + ai * bj) % self.p
        if self.e == 1:
            return (raw[0],)
        return tuple(_poly_mod(raw, self.modulus, self.p))

    def pow(self, a: tuple[int, ...], k: int) -> tuple[int, ...]:
        if k < 0:
            raise ValueError("negative powers not needed here")
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def element_order(self, a: tuple[int, ...]) -> int:
        if a == self.zero:
            raise ValueError("zero has no multiplicative order")
        power = a
        order = 1
        while power != self.one:
            power = self.mul(power, a)
            order += 1
        return order

    def multiplicative_generator(self) -> tuple[int, ...]:
        """First unit (in encoding order) of full order q - 1, found by search."""
        for a in self.units():
            if self.element_order(a) == self.q - 1:
                return a
        raise AssertionError("multiplicative group of a finite field is cyclic")


@dataclass(frozen=True)
class TameExtensionClass:
    """Isomorphism class of a totally tamely ramified degree-n extension.

    Generated by a root of y^n - u t for the recorded unit; the discriminant
    exponent is n - 1 and aut_order counts the n-th roots of unity in F_q.
    """

    degree: int
    unit: tuple[int, ...]
    disc_exponent: int
    aut_order: int


def _check_tame(field: FiniteField, n: int) -> None:
    if n < 1:
        raise ValueError("degree must be positive")
    if n % field.p == 0:
        raise WildDegree(f"degree {n} is divisible by the residue characteristic {field.p}")


def aut_order(field: FiniteField, n: int) -> int:
    """Number of n-th roots of unity in F_q, by exhaustive search."""
    _check_tame(field, n)
    count = sum(1 for c in field.units() if field.pow(c, n) == field.one)
    assert count == math.gcd(n, field.q - 1), "root count must equal gcd(n, q-1)"
    return count


def enumerate_tame_classes(field: FiniteField, n: int) -> list[TameExtensionClass]:
    """One class per orbit of units under u ~ u c^n, in encoding order."""
    _check_tame(field, n)
    units = field.units()
    nth_powers = {field.pow(u, n) for u in units}
    autos = aut_order(field, n)
    classes = []
    seen: set[tuple[int, ...]] = set()
    for u in units:
        if u in seen:
            continue
        orbit = {field.mul(u, w) for w in nth_powers}
        seen |= orbit
        classes.append(TameExtensionClass(n, u, n - 1, autos))
    expected = math.gcd(n, field.q - 1)
    assert len(classes) == expected, "class count must equal gcd(n, q-1)"
    return classes


def serre_mass(field: FiniteField, n: int) -> tuple[Fraction, Fraction]:
    """Weighted count over the enumerated classes, paired with the value q^(1-n)."""
    classes = enumerate_tame_classes(field, n)
    scale = Fraction(1, field.q ** (n - 1))
    mass = sum((Fraction(1, cls.aut_order) * scale for cls in classes), Fraction(0))
    return mass, scale
