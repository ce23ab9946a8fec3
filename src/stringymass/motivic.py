"""Exact arithmetic in Laurent polynomials and rational functions of L^(1/r).

Every value handled by this package is a finite integer-coefficient Laurent
polynomial in fractional powers of the Lefschetz class L, or a quotient of two
such polynomials.  The ramification index r of a value is the least common
multiple of the exponent denominators, so a value always lives in the Laurent
ring Z[L^(1/r), L^(-1/r)] for some finite r.

``MotivicElement`` stores that minimal r and integer exponents counted in
units of 1/r, so the ring operations run on ints alone; ``Fraction`` exponents
appear only where values enter or leave (constructor, ``terms``, exponents,
triples, ``render``).

``MotivicRational`` keeps quotients in a canonical reduced form: writing both
parts as a monomial times a polynomial in u = L^(1/r), their primitive integer
gcd (the heuristic gcd at an integer point, checked by exact division, with
the pseudo-remainder sequence as fallback) is divided out by exact division
over Z (Gauss's lemma), the joint content of the pair is divided out, and the
denominator gets a positive leading coefficient and lowest exponent 0 (its
monomial part is pushed into the numerator).  Equality of values is then
plain structural equality.

Two realizations are provided: the virtual Poincare realization L -> T^2
(``poincare_realize``) and evaluation at L = 1 (``euler_realize``).  Geometric
series with non-decaying exponents are represented by a distinguished infinite
value instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PoleError, UndefinedProduct
from .util import as_fraction, as_int


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class MotivicElement:
    """Sparse Laurent polynomial in L^(1/r) with integer coefficients.

    Stored as the ramification index r and a map from integer exponents k to
    nonzero integer coefficients, the key k standing for L^(k/r).  r is
    minimal (the lcm of the reduced exponent denominators, 1 for zero), so
    equal values have equal r and equal maps and equality is structural.
    Ring operations rescale both maps to the lcm of the two indices and stay
    in ints; Fractions appear only at the boundary: the constructor, ``terms``,
    ``min_exponent``/``max_exponent``, ``coefficient``, the triples and
    ``render``.  Instances are immutable values; all operations return new
    objects.
    """

    __slots__ = ("_r", "_terms")

    def __init__(self, terms=None):
        acc: dict[Fraction, int] = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for exp, coeff in items:
                coeff = as_int(coeff)
                if coeff == 0:
                    continue
                exp = as_fraction(exp)
                acc[exp] = acc.get(exp, 0) + coeff
        acc = {e: c for e, c in acc.items() if c != 0}
        # The lcm of reduced denominators is already minimal for these keys.
        r = math.lcm(*(e.denominator for e in acc))
        self._r = r
        self._terms = {e.numerator * (r // e.denominator): c for e, c in acc.items()}

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict[Fraction, int]:
        return {Fraction(k, self._r): c for k, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def ramification_index(self) -> int:
        return self._r

    @property
    def min_exponent(self) -> Fraction:
        if not self._terms:
            raise ValueError("the zero element has no exponents")
        return Fraction(min(self._terms), self._r)

    @property
    def max_exponent(self) -> Fraction:
        if not self._terms:
            raise ValueError("the zero element has no exponents")
        return Fraction(max(self._terms), self._r)

    @property
    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def coefficient(self, exp) -> int:
        k = as_fraction(exp) * self._r
        return self._terms.get(k.numerator, 0) if k.denominator == 1 else 0

    def evaluate_at_one(self) -> int:
        return sum(self._terms.values())

    def is_integral_polynomial(self) -> bool:
        """True when all exponents are nonnegative integers."""
        return self._r == 1 and all(k >= 0 for k in self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        r = math.lcm(self._r, other._r)
        merged = dict(_terms_at(self, r))
        for k, c in _terms_at(other, r).items():
            c += merged.get(k, 0)
            if c:
                merged[k] = c
            else:
                del merged[k]
        return _element(r, merged)

    __radd__ = __add__

    def __neg__(self):
        return _element(self._r, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        r = math.lcm(self._r, other._r)
        right = _terms_at(other, r).items()
        acc: dict[int, int] = {}
        for k1, c1 in _terms_at(self, r).items():
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return _element(r, {k: c for k, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        n = as_int(n)
        if n < 0:
            raise ValueError("negative powers of a general element are rational functions")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        return self._r == other._r and self._terms == other._terms

    def __hash__(self):
        return hash((self._r, frozenset(self._terms.items())))

    # -- exponent transforms ------------------------------------------------

    def shift(self, exp) -> "MotivicElement":
        """Multiply by the monomial L^exp."""
        exp = as_fraction(exp)
        r = math.lcm(self._r, exp.denominator)
        step = exp.numerator * (r // exp.denominator)
        return _element(r, {k + step: c for k, c in _terms_at(self, r).items()})

    def scale_exponents(self, factor) -> "MotivicElement":
        """Substitute L^e -> L^(factor * e); factor must be nonzero."""
        factor = as_fraction(factor)
        if factor == 0:
            raise ValueError("exponent scaling by zero collapses the grading")
        return _element(
            self._r * factor.denominator,
            {k * factor.numerator: c for k, c in self._terms.items()},
        )

    # -- serialization ------------------------------------------------------

    def to_triples(self) -> list[list[int]]:
        """Terms as [exponent numerator, exponent denominator, coefficient], descending."""
        triples = []
        for k in sorted(self._terms, reverse=True):
            g = math.gcd(k, self._r)
            triples.append([k // g, self._r // g, self._terms[k]])
        return triples

    @classmethod
    def from_triples(cls, triples) -> "MotivicElement":
        return cls([(Fraction(int(n), int(d)), int(c)) for n, d, c in triples])

    @classmethod
    def constant(cls, n) -> "MotivicElement":
        return cls({Fraction(0): as_int(n)})

    def render(self, var: str = "L") -> str:
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms, reverse=True):
            c = self._terms[k]
            if k == 0:
                body = str(abs(c))
            else:
                head = _render_power(var, Fraction(k, self._r))
                body = head if abs(c) == 1 else f"{abs(c)}{head}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"MotivicElement({self.render()})"


def _element(r: int, terms: dict) -> MotivicElement:
    """The element sum of c L^(k/r) over terms {k: c}, which holds no zero
    coefficient; r is lowered to the minimal ramification index here."""
    if r > 1:
        g = math.gcd(r, *terms)
        if g > 1:
            r //= g
            terms = {k // g: c for k, c in terms.items()}
    elem = object.__new__(MotivicElement)
    elem._r = r
    elem._terms = terms
    return elem


def _terms_at(elem: MotivicElement, r: int) -> dict:
    """elem's term map with exponents in units of 1/r, r a multiple of elem's
    index; the map may be elem's own, so callers must not change it."""
    factor = r // elem._r
    if factor == 1:
        return elem._terms
    return {k * factor: c for k, c in elem._terms.items()}


def _render_power(var: str, e: Fraction) -> str:
    if e == 1:
        return var
    if e.denominator == 1:
        return f"{var}^{e.numerator}" if e > 0 else f"{var}^({e.numerator})"
    return f"{var}^({e.numerator}/{e.denominator})"


def _coerce_element(x):
    if isinstance(x, MotivicElement):
        return x
    if isinstance(x, bool):
        return NotImplemented
    if isinstance(x, Fraction) and x.denominator == 1:
        x = x.numerator
    if isinstance(x, int):
        return _element(1, {0: x} if x else {})
    return NotImplemented


ZERO = MotivicElement()
ONE = MotivicElement({Fraction(0): 1})
L = MotivicElement({Fraction(1): 1})


def l_power(exp) -> MotivicElement:
    """The monomial L^exp for an exact rational exponent."""
    return MotivicElement({as_fraction(exp): 1})


# ---------------------------------------------------------------------------
# Integer polynomial helpers, used only for canonical reduction
# ---------------------------------------------------------------------------

def _u_coefficients(elem: MotivicElement, r: int):
    """Split elem as u^shift * sum coeffs[k] u^k, u = L^(1/r), with coeffs[0] nonzero."""
    factor = r // elem._r
    low = min(elem._terms)
    coeffs = [0] * ((max(elem._terms) - low) * factor + 1)
    for k, c in elem._terms.items():
        coeffs[(k - low) * factor] = c
    return low * factor, coeffs


def _element_from_u(coeffs, r: int, shift: int) -> MotivicElement:
    """The element u^shift * sum coeffs[k] u^k, u = L^(1/r)."""
    return _element(r, {shift + k: c for k, c in enumerate(coeffs) if c})


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_exact_div(num, den):
    """Quotient of num by den over Z, or None when den does not divide num."""
    num = list(num)
    lead = den[-1]
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        coeff, rem = divmod(num[k + len(den) - 1], lead)
        if rem:
            return None
        quot[k] = coeff
        if coeff:
            for j, c in enumerate(den):
                num[k + j] -= coeff * c
    return None if any(num) else quot


def _poly_content(a) -> int:
    return math.gcd(*(abs(c) for c in a))


def _poly_primitive(a):
    if not a:
        return a
    content = _poly_content(a)
    return [c // content for c in a]


def _poly_pseudo_rem(a, b):
    """Pseudo-remainder over Z: eliminate top terms after scaling by lc(b)."""
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        top = r[-1]
        r = [c * lead for c in r[:-1]]
        shift = len(r) - (len(b) - 1)
        for j in range(len(b) - 1):
            r[shift + j] -= top * b[j]
        _poly_trim(r)
        if not r:
            break
    return r


def _poly_gcd(a, b):
    """Primitive gcd over Z of two nonzero polynomials, positive leading coefficient.

    Heuristic gcd (Char, Geddes and Gonnet): at an integer point
    xi >= 2 min(|a|, |b|) + 2 (max norms of the primitive parts), the balanced
    base-xi digits of gcd(a(xi), b(xi)) are a polynomial g; by their theorem,
    if its primitive part divides a and b it is the gcd.  The integer work is
    native big-integer arithmetic.  After six unlucky points the primitive
    pseudo-remainder sequence decides.
    """
    a = _poly_primitive(_poly_trim([as_int(c) for c in a]))
    b = _poly_primitive(_poly_trim([as_int(c) for c in b]))
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        va, vb = _poly_value(a, xi), _poly_value(b, xi)
        if va and vb:
            g = _poly_primitive(_balanced_digits(math.gcd(va, vb), xi))
            if _poly_exact_div(a, g) is not None and _poly_exact_div(b, g) is not None:
                return g if g[-1] > 0 else [-c for c in g]
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return _poly_gcd_prs(a, b)


def _poly_value(a, x: int) -> int:
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


def _balanced_digits(value: int, base: int) -> list[int]:
    """Digits of value in base `base`, each in (-base/2, base/2], lowest first."""
    digits = []
    while value:
        digit = value % base
        if digit > base // 2:
            digit -= base
        digits.append(digit)
        value = (value - digit) // base
    return digits


def _poly_gcd_prs(a, b):
    """Primitive gcd of primitive a and b via the primitive pseudo-remainder
    sequence; content is stripped at every step to keep coefficient growth in
    check."""
    while b:
        rem = _poly_pseudo_rem(a, b)
        a, b = b, _poly_primitive(rem)
    if a[-1] < 0:
        a = [-c for c in a]
    return a


def _normalize_pair(pn, pd):
    """Divide out the joint content, choosing its sign so that den lead > 0."""
    content = math.gcd(*pn, *pd)
    if pd[-1] < 0:
        content = -content
    return [c // content for c in pn], [c // content for c in pd]


def _reduce(num: MotivicElement, den: MotivicElement):
    if den.is_zero:
        raise ZeroDivisionError("denominator is the zero element")
    if num.is_zero:
        return ZERO, ONE
    r = math.lcm(num._r, den._r)
    sn, pn = _u_coefficients(num, r)
    sd, pd = _u_coefficients(den, r)
    # The gcd is primitive, so by Gauss's lemma it divides both parts over Z.
    g = _poly_gcd(pn, pd)
    if len(g) > 1:
        pn = _poly_exact_div(pn, g)
        pd = _poly_exact_div(pd, g)
    pn, pd = _normalize_pair(pn, pd)
    return _element_from_u(pn, r, sn - sd), _element_from_u(pd, r, 0)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class MotivicRational:
    """Quotient of two MotivicElements kept in canonical reduced form.

    Equality of values is decidable by structural comparison of the reduced
    numerator and denominator; the reduction is idempotent by construction.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=ONE):
        n = _coerce_element(num)
        d = _coerce_element(den)
        if n is NotImplemented or d is NotImplemented:
            raise TypeError("MotivicElement or integer expected")
        self._num, self._den = _reduce(n, d)

    @property
    def numerator(self) -> MotivicElement:
        return self._num

    @property
    def denominator(self) -> MotivicElement:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self._den == ONE

    def as_element(self) -> MotivicElement:
        if not self.is_polynomial:
            raise ValueError(f"{self.render()} is not a Laurent polynomial")
        return self._num

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self._num, self._den)

    def __sub__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero value")
        return type(self)(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        n = as_int(n)
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return type(self)(self._den, self._num) ** (-n)
        return type(self)(self._num**n, self._den**n)

    def __eq__(self, other):
        other = _coerce_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    # -- evaluation ---------------------------------------------------------

    def evaluate_at_one(self) -> Fraction:
        """Value at L = 1; raises PoleError for a genuine pole."""
        den = self._den.evaluate_at_one()
        if den == 0:
            raise PoleError(f"{self.render()} has a pole at L = 1")
        return Fraction(self._num.evaluate_at_one(), den)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self._num.to_triples(), "den": self._den.to_triples()}

    @classmethod
    def from_json(cls, payload) -> "MotivicRational":
        return cls(
            MotivicElement.from_triples(payload["num"]),
            MotivicElement.from_triples(payload["den"]),
        )

    def render(self, var: str = "L") -> str:
        if self._den == ONE:
            return self._num.render(var)
        return f"({self._num.render(var)})/({self._den.render(var)})"

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


def _coerce_rational(x):
    if isinstance(x, MotivicRational):
        return x
    elem = _coerce_element(x)
    if elem is NotImplemented:
        return NotImplemented
    return MotivicRational(elem)


# ---------------------------------------------------------------------------
# Extension by a distinguished infinite value
# ---------------------------------------------------------------------------

class ExtendedMotivic:
    """A MotivicRational or the infinite value of a divergent sum.

    Infinity absorbs addition and multiplication by nonzero finite values;
    multiplying it by zero raises UndefinedProduct.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        if value is not None and not isinstance(value, MotivicRational):
            value = MotivicRational(value)
        self._value = value

    @classmethod
    def finite(cls, x) -> "ExtendedMotivic":
        if x is None:
            raise TypeError("finite value expected")
        return cls(x)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> MotivicRational:
        if self._value is None:
            raise ValueError("the infinite value has no finite part")
        return self._value

    def __add__(self, other):
        other = _coerce_extended(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return ExtendedMotivic(self._value + other._value)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce_extended(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            for side in (self, other):
                if not side.is_infinite and side._value.is_zero:
                    raise UndefinedProduct("infinity times zero is undefined")
            return INFINITY
        return ExtendedMotivic(self._value * other._value)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_extended(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return self.is_infinite and other.is_infinite
        return self._value == other._value

    def __hash__(self):
        return hash(self._value)

    def render(self, var: str = "L") -> str:
        return "infinity" if self.is_infinite else self._value.render(var)

    def __repr__(self):
        return f"ExtendedMotivic({self.render()})"


def _coerce_extended(x):
    if isinstance(x, ExtendedMotivic):
        return x
    rat = _coerce_rational(x)
    if rat is NotImplemented:
        return NotImplemented
    return ExtendedMotivic(rat)


INFINITY = ExtendedMotivic(None)


# ---------------------------------------------------------------------------
# Poincare functions
# ---------------------------------------------------------------------------

class PoincareFunction(MotivicRational):
    """A MotivicRational read in the variable T^(1/r) instead of L^(1/r).

    The canonical form, equality and arithmetic are those of MotivicRational;
    arithmetic with a PoincareFunction on either side gives a PoincareFunction.
    Only evaluation at T = 0, the duality check and the default variable of
    ``render`` are specific to T.
    """

    __slots__ = ()

    def __init__(self, num, den=ONE):
        if isinstance(num, MotivicRational) and den is ONE:
            self._num, self._den = num._num, num._den
        else:
            super().__init__(num, den)

    # A subclass's own reflected method runs before the base class's forward
    # one, so MotivicRational + PoincareFunction is a PoincareFunction too.
    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    @property
    def rational(self) -> MotivicRational:
        return MotivicRational(self._num, self._den)

    @property
    def ramification_index(self) -> int:
        return math.lcm(self._num.ramification_index, self._den.ramification_index)

    def eval_at_zero(self) -> Fraction:
        """Value of the reduced function at T = 0.

        Equivalent to clearing negative exponents with the minimal power of T
        and taking the ratio of constant terms: the canonical denominator has
        lowest exponent 0, so a pole occurs exactly when the numerator still
        carries negative exponents.
        """
        num, den = self._num, self._den
        if num.is_zero:
            return Fraction(0)
        low = num.min_exponent
        if low > 0:
            return Fraction(0)
        if low == 0:
            return Fraction(num.constant_term, den.constant_term)
        raise PoleError(f"{self.render()} has a pole at T = 0")

    def satisfies_duality(self, d: int) -> bool:
        """True when T^(2d) * f(1/T) and f(T) agree as canonical functions."""
        d = as_int(d)
        if d < 0:
            raise ValueError("duality dimension must be nonnegative")
        num = self._num.scale_exponents(-1).shift(2 * d)
        den = self._den.scale_exponents(-1)
        return MotivicRational(num, den) == self

    def is_integral_polynomial(self) -> bool:
        """True when the canonical form is a polynomial in T (not in T^(1/r))."""
        return self.is_polynomial and self._num.is_integral_polynomial()

    def render(self, var: str = "T") -> str:
        return super().render(var)


def poincare_realize(x) -> PoincareFunction:
    """Apply the ring homomorphism L^q -> T^(2q)."""
    if isinstance(x, ExtendedMotivic):
        x = x.value
    rat = _coerce_rational(x)
    if rat is NotImplemented:
        raise TypeError("finite motivic value expected")
    return PoincareFunction(rat.numerator.scale_exponents(2), rat.denominator.scale_exponents(2))


def euler_realize(x):
    """Evaluate at L = 1; infinity maps to math.inf, genuine poles raise."""
    if isinstance(x, ExtendedMotivic):
        if x.is_infinite:
            return math.inf
        x = x.value
    rat = _coerce_rational(x)
    if rat is NotImplemented:
        raise TypeError("motivic value expected")
    return rat.evaluate_at_one()


# ---------------------------------------------------------------------------
# Geometric series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricStrand:
    """The formal sum of class_factor * L^(initial_exponent - i * step) over i >= 0."""

    initial_exponent: Fraction
    step: Fraction
    class_factor: MotivicElement = field(default_factory=lambda: ONE)

    def __post_init__(self):
        object.__setattr__(self, "initial_exponent", as_fraction(self.initial_exponent))
        object.__setattr__(self, "step", as_fraction(self.step))
        factor = _coerce_element(self.class_factor)
        if factor is NotImplemented:
            raise TypeError("class_factor must be a MotivicElement or integer")
        object.__setattr__(self, "class_factor", factor)

    def partial_sum(self, count: int) -> MotivicElement:
        """Sum of the first `count` terms, for series/closed-form comparisons."""
        total = ZERO
        for i in range(count):
            total = total + self.class_factor.shift(
                self.initial_exponent - i * self.step
            )
        return total


def geometric_sum(strand: GeometricStrand) -> ExtendedMotivic:
    """Closed form of the strand, or infinity when the terms do not decay."""
    if strand.class_factor.is_zero:
        return ExtendedMotivic.finite(MotivicRational(ZERO))
    if strand.step <= 0:
        return INFINITY
    num = strand.class_factor.shift(strand.initial_exponent)
    den = ONE - l_power(-strand.step)
    return ExtendedMotivic.finite(MotivicRational(num, den))
