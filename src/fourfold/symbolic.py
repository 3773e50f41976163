"""Exact symbolic numbers of the form q * pi^p * sqrt(s), plus +/-infinity.

Every quantitative statement this toolkit certifies is an exact rational
multiple of 1, pi, pi^2, pi*sqrt(s) or pi^2*sqrt(s) with s a nonnegative
integer, so this tiny closed family is all we need; keeping it exact makes
acceptance checks tolerance-free.

Canonical form: the radicand is squarefree (square factors are absorbed into
q), and q == 0 forces pi_power == 0 and radicand == 1.  Equality is decidable
by comparing canonical fields; two distinct canonical forms never denote the
same real number (pi is transcendental, and squarefree radicands of equal
rationals coincide).

Comparisons are decided, not guessed: for rational A != 0 and B the
predicate A*pi^2 > B never ties (pi^2 is irrational), and distinct canonical
values differ.  Both are decided against enclosures of pi (Machin's formula,
``pi_bounds``) and of square roots (``math.isqrt``) to 10^-d, with
d = 50, 100, 200, ... until the enclosures separate.  ``pi2_greater``
cross-multiplies numerators and denominators (A*lo >= B, A*hi <= B)
without forming B/A.  Only a comparison still undecided at
``PI_DIGIT_CAP`` digits is reported as a tie (``pi2_greater``) or refused
with a ``CapacityError`` (``SymbolicValue.compare``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Union

from fourfold.errors import CapacityError

RationalLike = Union[int, Fraction, str]

# Comparisons refine pi and square roots from 50 digits, doubling, up to
# this many digits; building every enclosure up to it takes well under 1 s.
PI_DIGIT_CAP = 12_800

# squarefree_decompose divides by trial up to sqrt(s), so its time grows as
# sqrt(s): about 0.15 s for a prime near this cap on one x86 core of a 2-core
# VM.  Past it, CapacityError.
RADICAND_CAP = 10**12


@functools.lru_cache(maxsize=None)
def pi_bounds(d: int, power: int = 1) -> tuple[Fraction, Fraction]:
    """Rationals lo < pi^power < hi (power 1 or 2) with hi - lo <= 2*10^-d.

    pi = 16 arctan(1/5) - 4 arctan(1/239) is summed in integers at scale
    10^(d+10).  Each term is the floor of the true term, and the tail after
    the last nonzero term is below one unit, so the sum is within
    16*(terms + 2) units of pi*scale; that slack is far below the 10 guard
    digits dropped when the bounds are rounded outwards to 10^-d.
    """
    scale = 10 ** (d + 10)
    pi = terms = 0
    for coeff, x in ((16, 5), (-4, 239)):
        term, k, sign = scale // x, 1, 1
        while term:
            pi += sign * coeff * (term // k)
            term //= x * x
            k, sign, terms = k + 2, -sign, terms + 1
    slack = 16 * (terms + 2)
    shift = 10 ** (power * (d + 10) - d)
    lo = (pi - slack) ** power // shift
    hi = -(-(pi + slack) ** power // shift)
    return Fraction(lo, 10 ** d), Fraction(hi, 10 ** d)


def pi2_greater(a: Union[int, Fraction], b: Union[int, Fraction],
                strict: bool = True) -> Optional[bool]:
    """Decide a*pi^2 > b (or >= when strict=False) over the rationals.

    Returns True/False, and None only when ``pi_bounds`` at PI_DIGIT_CAP
    digits cannot settle it.  For a != 0 the strict and non-strict answers
    coincide (a*pi^2 is irrational); for a == 0 the comparison is purely
    rational.

    ints and Fractions are used as they are; anything else goes through
    ``Fraction()``.  With a = a_n/a_d and b = b_n/b_d (positive
    denominators), a*x - b has the sign of p*x_n - q*x_d for x = x_n/x_d,
    where p = a_n*b_d and q = b_n*a_d, so the enclosure ends are compared
    by integer products alone.  For p < 0 the question is turned into
    its negation for -p, -q, which never ties either.
    """
    if not isinstance(a, (int, Fraction)):
        a = Fraction(a)
    if not isinstance(b, (int, Fraction)):
        b = Fraction(b)
    if a == 0:
        return (0 > b) if strict else (0 >= b)
    p = a.numerator * b.denominator
    q = b.numerator * a.denominator
    positive = p > 0
    if not positive:
        p, q = -p, -q
    d = 50
    while True:
        # pi^2 > q/p: certain when p*lo >= q, impossible when p*hi <= q
        lo, hi = pi_bounds(d, 2)
        if p * lo.numerator >= q * lo.denominator:
            return positive
        if p * hi.numerator <= q * hi.denominator:
            return not positive
        if d >= PI_DIGIT_CAP:
            return None
        d = min(2 * d, PI_DIGIT_CAP)


def squarefree_decompose(s: int) -> tuple[int, int]:
    """Write s = c^2 * r with r squarefree; returns (c, r).  Requires
    0 <= s <= RADICAND_CAP."""
    if s < 0:
        raise ValueError("radicand must be nonnegative")
    if s > RADICAND_CAP:
        raise CapacityError(f"a square root of a number over RADICAND_CAP = {RADICAND_CAP}")
    if s in (0, 1):
        return (1, s)
    c = 1
    r = s
    p = 2
    while p * p <= r:
        while r % (p * p) == 0:
            r //= p * p
            c *= p
        p += 1 if p == 2 else 2
    return (c, r)


class SymbolicValue:
    """An exact number q*pi^p*sqrt(s) (q rational, p in {0,1,2}, s squarefree >= 0),
    or one of the distinguished infinities."""

    __slots__ = ("q", "pi_power", "radicand", "inf")

    def __init__(self, q: RationalLike = 0, pi_power: int = 0, radicand: int = 1,
                 inf: int = 0):
        if inf not in (-1, 0, 1):
            raise ValueError("inf must be -1, 0 or +1")
        if inf != 0:
            object.__setattr__(self, "q", Fraction(0))
            object.__setattr__(self, "pi_power", 0)
            object.__setattr__(self, "radicand", 1)
            object.__setattr__(self, "inf", inf)
            return
        q = Fraction(q)
        if pi_power not in (0, 1, 2):
            raise ValueError("pi_power must be 0, 1 or 2")
        if radicand < 0:
            raise ValueError("radicand must be a nonnegative integer")
        c, r = squarefree_decompose(radicand)
        q = q * c
        if r == 0:
            q = Fraction(0)
            r = 1
        if q == 0:
            pi_power = 0
            r = 1
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi_power", pi_power)
        object.__setattr__(self, "radicand", r)
        object.__setattr__(self, "inf", 0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SymbolicValue is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def plus_infinity(cls) -> "SymbolicValue":
        return cls(inf=1)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.inf == 0 and self.q == 0

    def sign(self) -> int:
        if self.inf != 0:
            return self.inf
        if self.q > 0:
            return 1
        if self.q < 0:
            return -1
        return 0

    # -- arithmetic --------------------------------------------------------

    def _family(self) -> tuple[int, int]:
        return (self.pi_power, self.radicand)

    def __add__(self, other: "SymbolicValue") -> "SymbolicValue":
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        if self.inf != 0 or other.inf != 0:
            if self.inf != 0 and other.inf != 0 and self.inf != other.inf:
                raise ValueError("cannot add opposite infinities")
            return SymbolicValue(inf=self.inf or other.inf)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._family() != other._family():
            raise ValueError(
                f"addition across symbolic families {self._family()} and {other._family()}"
            )
        return SymbolicValue(self.q + other.q, self.pi_power, self.radicand)

    def __neg__(self) -> "SymbolicValue":
        if self.inf != 0:
            return SymbolicValue(inf=-self.inf)
        return SymbolicValue(-self.q, self.pi_power, self.radicand)

    def __sub__(self, other: "SymbolicValue") -> "SymbolicValue":
        return self + (-other)

    def scale(self, c: RationalLike) -> "SymbolicValue":
        c = Fraction(c)
        if self.inf != 0:
            if c == 0:
                raise ValueError("cannot scale an infinity by zero")
            return SymbolicValue(inf=self.inf if c > 0 else -self.inf)
        return SymbolicValue(self.q * c, self.pi_power, self.radicand)

    def __mul__(self, other: "SymbolicValue") -> "SymbolicValue":
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        if self.inf != 0 or other.inf != 0:
            s = self.sign() * other.sign()
            if s == 0:
                raise ValueError("0 * infinity is undefined")
            return SymbolicValue(inf=s)
        p = self.pi_power + other.pi_power
        if p > 2:
            raise ValueError("product leaves the representable family (pi power > 2)")
        return SymbolicValue(self.q * other.q, p, self.radicand * other.radicand)

    def __abs__(self) -> "SymbolicValue":
        return -self if self.sign() < 0 else self

    # -- comparison --------------------------------------------------------

    def _bounds(self, d: int) -> tuple[Fraction, Fraction]:
        """An enclosure of the (finite) value from pi and sqrt to 10^-d."""
        lo, hi = pi_bounds(d, self.pi_power) if self.pi_power else (1, 1)
        if self.radicand != 1:
            # root/10^d < sqrt(s) < (root + 1)/10^d, as s is no square
            root = math.isqrt(self.radicand * 10 ** (2 * d))
            lo, hi = lo * Fraction(root, 10**d), hi * Fraction(root + 1, 10**d)
        if self.q >= 0:
            return (self.q * lo, self.q * hi)
        return (self.q * hi, self.q * lo)

    def compare(self, other: "SymbolicValue") -> int:
        if not isinstance(other, SymbolicValue):
            raise TypeError("can only compare SymbolicValue with SymbolicValue")
        if self == other:
            return 0
        if self.inf != 0 or other.inf != 0:  # a finite value has inf == 0
            return -1 if self.inf < other.inf else 1
        if self._family() == other._family():
            return -1 if self.q < other.q else 1
        # Distinct canonical values never coincide, so refining the
        # enclosures separates them.
        d = 50
        while True:
            lo1, hi1 = self._bounds(d)
            lo2, hi2 = other._bounds(d)
            if hi1 < lo2:
                return -1
            if hi2 < lo1:
                return 1
            if d >= PI_DIGIT_CAP:
                raise CapacityError("two values agree to PI_DIGIT_CAP = "
                                    f"{PI_DIGIT_CAP} digits and are not ordered")
            d = min(2 * d, PI_DIGIT_CAP)

    def __lt__(self, other: "SymbolicValue") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "SymbolicValue") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "SymbolicValue") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "SymbolicValue") -> bool:
        return self.compare(other) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        return (self.q, self.pi_power, self.radicand, self.inf) == (
            other.q, other.pi_power, other.radicand, other.inf)

    def __hash__(self) -> int:
        return hash((self.q, self.pi_power, self.radicand, self.inf))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.inf == 1:
            return "+inf"
        if self.inf == -1:
            return "-inf"
        parts = [str(self.q)]
        if self.pi_power == 1:
            parts.append("pi")
        elif self.pi_power == 2:
            parts.append("pi^2")
        if self.radicand != 1:
            parts.append(f"sqrt({self.radicand})")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"SymbolicValue({self})"

    def approx(self) -> float:
        """Non-authoritative float approximation (display only); +/-inf past
        the float range."""
        if self.inf != 0:
            return float("inf") * self.inf
        try:
            value = float(self.q)
        except OverflowError:
            return float("inf") * self.sign()
        if self.pi_power:
            value *= math.pi ** self.pi_power
        if self.radicand != 1:
            value *= math.sqrt(self.radicand)
        return value

    def to_json(self) -> dict:
        if self.inf != 0:
            return {"inf": "+" if self.inf == 1 else "-"}
        return {"q": str(self.q), "pi_power": self.pi_power, "radicand": self.radicand}
