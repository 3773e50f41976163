"""Exact symbolic numbers of the form q * pi^p * sqrt(s), plus +infinity.

Every quantity this toolkit reports is an exact rational multiple of 1, pi,
pi^2, pi*sqrt(s) or pi^2*sqrt(s), s a nonnegative integer, so acceptance
checks are tolerance-free.  Canonical form: the radicand is squarefree
(square factors are absorbed into q), and q == 0 forces pi_power == 0 and
radicand == 1.  Two distinct canonical forms never denote the same real
number (pi is transcendental, and squarefree radicands of equal rationals
coincide), so equality compares fields.  A report builds each value once,
scales it at most once and prints it: a value has no arithmetic and no order.

The certificates decide A*pi^2 > B for integers A and B, which never ties
for A != 0.  ``pi2_greater`` refines enclosures of pi^2 (``pi2_bounds``) to
10^-d, d = 50, 100, 200, ..., until one decides, and reports a tie only
when ``PI_DIGIT_CAP`` digits do not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from fourfold.errors import CapacityError

# pi2_greater refines pi^2 from 50 digits, doubling, up to this many digits;
# building every enclosure up to it takes well under 1 s.
PI_DIGIT_CAP = 12_800

# squarefree_decompose divides by trial up to sqrt(s), so its time grows as
# sqrt(s): about 0.15 s for a prime near this cap on one x86 core of a 2-core
# VM.  Past it, CapacityError.
RADICAND_CAP = 10**12


@functools.lru_cache(maxsize=None)
def pi2_bounds(d: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < pi^2 < hi with hi - lo <= 2*10^-d.

    pi = 16 arctan(1/5) - 4 arctan(1/239) is summed in integers at scale
    10^(d+10).  Each term is the floor of the true term, and the tail after
    the last nonzero term is below one unit, so the sum is within
    16*(terms + 2) units of pi*scale; squared, that slack is far below the
    10 guard digits dropped when the bounds are rounded outwards to 10^-d.
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
    shift = 10 ** (d + 20)
    lo = (pi - slack) ** 2 // shift
    hi = -(-(pi + slack) ** 2 // shift)
    return Fraction(lo, 10 ** d), Fraction(hi, 10 ** d)


def pi2_greater(p: int, q: int, strict: bool = True) -> Optional[bool]:
    """Decide p*pi^2 > q (or >= when strict=False) for integers p and q.

    Returns True/False, and None only when ``pi2_bounds`` at PI_DIGIT_CAP
    digits cannot settle it.  For p != 0 the strict and non-strict answers
    coincide (p*pi^2 is irrational).  A rational comparison a*pi^2 > b
    becomes an integer one once both sides are scaled by the positive
    denominators of a and b.

    With x = x_n/x_d an enclosure end, p*x - q has the sign of
    p*x_n - q*x_d; for p < 0 the question is turned into its negation for
    -p, -q, which never ties either.
    """
    if p == 0:
        return (0 > q) if strict else (0 >= q)
    positive = p > 0
    if not positive:
        p, q = -p, -q
    d = 50
    while True:
        # pi^2 > q/p: certain when p*lo >= q, impossible when p*hi <= q
        lo, hi = pi2_bounds(d)
        if p * lo.numerator >= q * lo.denominator:
            return positive
        if p * hi.numerator <= q * hi.denominator:
            return not positive
        if d >= PI_DIGIT_CAP:
            return None
        d = min(2 * d, PI_DIGIT_CAP)


def squarefree_decompose(s: int) -> tuple[int, int]:
    """Write s = c^2 * r with r squarefree; returns (c, r).  Requires
    s >= 0, which ``SymbolicValue`` checks first, and refuses s > RADICAND_CAP."""
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


@dataclass(frozen=True)
class SymbolicValue:
    """An exact number q*pi^p*sqrt(s) (q rational, p in {0,1,2}, s squarefree >= 0),
    or +infinity."""

    q: Fraction = Fraction(0)  # an int is taken as a Fraction
    pi_power: int = 0
    radicand: int = 1
    inf: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.pi_power not in (0, 1, 2):
            raise ValueError("pi_power must be 0, 1 or 2")
        if self.radicand < 0:
            raise ValueError("radicand must be a nonnegative integer")
        c, r = squarefree_decompose(self.radicand)
        self._store(Fraction(self.q) * c, self.pi_power, r)

    def _store(self, q: Fraction, pi_power: int, radicand: int) -> None:
        """Set the fields of a finite value whose radicand is squarefree."""
        if q == 0 or radicand == 0:
            q, pi_power, radicand = Fraction(0), 0, 1
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi_power", pi_power)
        object.__setattr__(self, "radicand", radicand)

    @classmethod
    def plus_infinity(cls) -> "SymbolicValue":
        """+infinity; its q, pi_power and radicand are those of zero."""
        value = cls()
        object.__setattr__(value, "inf", True)
        return value

    def scale(self, c: Fraction) -> "SymbolicValue":
        """c times this finite value."""
        if self.inf:
            raise ValueError("cannot scale an infinity")
        # the radicand is squarefree already: store, do not factor it again
        value = object.__new__(SymbolicValue)
        object.__setattr__(value, "inf", False)
        value._store(self.q * c, self.pi_power, self.radicand)
        return value

    def __str__(self) -> str:
        if self.inf:
            return "+inf"
        parts = [str(self.q)]
        if self.pi_power == 1:
            parts.append("pi")
        elif self.pi_power == 2:
            parts.append("pi^2")
        if self.radicand != 1:
            parts.append(f"sqrt({self.radicand})")
        return "*".join(parts)

    def approx(self) -> float:
        """Non-authoritative float approximation (display only); +/-inf past
        the float range."""
        if self.inf:
            return math.inf
        try:
            value = float(self.q)
        except OverflowError:
            return math.inf if self.q > 0 else -math.inf
        if self.pi_power:
            value *= math.pi ** self.pi_power
        if self.radicand != 1:
            value *= math.sqrt(self.radicand)
        return value

    def to_json(self) -> dict:
        if self.inf:
            return {"inf": "+"}
        return {"q": str(self.q), "pi_power": self.pi_power, "radicand": self.radicand}
