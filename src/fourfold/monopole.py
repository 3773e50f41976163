"""Monopole-class sets, beta^2, and the curvature-derived Riemannian
invariants.

The monopole classes and the invariants I_s, Y, K, I_r read a sum's
``surgery.Split``, made once per report: its piece count and Theorem-A
certificate say whether the sum (#X_m) # N is certified.  The classes of a
certified sum are the sign orbit {sum +/- e_i} of orthogonal generators e_i:
the canonical classes of the pieces and the exceptional classes of N.  A
``MonopoleClassSet`` stores only the generator squares e_i^2; its classes
are numbered by ``range(2 ** rank)``: class i has sign -1 on generator j
exactly when bit rank-1-j of i is set, so no class is ever built.

beta^2 is the maximum of the intersection form Q over Hull(classes).  In
generator coordinates the hull is the box [-1,1]^rank and Q is separable,
sum e_i^2 x_i^2, so the maximum is the sum of the positive squares
(separable box reduction), found in O(rank).  The tests cross-check this
closed form against face enumeration with rational stationarity systems and
against a brute-force mesh oracle.

Values are reported exactly; the witness is the lexicographically least
maximizing hull point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from fourfold.certify import Verdict, require_part_count
from fourfold.errors import CapacityError, PremiseError, int_str_limit, shown
from fourfold.model import Flag, Manifold
from fourfold.surgery import Split
from fourfold.symbolic import SymbolicValue


@dataclass(frozen=True)
class Inconclusive:
    """First-class 'the theorem's hypotheses are not met' marker."""

    reason: str


@dataclass(frozen=True)
class MonopoleClassSet:
    """The sign orbit {sum +/- e_i} of orthogonal generators, stored by the
    generator squares e_i^2 (the diagonal of the Gram matrix of the span).

    ``classes`` numbers the orbit: class i has sign -1 on generator j
    exactly when bit rank-1-j of i is set, the order of
    ``itertools.product((1, -1), repeat=rank)``.  ``len()`` cannot exceed
    ``sys.maxsize``, so past rank 62 use ``2 ** rank``.
    """

    squares: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.squares)

    @property
    def classes(self) -> range:
        return range(2 ** self.rank)


def monopole_classes_for_sum(split: Split) -> MonopoleClassSet:
    """All classes sum(+/- c1(X_m)) + sum(+/- E_r) on the split sum (#X_m) # N.

    Requires 2 or 3 pieces that pass the non-vanishing certificate
    (PremiseError); N's lattice is taken diagonal with k = b-(N) classes of
    square -1 (always arrangeable, by Donaldson's theorem).  A report prints
    the class count 2^rank, so before any square is stored a rank whose count
    has more than ``int_str_limit()`` digits is refused (CapacityError).
    """
    require_part_count("theorem-a", split.count)
    if split.theorem_a.verdict is not Verdict.NONVANISHING:
        raise PremiseError("non-vanishing premises fail: " + split.theorem_a.failures())
    k = 0 if split.rest is None else split.rest.char.b_minus
    rank, limit = split.count + k, int_str_limit()
    # 2^rank has more than `limit` digits exactly when 2^rank > 10^limit; the
    # digit estimate skips the exact test for every small rank
    if (rank + 1) * 30103 // 100000 >= limit and rank >= (10 ** limit).bit_length():
        raise CapacityError(f"a sign orbit of {shown(rank)} generators has 2^{shown(rank)} "
                            f"classes, a count of more than {limit} digits")
    return MonopoleClassSet(
        squares=tuple(p.canonical_spinc.c1_squared for p in split.parts) + (-1,) * k)


# ---------------------------------------------------------------------------
# beta^2

Witness = tuple[Fraction, ...]


def beta_squared_with_witness(s: MonopoleClassSet) -> tuple[Fraction, Witness]:
    """Exact beta^2 by separable box reduction, with the lexicographically
    least maximizer.

    Coordinates with positive square sit at +/-1, the rest at 0; the value is
    the sum of the positive squares.  The witness is -1 on coordinates of
    square >= 0 (those of square 0 are free among maximizers) and 0 on
    negative ones.
    """
    value = Fraction(sum(g for g in s.squares if g > 0))
    witness = tuple(Fraction(-1) if g >= 0 else Fraction(0) for g in s.squares)
    return value, witness


# ---------------------------------------------------------------------------
# Curvature bounds and invariants


def _kaehler_c1_total(split: Split, rest_flag: Flag) -> Union[int, Inconclusive]:
    """sum c1^2 over the split's positive pieces, when there are 2 or 3 that
    pass the non-vanishing certificate, each flagged MinimalKaehler, and the
    b+ = 0 rest (if any) is flagged ``rest_flag``."""
    if split.count not in (2, 3):
        return Inconclusive(
            f"needs a decomposition into 2 or 3 positive-b+ pieces plus a "
            f"b+ = 0 remainder; found {split.count} pieces")
    if split.theorem_a.verdict is not Verdict.NONVANISHING:
        return Inconclusive(f"non-vanishing premises fail: {split.theorem_a.failures()}")
    for p in split.parts:
        if not p.has_flag(Flag.MINIMAL_KAEHLER):
            return Inconclusive(f"part {p.name} is not flagged MinimalKaehler")
    if split.rest is not None and not split.rest.has_flag(rest_flag):
        return Inconclusive(f"the b+ = 0 piece {split.rest.name} is not flagged {rest_flag.value}")
    return sum(p.canonical_spinc.c1_squared for p in split.parts)


@dataclass(frozen=True)
class ScalarInvariants:
    Is: SymbolicValue
    Y: SymbolicValue
    K: SymbolicValue


def invariant_Is_Y_K(split: Split) -> Union[ScalarInvariants, Inconclusive]:
    """I_s = 32 pi^2 sum c1^2 and Y = K = -4 pi sqrt(2 sum c1^2) for sums of
    2 or 3 minimal Kaehler pieces with a nonneg-scalar b+ = 0 remainder."""
    total = _kaehler_c1_total(split, Flag.HAS_NONNEG_SCALAR_METRIC)
    if isinstance(total, Inconclusive):
        return total
    i_s = SymbolicValue(32 * total, pi_power=2)
    y = SymbolicValue(-4, pi_power=1, radicand=2 * total)
    return ScalarInvariants(Is=i_s, Y=y, K=y)


def lambda_bar_k(m: Manifold, inv: Union[ScalarInvariants, Inconclusive],
                 k: Fraction) -> Union[SymbolicValue, Inconclusive]:
    """The eigenvalue invariant sup_g (least eigenvalue of 4*Laplace + k*s) *
    vol^(1/2): equals k * Y(m) when Y(m) <= 0 and k >= 2/3, and +infinity on
    manifolds with positive scalar curvature for any k > 0.  ``inv`` is
    ``invariant_Is_Y_K`` of m's split."""
    if m.has_flag(Flag.HAS_PSC_METRIC):
        if k > 0:
            return SymbolicValue.plus_infinity()
        return Inconclusive("the positive-scalar-curvature branch needs k > 0")
    if isinstance(inv, Inconclusive):
        return inv
    if k < Fraction(2, 3):
        return Inconclusive(
            "k < 2/3: the eigenvalue invariant is only identified with k*Y "
            "for k >= (n-2)/(n-1) = 2/3 in dimension 4")
    return inv.Y.scale(k)


def invariant_Ir(split: Split) -> Union[SymbolicValue, Inconclusive]:
    """The Ricci-curvature invariant 8 pi^2 [4n - (2chi+3tau)(N) + sum c1^2]
    for sums of minimal Kaehler pieces with an anti-self-dual positive-scalar
    b+ = 0 remainder.

    For N = k CP2bar # l (S1 x S3) the bracket specializes to
    k + 4(n + l - 1) + sum c1^2.
    """
    total = _kaehler_c1_total(split, Flag.HAS_ASD_PSC_METRIC)
    if isinstance(total, Inconclusive):
        return total
    if total <= 0:
        return Inconclusive(
            "needs minimal Kaehler parts with positive total c1^2")
    return SymbolicValue(8 * (4 * split.count - split.rest_two_chi_plus_3tau() + total),
                         pi_power=2)
