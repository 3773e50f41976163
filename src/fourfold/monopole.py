"""Monopole-class sets, beta^2, and the curvature-derived Riemannian
invariants.

The monopole classes of a certified sum (#X_m) # N are the sign orbit
{sum +/- e_i} of orthogonal generators e_i: the canonical classes of the
pieces and the exceptional classes of N.  A ``MonopoleClassSet`` stores only
the generator squares e_i^2; its classes are a lazy view, enumerated only
when a caller iterates it.

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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from fourfold.certify import Verdict, check_theorem_A
from fourfold.errors import CapacityError, PremiseError
from fourfold.model import PIECE_CAP, Flag, Manifold, SpinCStructure
from fourfold.surgery import blowdown_two_chi_plus_3tau, split_blowdown
from fourfold.symbolic import SymbolicValue

RationalLike = Union[int, Fraction]


@dataclass(frozen=True)
class Inconclusive:
    """First-class 'the theorem's hypotheses are not met' marker."""

    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class SignVectors:
    """The 2^rank vectors {+1,-1}^rank, as a lazy read-only collection.

    Iteration follows ``itertools.product((1, -1), repeat=rank)``, all-plus
    first; membership costs O(rank).  ``len()`` cannot exceed
    ``sys.maxsize``, so past rank 62 use ``2 ** rank``.
    """

    rank: int

    def __len__(self) -> int:
        return 2 ** self.rank

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.product((1, -1), repeat=self.rank)

    def __contains__(self, v: object) -> bool:
        return (isinstance(v, tuple) and len(v) == self.rank
                and all(x in (1, -1) for x in v))


@dataclass(frozen=True)
class MonopoleClassSet:
    """The sign orbit {sum +/- e_i} of orthogonal generators, stored by the
    generator squares e_i^2 (the diagonal of the Gram matrix of the span).

    ``classes`` lists the orbit in generator coordinates, as sign vectors.
    """

    squares: tuple[int, ...]
    source: str = ""

    @property
    def rank(self) -> int:
        return len(self.squares)

    @property
    def classes(self) -> SignVectors:
        return SignVectors(self.rank)


def monopole_classes_for_sum(parts: Sequence[Manifold],
                             blowdown: Optional[Manifold] = None) -> MonopoleClassSet:
    """All classes sum(+/- c1(X_m)) + sum(+/- E_r) on (#X_m) # N.

    Requires the parts to pass the 2/3-part non-vanishing certificate and N
    (if given) to have b+ = 0; N's lattice is taken diagonal with k = b-(N)
    classes of square -1 (always arrangeable, by Donaldson's theorem).  The
    generator squares are stored one by one, so the rank is capped at
    ``PIECE_CAP`` (CapacityError).
    """
    cert = check_theorem_A(parts)
    if cert.verdict is not Verdict.NONVANISHING:
        failed = [p.text for p in cert.premises if not p.passed]
        raise PremiseError("non-vanishing premises fail: " + "; ".join(failed))
    k = 0
    if blowdown is not None:
        if blowdown.char.b_plus != 0:
            raise PremiseError(
                f"the blowdown piece must have b+ = 0, got {blowdown.char.b_plus}")
        k = blowdown.char.b_minus
    if len(parts) + k > PIECE_CAP:
        raise CapacityError(
            f"a sign orbit of {len(parts) + k} generators is over the cap of {PIECE_CAP}")
    return MonopoleClassSet(
        squares=tuple(p.canonical_spinc.c1_squared for p in parts) + (-1,) * k,
        source=f"sign orbit of {len(parts)} canonical classes and {k} "
               "exceptional classes (diagonalized by Donaldson's theorem)")


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


def beta_squared(s: MonopoleClassSet) -> Fraction:
    """Exact maximum of the intersection form over Hull(classes); >= 0."""
    return beta_squared_with_witness(s)[0]


# ---------------------------------------------------------------------------
# Curvature bounds and invariants


@dataclass(frozen=True)
class CurvatureBounds:
    scalar_bound: SymbolicValue                     # integral of s^2
    mixed_bound: SymbolicValue                      # integral of (s - sqrt6 |W+|)^2
    ricci_bound: Union[SymbolicValue, Inconclusive]  # integral of |r|^2


def _theorem_a_split(m: Manifold) -> Union[tuple[list[Manifold], Optional[Manifold]], Inconclusive]:
    parts, n_part = split_blowdown(m)
    if len(parts) not in (2, 3):
        return Inconclusive(
            f"needs a decomposition into 2 or 3 positive-b+ pieces plus a "
            f"b+ = 0 remainder; found {len(parts)} pieces")
    cert = check_theorem_A(parts)
    if cert.verdict is not Verdict.NONVANISHING:
        failed = "; ".join(p.text for p in cert.premises if not p.passed)
        return Inconclusive(f"non-vanishing premises fail: {failed}")
    return parts, n_part


def curvature_bounds(m: Manifold, s: MonopoleClassSet) -> CurvatureBounds:
    """(32 pi^2 beta^2, 72 pi^2 beta^2, 8 pi^2 [4n - (2chi+3tau)(N) + sum c1^2]).

    The first two need only the class set; the Ricci bound additionally needs
    the (# parts) # N decomposition with certified non-vanishing.
    """
    b2 = beta_squared(s)
    scalar = SymbolicValue(32 * b2, pi_power=2)
    mixed = SymbolicValue(72 * b2, pi_power=2)
    split = _theorem_a_split(m)
    if isinstance(split, Inconclusive):
        ricci: Union[SymbolicValue, Inconclusive] = split
    else:
        parts, n_part = split
        n = len(parts)
        total = sum(p.canonical_spinc.c1_squared for p in parts)
        t = blowdown_two_chi_plus_3tau(n_part)
        ricci = SymbolicValue(8 * (4 * n - t + total), pi_power=2)
    return CurvatureBounds(scalar_bound=scalar, mixed_bound=mixed, ricci_bound=ricci)


@dataclass(frozen=True)
class ScalarInvariants:
    Is: SymbolicValue
    Y: SymbolicValue
    K: SymbolicValue


def invariant_Is_Y_K(m: Manifold) -> Union[ScalarInvariants, Inconclusive]:
    """I_s = 32 pi^2 sum c1^2 and Y = K = -4 pi sqrt(2 sum c1^2) for sums of
    2 or 3 minimal Kaehler pieces with a nonneg-scalar b+ = 0 remainder."""
    split = _theorem_a_split(m)
    if isinstance(split, Inconclusive):
        return split
    parts, n_part = split
    for p in parts:
        if not p.has_flag(Flag.MINIMAL_KAEHLER):
            return Inconclusive(f"part {p.name} is not flagged MinimalKaehler")
    if n_part is not None and not n_part.has_flag(Flag.HAS_NONNEG_SCALAR_METRIC):
        return Inconclusive(
            f"the b+ = 0 piece {n_part.name} is not flagged HasNonnegScalarMetric")
    total = sum(p.canonical_spinc.c1_squared for p in parts)
    i_s = SymbolicValue(32 * total, pi_power=2)
    y = SymbolicValue(-4, pi_power=1, radicand=2 * total)
    return ScalarInvariants(Is=i_s, Y=y, K=y)


def lambda_bar_k(m: Manifold, k: RationalLike) -> Union[SymbolicValue, Inconclusive]:
    """The eigenvalue invariant sup_g (least eigenvalue of 4*Laplace + k*s) *
    vol^(1/2): equals k * Y(m) when Y(m) <= 0 and k >= 2/3, and +infinity on
    manifolds with positive scalar curvature for any k > 0."""
    k = Fraction(k)
    if m.has_flag(Flag.HAS_PSC_METRIC):
        if k > 0:
            return SymbolicValue.plus_infinity()
        return Inconclusive("the positive-scalar-curvature branch needs k > 0")
    inv = invariant_Is_Y_K(m)
    if isinstance(inv, Inconclusive):
        return inv
    if k < Fraction(2, 3):
        return Inconclusive(
            "k < 2/3: the eigenvalue invariant is only identified with k*Y "
            "for k >= (n-2)/(n-1) = 2/3 in dimension 4")
    return inv.Y.scale(k)


def invariant_Ir(m: Manifold) -> Union[SymbolicValue, Inconclusive]:
    """The Ricci-curvature invariant 8 pi^2 [4n - (2chi+3tau)(N) + sum c1^2]
    for sums of minimal Kaehler pieces with an anti-self-dual positive-scalar
    b+ = 0 remainder.

    For N = k CP2bar # l (S1 x S3) the bracket specializes to
    k + 4(n + l - 1) + sum c1^2.
    """
    split = _theorem_a_split(m)
    if isinstance(split, Inconclusive):
        return split
    parts, n_part = split
    for p in parts:
        if not p.has_flag(Flag.MINIMAL_KAEHLER):
            return Inconclusive(f"part {p.name} is not flagged MinimalKaehler")
    if n_part is not None and not n_part.has_flag(Flag.HAS_ASD_PSC_METRIC):
        return Inconclusive(
            f"the b+ = 0 piece {n_part.name} is not flagged HasASDPSCMetric")
    total = sum(p.canonical_spinc.c1_squared for p in parts)
    if total <= 0:
        return Inconclusive(
            "needs minimal Kaehler parts with positive total c1^2")
    n = len(parts)
    t = blowdown_two_chi_plus_3tau(n_part)
    return SymbolicValue(8 * (4 * n - t + total), pi_power=2)


# ---------------------------------------------------------------------------
# Adjunction


def genus_lower_bound(self_int: int, c1_pairing: int) -> int:
    """Least genus allowed by 2g - 2 >= [S]^2 - <c1, [S]> for surfaces of
    positive genus and nonnegative self-intersection."""
    if self_int < 0:
        raise PremiseError(f"adjunction bound needs [S]^2 >= 0, got {self_int}")
    bound = self_int - c1_pairing
    # 2g - 2 >= bound and g >= 1
    g_min = (bound + 2 + 1) // 2 if (bound + 2) % 2 else (bound + 2) // 2
    return max(1, g_min)


def adjunction_genus_bound(m: Manifold, g: SpinCStructure,
                           sigma_class: Sequence[int],
                           self_int: Optional[int] = None) -> int:
    """Minimal admissible genus of an embedded surface in the class
    ``sigma_class`` on a certified non-vanishing connected sum."""
    parts, _ = split_blowdown(m)
    cert = check_theorem_A(parts)
    if cert.verdict is not Verdict.NONVANISHING:
        raise PremiseError("adjunction applies to certified non-vanishing sums only")
    if m.lattice is None or g.c1 is None:
        raise PremiseError("adjunction needs an explicit lattice and c1 vector")
    computed = m.lattice.norm(sigma_class)
    if computed.denominator != 1:
        raise PremiseError("non-integral self-intersection")
    if self_int is not None and self_int != computed:
        raise PremiseError(
            f"declared self-intersection {self_int} but the lattice gives {computed}")
    pair = m.lattice.pairing(g.c1, sigma_class)
    if pair.denominator != 1:
        raise PremiseError("non-integral pairing")
    return genus_lower_bound(int(computed), int(pair))
