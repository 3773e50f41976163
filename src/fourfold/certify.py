"""Index-theoretic quantities and non-vanishing certificates.

The quantities: the virtual moduli dimension d = (c1^2 - 2chi - 3tau)/4 and
the numerical Dirac index I = (c1^2 - tau)/8.  The identity
I = (d + b+ - b1 + 1)/2 makes "I even" equivalent to
"d + b+ - b1 = 3 (mod 4)"; only d is computed here, and the tests check the lemma.

The certificates: connected-sum non-vanishing for 2 or 3 almost complex
pieces with b+ - b1 = 3 (mod 4), odd SW parity and even half-triple-products
("theorem-a"); its c1 = 0 (mod 4) variant ("theorem-b"); and Bauer's
b1 = 0 version including the 4-fold case with b+ = 4 (mod 8) ("bauer").
Verdicts never overstate: a failed structural premise yields Inconclusive,
and no certificate ever claims that an invariant vanishes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from fourfold.errors import (
    NonIntegralError,
    PremiseError,
    shown,
)
from fourfold.model import Flag, Manifold, Parity, SpinCStructure


class Verdict(enum.Enum):
    NONVANISHING = "Nonvanishing"
    INCONCLUSIVE = "Inconclusive"
    OBSTRUCTED = "Obstructed"
    NOT_OBSTRUCTED = "NotObstructed"


@dataclass(frozen=True)
class Premise:
    text: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable record of a theorem instance.

    Invariant: a Nonvanishing or Obstructed verdict requires every premise to
    have passed.
    """

    theorem_id: str
    premises: tuple[Premise, ...]
    verdict: Verdict
    citation: str

    def __post_init__(self) -> None:
        if self.verdict in (Verdict.NONVANISHING, Verdict.OBSTRUCTED):
            if not all(p.passed for p in self.premises):
                raise ValueError(
                    f"{self.verdict.value} verdict with a failed premise in "
                    f"{self.theorem_id}")

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "premises": [
                {"text": p.text, "pass": p.passed, "witness": p.witness}
                for p in self.premises
            ],
            "verdict": self.verdict.value,
            "citation": self.citation,
        }

    def failures(self) -> str:
        """The texts of the failed premises, joined by "; "."""
        return "; ".join(p.text for p in self.premises if not p.passed)


def moduli_dimension(m: Manifold, g: SpinCStructure) -> int:
    """Virtual dimension (c1^2 - 2chi - 3tau)/4 of the monopole moduli space."""
    num = g.c1_squared - m.two_chi_plus_3tau()
    if num % 4 != 0:
        raise NonIntegralError(
            f"(c1^2 - 2chi - 3tau) = {shown(num)} is not divisible by 4; "
            "c1 is not an admissible characteristic class for this manifold")
    return num // 4


def _part_premises_theorem_a(part: Manifold, idx: int) -> list[Premise]:
    label = f"part {idx + 1} ({part.name})"
    g = part.canonical_spinc
    out = [
        Premise(f"{label}: almost complex",
                part.has_flag(Flag.ALMOST_COMPLEX), ""),
        Premise(f"{label}: b+ > 1", part.char.b_plus > 1,
                f"b+ = {part.char.b_plus}"),
        Premise(f"{label}: b+ - b1 = 3 (mod 4)",
                (part.char.b_plus - part.char.b1) % 4 == 3,
                f"b+ - b1 = {part.char.b_plus - part.char.b1}"),
    ]
    if g is None:
        out.append(Premise(f"{label}: canonical spin-c structure present", False, ""))
        return out
    out.append(Premise(
        f"{label}: SW parity of the canonical structure is odd",
        g.sw_parity is Parity.ODD,
        f"parity = {g.sw_parity.value}, provenance = {g.parity_provenance.value}"))
    out.append(Premise(
        f"{label}: half-triple-product matrix is even",
        g.s_matrix_even(), ""))
    return out


def require_part_count(theorem_id: str, n: int) -> None:
    """Raise PremiseError unless Theorem A or B covers a sum of n parts
    (n = 2 or 3); callers with a multiset check the count before listing."""
    if n in (2, 3):
        return
    if theorem_id == "theorem-a":
        raise PremiseError(
            f"the b1 > 0 non-vanishing certificate covers n = 2, 3 parts; got n = {shown(n)}"
            + ("; the spin cobordism invariant of a 4-fold sum vanishes" if n >= 4 else ""))
    raise PremiseError(f"this certificate covers n = 2, 3 parts; got n = {shown(n)}")


def _nonvanishing(theorem_id: str, premises: Sequence[Premise],
                  citation: str) -> Certificate:
    """The verdict rule of every non-vanishing theorem: Nonvanishing when
    every premise passed, otherwise Inconclusive."""
    premises = tuple(premises)
    verdict = (Verdict.NONVANISHING if all(p.passed for p in premises)
               else Verdict.INCONCLUSIVE)
    return Certificate(theorem_id=theorem_id, premises=premises, verdict=verdict,
                       citation=citation)


def check_theorem_A(parts: Sequence[Manifold]) -> Certificate:
    """Non-vanishing for 2- or 3-fold sums of almost complex pieces with
    b+ - b1 = 3 (mod 4), odd SW parity, and even half-triple-products.

    The verdict is invariant under permuting the parts and flipping any signs
    in the spin-c sign vector (conjugation preserves SW parity and the spin
    condition), so the all-plus vector is the one recorded.
    """
    n = len(parts)
    require_part_count("theorem-a", n)
    premises: list[Premise] = []
    for i, part in enumerate(parts):
        premises.extend(_part_premises_theorem_a(part, i))
    d = n - 1
    premises.append(Premise(
        f"spin cobordism class in Omega^spin_{d} = Z/2 is nontrivial",
        all(p.passed for p in premises),
        f"moduli dimension d = n - 1 = {d}; sign choice {(1,) * n}"))
    return _nonvanishing(
        "theorem-a", premises,
        "non-vanishing of the stable cohomotopy SW invariant for "
        "connected sums of 2 or 3 almost complex pieces with "
        "b+ - b1 = 3 (mod 4), via a nontrivial spin cobordism class")


_BAUER_CITATION = ("Bauer's non-vanishing theorem for connected sums of almost "
                   "complex 4-manifolds with b1 = 0")


def check_bauer(m: Manifold) -> Certificate:
    """Bauer's non-vanishing conditions for a sum of almost complex pieces
    with b1 = 0; for n >= 4 additionally n = 4 and b+(X) = 4 (mod 8).

    The piece count and b+(X) are read before any piece is listed: a sum of
    more than four pieces fails n = 4 whatever its pieces are, so only the
    two count premises are reported, however many pieces it has."""
    n = m.piece_count()
    if n < 2:
        raise PremiseError(f"a connected-sum certificate needs n >= 2 parts; got {n}")
    counts = [Premise("n = 4", n == 4, f"n = {n}"),
              Premise("b+(X) = 4 (mod 8)", m.char.b_plus % 8 == 4,
                      f"b+(X) = {m.char.b_plus}")]
    if n > 4:
        return _nonvanishing("bauer", counts, _BAUER_CITATION)
    premises: list[Premise] = []
    for i, part in enumerate(m.pieces()):
        label = f"part {i + 1} ({part.name})"
        g = part.canonical_spinc
        premises.append(Premise(f"{label}: b1 = 0", part.char.b1 == 0,
                                f"b1 = {part.char.b1}"))
        premises.append(Premise(f"{label}: almost complex",
                                part.has_flag(Flag.ALMOST_COMPLEX), ""))
        premises.append(Premise(f"{label}: b+ = 3 (mod 4)",
                                part.char.b_plus % 4 == 3,
                                f"b+ = {part.char.b_plus}"))
        premises.append(Premise(
            f"{label}: SW parity odd",
            g is not None and g.sw_parity is Parity.ODD,
            "" if g is None else f"provenance = {g.parity_provenance.value}"))
    if n == 4:
        premises.extend(counts)
    return _nonvanishing("bauer", premises, _BAUER_CITATION)


def check_theorem_B(parts: Sequence[Manifold]) -> Certificate:
    """Non-vanishing for 2- or 3-fold sums where each piece either has b1 = 0
    with b+ = 3 (mod 4), or has b+ > 1 with c1 = 0 in H^2(X; Z/4); odd SW
    parity in both cases."""
    n = len(parts)
    require_part_count("theorem-b", n)
    premises: list[Premise] = []
    for i, part in enumerate(parts):
        label = f"part {i + 1} ({part.name})"
        g = part.canonical_spinc
        parity_ok = g is not None and g.sw_parity is Parity.ODD
        ac = part.has_flag(Flag.ALMOST_COMPLEX)
        bullet1 = (ac and part.char.b1 == 0 and part.char.b_plus % 4 == 3
                   and parity_ok)
        bullet2 = (ac and part.char.b_plus > 1
                   and part.has_flag(Flag.C1_MOD4_ZERO) and parity_ok)
        which = "b1 = 0, b+ = 3 (mod 4)" if bullet1 else (
            "c1 = 0 (mod 4), b+ > 1" if bullet2 else "neither alternative")
        premises.append(Premise(
            f"{label}: almost complex with odd SW parity and either b1 = 0, "
            "b+ = 3 (mod 4), or b+ > 1 with c1 trivial in H^2(X; Z/4)",
            bullet1 or bullet2, which))
    return _nonvanishing(
        "theorem-b", premises,
        "non-vanishing for 2- or 3-fold connected sums of almost "
        "complex pieces that are either b1 = 0 with b+ = 3 (mod 4) "
        "or have c1 = 0 in mod-4 cohomology")


def check_taubes(m: Manifold) -> Certificate:
    """Irreducibility certificate for a single symplectic manifold with
    b+ > 1: the canonical structure has odd SW invariant, so the monopole
    moduli space is nonempty for every metric."""
    g = m.canonical_spinc
    premises = (
        Premise("symplectic", m.has_flag(Flag.SYMPLECTIC), ""),
        Premise("b+ > 1", m.char.b_plus > 1, f"b+ = {m.char.b_plus}"),
        Premise("canonical SW parity odd",
                g is not None and g.sw_parity is Parity.ODD,
                "" if g is None else f"provenance = {g.parity_provenance.value}"),
    )
    return _nonvanishing(
        "taubes", premises,
        "Taubes: SW = +/-1 for the canonical spin-c structure of a "
        "symplectic 4-manifold with b+ > 1")

