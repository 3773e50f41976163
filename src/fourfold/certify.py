"""Index-theoretic quantities and non-vanishing certificates.

The quantities: the virtual moduli dimension d = (c1^2 - 2chi - 3tau)/4 and
the numerical Dirac index I = (c1^2 - tau)/8.  The identity
I = (d + b+ - b1 + 1)/2 makes "I even" equivalent to
"d + b+ - b1 = 3 (mod 4)"; both are computed independently and cross-checked.

The certificates: connected-sum non-vanishing for 2 or 3 almost complex
pieces with b+ - b1 = 3 (mod 4), odd SW parity and even half-triple-products
("theorem-a"); its c1 = 0 (mod 4) variant ("theorem-b"); and Bauer's
b1 = 0 version including the 4-fold case with b+ = 4 (mod 8) ("bauer").
Verdicts never overstate: a failed structural premise yields Inconclusive,
not Vanishing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from fourfold.errors import (
    InternalInconsistencyError,
    NonIntegralError,
    PremiseError,
)
from fourfold.model import Flag, Manifold, Parity, SpinCStructure


class Verdict(enum.Enum):
    NONVANISHING = "Nonvanishing"
    VANISHING = "Vanishing"
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

    @property
    def all_premises_pass(self) -> bool:
        return all(p.passed for p in self.premises)

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


def moduli_dimension(m: Manifold, g: SpinCStructure) -> int:
    """Virtual dimension (c1^2 - 2chi - 3tau)/4 of the monopole moduli space."""
    num = g.c1_squared - m.two_chi_plus_3tau()
    if num % 4 != 0:
        raise NonIntegralError(
            f"(c1^2 - 2chi - 3tau) = {num} is not divisible by 4; "
            "c1 is not an admissible characteristic class for this manifold")
    return num // 4


def dirac_index(m: Manifold, g: SpinCStructure) -> int:
    """Numerical index (c1^2 - tau)/8 of the spin-c Dirac operator."""
    num = g.c1_squared - m.signature()
    if num % 8 != 0:
        raise NonIntegralError(
            f"(c1^2 - tau) = {num} is not divisible by 8; inadmissible c1")
    return num // 8


def parity_equivalence(m: Manifold, g: SpinCStructure) -> tuple[bool, bool]:
    """(index even, d + b+ - b1 = 3 mod 4); the two always agree."""
    d = moduli_dimension(m, g)
    index = dirac_index(m, g)
    index_even = index % 2 == 0
    dim_condition = (d + m.char.b_plus - m.char.b1) % 4 == 3
    if index_even != dim_condition:
        raise InternalInconsistencyError(
            f"index parity {index_even} disagrees with dimension condition "
            f"{dim_condition} (d={d}, I={index}); stored data is corrupt")
    return index_even, dim_condition


def condition_star(m: Manifold, g: SpinCStructure) -> Certificate:
    """The spin condition on the cut-down moduli space: even Dirac index and
    even half-triple-product matrix."""
    if m.char.b1 > 0 and len(g.s_matrix) != m.char.b1:
        raise PremiseError(
            f"manifold has b1 = {m.char.b1} but no half-triple-product matrix "
            "of that size is stored")
    index = dirac_index(m, g)
    index_ok = index % 2 == 0
    odd_entry = next(
        ((i, j) for i, row in enumerate(g.s_matrix)
         for j, x in enumerate(row) if x % 2 != 0), None)
    s_ok = odd_entry is None
    premises = (
        Premise("numerical Dirac index is even", index_ok, f"index = {index}"),
        Premise("every half-triple-product S^ij is even", s_ok,
                "" if s_ok else f"odd entry at (i,j) = {odd_entry}"),
    )
    verdict = Verdict.NONVANISHING if (index_ok and s_ok) else Verdict.VANISHING
    return Certificate(
        theorem_id="condition-star",
        premises=premises,
        verdict=verdict,
        citation="spin condition for cut-down monopole moduli: even Dirac "
                 "index and even half-triple-product matrix",
    )


def spin_cobordism_nontrivial(d: int) -> Optional[bool]:
    """Non-triviality verdict in Omega^spin_d; decided only for d in {1, 2},
    where the group is Z/2 generated by the Lie-group spin structure."""
    if d in (1, 2):
        return True
    return None


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
            f"the b1 > 0 non-vanishing certificate covers n = 2, 3 parts; got n = {n}"
            + ("; the spin cobordism invariant of a 4-fold sum vanishes" if n >= 4 else ""))
    raise PremiseError(f"this certificate covers n = 2, 3 parts; got n = {n}")


def check_theorem_A(parts: Sequence[Manifold],
                    signs: Optional[Sequence[int]] = None) -> Certificate:
    """Non-vanishing for 2- or 3-fold sums of almost complex pieces with
    b+ - b1 = 3 (mod 4), odd SW parity, and even half-triple-products.

    The verdict is invariant under permuting the parts and flipping any signs
    in the spin-c sign vector (conjugation preserves SW parity and the spin
    condition).
    """
    n = len(parts)
    require_part_count("theorem-a", n)
    if signs is None:
        signs = (1,) * n
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise PremiseError("signs must be a vector of +/-1, one per part")
    premises: list[Premise] = []
    for i, part in enumerate(parts):
        premises.extend(_part_premises_theorem_a(part, i))
    all_ok = all(p.passed for p in premises)
    d = n - 1
    premises.append(Premise(
        f"spin cobordism class in Omega^spin_{d} = Z/2 is nontrivial",
        all_ok,
        f"moduli dimension d = n - 1 = {d}; sign choice {tuple(signs)}"))
    return Certificate(
        theorem_id="theorem-a",
        premises=tuple(premises),
        verdict=Verdict.NONVANISHING if all_ok else Verdict.INCONCLUSIVE,
        citation="non-vanishing of the stable cohomotopy SW invariant for "
                 "connected sums of 2 or 3 almost complex pieces with "
                 "b+ - b1 = 3 (mod 4), via a nontrivial spin cobordism class",
    )


def check_bauer(parts: Sequence[Manifold]) -> Certificate:
    """Bauer's non-vanishing conditions for sums of almost complex pieces
    with b1 = 0; for n >= 4 additionally n = 4 and b+(X) = 4 (mod 8)."""
    n = len(parts)
    if n < 2:
        raise PremiseError(f"a connected-sum certificate needs n >= 2 parts; got {n}")
    premises: list[Premise] = []
    for i, part in enumerate(parts):
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
    if n >= 4:
        b_plus_sum = sum(p.char.b_plus for p in parts)
        premises.append(Premise("n = 4", n == 4, f"n = {n}"))
        premises.append(Premise("b+(X) = 4 (mod 8)", b_plus_sum % 8 == 4,
                                f"b+(X) = {b_plus_sum}"))
    all_ok = all(p.passed for p in premises)
    return Certificate(
        theorem_id="bauer",
        premises=tuple(premises),
        verdict=Verdict.NONVANISHING if all_ok else Verdict.INCONCLUSIVE,
        citation="Bauer's non-vanishing theorem for connected sums of almost "
                 "complex 4-manifolds with b1 = 0",
    )


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
    all_ok = all(p.passed for p in premises)
    return Certificate(
        theorem_id="theorem-b",
        premises=tuple(premises),
        verdict=Verdict.NONVANISHING if all_ok else Verdict.INCONCLUSIVE,
        citation="non-vanishing for 2- or 3-fold connected sums of almost "
                 "complex pieces that are either b1 = 0 with b+ = 3 (mod 4) "
                 "or have c1 = 0 in mod-4 cohomology",
    )


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
    all_ok = all(p.passed for p in premises)
    return Certificate(
        theorem_id="taubes",
        premises=premises,
        verdict=Verdict.NONVANISHING if all_ok else Verdict.INCONCLUSIVE,
        citation="Taubes: SW = +/-1 for the canonical spin-c structure of a "
                 "symplectic 4-manifold with b+ > 1",
    )


def classify_c1_zero_types() -> list[tuple[int, int, int]]:
    """All (b+, b1, tau) triples of almost complex 4-manifolds with c1 = 0,
    b+ > 1 and odd SW invariant.

    Constraint chain: c1 = 0 forces spin and 2chi + 3tau = 0; Rochlin gives
    tau = 16k; hence b1 = 1 + b+ + 4k; odd SW with c1 = 0 forces b+ <= 3, so
    b+ is 2 or 3 and 16k <= tau <= b+ gives k <= 0; b1 >= 0 bounds k below.
    """
    out: list[tuple[int, int, int]] = []
    for b_plus in (2, 3):
        # b1 = 1 + b+ + 4k >= 0  =>  k >= -(1 + b+)/4
        k_min = -((1 + b_plus) // 4)
        for k in range(k_min, 1):
            b1 = 1 + b_plus + 4 * k
            if b1 < 0:
                continue
            out.append((b_plus, b1, 16 * k))
    return out
