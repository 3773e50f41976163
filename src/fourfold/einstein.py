"""Einstein-metric obstructions, simplicial-volume intervals, decomposition
and exotic-structure certificates, and the geography searches.

Simplicial volume is tracked as an interval: for M carrying k hyperbolic
products Sigma_g x Sigma_h (and otherwise amenable or simply connected
pieces), ||M|| lies in [16 k (g-1)(h-1) / c4, 16 k (g-1)(h-1) c4], where c4
is the universal dimension-4 product constant.  c4 is an explicit parameter
everywhere (default 1): no value for it is ever assumed.

Inequalities mixing integers with 1/(81 pi^2) are decided exactly by
clearing pi^2: rearrange to A pi^2 > B with A, B rational and compare B/A
against a certified rational enclosure of pi^2.  Ties inside the enclosure
are reported as Inconclusive, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from fourfold import exact
from fourfold.catalog import catalog_get
from fourfold.certify import (
    Certificate,
    Premise,
    Verdict,
    check_taubes,
    check_theorem_A,
    check_theorem_B,
)
from fourfold.errors import PremiseError
from fourfold.model import Flag, Manifold
from fourfold.monopole import Inconclusive
from fourfold.surgery import (
    blowdown_two_chi_plus_3tau,
    connected_sum,
    split_blowdown,
)
from fourfold.symbolic import DEFAULT_PI2, Pi2Enclosure, pi2_greater

RationalLike = Union[int, Fraction, str]

DEFAULT_C4 = Fraction(1)


@dataclass(frozen=True)
class SvInterval:
    """[16*lo_factor/c4, 16*hi_factor*c4] with lo_factor = hi_factor =
    sum of k(g-1)(h-1) over the hyperbolic-product content."""

    lo_factor: int
    hi_factor: int
    c4: Fraction

    def __post_init__(self) -> None:
        if self.lo_factor < 0 or self.hi_factor < 0:
            raise ValueError("sv factors are nonnegative")
        if self.c4 <= 0:
            raise ValueError("c4 must be a positive rational")

    def lo(self) -> Fraction:
        return Fraction(16 * self.lo_factor) / self.c4

    def hi(self) -> Fraction:
        return Fraction(16 * self.hi_factor) * self.c4

    def is_zero(self) -> bool:
        return self.hi_factor == 0

    def to_json(self) -> dict:
        return {"lo": str(self.lo()), "hi": str(self.hi()),
                "factor": self.lo_factor, "c4": str(self.c4)}


def simplicial_volume(m: Manifold, c4: RationalLike = DEFAULT_C4
                      ) -> Union[SvInterval, Inconclusive]:
    """Simplicial-volume interval from the recorded product content.

    Valid when every non-product summand has vanishing simplicial volume
    (simply connected pieces, S1 x S3, CP2bar, amenable complex surfaces);
    custom manifolds without a record are Inconclusive.
    """
    c4 = Fraction(c4)
    if c4 <= 0:
        raise ValueError("c4 must be positive")
    total = m.sv_factor_total()
    if total is None:
        return Inconclusive(
            f"{m.name}: simplicial-volume content unknown (no sv_factors record)")
    return SvInterval(lo_factor=total, hi_factor=total, c4=c4)


def hitchin_thorpe(m: Manifold) -> Certificate:
    """2chi >= 3|tau|, necessary for an Einstein metric."""
    gap = min(m.two_chi_plus_3tau(), m.two_chi_minus_3tau())
    if gap < 0:
        premises = (
            Premise("2chi < 3|tau| (inequality violated)", True,
                    f"2chi - 3|tau| = {gap}"),
        )
        verdict = Verdict.OBSTRUCTED
    else:
        premises = (
            Premise("2chi >= 3|tau| holds", True, f"2chi - 3|tau| = {gap}"),
            Premise("strictly (2chi > 3|tau|)", gap > 0, f"2chi - 3|tau| = {gap}"),
        )
        verdict = Verdict.NOT_OBSTRUCTED
    return Certificate(
        theorem_id="hitchin-thorpe", premises=premises, verdict=verdict,
        citation="Hitchin-Thorpe inequality for closed Einstein 4-manifolds")


def _describe(decision: Optional[bool]) -> str:
    return "tie (enclosure too coarse)" if decision is None else str(decision)


def ght(m: Manifold, c4: RationalLike = DEFAULT_C4, strict: bool = True,
        enclosure: Pi2Enclosure = DEFAULT_PI2) -> Certificate:
    """Gromov-Hitchin-Thorpe: 2chi - 3|tau| >= ||M|| / (81 pi^2).

    Checked against the upper end of the simplicial-volume interval (a
    sufficient condition); the lower-end verdict is reported separately, and
    Gromov's chi >= ||M|| / (2592 pi^2) alongside.  A sum with straddling
    interval is Inconclusive.
    """
    c4 = Fraction(c4)
    sv = simplicial_volume(m, c4)
    if isinstance(sv, Inconclusive):
        return Certificate(
            theorem_id="ght",
            premises=(Premise("simplicial volume resolvable", False, sv.reason),),
            verdict=Verdict.INCONCLUSIVE,
            citation="Gromov-Hitchin-Thorpe inequality")
    gap = min(m.two_chi_plus_3tau(), m.two_chi_minus_3tau())
    f = sv.lo_factor
    # gap >= 16 f c4 / (81 pi^2)  <=>  81 gap pi^2 >= 16 f c4
    upper = pi2_greater(Fraction(81 * gap), Fraction(16 * f) * c4,
                        strict=strict, enclosure=enclosure)
    lower = pi2_greater(Fraction(81 * gap), Fraction(16 * f) / c4,
                        strict=strict, enclosure=enclosure)
    # Violation must be judged against the non-strict necessary condition at
    # the smallest possible simplicial volume.
    violated = pi2_greater(Fraction(81 * gap), Fraction(16 * f) / c4,
                           strict=False, enclosure=enclosure) is False
    gromov = pi2_greater(Fraction(2592 * m.euler()), Fraction(16 * f) * c4,
                         strict=False, enclosure=enclosure)
    rel = ">" if strict else ">="
    premises = (
        Premise(f"2chi - 3|tau| {rel} (upper sv end)/(81 pi^2)", upper is True,
                f"81*(2chi-3|tau|)*pi^2 {rel} 16*factor*c4: {_describe(upper)}; "
                f"2chi-3|tau| = {gap}, factor = {f}, c4 = {c4}"),
        Premise(f"2chi - 3|tau| {rel} (lower sv end)/(81 pi^2)", lower is True,
                f"81*(2chi-3|tau|)*pi^2 {rel} 16*factor/c4: {_describe(lower)}"),
        Premise("Gromov: chi >= (upper sv end)/(2592 pi^2)", gromov is True,
                f"2592*chi*pi^2 >= 16*factor*c4: {_describe(gromov)}"),
    )
    if upper is True:
        verdict = Verdict.NOT_OBSTRUCTED
    elif violated:
        verdict = Verdict.OBSTRUCTED
        # An Obstructed certificate carries only passed premises, and
        # Gromov's inequality fails whenever chi < 0: keep it only if it held.
        premises = (
            Premise("2chi - 3|tau| < (lower sv end)/(81 pi^2)", True,
                    f"2chi-3|tau| = {gap}, factor = {f}, c4 = {c4}"),
        ) + tuple(p for p in premises[2:] if p.passed)
    else:
        verdict = Verdict.INCONCLUSIVE
    return Certificate(
        theorem_id="ght", premises=premises, verdict=verdict,
        citation="Gromov-Hitchin-Thorpe inequality "
                 "2chi - 3|tau| >= ||M||/(81 pi^2), with Gromov's "
                 "chi >= ||M||/(2592 pi^2)")


def einstein_obstruction(m: Manifold) -> Certificate:
    """No Einstein metric on (# of 2 or 3 certified pieces) # N, b+(N) = 0,
    when 4n - (2chi+3tau)(N) >= (1/3) * sum (2chi+3tau)(X_m)."""
    parts, n_part = split_blowdown(m)
    n = len(parts)
    premises: list[Premise] = [
        Premise("decomposes into 2 or 3 positive-b+ pieces and a b+ = 0 rest",
                n in (2, 3), f"{n} positive-b+ pieces")]
    if n not in (2, 3):
        return Certificate(
            theorem_id="einstein", premises=tuple(premises),
            verdict=Verdict.INCONCLUSIVE,
            citation="Einstein obstruction via monopole-class curvature bounds")
    cert = check_theorem_A(parts)
    premises.append(Premise(
        "non-vanishing premises hold for the positive-b+ pieces",
        cert.verdict is Verdict.NONVANISHING,
        "; ".join(p.text for p in cert.premises if not p.passed)))
    if cert.verdict is not Verdict.NONVANISHING:
        return Certificate(
            theorem_id="einstein", premises=tuple(premises),
            verdict=Verdict.INCONCLUSIVE,
            citation="Einstein obstruction via monopole-class curvature bounds")
    t = blowdown_two_chi_plus_3tau(n_part)
    total = sum(p.two_chi_plus_3tau() for p in parts)
    lhs = 4 * n - t
    rhs = Fraction(total, 3)
    obstructed = lhs >= rhs
    route = ("Hitchin-Thorpe violated outright (2chi+3tau < 0)"
             if m.two_chi_plus_3tau() < 0 else
             "curvature bounds from the monopole classes")
    premises.append(Premise(
        "4n - (2chi+3tau)(N) >= (1/3) sum (2chi+3tau)(X_m)", obstructed,
        f"lhs = {lhs}, rhs = {rhs}; route: {route}"))
    if obstructed:
        return Certificate(
            theorem_id="einstein", premises=tuple(premises),
            verdict=Verdict.OBSTRUCTED,
            citation="Einstein obstruction via monopole-class curvature bounds")
    return Certificate(
        theorem_id="einstein", premises=tuple(premises),
        verdict=Verdict.NOT_OBSTRUCTED,
        citation="Einstein obstruction via monopole-class curvature bounds")


def corollary_obstruction(parts: Sequence[Manifold], k: int, g: int, h: int,
                          l1: int, l2: int) -> Certificate:
    """Specialized Einstein obstruction for
    (# simply connected symplectic X_m, b+ = 3 mod 4) # k(Sigma_g x Sigma_h)
    # l1(S1 x S3) # l2 CP2bar: obstructed when
    4(n + l1 + k) + l2 >= (1/3)(sum (2chi+3tau)(X_m) + 4k(1-h)(1-g))."""
    n = len(parts)
    if n < 1 or k < 1 or n + k > 3:
        raise PremiseError(f"need n, k >= 1 with n + k <= 3; got n = {n}, k = {k}")
    if g < 1 or h < 1 or g % 2 == 0 or h % 2 == 0:
        raise PremiseError(f"need odd g, h >= 1; got ({g},{h})")
    if l1 < 0 or l2 < 0:
        raise PremiseError("l1, l2 must be nonnegative")
    for p in parts:
        if not p.char.is_simply_connected:
            raise PremiseError(f"{p.name} is not simply connected")
        if not p.has_flag(Flag.SYMPLECTIC):
            raise PremiseError(f"{p.name} is not symplectic")
        if p.char.b_plus % 4 != 3:
            raise PremiseError(f"{p.name} has b+ = {p.char.b_plus} != 3 (mod 4)")
    total = sum(p.two_chi_plus_3tau() for p in parts)
    lhs = 4 * (n + l1 + k) + l2
    rhs = Fraction(total + 4 * k * (1 - h) * (1 - g), 3)
    obstructed = lhs >= rhs
    premises = (
        Premise("parts are simply connected symplectic with b+ = 3 (mod 4)",
                True, ", ".join(p.name for p in parts)),
        Premise("4(n + l1 + k) + l2 >= (1/3)(sum(2chi+3tau) + 4k(1-h)(1-g))",
                obstructed, f"lhs = {lhs}, rhs = {rhs}"),
    )
    return Certificate(
        theorem_id="einstein-special",
        premises=premises,
        verdict=Verdict.OBSTRUCTED if obstructed else Verdict.NOT_OBSTRUCTED,
        citation="Einstein obstruction for symplectic pieces summed with "
                 "surface products, S1 x S3 copies and reversed projective planes")


def _nonvanishing_certificate(parts: Sequence[Manifold]) -> Certificate:
    if len(parts) == 1:
        return check_taubes(parts[0])
    cert = check_theorem_A(parts)
    if cert.verdict is Verdict.NONVANISHING:
        return cert
    cert_b = check_theorem_B(parts)
    return cert_b if cert_b.verdict is Verdict.NONVANISHING else cert


def decomposition_certificate(m: Manifold) -> tuple[int, Certificate]:
    """(max number of positive-b+ summands in any smooth decomposition, the
    non-vanishing certificate it rests on)."""
    parts, _ = split_blowdown(m)
    if not parts:
        raise PremiseError("no positive-b+ pieces to certify")
    cert = _nonvanishing_certificate(parts)
    if cert.verdict is not Verdict.NONVANISHING:
        raise PremiseError(
            "no non-vanishing certificate holds for the positive-b+ pieces")
    d = len(parts) - 1
    return d + 1, cert


def decomposition_bound(m: Manifold, d: Optional[int] = None) -> int:
    """d + 1 bounds the number of b+ > 0 summands in any smooth
    connected-sum decomposition, where d is the moduli dimension of a
    certified non-vanishing structure (monopoles glue along necks, each neck
    contributing a circle of gluing parameters)."""
    bound, _ = decomposition_certificate(m)
    if d is not None and d + 1 != bound:
        raise PremiseError(
            f"declared moduli dimension {d} does not match the certified "
            f"decomposition ({bound - 1})")
    return bound


def exotic_pair(x: Manifold, xprime: Manifold) -> Certificate:
    """Certify that x # xprime and (b+(x) CP2 # b-(x) CP2bar) # xprime are
    homeomorphic but not diffeomorphic.

    x must be simply connected, non-spin, symplectic with b+ = 3 (mod 4);
    xprime must be a 1- or 2-piece certified non-vanishing manifold.
    """
    if x.char.is_spin:
        raise PremiseError(
            "non-spin required: the intersection form of a spin manifold is "
            "even and does not diagonalize over CP2 # CP2bar pieces")
    p, q = x.char.b_plus, x.char.b_minus
    n_prime = xprime.piece_count()
    xp_parts = xprime.pieces() if n_prime in (1, 2) else ()
    premises: list[Premise] = [
        Premise("x is simply connected", x.char.is_simply_connected, x.name),
        Premise("x is symplectic", x.has_flag(Flag.SYMPLECTIC), ""),
        Premise("b+(x) = 3 (mod 4)", p % 4 == 3, f"b+ = {p}"),
        Premise("xprime has 1 or 2 pieces", n_prime in (1, 2),
                f"{n_prime} pieces"),
    ]
    if n_prime in (1, 2):
        from fourfold.certify import _part_premises_theorem_a
        for i, part in enumerate(xp_parts):
            premises.extend(_part_premises_theorem_a(part, i))
    all_ok = all(pr.passed for pr in premises)
    if not all_ok:
        return Certificate(
            theorem_id="exotic", premises=tuple(premises),
            verdict=Verdict.INCONCLUSIVE,
            citation="exotic smooth structures on sums with a simply "
                     "connected non-spin symplectic piece")
    model = f"{p}*CP2 # {q}*CP2bar # {xprime.name}"
    d = n_prime  # moduli dimension of the canonical structure on x # xprime
    split_count = p + n_prime
    premises.append(Premise(
        "homeomorphism: the intersection form of x is odd and indefinite "
        "(or definite and standard), hence diagonal; Freedman then gives a "
        "homeomorphism to the model",
        True, f"model: {model}"))
    premises.append(Premise(
        "non-diffeomorphism: the model splits into >= 4 positive-b+ "
        "summands, forcing moduli dimension >= 3, but the certified "
        "structure on x # xprime has dimension <= 2",
        split_count >= 4 and d <= 2,
        f"positive-b+ summands in model = {split_count}, moduli dimension = {d}"))
    return Certificate(
        theorem_id="exotic", premises=tuple(premises),
        verdict=Verdict.NONVANISHING,
        citation="exotic smooth structures: homeomorphic via Freedman after "
                 "diagonalization, distinguished by the non-vanishing "
                 "invariant against the neck-gluing dimension bound")


# ---------------------------------------------------------------------------
# Geography searches


@dataclass(frozen=True)
class SearchHit:
    mode: str                  # "spin" | "nonspin"
    m: int
    n: int
    l: int                     # l1 (spin) or l2 (nonspin)
    manifold_name: str
    sv: SvInterval
    certificates: tuple[Certificate, ...]
    family_note: str

    def key(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.l)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "m": self.m,
            "n": self.n,
            ("l1" if self.mode == "spin" else "l2"): self.l,
            "manifold": self.manifold_name,
            "sv": self.sv.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
            "family_note": self.family_note,
        }


@dataclass(frozen=True)
class SearchOutcome:
    hits: tuple[SearchHit, ...]
    inconclusive: tuple[tuple[int, int, int], ...]


_FAMILY_NOTE = (
    "the family over the log-transform order parameter realizes infinitely "
    "many distinct smooth structures on one topological manifold "
    "(finiteness of the monopole-class set)")


def _spin_cells(m_max: int, n_max: int) -> list[tuple[int, int]]:
    # 4m + 2n - 1 = 3 (mod 4) forces n even.
    return [(m, n) for m in range(2, m_max + 1) for n in range(1, n_max + 1)
            if (4 * m + 2 * n - 1) % 4 == 3]


def _hit_for_tuple(mode: str, m: int, n: int, g: int, h: int, l: int,
                   c4: Fraction, enclosure: Pi2Enclosure) -> SearchHit:
    pieces = [catalog_get(f"Gompf({m},{n})"), catalog_get("Y(1)"),
              catalog_get(f"Sigma({g},{h})")]
    if mode == "spin":
        pieces.append(catalog_get("S1xS3"))
        cor = corollary_obstruction(pieces[:2], k=1, g=g, h=h, l1=l, l2=0)
    else:
        pieces.append(catalog_get("CP2bar"))
        cor = corollary_obstruction(pieces[:2], k=1, g=g, h=h, l1=0, l2=l)
    manifold = connected_sum(pieces, counts=[1, 1, 1, l])
    sv = simplicial_volume(manifold, c4)
    assert isinstance(sv, SvInterval)
    certs = (
        hitchin_thorpe(manifold),
        ght(manifold, c4, strict=True, enclosure=enclosure),
        cor,
    )
    return SearchHit(mode=mode, m=m, n=n, l=l, manifold_name=manifold.name,
                     sv=sv, certificates=certs, family_note=_FAMILY_NOTE)


def _search(mode: str, g: int, h: int, m_max: int, n_max: int,
            c4: Fraction, enclosure: Pi2Enclosure) -> SearchOutcome:
    if g < 3 or h < 3 or g % 2 == 0 or h % 2 == 0:
        raise PremiseError(f"the searches need odd g, h >= 3; got ({g},{h})")
    if c4 <= 0:
        raise ValueError("c4 must be positive")
    big_g = (g - 1) * (h - 1)

    def scan_cell(cell: tuple[int, int]) -> tuple[list[SearchHit], list[tuple[int, int, int]]]:
        m, n = cell
        hits: list[SearchHit] = []
        ties: list[tuple[int, int, int]] = []
        if mode == "spin":
            lo = max(1, exact.ceil_fraction(Fraction(2 * n + big_g, 3) - 3))
            hi = 2 * n + big_g - 3
        else:
            lo = max(1, exact.ceil_fraction(Fraction(8 * n + 4 * big_g, 3) - 12))
            hi = 8 * n + 4 * big_g - 12
        # Each mode has a second pi^2 inequality,
        #   spin:     2(n + 12m) + (1 - 4c4/(81 pi^2)) G + 21 > l1
        #   non-spin: 8(n + 12m) + 4(1 - 4c4/(81 pi^2)) G + 84 > -5 l2,
        # which is never decided here.  Written as A pi^2 > b, it shares
        # b = 4 c4 G (spin) or 16 c4 G (non-spin), b > 0, with the first one
        # below, and its A is larger by 81 (24m + 24) (spin) or
        # 81 (96m + 96 + 6 l2) (non-spin).  So the first holding implies the
        # second, the second failing implies the first fails, and a tie in
        # the first is never pruned by the second.
        for l in range(lo, hi + 1):
            if mode == "spin":
                # l1 >= (1/3)(2n + G) - 3
                floor_ok = Fraction(l) >= Fraction(2 * n + big_g, 3) - 3
                # 2n + (1 - 4c4/(81 pi^2)) G - 3 > l1
                dec1 = pi2_greater(Fraction(81 * (2 * n + big_g - 3 - l)),
                                   4 * c4 * big_g, strict=True, enclosure=enclosure)
            else:
                floor_ok = Fraction(l) >= Fraction(8 * n + 4 * big_g, 3) - 12
                # 8n + 4(1 - 4c4/(81 pi^2)) G - 12 > l2
                dec1 = pi2_greater(Fraction(81 * (8 * n + 4 * big_g - 12 - l)),
                                   16 * c4 * big_g, strict=True, enclosure=enclosure)
            if not floor_ok or dec1 is False:
                continue
            if dec1 is None:
                ties.append((m, n, l))
                continue
            hits.append(_hit_for_tuple(mode, m, n, g, h, l, c4, enclosure))
        return hits, ties

    results = [scan_cell(c) for c in _spin_cells(m_max, n_max)]
    hits = sorted((h for hs, _ in results for h in hs), key=SearchHit.key)
    ties = sorted(t for _, ts in results for t in ts)
    return SearchOutcome(hits=tuple(hits), inconclusive=tuple(ties))


def search_spin_examples(g: int, h: int, m_max: int, n_max: int,
                         c4: RationalLike = DEFAULT_C4,
                         enclosure: Pi2Enclosure = DEFAULT_PI2) -> SearchOutcome:
    """All (m, n, l1) with m >= 2, n >= 1, 4m + 2n - 1 = 3 (mod 4), l1 >= 1
    whose spin connected sum
    Gompf(m,n) # Y(l) # (Sigma_g x Sigma_h) # l1 (S1 x S3)
    has nonzero simplicial volume, strictly satisfies Gromov-Hitchin-Thorpe,
    and carries no Einstein metric for any l."""
    return _search("spin", g, h, m_max, n_max, Fraction(c4), enclosure)


def search_nonspin_examples(g: int, h: int, m_max: int, n_max: int,
                            c4: RationalLike = DEFAULT_C4,
                            enclosure: Pi2Enclosure = DEFAULT_PI2) -> SearchOutcome:
    """Non-spin analogue: Gompf(m,n) # Y(l) # (Sigma_g x Sigma_h) # l2 CP2bar
    with l2 >= 1 (one blow-up already kills spin-ness)."""
    return _search("nonspin", g, h, m_max, n_max, Fraction(c4), enclosure)
