"""Einstein-metric obstructions, simplicial-volume intervals, decomposition
and exotic-structure certificates, and the geography searches.

Simplicial volume is tracked as an interval: for M carrying k hyperbolic
products Sigma_g x Sigma_h (and otherwise amenable or simply connected
pieces), ||M|| lies in [16 k (g-1)(h-1) / c4, 16 k (g-1)(h-1) c4], where c4
is the universal dimension-4 product constant.  c4 is an explicit parameter
everywhere, with no default in the library: no value for it is ever assumed.
The CLI's default is ``DEFAULT_C4`` = 1, and ``cli._c4`` is the one place
that checks c4 > 0; the functions here take a positive c4 as given.

Inequalities mixing integers with 1/(81 pi^2) are decided exactly by
clearing pi^2: rearrange to A pi^2 > B with A, B rational and compare B/A
against rational enclosures of pi^2, refined until decided
(``symbolic.pi2_greater``).  Only a comparison undecided at
``PI_DIGIT_CAP`` digits is reported as Inconclusive, never guessed.

The certificates ``hitchin_thorpe`` and ``ght`` take the integers they
decide, chi and tau, and ``ght`` the simplicial-volume interval, so a
geography search certifies each hit without building its sum: a cell
(m, n) splits its range of l into hits, ties and failures by bisection
(``_decided_runs``), builds one connected sum, and steps chi, tau and the
name from it to each hit.  Each hit's premise decisions are made from its
own integers (``_ght_decisions``, the sign of 2chi - 3|tau|, and
3*lhs >= x for the corollary).  The first hit of a cell with a given tuple
of decisions gets its certificates from the three functions here and its
v1 line from ``json``; every later one fills that line's slots
(``_SLOTS``) with its own l, name, gap and lhs.  So certificate texts,
citations and verdicts have one source, and no certificate is built per
hit.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence, Union

from fourfold.catalog import REPORT_VERSION, catalog_get
from fourfold.certify import (
    Certificate,
    Premise,
    Verdict,
    _part_premises_theorem_a,
    check_taubes,
    check_theorem_B,
    require_part_count,
)
from fourfold.errors import CapacityError, PremiseError, shown
from fourfold.model import Flag, Manifold, record_name
from fourfold.monopole import Inconclusive
from fourfold.surgery import connected_sum, split_blowdown
from fourfold.symbolic import pi2_greater

DEFAULT_C4 = Fraction(1)


@dataclass(frozen=True)
class SvInterval:
    """[16*factor/c4, 16*factor*c4] with factor the sum of k(g-1)(h-1) over
    the hyperbolic-product content.

    With c4 = num/den in lowest terms, the ends are built as the single
    Fractions 16*f*den/num and 16*f*num/den, not by Fraction arithmetic.
    The factor is nonnegative, as ``validate`` holds every sv factor to
    k >= 0 and g, h >= 1, and c4 is positive (see the module docstring).
    """

    factor: int
    c4: Fraction

    def lo(self) -> Fraction:
        return Fraction(16 * self.factor * self.c4.denominator, self.c4.numerator)

    def hi(self) -> Fraction:
        return Fraction(16 * self.factor * self.c4.numerator, self.c4.denominator)

    def to_json(self) -> dict:
        return {"lo": str(self.lo()), "hi": str(self.hi()),
                "factor": self.factor, "c4": str(self.c4)}


def simplicial_volume(m: Manifold, c4: Fraction) -> Union[SvInterval, Inconclusive]:
    """Simplicial-volume interval from the recorded product content.

    Valid when every non-product summand has vanishing simplicial volume
    (simply connected pieces, S1 x S3, CP2bar, amenable complex surfaces);
    custom manifolds without a record are Inconclusive.
    """
    total = m.sv_factor_total()
    if total is None:
        return Inconclusive(
            f"{m.name}: simplicial-volume content unknown (no sv_factors record)")
    return SvInterval(factor=total, c4=c4)


def hitchin_thorpe(chi: int, tau: int) -> Certificate:
    """2chi >= 3|tau|, necessary for an Einstein metric, for a manifold of
    Euler characteristic chi and signature tau."""
    gap = 2 * chi - 3 * abs(tau)
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


def _ght_decisions(chi: int, gap: int, sv: SvInterval, strict: bool
                   ) -> tuple[Optional[bool], Optional[bool], Optional[bool], Optional[bool]]:
    """The pi^2 decisions ``ght`` makes for Euler characteristic chi and
    gap = 2chi - 3|tau|: the upper end, the lower end, Gromov's inequality,
    and whether the non-strict lower-end condition is violated, which is
    asked only when the upper end fails (None otherwise)."""
    # gap >= 16 f c4 / (81 pi^2)  <=>  81 gap pi^2 >= 16 f c4.  With
    # c4 = num/den, each comparison is scaled by den (against c4) or num
    # (against 1/c4), both positive, so it is decided on integers with the
    # same answer and the same ties.
    f, num, den = sv.factor, sv.c4.numerator, sv.c4.denominator
    upper = pi2_greater(81 * gap * den, 16 * f * num, strict=strict)
    lower = pi2_greater(81 * gap * num, 16 * f * den, strict=strict)
    gromov = pi2_greater(2592 * chi * den, 16 * f * num, strict=False)
    # Violation must be judged against the non-strict necessary condition at
    # the smallest possible simplicial volume; a sum passing at the upper end
    # skips it.
    violated = (None if upper is True
                else pi2_greater(81 * gap * num, 16 * f * den, strict=False) is False)
    return upper, lower, gromov, violated


def ght(chi: int, tau: int, sv: Union[SvInterval, Inconclusive],
        strict: bool = True) -> Certificate:
    """Gromov-Hitchin-Thorpe: 2chi - 3|tau| >= ||M|| / (81 pi^2), for a
    manifold of Euler characteristic chi, signature tau and
    simplicial-volume interval sv (``simplicial_volume``, which carries c4).

    Checked against the upper end of the simplicial-volume interval (a
    sufficient condition); the lower-end verdict is reported separately, and
    Gromov's chi >= ||M|| / (2592 pi^2) alongside.  A sum with straddling
    interval is Inconclusive.
    """
    if isinstance(sv, Inconclusive):
        return Certificate(
            theorem_id="ght",
            premises=(Premise("simplicial volume resolvable", False, sv.reason),),
            verdict=Verdict.INCONCLUSIVE,
            citation="Gromov-Hitchin-Thorpe inequality")
    gap = 2 * chi - 3 * abs(tau)
    f, c4 = sv.factor, sv.c4
    upper, lower, gromov, violated = _ght_decisions(chi, gap, sv, strict)
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
    split = split_blowdown(m)
    n = split.count
    premises: list[Premise] = [
        Premise("decomposes into 2 or 3 positive-b+ pieces and a b+ = 0 rest",
                n in (2, 3), f"{n} positive-b+ pieces")]
    verdict = Verdict.INCONCLUSIVE
    if n in (2, 3):
        nonvanishing = split.theorem_a.verdict is Verdict.NONVANISHING
        premises.append(Premise(
            "non-vanishing premises hold for the positive-b+ pieces", nonvanishing,
            split.theorem_a.failures()))
        if nonvanishing:
            lhs = 4 * n - split.rest_two_chi_plus_3tau()
            rhs = Fraction(sum(p.two_chi_plus_3tau() for p in split.parts), 3)
            obstructed = lhs >= rhs
            route = ("Hitchin-Thorpe violated outright (2chi+3tau < 0)"
                     if m.two_chi_plus_3tau() < 0 else
                     "curvature bounds from the monopole classes")
            premises.append(Premise(
                "4n - (2chi+3tau)(N) >= (1/3) sum (2chi+3tau)(X_m)", obstructed,
                f"lhs = {lhs}, rhs = {rhs}; route: {route}"))
            verdict = Verdict.OBSTRUCTED if obstructed else Verdict.NOT_OBSTRUCTED
    return Certificate(
        theorem_id="einstein", premises=tuple(premises), verdict=verdict,
        citation="Einstein obstruction via monopole-class curvature bounds")


def _corollary_lhs(n: int, k: int, l1: int, l2: int) -> int:
    """The corollary's left side 4(n + l1 + k) + l2."""
    return 4 * (n + l1 + k) + l2


def _corollary_bracket(parts: Sequence[Manifold], k: int, g: int, h: int) -> int:
    """The bracket on the corollary's right, sum(2chi+3tau) + 4k(1-h)(1-g)."""
    return sum(p.two_chi_plus_3tau() for p in parts) + 4 * k * (1 - h) * (1 - g)


def corollary_obstruction(parts: Sequence[Manifold], k: int, g: int, h: int,
                          l1: int, l2: int) -> Certificate:
    """Specialized Einstein obstruction for
    (# simply connected symplectic X_m, b+ = 3 mod 4) # k(Sigma_g x Sigma_h)
    # l1(S1 x S3) # l2 CP2bar: obstructed when
    4(n + l1 + k) + l2 >= (1/3)(sum (2chi+3tau)(X_m) + 4k(1-h)(1-g)).

    The inequality is decided on integers as 3*lhs >= x, where x is the
    bracket on the right; the witness prints rhs = x/3 in lowest terms."""
    n = len(parts)
    if n < 1 or k < 1 or n + k > 3:
        raise PremiseError(f"need n, k >= 1 with n + k <= 3; got n = {n}, k = {shown(k)}")
    if g < 1 or h < 1 or g % 2 == 0 or h % 2 == 0:
        raise PremiseError(f"need odd g, h >= 1; got {shown(f'({g},{h})')}")
    if l1 < 0 or l2 < 0:
        raise PremiseError("l1, l2 must be nonnegative")
    for p in parts:
        if not p.char.is_simply_connected:
            raise PremiseError(f"{shown(p.name)} is not simply connected")
        if not p.has_flag(Flag.SYMPLECTIC):
            raise PremiseError(f"{shown(p.name)} is not symplectic")
        if p.char.b_plus % 4 != 3:
            raise PremiseError(f"{shown(p.name)} has b+ = {shown(p.char.b_plus)} != 3 (mod 4)")
    lhs, x = _corollary_lhs(n, k, l1, l2), _corollary_bracket(parts, k, g, h)
    obstructed = 3 * lhs >= x
    rhs = Fraction(x, 3)
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


def decomposition_certificate(m: Manifold) -> tuple[int, Certificate]:
    """(max number of positive-b+ summands in any smooth decomposition, the
    non-vanishing certificate it rests on): its moduli dimension + 1, as
    monopoles glue along necks, each adding a circle of gluing parameters.
    Other counts than 1 (Taubes), 2 or 3 (Theorem A or B) are refused."""
    split = split_blowdown(m)
    if split.count == 0:
        raise PremiseError("no positive-b+ pieces to certify")
    if split.count == 1:
        cert = check_taubes(split.parts[0])
    else:
        require_part_count("theorem-a", split.count)
        cert = split.theorem_a
        if cert.verdict is not Verdict.NONVANISHING:
            cert = check_theorem_B(split.parts)
    if cert.verdict is not Verdict.NONVANISHING:
        raise PremiseError(
            "no non-vanishing certificate holds for the positive-b+ pieces")
    return split.count, cert


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
class SearchOutcome:
    """The (m, n, l) keys of a search's hits and of its ties, in key order."""
    hits: tuple[tuple[int, int, int], ...]
    inconclusive: tuple[tuple[int, int, int], ...]


_FAMILY_NOTE = (
    "the family over the log-transform order parameter realizes infinitely "
    "many distinct smooth structures on one topological manifold "
    "(finiteness of the monopole-class set)")


# A search is refused before any cell is listed when it would scan more than
# SEARCH_SCAN_CAP values of l.  Every l-range starts at l >= 1 and ends at an
# l that grows with n, so the number of cells times the last l at n = n_max
# bounds the scan.  That last l is at least 5 (n >= 2, G >= 4), so the cap
# also bounds the cells, to 20,000; with no even n there is no cell, whatever
# m_max is.
SEARCH_SCAN_CAP = 100_000


def _check_search_size(mode: str, g: int, h: int, m_max: int, n_max: int) -> None:
    # 4m + 2n - 1 = 3 (mod 4) keeps only the even n
    cells = max(0, m_max - 1) * max(0, n_max // 2)
    scan = cells * max(0, _l_range(mode, n_max, (g - 1) * (h - 1))[1])
    if scan > SEARCH_SCAN_CAP:
        raise CapacityError(f"a search scanning up to {shown(scan)} values of l is over "
                            f"the cap of {SEARCH_SCAN_CAP}")


# A search mode is its weight w and the atom summed l times.  The non-spin
# search is the spin one with every term except l multiplied by w = 4.
_MODES = {"spin": (1, "S1xS3"), "nonspin": (4, "CP2bar")}


def _l_range(mode: str, n: int, big_g: int) -> tuple[int, int]:
    """The first and last l scanned in a cell of the given n.

    The range starts at the floor inequality l >= w(2n + G)/3 - 3w, that is
      spin:     l1 >= (1/3)(2n + G) - 3
      non-spin: l2 >= (1/3)(8n + 4G) - 12,
    so every l scanned satisfies it and it is not tested again.  It ends at
    last = w(2n + G - 3), past which the first inequality cannot hold.
    """
    w = _MODES[mode][0]
    return (max(1, -(-(w * (2 * n + big_g) - 9 * w) // 3)),
            w * (2 * n + big_g - 3))


def _spin_cells(m_max: int, n_max: int) -> list[tuple[int, int]]:
    # 4m + 2n - 1 = 3 (mod 4) forces n even; with no even n there is no
    # cell, however large m_max is.
    evens = range(2, n_max + 1, 2)
    return [(m, n) for m in range(2, m_max + 1) for n in evens] if evens else []


# The order in which a cell's first-inequality decisions come as l grows.
_RANK = {True: 0, None: 1, False: 2}


def _decided_runs(ls: range, last: int, den: int, b: int) -> tuple[range, range]:
    """The l of a cell on which the first inequality 81(last - l) den pi^2 > b
    holds, and those on which it ties, found by two bisections that make
    the same ``pi2_greater`` decisions a scan of every l makes.

    For p >= 0 and q = b > 0, ``pi2_greater(p, q)`` is True exactly when
    q/p <= max_d lo_d, False exactly when q/p >= min_d hi_d (p = 0 counts as
    q/p infinite), and None in between, the lo_d < pi^2 < hi_d being the
    ``pi2_bounds`` it refines through: a True at one d and a False at
    another would put pi^2 on both sides of q/p, since every pair encloses
    pi^2.  p = 81(last - l) den falls as l grows, so q/p rises and the
    decisions along the cell read True..., None..., False....  Each
    bisection makes at most ceil(log2(len(ls) + 1)) decisions.
    """
    def rank(l: int) -> int:
        return _RANK[pi2_greater(81 * (last - l) * den, b, strict=True)]

    ties_from = bisect_left(ls, 1, key=rank)
    fails_from = bisect_left(ls, 2, ties_from, key=rank)
    return ls[:ties_from], ls[ties_from:fails_from]


# The per-hit numbers of a hit's line, each found by the JSON around it: l,
# the manifold name (a JSON string), 2chi - 3|tau| in the Hitchin-Thorpe and
# Gromov-Hitchin-Thorpe witnesses, and the corollary's lhs.  A number is never
# found by its value alone: the line "lhs = 16, rhs = 16" holds 16 twice.
_SLOTS = re.compile(
    r'(?<="l[12]": )(?P<l>\d+)(?=, "m": )'
    r'|(?<="manifold": )(?P<name>"(?:[^"\\]|\\.)*")(?=, "mode": )'
    r'|(?:(?<=2chi - 3\|tau\| = )|(?<=2chi-3\|tau\| = ))(?P<gap>-?\d+)(?="|, factor = )'
    r'|(?<=lhs = )(?P<lhs>-?\d+)(?=, rhs = )')


def _hit_line(mode: str, m: int, n: int, l: int, name: str, sv: SvInterval,
              certs: tuple[Certificate, ...]) -> str:
    """The v1 search-hit line of the hit at (m, n, l), newline included."""
    return json.dumps({
        "version": REPORT_VERSION,
        "kind": "search-hit",
        "mode": mode,
        "m": m,
        "n": n,
        ("l1" if mode == "spin" else "l2"): l,
        "manifold": name,
        "sv": sv.to_json(),
        "certificates": [c.to_json() for c in certs],
        "family_note": _FAMILY_NOTE,
    }, sort_keys=True) + "\n"


def _template(line: str) -> str:
    """``line`` as a %-format with a mapping key for each of its slots."""
    parts, at = [], 0
    for slot in _SLOTS.finditer(line):
        parts += (line[at:slot.start()].replace("%", "%%"), f"%({slot.lastgroup})s")
        at = slot.end()
    parts.append(line[at:].replace("%", "%%"))
    return "".join(parts)


def _search(mode: str, g: int, h: int, m_max: int, n_max: int, c4: Fraction,
            emit: Callable[[str], object]) -> SearchOutcome:
    if g < 3 or h < 3 or g % 2 == 0 or h % 2 == 0:
        raise PremiseError(f"the searches need odd g, h >= 3; got {shown(f'({g},{h})')}")
    _check_search_size(mode, g, h, m_max, n_max)
    big_g = (g - 1) * (h - 1)
    w, last_atom = _MODES[mode]
    # The first inequality, w(2n + (1 - 4c4/(81 pi^2)) G - 3) > l, is
    # 81(last - l) pi^2 > 4wG c4 with last = w(2n + G - 3).  Both sides are
    # scaled by c4's denominator, so it is decided on integers, as in ``ght``.
    b = 4 * w * big_g * c4.numerator
    # The atoms every hit shares are fetched once per call; Gompf(m,n) once
    # per cell with a hit.
    shared = (catalog_get("Y(1)"), catalog_get(f"Sigma({g},{h})"), catalog_get(last_atom))
    # Each further copy of the atom summed l times adds chi - 2 of the atom
    # to chi and its signature to tau.  The sum's only sv record is
    # Sigma(g,h)'s, so every hit has the same interval.
    step_chi, step_tau = shared[2].euler() - 2, shared[2].signature()
    sv = SvInterval(big_g, c4)
    keys: list[tuple[int, int, int]] = []
    ties: list[tuple[int, int, int]] = []
    # Cells in (m, n) order, each with l upward: hits and ties come in key
    # order, so each hit's line is handed on as soon as it is written.
    for m, n in sorted(_spin_cells(m_max, n_max)):
        lo, last = _l_range(mode, n, big_g)
        # Each mode has a second pi^2 inequality,
        #   spin:     2(n + 12m) + (1 - 4c4/(81 pi^2)) G + 21 > l1
        #   non-spin: 8(n + 12m) + 4(1 - 4c4/(81 pi^2)) G + 84 > -5 l2,
        # which is never decided here.  Written as A pi^2 > b, it shares b
        # with the first one, b > 0, and its A is larger by 81 (24m + 24)
        # (spin) or 81 (96m + 96 + 6 l2) (non-spin).  So the first holding
        # implies the second, the second failing implies the first fails,
        # and a tie in the first is never pruned by the second.
        hit_ls, tie_ls = _decided_runs(range(lo, last + 1), last, c4.denominator, b)
        if hit_ls:
            # The cell's sum is built once, at l = lo; a hit at l differs
            # from it only in the count of the atom summed l times.
            pieces = (catalog_get(f"Gompf({m},{n})"),) + shared
            cell = connected_sum(pieces, [1, 1, 1, lo])
            chi, tau, record = cell.euler(), cell.signature(), cell.summand_record
            # no other piece has the atom's name, so a hit's record counts l of it
            at = [name for name, _ in record].index(last_atom)
            head, tail = record[:at], record[at + 1:]
            x = _corollary_bracket(pieces[:2], 1, g, h)
            # A hit's line is fixed by the decisions its certificates make,
            # but for its slots (see _SLOTS).  The first hit of the cell with
            # given decisions builds the certificates and the line; every
            # later one fills that line's template with its own numbers.
            templates: dict[tuple, str] = {}
            for l in hit_ls:
                hit_chi, hit_tau = chi + (l - lo) * step_chi, tau + (l - lo) * step_tau
                gap = 2 * hit_chi - 3 * abs(hit_tau)
                l1, l2 = (l, 0) if mode == "spin" else (0, l)
                # n = 2 parts, Gompf(m,n) and Y(1), and k = 1, as below
                lhs = _corollary_lhs(2, 1, l1, l2)
                decisions = ((gap > 0) - (gap < 0), 3 * lhs >= x,
                             *_ght_decisions(hit_chi, gap, sv, True))
                name = record_name(head + ((last_atom, l),) + tail)
                template = templates.get(decisions)
                if template is None:
                    certs = (
                        hitchin_thorpe(hit_chi, hit_tau),
                        ght(hit_chi, hit_tau, sv, strict=True),
                        corollary_obstruction(pieces[:2], k=1, g=g, h=h, l1=l1, l2=l2),
                    )
                    template = templates[decisions] = _template(
                        _hit_line(mode, m, n, l, name, sv, certs))
                emit(template % {"l": l, "name": encode_basestring_ascii(name), "gap": gap,
                                 "lhs": lhs})
                keys.append((m, n, l))
        ties.extend((m, n, l) for l in tie_ls)
    return SearchOutcome(hits=tuple(keys), inconclusive=tuple(ties))


def search_spin_examples(g: int, h: int, m_max: int, n_max: int,
                         c4: Fraction, *,
                         emit: Callable[[str], object]) -> SearchOutcome:
    """All (m, n, l1) with m >= 2, n >= 1, 4m + 2n - 1 = 3 (mod 4), l1 >= 1
    whose spin connected sum
    Gompf(m,n) # Y(l) # (Sigma_g x Sigma_h) # l1 (S1 x S3)
    has nonzero simplicial volume, strictly satisfies Gromov-Hitchin-Thorpe,
    and carries no Einstein metric for any l.

    Each hit's v1 ``search-hit`` line, newline included, goes to ``emit``
    in key order, one call per hit, before the next hit is decided, so the
    search holds no line it has handed on.  The outcome holds the keys of
    the hits and of the ties.

    A cell (m, n) decides its first inequality by bisection over l, builds
    its connected sum once, at its first l, and derives each hit's chi, tau
    and name from it.  Per hit it makes its premise decisions (three or
    four ``pi2_greater`` calls) and fills a line template; the certificates
    are built once per cell and outcome shape, for the template.  So its
    cost grows with the cells and, per hit, with those decisions and one
    string fill."""
    return _search("spin", g, h, m_max, n_max, c4, emit)


def search_nonspin_examples(g: int, h: int, m_max: int, n_max: int,
                            c4: Fraction, *,
                            emit: Callable[[str], object]) -> SearchOutcome:
    """Non-spin analogue: Gompf(m,n) # Y(l) # (Sigma_g x Sigma_h) # l2 CP2bar
    with l2 >= 1 (one blow-up already kills spin-ness).  Hit lines go to
    ``emit`` as in :func:`search_spin_examples`."""
    return _search("nonspin", g, h, m_max, n_max, c4, emit)
