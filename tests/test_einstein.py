import gc
import inspect
import json
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fourfold import catalog, cli, einstein, symbolic
from fourfold.catalog import catalog_get
from fourfold.certify import Verdict
from fourfold.einstein import (
    SvInterval,
    corollary_obstruction,
    decomposition_certificate,
    einstein_obstruction,
    exotic_pair,
    ght,
    hitchin_thorpe,
    search_nonspin_examples,
    search_spin_examples,
    simplicial_volume,
)
from fourfold.errors import CapacityError, PremiseError
from fourfold.model import (
    CharData,
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    SpinCStructure,
)
from fourfold.monopole import Inconclusive
from fourfold.surgery import connected_sum
from fourfold.symbolic import pi2_greater

from oracles import (
    ENCLOSURES,
    PI2_50,
    TIE_C4,
    corollary_by_fractions,
    ght_by_fractions,
    mpmath_pi2_enclosure,
    nonspin_tuple_certified,
    pi2_greater_by_division,
    search_by_sorting,
    search_lines,
    spin_tuple_certified,
)

K3 = catalog_get("K3")
SIGMA33 = catalog_get("Sigma(3,3)")
CP2BAR = catalog_get("CP2bar")
S1XS3 = catalog_get("S1xS3")
KODAIRA = catalog_get("Kodaira")


def _ht(m):
    """``hitchin_thorpe`` on m, as ``check hitchin-thorpe`` calls it."""
    return hitchin_thorpe(m.euler(), m.signature())


def _ght(m, c4, strict=True):
    """``ght`` on m, as ``check ght`` calls it."""
    return ght(m.euler(), m.signature(), simplicial_volume(m, c4), strict)


def test_sv_interval_values():
    sv = simplicial_volume(connected_sum([SIGMA33, K3]), Fraction(1))
    assert (sv.lo(), sv.hi()) == (64, 64)
    sv = simplicial_volume(connected_sum([SIGMA33, K3]), Fraction(2))
    assert (sv.lo(), sv.hi()) == (32, 128)
    sv = simplicial_volume(connected_sum([K3, K3]), Fraction(1))
    assert sv.factor == 0 and sv.lo() == sv.hi() == 0
    m = connected_sum([catalog_get("Sigma(3,5)")] * 2)
    sv = simplicial_volume(m, Fraction(1))
    assert sv.factor == 16  # 2 * (2)(4)
    k2 = connected_sum([SIGMA33, catalog_get("Sigma(3,5)")])
    assert simplicial_volume(k2, Fraction(1)).factor == 12


def test_sv_interval_unknown_content():
    custom = Manifold(
        name="mystery",
        char=CharData(1, 2, 2, False, False),
        spinc_structures=(),
        sv_factors=None,
    )
    assert isinstance(simplicial_volume(custom, Fraction(1)), Inconclusive)


def test_sv_interval_ordering_for_c4_at_least_one():
    for c4 in (Fraction(1), Fraction(3, 2), Fraction(7)):
        sv = SvInterval(5, c4)
        assert sv.lo() <= sv.hi()


@pytest.mark.parametrize("c4", [Fraction(1, 10**40), Fraction(7, 3), Fraction(1),
                                Fraction(10**40)])
@pytest.mark.parametrize("factor", [0, 1, 12, 10**6 + 3])
def test_sv_interval_ends_match_fraction_arithmetic(c4, factor):
    sv = SvInterval(factor, c4)
    lo, hi = Fraction(16 * factor) / c4, Fraction(16 * factor) * c4
    assert (sv.lo(), sv.hi()) == (lo, hi)
    assert sv.to_json() == {"lo": str(lo), "hi": str(hi), "factor": factor, "c4": str(c4)}
    # simplicial_volume builds this interval from a manifold's factor
    m = _ght_piece(0, 3, 3, factor)
    assert simplicial_volume(m, c4) == sv


def test_the_library_assumes_no_c4():
    # c4 has one default, the CLI's, and one positivity check, cli._c4
    for fn in (simplicial_volume, search_spin_examples, search_nonspin_examples):
        assert inspect.signature(fn).parameters["c4"].default is inspect.Parameter.empty
    # ght reads c4 only from the interval it is given, which carries it
    params = inspect.signature(ght).parameters
    assert list(params) == ["chi", "tau", "sv", "strict"] and "c4" not in params
    assert params["sv"].default is inspect.Parameter.empty
    assert params["strict"].default is True
    m = connected_sum([SIGMA33, CP2BAR])
    for c4 in (Fraction(1), Fraction(7, 3), Fraction(10**6)):
        cert = ght(m.euler(), m.signature(), SvInterval(4, c4))
        assert f"c4 = {c4}" in cert.premises[0].witness


def test_hitchin_thorpe():
    cert = _ht(K3)
    assert cert.verdict is Verdict.NOT_OBSTRUCTED
    strict = [p for p in cert.premises if "strictly" in p.text]
    assert strict and not strict[0].passed  # boundary case 2chi = 3|tau|
    big = connected_sum([SIGMA33, SIGMA33] + [CP2BAR] * 18)
    cert = _ht(big)
    assert cert.verdict is Verdict.NOT_OBSTRUCTED
    assert all(p.passed for p in cert.premises)
    cert = _ht(connected_sum([K3, K3]))  # 2chi + 3tau = -4
    assert cert.verdict is Verdict.OBSTRUCTED


def test_ght_strict_on_search_shape():
    m = connected_sum([catalog_get("Gompf(2,2)"), catalog_get("Y(1)"),
                       SIGMA33, S1XS3])
    cert = _ght(m, Fraction(1), strict=True)
    assert cert.verdict is Verdict.NOT_OBSTRUCTED


def test_ght_simply_connected_reduces_to_ht():
    cert = _ght(K3, Fraction(1), strict=False)
    assert cert.verdict is Verdict.NOT_OBSTRUCTED
    cert = _ght(K3, Fraction(1), strict=True)  # boundary: strict check fails, no violation
    assert cert.verdict is Verdict.INCONCLUSIVE
    cert = _ght(connected_sum([K3, K3]), Fraction(1), strict=False)
    assert cert.verdict is Verdict.OBSTRUCTED


def test_ght_straddle_is_inconclusive():
    m = connected_sum([SIGMA33] + [CP2BAR] * 31)  # 2chi - 3|tau| = 1, factor 4
    assert 2 * m.euler() - 3 * abs(m.signature()) == 1
    cert = _ght(m, Fraction(10**6), strict=True)
    assert cert.verdict is Verdict.INCONCLUSIVE
    lower = [p for p in cert.premises if "lower sv end" in p.text]
    assert lower and lower[0].passed


def test_ght_unknown_sv():
    custom = Manifold(name="mystery", char=CharData(1, 2, 2, False, False),
                      spinc_structures=(), sv_factors=None)
    assert _ght(custom, Fraction(1)).verdict is Verdict.INCONCLUSIVE


def test_ght_gromov_premise_is_non_strict():
    """Gromov's chi >= ||M||/(2592 pi^2) is non-strict whichever GHT
    inequality is asked: T4 (chi = 0, factor 0) meets it with equality."""
    t4 = catalog_get("T4")
    for strict in (True, False):
        gromov = _ght(t4, Fraction(1), strict).premises[2]
        assert (gromov.text, gromov.passed, gromov.witness) == (
            "Gromov: chi >= (upper sv end)/(2592 pi^2)", True,
            "2592*chi*pi^2 >= 16*factor*c4: True")


def _ght_piece(b1: int, b_plus: int, b_minus: int, factor) -> Manifold:
    """A manifold with the given Betti numbers and simplicial-volume factor
    (None: unknown content)."""
    sv = None if factor is None else ((factor, 2, 2),) if factor else ()
    return Manifold(name="X", char=CharData(b1, b_plus, b_minus, False, b1 == 0),
                    sv_factors=sv)


def _tie_c4(kind: str, m: Manifold, enclosure) -> Fraction:
    """A c4 that puts one pi^2 comparison of ``ght`` on m at the midpoint of
    the enclosure; TIE_C4 when that needs a nonpositive gap, factor or chi."""
    mid = (enclosure.lo + enclosure.hi) / 2
    gap = 2 * m.euler() - 3 * abs(m.signature())
    f = m.sv_factor_total() or 0
    if kind == "upper" and gap > 0 and f > 0:     # 16 f c4 = 81 gap mid
        return 81 * gap * mid / (16 * f)
    if kind == "lower" and gap > 0 and f > 0:     # 16 f / c4 = 81 gap mid
        return 16 * f / (81 * gap * mid)
    if kind == "gromov" and m.euler() > 0 and f > 0:  # 16 f c4 = 2592 chi mid
        return 2592 * m.euler() * mid / (16 * f)
    return TIE_C4


_C4 = st.one_of(
    st.integers(1, 10**6).map(Fraction),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6,
                 max_denominator=10**6).filter(lambda q: q.denominator > 1),
    st.sampled_from([Fraction(1, 10**40), Fraction(10**40), Fraction(7, 3), TIE_C4]),
    st.sampled_from(["upper", "lower", "gromov"]),
)


_TIE = "tie (enclosure too coarse)"


def _has_tie(cert) -> bool:
    return any(_TIE in p.witness for p in cert.premises)


def _assert_ght_matches_oracle(m, c4, strict, enclosure):
    """ght matches the Fraction-based certificate over ``enclosure`` where
    that decides every comparison, and over 1,100 mpmath digits where it
    ties; with the digit cap at 50 it matches the one over PI2_50, ties
    included.  Returns the decided certificate."""
    expected = ght_by_fractions(m, c4, strict, enclosure)
    if _has_tie(expected):
        expected = ght_by_fractions(m, c4, strict, mpmath_pi2_enclosure())
        assert not _has_tie(expected)
    assert _ght(m, c4, strict).to_json() == expected.to_json()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "PI_DIGIT_CAP", 50)
        assert (_ght(m, c4, strict).to_json()
                == ght_by_fractions(m, c4, strict, PI2_50).to_json())
    return expected


@given(b1=st.integers(0, 40), b_plus=st.integers(0, 80), b_minus=st.integers(0, 80),
       factor=st.one_of(st.none(), st.integers(0, 60)), c4=_C4, strict=st.booleans(),
       enclosure=st.sampled_from(ENCLOSURES))
@settings(max_examples=300, deadline=None)
def test_ght_integer_decisions_match_fractions(b1, b_plus, b_minus, factor, c4,
                                               strict, enclosure):
    m = _ght_piece(b1, b_plus, b_minus, factor)
    if isinstance(c4, str):
        c4 = _tie_c4(c4, m, enclosure)
    _assert_ght_matches_oracle(m, c4, strict, enclosure)


@pytest.mark.parametrize("enclosure", ENCLOSURES)
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("kind, premise", [("upper", 0), ("lower", 1), ("gromov", 2)])
def test_ght_ties_match_fractions(kind, premise, strict, enclosure, monkeypatch):
    # 2chi - 3|tau| = 16, chi = 8, factor 4
    m = _ght_piece(0, 3, 3, 4)
    # the midpoint of either enclosure is decided by refining
    assert not _has_tie(_assert_ght_matches_oracle(m, _tie_c4(kind, m, enclosure),
                                                   strict, enclosure))
    # the midpoint of PI2_50 ties when the refinement stops at 50 digits
    monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    c4 = _tie_c4(kind, m, PI2_50)
    cert = _ght(m, c4, strict)
    assert cert.to_json() == ght_by_fractions(m, c4, strict, PI2_50).to_json()
    assert cert.premises[premise].witness.split(";")[0].endswith(_TIE)


def test_einstein_obstruction_separation():
    big = connected_sum([SIGMA33, SIGMA33] + [CP2BAR] * 18)
    cert = einstein_obstruction(big)
    assert cert.verdict is Verdict.OBSTRUCTED
    assert any("lhs = 22" in p.witness for p in cert.premises)
    # ... while Hitchin-Thorpe holds strictly: a genuinely finer obstruction
    ht = _ht(big)
    assert ht.verdict is Verdict.NOT_OBSTRUCTED
    assert all(p.passed for p in ht.premises)


def test_einstein_obstruction_small_blowup():
    small = connected_sum([SIGMA33, SIGMA33, CP2BAR])
    cert = einstein_obstruction(small)
    assert cert.verdict is Verdict.NOT_OBSTRUCTED
    assert any("lhs = 5" in p.witness for p in cert.premises)


def test_einstein_obstruction_holds_at_equality():
    """lhs = rhs is Obstructed, as the inequality is >=: each CP2bar of the
    b+ = 0 rest raises lhs by exactly 1, and Obstructed stays Obstructed."""
    gompf = catalog_get("Gompf(2,6)")
    certs = {k: einstein_obstruction(connected_sum([K3, gompf, CP2BAR], [1, 1, k]))
             for k in (11, 12, 13)}
    assert {k: (c.verdict, c.premises[-1].witness.split(";")[0])
            for k, c in certs.items()} == {
        11: (Verdict.NOT_OBSTRUCTED, "lhs = 15, rhs = 16"),
        12: (Verdict.OBSTRUCTED, "lhs = 16, rhs = 16"),
        13: (Verdict.OBSTRUCTED, "lhs = 17, rhs = 16"),
    }


def test_einstein_obstruction_nonpositive_parts():
    cert = einstein_obstruction(connected_sum([K3, K3]))
    assert cert.verdict is Verdict.OBSTRUCTED
    assert any("Hitchin-Thorpe violated" in p.witness for p in cert.premises)


def test_einstein_obstruction_needs_decomposition():
    assert einstein_obstruction(K3).verdict is Verdict.INCONCLUSIVE
    four = connected_sum([K3, K3, K3, K3])
    assert einstein_obstruction(four).verdict is Verdict.INCONCLUSIVE


def test_einstein_monotone_under_blowups():
    cases = [
        connected_sum([SIGMA33, SIGMA33] + [CP2BAR] * 18),
        connected_sum([K3, K3]),
        connected_sum([SIGMA33, SIGMA33] + [CP2BAR] * 19),
    ]
    for m in cases:
        if einstein_obstruction(m).verdict is Verdict.OBSTRUCTED:
            again = connected_sum([m, CP2BAR])
            assert einstein_obstruction(again).verdict is Verdict.OBSTRUCTED


def test_corollary_obstruction():
    g22 = catalog_get("Gompf(2,2)")
    cert = corollary_obstruction([g22], 1, 3, 3, 12, 0)
    assert cert.verdict is Verdict.OBSTRUCTED
    g2_20 = catalog_get("Gompf(2,20)")
    cert = corollary_obstruction([g2_20], 1, 3, 3, 0, 0)
    assert cert.verdict is Verdict.NOT_OBSTRUCTED
    assert any("rhs = 176/3" in p.witness for p in cert.premises)
    # (1-h)(1-g) vanishes at g = h = 1
    cert = corollary_obstruction([g22], 1, 1, 1, 0, 0)
    assert cert.verdict is Verdict.OBSTRUCTED
    assert any("rhs = 16/3" in p.witness for p in cert.premises)


def test_corollary_premise_failures():
    g21 = catalog_get("Gompf(2,1)")  # b+ = 9, not 3 mod 4
    with pytest.raises(PremiseError):
        corollary_obstruction([g21], 1, 3, 3, 0, 0)
    g22 = catalog_get("Gompf(2,2)")
    with pytest.raises(PremiseError):
        corollary_obstruction([g22], 1, 2, 3, 0, 0)  # even genus
    with pytest.raises(PremiseError):
        corollary_obstruction([g22], 0, 3, 3, 0, 0)  # k >= 1
    with pytest.raises(PremiseError):
        corollary_obstruction([g22, g22, g22], 1, 3, 3, 0, 0)  # n + k > 3
    with pytest.raises(PremiseError):
        corollary_obstruction([SIGMA33], 1, 3, 3, 0, 0)  # not simply connected


def _corollary_part(b_plus: int, b_minus: int) -> Manifold:
    """A simply connected symplectic part with 2chi + 3tau = 4 + 5b+ - b-,
    negative when b- is large."""
    return Manifold(name=f"P({b_plus},{b_minus})",
                    char=CharData(0, b_plus, b_minus, False, True),
                    flags=frozenset({Flag.SYMPLECTIC}), sv_factors=())


@given(shape=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
       b_pluses=st.lists(st.sampled_from([3, 7, 11]), min_size=2, max_size=2),
       b_minuses=st.lists(st.integers(0, 120), min_size=2, max_size=2),
       g=st.integers(0, 4).map(lambda i: 2 * i + 1),
       h=st.integers(0, 4).map(lambda i: 2 * i + 1),
       l1=st.integers(0, 60), l2=st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_corollary_integer_decision_matches_fractions(shape, b_pluses, b_minuses,
                                                      g, h, l1, l2):
    n, k = shape
    parts = [_corollary_part(bp, bm) for bp, bm in zip(b_pluses, b_minuses)][:n]
    assert (corollary_obstruction(parts, k, g, h, l1, l2).to_json()
            == corollary_by_fractions(parts, k, g, h, l1, l2).to_json())


def test_corollary_rhs_covers_every_residue_and_sign():
    # 2chi + 3tau = 59 - b-; with g = h = 1 the right-hand side is that over
    # 3, against 3 * lhs = 24
    seen = set()
    for b_minus in range(0, 80):
        parts = [_corollary_part(11, b_minus)]
        x = parts[0].two_chi_plus_3tau()
        cert = corollary_obstruction(parts, 1, 1, 1, 0, 0)
        assert cert.to_json() == corollary_by_fractions(parts, 1, 1, 1, 0, 0).to_json()
        assert f"rhs = {Fraction(x, 3)}" in cert.premises[1].witness
        seen.add((x % 3, x < 0, cert.verdict))
    assert {(r, neg) for r, neg, _ in seen} == {(r, neg) for r in range(3)
                                                for neg in (False, True)}
    assert {v for *_, v in seen} == {Verdict.OBSTRUCTED, Verdict.NOT_OBSTRUCTED}


_O, _I, _N = Verdict.OBSTRUCTED, Verdict.INCONCLUSIVE, Verdict.NOT_OBSTRUCTED


@pytest.mark.parametrize("b1, b_plus, b_minus, factor, c4, strict_verdict, loose_verdict", [
    (40, 0, 0, 1, Fraction(1), _O, _O),            # 2chi - 3|tau| < 0
    (0, 3, 3, 900, Fraction(1), _O, _O),           # 16*900 > 81*16*pi^2
    (0, 3, 3, 3000, Fraction(7, 3), _O, _O),
    (0, 3, 3, 60, Fraction(1000), _I, _I),         # the interval straddles
    (0, 3, 3, 1, Fraction(10**40), _I, _I),
    (0, 3, 19, 0, Fraction(7, 3), _I, _N),         # 2chi = 3|tau|
    (0, 3, 3, None, Fraction(1), _I, _I),          # unknown content
    (0, 3, 3, 60, Fraction(1), _N, _N),
])
def test_ght_verdicts_match_fractions(b1, b_plus, b_minus, factor, c4,
                                      strict_verdict, loose_verdict):
    """The lower-end violation is only decided when the upper end fails; the
    certificates still match the oracle, which always decides it."""
    m = _ght_piece(b1, b_plus, b_minus, factor)
    for strict, expected in ((True, strict_verdict), (False, loose_verdict)):
        cert = _ght(m, c4, strict)
        assert cert.to_json() == ght_by_fractions(m, c4, strict, PI2_50).to_json()
        assert cert.verdict is expected


def test_decomposition_bound():
    two = connected_sum([catalog_get("Sigma(3,5)"), KODAIRA])
    bound, cert = decomposition_certificate(two)
    assert bound == 2 and cert.verdict is Verdict.NONVANISHING
    three = connected_sum([K3, K3, KODAIRA])
    assert decomposition_certificate(three)[0] == 3
    assert decomposition_certificate(SIGMA33)[0] == 1  # Taubes irreducibility
    with pytest.raises(PremiseError):
        decomposition_certificate(connected_sum([catalog_get("CP2"), catalog_get("CP2")]))


def _nonspin_symplectic(b_plus=3, b_minus=11):
    """Synthetic simply connected non-spin symplectic piece with odd SW."""
    char = CharData(b1=0, b_plus=b_plus, b_minus=b_minus, is_spin=False,
                    is_simply_connected=True)
    c1sq = Manifold(name="Xns", char=char).two_chi_plus_3tau()
    g = SpinCStructure(c1=None, c1_squared=c1sq, sw_parity=Parity.ODD,
                       parity_provenance=Provenance.USER_ASSERTED)
    return Manifold(name="Xns", char=char, spinc_structures=(g,),
                    flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC}))


def test_exotic_pair():
    x = _nonspin_symplectic()
    cert = exotic_pair(x, KODAIRA)
    assert cert.verdict is Verdict.NONVANISHING
    model = [p for p in cert.premises if "homeomorphism" in p.text]
    assert model and "3*CP2 # 11*CP2bar # Kodaira" in model[0].witness
    split = [p for p in cert.premises if "non-diffeomorphism" in p.text]
    assert split and "summands in model = 4" in split[0].witness
    assert "moduli dimension = 1" in split[0].witness
    # two-part xprime
    cert2 = exotic_pair(x, connected_sum([KODAIRA, K3]))
    assert cert2.verdict is Verdict.NONVANISHING


def test_exotic_pair_errors():
    with pytest.raises(PremiseError):
        exotic_pair(catalog_get("Gompf(2,2)"), KODAIRA)  # spin x
    bad = _nonspin_symplectic(b_plus=5, b_minus=11)  # b+ = 1 (mod 4)
    cert = exotic_pair(bad, KODAIRA)
    assert cert.verdict is Verdict.INCONCLUSIVE
    cert = exotic_pair(_nonspin_symplectic(), connected_sum([K3, K3, KODAIRA]))
    assert cert.verdict is Verdict.INCONCLUSIVE  # 3-piece xprime


def _l(hit: dict) -> int:
    """The l of a parsed search-hit line: l1 (spin) or l2 (non-spin)."""
    return hit["l1" if hit["mode"] == "spin" else "l2"]


def collect(search, *args):
    """(the lines ``search(*args)`` hands to its ``emit``, parsed, in order,
    and its outcome).  Each line is one newline-ended v1 search-hit report,
    and the hits are those the outcome lists."""
    lines = []
    outcome = search(*args, emit=lines.append)
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    hits = [json.loads(line) for line in lines]
    assert all((hit["version"], hit["kind"]) == (catalog.REPORT_VERSION, "search-hit")
               for hit in hits)
    assert [(hit["m"], hit["n"], _l(hit)) for hit in hits] == list(outcome.hits)
    return hits, outcome


def test_spin_search_contains_expected_tuple():
    _, out = collect(search_spin_examples, 3, 3, 4, 6, Fraction(1))
    keys = list(out.hits)
    assert (2, 2, 1) in keys
    assert out.hits  # nonempty
    assert not out.inconclusive
    # n odd never satisfies the parity constraint
    assert all(n % 2 == 0 for (_, n, _) in keys)


def test_spin_search_hits_reverify_and_certify():
    hits, out = collect(search_spin_examples, 3, 3, 4, 6, Fraction(1))
    for hit in hits:
        assert spin_tuple_certified(hit["m"], hit["n"], _l(hit), 3, 3, Fraction(1))
        assert hit["sv"]["factor"] > 0
        by_id = {c["theorem_id"]: c for c in hit["certificates"]}
        assert by_id["hitchin-thorpe"]["verdict"] == Verdict.NOT_OBSTRUCTED.value
        assert all(p["pass"] for p in by_id["hitchin-thorpe"]["premises"])
        assert by_id["ght"]["verdict"] == Verdict.NOT_OBSTRUCTED.value
        assert by_id["einstein-special"]["verdict"] == Verdict.OBSTRUCTED.value
        assert "infinitely many" in hit["family_note"]
    # every certified tuple is found: cross-check against a direct scan
    direct = [(m, n, l) for m in range(2, 5) for n in range(1, 7)
              if (4 * m + 2 * n - 1) % 4 == 3
              for l in range(1, 2 * n + 4 + 1)
              if spin_tuple_certified(m, n, l, 3, 3, Fraction(1))]
    assert set(direct) <= set(out.hits)


def test_nonspin_search_range():
    hits, _ = collect(search_nonspin_examples, 3, 3, 2, 2, Fraction(1))
    l2s = sorted(_l(h) for h in hits if h["n"] == 2)
    assert l2s == list(range(1, 20))
    for hit in hits:
        assert nonspin_tuple_certified(hit["m"], hit["n"], _l(hit), 3, 3, Fraction(1))
        assert hit["manifold"].count("CP2bar") == 1  # "l2*CP2bar" piece


def test_nonspin_in22_never_prunes_at_default_constant(monkeypatch):
    # the second inequality holds for every enumerated candidate when c4 = 1
    big_g = 4
    for m in range(2, 5):
        for n in range(1, 7):
            for l2 in range(0, 8 * n + 4 * big_g - 12 + 1):
                a = 81 * (8 * (n + 12 * m) + 4 * big_g + 84 + 5 * l2)
                assert pi2_greater(a, 16 * big_g) is True
    # In both modes the first inequality decides the second: where the
    # first holds, so does the second, and a tie in the first (at a 50-digit
    # cap) is never a failure of the second.  So the search decides only the
    # first.
    assert _first_decides_second() == 0
    monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    assert _first_decides_second() >= 2  # the tie constant makes ties in both modes


def _first_decides_second() -> int:
    """Check, on the c4 = 1 grid of both modes and three other c4 values,
    that the first search inequality decides the second; returns the
    number of ties in the first."""
    big_g = 4
    ties = 0
    for c4 in (Fraction(1), TIE_C4, Fraction(10**3), Fraction(10**6)):
        for m in range(2, 5):
            for n in range(1, 7):
                for l in range(0, 8 * n + 4 * big_g - 12 + 1):
                    pairs = (
                        (81 * (2 * n + big_g - 3 - l),
                         81 * (2 * (n + 12 * m) + big_g + 21 - l), 4 * c4 * big_g),
                        (81 * (8 * n + 4 * big_g - 12 - l),
                         81 * (8 * (n + 12 * m) + 4 * big_g + 84 + 5 * l),
                         16 * c4 * big_g),
                    )
                    for a1, a2, b in pairs:
                        # scaled by b's denominator, as the search scales by c4's
                        dec1 = pi2_greater(a1 * b.denominator, b.numerator)
                        dec2 = pi2_greater(a2 * b.denominator, b.numerator)
                        if dec1 is True:
                            assert dec2 is True
                        if dec1 is None:
                            ties += 1
                            assert dec2 is not False
                        if dec2 is False:
                            assert dec1 is False
    return ties


def test_search_rejects_bad_parameters():
    with pytest.raises(PremiseError):
        collect(search_spin_examples, 2, 3, 4, 6, Fraction(1))
    with pytest.raises(PremiseError):
        collect(search_spin_examples, 3, 4, 4, 6, Fraction(1))


def test_search_huge_c4_empty():
    hits, out = collect(search_spin_examples, 3, 3, 4, 6, Fraction(10**6))
    assert not hits and not out.hits and not out.inconclusive


def test_search_inconclusive_on_engineered_tie(monkeypatch):
    # 324 pi^2 > 16 TIE_C4 ties at 50 digits, and more digits show it fails
    assert pi2_greater_by_division(324, 16 * TIE_C4, True, mpmath_pi2_enclosure()) is False
    hits, out = collect(search_spin_examples, 3, 3, 2, 2, TIE_C4)
    assert not out.inconclusive and (2, 2, 1) not in out.hits
    monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    capped_hits, capped = collect(search_spin_examples, 3, 3, 2, 2, TIE_C4)
    assert (2, 2, 1) in capped.inconclusive
    assert capped_hits == hits


def assert_cell_order_independent(g, h, m_max, n_max, c4):
    """Re-run the spin search with its (m, n) cells reversed and then
    shuffled by three seeds, and require identical hits and ties; returns
    the hits and the outcome in the natural order."""
    baseline_hits, baseline = collect(search_spin_examples, g, h, m_max, n_max, c4)
    cells = einstein._spin_cells
    orders = [lambda cs: cs[::-1]] + [
        lambda cs, seed=seed: random.Random(seed).sample(cs, len(cs))
        for seed in range(3)]
    for order in orders:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(einstein, "_spin_cells",
                       lambda m, n, order=order: order(cells(m, n)))
            again_hits, again = collect(search_spin_examples, g, h, m_max, n_max, c4)
        assert again_hits == baseline_hits
        assert again.inconclusive == baseline.inconclusive
    return baseline_hits, baseline


def test_search_cell_order_determinism(monkeypatch):
    assert assert_cell_order_independent(3, 3, 4, 6, 1)[1].hits
    decided_hits, decided = assert_cell_order_independent(3, 3, 4, 6, TIE_C4)
    assert decided.hits and not decided.inconclusive
    monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    capped_hits, capped = assert_cell_order_independent(3, 3, 4, 6, TIE_C4)
    assert capped.inconclusive
    assert capped_hits == decided_hits


def test_geography_grid_is_decided_at_50_digits(monkeypatch):
    """Every pi^2 decision of the benchmark's geography grid (both modes,
    odd 3 <= g <= h <= 7, mmax 2..4, nmax 2, 4, 6 at c4 = 1) is settled by
    the first enclosure; the engineered tie needs more digits."""
    digits = []
    bounds = symbolic.pi2_bounds
    monkeypatch.setattr(symbolic, "pi2_bounds", lambda d: digits.append(d) or bounds(d))
    for search in (search_spin_examples, search_nonspin_examples):
        for g, h in ((3, 3), (3, 5), (3, 7), (5, 5), (5, 7), (7, 7)):
            for m_max in (2, 3, 4):
                for n_max in (2, 4, 6):
                    collect(search, g, h, m_max, n_max, Fraction(1))
    assert len(digits) > 10_000 and set(digits) == {50}
    digits.clear()
    assert not collect(search_spin_examples, 3, 3, 4, 6, TIE_C4)[1].inconclusive
    assert max(digits) > 50


def test_search_fetches_each_atom_once_per_call(monkeypatch):
    """Y(1), Sigma(g,h) and CP2bar once per call, Gompf(m,n) once per cell;
    a second identical call fetches as often, so no cache outlives a call."""
    calls = []

    def counting_get(block_id):
        calls.append(block_id)
        return catalog_get(block_id)

    monkeypatch.setattr(einstein, "catalog_get", counting_get)
    bound = 3 + len(einstein._spin_cells(4, 6))
    first_hits, first = collect(search_nonspin_examples, 7, 7, 4, 6, Fraction(1))
    assert len(first.hits) > bound
    assert len(calls) <= bound
    assert len(set(calls)) == len(calls)
    count = len(calls)
    calls.clear()
    again_hits, _ = collect(search_nonspin_examples, 7, 7, 4, 6, Fraction(1))
    assert len(calls) == count
    assert again_hits == first_hits


def _unhashable(base: type) -> type:
    def refuse(self):
        raise AssertionError("a Manifold hash read more than its name")
    return type(f"Unhashable{base.__name__}", (base,), {"__hash__": refuse})


def _cells_with_a_hit(keys) -> int:
    return len({(m, n) for m, n, _ in keys})


def test_search_hashes_atoms_once_and_certifies_each_hit_once(monkeypatch):
    """Hashing an atom reads only its name, every hit's decisions are made
    once, the module-level certificate functions run once per template (one
    per cell and outcome shape, so once per cell with a hit on this grid),
    and every cell with a hit goes through the module-level connected_sum
    once."""
    sigma = catalog_get("Sigma(3,3)")
    guarded = replace(
        sigma, lattice=_unhashable(GramLattice)(sigma.lattice.basis_labels, sigma.lattice.gram),
        spinc_structures=_unhashable(tuple)(sigma.spinc_structures))
    for field in (guarded.lattice, guarded.spinc_structures):
        with pytest.raises(AssertionError):
            hash(field)
    assert hash(guarded) == hash(sigma)
    cp2bar = catalog_get("CP2bar")
    assert connected_sum([guarded, cp2bar, guarded]).summands == ((cp2bar, 1), (guarded, 2))

    fetched = []
    calls = dict.fromkeys(("connected_sum", "hitchin_thorpe", "ght",
                           "corollary_obstruction", "_template", "_ght_decisions"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(einstein, name, counting(name, getattr(einstein, name)))
    monkeypatch.setattr(einstein, "catalog_get",
                        lambda block_id: fetched.append(block_id) or catalog_get(block_id))
    # pi^2 decisions made inside ght: every template's hit passes at the
    # upper end, so ght skips the lower-end violation test and asks three
    in_ght, verdicts, pi2_in_ght = [], [], [0]
    counted_ght = einstein.ght

    def ght_watched(*args, **kwargs):
        in_ght.append(True)
        try:
            cert = counted_ght(*args, **kwargs)
        finally:
            in_ght.pop()
        verdicts.append(cert.verdict)
        return cert

    def pi2_watched(*args, **kwargs):
        pi2_in_ght[0] += bool(in_ght)
        return pi2_greater(*args, **kwargs)

    monkeypatch.setattr(einstein, "ght", ght_watched)
    monkeypatch.setattr(einstein, "pi2_greater", pi2_watched)
    keys = collect(search_nonspin_examples, 7, 7, 4, 6, Fraction(1))[1].hits
    hits, cells = len(keys), _cells_with_a_hit(keys)
    assert hits > 100 and fetched and 1 < cells < hits
    # each hit's ght decisions once in the scan, and once more in the ght
    # call that builds each template
    assert calls == {"connected_sum": cells, "hitchin_thorpe": cells, "ght": cells,
                     "corollary_obstruction": cells, "_template": cells,
                     "_ght_decisions": hits + cells}
    assert verdicts == [Verdict.NOT_OBSTRUCTED] * cells
    assert pi2_in_ght[0] == 3 * cells


def test_search_keeps_nothing_after_it_returns(monkeypatch):
    """The atoms a search fetches, and the spin-c blocks each atom builds
    for its sums, are collected once the search has returned, while its
    outcome is still alive: the outcome holds keys, and nothing outlives a
    call but the fixed atoms in ``catalog._PLAIN``, which the catalog holds
    for the life of the process, and their spin-c structures."""
    refs = []

    def fetch(block_id):
        atom = catalog_get(block_id)
        refs.extend((weakref.ref(atom), weakref.ref(atom.canonical_spinc)))
        return atom

    def summed(*args, **kwargs):
        m = connected_sum(*args, **kwargs)
        refs.extend(weakref.ref(block) for block, _ in m.canonical_spinc.blocks)
        return m

    monkeypatch.setattr(einstein, "catalog_get", fetch)
    monkeypatch.setattr(einstein, "connected_sum", summed)
    emitted = []
    outcome = search_nonspin_examples(7, 7, 4, 6, Fraction(1),
                                      emit=lambda line: emitted.append(len(line)))
    assert len(outcome.hits) > 100 and len(emitted) == len(outcome.hits)
    # four blocks per cell's sum, one sum per cell with a hit
    assert len(refs) > 4 * _cells_with_a_hit(outcome.hits) > 4
    held = {id(x) for atom in catalog._PLAIN.values() for x in (atom, *atom.spinc_structures)}
    gc.collect()
    alive = [r() for r in refs if r() is not None]
    assert alive and [x for x in alive if id(x) not in held] == []  # CP2bar is held
    assert len(outcome.hits) == len(emitted)  # the outcome outlived the collection


def test_search_hands_on_each_hit_before_it_builds_the_next_sum(monkeypatch):
    """Each hit reaches ``emit`` before the decisions of the next hit are
    made, and before the sum of the next cell.  With c the number of cells
    the first k hits have (one template per cell on this grid), the k-th
    call of ``emit`` comes after exactly k + c ght decision rounds (one per
    hit, one in each template's ght), 3c certificate calls and c sums."""
    built, certified, decided, at_emit = [0], [0], [0], []

    def counting(counter, fn):
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(einstein, "connected_sum", counting(built, connected_sum))
    for name in ("hitchin_thorpe", "ght", "corollary_obstruction"):
        monkeypatch.setattr(einstein, name, counting(certified, getattr(einstein, name)))
    monkeypatch.setattr(einstein, "_ght_decisions",
                        counting(decided, einstein._ght_decisions))
    outcome = search_nonspin_examples(
        7, 7, 4, 6, Fraction(1),
        emit=lambda line: at_emit.append((decided[0], certified[0], built[0])))
    keys = outcome.hits
    assert len(keys) > 1000
    cells = [_cells_with_a_hit(keys[:k]) for k in range(1, len(keys) + 1)]
    assert at_emit == [(k + c, 3 * c, c) for k, c in enumerate(cells, 1)]


def _scan_size(mode, g, h, m_max, n_max):
    """The number of l values the search scans, cell by cell."""
    total = 0
    for _, n in einstein._spin_cells(m_max, n_max):
        lo, hi = einstein._l_range(mode, n, (g - 1) * (h - 1))
        total += max(0, hi - lo + 1)
    return total


@pytest.mark.parametrize("mode", ["spin", "nonspin"])
def test_search_caps_spare_the_documented_grids(mode):
    # the bench and README grids and g = h = 9 stay well inside both caps
    for g, h in ((3, 3), (3, 7), (7, 7), (9, 9)):
        einstein._check_search_size(mode, g, h, 4, 6)
        assert _scan_size(mode, g, h, 4, 6) * 10 < einstein.SEARCH_SCAN_CAP


@pytest.mark.parametrize("mode", ["spin", "nonspin"])
def test_search_scan_bound_covers_the_scan(mode, monkeypatch):
    for g, h, m_max, n_max in ((3, 3, 4, 6), (5, 7, 3, 5), (9, 3, 2, 2)):
        monkeypatch.setattr(einstein, "SEARCH_SCAN_CAP", _scan_size(mode, g, h, m_max, n_max) - 1)
        with pytest.raises(CapacityError):
            einstein._check_search_size(mode, g, h, m_max, n_max)


def test_search_pairs_are_bounded_only_through_the_scan():
    # 3,399 * 3 = 10,197 (m, n) pairs, but only 3,399 cells (n = 2), each
    # scanning up to l = 7: 23,793 values of l
    einstein._check_search_size("spin", 3, 3, 3400, 3)
    assert _scan_size("spin", 3, 3, 3400, 3) <= 3399 * 7 < einstein.SEARCH_SCAN_CAP


def _no_cells(*_):
    raise AssertionError("the search listed cells or fetched atoms")


def test_search_caps_are_checked_before_any_cell(monkeypatch):
    monkeypatch.setattr(einstein, "SEARCH_SCAN_CAP", 3 * 3 * (2 * 6 + 4 - 3))
    assert collect(search_spin_examples, 3, 3, 4, 6, Fraction(1))[1].hits  # the cap is inclusive
    monkeypatch.setattr(einstein, "_spin_cells", _no_cells)
    monkeypatch.setattr(einstein, "catalog_get", _no_cells)
    # one n more: 3 * 3 cells, each scanning up to l = 15
    with pytest.raises(CapacityError, match=r"up to 135 values of l is over the cap of 117"):
        search_spin_examples(3, 3, 4, 7, Fraction(1), emit=_no_cells)
    with pytest.raises(CapacityError, match=r"up to 153 values of l is over the cap of 117"):
        search_spin_examples(3, 5, 4, 6, Fraction(1), emit=_no_cells)


def test_unbounded_search_exits_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(einstein, "_spin_cells", _no_cells)
    assert cli.main(["search", "--mode", "spin", "--g", "3", "--h", "3",
                     "--mmax", "1000000000", "--nmax", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fourfold: error: a search scanning up to 38999999961 values "
                            "of l is over the cap of 100000\n")


def test_search_without_an_even_n_has_no_cell(capsys):
    # nmax < 2 leaves no cell, so a huge mmax passes the scan cap and the
    # m range must not be walked
    for n_max in (-5, 0, 1):
        assert einstein._spin_cells(10**12, n_max) == []
        assert search_spin_examples(3, 3, 10**12, n_max, Fraction(1), emit=_no_cells) == (
            einstein.SearchOutcome((), ()))
    # 19,999 (m, n) pairs, none with n even: no line, exit 0
    assert cli.main(["search", "--mode", "spin", "--g", "3", "--h", "3",
                     "--mmax", "20000", "--nmax", "1"]) == 0
    assert capsys.readouterr() == ("", "")
    assert einstein._spin_cells(3, 5) == [(2, 2), (2, 4), (3, 2), (3, 4)]


def _paper_scan(mode, g, h, m_max, n_max, c4):
    """Every first-inequality decision of a search, as the paper states the
    two modes: ((m, n, l), (A, B)) for A pi^2 > B scaled by c4 = num/den,
      spin:     l1 >= (2n + G)/3 - 3,      81(2n + G - 3 - l1) pi^2 > 4 G c4
      non-spin: l2 >= (8n + 4G)/3 - 12,    81(8n + 4G - 12 - l2) pi^2 > 16 G c4,
    l running from max(1, the floor) up to 2n + G - 3 or 8n + 4G - 12."""
    big_g = (g - 1) * (h - 1)
    num, den = c4.numerator, c4.denominator
    out = []
    for m in range(2, m_max + 1):
        for n in range(2, n_max + 1, 2):
            if mode == "spin":
                floor, last, rhs = Fraction(2 * n + big_g, 3) - 3, 2 * n + big_g - 3, 4 * big_g
            else:
                floor, last, rhs = (Fraction(8 * n + 4 * big_g, 3) - 12,
                                    8 * n + 4 * big_g - 12, 16 * big_g)
            for l in range(max(1, math.ceil(floor)), last + 1):
                out.append(((m, n, l), (81 * (last - l) * den, rhs * num)))
    return out


def _bisection_bound(mode, g, h, m_max, n_max):
    """Two bisections per cell: at most 2 ceil(log2(last - lo + 2))
    first-inequality decisions in a cell scanning lo..last."""
    total = 0
    for _, n in einstein._spin_cells(m_max, n_max):
        lo, last = einstein._l_range(mode, n, (g - 1) * (h - 1))
        total += 2 * (last - lo + 1).bit_length()
    return total


@pytest.mark.parametrize("mode", ["spin", "nonspin"])
@pytest.mark.parametrize("c4", [Fraction(1), Fraction(7, 3), Fraction(1, 1000), TIE_C4])
def test_merged_scan_poses_each_modes_inequality(mode, c4, monkeypatch):
    """The one w-scaled scan asks only the per-mode questions, all strict,
    at most two bisections' worth per cell; a tuple is a hit exactly when
    the paper's question at its l is answered True, and a tie exactly when
    it is answered None (TIE_C4 with 50 digits of pi^2 makes ties)."""
    in_ght, scan = [], []
    ght_decisions = einstein._ght_decisions

    def pi2_recorded(a, b, strict=True):
        decision = pi2_greater(a, b, strict=strict)
        if not in_ght:
            scan.append(((a, b), strict))
        return decision

    def ght_flagged(*args, **kwargs):
        in_ght.append(True)
        try:
            return ght_decisions(*args, **kwargs)
        finally:
            in_ght.pop()

    monkeypatch.setattr(einstein, "pi2_greater", pi2_recorded)
    # every hit's ght decisions, made by the scan and by each template's ght
    monkeypatch.setattr(einstein, "_ght_decisions", ght_flagged)
    if c4 == TIE_C4:
        monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    search = search_spin_examples if mode == "spin" else search_nonspin_examples
    ties = 0
    for g, h in ((3, 3), (3, 5), (5, 7)):
        scan.clear()
        _, outcome = collect(search, g, h, 3, 4, c4)
        expected = [(key, args, pi2_greater(*args, strict=True))
                    for key, args in _paper_scan(mode, g, h, 3, 4, c4)]
        questions = {args for _, args, _ in expected}
        assert scan and all(args in questions and strict for args, strict in scan)
        assert len(scan) <= _bisection_bound(mode, g, h, 3, 4)
        assert list(outcome.hits) == [key for key, _, decision in expected if decision]
        assert list(outcome.inconclusive) == [
            key for key, _, decision in expected if decision is None]
        ties += len(outcome.inconclusive)
    assert (ties > 0) == (c4 == TIE_C4)


# q/p lands this close to the midpoint of PI2_50 when p = 10^scale: past
# scale 50 the 50-digit enclosure cannot tell which side of pi^2 it is on.
@given(scale=st.integers(45, 60), q_shift=st.integers(-10**6, 10**6),
       offsets=st.lists(st.integers(-10**12, 10**12), min_size=2, max_size=30),
       with_zero=st.booleans())
@settings(max_examples=300, deadline=None)
def test_pi2_decisions_run_true_tie_false_as_p_falls(scale, q_shift, offsets, with_zero):
    """The lemma the search's bisection rests on: for a fixed q > 0, the
    decisions ``pi2_greater(p, q)`` over falling p >= 0 read True...,
    None..., False..., here with ties, the refinement stopped at 50 digits."""
    base = 10 ** scale
    q = math.floor(base * (PI2_50.lo + PI2_50.hi) / 2) + q_shift
    ps = sorted({base + x for x in offsets} | ({0} if with_zero else set()), reverse=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "PI_DIGIT_CAP", 50)
        ranks = [einstein._RANK[pi2_greater(p, q, strict=True)] for p in ps]
    assert ranks == sorted(ranks)


def test_pi2_decisions_take_all_three_values_at_50_digits(monkeypatch):
    monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    base = 10 ** 55
    q = math.floor(base * (PI2_50.lo + PI2_50.hi) / 2)
    assert [pi2_greater(p, q) for p in (base + 10**7, base, base - 10**7, 0)] == [
        True, None, False, False]


_GRID_C4 = (Fraction(1), Fraction(7, 3), Fraction(10**6), TIE_C4)


@pytest.mark.parametrize("mode", ["spin", "nonspin"])
@pytest.mark.parametrize("g, h", [(3, 3), (3, 5), (5, 7), (7, 7), (9, 9)])
def test_bisected_cells_match_the_per_l_scan(mode, g, h, monkeypatch):
    """On a fixed grid the search's hit keys and tie keys are those a scan
    deciding every l gives; TIE_C4 is also run with 50 digits, so ties
    occur."""
    search = search_spin_examples if mode == "spin" else search_nonspin_examples
    noop = lambda hit: None  # noqa: E731
    runs = [(c4, None) for c4 in _GRID_C4] + [(TIE_C4, 50)]
    ties = 0
    for c4, cap in runs:
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(symbolic, "PI_DIGIT_CAP", cap)
            for m_max in (2, 3, 4):
                for n_max in range(1, 8):
                    outcome = search(g, h, m_max, n_max, c4, emit=noop)
                    decided = [(key, pi2_greater(*args))
                               for key, args in _paper_scan(mode, g, h, m_max, n_max, c4)]
                    assert list(outcome.hits) == [key for key, d in decided if d]
                    assert list(outcome.inconclusive) == [
                        key for key, d in decided if d is None]
                    ties += len(outcome.inconclusive)
    # TIE_C4 ties the first inequality at l = w(2n - 3), which is at or
    # past the floor only when 4n >= G; here n <= 6
    assert (ties > 0) == ((g - 1) * (h - 1) <= 24)


def _assert_same_lines(lines, text):
    """The lines join to ``text``, compared line by line, so that a mismatch
    is reported by its first differing line and not by a diff of megabytes."""
    want = text.splitlines(keepends=True)
    assert len(lines) == len(want)
    for line, wanted in zip(lines, want):
        assert line == wanted


@pytest.mark.parametrize("mode", ["spin", "nonspin"])
@pytest.mark.parametrize("g, h", [(3, 3), (3, 5), (5, 7), (7, 7), (9, 9)])
def test_search_lines_match_the_per_hit_oracle(mode, g, h):
    """On the grid of ``test_bisected_cells_match_the_per_l_scan``, ties
    included, the lines the search hands to ``emit`` are byte for byte those
    of the oracle, which builds every hit's own sum and certificates; so
    are the tie keys.  A cell's oracle result does not depend on m_max or
    n_max, so the oracle runs once at the largest and is cut to each cell
    set."""
    search = search_spin_examples if mode == "spin" else search_nonspin_examples
    runs = [(c4, None) for c4 in _GRID_C4] + [(TIE_C4, 50)]
    ties = 0
    for c4, cap in runs:
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(symbolic, "PI_DIGIT_CAP", cap)
            all_hits, all_ties = search_by_sorting(mode, g, h, 4, 7, c4)
            for m_max in (2, 3, 4):
                for n_max in range(1, 8):
                    lines = []
                    outcome = search(g, h, m_max, n_max, c4, emit=lines.append)
                    hits = [hit for hit in all_hits if hit.m <= m_max and hit.n <= n_max]
                    _assert_same_lines(lines, search_lines(mode, hits, []))
                    assert list(outcome.inconclusive) == [
                        key for key in all_ties if key[0] <= m_max and key[1] <= n_max]
                    ties += len(outcome.inconclusive)
    assert (ties > 0) == ((g - 1) * (h - 1) <= 24)


def test_a_second_outcome_shape_gets_its_own_template(monkeypatch):
    """No grid in the tests gives a cell two outcome shapes, so one is
    forced: the Gromov question of one hit answers tie.  That hit's line
    shows the tie, and it and the next hit's line equal the oracle's; the
    cell builds two templates, and the next hit is filled from the first."""
    g = h = 3
    hits, _ = search_by_sorting("spin", g, h, 2, 2, 1)
    at = len(hits) // 2
    forced = hits[at]
    assert at + 1 < len(hits) and forced.certificates[1].premises[2].passed
    cell_sum = connected_sum([catalog_get(f"Gompf({forced.m},{forced.n})"), catalog_get("Y(1)"),
                              catalog_get(f"Sigma({g},{h})"), S1XS3], [1, 1, 1, forced.l])
    # 2592 chi pi^2 >= 16 factor c4, as ght asks it, at c4 = 1
    gromov_q = (2592 * cell_sum.euler(), 16 * forced.sv.factor, False)

    def pi2_tied(p, q, strict=True):
        return None if (p, q, strict) == gromov_q else pi2_greater(p, q, strict=strict)

    monkeypatch.setattr(einstein, "pi2_greater", pi2_tied)
    templates = []
    monkeypatch.setattr(einstein, "_template",
                        lambda line, build=einstein._template: templates.append(line)
                        or build(line))
    lines = []
    search_spin_examples(g, h, 2, 2, Fraction(1), emit=lines.append)
    oracle_hits, _ = search_by_sorting("spin", g, h, 2, 2, 1)
    oracle = search_lines("spin", oracle_hits, []).splitlines(keepends=True)
    assert lines[at:at + 2] == oracle[at:at + 2]
    _assert_same_lines(lines, "".join(oracle))
    assert json.loads(lines[at])["certificates"][1]["premises"][2] == {
        "pass": False, "text": "Gromov: chi >= (upper sv end)/(2592 pi^2)",
        "witness": "2592*chi*pi^2 >= 16*factor*c4: tie (enclosure too coarse)"}
    assert templates == [lines[0], lines[at]] and at > 0


@pytest.mark.parametrize("mode", ["spin", "nonspin"])
def test_l_range_is_the_papers_range(mode):
    for big_g in (0, 1, 4, 8, 24, 36, 100):
        for n in range(0, 13):
            if mode == "spin":
                floor, last = Fraction(2 * n + big_g, 3) - 3, 2 * n + big_g - 3
            else:
                floor, last = Fraction(8 * n + 4 * big_g, 3) - 12, 8 * n + 4 * big_g - 12
            assert einstein._l_range(mode, n, big_g) == (max(1, math.ceil(floor)), last)
