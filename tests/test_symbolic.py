import math
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from fourfold import symbolic
from fourfold.errors import CapacityError
from fourfold.symbolic import (
    PI_DIGIT_CAP,
    RADICAND_CAP,
    SymbolicValue,
    pi2_bounds,
    pi2_greater,
    squarefree_decompose,
)

from oracles import (
    ENCLOSURES,
    PI2_50,
    PI2_COARSE,
    mpmath_pi2_enclosure,
    pi2_greater_by_division,
)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _scaled(a, b) -> tuple[int, int]:
    """(p, q) with p*pi^2 > q exactly when a*pi^2 > b, for rationals a and b:
    both sides times the positive denominators of a and b."""
    a, b = Fraction(a), Fraction(b)
    return a.numerator * b.denominator, b.numerator * a.denominator


def _digit_counts():
    d = 50
    while d < PI_DIGIT_CAP:
        yield d
        d = min(2 * d, PI_DIGIT_CAP)
    yield PI_DIGIT_CAP


def test_pi_enclosures_against_mpmath():
    with mpmath.workdps(1200):
        pi2 = mpmath.pi ** 2
        for lo, hi in (PI2_50, PI2_COARSE, mpmath_pi2_enclosure()):
            assert _mpf(lo) < pi2 < _mpf(hi)
    # at 50 digits the library's enclosure is the fixed 50-digit one
    assert pi2_bounds(50) == PI2_50


def test_pi_bounds_against_mpmath():
    counts = list(_digit_counts())
    assert counts[0] == 50 and counts[-1] == PI_DIGIT_CAP == 12_800
    with mpmath.workdps(PI_DIGIT_CAP + 30):
        pi2 = mpmath.pi ** 2
        for d in counts:
            lo, hi = pi2_bounds(d)
            assert _mpf(lo) < pi2 < _mpf(hi), d
            assert 0 < hi - lo <= Fraction(2, 10**d), d


def test_canonicalization_absorbs_squares():
    v = SymbolicValue(-4, pi_power=1, radicand=128)
    assert v.q == Fraction(-32)
    assert v.radicand == 2
    assert str(v) == "-32*pi*sqrt(2)"


def test_canonicalization_zero():
    assert SymbolicValue(0, pi_power=2, radicand=7) == SymbolicValue(0)
    assert SymbolicValue(5, pi_power=1, radicand=0) == SymbolicValue(0)
    assert str(SymbolicValue(0)) == "0"


@given(st.integers(min_value=0, max_value=100000))
def test_squarefree_decompose(s):
    c, r = squarefree_decompose(s)
    assert c * c * r == s
    if r > 1:
        for p in range(2, int(r**0.5) + 1):
            assert r % (p * p) != 0


def test_squarefree_decompose_stops_at_the_radicand_cap():
    assert squarefree_decompose(RADICAND_CAP) == (10**6, 1)
    for s in (RADICAND_CAP + 1, 10**40):
        with pytest.raises(CapacityError, match=f"RADICAND_CAP = {RADICAND_CAP}$"):
            squarefree_decompose(s)


def test_the_constructor_refuses_what_no_value_has():
    # a negative radicand is refused before squarefree_decompose sees it
    with pytest.raises(ValueError, match="^pi_power must be 0, 1 or 2$"):
        SymbolicValue(1, 3)
    with pytest.raises(ValueError, match="^radicand must be a nonnegative integer$"):
        SymbolicValue(1, 0, -1)


def test_approx_past_the_float_range_is_infinite():
    assert SymbolicValue(10**400, pi_power=1).approx() == math.inf
    assert SymbolicValue(-(10**400), radicand=2).approx() == -math.inf
    assert SymbolicValue(Fraction(1, 10**400), pi_power=2).approx() == 0.0


def test_scale():
    y = SymbolicValue(-32, 1, 2)
    assert y.scale(Fraction(2, 3)) == SymbolicValue(Fraction(-64, 3), 1, 2)
    assert y.scale(Fraction(0)) == SymbolicValue(0)


def test_infinities():
    inf = SymbolicValue.plus_infinity()
    assert inf.inf and inf == SymbolicValue.plus_infinity()
    assert inf != SymbolicValue(0)
    assert str(inf) == "+inf" and inf.approx() == math.inf
    assert inf.to_json() == {"inf": "+"}


@given(st.fractions(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=500),
       st.one_of(st.just(Fraction(0)), st.integers(-10, 10).map(Fraction),
                 st.fractions(max_denominator=50)))
def test_scale_matches_the_constructor(q, p, s, c):
    v = SymbolicValue(q, p, s)
    assert v.scale(c) == SymbolicValue(v.q * c, v.pi_power, v.radicand)


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-2), Fraction(0), Fraction(2, 3)],
                         ids=["2", "-2", "0", "c3"])
def test_scale_refuses_an_infinity(c):
    with pytest.raises(ValueError, match="cannot scale an infinity"):
        SymbolicValue.plus_infinity().scale(c)


def test_json_round_trip():
    for v in (SymbolicValue(Fraction(7, 3), 2), SymbolicValue(-32, 1, 2),
              SymbolicValue(0), SymbolicValue.plus_infinity()):
        doc = v.to_json()
        back = (SymbolicValue.plus_infinity() if doc == {"inf": "+"} else
                SymbolicValue(Fraction(doc["q"]), doc["pi_power"], doc["radicand"]))
        assert back == v


@given(st.fractions(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=500))
def test_canonical_form_invariants(q, p, s):
    v = SymbolicValue(q, p, s)
    if v.q == 0:
        assert v.pi_power == 0 and v.radicand == 1
    else:
        _, r = squarefree_decompose(v.radicand)
        assert r == v.radicand  # squarefree


@given(st.fractions(min_value=-50, max_value=50),
       st.fractions(min_value=-50, max_value=50))
def test_pi2_greater_decides_correctly(a, b):
    res = pi2_greater(*_scaled(a, b), strict=True)
    assert res is not None
    import math
    approx = float(a) * math.pi**2 > float(b)
    # float comparison agrees except vanishingly near the boundary
    if abs(float(a) * math.pi**2 - float(b)) > 1e-9:
        assert res == approx


def test_pi2_greater_zero_coefficient():
    assert pi2_greater(0, -1) is True
    assert pi2_greater(0, 0, strict=True) is False
    assert pi2_greater(0, 0, strict=False) is True


def test_pi2_greater_tie_is_none(monkeypatch):
    mid = (PI2_50.lo + PI2_50.hi) / 2
    # 50 digits do not separate the midpoint from pi^2; more digits do
    assert pi2_greater(*_scaled(1, mid)) is False
    assert pi2_greater(*_scaled(-1, -mid)) is True
    assert pi2_greater_by_division(1, mid, True, mpmath_pi2_enclosure()) is False
    monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    assert pi2_greater(*_scaled(1, mid)) is None
    assert pi2_greater(*_scaled(-1, -mid)) is None


def test_pi2_greater_at_the_digit_cap_is_none_and_quick():
    with mpmath.workdps(PI_DIGIT_CAP + 60):
        near = int(mpmath.floor(mpmath.pi ** 2 * mpmath.mpf(10) ** (PI_DIGIT_CAP + 20)))
    b = Fraction(near, 10 ** (PI_DIGIT_CAP + 20))
    pi2_bounds.cache_clear()  # the time includes building every enclosure
    start = time.perf_counter()
    assert pi2_greater(*_scaled(1, b)) is None
    assert pi2_greater(*_scaled(-1, -b)) is None
    assert time.perf_counter() - start < 2.0


# -- the integer cross-multiplication against the division-based oracle ------

_ENCLOSURES = st.sampled_from(ENCLOSURES)
_RATIONALS = st.one_of(
    st.integers(min_value=-(10**60), max_value=10**60),
    st.fractions(),
    st.builds(Fraction, st.integers(min_value=-(10**40), max_value=10**40),
              st.integers(min_value=1, max_value=10**40)),
)


def _assert_matches_oracle(a, b, strict, enclosure):
    """pi2_greater agrees with the division oracle over ``enclosure`` where
    that decides, and with it over 1,100 mpmath digits where it ties; with
    the digit cap at 50 it agrees with it over PI2_50, ties included."""
    expected = pi2_greater_by_division(a, b, strict, enclosure)
    if expected is None:
        expected = pi2_greater_by_division(a, b, strict, mpmath_pi2_enclosure())
        assert expected is not None
    assert pi2_greater(*_scaled(a, b), strict) is expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "PI_DIGIT_CAP", 50)
        assert (pi2_greater(*_scaled(a, b), strict)
                is pi2_greater_by_division(a, b, strict, PI2_50))
    return expected


@given(_RATIONALS, _RATIONALS, st.booleans(), _ENCLOSURES)
def test_pi2_greater_matches_division_oracle(a, b, strict, enclosure):
    _assert_matches_oracle(a, b, strict, enclosure)
    _assert_matches_oracle(0, b, strict, enclosure)


@given(_RATIONALS, st.sampled_from(["lo", "hi", "mid"]), st.sampled_from([-1, 0, 1]),
       st.integers(min_value=0, max_value=70), st.booleans(), _ENCLOSURES)
def test_pi2_greater_matches_division_oracle_near_ties(a, end, sign, k, strict,
                                                       enclosure):
    x = {"lo": enclosure.lo, "hi": enclosure.hi,
         "mid": (enclosure.lo + enclosure.hi) / 2}[end]
    b = a * x * (1 + sign * Fraction(1, 10**k))
    expected = _assert_matches_oracle(a, b, strict, enclosure)
    if b.denominator == 1:
        assert pi2_greater(*_scaled(a, int(b)), strict) is expected


def _near(digits: int, j: int) -> Fraction:
    """pi^2 truncated to ``digits + 1`` places, moved by j units there: a
    rational within 10^-digits of pi^2 for |j| <= 8."""
    lo = mpmath_pi2_enclosure().lo
    scale = 10 ** (digits + 1)
    return Fraction(lo.numerator * scale // lo.denominator + j, scale)


@given(st.fractions(max_denominator=10**12).filter(bool), st.integers(0, 500),
       st.integers(-8, 8), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pi2_greater_near_pi2_matches_mpmath(a, k, j, strict):
    b = a * _near(k, j)
    expected = pi2_greater_by_division(a, b, strict, mpmath_pi2_enclosure())
    assert expected is not None
    assert pi2_greater(*_scaled(a, b), strict) is expected
    assert pi2_greater(*_scaled(-a, -b), strict) is not expected


def test_pi2_greater_decides_other_inputs_scaled_to_integers():
    for a, b in (("1", "9.86"), ("-1", "-9.87"), (1.5, 14.8), (Decimal("2"), 20),
                 ("0", "0"), (0.0, -1)):
        for strict in (True, False):
            assert pi2_greater(*_scaled(a, b), strict) is pi2_greater_by_division(a, b, strict)
    assert pi2_greater(*_scaled("1", "9.86")) is True
