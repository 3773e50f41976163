from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fourfold.symbolic import (
    COARSE_PI2,
    DEFAULT_PI2,
    PI2_HI,
    PI2_LO,
    PI_HI,
    PI_LO,
    SymbolicValue,
    pi2_greater,
    squarefree_decompose,
)

from oracles import pi2_greater_by_division


def test_pi_enclosures_against_mpmath():
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 70
    pi2 = mp.pi**2
    assert mp.mpf(PI2_LO.numerator) / mp.mpf(PI2_LO.denominator) < pi2
    assert pi2 < mp.mpf(PI2_HI.numerator) / mp.mpf(PI2_HI.denominator)
    assert mp.mpf(PI_LO.numerator) / mp.mpf(PI_LO.denominator) < mp.pi
    assert mp.pi < mp.mpf(PI_HI.numerator) / mp.mpf(PI_HI.denominator)
    assert mp.mpf(COARSE_PI2.lo.numerator) / mp.mpf(COARSE_PI2.lo.denominator) < pi2
    assert pi2 < mp.mpf(COARSE_PI2.hi.numerator) / mp.mpf(COARSE_PI2.hi.denominator)


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


def test_addition_same_family_and_zero():
    a = SymbolicValue(3, 2)
    b = SymbolicValue(Fraction(1, 2), 2)
    assert (a + b) == SymbolicValue(Fraction(7, 2), 2)
    assert (a + SymbolicValue(0)) == a
    with pytest.raises(ValueError):
        a + SymbolicValue(1, 1)


def test_multiplication_and_squared():
    y = SymbolicValue(-32, pi_power=1, radicand=2)
    assert y.squared() == SymbolicValue(2048, pi_power=2)
    with pytest.raises(ValueError):
        SymbolicValue(1, 2) * SymbolicValue(1, 1)


def test_scale_and_abs():
    y = SymbolicValue(-32, 1, 2)
    assert y.scale(Fraction(2, 3)) == SymbolicValue(Fraction(-64, 3), 1, 2)
    assert abs(y) == SymbolicValue(32, 1, 2)


def test_infinities():
    inf = SymbolicValue.plus_infinity()
    ninf = SymbolicValue.minus_infinity()
    assert inf.is_infinite and inf.sign() == 1
    assert inf > SymbolicValue(10**9, 2)
    assert ninf < SymbolicValue(-(10**9), 2)
    assert inf.scale(-2) == ninf
    with pytest.raises(ValueError):
        inf + ninf


def test_comparison_across_families():
    # 32 pi sqrt2 ~ 142.2 < 2048 pi^2 ~ 20213
    assert SymbolicValue(32, 1, 2) < SymbolicValue(2048, 2)
    assert SymbolicValue(-1, 2) < SymbolicValue(1, 1)
    assert SymbolicValue(10, 0) > SymbolicValue(3, 1)  # 10 > 3 pi ~ 9.42
    assert SymbolicValue(9, 0) < SymbolicValue(3, 1)


def test_comparison_same_family():
    assert SymbolicValue(3, 1, 2) > SymbolicValue(2, 1, 2)
    assert SymbolicValue(-3, 1, 2) < SymbolicValue(-2, 1, 2)


def test_json_round_trip():
    for v in (SymbolicValue(Fraction(7, 3), 2), SymbolicValue(-32, 1, 2),
              SymbolicValue(0), SymbolicValue.plus_infinity()):
        assert SymbolicValue.from_json(v.to_json()) == v


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
    res = pi2_greater(a, b, strict=True, enclosure=DEFAULT_PI2)
    if res is not None:
        import math
        approx = float(a) * math.pi**2 > float(b)
        # float comparison agrees except vanishingly near the boundary
        if abs(float(a) * math.pi**2 - float(b)) > 1e-9:
            assert res == approx


def test_pi2_greater_zero_coefficient():
    assert pi2_greater(0, -1) is True
    assert pi2_greater(0, 0, strict=True) is False
    assert pi2_greater(0, 0, strict=False) is True


def test_pi2_greater_tie_is_none():
    mid = (DEFAULT_PI2.lo + DEFAULT_PI2.hi) / 2
    assert pi2_greater(1, mid) is None
    assert pi2_greater(-1, -mid) is None


# -- the integer cross-multiplication against the division-based oracle ------

_ENCLOSURES = st.sampled_from([DEFAULT_PI2, COARSE_PI2])
_RATIONALS = st.one_of(
    st.integers(min_value=-(10**60), max_value=10**60),
    st.fractions(),
    st.builds(Fraction, st.integers(min_value=-(10**40), max_value=10**40),
              st.integers(min_value=1, max_value=10**40)),
)


@given(_RATIONALS, _RATIONALS, st.booleans(), _ENCLOSURES)
def test_pi2_greater_matches_division_oracle(a, b, strict, enclosure):
    expected = pi2_greater_by_division(a, b, strict, enclosure)
    assert pi2_greater(a, b, strict, enclosure) is expected
    assert pi2_greater(0, b, strict, enclosure) is pi2_greater_by_division(
        0, b, strict, enclosure)


@given(_RATIONALS, st.sampled_from(["lo", "hi", "mid"]), st.sampled_from([-1, 0, 1]),
       st.integers(min_value=0, max_value=70), st.booleans(), _ENCLOSURES)
def test_pi2_greater_matches_division_oracle_near_ties(a, end, sign, k, strict,
                                                       enclosure):
    x = {"lo": enclosure.lo, "hi": enclosure.hi,
         "mid": (enclosure.lo + enclosure.hi) / 2}[end]
    b = a * x * (1 + sign * Fraction(1, 10**k))
    expected = pi2_greater_by_division(a, b, strict, enclosure)
    assert pi2_greater(a, b, strict, enclosure) is expected
    if b.denominator == 1:
        assert pi2_greater(a, int(b), strict, enclosure) is expected


def test_pi2_greater_converts_other_inputs():
    for a, b in (("1", "9.86"), ("-1", "-9.87"), (1.5, 14.8), (Decimal("2"), 20),
                 ("0", "0"), (0.0, -1)):
        for strict in (True, False):
            assert pi2_greater(a, b, strict) is pi2_greater_by_division(a, b, strict)
    assert pi2_greater("1", "9.86") is True
