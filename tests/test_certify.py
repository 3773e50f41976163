import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fourfold.catalog import catalog_get
from fourfold.certify import (
    Certificate,
    Premise,
    Verdict,
    check_bauer,
    check_taubes,
    check_theorem_A,
    check_theorem_B,
    moduli_dimension,
)
from fourfold.errors import NonIntegralError, PremiseError
from fourfold.model import CharData, Flag, Manifold, Parity, SpinCStructure
from fourfold.surgery import connected_sum

from oracles import (
    all_sign_spinc,
    classify_c1_zero_types,
    conjugate,
    dense_first_odd,
    dirac_index,
    parity_equivalence,
    s_matrix,
)

K3 = catalog_get("K3")
T4 = catalog_get("T4")
KODAIRA = catalog_get("Kodaira")
SIGMA33 = catalog_get("Sigma(3,3)")
SIGMA11 = catalog_get("Sigma(1,1)")


def _fake(b1, b_plus, c1_squared, d):
    """Admissible synthetic manifold with prescribed (b1, b+, c1^2, d), or
    None when no nonnegative b- realizes it."""
    # choose b- so that c1^2 - 2chi - 3tau = 4d
    # 2chi + 3tau = 4 - 4b1 + 5b+ - b-  =>  b- = 4 - 4b1 + 5b+ - (c1^2 - 4d)
    b_minus = 4 - 4 * b1 + 5 * b_plus - (c1_squared - 4 * d)
    if b_minus < 0:
        return None
    char = CharData(b1=b1, b_plus=b_plus, b_minus=b_minus, is_spin=False,
                    is_simply_connected=(b1 == 0))
    g = SpinCStructure(c1=None, c1_squared=c1_squared, s_size=b1)
    return Manifold(name="synthetic", char=char, spinc_structures=(g,))


def test_moduli_dimension_examples():
    assert moduli_dimension(K3, K3.canonical_spinc) == 0
    triple = connected_sum([KODAIRA] * 3)
    assert moduli_dimension(triple, triple.canonical_spinc) == 2
    bad = replace(K3.canonical_spinc, c1=None, c1_squared=7)
    with pytest.raises(NonIntegralError):
        moduli_dimension(K3, bad)


def test_dirac_index_examples():
    assert dirac_index(K3, K3.canonical_spinc) == 2
    assert dirac_index(T4, T4.canonical_spinc) == 0
    g21 = catalog_get("Gompf(2,1)")
    assert dirac_index(g21, g21.canonical_spinc) == 5
    bad = replace(K3.canonical_spinc, c1=None, c1_squared=4)
    with pytest.raises(NonIntegralError):
        dirac_index(K3, bad)


def test_parity_equivalence_examples():
    assert parity_equivalence(K3, K3.canonical_spinc) == (True, True)
    assert parity_equivalence(KODAIRA, KODAIRA.canonical_spinc) == (True, True)
    cp2_like = _fake(b1=0, b_plus=1, c1_squared=9, d=0)
    assert cp2_like is not None
    assert parity_equivalence(cp2_like, cp2_like.canonical_spinc) == (False, False)


def test_parity_lemma_randomized():
    rng = random.Random(20240811)
    checked = 0
    while checked < 10_000:
        b1 = rng.randint(0, 6)
        b_plus = rng.randint(0, 12)
        d = rng.randint(0, 10)
        if (d + b_plus - b1) % 2 == 0:
            continue  # the Dirac index would not be an integer
        c1_squared = rng.randint(-8, 8) * 4 + 4 * d  # keep b- manageable
        m = _fake(b1, b_plus, c1_squared, d)
        if m is None:
            continue
        index_even, dim_cond = parity_equivalence(m, m.canonical_spinc)
        assert index_even == dim_cond
        checked += 1


@given(st.integers(0, 8), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=300)
def test_parity_lemma_property(b1, b_plus, d):
    if (d + b_plus - b1) % 2 == 0:
        return
    m = _fake(b1, b_plus, 4 * d, d)
    if m is None:
        return
    index_even, dim_cond = parity_equivalence(m, m.canonical_spinc)
    assert index_even == dim_cond


def test_condition_star():
    # The spin condition on the cut-down moduli space: even Dirac index and
    # no odd half-triple-product.
    for m in (SIGMA33, T4):
        g = m.canonical_spinc
        assert dirac_index(m, g) % 2 == 0 and dense_first_odd(s_matrix(g)) is None
        assert g.s_matrix_even()
    bad = replace(T4.canonical_spinc, s_entries=((0, 1, 1),))
    assert dirac_index(T4, bad) % 2 == 0 and dense_first_odd(s_matrix(bad)) == (0, 1)
    assert not bad.s_matrix_even()


def test_theorem_a_examples():
    assert check_theorem_A([SIGMA11, SIGMA11]).verdict is Verdict.NONVANISHING
    assert check_theorem_A([K3, K3, KODAIRA]).verdict is Verdict.NONVANISHING
    with pytest.raises(PremiseError):
        check_theorem_A([K3, K3, K3, K3])
    with pytest.raises(PremiseError):
        check_theorem_A([K3])
    # CP2 fails b+ > 1
    cert = check_theorem_A([catalog_get("CP2"), K3])
    assert cert.verdict is Verdict.INCONCLUSIVE


def _conjugated(part):
    """The part with its canonical structure replaced by the conjugate."""
    g, *rest = part.spinc_structures
    return replace(part, spinc_structures=(conjugate(g), *rest))


def test_theorem_a_invariance():
    # Permuting the parts, or conjugating any of their canonical structures
    # (a sign -1 in the spin-c sign vector), keeps every premise's outcome,
    # so the all-plus vector the certificate records stands for all of them.
    parts = [SIGMA33, K3, KODAIRA]
    outcomes = set()
    for perm in itertools.permutations(parts):
        for signs in itertools.product((1, -1), repeat=3):
            signed = [p if s == 1 else _conjugated(p) for p, s in zip(perm, signs)]
            cert = check_theorem_A(signed)
            assert cert.premises[-1].witness.endswith("sign choice (1, 1, 1)")
            outcomes.add((cert.verdict, tuple(p.passed for p in cert.premises)))
    assert outcomes == {(Verdict.NONVANISHING, (True,) * 16)}


def test_theorem_a_records_spin_cobordism():
    cert = check_theorem_A([K3, K3])
    line = [p for p in cert.premises if "spin cobordism" in p.text]
    assert len(line) == 1 and line[0].passed
    assert "d = n - 1 = 1" in line[0].witness


def test_bauer_examples():
    assert check_bauer(connected_sum([K3, K3])).verdict is Verdict.NONVANISHING
    # 4 copies of K3: b+(X) = 12 = 4 (mod 8)
    assert check_bauer(connected_sum([K3] * 4)).verdict is Verdict.NONVANISHING
    assert check_bauer(connected_sum([K3] * 5)).verdict is Verdict.INCONCLUSIVE
    # b1 != 0 is outside Bauer's hypotheses but fine for the b1 > 0 theorem
    mixed = [KODAIRA, K3]
    assert check_bauer(connected_sum(mixed)).verdict is Verdict.INCONCLUSIVE
    assert check_theorem_A(mixed).verdict is Verdict.NONVANISHING
    with pytest.raises(PremiseError):
        check_bauer(connected_sum([K3]))


def test_bauer_mod8_is_computed():
    # three K3's: n = 3 < 4 so no mod-8 clause; five K3's fail n = 4
    cert = check_bauer(connected_sum([K3] * 4))
    mod8 = [p for p in cert.premises if "mod 8" in p.text]
    assert len(mod8) == 1 and mod8[0].passed
    assert "12" in mod8[0].witness


def test_theorem_b_examples():
    assert check_theorem_B(
        [catalog_get("Sigma(3,5)"), KODAIRA]).verdict is Verdict.NONVANISHING
    assert check_theorem_B(
        [K3, catalog_get("Gompf(2,2)")]).verdict is Verdict.NONVANISHING
    cert = check_theorem_B([catalog_get("CP2"), K3])
    assert cert.verdict is Verdict.INCONCLUSIVE
    with pytest.raises(PremiseError):
        check_theorem_B([K3])


def test_bauer_two_parts_implies_theorem_a():
    # When Bauer's n = 2,3 premises hold, the b1 > 0 certificate passes too.
    for parts in ([K3, K3], [K3, catalog_get("Gompf(2,2)")],
                  [K3, K3, catalog_get("Y(2)")]):
        if check_bauer(connected_sum(parts)).verdict is Verdict.NONVANISHING:
            assert check_theorem_A(parts).verdict is Verdict.NONVANISHING


def test_nonvanishing_moduli_dimension_link():
    # Nonvanishing certificate => moduli dimension of the summed structure
    # is n - 1, for every sign choice.
    for parts in ([K3, K3], [SIGMA33, K3, KODAIRA]):
        cert = check_theorem_A(parts)
        assert cert.verdict is Verdict.NONVANISHING
        s = connected_sum(parts)
        for _, g in all_sign_spinc(s):
            assert moduli_dimension(s, g) == len(parts) - 1


def test_moduli_dimension_sum_rule_any_almost_complex():
    # d = n - 1 for canonical structures on sums of almost complex pieces,
    # with or without the non-vanishing premises
    cp2 = catalog_get("CP2")
    s = connected_sum([cp2, cp2])
    for _, g in all_sign_spinc(s):
        assert moduli_dimension(s, g) == 1


def test_taubes_single():
    assert check_taubes(SIGMA33).verdict is Verdict.NONVANISHING
    assert check_taubes(catalog_get("CP2")).verdict is Verdict.INCONCLUSIVE


def test_classify_c1_zero_types():
    triples = classify_c1_zero_types()
    assert len(triples) == 3
    assert set(triples) == {(2, 3, 0), (3, 4, 0), (3, 0, -16)}
    # catalog witnesses for each class
    assert (KODAIRA.char.b_plus, KODAIRA.char.b1, KODAIRA.signature()) == (2, 3, 0)
    assert (T4.char.b_plus, T4.char.b1, T4.signature()) == (3, 4, 0)
    assert (K3.char.b_plus, K3.char.b1, K3.signature()) == (3, 0, -16)


def test_certificate_invariant_enforced():
    with pytest.raises(ValueError):
        Certificate(theorem_id="x",
                    premises=(Premise("p", False),),
                    verdict=Verdict.NONVANISHING, citation="c")
    with pytest.raises(ValueError):
        Certificate(theorem_id="x",
                    premises=(Premise("p", False),),
                    verdict=Verdict.OBSTRUCTED, citation="c")


def test_certificate_json():
    cert = check_theorem_A([K3, K3])
    doc = cert.to_json()
    assert doc["verdict"] == "Nonvanishing"
    assert all(set(p) == {"text", "pass", "witness"} for p in doc["premises"])


def _without(flag):
    return lambda part: replace(part, flags=part.flags - {flag})


def _char(**fields):
    return lambda part: replace(part, char=replace(part.char, **fields))


def _spinc(**fields):
    def mutate(part):
        g, *rest = part.spinc_structures
        return replace(part, spinc_structures=(replace(g, **fields), *rest))
    return mutate


def _taubes(parts):
    return check_taubes(parts[0])


def _bauer_of_sum(parts):
    return check_bauer(connected_sum(parts))


GOMPF22 = catalog_get("Gompf(2,2)")

# (certificate, parts it certifies, index of the part to break, the breaking
# change, the premise that then fails)
_ONE_PREMISE_BROKEN = [
    (check_theorem_A, [K3, K3, KODAIRA], 0, _without(Flag.ALMOST_COMPLEX),
     "part 1 (K3): almost complex"),
    (check_theorem_A, [K3, K3, KODAIRA], 1, _char(b_plus=1, b1=2), "part 2 (K3): b+ > 1"),
    (check_theorem_A, [K3, K3, KODAIRA], 0, _char(b_plus=5),
     "part 1 (K3): b+ - b1 = 3 (mod 4)"),
    (check_theorem_A, [K3, K3, KODAIRA], 1, lambda part: replace(part, spinc_structures=()),
     "part 2 (K3): canonical spin-c structure present"),
    (check_theorem_A, [K3, K3, KODAIRA], 2, _spinc(sw_parity=Parity.UNKNOWN),
     "part 3 (Kodaira): SW parity of the canonical structure is odd"),
    (check_theorem_A, [K3, K3, KODAIRA], 2, _spinc(s_entries=((0, 1, 1),)),
     "part 3 (Kodaira): half-triple-product matrix is even"),
    (check_theorem_B, [K3, GOMPF22], 0, _without(Flag.ALMOST_COMPLEX), "part 1 (K3): "),
    (check_theorem_B, [K3, GOMPF22], 1, _spinc(sw_parity=Parity.UNKNOWN),
     "part 2 (Gompf(2,2)): "),
    # the sum lists atoms by (name, b1, b+, b-): a K3 broken in b1 or b+ comes second
    (check_bauer, [K3, K3], 0, _char(b1=4), "part 2 (K3): b1 = 0"),
    (check_bauer, [K3, K3], 1, _without(Flag.ALMOST_COMPLEX), "part 2 (K3): almost complex"),
    (check_bauer, [K3, K3], 0, _char(b_plus=5), "part 2 (K3): b+ = 3 (mod 4)"),
    (check_bauer, [K3, K3], 1, _spinc(sw_parity=Parity.UNKNOWN), "part 2 (K3): SW parity odd"),
    (check_bauer, [K3] * 4, 3, _char(b_plus=7), "b+(X) = 4 (mod 8)"),
    (_taubes, [K3], 0, _without(Flag.SYMPLECTIC), "symplectic"),
    (_taubes, [K3], 0, _char(b_plus=1), "b+ > 1"),
    (_taubes, [K3], 0, _spinc(sw_parity=Parity.UNKNOWN), "canonical SW parity odd"),
]


@pytest.mark.parametrize("check, parts, index, breaking, broken", _ONE_PREMISE_BROKEN)
def test_one_failed_premise_makes_a_certificate_inconclusive(check, parts, index, breaking,
                                                             broken):
    """theorem-a, theorem-b, bauer and taubes share one verdict rule:
    Nonvanishing when every premise passed, otherwise Inconclusive."""
    if check is check_bauer:  # bauer reads the sum of the parts
        check = _bauer_of_sum
    whole = check(parts)
    assert whole.verdict is Verdict.NONVANISHING
    assert all(p.passed for p in whole.premises)
    changed = list(parts)
    changed[index] = breaking(parts[index])
    cert = check(changed)
    assert cert.verdict is Verdict.INCONCLUSIVE
    # theorem-a's spin cobordism premise passes only when every other one does
    failed = [p.text for p in cert.premises if not p.passed and "spin cobordism" not in p.text]
    assert len(failed) == 1 and failed[0].startswith(broken), failed
    assert all(not p.passed for p in cert.premises if "spin cobordism" in p.text)


def test_bauer_past_four_parts_reads_counts_only():
    # n >= 5 fails n = 4 whatever the parts are, and only the count and
    # b+(X) are reported, for a sum of copies and a sum with a count alike
    five = [K3] * 4 + [_char(b_plus=8)(K3)]  # b+(X) = 20 = 4 (mod 8)
    cert = check_bauer(connected_sum(five))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert [(p.text, p.passed, p.witness) for p in cert.premises] == [
        ("n = 4", False, "n = 5"), ("b+(X) = 4 (mod 8)", True, "b+(X) = 20")]
    assert check_bauer(connected_sum([K3], counts=[5])) == check_bauer(connected_sum([K3] * 5))
    for n in (2, 3, 4):
        assert (check_bauer(connected_sum([K3], counts=[n]))
                == check_bauer(connected_sum([K3] * n)))
    with pytest.raises(PremiseError):
        check_bauer(K3)
