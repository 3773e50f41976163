"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is an exact integer, rational, or symbolic-value identity;
the only tolerance anywhere is the analytic mesh bound of the brute-force
beta^2 oracle, which is itself an exact rational.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
from fractions import Fraction

import pytest

from fourfold.catalog import catalog_get
from fourfold.certify import (
    Verdict,
    check_bauer,
    check_theorem_A,
    check_theorem_B,
    moduli_dimension,
)
from fourfold.einstein import (
    einstein_obstruction,
    hitchin_thorpe,
    search_spin_examples,
)
from fourfold.errors import PremiseError
from fourfold.model import CharData, Manifold, SpinCStructure
from fourfold.monopole import (
    MonopoleClassSet,
    beta_squared_with_witness,
    invariant_Ir,
    invariant_Is_Y_K,
    lambda_bar_k,
)
from fourfold.parser import parse
from fourfold.surgery import connected_sum, split_blowdown
from fourfold.symbolic import SymbolicValue

from oracles import (
    all_sign_spinc,
    beta_squared_faces,
    box_mesh_max,
    box_mesh_sample_max,
    classify_c1_zero_types,
    mesh_error_bound,
    parity_equivalence,
    sign_orbit,
    spin_tuple_certified,
    to_text,
)
import test_parser as parser_corpus
from test_einstein import assert_cell_order_independent, collect


def _report(num: int, description: str):
    def decorator(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:>2} FAIL {description}")
                raise
            print(f"ACCEPTANCE {num:>2} PASS {description}")
        wrapper.__name__ = fn.__name__
        return wrapper
    return decorator


@_report(1, "catalog fidelity and the c1 = 0 classification")
def test_criterion_1_catalog_fidelity():
    k3 = catalog_get("K3")
    assert (k3.char.b_plus, k3.char.b1, k3.signature()) == (3, 0, -16)
    for name in ("T4", "Sigma(1,1)"):
        m = catalog_get(name)
        assert (m.char.b_plus, m.char.b1, m.signature()) == (3, 4, 0)
    kod = catalog_get("Kodaira")
    assert (kod.char.b_plus, kod.char.b1, kod.signature()) == (2, 3, 0)
    triples = classify_c1_zero_types()
    assert len(triples) == 3
    assert set(triples) == {(2, 3, 0), (3, 4, 0), (3, 0, -16)}


@_report(2, "Gompf family characteristic identities on 20 random (a,b)")
def test_criterion_2_gompf_family():
    rng = random.Random(1729)
    for _ in range(20):
        alpha, beta = rng.randint(2, 60), rng.randint(0, 60)
        m = catalog_get(f"Gompf({alpha},{beta})")
        assert m.euler() == 24 * alpha + 4 * beta
        assert m.signature() == -16 * alpha
        assert m.two_chi_plus_3tau() == 8 * beta
        assert 2 * m.euler() - 3 * m.signature() == 8 * (12 * alpha + beta)
        assert m.char.b_plus == 4 * alpha + 2 * beta - 1


@_report(3, "moduli dimension 0 on catalog blocks, n-1 on sums, all signs")
def test_criterion_3_moduli_dimensions():
    almost_complex = ["CP2", "K3", "T4", "Kodaira", "S1xS3", "Sigma(1,1)",
                      "Sigma(3,3)", "Sigma(3,5)", "Y(1)", "Y(4)",
                      "Gompf(2,0)", "Gompf(2,1)", "Gompf(5,7)"]
    for name in almost_complex:
        m = catalog_get(name)
        assert moduli_dimension(m, m.canonical_spinc) == 0, name
    combos = [
        ["K3", "K3"], ["Sigma(1,1)", "Sigma(1,1)"], ["Sigma(3,3)", "K3"],
        ["Kodaira", "Kodaira", "Kodaira"], ["K3", "K3", "Kodaira"],
        ["Sigma(3,3)", "Sigma(3,5)", "Y(2)"],
    ]
    for names in combos:
        parts = [catalog_get(n) for n in names]
        n = len(parts)
        assert check_theorem_A(parts).verdict is Verdict.NONVANISHING
        s = connected_sum(parts)
        signs_seen = 0
        for _, g in all_sign_spinc(s):
            assert moduli_dimension(s, g) == n - 1
            signs_seen += 1
        assert signs_seen == 2 ** n


@_report(4, "index parity <=> dimension condition on 10^4 admissible tuples")
def test_criterion_4_parity_lemma():
    rng = random.Random(31415)
    checked = 0
    while checked < 10_000:
        b1 = rng.randint(0, 8)
        b_plus = rng.randint(0, 14)
        d = rng.randint(0, 12)
        if (d + b_plus - b1) % 2 == 0:
            continue
        c1_squared = 4 * d + 4 * rng.randint(-6, 6)
        b_minus = 4 - 4 * b1 + 5 * b_plus - (c1_squared - 4 * d)
        if b_minus < 0:
            continue
        char = CharData(b1, b_plus, b_minus, False, b1 == 0)
        g = SpinCStructure(c1=None, c1_squared=c1_squared, s_size=b1)
        m = Manifold(name="t", char=char, spinc_structures=(g,))
        index_even, dim_cond = parity_equivalence(m, g)
        assert index_even == dim_cond
        checked += 1
    assert checked == 10_000


@_report(5, "non-vanishing certificates and n = 4 handling")
def test_criterion_5_certificates():
    pairs = [
        ["K3", "K3"], ["Sigma(1,1)", "Sigma(1,1)"],
        ["Kodaira", "Kodaira", "Kodaira"], ["Sigma(3,3)", "K3"],
    ]
    for names in pairs:
        parts = [catalog_get(n) for n in names]
        assert check_theorem_A(parts).verdict is Verdict.NONVANISHING, names
        assert check_theorem_B(parts).verdict is Verdict.NONVANISHING, names
    four = [catalog_get("K3")] * 4
    with pytest.raises(PremiseError):
        check_theorem_A(four)
    with pytest.raises(PremiseError):
        check_theorem_B(four)
    cert = check_bauer(connected_sum(four))  # b+(X) = 12 = 4 (mod 8)
    assert cert.verdict is Verdict.NONVANISHING


@_report(6, "beta^2: face enumeration = box reduction = sum of positive "
            "squares, bounded below by the 1/32-mesh oracle")
def test_criterion_6_beta_squared_oracles():
    rng = random.Random(2718)
    cases = []
    for d in range(1, 6):
        for _ in range(6):
            cases.append([rng.randint(-64, 64) for _ in range(d)])
    cases.extend([[64], [-64], [0, 0], [64, 64, 64, 64, 64],
                  [-1, -1, -1, -1, -1], [32, 32, -1], [0, -5, 7, 0]])
    for diag in cases:
        d = len(diag)
        classes, gram = sign_orbit(diag)
        expected = sum(x for x in diag if x > 0)
        box_val, _ = beta_squared_with_witness(MonopoleClassSet(tuple(diag)))
        face_val, _ = beta_squared_faces(classes, gram)
        assert box_val == face_val == expected, diag
        if d <= 4:
            mesh = box_mesh_max(gram)
            assert box_val >= mesh
            assert box_val - mesh <= mesh_error_bound(gram)
        else:
            sample = box_mesh_sample_max(gram, rng, count=20_000)
            assert box_val >= sample


@_report(7, "scalar/eigenvalue/Ricci invariants of the standard examples")
def test_criterion_7_invariants():
    sigma = catalog_get("Sigma(3,3)")
    m = connected_sum([sigma, sigma])
    inv = invariant_Is_Y_K(split_blowdown(m))
    assert inv.Is == SymbolicValue(2048, pi_power=2)
    assert inv.Y == SymbolicValue(-32, pi_power=1, radicand=2)
    assert inv.K == inv.Y
    assert lambda_bar_k(m, inv, Fraction(1)) == inv.Y
    assert lambda_bar_k(m, inv, Fraction(2, 3)) == inv.Y.scale(Fraction(2, 3))
    blown = connected_sum([sigma, sigma, catalog_get("CP2bar")])
    ir = invariant_Ir(split_blowdown(blown))
    assert ir == SymbolicValue(552, pi_power=2)
    quarter_is = invariant_Is_Y_K(split_blowdown(blown)).Is.scale(Fraction(1, 4))
    assert ir.pi_power == quarter_is.pi_power == 2 and ir.q > quarter_is.q  # Ir > Is/4


@_report(8, "Einstein obstruction strictly inside the Hitchin-Thorpe region")
def test_criterion_8_einstein_separation():
    m = connected_sum([catalog_get("Sigma(3,3)")] * 2
                      + [catalog_get("CP2bar")] * 18)
    assert 2 * m.euler() - 3 * abs(m.signature()) == 42
    ht = hitchin_thorpe(m.euler(), m.signature())
    assert ht.verdict is Verdict.NOT_OBSTRUCTED
    assert all(p.passed for p in ht.premises)  # strict
    assert einstein_obstruction(m).verdict is Verdict.OBSTRUCTED


@_report(9, "spin geography search: content, re-verification, determinism")
def test_criterion_9_spin_search():
    hits, baseline = collect(search_spin_examples, 3, 3, 4, 6, Fraction(1))
    assert baseline.hits
    keys = list(baseline.hits)
    assert (2, 2, 1) in keys
    for hit in hits:
        # independent interval-arithmetic re-verification over the coarse
        # pi^2 bracket [9.8696, 9.8697]
        assert spin_tuple_certified(hit["m"], hit["n"], hit["l1"], 3, 3, Fraction(1))
        assert Fraction(hit["sv"]["lo"]) > 0
        by_id = {c["theorem_id"]: c for c in hit["certificates"]}
        ght_cert = by_id["ght"]
        assert ght_cert["verdict"] == Verdict.NOT_OBSTRUCTED.value
        assert all(p["pass"] for p in ght_cert["premises"])  # strict, both ends
        assert by_id["einstein-special"]["verdict"] == Verdict.OBSTRUCTED.value
    assert_cell_order_independent(3, 3, 4, 6, 1)


@_report(10, "decomposition bound and the exotic-pair certificate")
def test_criterion_10_decomposition_and_exotic():
    from fourfold.einstein import decomposition_certificate, exotic_pair
    from fourfold.model import Flag, Parity, Provenance

    two = connected_sum([catalog_get("Sigma(3,5)"), catalog_get("Kodaira")])
    assert check_theorem_B(list(two.pieces())).verdict is Verdict.NONVANISHING
    assert decomposition_certificate(two)[0] == 2

    char = CharData(b1=0, b_plus=3, b_minus=11, is_spin=False,
                    is_simply_connected=True)
    c1sq = Manifold(name="Xns", char=char).two_chi_plus_3tau()
    g = SpinCStructure(c1=None, c1_squared=c1sq,
                       sw_parity=Parity.ODD,
                       parity_provenance=Provenance.USER_ASSERTED)
    x = Manifold(name="Xns", char=char, spinc_structures=(g,),
                 flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC}))
    cert = exotic_pair(x, catalog_get("Kodaira"))
    assert cert.verdict is Verdict.NONVANISHING
    split = [p for p in cert.premises if "non-diffeomorphism" in p.text][0]
    assert "summands in model = 4" in split.witness
    assert "moduli dimension = 1" in split.witness


@_report(11, "expression grammar corpus and 10^3 AST round trips")
def test_criterion_11_parser():
    assert len(parser_corpus.VALID_CASES) + len(parser_corpus.INVALID_CASES) >= 100
    for text, atoms in parser_corpus.VALID_CASES:
        ast = parse(text)
        assert parse(to_text(ast)) == ast
        from fourfold.parser import evaluate
        assert len(evaluate(ast).pieces()) == atoms
    for text, offset in parser_corpus.INVALID_CASES:
        with pytest.raises(parser_corpus.ExprError) as exc:
            parse(text)
        assert exc.value.offset == offset
    rng = random.Random(161803)
    for _ in range(1000):
        ast = parser_corpus._random_ast(rng)
        assert parse(to_text(ast)) == ast
