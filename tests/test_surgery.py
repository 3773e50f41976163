import random

import pytest
from hypothesis import given, settings, strategies as st

from fourfold.catalog import catalog_get
from fourfold.certify import Verdict
from fourfold.errors import SurgeryError
from fourfold.exact import quadratic_form
from fourfold.model import Flag, Parity
from fourfold.surgery import connected_sum, split_blowdown

from oracles import all_sign_spinc, dense_even, dense_gram, s_matrix, sum_spinc

K3 = catalog_get("K3")
SIGMA33 = catalog_get("Sigma(3,3)")
CP2BAR = catalog_get("CP2bar")
S1XS3 = catalog_get("S1xS3")
KODAIRA = catalog_get("Kodaira")


def test_empty_sum_rejected():
    with pytest.raises(SurgeryError):
        connected_sum([])


def test_identity():
    assert connected_sum([K3]) == K3


def test_k3_k3():
    s = connected_sum([K3, K3])
    assert s.euler() == 46
    assert s.signature() == -32
    assert s.char.b_plus == 6
    assert s.char.is_spin
    assert s.canonical_spinc.c1_squared == 0
    assert s.canonical_spinc.sw_parity is Parity.ODD


def test_two_sigma_eighteen_blowdowns():
    s = connected_sum([SIGMA33, SIGMA33] + [CP2BAR] * 18)
    assert s.euler() == 48
    assert s.signature() == -18
    assert 2 * s.euler() - 3 * s.signature() == 150
    assert 2 * s.euler() - 3 * abs(s.signature()) == 42


def test_additivity_of_betti_and_spin():
    s = connected_sum([KODAIRA, K3])
    assert s.char.b1 == 3
    assert s.char.b_plus == 5
    assert s.char.is_spin
    assert not s.char.is_simply_connected
    ns = connected_sum([K3, catalog_get("CP2")])
    assert not ns.char.is_spin


def test_lattice_direct_sum_and_c1():
    s = connected_sum([SIGMA33, SIGMA33])
    assert s.lattice.rank == 4
    assert s.canonical_spinc.c1 == (4, 4, 4, 4)
    assert s.canonical_spinc.c1_squared == 64
    assert quadratic_form(dense_gram(s.lattice), s.canonical_spinc.c1) == 64


def test_s_matrix_block_sum():
    s = connected_sum([KODAIRA, SIGMA33])
    assert len(s_matrix(s.canonical_spinc)) == 15  # 3 + 12
    assert dense_even(s_matrix(s.canonical_spinc))


def test_parity_rule():
    assert connected_sum([K3, K3]).canonical_spinc.sw_parity is Parity.ODD
    mixed = connected_sum([K3, CP2BAR])
    assert mixed.canonical_spinc.sw_parity is Parity.UNKNOWN


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_commutativity_associativity(seed):
    rng = random.Random(seed)
    pool = [K3, SIGMA33, CP2BAR, S1XS3, KODAIRA, catalog_get("Sigma(1,1)"),
            catalog_get("Y(2)"), catalog_get("Gompf(2,1)")]
    parts = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
    direct = connected_sum(parts)
    shuffled = parts[:]
    rng.shuffle(shuffled)
    assert connected_sum(shuffled) == direct
    # arbitrary regrouping
    cut = rng.randint(1, len(parts) - 1)
    grouped = connected_sum(
        [connected_sum(parts[:cut]), connected_sum(parts[cut:])])
    assert grouped == direct


def test_blow_up():
    b = connected_sum([catalog_get("CP2"), CP2BAR])
    assert b.euler() == 4  # blowing up adds one to chi
    assert b.signature() == 0
    assert not b.char.is_spin
    b2 = connected_sum([SIGMA33, CP2BAR], counts=[1, 2])
    assert b2.lattice.rank == 4  # hyperbolic plane + two exceptional lines
    sigma_piece = [p for p in b2.pieces() if p.name.startswith("Sigma")][0]
    assert sigma_piece.canonical_spinc.c1_squared == 32
    assert b2.canonical_spinc.c1_squared == 30
    with pytest.raises(SurgeryError):
        connected_sum([K3, CP2BAR], counts=[1, 0])


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=40))
@settings(max_examples=60)
def test_gompf_family_identities(alpha, beta):
    m = catalog_get(f"Gompf({alpha},{beta})")
    assert m.euler() == 24 * alpha + 4 * beta
    assert m.signature() == -16 * alpha
    assert m.two_chi_plus_3tau() == 8 * beta
    assert 2 * m.euler() - 3 * m.signature() == 8 * (12 * alpha + beta)
    assert m.char.b_plus == 4 * alpha + 2 * beta - 1
    assert m.char.is_spin and m.char.is_simply_connected
    assert m.has_flag(Flag.SYMPLECTIC)
    assert m.canonical_spinc.c1_squared == 8 * beta


def test_log_transform():
    assert catalog_get("Y(0)") == K3
    y2 = catalog_get("Y(2)")
    assert y2.canonical_spinc.c1 == (4, 0)
    assert y2.canonical_spinc.c1_squared == 0
    assert y2.char == K3.char
    # distinct orders give distinguishable labels
    assert catalog_get("Y(2)").name != catalog_get("Y(3)").name
    assert catalog_get("Y(2)") != catalog_get("Y(3)")


def test_sign_choice_iterator():
    s = connected_sum([SIGMA33, K3, KODAIRA])
    choices = list(all_sign_spinc(s))
    assert len(choices) == 8
    assert len({signs for signs, _ in choices}) == 8
    for _, g in choices:
        assert g.c1_squared == 32  # sign flips never change c1^2
        assert dense_even(s_matrix(g))


def test_sum_spinc_flips_blocks():
    s = connected_sum([SIGMA33, SIGMA33])
    g = sum_spinc(s, (1, -1))
    assert g.c1 == (4, 4, -4, -4)
    assert g.c1_squared == 64
    with pytest.raises(SurgeryError):
        sum_spinc(s, (1,))


def test_sv_accumulation():
    s = connected_sum([SIGMA33, SIGMA33])
    assert s.sv_factors == ((2, 3, 3),)
    mixed = connected_sum([SIGMA33, catalog_get("Sigma(3,5)")])
    assert mixed.sv_factors == ((1, 3, 3), (1, 3, 5))
    assert mixed.sv_factor_total() == 4 + 8
    simply = connected_sum([K3, CP2BAR])
    assert simply.sv_factor_total() == 0


def test_flag_propagation():
    psc = connected_sum([catalog_get("CP2"), catalog_get("CP2")])
    assert psc.has_flag(Flag.HAS_PSC_METRIC)
    assert psc.has_flag(Flag.HAS_NONNEG_SCALAR_METRIC)
    assert not connected_sum([K3, K3]).has_flag(Flag.HAS_PSC_METRIC)
    asd = connected_sum([CP2BAR, CP2BAR, CP2BAR, S1XS3, S1XS3])
    assert asd.has_flag(Flag.HAS_ASD_PSC_METRIC)
    assert not connected_sum([K3, CP2BAR]).has_flag(Flag.HAS_ASD_PSC_METRIC)
    # sums of >= 2 pieces are never marked almost complex or symplectic
    assert not connected_sum([K3, K3]).has_flag(Flag.ALMOST_COMPLEX)
    # mod-4 triviality of c1 survives blockwise
    assert connected_sum([SIGMA33, K3]).has_flag(Flag.C1_MOD4_ZERO)
    assert not connected_sum([SIGMA33, catalog_get("Sigma(2,3)")]).has_flag(
        Flag.C1_MOD4_ZERO)


def test_split_blowdown():
    m = connected_sum([SIGMA33, SIGMA33] + [CP2BAR] * 18)
    split = split_blowdown(m)
    assert split.count == len(split.parts) == 2
    assert split.rest.char.b_minus == 18
    assert split.rest_two_chi_plus_3tau() == -14
    assert split.theorem_a.verdict is Verdict.NONVANISHING
    split2 = split_blowdown(connected_sum([K3, K3]))
    assert split2.rest is None
    assert split2.rest_two_chi_plus_3tau() == 4
    # Theorem A is decided on 2 or 3 pieces only, from the count
    assert split_blowdown(connected_sum([K3], [4])).theorem_a is None


def _closed_form_sum(parts_tcp, k, g, h, l1, l2, minus=False):
    """Independent piecewise oracle for 2chi +/- 3tau of
    (# X_m) # k (Sigma_g x Sigma_h) # l1 (S1 x S3) # l2 CP2bar."""
    n_pieces = len(parts_tcp) + k + l1 + l2
    product_part = 8 * k * (g - 1) * (h - 1)
    blowup_part = (9 if minus else 3) * l2
    return sum(parts_tcp) + product_part + blowup_part - 4 * (n_pieces - 1)


def test_closed_forms_for_product_sums():
    # Gompf(2,2) # Y(1) # Sigma(3,3) # l1 S1xS3, the spin-search shape
    for l1 in (1, 2, 5):
        m = connected_sum([catalog_get("Gompf(2,2)"), catalog_get("Y(1)"), SIGMA33]
                          + [S1XS3] * l1)
        expect_plus = _closed_form_sum([16, 0], 1, 3, 3, l1, 0)
        expect_minus = _closed_form_sum([8 * (12 * 2 + 2), 96], 1, 3, 3, l1, 0,
                                        minus=True)
        assert m.two_chi_plus_3tau() == expect_plus
        assert 2 * m.euler() - 3 * m.signature() == expect_minus
