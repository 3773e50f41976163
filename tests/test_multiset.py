"""The multiset connected sum and its block lattices against the flattened
dense reference in ``tests/oracles.py``, and the per-distinct-block cost."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fourfold import catalog, cli, exact, model
from fourfold.catalog import catalog_get, manifold_to_json
from fourfold.certify import Verdict
from fourfold.einstein import exotic_pair
from fourfold.errors import CapacityError
from fourfold.model import (
    PIECE_CAP,
    CharData,
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    SpinCStructure,
    validate,
)
from fourfold.surgery import blow_up, connected_sum, split_blowdown, sum_spinc

from oracles import flat_connected_sum, flat_sum_spinc


def _custom_atom() -> Manifold:
    """A user atom with a non-diagonal indefinite lattice and a nonzero
    (odd) s-matrix."""
    char = CharData(b1=2, b_plus=1, b_minus=1, is_spin=False, is_simply_connected=False)
    lattice = GramLattice(("u", "v"), ((2, 1), (1, -2)))
    c1 = (1, 1)  # Q(c1) = 2 + 2*1 - 2 = 2
    spinc = SpinCStructure(c1=c1, c1_squared=2, s_matrix=((0, 3), (-3, 0)),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.USER_ASSERTED)
    m = Manifold(name="Xc", char=char, lattice=lattice, spinc_structures=(spinc,),
                 flags=frozenset(),
                 sv_factors=(), summand_record=(("Xc", 1),))
    assert validate(m) == []
    return m


POOL = [catalog_get(i) for i in (
    "CP2", "CP2bar", "S1xS3", "T4", "K3", "Kodaira", "Sigma(1,1)", "Sigma(3,3)",
    "Sigma(3,5)", "Y(2)", "Y(3)", "Gompf(2,1)")] + [_custom_atom()]
# Atoms without a lattice (Gompf) drop the lattice of the whole sum, so draw
# mostly from the others.
LATTICED = [a for a in POOL if a.lattice is not None]


def _random_parts(seed: int) -> list[Manifold]:
    rng = random.Random(seed)
    pool = POOL if rng.random() < 0.2 else LATTICED
    distinct = rng.sample(pool, rng.randint(1, 4))
    parts = [a for a in distinct for _ in range(rng.randint(1, 4))]
    # equal atoms that are distinct objects must merge too
    parts += [catalog_get(a.name) for a in distinct[:1] if a.name != "Xc"]
    rng.shuffle(parts)
    return parts


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_multiset_sum_matches_flattened_reference(seed):
    parts = _random_parts(seed)
    fast = connected_sum(parts)
    ref = flat_connected_sum(parts)
    assert manifold_to_json(fast) == manifold_to_json(ref)
    assert validate(fast) == validate(ref)
    assert fast.pieces() == ref.pieces()
    assert fast.lattice is None or fast.lattice.inertia() == ref.lattice.inertia()
    # permutation and regrouping give the identical value
    rng = random.Random(seed)
    shuffled = parts[:]
    rng.shuffle(shuffled)
    assert connected_sum(shuffled) == fast
    if len(parts) > 1:
        cut = rng.randint(1, len(parts) - 1)
        assert connected_sum([connected_sum(shuffled[:cut]),
                              connected_sum(shuffled[cut:])]) == fast
    # counts instead of copies
    distinct = list({id(p): p for p in parts}.values())
    counts = [sum(1 for p in parts if p is d) for d in distinct]
    assert connected_sum(distinct, counts) == fast


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sum_spinc_matches_flattened_reference(seed):
    parts = _random_parts(seed)
    m = connected_sum(parts)
    pieces = m.pieces()
    if not all(p.spinc_structures for p in pieces):
        return
    rng = random.Random(seed)
    signs = tuple(rng.choice((1, -1)) for _ in pieces)
    g = sum_spinc(m, signs)
    ref = flat_sum_spinc(pieces, signs, g.c1 is not None)
    assert (g.c1, g.c1_squared, g.s_matrix, g.sw_parity) == (
        ref.c1, ref.c1_squared, ref.s_matrix, ref.sw_parity)
    assert g.s_matrix_even() == ref.s_matrix_even()
    assert g.c1_mod4_zero() == ref.c1_mod4_zero()
    conj = g.conjugate()
    assert (conj.c1, conj.s_matrix) == (ref.conjugate().c1, ref.conjugate().s_matrix)
    # sign runs split the lattice blocks; validate walks both block sequences
    ref_m = flat_connected_sum(parts)
    assert validate(replace(m, spinc_structures=(g,))) == validate(
        replace(ref_m, spinc_structures=(ref,)))


def test_validate_catches_block_defects_like_the_reference():
    custom = _custom_atom()
    bad_c1 = replace(custom, spinc_structures=(
        SpinCStructure(c1=(1, 1), c1_squared=4, s_matrix=((0, 3), (-3, 0))),))
    bad_s = replace(custom, spinc_structures=(
        SpinCStructure(c1=(1, 1), c1_squared=2, s_matrix=((0, 3), (3, 0))),))
    bad_len = replace(custom, spinc_structures=(
        SpinCStructure(c1=(1, 1, 0), c1_squared=2, s_matrix=((0, 3), (-3, 0))),))
    k3 = catalog_get("K3")
    for atom in (bad_c1, bad_s, bad_len):
        parts = [atom, atom, k3]
        fast, ref = connected_sum(parts), flat_connected_sum(parts)
        assert validate(fast) == validate(ref) != []


def test_repetition_counts_cost_nothing():
    m = blow_up(catalog_get("Sigma(3,3)"), 100_000)
    assert m.summand_record == (("CP2bar", 100_000), ("Sigma(3,3)", 1))
    assert m.lattice.rank == 100_002
    assert m.canonical_spinc.c1_squared == 32 - 100_000
    assert validate(m) == []
    parts, rest = split_blowdown(m)
    assert [p.name for p in parts] == ["Sigma(3,3)"]
    assert rest.char.b_minus == 100_000
    with pytest.raises(ValueError):
        m.lattice.norm((1, 2, 3))


def _count_exact_calls(monkeypatch, argv):
    grams = []
    quadratic = []
    inertia, quadratic_form = exact.inertia, exact.quadratic_form

    def counting_inertia(gram):
        grams.append(gram)
        return inertia(gram)

    def counting_quadratic_form(gram, x):
        quadratic.append(gram)
        return quadratic_form(gram, x)

    monkeypatch.setattr(exact, "inertia", counting_inertia)
    monkeypatch.setattr(exact, "quadratic_form", counting_quadratic_form)
    return cli.main(argv), grams, quadratic


def test_validate_calls_exact_once_per_distinct_block(monkeypatch, capsys):
    code, grams, quadratic = _count_exact_calls(
        monkeypatch, ["check", "hitchin-thorpe", "Sigma(3,3) # 100000*CP2bar"])
    assert code == 0
    assert '"verdict": "Obstructed"' in capsys.readouterr().out
    # two distinct blocks: the hyperbolic plane of Sigma(3,3) and CP2bar's line
    assert 1 <= len(grams) <= 2 and len(set(grams)) == len(grams)
    assert all(len(g) <= 2 for g in grams)
    assert 1 <= len(quadratic) <= 2 and all(len(g) <= 2 for g in quadratic)


def test_dense_json_cap(capsys, monkeypatch):
    assert cli.main(["build", "100000*CP2bar"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("fourfold: error: ") and "cap" in err and "\n" not in err
    # the cap counts rank^2 + b1^2 and is inclusive
    monkeypatch.setattr(catalog, "DENSE_ENTRY_CAP", 4 * 4 + 3 * 3)
    assert cli.main(["build", "3*S1xS3 # 4*CP2bar"]) == 0
    assert '"s3.e"' in capsys.readouterr().out
    assert cli.main(["build", "3*S1xS3 # 5*CP2bar"]) == 1
    assert "rank^2 + b1^2 = 34" in capsys.readouterr().err


def test_dense_json_cap_spares_atoms(capsys, monkeypatch):
    # an atom's matrices are stored densely already, so its JSON is not capped
    monkeypatch.setattr(catalog, "DENSE_ENTRY_CAP", 0)
    assert cli.main(["catalog", "Sigma(3,3)"]) == 0
    assert cli.main(["build", "Sigma(3,3)"]) == 0
    assert '"b1": 12' in capsys.readouterr().out
    assert cli.main(["build", "2*S1xS3"]) == 1
    assert "rank^2 + b1^2 = 4" in capsys.readouterr().err


def test_part_counts_are_checked_before_listing(capsys, monkeypatch):
    monkeypatch.setattr(model, "PIECE_CAP", 3)
    for theorem in ("theorem-a", "theorem-b"):
        assert cli.main(["check", theorem, "5*K3"]) == 1
        assert "covers n = 2, 3 parts; got n = 5" in capsys.readouterr().err
    x = _nonspin_symplectic_atom()
    cert = exotic_pair(x, blow_up(catalog_get("K3"), 4))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert any(p.text == "xprime has 1 or 2 pieces" and not p.passed
               and p.witness == "5 pieces" for p in cert.premises)


def _nonspin_symplectic_atom() -> Manifold:
    # the numbers of CP2 # 11 CP2bar's minimal symplectic relatives: b+ = 3
    char = CharData(b1=0, b_plus=3, b_minus=19, is_spin=False, is_simply_connected=True)
    g = SpinCStructure(c1=None, c1_squared=char.two_chi_plus_3tau(), s_matrix=(),
                       sw_parity=Parity.ODD, parity_provenance=Provenance.USER_ASSERTED)
    return Manifold(name="Xns", char=char, spinc_structures=(g,),
                    flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC}))


def test_listing_pieces_is_capped(capsys):
    m = blow_up(catalog_get("K3"), PIECE_CAP)
    assert validate(m) == [] and m.piece_count() == PIECE_CAP + 1
    with pytest.raises(CapacityError):
        m.pieces()
    assert cli.main(["check", "bauer", f"{PIECE_CAP + 1}*K3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fourfold: error: listing") and err.count("\n") == 1
    # sums that list only their few positive-b+ pieces are not affected
    assert cli.main(["check", "einstein", f"2*Sigma(3,3) # {PIECE_CAP + 1}*CP2bar"]) == 0


def test_sign_orbit_rank_is_capped(capsys):
    expr = f"2*Sigma(3,3) # {PIECE_CAP}*CP2bar"
    assert cli.main(["beta2", expr]) == 2
    out = capsys.readouterr().out
    assert f"a sign orbit of {PIECE_CAP + 2} generators is over the cap" in out
    assert cli.main(["invariants", expr]) == 0
    assert "over the cap" in capsys.readouterr().out
