"""The multiset connected sum and its block lattices against the flattened
dense reference in ``tests/oracles.py``, and the per-distinct-block cost."""

import json
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fourfold import catalog, cli, exact, model
from fourfold.catalog import catalog_get, manifold_to_json
from fourfold.certify import Verdict
from fourfold.einstein import exotic_pair
from fourfold.errors import CapacityError, int_str_limit
from fourfold.model import (
    PIECE_CAP,
    CharData,
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    SpinCStructure,
    c1_mod4_zero,
    lattice_inertia,
    validate,
)
from fourfold.surgery import connected_sum, split_blowdown

from oracles import (
    conjugate,
    dense_even,
    dense_first_odd,
    dense_gram,
    flat_connected_sum,
    flat_sum_spinc,
    plain,
    s_matrix,
    sum_spinc,
)


def _custom_atom() -> Manifold:
    """A user atom with a non-diagonal indefinite lattice and a nonzero
    (odd) s-matrix."""
    char = CharData(b1=2, b_plus=1, b_minus=1, is_spin=False, is_simply_connected=False)
    lattice = GramLattice(("u", "v"), ((2, 1), (1, -2)))
    c1 = (1, 1)  # Q(c1) = 2 + 2*1 - 2 = 2
    spinc = SpinCStructure(c1=c1, c1_squared=2, s_size=2, s_entries=((0, 1, 3),),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.USER_ASSERTED)
    m = Manifold(name="Xc", char=char, lattice=lattice, spinc_structures=(spinc,),
                 flags=frozenset(),
                 sv_factors=())
    assert validate(m) == []
    return m


def _unknown_sv_atom() -> Manifold:
    """The custom atom with unknown simplicial-volume content."""
    m = replace(_custom_atom(), name="Xu", sv_factors=None)
    assert validate(m) == []
    return m


def _bare_atom() -> Manifold:
    """An S1xS3-like atom with neither spin-c structures nor a lattice."""
    char = CharData(b1=1, b_plus=0, b_minus=0, is_spin=True, is_simply_connected=False)
    m = Manifold(name="Xb", char=char,
                 flags=frozenset({Flag.HAS_PSC_METRIC, Flag.HAS_NONNEG_SCALAR_METRIC}),
                 sv_factors=())
    assert validate(m) == []
    return m


CUSTOM = [_custom_atom(), _unknown_sv_atom(), _bare_atom()]
POOL = [catalog_get(i) for i in (
    "CP2", "CP2bar", "S1xS3", "T4", "K3", "Kodaira", "Sigma(1,1)", "Sigma(3,3)",
    "Sigma(3,5)", "Y(2)", "Y(3)", "Gompf(2,1)")] + CUSTOM
# Atoms without a lattice (Gompf, Xb) drop the lattice of the whole sum, so
# draw mostly from the others.
LATTICED = [a for a in POOL if a.lattice is not None]


def _random_parts(seed: int) -> list[Manifold]:
    rng = random.Random(seed)
    pool = POOL if rng.random() < 0.2 else LATTICED
    distinct = rng.sample(pool, rng.randint(1, 4))
    parts = [a for a in distinct for _ in range(rng.randint(1, 4))]
    # equal atoms that are distinct objects must merge too
    parts += [replace(a) for a in distinct[:1] if a not in CUSTOM]
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
    assert fast.lattice is None or lattice_inertia(fast.lattice) == exact.inertia(
        dense_gram(ref.lattice))
    for atom in {a.name: a for a in parts if a.lattice is not None}.values():
        assert lattice_inertia(atom.lattice) == exact.inertia(dense_gram(atom.lattice))
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


@pytest.mark.parametrize("names", [
    ("Xu", "K3", "K3"), ("Xb", "Xb", "S1xS3"), ("Xb", "Xc", "CP2bar"),
    ("Xu", "Xb", "Sigma(3,3)", "Xu"), ("Xb", "Xu", "Gompf(2,1)"),
])
def test_unknown_parts_match_flattened_reference(names):
    """Sums with an atom of unknown sv content, or without spin-c structures
    and a lattice, drop those parts as the reference does."""
    custom = {a.name: a for a in CUSTOM}
    parts = [custom[n] if n in custom else catalog_get(n) for n in names]
    fast, ref = connected_sum(parts), flat_connected_sum(parts)
    assert manifold_to_json(fast) == manifold_to_json(ref)
    assert validate(fast) == validate(ref) == []
    assert fast.sv_factors is None or "Xu" not in names
    assert fast.spinc_structures == () or "Xb" not in names


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
    assert (g.c1, g.c1_squared, s_matrix(g), g.sw_parity) == (
        ref.c1, ref.c1_squared, s_matrix(ref), ref.sw_parity)
    assert dense_even(s_matrix(g)) == ref.s_matrix_even()
    assert dense_first_odd(s_matrix(g)) == dense_first_odd(s_matrix(ref))
    assert c1_mod4_zero(g) == c1_mod4_zero(ref)
    conj, ref_conj = conjugate(g), conjugate(ref)
    assert (conj.c1, s_matrix(conj)) == (ref_conj.c1, s_matrix(ref_conj))
    # sign runs may split the lattice blocks: c1^2 is checked on the dense lattice
    ref_m = flat_connected_sum(parts)
    if g.c1 is not None:
        assert g.c1_squared == exact.quadratic_form(dense_gram(ref_m.lattice), g.c1)


def test_shared_atom_blocks_give_each_sum_its_variant():
    """Each block of a sum's canonical structure is its atom's own canonical
    structure object, and each sign -1 run of ``sum_spinc`` holds its
    conjugate.  With and without a lattice and with mixed signs, the sums
    match the flattened reference."""
    def fetch():
        return (_custom_atom(), catalog_get("Sigma(3,3)"), catalog_get("CP2bar"),
                catalog_get("Gompf(2,2)"))

    shared = fetch()
    vectors = set()
    for picks in ((1, 0, 2), (1, 0, 2, 3), (0, 0, 1), (3, 1, 1, 2), (1, 0, 2)):
        m = connected_sum([shared[i] for i in picks])
        fresh = fetch()  # equal atoms, other objects
        assert m == connected_sum([fresh[i] for i in picks])
        canonical = m.canonical_spinc
        assert len(canonical.blocks) == len(m.summands)
        for (block, count), (atom, n) in zip(canonical.blocks, m.summands):
            assert block is atom.canonical_spinc and count == n
        pieces = m.pieces()
        n = len(pieces)
        for signs in ((1,) * n, (-1,) * n, tuple((-1) ** i for i in range(n)),
                      (1,) + (-1,) * (n - 1)):
            g = sum_spinc(m, signs)
            per_piece = [block for block, count in g.blocks for _ in range(count)]
            for piece, sign, block in zip(pieces, signs, per_piece, strict=True):
                if sign == 1:
                    assert block is piece.canonical_spinc
                else:
                    assert block == conjugate(piece.canonical_spinc)
            vectors.add(g.c1 is not None)
            ref = flat_sum_spinc(pieces, signs, g.c1 is not None)
            assert (g.c1, g.c1_squared, s_matrix(g), g.sw_parity) == (
                ref.c1, ref.c1_squared, s_matrix(ref), ref.sw_parity)
            assert dense_first_odd(s_matrix(g)) == dense_first_odd(s_matrix(ref))
        ref = flat_sum_spinc(pieces, (1,) * n, m.lattice is not None)
        assert (canonical.c1, s_matrix(canonical), canonical.sw_parity) == (
            ref.c1, s_matrix(ref), ref.sw_parity)
    assert vectors == {True, False}
    xc, sigma, _, _ = shared
    (_, _), (xc_minus, _) = sum_spinc(connected_sum([sigma, xc]), (1, -1)).blocks
    assert xc_minus.s_entries == ((0, 1, -3),)
    assert (xc_minus.sw_parity, xc_minus.parity_provenance) == (
        Parity.ODD, Provenance.USER_ASSERTED)


def test_validate_catches_block_defects_like_the_reference():
    custom = _custom_atom()
    s = custom.canonical_spinc
    bad_c1 = replace(custom, spinc_structures=(replace(s, c1_squared=4),))
    bad_s = replace(custom, spinc_structures=(replace(s, s_size=3),))
    bad_len = replace(custom, spinc_structures=(replace(s, c1=(1, 1, 0)),))
    k3 = catalog_get("K3")
    for atom in (bad_c1, bad_s, bad_len):
        parts = [atom, atom, k3]
        fast, ref = connected_sum(parts), flat_connected_sum(parts)
        assert validate(fast) == validate(ref) != []


def test_repetition_counts_cost_nothing():
    m = connected_sum([catalog_get("Sigma(3,3)"), catalog_get("CP2bar")], counts=[1, 100_000])
    assert m.summand_record == (("CP2bar", 100_000), ("Sigma(3,3)", 1))
    assert m.lattice.rank == 100_002
    assert m.canonical_spinc.c1_squared == 32 - 100_000
    assert validate(m) == []
    split = split_blowdown(m)
    assert [p.name for p in split.parts] == ["Sigma(3,3)"]
    assert split.rest.char.b_minus == 100_000


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


def test_dense_json_skips_empty_blocks():
    # rank-0 and b1 = 0 blocks add no rows or labels, however many copies
    s4 = Manifold(name="4-sphere", char=CharData(0, 0, 0, True, True), lattice=GramLattice((), ()),
                  spinc_structures=(SpinCStructure(c1=(), c1_squared=0),), sv_factors=())
    doc = manifold_to_json(connected_sum([s4, catalog_get("K3")], [10**15, 1]))
    assert doc["lattice"]["basis"] == [f"s{10**15}.f", f"s{10**15}.s"]
    doc = plain(manifold_to_json(connected_sum([catalog_get("Gompf(2,0)")], [10**15])))
    assert doc["spinc"][0]["s_matrix"] == [] and doc["lattice"] is None


def test_part_counts_are_checked_before_listing(capsys, monkeypatch):
    monkeypatch.setattr(model, "PIECE_CAP", 3)
    for theorem in ("theorem-a", "theorem-b"):
        assert cli.main(["check", theorem, "5*K3"]) == 1
        assert "covers n = 2, 3 parts; got n = 5" in capsys.readouterr().err
    x = _nonspin_symplectic_atom()
    cert = exotic_pair(x, connected_sum([catalog_get("K3"), catalog_get("CP2bar")], counts=[1, 4]))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert any(p.text == "xprime has 1 or 2 pieces" and not p.passed
               and p.witness == "5 pieces" for p in cert.premises)


def _nonspin_symplectic_atom() -> Manifold:
    # the numbers of CP2 # 11 CP2bar's minimal symplectic relatives: b+ = 3
    char = CharData(b1=0, b_plus=3, b_minus=19, is_spin=False, is_simply_connected=True)
    c1sq = Manifold(name="Xns", char=char).two_chi_plus_3tau()
    g = SpinCStructure(c1=None, c1_squared=c1sq,
                       sw_parity=Parity.ODD, parity_provenance=Provenance.USER_ASSERTED)
    return Manifold(name="Xns", char=char, spinc_structures=(g,),
                    flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC}))


def test_listing_pieces_is_capped(capsys):
    m = connected_sum([catalog_get("K3"), catalog_get("CP2bar")], counts=[1, PIECE_CAP])
    assert validate(m) == [] and m.piece_count() == PIECE_CAP + 1
    with pytest.raises(CapacityError):
        m.pieces()
    # the Einstein obstruction decides "not 2 or 3 pieces" from the count
    assert cli.main(["check", "einstein", f"{PIECE_CAP + 1}*K3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert [(p["pass"], p["witness"]) for p in report["certificate"]["premises"]] == [
        (False, f"{PIECE_CAP + 1} positive-b+ pieces")]
    # bauer decides n >= 5 pieces from the count and b+(X), listing none
    assert cli.main(["check", "bauer", f"{PIECE_CAP + 1}*K3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert [(p["text"], p["pass"], p["witness"]) for p in report["certificate"]["premises"]] == [
        ("n = 4", False, f"n = {PIECE_CAP + 1}"),
        ("b+(X) = 4 (mod 8)", False, f"b+(X) = {3 * (PIECE_CAP + 1)}")]
    # sums that list only their few positive-b+ pieces are not affected
    assert cli.main(["check", "einstein", f"2*Sigma(3,3) # {PIECE_CAP + 1}*CP2bar"]) == 0


def test_sign_orbit_rank_is_capped(capsys):
    cli.main(["beta2", "2*Sigma(3,3) # CP2bar"])  # build what every call shares
    # 10^6 generators: refused before a tuple of 10^6 squares (8 MB) is stored
    expr = "2*Sigma(3,3) # 999998*CP2bar"
    refused = ("a sign orbit of 1000000 generators has 2^1000000 classes, "
               f"a count of more than {int_str_limit()} digits")
    tracemalloc.start()
    try:
        assert cli.main(["beta2", expr]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused in capsys.readouterr().out and peak < 1 << 20
    assert cli.main(["invariants", expr]) == 0
    assert refused in capsys.readouterr().out
