import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fourfold.catalog import (
    catalog_get,
    catalog_ids,
    load_catalog_file,
    manifold_from_json,
    manifold_to_json,
)
from fourfold.errors import CatalogError
from fourfold.model import (
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    record_name,
    validate,
)
from fourfold.surgery import connected_sum

from oracles import conjugate, dense_even, dense_first_odd, dense_negation, plain, s_matrix

# Published characteristic data: (b1, b+, b-, chi, tau, spin, simply connected)
PUBLISHED = {
    "CP2": (0, 1, 0, 3, 1, False, True),
    "CP2bar": (0, 0, 1, 3, -1, False, True),
    "S1xS3": (1, 0, 0, 0, 0, True, False),
    "T4": (4, 3, 3, 0, 0, True, False),
    "K3": (0, 3, 19, 24, -16, True, True),
    "Kodaira": (3, 2, 2, 0, 0, True, False),
    "Sigma(1,1)": (4, 3, 3, 0, 0, True, False),
    "Sigma(3,3)": (12, 19, 19, 16, 0, True, False),
    "Sigma(3,5)": (16, 31, 31, 32, 0, True, False),
    "Y(3)": (0, 3, 19, 24, -16, True, True),
    "Gompf(2,0)": (0, 7, 39, 48, -32, True, True),
    "Gompf(2,1)": (0, 9, 41, 52, -32, True, True),
    "Gompf(3,2)": (0, 15, 63, 80, -48, True, True),
}


@pytest.mark.parametrize("block_id", sorted(PUBLISHED))
def test_catalog_published_values(block_id):
    b1, bp, bm, chi, tau, spin, sc = PUBLISHED[block_id]
    m = catalog_get(block_id)
    assert (m.char.b1, m.char.b_plus, m.char.b_minus) == (b1, bp, bm)
    assert m.euler() == chi
    assert m.signature() == tau
    assert m.char.is_spin == spin
    assert m.char.is_simply_connected == sc
    assert validate(m) == []


@pytest.mark.parametrize("block_id", ["CP2", "CP2bar", "S1xS3", "T4", "K3", "Kodaira"])
def test_a_fixed_atom_is_built_once(block_id):
    # every lookup of a fixed id returns the one value built at import
    assert catalog_get(block_id) is catalog_get(block_id)


def test_catalog_canonical_c1_squared():
    assert catalog_get("K3").canonical_spinc.c1_squared == 0
    assert catalog_get("Kodaira").canonical_spinc.c1_squared == 0
    assert catalog_get("Sigma(3,3)").canonical_spinc.c1_squared == 32
    assert catalog_get("CP2").canonical_spinc.c1_squared == 9
    assert catalog_get("CP2bar").canonical_spinc.c1_squared == -1
    assert catalog_get("Gompf(2,1)").canonical_spinc.c1_squared == 8


def test_y_ell_canonical_class():
    y3 = catalog_get("Y(3)")
    assert y3.canonical_spinc.c1 == (6, 0)
    assert y3.canonical_spinc.c1_squared == 0
    assert y3.name == "Y(3)"
    # Y(0) is the Kummer surface itself
    assert catalog_get("Y(0)") == catalog_get("K3")


def test_sigma11_matches_t4_char():
    s11 = catalog_get("Sigma(1,1)")
    t4 = catalog_get("T4")
    assert s11.char == t4.char
    assert s11.canonical_spinc.c1_squared == 0


@given(st.integers(min_value=1, max_value=9).filter(lambda x: x % 2 == 1),
       st.integers(min_value=1, max_value=9).filter(lambda x: x % 2 == 1))
def test_sigma_odd_genus_c1_mod4(g, h):
    m = catalog_get(f"Sigma({g},{h})")
    assert all(x % 4 == 0 for x in m.canonical_spinc.c1)
    assert m.has_flag(Flag.C1_MOD4_ZERO)
    assert m.canonical_spinc.c1_squared == 8 * (g - 1) * (h - 1)
    # b+ - b1 = 3 (mod 4) for all odd-genus products
    assert (m.char.b_plus - m.char.b1) % 4 == 3


def test_sigma_even_genus_no_mod4_flag():
    m = catalog_get("Sigma(2,3)")
    assert not m.has_flag(Flag.C1_MOD4_ZERO)


def test_kodaira_is_symplectic_non_kaehler():
    kod = catalog_get("Kodaira")
    assert kod.has_flag(Flag.SYMPLECTIC)
    assert not kod.has_flag(Flag.MINIMAL_KAEHLER)
    assert kod.char.is_spin


def test_parity_provenance_taubes():
    for name in ("K3", "T4", "Kodaira", "Sigma(3,3)", "Y(2)", "Gompf(2,1)"):
        g = catalog_get(name).canonical_spinc
        assert g.sw_parity is Parity.ODD
        assert g.parity_provenance is Provenance.TAUBES_SYMPLECTIC
    # b+ = 1: no Taubes parity assertion
    assert catalog_get("CP2").canonical_spinc.sw_parity is Parity.UNKNOWN


def test_catalog_errors():
    with pytest.raises(CatalogError):
        catalog_get("E8")
    with pytest.raises(CatalogError):
        catalog_get("Sigma(0,1)")
    with pytest.raises(CatalogError):
        catalog_get("Gompf(1,0)")
    with pytest.raises(CatalogError):
        catalog_get("Y(1,2)")
    with pytest.raises(CatalogError):
        catalog_get("Sigma(3)")


def test_catalog_ids_listing():
    ids = catalog_ids()
    for name in ("K3", "T4", "CP2", "CP2bar", "S1xS3", "Kodaira"):
        assert name in ids
    assert "Sigma(g,h)" in ids


def test_validate_flag_hierarchy():
    m = catalog_get("K3")
    bad = replace(m, flags=frozenset({Flag.MINIMAL_KAEHLER}))
    problems = validate(bad)
    assert any("MinimalKaehler requires flag Symplectic" in p for p in problems)


def test_validate_c1_cache_mismatch():
    m = catalog_get("K3")
    g = m.canonical_spinc
    bad = replace(m, spinc_structures=(replace(g, c1_squared=4),))
    problems = validate(bad)
    assert any("cached c1_squared" in p for p in problems)
    assert any("almost-canonical-class identity" in p for p in problems)


def test_the_summand_record_is_derived_from_the_multiset():
    """No field stores the record: a renamed atom is its own summand, and a
    sum totals each atom name in summand order."""
    assert "summand_record" not in {f.name for f in fields(Manifold)}
    k3 = catalog_get("K3")
    mine = replace(k3, name="MyK3")
    assert mine.summand_record == (("MyK3", 1),)
    m = connected_sum([mine, k3, mine])
    assert m.summand_record == (("K3", 1), ("MyK3", 2))
    assert m.name == record_name(m.summand_record) == "K3 # 2*MyK3"


def test_validate_c1_cache_mismatch_lines():
    """The c1^2 mismatch line, byte for byte: an int from the lattice prints
    as the rational sum once did, and a long one is cut at 40 characters."""
    k3 = catalog_get("K3")
    bad = replace(k3, spinc_structures=(replace(k3.canonical_spinc, c1_squared=4),))
    assert validate(bad)[0] == "spin-c #0: cached c1_squared = 4 but the lattice gives 0"
    sigma = catalog_get("Sigma(3,3)")
    big = replace(sigma, name="BigSigma",
                  spinc_structures=(replace(sigma.canonical_spinc, c1=(10**30, 3 * 10**30)),))
    assert validate(big) == [
        "spin-c #0: cached c1_squared = 32 but the lattice gives "
        "6000000000000000000000000000000000000000..."]
    cp2bar = catalog_get("CP2bar")
    assert validate(connected_sum([big, cp2bar, cp2bar, k3]))[0] == (
        "spin-c #0: cached c1_squared = 30 but the lattice gives "
        "5999999999999999999999999999999999999999...")


def test_validate_almost_canonical_identity():
    m = catalog_get("Sigma(3,3)")
    g = m.canonical_spinc
    # break the identity c1^2 = 2chi + 3tau while keeping the cache honest
    bad_g = replace(g, c1=(2, 0), c1_squared=0)
    problems = validate(replace(m, spinc_structures=(bad_g,)))
    assert any("almost-canonical-class identity" in p for p in problems)


def test_validate_lattice_inertia_bound():
    m = catalog_get("CP2bar")
    bad = replace(m, lattice=GramLattice(("e",), ((1,),)))  # positive line, b+ = 0
    problems = validate(bad)
    assert any("positive directions" in p for p in problems)


def test_validate_c1_needs_a_lattice():
    """An atom's c1 vector is a coordinate vector in its lattice; a sum is
    checked block by block and flagged only when every block has a vector."""
    k3 = catalog_get("K3")
    bare = replace(k3, name="BareK3", lattice=None)
    assert validate(bare) == ["spin-c #0: c1 vector but no lattice"]
    assert validate(connected_sum([bare, k3])) == ["spin-c #0: c1 vector but no lattice"]
    # Gompf stores neither, so a sum with it has no lattice and no c1 vector
    assert validate(connected_sum([catalog_get("Gompf(2,2)"), bare])) == []
    with pytest.raises(ValueError, match="not symmetric"):
        GramLattice(("a", "b"), ((0, 1), (2, 0)))


def test_validate_psc_vs_monopole_class():
    m = catalog_get("Sigma(3,3)")
    bad = replace(m, flags=m.flags | {Flag.HAS_PSC_METRIC})
    problems = validate(bad)
    assert any("HasPSCMetric contradicts" in p for p in problems)


def test_validate_simply_connected_b1():
    m = catalog_get("K3")
    bad = replace(m, char=replace(m.char, b1=1))
    problems = validate(bad)
    assert any("simply connected" in p for p in problems)


def test_json_round_trip(tmp_path):
    for name in ("K3", "Sigma(3,5)", "Gompf(2,1)", "S1xS3", "CP2bar"):
        m = catalog_get(name)
        doc = manifold_to_json(m)
        m2 = manifold_from_json(json.loads(json.dumps(plain(doc))))
        assert m2.char == m.char
        assert m2.lattice == m.lattice
        assert m2.spinc_structures == m.spinc_structures
        assert m2.flags == m.flags
        assert m2.sv_factors == m.sv_factors


@st.composite
def _antisymmetric_rows(draw):
    """An antisymmetric integer matrix of side 0..8, odd entries allowed
    unless the draw asks for an even one."""
    n, scale = draw(st.integers(0, 8)), draw(st.sampled_from((1, 2)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = scale * draw(st.integers(-3, 3))
            rows[i][j], rows[j][i] = x, -x
    return tuple(map(tuple, rows))


@given(_antisymmetric_rows())
def test_sparse_s_matrix_matches_dense_rows(rows):
    doc = {
        "version": 1, "name": "X", "b1": len(rows), "b_plus": 0, "b_minus": 0,
        "is_spin": False, "is_simply_connected": False, "flags": [], "lattice": None,
        "spinc": [{"c1": None, "c1_squared": 0, "s_matrix": [list(r) for r in rows],
                   "sw_parity": "Unknown", "provenance": "Derived"}],
        "sv_factors": None, "summand_record": [["X", 1]],
    }
    m = manifold_from_json(doc)
    assert plain(manifold_to_json(m)) == doc
    g = m.canonical_spinc
    assert s_matrix(g) == rows
    assert s_matrix(conjugate(g)) == dense_negation(rows)
    assert g.s_matrix_even() == dense_even(rows)
    assert dense_first_odd(s_matrix(g)) == dense_first_odd(rows)


def test_load_catalog_file(tmp_path):
    m = catalog_get("K3")
    doc = plain(manifold_to_json(m))
    doc["name"] = "MyK3"
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [doc]}))
    env = load_catalog_file(str(path))
    assert env["MyK3"].char == m.char


def test_load_catalog_rejects_invalid(tmp_path):
    m = catalog_get("K3")
    doc = plain(manifold_to_json(m))
    doc["spinc"][0]["c1_squared"] = 5
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [doc]}))
    with pytest.raises(CatalogError):
        load_catalog_file(str(path))


def _write_catalog(tmp_path, manifolds):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"version": 1, "manifolds": manifolds}))
    return str(path)


def _k3_doc(**changes):
    doc = plain(manifold_to_json(catalog_get("K3")))
    doc["name"] = "MyK3"
    doc.update(changes)
    return doc


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("b1"), "manifolds[0] 'MyK3': missing field 'b1'"),
    (lambda d: d.pop("name"), "manifolds[0]: missing field 'name'"),
    (lambda d: d["lattice"].update(gram=7), "field 'lattice.gram' must be a list, got 7"),
    (lambda d: d["lattice"].update(gram=[[0, 1], [1]]), "field 'lattice.gram': gram matrix"),
    (lambda d: d["lattice"].update(gram=[[0, 1], [1, "0"]]), "field 'lattice.gram[1][1]'"),
    (lambda d: d["lattice"].update(gram=[[0, 1], [2, 0]]),
     "field 'lattice.gram': gram matrix is not symmetric"),
    (lambda d: d.update(lattice=None),
     "invalid manifold document 'MyK3': spin-c #0: c1 vector but no lattice"),
    # without a c1 vector, a document read as having no lattice would be valid
    (lambda d: (d.update(lattice={}), d["spinc"][0].update(c1=None)),
     "manifolds[0] 'MyK3': missing field 'lattice.basis'"),
    (lambda d: d.update(b_plus="3"), "field 'b_plus' must be an integer"),
    (lambda d: d.update(is_spin=1), "field 'is_spin' must be true or false"),
    (lambda d: d["spinc"][0].pop("c1_squared"), "missing field 'spinc[0].c1_squared'"),
    (lambda d: d["spinc"][0].update(sw_parity="Maybe"), "field 'spinc[0].sw_parity' must be one of"),
    (lambda d: d.update(spinc=[3]), "field 'spinc[0]' must be an object"),
    (lambda d: d.update(flags=["Kaehler"]), "field 'flags[0]' must be one of"),
    (lambda d: d.update(sv_factors=[[1, 2]]), "[k, g, h] triples"),
    (lambda d: d["spinc"][0].update(s_matrix=[[0, 1], [-1]]),
     "field 'spinc[0].s_matrix' must be a square matrix"),
    (lambda d: d["spinc"][0].update(s_matrix=[[0, 1], [1, 0]]),
     "field 'spinc[0].s_matrix' must be antisymmetric"),
    (lambda d: d["spinc"][0].update(s_matrix=[[0, 1], [-1, 2]]),
     "'MyK3': field 'spinc[0].s_matrix' must be antisymmetric"),
])
def test_catalog_document_fields_are_checked(tmp_path, mutate, needle):
    doc = _k3_doc()
    mutate(doc)
    with pytest.raises(CatalogError) as exc:
        load_catalog_file(_write_catalog(tmp_path, [doc]))
    assert needle in str(exc.value) and "\n" not in str(exc.value)


def test_catalog_file_shape_is_checked(tmp_path):
    with pytest.raises(CatalogError, match=r"manifolds\[1\] must be an object"):
        load_catalog_file(_write_catalog(tmp_path, [_k3_doc(), "K3"]))
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(CatalogError, match="catalog file must be an object"):
        load_catalog_file(str(path))
    path.write_text("{")
    with pytest.raises(CatalogError, match="not JSON"):
        load_catalog_file(str(path))
    with pytest.raises(CatalogError, match="cannot read catalog file"):
        load_catalog_file(str(tmp_path / "missing.json"))


def test_cli_reports_a_bad_catalog_in_one_line(tmp_path, capsys):
    from fourfold.cli import main
    doc = _k3_doc()
    del doc["b1"]
    assert main(["--catalog", _write_catalog(tmp_path, [doc]), "build", "MyK3"]) == 1
    err = capsys.readouterr().err
    assert err == "fourfold: error: manifolds[0] 'MyK3': missing field 'b1'\n"


def _nested_b1(tmp_path, depth):
    """A catalog file whose atom's b1 is a list nested ``depth`` deep."""
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [_k3_doc(b1=[])]})
                    .replace('"b1": []', '"b1": ' + "[" * depth + "]" * depth))
    return str(path)


def _five_thousand_digits(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [_k3_doc(b_minus=0)]})
                    .replace('"b_minus": 0', '"b_minus": ' + "9" * 5000))
    return str(path)


def _open_brackets(tmp_path):
    path = tmp_path / "brackets.json"
    path.write_text("[" * 100_000)
    return str(path)


@pytest.mark.parametrize("make, message", [
    (_five_thousand_digits, "holds an integer of more than {limit} digits"),
    (_open_brackets, "nests its values too deeply for the JSON reader"),
    (lambda tmp_path: _nested_b1(tmp_path, 2000),
     "nests its values too deeply for the JSON reader"),
], ids=["long_integer", "open_brackets", "deep_value"])
def test_a_file_the_json_reader_refuses_ends_in_one_line(tmp_path, capsys, make, message):
    from fourfold.cli import main
    from fourfold.errors import int_str_limit
    path = make(tmp_path)
    assert main(["--catalog", path, "catalog", "MyK3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"fourfold: error: catalog file {path!r} "
                   f"{message.format(limit=int_str_limit())}\n")
    assert len(err) <= 301 and "set_int_max_str_digits" not in err


def test_a_value_just_under_the_json_depth_limit_gets_its_field_error(tmp_path):
    def refusal(depth):
        with pytest.raises(CatalogError) as exc:
            load_catalog_file(_nested_b1(tmp_path, depth))
        return str(exc.value)

    # the deepest b1 the JSON reader takes, found by bisection
    lo, hi = 1, 5000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if "too deeply" in refusal(mid):
            hi = mid - 1
        else:
            lo = mid
    assert 900 < lo < 5000
    assert refusal(lo) == ("manifolds[0] 'MyK3': field 'b1' must be an integer, got "
                           + "[" * 40 + "...")
    assert "too deeply" in refusal(lo + 1)


def _refuse_lattice(*_):
    raise AssertionError("a lattice was built past the rank cap")


def _definite_doc(rank):
    """A negative definite atom of the given rank: the Gram matrix of the
    root lattice A_rank, negated."""
    gram = [[-2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(rank)]
            for i in range(rank)]
    return {"version": 1, "name": "Big", "b1": 0, "b_plus": 0, "b_minus": rank,
            "is_spin": True, "is_simply_connected": True,
            "lattice": {"basis": [f"e{i}" for i in range(rank)], "gram": gram}}


def test_catalog_lattice_rank_is_capped(tmp_path, capsys, monkeypatch):
    from fourfold import catalog
    from fourfold.cli import main
    assert catalog.LATTICE_RANK_CAP == 128
    path = _write_catalog(tmp_path, [_definite_doc(128)])
    assert load_catalog_file(path)["Big"].lattice.rank == 128
    assert main(["--catalog", path, "check", "hitchin-thorpe", "Big"]) == 0
    capsys.readouterr()
    path = _write_catalog(tmp_path, [_definite_doc(129)])
    monkeypatch.setattr(catalog, "GramLattice", _refuse_lattice)
    assert main(["--catalog", path, "catalog"]) == 1
    assert capsys.readouterr() == ("", (
        "fourfold: error: manifolds[0] 'Big': field 'lattice.gram' has 129 rows, "
        "over the lattice rank cap of 128\n"))


# -- the name hash of a Manifold ----------------------------------------------


def test_equal_atoms_hash_equal_and_merge():
    a, b = catalog_get("Sigma(3,3)"), catalog_get("Sigma(3,3)")
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash("Sigma(3,3)")
    cp2bar = catalog_get("CP2bar")
    m = connected_sum([a, cp2bar, b])
    assert m.summands == ((cp2bar, 1), (a, 2))
    assert connected_sum([a, cp2bar], [2, 1]) == m


def test_replace_hashes_afresh():
    k3 = catalog_get("K3")
    same = replace(k3)
    renamed = replace(k3, name="K3'")
    assert hash(same) == hash(k3) and hash(renamed) != hash(k3)
    # an equal name with other fields hashes alike but is another key
    flagless = replace(k3, flags=frozenset())
    assert hash(flagless) == hash(k3) and flagless != k3
    assert len({k3: 1, flagless: 2, same: 3}) == 2


def test_copies_and_pickles_hash_as_the_original():
    m = catalog_get("Sigma(3,3)")
    hash(m)
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m and vars(clone) == vars(m)
        assert hash(clone) == hash(m) and {m: 1}[clone] == 1


def test_pickled_atom_hashes_afresh_in_another_process():
    """str hashes differ between processes: an atom pickled after hashing
    must hash, in a process with another hash seed, as the same atom fetched
    there does."""
    m = catalog_get("Sigma(3,3)")
    kept = hash(m)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import pickle, sys\n"
        "from fourfold.catalog import catalog_get\n"
        "m = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = catalog_get('Sigma(3,3)')\n"
        "assert hash(m) == hash(fresh) == hash('Sigma(3,3)')\n"
        "assert {fresh: 1}[m] == 1\n"
        "print(hash(m))\n")
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(m),
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert int(proc.stdout) != kept  # the seeds differ, so the hashes do
