import json
from dataclasses import replace

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
from fourfold.model import Flag, GramLattice, Parity, Provenance, validate

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


def test_validate_antisymmetry():
    m = catalog_get("S1xS3")
    bad_g = replace(m.canonical_spinc, s_matrix=((1,),))
    problems = validate(replace(m, spinc_structures=(bad_g,)))
    assert any("antisymmetric" in p for p in problems)


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
        m2 = manifold_from_json(json.loads(json.dumps(doc)))
        assert m2.char == m.char
        assert m2.lattice == m.lattice
        assert m2.spinc_structures == m.spinc_structures
        assert m2.flags == m.flags
        assert m2.sv_factors == m.sv_factors


def test_load_catalog_file(tmp_path):
    m = catalog_get("K3")
    doc = manifold_to_json(m)
    doc["name"] = "MyK3"
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [doc]}))
    env = load_catalog_file(str(path))
    assert env["MyK3"].char == m.char


def test_load_catalog_rejects_invalid(tmp_path):
    m = catalog_get("K3")
    doc = manifold_to_json(m)
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
    doc = manifold_to_json(catalog_get("K3"))
    doc["name"] = "MyK3"
    doc.update(changes)
    return doc


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("b1"), "manifolds[0] 'MyK3': missing field 'b1'"),
    (lambda d: d.pop("name"), "manifolds[0]: missing field 'name'"),
    (lambda d: d["lattice"].update(gram=7), "field 'lattice.gram' must be a list, got 7"),
    (lambda d: d["lattice"].update(gram=[[0, 1], [1]]), "field 'lattice.gram': gram matrix"),
    (lambda d: d["lattice"].update(gram=[[0, 1], [1, "0"]]), "field 'lattice.gram[1][1]'"),
    (lambda d: d.update(b_plus="3"), "field 'b_plus' must be an integer"),
    (lambda d: d.update(is_spin=1), "field 'is_spin' must be true or false"),
    (lambda d: d["spinc"][0].pop("c1_squared"), "missing field 'spinc[0].c1_squared'"),
    (lambda d: d["spinc"][0].update(sw_parity="Maybe"), "field 'spinc[0].sw_parity' must be one of"),
    (lambda d: d.update(spinc=[3]), "field 'spinc[0]' must be an object"),
    (lambda d: d.update(flags=["Kaehler"]), "field 'flags[0]' must be one of"),
    (lambda d: d.update(sv_factors=[[1, 2]]), "[k, g, h] triples"),
])
def test_catalog_document_fields_are_checked(tmp_path, mutate, needle):
    doc = _k3_doc()
    mutate(doc)
    with pytest.raises(CatalogError) as exc:
        load_catalog_file(_write_catalog(tmp_path, [doc]))
    assert needle in str(exc.value)


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
