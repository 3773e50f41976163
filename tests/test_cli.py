import contextlib
import hashlib
import io
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from fourfold import catalog, certify, cli, einstein, model, monopole, parser, surgery, symbolic
from fourfold.catalog import catalog_get, manifold_to_json
from fourfold.certify import require_part_count
from fourfold.cli import main
from fourfold.errors import FourfoldError, PremiseError
from fourfold.model import PIECE_CAP, BlockLattice, BlockSpinC, GramLattice, SpinCStructure
from oracles import (
    TIE_C4,
    dense_gram,
    emit_report,
    s_matrix,
    search_by_sorting,
    search_lines,
    sparse_s,
)


@pytest.fixture(scope="module")
def schema():
    with resources.files("fourfold").joinpath("schemas/report-v1.json").open() as fh:
        return json.load(fh)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _validate_lines(schema, text):
    docs = []
    decoder = json.JSONDecoder()
    stripped = text.strip()
    if stripped.startswith("{") and "\n{" not in stripped:
        docs = [json.loads(stripped)]
    else:
        docs = [json.loads(line) for line in stripped.splitlines() if line.strip()]
    for doc in docs:
        jsonschema.validate(doc, schema)
    return docs


def test_catalog_list(capsys, schema):
    code, out, _ = _run(capsys, "catalog")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert "K3" in doc["ids"]


def test_catalog_dump(capsys, schema):
    code, out, _ = _run(capsys, "catalog", "K3")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["manifold"]["b_plus"] == 3
    assert doc["manifold"]["b_minus"] == 19


def test_build(capsys, schema):
    code, out, _ = _run(capsys, "build", "2*Sigma(3,3) # 18*CP2bar")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["manifold"]["b_minus"] == 19 + 19 + 18
    assert doc["manifold"]["summand_record"] == [["CP2bar", 18], ["Sigma(3,3)", 2]]


def test_invariants_report(capsys, schema):
    code, out, _ = _run(capsys, "invariants", "2*Sigma(3,3)")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["chi"] == 30
    assert doc["Y"]["text"] == "-32*pi*sqrt(2)"
    assert doc["Is"]["text"] == "2048*pi^2"
    assert doc["lambda_k"]["value"]["text"] == "-32*pi*sqrt(2)"
    assert doc["beta_squared"]["value"] == "64"
    assert doc["moduli_dimensions"] == [1]
    assert doc["sv_interval"]["lo"] == "128"


def test_invariants_inconclusive_fields(capsys, schema):
    code, out, _ = _run(capsys, "invariants", "K3")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert "inconclusive" in doc["Is"]
    assert "inconclusive" in doc["beta_squared"]


def test_invariants_lambda_flag(capsys, schema):
    code, out, _ = _run(capsys, "invariants", "2*Sigma(3,3)", "--k", "2/3")
    (doc,) = _validate_lines(schema, out)
    assert doc["lambda_k"]["value"]["q"] == "-64/3"


def test_invariants_approx_flag(capsys, schema):
    code, out, _ = _run(capsys, "--approx", "invariants", "2*Sigma(3,3)")
    (doc,) = _validate_lines(schema, out)
    assert doc["Is"]["approx_non_authoritative"] == pytest.approx(
        2048 * 3.141592653589793**2)


def test_approx_past_the_float_range(capsys, schema):
    code, out, err = _run(capsys, "--approx", "invariants", "Sigma(3,3) # K3", "--k", "1e400")
    assert (code, err) == (0, "")
    (doc,) = _validate_lines(schema, out)
    assert doc["lambda_k"]["value"]["approx_non_authoritative"] == -math.inf
    assert doc["Is"]["approx_non_authoritative"] == pytest.approx(1024 * math.pi**2)


# Y = -4 pi sqrt(2 sum c1^2); for Sigma(g,3) # Sigma(3,3) the radicand is 32(g+1).
@pytest.mark.parametrize("g, radicand", [(31_249_999_999, 1), (31_249_999_998, 62_499_999_998)])
def test_radicand_up_to_the_cap(capsys, schema, g, radicand):
    code, out, err = _run(capsys, "invariants", f"Sigma({g},3) # Sigma(3,3)")
    assert (code, err) == (0, "")
    (doc,) = _validate_lines(schema, out)
    assert doc["Y"]["radicand"] == radicand


def test_a_large_radicand_is_factored_once(capsys, monkeypatch):
    # Y = -4 pi sqrt(32 * 31,199,999,998) = -32 pi sqrt(15,599,999,999); lambda_k = k*Y
    # scales Y without factoring its radicand again
    seen = []
    real = symbolic.squarefree_decompose
    monkeypatch.setattr(symbolic, "squarefree_decompose", lambda s: seen.append(s) or real(s))
    code, out, err = _run(capsys, "invariants", "Sigma(3,31199999997) # Sigma(3,3)")
    assert (code, err) == (0, "")
    assert [s for s in seen if s > 10**10] == [998_399_999_936]


@pytest.mark.parametrize("g", [31_250_000_000, 10**40])
def test_radicand_past_the_cap(capsys, g):
    code, out, err = _run(capsys, "invariants", f"Sigma({g},3) # Sigma(3,3)")
    assert (code, out) == (1, "")
    assert err == ("fourfold: error: a square root of a number over "
                   f"RADICAND_CAP = {symbolic.RADICAND_CAP}\n")


def test_check_einstein_obstructed(capsys, schema):
    code, out, _ = _run(capsys, "check", "einstein", "2*Sigma(3,3) # 18*CP2bar")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["verdict"] == "Obstructed"


def test_check_exit_codes(capsys):
    # NotObstructed still exits 0
    code, _, _ = _run(capsys, "check", "einstein", "2*Sigma(3,3) # CP2bar")
    assert code == 0
    # Inconclusive exits 2
    code, _, _ = _run(capsys, "check", "einstein", "K3")
    assert code == 2
    # usage error exits 1
    code, _, err = _run(capsys, "check", "einstein", "K3 # # T4")
    assert code == 1 and "error" in err
    code, _, err = _run(capsys, "check", "theorem-a", "4*K3")
    assert code == 1


def test_check_theorem_a(capsys, schema):
    code, out, _ = _run(capsys, "check", "theorem-a", "Sigma(1,1) # Sigma(1,1)")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["verdict"] == "Nonvanishing"


def test_check_bauer_and_theorem_b(capsys, schema):
    code, out, _ = _run(capsys, "check", "bauer", "4*K3")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["verdict"] == "Nonvanishing"
    code, out, _ = _run(capsys, "check", "theorem-b", "Sigma(3,5) # Kodaira")
    (doc,) = _validate_lines(schema, out)
    assert doc["verdict"] == "Nonvanishing"


def test_check_ght_inconclusive_exit(capsys, schema):
    code, out, _ = _run(capsys, "check", "ght", "Sigma(3,3) # 31*CP2bar",
                        "--c4", "1000000")
    assert code == 2
    (doc,) = _validate_lines(schema, out)
    assert doc["verdict"] == "Inconclusive"


def test_check_ght_obstructed_with_negative_euler(capsys, schema):
    # chi < 0 fails Gromov's inequality, which an Obstructed verdict omits
    code, out, _ = _run(capsys, "check", "ght", "Sigma(1,1) # Sigma(1,2) # "
                        "Sigma(1,3) # Sigma(1,4) # Sigma(1,5)")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["verdict"] == "Obstructed"
    assert all(p["pass"] for p in doc["certificate"]["premises"])


def test_check_hitchin_thorpe(capsys, schema):
    code, out, _ = _run(capsys, "check", "hitchin-thorpe", "2*K3")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["verdict"] == "Obstructed"


def test_check_decomposition(capsys, schema):
    code, out, _ = _run(capsys, "check", "decomposition", "Sigma(3,5) # Kodaira")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["bound"] == 2


def _xns_catalog(tmp_path, names=("Xns",)):
    """A catalog file holding the README's non-spin symplectic atom Xns, once
    under each of ``names``."""
    doc = manifold_to_json(catalog_get("K3"))
    doc.update({
        "name": "Xns",
        "is_spin": False,
        "b_plus": 3,
        "b_minus": 11,
        "flags": ["AlmostComplex", "Symplectic"],
        "lattice": None,
    })
    doc["spinc"] = [{
        "c1": None,
        "c1_squared": 2 * (2 + 3 + 11) - 3 * 8,  # 2chi + 3tau = 8
        "s_matrix": [],
        "sw_parity": "Odd",
        "provenance": "UserAsserted",
    }]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"version": 1,
                                "manifolds": [dict(doc, name=name) for name in names]}))
    return path


def test_catalog_lists_user_names_after_the_built_ins(capsys, schema, tmp_path):
    path = _xns_catalog(tmp_path, ("Zeta", "Xns", "K3"))
    code, out, _ = _run(capsys, "--catalog", str(path), "catalog")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["ids"] == [*catalog.catalog_ids(), "Zeta", "Xns", "K3"]


def test_catalog_id_reads_the_user_catalog(capsys, schema, tmp_path):
    path = _xns_catalog(tmp_path, ("Xns", "K3"))
    code, out, _ = _run(capsys, "--catalog", str(path), "catalog", "Xns")
    assert code == 0
    assert out == _run(capsys, "--catalog", str(path), "build", "Xns")[1]
    (doc,) = _validate_lines(schema, out)
    assert doc["manifold"]["name"] == "Xns"
    # a user name shadows a built-in, as in an expression; parameters do not
    code, out, _ = _run(capsys, "--catalog", str(path), "catalog", "K3")
    assert code == 0 and json.loads(out)["manifold"]["b_minus"] == 11
    code, out, _ = _run(capsys, "--catalog", str(path), "catalog", "Sigma(3,3)")
    assert code == 0 and out == _run(capsys, "catalog", "Sigma(3,3)")[1]


@pytest.mark.parametrize("name", ["My Atom", "Xñs", "Sigma(3,3)", "3K", "", "Xns\n"])
def test_catalog_refuses_a_name_the_parser_cannot_read(capsys, tmp_path, name):
    path = _xns_catalog(tmp_path, ("Xns", name))
    for argv in (("catalog",), ("build", "Xns")):
        code, out, err = _run(capsys, "--catalog", str(path), *argv)
        assert (code, out) == (1, "")
        assert err == ("fourfold: error: manifolds[1]: field 'name' must be an identifier "
                       f"{catalog.IDENTIFIER}, got {repr(name)}\n")


def test_catalog_refuses_a_repeated_name(capsys, tmp_path):
    """Two entries with one name are refused, naming both, by every command
    that reads the catalog, however the entries differ."""
    with open(_one_atom_catalog(tmp_path, "Eb")) as fh:
        doc = json.load(fh)
    first = doc["manifolds"][0]
    doc["manifolds"] = [first, dict(first, name="Zeta"), dict(first, b_minus=2)]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    for argv in (("catalog",), ("catalog", "Eb"), ("build", "Eb"), ("invariants", "Eb"),
                 ("beta2", "Eb # K3"), ("check", "hitchin-thorpe", "Eb"),
                 ("check", "exotic", "Eb # K3")):
        assert _run(capsys, "--catalog", str(path), *argv) == (
            1, "", "fourfold: error: manifolds[2]: field 'name' repeats manifolds[0]\n")


def test_search_reads_the_catalog_but_sums_the_built_ins(capsys, tmp_path):
    """``search`` reads --catalog as every other command does: a missing
    file ends in the same one line, with no output.  A good file leaves the
    search as it is, since its atoms are the built-ins, even when the file
    holds an atom named S1xS3."""
    search = _search_argv("spin", 3, 3, 2, 2)
    missing = str(tmp_path / "missing.json")
    code, out, err = _run(capsys, "--catalog", missing, "build", "K3")
    assert (code, out) == (1, "") and err.startswith("fourfold: error: ")
    assert _run(capsys, "--catalog", missing, *search) == (1, "", err)
    plain = _run(capsys, *search)
    assert plain[0] == 0 and plain[1].count("\n") == 4
    shadowing = str(_xns_catalog(tmp_path, ("Xns", "S1xS3")))
    assert _run(capsys, "--catalog", shadowing, *search) == plain


def test_an_atom_reports_its_own_name_as_its_record(capsys, tmp_path):
    """A document's summand record is not read: an atom made from
    ``catalog K3`` and renamed is its own single summand."""
    doc = dict(json.loads(_run(capsys, "catalog", "K3")[1])["manifold"], name="MyK3")
    path = tmp_path / "mine.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [doc]}))
    for argv in (("build", "MyK3"), ("catalog", "MyK3")):
        code, out, _ = _run(capsys, "--catalog", str(path), *argv)
        assert code == 0
        manifold = json.loads(out)["manifold"]
        assert (manifold["name"], manifold["summand_record"]) == ("MyK3", [["MyK3", 1]])
    code, out, _ = _run(capsys, "--catalog", str(path), "build", "MyK3 # K3")
    assert json.loads(out)["manifold"]["summand_record"] == [["K3", 1], ["MyK3", 1]]


def _one_atom_catalog(tmp_path, name, **fields):
    """A catalog file holding one simply connected non-spin atom ``name``
    with b1 = 0, no flags, lattice or spin-c structure, and the given fields."""
    doc = {"version": 1, "name": name, "b1": 0, "b_plus": 0, "b_minus": 1,
           "is_spin": False, "is_simply_connected": True, "flags": [],
           "lattice": None, "spinc": [], "sv_factors": [],
           "summand_record": [[name, 1]]}
    doc.update(fields)
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [doc]}))
    return str(path)


@pytest.mark.parametrize("name, fields, problem", [
    ("Xn", {"b_minus": 0, "lattice": {"basis": ["e"], "gram": [[-1]]}},
     "lattice has 1 negative directions but b- = 0"),
    ("Xs", {"sv_factors": [[1, 0, 3]]}, "invalid sv factor (1,0,3)"),
])
def test_an_invalid_catalog_atom_is_named_with_its_problem(capsys, tmp_path, name, fields,
                                                           problem):
    path = _one_atom_catalog(tmp_path, name, **fields)
    assert _run(capsys, "--catalog", path, "build", name) == (
        1, "", f"fourfold: error: invalid manifold document '{name}': {problem}\n")


def test_an_unflagged_b_plus_zero_rest_leaves_the_invariants_inconclusive(capsys, schema,
                                                                            tmp_path):
    path = _one_atom_catalog(tmp_path, "Zb")
    code, out, err = _run(capsys, "--catalog", path, "invariants", "K3 # K3 # Zb")
    assert (code, err) == (0, "")
    (doc,) = _validate_lines(schema, out)
    for key in ("Is", "Y", "K", "Ir"):
        assert doc[key]["inconclusive"].startswith("the b+ = 0 piece Zb is not flagged ")


def test_a_moduli_dimension_that_is_not_an_integer_is_reported(capsys, schema, tmp_path):
    # chi = 3, tau = 1: 2chi + 3tau = 9, and c1^2 - 9 = -7
    path = _one_atom_catalog(tmp_path, "Xo", b_plus=1, b_minus=0, spinc=[{
        "c1": None, "c1_squared": 2, "s_matrix": [], "sw_parity": "Unknown",
        "provenance": "Derived"}])
    code, out, err = _run(capsys, "--catalog", path, "invariants", "Xo")
    assert (code, err) == (0, "")
    (doc,) = _validate_lines(schema, out)
    (dim,) = doc["moduli_dimensions"]
    assert dim.startswith("(c1^2 - 2chi - 3tau) = -7 is not divisible by 4; ")


def test_check_decomposition_without_a_positive_piece(capsys):
    assert _run(capsys, "check", "decomposition", "CP2bar") == (
        1, "", "fourfold: error: no positive-b+ pieces to certify\n")


def test_theorem_b_needs_b_plus_over_one_for_its_second_alternative(capsys, tmp_path):
    """An almost complex atom with b+ = 1, odd parity and c1 = 0 (mod 4)
    meets neither alternative of Theorem B."""
    path = _one_atom_catalog(
        tmp_path, "Eb", b_plus=1, b_minus=9, flags=["AlmostComplex", "C1Mod4Zero"],
        spinc=[{"c1": None, "c1_squared": 0, "s_matrix": [], "sw_parity": "Odd",
                "provenance": "UserAsserted"}])
    code, out, _ = _run(capsys, "--catalog", path, "check", "theorem-b", "Eb # K3")
    doc = json.loads(out)
    assert (code, doc["verdict"]) == (2, "Inconclusive")
    eb, k3 = doc["certificate"]["premises"]
    assert (eb["text"].split(":")[0], eb["pass"], eb["witness"]) == (
        "part 1 (Eb)", False, "neither alternative")
    assert (k3["pass"], k3["witness"]) == (True, "b1 = 0, b+ = 3 (mod 4)")


def test_check_exotic_with_custom_catalog(capsys, schema, tmp_path):
    path = _xns_catalog(tmp_path)
    code, out, _ = _run(capsys, "--catalog", str(path),
                        "check", "exotic", "Xns # Kodaira")
    assert code == 0
    (report,) = _validate_lines(schema, out)
    assert report["verdict"] == "Nonvanishing"


def test_check_exotic_reads_the_catalog_once(capsys, monkeypatch, tmp_path):
    """One catalog load and one parse; x and xprime are evaluated once each,
    and no sum is validated again: every atom was validated when it was
    built or loaded, so their sum is valid by construction."""
    path = _xns_catalog(tmp_path)
    calls = {"load": 0, "parse": 0, "evaluate": 0}
    validated = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(catalog, "load_catalog_file",
                        counted("load", catalog.load_catalog_file))
    monkeypatch.setattr(parser, "parse", counted("parse", parser.parse))
    monkeypatch.setattr(parser, "evaluate", counted("evaluate", parser.evaluate))
    monkeypatch.setattr(cli, "validate", lambda m: validated.append(m.name) or model.validate(m))
    code, out, _ = _run(capsys, "--catalog", str(path), "check", "exotic", "Xns # 2*Kodaira")
    assert code == 0 and json.loads(out)["verdict"] == "Nonvanishing"
    assert calls == {"load": 1, "parse": 1, "evaluate": 2}
    assert validated == []


def _count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` in every package module that holds it; one entry per call."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    for mod in (certify, cli, einstein, monopole, surgery):
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, wrapper)
    return calls


@pytest.mark.parametrize("argv, certified", [
    (("invariants", "Sigma(3,3) # K3 # 5*CP2bar # 2*S1xS3"), 1),
    (("invariants", "4*K3"), 0),
    (("beta2", "Sigma(3,3) # K3 # 5*CP2bar # 2*S1xS3"), 1),
    (("check", "einstein", "Sigma(3,3) # K3 # 5*CP2bar # 2*S1xS3"), 1),
    (("check", "decomposition", "Sigma(3,3) # K3 # 5*CP2bar # 2*S1xS3"), 1),
])
def test_one_split_and_one_theorem_a_decision_per_report(capsys, monkeypatch, argv, certified):
    splits = _count_calls(monkeypatch, surgery.split_blowdown)
    decisions = _count_calls(monkeypatch, certify.check_theorem_A)
    code, _, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    assert len(splits) == 1 and len(decisions) == certified


def _past_cap_report(capsys, command, count):
    """(exit code, stdout, stderr) of the command on count*K3, run in under 1 s."""
    t0 = time.perf_counter()
    result = _run(capsys, *command, f"{count}*K3")
    assert time.perf_counter() - t0 < 1
    return result


# The characteristic numbers of count*K3, which scale with the count.
_SCALED = ("chi", "tau", "b_plus", "b_minus", "moduli_dimensions")


def test_past_the_piece_cap_reports_are_decided_from_the_count(capsys):
    over, at = PIECE_CAP + 1, PIECE_CAP
    for command, want in ((("invariants",), 0), (("beta2",), 2), (("check", "einstein"), 2)):
        reports = []
        for count in (over, at):
            code, out, err = _past_cap_report(capsys, command, count)
            assert (code, err) == (want, "")
            doc = {k: v for k, v in json.loads(out).items() if k not in _SCALED}
            reports.append(json.dumps(doc, sort_keys=True).replace(str(count), "<n>"))
        assert reports[0] == reports[1] and "over the cap" not in reports[0]
    assert "<n> positive-b+ pieces" in reports[0]
    with pytest.raises(PremiseError) as refused:
        require_part_count("theorem-a", over)
    assert _past_cap_report(capsys, ("check", "decomposition"), over) == (
        1, "", f"fourfold: error: {refused.value}\n")


def test_beta2(capsys, schema):
    code, out, _ = _run(capsys, "beta2", "2*Sigma(3,3) # CP2bar")
    assert code == 0
    (doc,) = _validate_lines(schema, out)
    assert doc["beta_squared"]["value"] == "64"
    code, _, _ = _run(capsys, "beta2", "K3")
    assert code == 2


def test_search_jsonl(capsys, schema):
    code, out, _ = _run(capsys, "search", "--mode", "spin", "--g", "3",
                        "--h", "3", "--mmax", "2", "--nmax", "2", "--c4", "1")
    assert code == 0
    docs = _validate_lines(schema, out)
    assert all(d["kind"] == "search-hit" for d in docs)
    assert any((d["m"], d["n"], d["l1"]) == (2, 2, 1) for d in docs)


def test_search_env_c4(capsys, monkeypatch):
    # a c4 of 10^6 leaves this search without hits; the environment is not read
    argv = ("search", "--mode", "spin", "--g", "3", "--h", "3", "--mmax", "2", "--nmax", "2")
    monkeypatch.delenv("FOURFOLD_C4", raising=False)
    plain = _run(capsys, *argv)
    monkeypatch.setenv("FOURFOLD_C4", "1000000")
    assert _run(capsys, *argv) == plain
    assert plain[0] == 0 and plain[1].count('"kind": "search-hit"') > 0


def test_usage_errors(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    code, _, err = _run(capsys, "check", "not-a-theorem", "K3")
    assert code == 1
    code, _, err = _run(capsys, "build", "Nope")
    assert code == 1 and "Nope" in err


def test_the_parser_is_built_once_per_process(capsys):
    cli._build_argparser.cache_clear()
    for argv in (["build", "K3"], ["frobnicate"], ["beta2", "K3 # K3"], ["catalog"]):
        main(argv)
    capsys.readouterr()
    assert cli._build_argparser.cache_info().misses == 1


def test_help_width_is_read_per_call(capsys, monkeypatch):
    texts = []
    for columns in ("60", "120", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] != texts[1] and texts[0] == texts[2]


# Strings with what JSON must escape (quotes, backslashes, control
# characters, non-ASCII) next to arbitrary text.
_TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2603\U0001d11e ab')
_SCALARS = (_TEXT | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
            | st.booleans() | st.none() | st.floats()
            | st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
_DOCS = st.recursive(
    _SCALARS | st.lists(st.integers() | st.booleans(), max_size=6),  # some mixed with bools
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


def _reference(doc):
    out = io.StringIO()
    emit_report(doc, out)
    return out.getvalue()


@given(st.dictionaries(_TEXT, _DOCS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_emit_matches_json_dump(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    assert out.getvalue() == _reference(doc)


# Matrix entries: zeros, signs, several digits and values past 2^63.
_ENTRIES = st.just(0) | st.integers(-12, 12) | st.integers(-2**70, 2**70)


@st.composite
def _square_rows(draw, antisymmetric):
    n = draw(st.integers(0, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + antisymmetric, n):
            x = draw(_ENTRIES)
            rows[i][j], rows[j][i] = x, -x if antisymmetric else x
    return rows


def _blocks(make, antisymmetric):
    """A single block, or a sum of 0..3 blocks of side 0..3, each repeated
    1..3 times."""
    block = _square_rows(antisymmetric).map(make)
    return block | st.lists(st.tuples(block, st.integers(1, 3)), max_size=3).map(tuple)


_LATTICES = _blocks(lambda rows: GramLattice(tuple(map(str, range(len(rows)))),
                                             tuple(map(tuple, rows))), False).map(
    lambda b: b if isinstance(b, GramLattice) else BlockLattice(b))
_SPINC = _blocks(lambda rows: SpinCStructure(c1=None, c1_squared=0, **sparse_s(rows)),
                 True).map(lambda b: b if isinstance(b, SpinCStructure) else BlockSpinC(b))


@given(_LATTICES, _SPINC)
@settings(max_examples=300, deadline=None)
def test_matrix_rows_print_as_the_dense_rows(lattice, g):
    """A Gram matrix and s-matrix built from blocks of nonzero entries print,
    at two nesting depths, as ``json.dump`` prints the oracle's dense rows."""
    gram, s = model.gram_rows(lattice), model.s_rows(g)
    assert (gram.side, s.side) == (lattice.rank, g.s_size)
    dense, dense_s = dense_gram(lattice), s_matrix(g)
    doc = {"gram": gram, "spinc": [{"n": 1, "s_matrix": s}], "x": {"y": [[gram, s]]}}
    ref = {"gram": dense, "spinc": [{"n": 1, "s_matrix": dense_s}], "x": {"y": [[dense, dense_s]]}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    assert out.getvalue() == _reference(ref)


@pytest.mark.parametrize("argv", [
    ("catalog",),
    ("catalog", "Sigma(3,3)"),
    ("build", "2*Sigma(3,3) # K3 # 3*CP2bar # S1xS3"),
    ("invariants", "Sigma(3,3) # K3 # 2*CP2bar"),
    ("--approx", "invariants", "Sigma(3,3) # K3 # 2*CP2bar"),
    ("--approx", "invariants", "Sigma(3,3) # K3", "--k", "1e400"),  # -Infinity
    ("invariants", "Sigma(3,3) # K3", "--k", "1e400"),
    *(("check", theorem, "Sigma(3,5) # Kodaira")
      for theorem in ("bauer", "theorem-a", "theorem-b", "hitchin-thorpe", "ght",
                      "einstein", "decomposition")),
    ("check", "exotic", "Xns # Kodaira"),
    ("beta2", "Sigma(3,3) # K3 # 2*CP2bar"),
    ("catalog", "S1xS3"),  # a 0 x 0 Gram matrix and a 1 x 1 s-matrix
])
def test_every_report_kind_matches_json_dump(capsys, monkeypatch, tmp_path, argv):
    docs = []
    real = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc: (docs.append(doc), real(doc)))
    code, out, err = _run(capsys, "--catalog", str(_xns_catalog(tmp_path)), *argv)
    assert err == "" and len(docs) == 1
    assert out == _reference(docs[0])


def _head(argv, size):
    """Run the CLI in a subprocess whose reader leaves after ``size`` bytes:
    (those bytes, stderr, exit code)."""
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-m", "fourfold.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(size)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return head, err, proc.wait(timeout=60)


def test_broken_pipe_exits_quietly():
    """`fourfold search ... | head -c 100`: the reader leaves after 100 bytes
    of a 115 kB report, more than a pipe buffers."""
    head, err, code = _head(["search", "--mode", "spin", "--g", "3", "--h", "3",
                             "--mmax", "4", "--nmax", "6"], 100)
    assert head.startswith(b'{"certificates"')
    assert err == ""
    assert code == 1


def test_broken_pipe_in_an_indented_report_exits_quietly():
    """`fourfold build ... | head -c 100` on a 2.5 MB report."""
    head, err, code = _head(["build", "Sigma(200,3) # 40*CP2bar"], 100)
    assert head.startswith(b'{\n  "kind"')
    assert err == ""
    assert code == 1


class _Digest:
    """A write-only stdout that keeps the sha256 of what is written to it and
    the length of its longest write."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.longest = 0

    def write(self, text):
        self.sha.update(text.encode())
        self.longest = max(self.longest, len(text))
        return len(text)

    def flush(self):
        pass


def _run_digest(capsys, monkeypatch, *argv):
    sink = _Digest()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", sink)
        code = main(list(argv))
    # a report streams: no write holds more than a few matrix rows (one
    # s-matrix row of Sigma(1021,3) is about 30 KB)
    assert sink.longest <= 64 * 1024
    return code, sink.sha.hexdigest(), capsys.readouterr().err


def _refuse(*_):
    raise AssertionError("matrix rows built past the dump cap")


def _cap_error(entries):
    return (f"fourfold: error: the JSON form would hold rank^2 + b1^2 = {entries} "
            f"matrix entries, over the cap of {catalog.DENSE_ENTRY_CAP}\n")


def test_sigma_family_is_capped(capsys, monkeypatch):
    """Only the dump cap bounds Sigma(g,h): checks run at any size, and
    Sigma(1021,3), with 2^2 + 2048^2 entries, is the largest that dumps."""
    code, _, err = _run(capsys, "check", "hitchin-thorpe", "Sigma(100000,3)")
    assert code == 0 and err == ""
    tracemalloc.start()
    try:
        code, digest, err = _run_digest(capsys, monkeypatch, "build", "Sigma(1021,3)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    # a 63 MB report of 2^2 + 2048^2 entries, printed from its nonzero entries
    assert peak < 4 * 2**20
    # recorded while the atom stored its zero s-matrix densely: the dump is unchanged
    assert digest == "e3fc2bf9f6fd7d1ba33561a318048df31a30c17298163c91193e2ed7554f32db"
    # past the cap, no matrix row is built
    monkeypatch.setattr(model, "_block_rows", _refuse)
    for argv, b1 in ((("build", "Sigma(1022,3)"), 2050),
                     (("build", "Sigma(100000,3)"), 200_006),
                     (("catalog", "Sigma(3,100000)"), 200_006)):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (1, "", _cap_error(2 * 2 + b1 * b1))


def test_dense_json_cap_boundary(capsys, monkeypatch):
    # sums and atoms share the cap: 2048^2 entries fit, 2049^2 do not
    code, _, err = _run_digest(capsys, monkeypatch, "build", "2048*S1xS3")
    assert (code, err) == (0, "")
    code, out, err = _run(capsys, "build", "2049*S1xS3")
    assert (code, out, err) == (1, "", _cap_error(2049 * 2049))


# -- searches stream their hits -------------------------------------------------

def _search_argv(mode, g, h, m_max, n_max, *rest):
    return ["search", "--mode", mode, "--g", str(g), "--h", str(h),
            "--mmax", str(m_max), "--nmax", str(n_max), *rest]


def _captured(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sorted_reference(mode, g, h, m_max, n_max, c4):
    """(exit code, stdout, stderr) the CLI must give, from the search that
    collects every hit and sorts."""
    hits, ties = search_by_sorting(mode, g, h, m_max, n_max, c4)
    return (2 if ties else 0), search_lines(mode, hits, ties), ""


_ODD = st.sampled_from([3, 5, 7, 9])


@given(mode=st.sampled_from(["spin", "nonspin"]),
       g_h=st.tuples(_ODD, _ODD).map(sorted),
       m_max=st.integers(2, 5), n_max=st.integers(1, 7),
       c4=st.sampled_from([Fraction(1), Fraction(7, 3), Fraction(10**3), Fraction(10**6),
                           TIE_C4]))
@settings(max_examples=50, deadline=None)
def test_search_stdout_matches_the_sorted_reference(mode, g_h, m_max, n_max, c4):
    g, h = g_h
    assert (_captured(_search_argv(mode, g, h, m_max, n_max, "--c4", str(c4)))
            == _sorted_reference(mode, g, h, m_max, n_max, c4))


@pytest.mark.parametrize("mode", ["spin", "nonspin"])
def test_search_ties_follow_the_hits_as_in_the_sorted_reference(monkeypatch, mode):
    # 50 digits of pi^2 leave TIE_C4's comparisons undecided
    monkeypatch.setattr(symbolic, "PI_DIGIT_CAP", 50)
    code, out, err = _captured(_search_argv(mode, 3, 3, 2, 2, "--c4", str(TIE_C4)))
    assert (code, out, err) == _sorted_reference(mode, 3, 3, 2, 2, TIE_C4)
    assert code == 2 and '"kind": "search-inconclusive"' in out.splitlines()[-1]


def _no_hit(*_, **__):
    raise AssertionError("a hit was built")


@pytest.mark.parametrize("argv, message", [
    (_search_argv("spin", 4, 3, 4, 6), "the searches need odd g, h >= 3; got (4,3)"),
    (_search_argv("nonspin", 3, 8, 4, 6), "the searches need odd g, h >= 3; got (3,8)"),
    (_search_argv("spin", 3, 3, 4, 6, "--c4", "0"), "bad --c4 value '0': not positive"),
    (_search_argv("nonspin", 3, 3, 4, 6, "--c4=-7/3"), "bad --c4 value '-7/3': not positive"),
    # 10,201 (m, n) pairs: refused for the l values they scan
    (_search_argv("spin", 3, 3, 102, 101),
     "a search scanning up to 1025150 values of l is over the cap of 100000"),
    # one m past the near-cap search --mmax 127, which scans 99,288 values of l
    (_search_argv("nonspin", 15, 15, 128, 2),
     "a search scanning up to 100076 values of l is over the cap of 100000"),
])
def test_search_errors_come_before_the_first_line(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(einstein, "connected_sum", _no_hit)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (1, "", f"fourfold: error: {message}\n")


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError


_HITS_1053 = _search_argv("nonspin", 7, 7, 4, 6)


def test_a_closed_pipe_stops_the_scan_at_the_first_hit(capsys, monkeypatch):
    built = []
    summed = einstein.connected_sum
    with monkeypatch.context() as patch:
        patch.setattr(einstein, "connected_sum",
                      lambda *args, **kwargs: built.append(1) or summed(*args, **kwargs))
        patch.setattr(sys, "stdout", _ClosedPipe())
        code = main(_HITS_1053)
    assert (code, capsys.readouterr().err) == (1, "")
    # the first hit's write fails: the scan stops there, after one sum, not
    # after 1,053
    assert len(built) == 1


def test_a_search_holds_one_hit_not_every_hit(capsys, monkeypatch):
    main(_search_argv("nonspin", 3, 3, 2, 2))  # build what every call shares
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, digest, err = _run_digest(capsys, monkeypatch, *_HITS_1053)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    # the 1,053 lines as written when the search sorted every hit before writing
    assert digest == "b9695c7191d08d09ed55df448c12b3ef2ab73c51979b4147061fb0a10d2f6005"
    # holding every hit took 2.26 MiB, a batch of 256 hits about 0.6 MiB;
    # one hit at a time takes about 0.16 MiB (CPython 3.11)
    assert peak < 256 * 1024


_INT_STR_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
_SMALL_SEARCH = ("search", "--mode", "spin", "--g", "3", "--h", "3",
                 "--mmax", "2", "--nmax", "2")


# ``env`` is a FOURFOLD_C4 value set in the environment, which the CLI ignores.
@pytest.mark.parametrize("argv, env, source", [
    (("invariants", "K3", "--k", "1/0"), None, "--k"),
    (("invariants", "K3", "--k", "abc"), None, "--k"),
    (("invariants", "K3", "--c4", "1/0"), None, "--c4"),
    (("check", "ght", "Sigma(3,3) # K3", "--c4", "1/0"), None, "--c4"),
    (("check", "ght", "Sigma(3,3) # K3", "--c4", "abc"), None, "--c4"),
    (_SMALL_SEARCH + ("--c4", "2/0"), None, "--c4"),
    (_SMALL_SEARCH + ("--c4", "x"), "1", "--c4"),
    # rationals that are not positive
    (_SMALL_SEARCH + ("--c4", "0"), "1/0", "--c4"),
    (("check", "ght", "Sigma(3,3) # K3", "--c4=-7/3"), "abc", "--c4"),
    # values past the int-str limit, refused before Fraction() expands them
    (("invariants", "K3", "--k=1e100000"), None, "--k"),
    (("invariants", "K3", "--c4", "1e10000000"), None, "--c4"),
    (_SMALL_SEARCH + ("--c4", "1e-10000000"), None, "--c4"),
    (("check", "ght", "Sigma(3,3) # K3", "--c4", "7" * 5000), None, "--c4"),
    (_SMALL_SEARCH + ("--c4=-7/3",), "1/" + "3" * 5000, "--c4"),
    (("invariants", "K3", "--k", "x" * 5000), None, "--k"),
    # values under the limit whose report derives a number over it
    (("invariants", "Sigma(3,3) # K3", "--c4", "9" * (_INT_STR_LIMIT - 1)), None, "--c4"),
    (("invariants", "Sigma(3,3) # K3", "--k", "9" * (_INT_STR_LIMIT - 1)), None, "--k"),
    # rationals that are not positive
    (("invariants", "Sigma(3,3) # K3", "--c4", "0"), "9" * (_INT_STR_LIMIT - 1), "--c4"),
    (("invariants", "Sigma(3,3) # K3", "--c4=-7/3"), None, "--c4"),
    (("check", "ght", "Sigma(3,3) # K3", "--c4", "0"), None, "--c4"),
])
def test_bad_rational_option_is_named(capsys, monkeypatch, argv, env, source):
    if env is not None:
        monkeypatch.setenv("FOURFOLD_C4", env)
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"fourfold: error: bad {source} value '")
    assert err.count("\n") == 1
    assert len(err) < 140  # at most 40 characters of the value are quoted


@pytest.mark.parametrize("argv", [
    ("invariants", "K3", "--k", "-2/3"),
    ("invariants", "K3", "--k", "-1e5"),
    ("invariants", "K3", "--k", "-.5"),
    ("invariants", "Sigma(3,3) # K3", "--c4", "-7/3"),
    ("check", "ght", "Sigma(3,3) # K3", "--c4", "-7/3"),
    _SMALL_SEARCH + ("--c4", "-7/3"),
    _SMALL_SEARCH + ("--c4", "-1e-3"),
])
def test_a_negative_option_value_reads_as_with_an_equals_sign(capsys, argv):
    """``--k -2/3`` and ``--c4 -7/3`` are values, not options: the run prints
    what ``--k=-2/3`` and ``--c4=-7/3`` print, and exits with the same code."""
    *head, option, value = argv
    spaced = _run(capsys, *argv)
    assert spaced == _run(capsys, *head, f"{option}={value}")
    assert "expected one argument" not in spaced[2]
    assert spaced[0] == (0 if option == "--k" else 1)


def test_sv_interval_past_the_int_str_limit_without_c4_names_the_interval(capsys):
    g = "9" * 2500
    code, out, err = _run(capsys, "invariants", f"Sigma({g},{g})")
    assert (code, out) == (1, "")
    assert err == ("fourfold: error: an end of the simplicial-volume interval has more "
                   f"than {_INT_STR_LIMIT} digits\n")


# The least orbit rank r whose class count 2^r has more digits than the limit.
_UNPRINTABLE_RANK = (10 ** _INT_STR_LIMIT).bit_length()


def test_orbit_whose_class_count_cannot_print_is_inconclusive(capsys, schema):
    expr = f"K3 # K3 # {_UNPRINTABLE_RANK - 2}*CP2bar"
    code, out, err = _run(capsys, "beta2", expr)
    assert (code, err) == (2, "")
    (doc,) = _validate_lines(schema, out)
    assert doc["beta_squared"] == {"inconclusive": (
        f"a sign orbit of {_UNPRINTABLE_RANK} generators has 2^{_UNPRINTABLE_RANK} "
        f"classes, a count of more than {_INT_STR_LIMIT} digits")}
    # one generator fewer, and the count prints
    code, out, err = _run(capsys, "beta2", f"K3 # K3 # {_UNPRINTABLE_RANK - 3}*CP2bar")
    assert (code, err) == (0, "")
    assert json.loads(out)["beta_squared"]["classes"] == 2 ** (_UNPRINTABLE_RANK - 1)


def test_a_disabled_int_str_limit_keeps_the_default_bound_on_the_orbit(capsys):
    # with the interpreter's limit off str() prints any count; the orbit
    # keeps the default bound of 4,300 digits
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = _run(capsys, "beta2", "K3 # K3 # 14283*CP2bar")
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, err) == (2, "")
    assert json.loads(out)["beta_squared"] == {"inconclusive": (
        "a sign orbit of 14285 generators has 2^14285 classes, a count of more than "
        f"{sys.int_info.default_max_str_digits} digits")}


# Sums whose piece count prints but whose b+ and 2chi - 3|tau| do not: the
# second is the falsifying example of test_cli_fuzz's one-error-line test.
_WITNESS_PAST_THE_LIMIT = (
    "K3 # " + "9" * 4290 + "*Sigma(999999,999999)",
    "1" * 40 + "*(" + "1" * 40 + "*(" + "1" * 4204 + "*Sigma(1909154673,1909221946)))",
)


@pytest.mark.parametrize("expr", _WITNESS_PAST_THE_LIMIT, ids=["nines", "ones"])
@pytest.mark.parametrize("theorem", cli.CHECK_IDS)
def test_a_witness_past_the_int_str_limit_is_one_error_line(capsys, schema, theorem, expr):
    """A certificate whose witness would print a derived number past the
    limit ends in one line naming the certificate and the limit; the other
    checks end as they would for any sum of that many pieces."""
    code, out, err = _run(capsys, "check", theorem, "--", expr)
    if theorem == "einstein":  # every number it prints is under the limit
        assert (code, err) == (2, "")
        _validate_lines(schema, out)
        return
    assert (code, out) == (1, "")
    assert err.startswith("fourfold: error: ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err
    if theorem in ("bauer", "hitchin-thorpe", "ght"):
        assert err == (f"fourfold: error: a number in the {theorem} certificate has more "
                       f"than {_INT_STR_LIMIT} digits\n")


@pytest.mark.parametrize("command", ["invariants", "beta2"])
def test_a_derived_value_past_the_int_str_limit_is_one_error_line(capsys, command):
    """Each Sigma parameter prints, but b+ of the product, which the
    non-vanishing premises quote, does not: the report is refused in one
    line naming it, not in the interpreter's own words."""
    nines = "9" * 2200
    code, out, err = _run(capsys, command, f"Sigma({nines},{nines}) # K3")
    assert (code, out) == (1, "")
    assert err == (f"fourfold: error: a number in the {command} report has more than "
                   f"{_INT_STR_LIMIT} digits\n")


def test_a_certificate_invariant_error_keeps_its_own_line(capsys, monkeypatch):
    """The int-str guard around a certificate renames no other ValueError."""
    def broken(m):
        return certify.Certificate("bauer", (certify.Premise("p", False),),
                                   certify.Verdict.OBSTRUCTED, "c")
    monkeypatch.setattr(cli, "check_bauer", broken)
    assert _run(capsys, "check", "bauer", "K3 # K3") == (
        1, "", "fourfold: error: Obstructed verdict with a failed premise in bauer\n")


@pytest.mark.parametrize("expr", [
    "9" * (_INT_STR_LIMIT - 1) + "*Gompf(2,0)",  # b- = 39 * that count
    "Y(" + "9" * _INT_STR_LIMIT + ")",  # a c1 entry 2l
], ids=["b_minus", "c1_entry"])
def test_report_holding_an_unprintable_int_writes_nothing(capsys, expr):
    code, out, err = _run(capsys, "build", expr)
    assert (code, out) == (1, "")
    assert err == ("fourfold: error: the report holds a number with more than "
                   f"{_INT_STR_LIMIT} digits\n")


_LONG = "7" * 5000  # more digits than the default int-str limit


@pytest.mark.parametrize("argv, message", [
    (("build", _LONG + "*K3"),
     f"integer of 5000 digits, over the limit of {_INT_STR_LIMIT} at offset 0"),
    (("build", f"K3 # Sigma({_LONG},3)"),
     f"integer of 5000 digits, over the limit of {_INT_STR_LIMIT} at offset 11"),
    (("catalog", f"Sigma({_LONG},3)"),
     f"a parameter of 'Sigma({'7' * 33}... has more than {_INT_STR_LIMIT} digits"),
], ids=["count", "argument", "catalog_id"])
def test_an_integer_past_the_int_str_limit_is_refused_where_it_stands(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"fourfold: error: {message}\n"
    assert "set_int_max_str_digits" not in err


def test_a_disabled_int_str_limit_keeps_the_default_bound_on_options(capsys):
    """With the interpreter's limit off (0), an option value still has the
    default bound of 4,300 digits, which stops ``--k 1e10000000`` from being
    expanded and its derived report from being printed."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = _run(capsys, "invariants", "Sigma(3,3) # K3", "--k", _LONG)
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, out) == (1, "")
    assert err.startswith("fourfold: error: bad --k value '")
    assert err.endswith(": 4300 digits or more\n")


def test_the_schema_lists_exactly_the_verdicts(schema):
    verdicts = schema["definitions"]["certificate"]["properties"]["verdict"]["enum"]
    assert len(verdicts) == len(set(verdicts))
    assert set(verdicts) == {v.value for v in certify.Verdict}


def test_rational_options_up_to_the_int_str_limit_parse():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert cli._rational(f"1e{limit - 2}", "--c4") == 10 ** (limit - 2)
    assert cli._rational(f"2.5e-{limit - 3}", "--c4") == Fraction(25, 10 ** (limit - 2))
    assert cli._rational(" 1_0E+1_0 ", "--c4") == 10**11
    for raw in (f"1e{limit - 1}", f"1e-{limit}", "9" * limit, f"0.5e-{limit - 1}"):
        with pytest.raises(FourfoldError, match=f"{limit} digits or more"):
            cli._rational(raw, "--c4")
