import json
from importlib import resources

import jsonschema
import pytest

from fourfold.catalog import catalog_get, manifold_to_json
from fourfold.cli import main


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


def test_check_exotic_with_custom_catalog(capsys, schema, tmp_path):
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
    path.write_text(json.dumps({"version": 1, "manifolds": [doc]}))
    code, out, _ = _run(capsys, "--catalog", str(path),
                        "check", "exotic", "Xns # Kodaira")
    assert code == 0
    (report,) = _validate_lines(schema, out)
    assert report["verdict"] == "Nonvanishing"


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
    monkeypatch.setenv("FOURFOLD_C4", "1000000")
    code, out, _ = _run(capsys, "search", "--mode", "spin", "--g", "3",
                        "--h", "3", "--mmax", "2", "--nmax", "2")
    assert code == 0
    assert out.strip() == ""


def test_usage_errors(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    code, _, err = _run(capsys, "check", "not-a-theorem", "K3")
    assert code == 1
    code, _, err = _run(capsys, "build", "Nope")
    assert code == 1 and "Nope" in err


def test_broken_pipe_exits_quietly():
    """`fourfold search ... | head -c 100`: the reader leaves after 100 bytes
    of a 115 kB report, more than a pipe buffers."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fourfold.cli", "search", "--mode", "spin", "--g", "3",
         "--h", "3", "--mmax", "4", "--nmax", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert head.startswith(b'{"certificates"')
    assert err == ""
    assert code == 1
