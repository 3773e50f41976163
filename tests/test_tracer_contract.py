"""The benchmark tracer's contract, checked in a fresh interpreter.  On
geography searches every hit calls ``connected_sum`` and the three
certificates through their modules exactly once.  Every function the
geography, invariants and wide-sums workloads are meant to reach is reached
by the commands those workloads run."""

import json
import subprocess
import sys
from pathlib import Path

from fourfold import einstein

ROOT = Path(__file__).resolve().parent.parent

_PRELUDE = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import fourfold.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.begin_op(0)
codes = []
"""

_SCRIPT = _PRELUDE + """
for argv in {searches!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(fourfold.cli.main(argv))  # the wrapper, after install
    codes.append(sum(1 for line in out.getvalue().splitlines() if "search-hit" in line))
layers = tracer.layer_metrics(1.0, [1.0])
print(json.dumps({{
    "codes": codes,
    "self_test": tracer.self_test("geography"),
    "hits": tracer.counts["einstein.search_hits"],
    "cert_calls": layers["einstein.cert_calls"][0],
    "connected_sum_calls": layers["surgery.connected_sum_calls"][0],
    "pi2_calls": layers["symbolic.pi2_greater_calls"][0],
}}))
"""

_SEARCHES = [
    ["search", "--mode", "spin", "--g", "3", "--h", "5", "--mmax", "3", "--nmax", "4"],
    ["search", "--mode", "nonspin", "--g", "3", "--h", "3", "--mmax", "2", "--nmax", "2"],
]


def _traced(script: str, **fields) -> dict:
    """The last stdout line of the script, run in a fresh interpreter, as JSON."""
    script = script.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"), **fields)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_sees_one_call_per_hit_to_each_public_function():
    result = _traced(_SCRIPT, searches=_SEARCHES)
    spin_code, spin_hits, nonspin_code, nonspin_hits = result["codes"]
    assert spin_code == nonspin_code == 0 and spin_hits > 0 and nonspin_hits > 0
    hits = result["hits"]
    assert hits == spin_hits + nonspin_hits
    assert result["self_test"] == []
    assert result["cert_calls"] == 3 * hits
    assert result["connected_sum_calls"] == hits
    # the scan decides one pi^2 inequality per l; ght three per (passing) hit
    scanned = sum(_scan_size(argv) for argv in _SEARCHES)
    assert result["pi2_calls"] == scanned + 3 * hits


def _scan_size(argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    g, h = int(opts["--g"]), int(opts["--h"])
    total = 0
    for _, n in einstein._spin_cells(int(opts["--mmax"]), int(opts["--nmax"])):
        lo, hi = einstein._l_range(opts["--mode"], n, (g - 1) * (h - 1))
        total += max(0, hi - lo + 1)
    return total


_REPORTS_SCRIPT = _PRELUDE + """
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(fourfold.cli.main(argv))  # the wrapper, after install
print(json.dumps({{"codes": codes, "invariants": tracer.self_test("invariants"),
                  "wide-sums": tracer.self_test("wide-sums")}}))
"""

_EXPR = "2*Sigma(3,3) # 18*CP2bar # S1xS3"
# One of each command the invariants and wide-sums workloads run.
_REPORTS = [["invariants", _EXPR], ["beta2", _EXPR], ["build", _EXPR],
            ["check", "hitchin-thorpe", _EXPR], ["check", "ght", _EXPR],
            ["check", "einstein", _EXPR]]


def test_tracer_sees_every_function_the_report_workloads_reach():
    result = _traced(_REPORTS_SCRIPT, commands=_REPORTS)
    assert result == {"codes": [0] * len(_REPORTS), "invariants": [], "wide-sums": []}
