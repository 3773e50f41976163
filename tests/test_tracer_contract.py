"""The benchmark tracer's contract, checked in a fresh interpreter.  On
geography searches every template of a hit line (one per cell and outcome
shape, so one per cell with a hit on these grids) calls the three
certificates through their modules exactly once, and every cell with a hit
calls ``connected_sum`` once.  Every function the geography, invariants and wide-sums workloads are
meant to reach is reached by the commands those workloads run."""

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
cells = 0
for argv in {searches!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(fourfold.cli.main(argv))  # the wrapper, after install
    hits = [json.loads(line) for line in out.getvalue().splitlines() if "search-hit" in line]
    codes.append(len(hits))
    cells += len({{(hit["m"], hit["n"]) for hit in hits}})
layers = tracer.layer_metrics(1.0, [1.0])
print(json.dumps({{
    "codes": codes,
    "self_test": tracer.self_test("geography"),
    "hits": tracer.counts["einstein.search_hits"],
    "cells": cells,
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
    assert 0 < result["cells"] < hits
    assert result["cert_calls"] == 3 * result["cells"]
    assert result["connected_sum_calls"] == result["cells"]
    # the scan decides ght's three pi^2 inequalities for every (passing) hit,
    # and each template's ght decides them again; each cell's two bisections
    # decide the first inequality at fewer l than a scan of every l
    cells = [cell for argv in _SEARCHES for cell in _cell_ranges(argv)]
    scanned = sum(last - lo + 1 for lo, last in cells)
    bisected = result["pi2_calls"] - 3 * hits - 3 * result["cells"]
    assert 0 < bisected <= sum(2 * (last - lo + 1).bit_length() for lo, last in cells)
    assert bisected < scanned


def _cell_ranges(argv):
    """The (lo, last) range of l of every cell of the search."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    g, h = int(opts["--g"]), int(opts["--h"])
    return [einstein._l_range(opts["--mode"], n, (g - 1) * (h - 1))
            for _, n in einstein._spin_cells(int(opts["--mmax"]), int(opts["--nmax"]))]


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
