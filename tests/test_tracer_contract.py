"""The benchmark tracer's contract on geography searches, checked in a fresh
interpreter: every hit calls ``connected_sum`` and the three certificates
through their modules exactly once, and every function the geography
workload is meant to reach is reached."""

import json
import subprocess
import sys
from pathlib import Path

from fourfold import einstein

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import fourfold.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.begin_op(0)
codes = []
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


def test_tracer_sees_one_call_per_hit_to_each_public_function():
    script = _SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                            searches=_SEARCHES)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
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
