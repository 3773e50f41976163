"""Benchmark of the fourfold CLI: seeded closed-loop workloads, end-to-end
metrics from untraced runs and per-layer self time from traced runs.

One workload, as a driver calls it (last stdout line is the result)::

    python3 bench/run.py --workload geography --seed 1 --seconds 6 --trace 0

Every workload, with the traced run, the determinism self-check, a held-out
seed and the workload property report::

    python3 bench/run.py [--seed 1] [--seconds 6] [--out report.json]

Run from the root of a source checkout; the package is imported from
``src/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
HELD_OUT_SEED = 7_919_011
MAX_PROBLEMS = 5

# End-to-end metrics, in the order they are reported: (name, unit).
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# Signals "ready" as soon as the CLI module is imported, then times the
# reference kernel in the same, now warm, interpreter.
_SETUP_CODE = """
import sys
import fourfold.cli
sys.stdout.write("ready\\n")
sys.stdout.flush()
sys.path.insert(0, {bench!r})
import speed
print(speed.kernel_ns())
"""


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median corrected time from spawning an interpreter to ``fourfold.cli``
    being imported and ready for the first op, over ``samples`` fresh
    processes after one warm-up spawn, so that bytecode caches exist as they
    do for an installed package."""
    times = []
    code = _SETUP_CODE.format(bench=str(BENCH))
    for i in range(samples + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True)
        with proc:
            ready = proc.stdout.readline()
            t1 = time.perf_counter_ns()
            # Read the rest through the same buffered stream as "ready": the
            # kernel time may already sit in its buffer.
            rest = proc.stdout.read()
        if ready != "ready\n" or proc.returncode != 0:
            raise BenchError(f"importing fourfold.cli failed: {(ready + rest).strip()[-500:]}")
        if i:
            times += speed.corrected([t1 - t0], [float(rest)])
    return statistics.median(times) / 1e9


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              spans: Path | None = None) -> dict:
    """Run one workload in a fresh process, then check its outputs here."""
    out_dir = ROOT / ".bench_build" / "out" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out-dir", str(out_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} run exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} run failed: {err.strip()[-1000:]}")
    run = json.loads(out.strip().splitlines()[-1])
    check_outputs(run, out_dir)
    return run


def check_outputs(run: dict, out_dir: Path) -> None:
    """Check every op's output against the workload's independent check and
    add the failure counts, the stdout digest and the output sizes to ``run``."""
    wl = WORKLOADS[run["workload"]]
    digest = hashlib.sha256()
    sizes, problems = [], []
    failed = incorrect = 0
    ops = wl.stream(run["seed"])
    for i, code in enumerate(run["codes"]):
        op = next(ops)
        text = (out_dir / f"{i}.out").read_text(encoding="utf-8")
        sizes.append(len(text.encode()))
        if i < wl.trace_ops:
            digest.update(f"{i} {code}\n".encode() + text.encode())
        problem = wl.check(op, code, text) if code is not None else "exception"
        if problem is not None:
            failed += 1
            incorrect += code in (0, 2)
            if len(problems) < MAX_PROBLEMS:
                message = run["messages"].get(str(i), "")
                problems.append(f"{' '.join(op.argv)[:160]} -> {problem[:200]} {message}")
    run.update(failed=failed, incorrect=incorrect, problems=problems,
               exits=dict(Counter(str(c) for c in run["codes"])),
               digest_ops=min(len(sizes), wl.trace_ops), stdout_sha256=digest.hexdigest(),
               output_bytes={"total": sum(sizes), "p50": statistics.median(sizes),
                             "max": max(sizes)})
    if "layers" in run:
        run["layers"]["cli.output_bytes"] = [sum(sizes), "B"]


def _check_checkout() -> None:
    if not (ROOT / "src" / "fourfold" / "cli.py").is_file():
        raise BenchError(f"no src/fourfold/cli.py under {ROOT}: run from a source checkout")


def one_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        run = run_child(workload, seed, seconds, True,
                        ROOT / ".bench_build" / "spans" / f"{workload}.bin")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["layers"].items()}
    else:
        setup = measure_setup()
        run = run_child(workload, seed, seconds, False)
        run["setup_s"] = setup
        metrics = {k: {"value": run[k], "unit": u} for k, u in END_TO_END}
    return {"correct": run["incorrect"] == 0, "attempted": run["ops"],
            "failed": run["failed"], "metrics": metrics}


# -- the full report ------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def full_report(seed: int, seconds: float) -> tuple[dict, bool]:
    report: dict = {"seed": seed, "seconds": seconds, "held_out_seed": HELD_OUT_SEED,
                    "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
                    "workloads": {}}
    ok = True
    for w in tuple(WORKLOADS):
        print(f"== {w}", flush=True)
        setup = measure_setup()
        plain = run_child(w, seed, seconds, False)
        traced = [run_child(w, seed, seconds, True,
                            ROOT / ".bench_build" / "spans" / f"{w}.bin")
                  for _ in range(2)]
        held = run_child(w, HELD_OUT_SEED, seconds, True)
        plain["setup_s"] = setup
        e2e = {k: plain[k] for k, _ in END_TO_END}
        e2e["error_rate"] = plain["failed"] / plain["ops"]
        for k, u in END_TO_END + (("error_rate", "ratio"),):
            print(f"  {k:<16} {_fmt(e2e[k]):>12} {u}")
        print(f"  uncorrected: " + ", ".join(f"{k} {_fmt(v)}"
                                            for k, v in plain["uncorrected"].items())
              + f"; reference kernel ns {plain['ref_ns']}")
        print(f"  ops {plain['ops']} (p90 over {plain['ops']} samples), failed "
              f"{plain['failed']}, wrong outputs {plain['incorrect']}, exits {plain['exits']}")
        for p in plain["problems"]:
            print(f"    failed op: {p}")

        t = traced[0]
        layers = t["layers"]
        print(f"  traced run: {t['ops']} ops, {t['spans']} spans")
        for k, (v, u) in layers.items():
            print(f"    {k:<30} {_fmt(v):>14} {u}")
        wall = layers["trace.wall_s"][0]
        self_sum = sum(v for k, (v, u) in layers.items()
                       if u == "s" and not k.startswith("trace."))
        overhead = plain["ops_per_s"] - layers["trace.ops_per_s"][0]
        print(f"  self times {_fmt(self_sum)} s + residual "
              f"{_fmt(layers['trace.residual_s'][0])} s = traced wall {_fmt(wall)} s")
        print(f"  tracing overhead: ops_per_s {_fmt(plain['ops_per_s'])} untraced - "
              f"{_fmt(layers['trace.ops_per_s'][0])} traced = {_fmt(overhead)} 1/s")

        counts = {k: v for k, (v, u) in layers.items()
                  if u in ("count", "rank", "B")}
        same_counts = counts == {k: v for k, (v, u) in traced[1]["layers"].items()
                                 if u in ("count", "rank", "B")}
        digests = {r["stdout_sha256"] for r in (plain, *traced)}
        checks = {
            "exact counts repeat": same_counts,
            f"stdout sha256 of the first {t['ops']} ops repeats": len(digests) == 1,
            "wrapped functions self-test": not t["self_test"],
            f"held-out seed {HELD_OUT_SEED} runs with correct outputs":
                held["incorrect"] == 0,
            "every exit-0/2 output passes its check": plain["incorrect"] == 0,
        }
        for name, passed in checks.items():
            print(f"  {'PASS' if passed else 'FAIL'} {name}")
        for problem in t["self_test"]:
            print(f"    self-test: {problem}")
        ok &= all(checks.values())
        print(f"  stdout sha256 {t['stdout_sha256']}")

        repeat = layers["catalog.repeat_share"][0]
        print(f"  properties: atom repeat share {_fmt(repeat)}; "
              f"orbit ranks {dict(t['orbit_rank_hist'])}; "
              f"lattice ranks {_rank_bins(t['lattice_rank_hist'])}; "
              f"output bytes per op {plain['output_bytes']}")
        report["workloads"][w] = {
            "end_to_end": e2e, "uncorrected": plain["uncorrected"],
            "ref_ns": plain["ref_ns"], "ops": plain["ops"], "failed": plain["failed"],
            "exits": plain["exits"], "problems": plain["problems"],
            "layers": {k: v for k, (v, _) in layers.items()},
            "traced_ops": t["ops"], "spans": t["spans"],
            "stdout_sha256": t["stdout_sha256"], "checks": checks,
            "properties": {"atom_repeat_share": repeat,
                           "orbit_rank_hist": t["orbit_rank_hist"],
                           "lattice_rank_hist": t["lattice_rank_hist"],
                           "output_bytes": plain["output_bytes"]},
            "bindings": t["bindings"],
        }
    return report, ok


def _rank_bins(hist: list) -> dict:
    bins: dict = {}
    for rank, n in hist:
        lo = rank // 25 * 25
        key = f"{lo}-{lo + 24}"
        bins[key] = bins.get(key, 0) + n
    return bins


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6,
                    help="corrected op time an untraced run measures (run_seconds "
                         "in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the full report as JSON")
    args = ap.parse_args(argv)
    try:
        _check_checkout()
        if args.workload:
            result = one_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        report, ok = full_report(args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("self-checks", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
