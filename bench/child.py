"""One workload run in a fresh process: a closed loop with one client.

Each op is an in-process call to ``fourfold.cli.main(argv)``, timed around
that call alone and corrected for the machine's momentary speed (see
``speed.py``).  Its stdout goes to ``OUT_DIR/<op index>.out``, as a CLI's
stdout goes to a file or pipe, so that neither the captured output nor its
check counts in this process's peak RSS; ``run.py`` checks the files after
this process ends.  Prints one JSON object with the run's results.

    PYTHONPATH=src python3 bench/child.py --workload NAME --seed N \
        --seconds S --trace 0|1 --out-dir OUT_DIR [--spans PATH]

Untraced, the loop runs whole blocks of the workload's stream until the ops'
corrected time reaches ``--seconds`` and at least ``MIN_OPS`` and
``trace_ops`` ops are done; a wall-clock cap of ``WALL_CAP`` times
``--seconds`` bounds the run on a heavily loaded host.  Traced, it runs
exactly the first ``trace_ops`` ops, so that counts and the stdout digest
depend on the seed alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
from workloads import WORKLOADS

WALL_CAP = 8
# p90 needs at least 10 samples beyond it.
MIN_OPS = 100


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        spans: Path | None) -> dict:
    import fourfold.cli as cli  # after the caller has set up sys.path

    wl = WORKLOADS[workload]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    main = cli.main  # looked up after install: the wrapper when traced

    stream = wl.stream(seed)
    latencies: list[int] = []
    refs: list[float] = []
    ref_samples: list[int] = []
    codes: list[int | None] = []
    messages: dict[int, str] = {}  # last stderr or traceback line, by op
    t_start = time.perf_counter()
    measured_s = 0.0
    # The kernel runs once between ops: op i is corrected by the mean of the
    # kernel times right before and right after it.
    ref_before = speed.kernel_ns()
    ref_samples.append(ref_before)
    i = 0
    while not (i >= wl.trace_ops and i % wl.block == 0 and (
            trace or i >= MIN_OPS and measured_s >= seconds
            or time.perf_counter() - t_start >= WALL_CAP * seconds)):
        op = next(stream)
        if tracer is not None:
            tracer.begin_op(i)
        # Start every op from a collected heap, as a fresh CLI process does,
        # so that no op pays for garbage the previous one left.
        gc.collect()
        err = io.StringIO()
        with open(out_dir / f"{i}.out", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                code = main(list(op.argv))
            except Exception:  # a traceback is a failed op, not a benchmark error
                code = None
                err.write(traceback.format_exc(limit=-1))
            t1 = time.perf_counter_ns()
        if err.getvalue().strip():
            messages[i] = err.getvalue().strip().splitlines()[-1]
        ref_after = speed.kernel_ns()
        latencies.append(t1 - t0)
        refs.append((ref_before + ref_after) / 2)
        ref_samples.append(ref_after)
        ref_before = ref_after
        measured_s += speed.corrected([t1 - t0], refs[-1:])[0] / 1e9
        codes.append(code)
        i += 1
    wall_s = time.perf_counter() - t_start

    op_s = sum(speed.corrected(latencies, refs)) / 1e9
    result = {
        "workload": workload, "seed": seed, "trace": int(trace), "ops": i,
        "codes": codes, "messages": messages, "wall_s": wall_s, "op_s": op_s,
        **_latency_metrics(speed.corrected(latencies, refs), wl.block),
        "uncorrected": _latency_metrics(latencies, wl.block),
        "ref_ns": {"min": min(ref_samples), "p50": statistics.median(ref_samples),
                   "max": max(ref_samples)},
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(op_s, [speed.NOMINAL_NS / r for r in refs])
        layers["trace.ops_per_s"] = (result["ops_per_s"], "1/s")
        result["layers"] = layers
        result["spans"] = len(tracer.name)
        result["bindings"] = tracer.bindings
        result["self_test"] = tracer.self_test(workload)
        result["orbit_rank_hist"] = sorted(tracer.orbit_ranks.items())
        result["lattice_rank_hist"] = sorted(tracer.lattice_ranks.items())
        if spans is not None:
            tracer.write(spans)
    return result


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  ``ru_maxrss`` is not used where VmHWM
    exists: after fork and exec it starts from the parent's peak, so a big
    parent would hide the child's figure."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _latency_metrics(latencies: list, block: int) -> dict:
    """ops_per_s is the median over the run's whole blocks of the block's
    ops per second, so one block hit by a burst of load cannot move it."""
    blocks = [latencies[i:i + block] for i in range(0, len(latencies), block)]
    return {"ops_per_s": statistics.median(len(b) / (sum(b) / 1e9) for b in blocks),
            "latency_p50_ms": statistics.median(latencies) / 1e6,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] / 1e6}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.out_dir, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
