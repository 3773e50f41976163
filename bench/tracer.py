"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each target function by a wrapper in every
``fourfold`` module that holds it under any name, so calls made through a
module attribute (``exact.inertia``) and through a name imported with
``from ... import`` (``catalog_get`` in ``parser``) are both seen.  A span is
(name, start, end, parent span, op id); spans stay in memory in flat arrays
until the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

# Target -> (module, function, workloads on which it must be called).
# exact.solve_unique only serves the face-enumeration solvers, which no CLI
# path reaches at this commit: it is traced to show that it stays at 0.
TARGETS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "cli.main": ("cli", "main", ("geography", "invariants", "wide-sums")),
    "parser.parse": ("parser", "parse", ("invariants", "wide-sums")),
    "parser.evaluate": ("parser", "evaluate", ("invariants", "wide-sums")),
    "catalog.get": ("catalog", "catalog_get", ("geography", "invariants", "wide-sums")),
    "surgery.connected_sum": ("surgery", "connected_sum",
                              ("geography", "invariants", "wide-sums")),
    "surgery.split_blowdown": ("surgery", "split_blowdown", ("invariants", "wide-sums")),
    "model.validate": ("model", "validate", ("invariants", "wide-sums")),
    "exact.inertia": ("exact", "inertia", ("invariants", "wide-sums")),
    "exact.quadratic_form": ("exact", "quadratic_form", ("invariants", "wide-sums")),
    "exact.solve_unique": ("exact", "solve_unique", ()),
    "monopole.classes": ("monopole", "monopole_classes_for_sum", ("invariants",)),
    "monopole.beta2": ("monopole", "beta_squared_with_witness", ("invariants",)),
    "monopole.Is_Y_K": ("monopole", "invariant_Is_Y_K", ("invariants",)),
    "monopole.lambda_k": ("monopole", "lambda_bar_k", ("invariants",)),
    "monopole.Ir": ("monopole", "invariant_Ir", ("invariants",)),
    "einstein.search_spin": ("einstein", "search_spin_examples", ("geography",)),
    "einstein.search_nonspin": ("einstein", "search_nonspin_examples", ("geography",)),
    "einstein.hitchin_thorpe": ("einstein", "hitchin_thorpe", ("geography", "wide-sums")),
    "einstein.ght": ("einstein", "ght", ("geography", "wide-sums")),
    "einstein.einstein_obstruction": ("einstein", "einstein_obstruction", ("wide-sums",)),
    "einstein.corollary": ("einstein", "corollary_obstruction", ("geography",)),
    "symbolic.pi2_greater": ("symbolic", "pi2_greater", ("geography", "wide-sums")),
    "certify.theorem_A": ("certify", "check_theorem_A", ("invariants",)),
    "certify.moduli_dimension": ("certify", "moduli_dimension", ("invariants",)),
}

_INVARIANTS = ("monopole.Is_Y_K", "monopole.lambda_k", "monopole.Ir")
_SEARCH = ("einstein.search_spin", "einstein.search_nonspin")
_CERTS = ("einstein.hitchin_thorpe", "einstein.ght", "einstein.einstein_obstruction",
          "einstein.corollary")
_CERTIFY = ("certify.theorem_A", "certify.moduli_dimension")


class Tracer:
    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack: list[int] = []
        self.bindings: dict[str, list[str]] = {}
        # Exact counts gathered at the same boundaries.
        self.counts: Counter = Counter()
        self.orbit_ranks: Counter = Counter()
        self.lattice_ranks: Counter = Counter()
        self._seen_ids: set[str] = set()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen_ids = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "fourfold" or n.startswith("fourfold."))]
        for key, (mod_name, fn_name, _) in TARGETS.items():
            module = sys.modules.get(f"fourfold.{mod_name}")
            orig = getattr(module, fn_name, None)
            if orig is None:
                continue  # reported as a missing call by the self-test
            wrapper = self._wrap(self.names.index(key), orig, _HOOKS.get(key))
            self.bindings[key] = []
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self.bindings[key].append(f"{mod.__name__}.{attr}")

    def _wrap(self, name_id: int, fn: Callable, hook: Optional[Callable]) -> Callable:
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self, factors: list[float]) -> tuple[list[int], list[float]]:
        """Per target: (calls, self time in ns), each span's time scaled by
        its op's speed-correction factor."""
        dur = [(e - s) * factors[o] for s, e, o in zip(self.start, self.end, self.op)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, name_id in enumerate(self.name):
            calls[name_id] += 1
            self_ns[name_id] += dur[i] - child[i]
        return calls, self_ns

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (("name", self.name), ("start_ns", self.start), ("end_ns", self.end),
                  ("parent", self.parent), ("op", self.op))
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": [f"{n}:{a.typecode}{a.itemsize}" for n, a in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)


    def layer_metrics(self, wall_s: float,
                      factors: list[float]) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit), for ops that took
        ``wall_s`` seconds in all; what no span covers is the residual."""
        calls, self_ns = self.self_times(factors)
        by_key = {k: (c, s / 1e9) for k, c, s in zip(self.names, calls, self_ns)}

        def n(*keys: str) -> int:
            return sum(by_key[k][0] for k in keys)

        def s(*keys: str) -> float:
            return sum(by_key[k][1] for k in keys)

        c = self.counts
        out = {
            "catalog.get_calls": (n("catalog.get"), "count"),
            "catalog.get_s": (s("catalog.get"), "s"),
            "catalog.repeat_share": (c["catalog.get_repeats"] / max(1, n("catalog.get")),
                                     "ratio"),
            "surgery.connected_sum_calls": (n("surgery.connected_sum"), "count"),
            "surgery.connected_sum_s": (s("surgery.connected_sum"), "s"),
            "surgery.atoms_summed": (c["surgery.atoms_summed"], "count"),
            "surgery.split_blowdown_s": (s("surgery.split_blowdown"), "s"),
            "model.validate_calls": (n("model.validate"), "count"),
            "model.validate_s": (s("model.validate"), "s"),
            "model.lattice_rank_max": (max(self.lattice_ranks, default=0), "rank"),
            "exact.inertia_calls": (n("exact.inertia"), "count"),
            "exact.inertia_s": (s("exact.inertia"), "s"),
            "exact.quadratic_form_s": (s("exact.quadratic_form"), "s"),
            "exact.solve_unique_calls": (n("exact.solve_unique"), "count"),
            "monopole.classes_s": (s("monopole.classes"), "s"),
            "monopole.classes_enumerated": (c["monopole.classes_enumerated"], "count"),
            "monopole.orbit_rank_max": (max(self.orbit_ranks, default=0), "rank"),
            "monopole.beta2_s": (s("monopole.beta2"), "s"),
            "monopole.invariants_s": (s(*_INVARIANTS), "s"),
            "einstein.search_s": (s(*_SEARCH), "s"),
            "einstein.search_hits": (c["einstein.search_hits"], "count"),
            "einstein.search_ties": (c["einstein.search_ties"], "count"),
            "einstein.cert_calls": (n(*_CERTS), "count"),
            "einstein.cert_s": (s(*_CERTS), "s"),
            "symbolic.pi2_greater_calls": (n("symbolic.pi2_greater"), "count"),
            "symbolic.pi2_greater_s": (s("symbolic.pi2_greater"), "s"),
            "symbolic.pi2_ties": (c["symbolic.pi2_ties"], "count"),
            "parser.parse_s": (s("parser.parse"), "s"),
            "parser.evaluate_s": (s("parser.evaluate"), "s"),
            "parser.atoms": (c["parser.atoms"], "count"),
            "parser.distinct_atoms": (c["parser.distinct_atoms"], "count"),
            "certify.calls": (n(*_CERTIFY), "count"),
            "certify.s": (s(*_CERTIFY), "s"),
            "cli.self_s": (s("cli.main"), "s"),
            "trace.wall_s": (wall_s, "s"),
            "trace.residual_s": (wall_s - sum(self_ns) / 1e9, "s"),
        }
        return out

    def self_test(self, workload: str) -> list[str]:
        """Targets that missed the calls this workload is meant to make."""
        calls = [0] * len(self.names)
        for name_id in self.name:
            calls[name_id] += 1
        problems = []
        for key, count in zip(self.names, calls):
            meant = workload in TARGETS[key][2]
            if key not in self.bindings:
                problems.append(f"{key}: function not found")
            elif meant and count == 0:
                problems.append(f"{key}: no call")
            elif not TARGETS[key][2] and count:
                problems.append(f"{key}: {count} calls, expected none")
        return problems


# -- count hooks -----------------------------------------------------------


def _catalog_get(t: Tracer, args, result) -> None:
    block_id = args[0]
    t.counts["catalog.get_repeats"] += block_id in t._seen_ids
    t._seen_ids.add(block_id)


def _connected_sum(t: Tracer, args, result) -> None:
    t.counts["surgery.atoms_summed"] += len(result.pieces())


def _validate(t: Tracer, args, result) -> None:
    lattice = args[0].lattice
    t.lattice_ranks[0 if lattice is None else lattice.rank] += 1


def _classes(t: Tracer, args, result) -> None:
    t.counts["monopole.classes_enumerated"] += len(result.classes)
    t.orbit_ranks[result.rank] += 1


def _search(t: Tracer, args, result) -> None:
    t.counts["einstein.search_hits"] += len(result.hits)
    t.counts["einstein.search_ties"] += len(result.inconclusive)


def _pi2(t: Tracer, args, result) -> None:
    t.counts["symbolic.pi2_ties"] += result is None


def _evaluate(t: Tracer, args, result) -> None:
    t.counts["parser.atoms"] += len(result.pieces())
    t.counts["parser.distinct_atoms"] += len(result.summand_record)


_HOOKS = {
    "catalog.get": _catalog_get,
    "surgery.connected_sum": _connected_sum,
    "model.validate": _validate,
    "monopole.classes": _classes,
    "einstein.search_spin": _search,
    "einstein.search_nonspin": _search,
    "symbolic.pi2_greater": _pi2,
    "parser.evaluate": _evaluate,
}
