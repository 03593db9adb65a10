"""Spans around calls into lqphase layers, recorded from outside the package.

A `Tracer` replaces module attributes (the names `lqphase.harness` and the
nsp-certify driver look up at call time) with timing wrappers, and puts the
originals back on exit.  Each span is keyed by (workload, cell_index,
trial_index) and carries its nesting depth: the trial span has depth 0, a
layer call inside it depth 1, and a call nested in a layer call depth 2
(the DRIP pass inside `sdrip_constants`).  Work counts are computed from each
call's inputs, so they repeat exactly.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from dataclasses import dataclass
from math import comb

import workloads
from lqphase import harness, rip


@dataclass(frozen=True)
class Span:
    name: str
    key: tuple
    start: float
    end: float
    depth: int

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count_oracle(counts, bound, result):
    A, N = bound["P"].A, bound["P"].frame.N
    m, n = A.shape
    counts["solver.oracle_sign_patterns"] += workloads.oracle_sign_patterns(m)
    counts["solver.oracle_systems"] += workloads.oracle_systems(n, N, m)


def _count_irls(counts, bound, result):
    counts["solver.irls_best_restart_iterations"] += result.iterations


def _count_drip(counts, bound, result):
    counts["rip.supports"] += comb(bound["F"].N, bound["order"])


def _count_sdrip(counts, bound, result):
    m = bound["A"].shape[0]
    counts["rip.sdrip_pairs"] += workloads.sdrip_pairs(bound["F"].N, bound["order"], m,
                                                       bound["half_rule"])


def _count_nsp(counts, bound, result):
    m = bound["A"].shape[0]
    counts["nsp.cells"] += workloads.nsp_cell_count(m, bound["F"].N, bound["k"],
                                                    bound["lambda_mode"])
    counts["nsp.calls"] += 1
    counts["nsp.witnesses"] += result is not None


# (module, attribute, span name, counter).  A name missing from its module
# raises, so a refactor that renames an entry point cannot go untraced.
TARGETS = [
    (harness, "_run_bound_trial", "harness.trial", None),
    (workloads, "nsp_trial", "harness.trial", None),
    (harness, "build_parseval_random", "frames.build", None),
    (workloads, "build_parseval_random", "frames.build", None),
    (harness, "sample_dictionary_sparse", "measurement.signal", None),
    (workloads, "sample_dictionary_sparse", "measurement.signal", None),
    (harness, "sample_measurement_matrix", "measurement.matrix", None),
    (workloads, "sample_measurement_matrix", "measurement.matrix", None),
    (harness, "build_problem", "measurement.problem", None),
    (workloads, "build_problem", "measurement.problem", None),
    (harness, "drip_constant", "rip.drip", _count_drip),
    (rip, "drip_constant", "rip.drip", _count_drip),
    (harness, "sdrip_constants", "rip.sdrip", _count_sdrip),
    (harness, "solve_oracle_noiseless", "solver.oracle", _count_oracle),
    (workloads, "solve_oracle_noiseless", "solver.oracle", _count_oracle),
    (harness, "solve_irls", "solver.irls", _count_irls),
    (harness, "verify_recovery_bound", "bounds.verify", None),
    (workloads, "nsp_real_falsify", "nsp.falsify", _count_nsp),
]


class Tracer:
    """Context manager that records spans and counts for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._key: tuple | None = None
        self._depth = 0
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name, counter in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, counter):
        signature = inspect.signature(fn)
        is_trial = name == "harness.trial"

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if is_trial:
                self._key = (self.workload, bound.arguments["cell"]["cell_index"],
                             bound.arguments["trial"])
            depth = self._depth
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth = depth
                self.spans.append(Span(name, self._key, start, end, depth))
            if counter is not None:
                counter(self.counts, bound.arguments, result)
            return result

        return wrapper


# Per-layer metrics with their units, in the order a traced run prints them.
# Each *_busy_s is followed by its share of the sweep.
UNITS = {
    "solver.oracle_busy_s": "s", "solver.oracle_share": "ratio",
    "solver.oracle_sign_patterns": "count", "solver.oracle_systems": "count",
    "solver.us_per_system": "us",
    "rip.drip_busy_s": "s", "rip.drip_share": "ratio", "rip.supports": "count",
    "rip.sdrip_busy_s": "s", "rip.sdrip_share": "ratio", "rip.sdrip_pairs": "count",
    "rip.ns_per_pair": "ns",
    "solver.irls_busy_s": "s", "solver.irls_share": "ratio",
    "solver.irls_best_restart_iterations": "count",
    "nsp.falsify_busy_s": "s", "nsp.falsify_share": "ratio", "nsp.cells": "count",
    "nsp.witness_rate": "ratio",
    "frames.busy_s": "s", "frames.share": "ratio",
    "measurement.busy_s": "s", "measurement.share": "ratio",
    "bounds.busy_s": "s", "bounds.share": "ratio",
    "records.emit_s": "s",
    "harness.self_s": "s", "harness.skipped": "count",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[Span], counts: Counter, sweep_s: float, records,
                  emit_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sweep; trace.overhead_frac needs the
    untraced sweeps and is added by the caller."""
    busy = Counter()
    for s in spans:
        busy[s.name] += s.seconds
    busy["measurement"] = sum(busy[f"measurement.{part}"] for part in ("signal", "matrix", "problem"))
    direct = sum(s.seconds for s in spans if s.depth == 1)
    out = {
        "solver.oracle_busy_s": busy["solver.oracle"],
        "solver.oracle_sign_patterns": counts["solver.oracle_sign_patterns"],
        "solver.oracle_systems": counts["solver.oracle_systems"],
        "solver.us_per_system": _per(busy["solver.oracle"], counts["solver.oracle_systems"], 1e6),
        "rip.drip_busy_s": busy["rip.drip"],
        "rip.supports": counts["rip.supports"],
        "rip.sdrip_busy_s": busy["rip.sdrip"],
        "rip.sdrip_pairs": counts["rip.sdrip_pairs"],
        "rip.ns_per_pair": _per(busy["rip.sdrip"], counts["rip.sdrip_pairs"], 1e9),
        "solver.irls_busy_s": busy["solver.irls"],
        "solver.irls_best_restart_iterations": counts["solver.irls_best_restart_iterations"],
        "nsp.falsify_busy_s": busy["nsp.falsify"],
        "nsp.cells": counts["nsp.cells"],
        "nsp.witness_rate": _per(counts["nsp.witnesses"], counts["nsp.calls"], 1.0),
        "frames.busy_s": busy["frames.build"],
        "measurement.busy_s": busy["measurement"],
        "bounds.busy_s": busy["bounds.verify"],
        "records.emit_s": emit_s,
        "harness.self_s": sweep_s - direct,
        "harness.skipped": sum(r.status == "skipped" for r in records),
    }
    for name in [k for k in out if k.endswith("busy_s")]:
        out[name.replace("busy_s", "share")] = out[name] / sweep_s
    return out


def _per(total: float, count: float, scale: float) -> float:
    return scale * total / count if count else 0.0


def missing_layers(spans: list[Span], records, expected: tuple[str, ...]) -> dict:
    """Trials lacking a layer span they should have: {(cell, trial): [layer, ...]}."""
    seen: dict[tuple, set] = {}
    for s in spans:
        if s.depth >= 1:
            seen.setdefault(s.key[1:], set()).add(s.layer)
    out = {}
    for r in records:
        if r.status != "ok":
            continue
        key = (r.cell_index, r.trial_index)
        lacking = [layer for layer in expected if layer not in seen.get(key, set())]
        if lacking:
            out[key] = lacking
    return out
