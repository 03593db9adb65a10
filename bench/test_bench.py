"""Tests of the benchmark itself: work-count formulas, percentiles, tracing and checks."""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, product
from math import ceil, comb
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import envinfo  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from lqphase import build_parseval_random, harness, sdrip_constants  # noqa: E402
from lqphase.nsp import _lambda_list  # noqa: E402
from lqphase.records import records_to_csv  # noqa: E402

SMOKE_SEED = 987  # not in reference.json, so only the seed-free checks apply


def _subsets(m):
    return [tuple(i for i in range(m) if bits[i]) for bits in product((0, 1), repeat=m)]


@pytest.mark.parametrize("N,order,m", [(5, 2, 4), (6, 3, 5), (4, 1, 3)])
def test_rip_counts_match_enumeration(N, order, m):
    supports = list(combinations(range(N), order))
    assert comb(N, order) == len(supports)
    for rule, lo in (("ceil", ceil(m / 2)), ("floor", max(1, m // 2))):
        pairs = [(S, I) for S in supports for I in _subsets(m) if len(I) >= lo]
        assert workloads.sdrip_pairs(N, order, m, rule) == len(pairs)


def test_sdrip_pairs_match_the_enumeration_sdrip_reports():
    F = build_parseval_random(3, 5, seed=1)
    A = np.random.default_rng(2).standard_normal((5, 3))
    report = sdrip_constants(A, F, 2)
    assert workloads.sdrip_pairs(5, 2, 5, "ceil") == (
        report.details["n_supports"] * report.details["n_subsets"])


@pytest.mark.parametrize("n,N,m", [(4, 6, 2), (4, 6, 3), (3, 5, 3), (3, 5, 4)])
def test_oracle_counts_match_enumeration(n, N, m):
    signs = [(1.0,) + tail for tail in product((1.0, -1.0), repeat=m - 1)]
    systems = [(s, Z) for s in signs for Z in combinations(range(N), n - m)] if m < n else []
    assert workloads.oracle_sign_patterns(m) == len(signs)
    assert workloads.oracle_systems(n, N, m) == len(systems)


@pytest.mark.parametrize("m,N,k", [(3, 4, 1), (4, 5, 2)])
def test_nsp_cells_match_enumeration(m, N, k):
    supports = list(combinations(range(N), k))
    for mode, rows in (("all_subsets", _subsets(m)),
                       ("card_at_most_k", [I for I in _subsets(m) if len(I) <= k])):
        assert workloads.nsp_cell_count(m, N, k, mode) == len(rows) * len(supports)
        assert len(_lambda_list(m, k, mode)) == len(rows)


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        summary.p90(range(99))
    assert summary.p90(range(100)) == 89
    assert summary.p90(range(1, 111)) == 99  # eleven samples lie beyond it


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_traced_equals_untraced(name):
    cfg = replace(workloads.build_config(name, SMOKE_SEED), trials=1)
    records, witnesses = workloads.run_sweep(name, cfg)
    with spans.Tracer(name) as tracer:
        traced, _ = workloads.run_sweep(name, cfg)
    assert records_to_csv(traced) == records_to_csv(records)
    assert all(r.status == "ok" for r in records)
    assert checks.check_sweep(name, cfg, records, witnesses) == {}
    assert spans.missing_layers(tracer.spans, records, workloads.WORKLOADS[name]["layers"]) == {}
    assert {s.key for s in tracer.spans} == {(name, r.cell_index, r.trial_index) for r in records}
    layers = spans.layer_metrics(tracer.spans, tracer.counts, 1.0, records, 0.0)
    assert set(layers) | {"trace.overhead_frac"} == set(spans.UNITS)
    # the originals are back once the tracer exits
    assert workloads.nsp_real_falsify.__module__ == "lqphase.nsp"


@pytest.mark.parametrize("name", ["oracle-sweep", "nsp-certify"])
def test_paired_task_follows_every_trial(name):
    cfg = replace(workloads.build_config(name, SMOKE_SEED), trials=1)
    plain, _ = workloads.run_sweep(name, cfg)
    with calib.Paired() as paired:
        records, _ = workloads.run_sweep(name, cfg)
    assert len(paired.times) == len(records) and min(paired.times) > 0
    assert records_to_csv(records) == records_to_csv(plain)
    assert harness._run_bound_trial.__name__ == "_run_bound_trial"
    assert workloads.nsp_trial.__name__ == "nsp_trial"


def test_checks_flag_a_worse_oracle_objective():
    cfg = replace(workloads.build_config("oracle-sweep", SMOKE_SEED), trials=1)
    records, _ = workloads.run_sweep("oracle-sweep", cfg)
    broken = [replace(records[0], objective=1e6)] + records[1:]
    problems = checks.check_sweep("oracle-sweep", cfg, broken, {})
    assert list(problems) == [(records[0].cell_index, records[0].trial_index)]


def test_reference_covers_default_and_heldout_seeds():
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
            reference = checks.load_reference(name, seed)
            cfg = workloads.build_config(name, seed)
            if name == "nsp-certify":
                trials = sum(cell["trials"] for cell in workloads.nsp_cells(cfg))
            else:
                trials = len(harness._bound_cells(cfg)) * cfg.trials
            assert len(reference) == trials


def test_environment_comparison_ignores_only_the_code():
    env = {"nproc": 2, "numpy": "2.0", "commit": "a", "source_sha256": "x"}
    assert envinfo.comparable(env, {**env, "commit": "b", "source_sha256": "y"}) == []
    assert envinfo.comparable(env, {**env, "nproc": 4}) == ["nproc"]


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
