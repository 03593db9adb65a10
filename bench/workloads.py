"""Benchmark workloads: configs, the nsp-certify driver and the work-count formulas.

Every workload is an `ExperimentConfig` whose `master_seed` is the benchmark
seed, so each trial is keyed by (cell_index, trial_index) exactly as in
`lqphase.harness`.  The three bound sweeps run through `run_bound_experiment`;
`nsp-certify` is driven from here, one instance per (cell, trial), with the
harness's own seed derivation and measurement ensembles.

README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import product
from math import ceil, comb, floor

from lqphase import (
    ExperimentConfig,
    TrialRecord,
    build_parseval_random,
    build_problem,
    nsp_real_falsify,
    phase_distance,
    run_bound_experiment,
    sample_dictionary_sparse,
    solve_oracle_noiseless,
)
from lqphase.errors import (
    DegenerateProblemError,
    InfeasibleProblemError,
    ResourceBudgetError,
)
from lqphase.harness import derive_trial_seeds, sample_measurement_matrix

DEFAULT_SEED = 0
HELDOUT_SEED = 1
NSP_BUDGET = 10**4
NSP_LAMBDA_MODE = "all_subsets"

# Grid and trial count per workload; every workload has at least 100 trials
# so that ten samples lie beyond trial_p90_ms.  `sweep_s` is the untraced
# sweep's wall time, with its paired calibration tasks, at the commit that
# defined the benchmark, on a 2-CPU VM;
# it fixes how many sweeps a run makes (run.round_count).  `layers` are the
# lqphase layers each trial must show a span for in a traced run.
WORKLOADS = {
    "oracle-sweep": dict(
        grid=dict(n_values=[6], N_values=[9], m_values=[3, 4, 5], k_values=[1, 2],
                  q_values=[0.5, 1.0], matrix_ensemble="gaussian"),
        trials=9,
        sweep_s=1.3,
        layers=("frames", "measurement", "rip", "solver", "bounds"),
    ),
    "sdrip-sweep": dict(
        grid=dict(n_values=[4], N_values=[14], m_values=[6, 7, 8], k_values=[2],
                  q_values=[1.0], matrix_ensemble="near_isometric", jitter=0.05,
                  compute_sdrip=True, oracle_max_m=12),
        trials=34,
        sweep_s=1.1,
        layers=("frames", "measurement", "rip", "solver", "bounds"),
    ),
    "irls-sweep": dict(
        grid=dict(n_values=[8], N_values=[12], m_values=[16, 24], k_values=[2],
                  q_values=[0.5, 1.0], eps_values=[0.01], solver="irls",
                  matrix_ensemble="near_isometric", jitter=0.05),
        trials=26,
        sweep_s=6.5,
        layers=("frames", "measurement", "rip", "solver", "bounds"),
    ),
    "nsp-certify": dict(
        grid=dict(n_values=[6], N_values=[8], m_values=[7], k_values=[1, 2],
                  q_values=[0.5, 1.0], matrix_ensemble="gaussian"),
        trials=39,
        sweep_s=6.0,
        layers=("frames", "measurement", "nsp", "solver"),
    ),
}


def build_config(name: str, seed: int) -> ExperimentConfig:
    """The validated config of a workload."""
    spec = WORKLOADS[name]
    cfg = ExperimentConfig(**spec["grid"], trials=spec["trials"], master_seed=seed)
    cfg.validate()
    return cfg


def warmup_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """One trial of one cell, run untimed so lazy set-up is done before timing."""
    return replace(cfg, trials=1, m_values=cfg.m_values[-1:], k_values=cfg.k_values[:1],
                   q_values=cfg.q_values[:1])


def run_sweep(name: str, cfg: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Run one sweep; returns records in (cell, trial) order and NSP witnesses by key."""
    if name == "nsp-certify":
        return run_nsp_certify(cfg)
    return run_bound_experiment(cfg, threads=1), {}


def instance(cfg: ExperimentConfig, cell: dict, trial: int):
    """(frame, truth, A, problem) of one trial, derived as lqphase.harness does."""
    fseed, sseed, mseed, xseed = derive_trial_seeds(cfg.master_seed, cell["cell_index"], trial)
    frame = build_parseval_random(cell["n"], cell["N"], fseed)
    truth = sample_dictionary_sparse(frame, cell["k"], sseed, cfg.magnitude_law)
    A = sample_measurement_matrix(cfg.matrix_ensemble, cell["m"], cell["n"], cfg.jitter, mseed)
    eps = cell.get("eps", 0.0)
    noise = ("bounded", eps) if eps > 0.0 else "none"
    problem = build_problem(A, frame, truth, cell["q"], noise=noise, seed=xseed)
    return frame, truth, A, problem


# A k=1 instance costs what the falsifier's budget allows, whatever the seed;
# a k=2 instance stops at its first witness, whose place in the scan varies
# tenfold between instances.  With as many of each, the median trial time
# falls between the two groups and jumps from seed to seed, so a k=2 cell
# runs a third of the config's trials.
NSP_TRIAL_DIVISOR = {2: 3}


def nsp_cells(cfg: ExperimentConfig) -> list[dict]:
    return [dict(cell_index=i, n=n, N=N, m=m, k=k, q=q,
                 trials=ceil(cfg.trials / NSP_TRIAL_DIVISOR.get(k, 1)))
            for i, (n, N, m, k, q) in enumerate(product(
                cfg.n_values, cfg.N_values, cfg.m_values, cfg.k_values, cfg.q_values))]


def nsp_trial(cfg: ExperimentConfig, cell: dict, trial: int):
    """Acceptance criterion 5 on one instance: NSP falsifier, then the oracle."""
    t0 = time.perf_counter()
    fseed, _, _, xseed = derive_trial_seeds(cfg.master_seed, cell["cell_index"], trial)
    base = dict(cell_index=cell["cell_index"], trial_index=trial, n=cell["n"], N=cell["N"],
                m=cell["m"], k=cell["k"], q=cell["q"], seed=fseed)
    try:
        frame, truth, A, problem = instance(cfg, cell, trial)
        witness = nsp_real_falsify(A, frame, cell["k"], cell["q"], budget=NSP_BUDGET,
                                   seed=xseed, lambda_mode=NSP_LAMBDA_MODE)
        result = solve_oracle_noiseless(problem, max_m=cfg.oracle_max_m,
                                        support_budget=cfg.support_budget)
    except (ResourceBudgetError, DegenerateProblemError, InfeasibleProblemError) as exc:
        return TrialRecord(**base, status="skipped", reason=f"{type(exc).__name__}: {exc}"), None
    record = TrialRecord(
        **base, reason="nsp witness" if witness is not None else "",
        method=result.method, objective=result.objective, feasibility=result.feasibility,
        lhs=phase_distance(result.x_hat, truth.x, field="real"),
        wall_time_s=time.perf_counter() - t0,
    )
    return record, witness


def run_nsp_certify(cfg: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    records, witnesses = [], {}
    for cell in nsp_cells(cfg):
        for trial in range(cell["trials"]):
            record, witness = nsp_trial(cfg, cell, trial)
            records.append(record)
            if witness is not None:
                witnesses[(cell["cell_index"], trial)] = witness
    return records, witnesses


# Work counts, computed from a call's inputs so they repeat exactly.

def half_subset_count(m: int, half_rule: str) -> int:
    lo = ceil(m / 2) if half_rule == "ceil" else max(1, floor(m / 2))
    return sum(comb(m, s) for s in range(lo, m + 1))


def sdrip_pairs(N: int, order: int, m: int, half_rule: str) -> int:
    return comb(N, order) * half_subset_count(m, half_rule)


def oracle_sign_patterns(m: int) -> int:
    return 2 ** (m - 1)


def oracle_systems(n: int, N: int, m: int) -> int:
    """Zero-pattern systems solved by the underdetermined oracle (none for m >= n)."""
    return 2 ** (m - 1) * comb(N, n - m) if m < n else 0


def nsp_cell_count(m: int, N: int, k: int, lambda_mode: str) -> int:
    top = m if lambda_mode == "all_subsets" else min(k, m)
    return sum(comb(m, s) for s in range(top + 1)) * comb(N, k)
