"""Experiment orchestration: bound verification sweeps and phase transitions.

Every trial is a pure function of (config, master seed, cell index, trial
index); component seeds are the first four 32-bit words of
SeedSequence(entropy=(master_seed, cell_index, trial_index)), so any single
trial can be re-run in isolation.  Tasks run serially in canonical
(cell, trial) order, which makes the emitted CSV byte-identical across runs.

Both sweeps share one pipeline: `_grid` enumerates the cells, `_instance`
builds a trial's problem (frame, truth, A, b) from its seeds and raises
ConfigurationError for a cell that cannot exist, and `_solve` dispatches to
the certified oracle or to IRLS.  A bound trial runs the oracle when the
config's solver is "oracle"; a transition cell runs it up to the oracle guard
m <= oracle_max_m and IRLS above it.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import product
from math import inf

import numpy as np

from .bounds import verify_recovery_bound
from .errors import (
    ConfigurationError,
    DegenerateProblemError,
    InfeasibleProblemError,
    ParameterError,
    ResourceBudgetError,
)
from .frames import build_named_frame, build_parseval_random
from .lemmas import (
    sparse_convex_decomposition,
    subset_sum_identities,
    tail_power_bound_check,
)
from .measurement import PhaselessProblem, build_problem, phase_distance
from .records import MATRIX_ENSEMBLES, ExperimentConfig, TransitionCell, TrialRecord
from .rip import drip_constant, drip_order_for_t, sdrip_constants
from .serialize import from_dict
from .signals import lq_quasinorm, sample_dictionary_sparse
from .solver import IrlsOptions, SolverResult, solve_irls, solve_oracle_noiseless


def derive_trial_seeds(master_seed: int, cell_index: int, trial_index: int) -> tuple[int, int, int, int]:
    """Four component seeds (frame, signal, matrix, solver/noise) per trial."""
    ss = np.random.SeedSequence(entropy=(master_seed, cell_index, trial_index))
    return tuple(int(s) for s in ss.generate_state(4))


def sample_measurement_matrix(ensemble: str, m: int, n: int, jitter: float, seed: int) -> np.ndarray:
    """Measurement ensembles; Gaussian entries are N(0, 1/m) so ||Ax|| ~ ||x||."""
    if ensemble not in MATRIX_ENSEMBLES:
        raise ConfigurationError(f"unknown matrix ensemble {ensemble!r}")
    rng = np.random.default_rng(seed)
    if ensemble == "gaussian":
        return rng.standard_normal((m, n)) / np.sqrt(m)
    if m < n:
        raise ConfigurationError(f"{ensemble} ensemble needs m >= n, got m={m}, n={n}")
    G = rng.standard_normal((m, n))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    if ensemble == "orthonormal":
        return Q
    return Q + jitter * rng.standard_normal((m, n)) / np.sqrt(m)  # near_isometric


def _grid(cfg: ExperimentConfig, axes: tuple[str, ...]) -> list[dict]:
    """The cells of the grid over cfg.<axis>_values, in canonical (product) order."""
    return [dict(cell_index=idx, **dict(zip(axes, values)))
            for idx, values in enumerate(product(*(getattr(cfg, f"{a}_values") for a in axes)))]


def _bound_cells(cfg: ExperimentConfig) -> list[dict]:
    return _grid(cfg, ("n", "N", "m", "k", "q", "t", "eps"))


def transition_cells(cfg: ExperimentConfig) -> list[dict]:
    """The (n, N, m, k, q) cells of a phase-transition sweep, in canonical order."""
    return _grid(cfg, ("n", "N", "m", "k", "q"))


def _instance(cfg: ExperimentConfig, cell: dict, seeds: tuple[int, int, int, int]) -> PhaselessProblem:
    """The trial's problem (frame, truth, A, b) built from its seeds; a cell
    without eps is noiseless.  Raises ConfigurationError if no instance of the
    cell can exist: k > N, a named frame of another N, or a matrix ensemble
    that does not exist at (m, n)."""
    fseed, sseed, mseed, xseed = seeds
    n, N, k = cell["n"], cell["N"], cell["k"]
    if k > N:
        raise ConfigurationError(f"sparsity k={k} exceeds N={N}")
    if cfg.frame_kind == "random":
        frame = build_parseval_random(n, N, fseed)
    else:
        frame = build_named_frame(cfg.frame_kind, n)  # checks n and the name
        if frame.N != N:
            raise ConfigurationError(f"{cfg.frame_kind} frame at n={n} has N={frame.N}, not {N}")
    truth = sample_dictionary_sparse(frame, k, sseed, cfg.magnitude_law)
    A = sample_measurement_matrix(cfg.matrix_ensemble, cell["m"], n, cfg.jitter, mseed)
    eps = cell.get("eps", 0.0)
    noise = ("bounded", eps) if eps > 0.0 else "none"
    return build_problem(A, frame, truth, cell["q"], noise=noise, seed=xseed)


def _solve(cfg: ExperimentConfig, problem: PhaselessProblem, oracle: bool, seed: int) -> SolverResult:
    """The certified oracle under the config's guards, or IRLS seeded by the trial."""
    if oracle:
        return solve_oracle_noiseless(problem, max_m=cfg.oracle_max_m,
                                      support_budget=cfg.support_budget)
    return solve_irls(problem, from_dict(IrlsOptions, {**cfg.solver_options, "seed": seed}, "irls options"))


def _skipped(cell: dict, trial: int, seed: int, reason: str) -> TrialRecord:
    return TrialRecord(**cell, trial_index=trial, seed=seed, status="skipped", reason=reason)


def _run_bound_trial(cfg: ExperimentConfig, cell: dict, trial: int) -> TrialRecord:
    t0 = time.perf_counter()
    seeds = derive_trial_seeds(cfg.master_seed, cell["cell_index"], trial)
    fseed = seeds[0]
    N, m, k, t, eps = cell["N"], cell["m"], cell["k"], cell["t"], cell["eps"]
    if k < 1:
        return _skipped(cell, trial, fseed, "bound experiment needs k >= 1")
    order = drip_order_for_t(t, k)
    if order > N:
        return _skipped(cell, trial, fseed, f"order ceil(t*k)={order} exceeds N={N}")
    if cfg.solver == "oracle" and eps > 0.0:
        return _skipped(cell, trial, fseed, "certified oracle handles eps=0 only; use irls")
    if cfg.solver == "oracle" and m > cfg.oracle_max_m:
        return _skipped(cell, trial, fseed, f"oracle guard m <= {cfg.oracle_max_m}")
    try:
        problem = _instance(cfg, cell, seeds)
        A, frame = problem.A, problem.frame
        if cfg.compute_sdrip and m <= cfg.sdrip_max_m:
            rip = sdrip_constants(A, frame, order, half_rule=cfg.half_rule,
                                  support_budget=cfg.support_budget,
                                  max_m=cfg.sdrip_max_m)
        else:
            rip = drip_constant(A, frame, order, support_budget=cfg.support_budget)
        result = _solve(cfg, problem, cfg.solver == "oracle", seeds[3])
        record = verify_recovery_bound(problem, result, rip, t)
    except (ResourceBudgetError, ConfigurationError,
            DegenerateProblemError, InfeasibleProblemError) as exc:
        return _skipped(cell, trial, fseed, f"{type(exc).__name__}: {exc}")
    eps_realized = float(np.linalg.norm(problem.b - np.abs(A @ problem.truth.x)))
    return replace(record, cell_index=cell["cell_index"], trial_index=trial,
                   seed=fseed, eps_realized=eps_realized,
                   wall_time_s=time.perf_counter() - t0)


def _execute(tasks: list[tuple], worker, max_seconds: float | None, on_deadline):
    """Run worker(*args) for each task, in the given (canonical) order.  A task
    that starts once max_seconds have passed gives on_deadline(*args) instead."""
    # a NaN deadline would never be reached: every comparison with it is false
    if max_seconds is not None and not max_seconds >= 0.0:
        raise ParameterError(f"max_seconds must be None or a number >= 0, got {max_seconds}")
    deadline = time.perf_counter() + (inf if max_seconds is None else max_seconds)
    return [worker(*args) if time.perf_counter() < deadline else on_deadline(*args)
            for args in tasks]


def _deadline_skip(cfg: ExperimentConfig, cell: dict, trial: int) -> TrialRecord:
    fseed = derive_trial_seeds(cfg.master_seed, cell["cell_index"], trial)[0]
    return _skipped(cell, trial, fseed, "deadline")


def run_bound_experiment(
    cfg: ExperimentConfig,
    threads: int = 1,
    max_seconds: float | None = None,
) -> list[TrialRecord]:
    """One record per (cell, trial); guarded cells, and trials that would start
    after max_seconds, are skipped with a reason.  threads accepts only the
    benchmark's threads=1 and goes with its revision (ROADMAP item 2)."""
    if threads != 1:
        raise ParameterError(f"sweeps run serially; threads must be 1, got {threads}")
    cfg.validate()
    tasks = [(cfg, c, ti) for c in _bound_cells(cfg) for ti in range(cfg.trials)]
    return _execute(tasks, _run_bound_trial, max_seconds, _deadline_skip)


def _run_transition_cell(cfg: ExperimentConfig, cell: dict) -> TransitionCell | str:
    """The cell's success count and solver errors, or why it cannot be run."""
    successes = 0
    errors = []
    for trial in range(cfg.trials):
        seeds = derive_trial_seeds(cfg.master_seed, cell["cell_index"], trial)
        try:
            problem = _instance(cfg, cell, seeds)
        except ConfigurationError as exc:
            return f"bad configuration ({exc})"
        try:
            result = _solve(cfg, problem, cell["m"] <= cfg.oracle_max_m, seeds[3])
        except (ResourceBudgetError, InfeasibleProblemError, DegenerateProblemError) as exc:
            errors.append(type(exc).__name__)
            continue
        x = problem.truth.x
        if phase_distance(result.x_hat, x, field="real") <= cfg.success_tol * np.linalg.norm(x) + 1e-15:
            successes += 1
    return TransitionCell(**cell, trials=cfg.trials, successes=successes, errors=tuple(errors))


def transition_sweep(
    cfg: ExperimentConfig,
    max_seconds: float | None = None,
) -> tuple[list[TransitionCell], dict[int, str]]:
    """Success fraction per (n, N, m, k, q) cell for noiseless recovery, and the
    reason, by cell index, for every cell left out: one that cannot be built, or
    one that would start after max_seconds ("deadline")."""
    cfg.validate()
    tasks = [(cfg, c) for c in transition_cells(cfg)]
    outcomes = _execute(tasks, _run_transition_cell, max_seconds, lambda *args: "deadline")
    cells = [c for c in outcomes if isinstance(c, TransitionCell)]
    not_run = {i: c for i, c in enumerate(outcomes) if isinstance(c, str)}
    return cells, not_run


def selfcheck_lemmas(seed: int = 0) -> tuple[bool, list[str]]:
    """Quick property sweep over the lemma utilities; returns (ok, report lines)."""
    rng = np.random.default_rng(seed)
    lines = []
    ok = True

    cases = 0
    exact = True
    for k in range(2, 7):
        for l in range(1, k + 1):
            for _ in range(10):
                v = rng.integers(-9, 10, size=k)
                ident = subset_sum_identities(k, l, v)
                cases += 1
                if ident.lhs1 != ident.rhs1 or ident.lhs2 != ident.rhs2:
                    exact = False
    ok &= exact
    lines.append(f"subset-sum identities: {'OK' if exact else 'FAIL'} ({cases} cases)")

    good = True
    n_dec = 0
    for _ in range(200):
        r = int(rng.integers(2, 10))
        k = int(rng.integers(1, r + 1))
        q = float(rng.uniform(0.2, 1.0))
        x = np.zeros(12)
        supp = rng.choice(12, size=r, replace=False)
        x[supp] = rng.standard_normal(r) * rng.uniform(0.5, 2.0)
        x[supp[np.abs(x[supp]) < 1e-6]] = 1.0
        alpha = max(np.max(np.abs(x)), (lq_quasinorm(x, q) / k) ** (1.0 / q)) * (1.0 + rng.uniform(0, 1))
        dec = sparse_convex_decomposition(x, k, alpha, q)
        n_dec += 1
        bound = min((r / k) * float(np.sum(x**2)),
                    alpha**q * float(np.sum(np.abs(x[supp]) ** (2.0 - q))))
        if (np.linalg.norm(dec.reconstruct() - x) > 1e-10 * max(1.0, np.linalg.norm(x))
                or abs(float(np.sum(dec.weights)) - 1.0) > 1e-12
                or np.any(np.count_nonzero(dec.atoms, axis=1) > k)
                or dec.weighted_energy() > bound + 1e-9):
            good = False
    ok &= good
    lines.append(f"sparse convex decomposition: {'OK' if good else 'FAIL'} ({n_dec} cases)")

    held = True
    for _ in range(2000):
        r = int(rng.integers(2, 12))
        k = int(rng.integers(1, r + 1))
        b = np.sort(rng.uniform(0, 3, size=r))[::-1]
        omega = float(rng.uniform(1.0, 4.0))
        gap = float(np.sum(b[k:]) - np.sum(b[:k]))
        d = max(0.0, gap) + float(rng.uniform(0, 1))
        res = tail_power_bound_check(b, k, d, omega)
        if not res.holds:
            held = False
    ok &= held
    lines.append(f"tail power bound: {'OK' if held else 'FAIL'} (2000 cases)")
    return bool(ok), lines
