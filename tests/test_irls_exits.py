"""IRLS exit rules: every run ends by discrepancy, stall, cycle, convergence
or the cap.

A spy records each run's iterates, so the tests check the rules against
independent computations: a discrepancy exit only at the first iterate
inside the noise band, a stall exit only after the sign pattern held for
STALL_STEPS steps at a pattern whose least-squares residual (from lstsq, not
the solver's QR) exceeds the stalled threshold, and a cycle exit only after
the pattern alternated between two such patterns for 2 * STALL_STEPS steps.
The irls-sweep trial at benchmark seed 1 whose restart pipeline has a run
that alternates reaches the cycle rule instead of the iteration cap.  The
exits must cut the work on the irls-sweep-shaped corpus to under a third of
what the full schedule took, and keep the hit rate against the certified
oracle on a harder noiseless corpus.
"""

import dataclasses
import json

import numpy as np
from test_batched_kernels import irls_corpus

from lqphase import serialize, solver
from lqphase.frames import build_parseval_random
from lqphase.harness import derive_trial_seeds, sample_measurement_matrix
from lqphase.measurement import build_problem
from lqphase.signals import sample_dictionary_sparse
from lqphase.solver import (
    EXIT_RULES,
    STALL_STEPS,
    IrlsOptions,
    solve_irls,
    solve_oracle_noiseless,
)

# Weighted steps over irls_corpus() at default options when every run went
# through the whole continuation schedule.
FULL_SCHEDULE_STEPS = 9375


def _spy_runs(monkeypatch) -> list[dict]:
    """Record every _irls_converge call: its problem, starts, the stacked
    iterates of each weighted step and its return value; a row's last
    iterate is the last one recorded for it."""
    runs = []
    converge, step = solver._irls_converge, solver.irls_weighted_step

    def spy_step(A, D, p, b, x, *args):
        x_new = step(A, D, p, b, x, *args)
        runs[-1]["iterates"].append(x_new)
        return x_new

    def spy_converge(P, X, *args):
        runs.append({"P": P, "starts": X.copy(), "iterates": []})
        runs[-1]["out"] = converge(P, X, *args)
        return runs[-1]["out"]

    monkeypatch.setattr(solver, "irls_weighted_step", spy_step)
    monkeypatch.setattr(solver, "_irls_converge", spy_converge)
    return runs


def _trajectories(run: dict) -> list[list[np.ndarray]]:
    """Each row's start and iterates.  Rows leave the batch in place, so at
    step t row r sits at its rank among the rows still live."""
    steps = run["out"][4]
    paths = [[x] for x in run["starts"]]
    for t, X in enumerate(run["iterates"]):
        live = np.flatnonzero(steps > t)
        assert len(live) == len(X)
        for pos, r in enumerate(live):
            paths[r].append(X[pos])
    return paths


def _violation(P, x) -> float:
    return float(np.linalg.norm(np.abs(P.A @ x) - P.b)) - P.eps


def test_exits_follow_their_rules(monkeypatch):
    runs = _spy_runs(monkeypatch)
    for P in irls_corpus():
        # the tree path's runs start at feasible patterns and do not stall;
        # the restart pipeline's do
        solve_irls(P)
        solver._irls_restarts(P, IrlsOptions())
    seen = dict.fromkeys(EXIT_RULES, 0)
    for run in runs:
        P = run["P"]
        steps, rule = run["out"][4], run["out"][5]
        threshold = max(P.eps, 1e-7 * np.linalg.norm(P.b))
        for r, path in enumerate(_trajectories(run)):
            name = EXIT_RULES[rule[r]]
            seen[name] += 1
            assert len(path) == steps[r] + 1
            # no iterate before the last lies inside the noise band
            assert all(_violation(P, x) > 0.0 for x in path[1:-1])
            assert (_violation(P, path[-1]) <= 0.0) == (name == "discrepancy")
            if name == "stall":
                held = {tuple(np.where(P.A @ x >= 0.0, 1.0, -1.0)) for x in path[-STALL_STEPS - 1:]}
                assert len(held) == 1 and len(path) > STALL_STEPS
                p = np.array(held.pop())
                x_ls = np.linalg.lstsq(P.A, p * P.b, rcond=None)[0]
                assert np.linalg.norm(P.A @ x_ls - p * P.b) > threshold
            elif name == "max_iters":
                assert steps[r] == IrlsOptions().max_iters
    assert seen["discrepancy"] and seen["stall"]  # the corpus reaches both rules


def _pattern(P, x) -> tuple:
    return tuple(np.where(P.A @ x >= 0.0, 1.0, -1.0))


def _lstsq_residual(P, p) -> float:
    c = np.array(p) * P.b
    return float(np.linalg.norm(P.A @ np.linalg.lstsq(P.A, c, rcond=None)[0] - c))


def irls_sweep_trial(master_seed: int, cell: int, trial: int):
    """The problem and options of an irls-sweep trial (n = 8, N = 12, k = 2,
    eps = 0.01, near-isometric A with jitter 0.05; cells (m, q) = (16, 0.5),
    (16, 1), (24, 0.5), (24, 1)), from the harness's seed derivation."""
    m, q = [(16, 0.5), (16, 1.0), (24, 0.5), (24, 1.0)][cell]
    fseed, sseed, mseed, xseed = derive_trial_seeds(master_seed, cell, trial)
    F = build_parseval_random(8, 12, fseed)
    truth = sample_dictionary_sparse(F, 2, sseed)
    A = sample_measurement_matrix("near_isometric", m, 8, 0.05, mseed)
    P = build_problem(A, F, truth, q, noise=("bounded", 0.01), seed=xseed)
    return P, IrlsOptions(seed=xseed)


# irls-sweep trials (cell, trial) at seed 1 whose restart pipeline once had
# runs alternating between two infeasible patterns from the first steps on;
# since the sign stage only (0, 2) still has one.  solve_irls polishes these
# trials from the sign tree's feasible patterns, so the tests below call the
# restart pipeline itself.
CYCLING_TRIALS = ((0, 2), (2, 17), (2, 20), (3, 2))


def test_cycle_exits_follow_their_rule(monkeypatch):
    runs = _spy_runs(monkeypatch)
    for cell, trial in CYCLING_TRIALS:
        solver._irls_restarts(*irls_sweep_trial(1, cell, trial))
    cycles = 0
    for run in runs:
        P = run["P"]
        steps, rule = run["out"][4], run["out"][5]
        threshold = max(P.eps, 1e-7 * np.linalg.norm(P.b))
        for r, path in enumerate(_trajectories(run)):
            if EXIT_RULES[rule[r]] != "cycle":
                continue
            cycles += 1
            # S_t = S_(t-2) != S_(t-1) for the last 2 * STALL_STEPS steps
            pats = [_pattern(P, x) for x in path[-2 * STALL_STEPS - 2:]]
            assert len(pats) == 2 * STALL_STEPS + 2
            assert all(pats[t] == pats[t - 2] != pats[t - 1] for t in range(2, len(pats)))
            # the steps before them do not already make such a cycle
            if len(path) > 2 * STALL_STEPS + 2:
                early = _pattern(P, path[-2 * STALL_STEPS - 3])
                assert not (pats[1] == early != pats[0])
            assert min(_lstsq_residual(P, pats[-1]), _lstsq_residual(P, pats[-2])) > threshold
            assert steps[r] < IrlsOptions().max_iters
    assert cycles == 1  # the runs that otherwise reach the 500-step cap


def test_cycling_trial_ends_before_the_cap():
    # seed 1, cell 0, trial 2 of irls-sweep: a run alternates between two
    # infeasible patterns from step 1 on and, without the cycle rule, takes
    # the whole 500-step schedule
    res = solver._irls_restarts(*irls_sweep_trial(1, 0, 2))
    assert res.exits["max_iters"] == 0
    assert res.exits["cycle"] >= 1
    assert res.feasibility <= 0.01 * (1.0 + 1e-9)


def test_exit_counts_add_up_to_the_runs(monkeypatch):
    runs = _spy_runs(monkeypatch)
    for P in irls_corpus():
        del runs[:]
        res = solver._irls_restarts(P, IrlsOptions(restarts=6))
        assert set(res.exits) == set(EXIT_RULES)
        assert sum(res.exits.values()) == sum(len(run["starts"]) for run in runs)
        assert len(runs[0]["starts"]) == 6
        back = serialize.solver_result_from_dict(
            json.loads(serialize.json_text(dataclasses.asdict(res))))
        assert back.exits == res.exits
    assert solve_oracle_noiseless(P).exits == {}


def test_exits_cut_the_corpus_steps_below_a_third():
    steps = sum(solve_irls(P).steps for P in irls_corpus())
    assert steps < FULL_SCHEDULE_STEPS / 3


def harder_corpus():
    """Noiseless n = 6, N = 9, k = 2 problems at m = 6..10, 40 trials each,
    q alternating 0.5 / 1, Gaussian A / sqrt(m)."""
    for m in range(6, 11):
        for trial in range(40):
            i = 40 * (m - 6) + trial
            F = build_parseval_random(6, 9, seed=5000 + i)
            truth = sample_dictionary_sparse(F, 2, seed=6000 + i)
            A = np.random.default_rng(7000 + i).standard_normal((m, 6)) / np.sqrt(m)
            yield trial, build_problem(A, F, truth, q=0.5 if trial % 2 == 0 else 1.0)


def test_harder_corpus_keeps_its_oracle_hits():
    # a hit: the IRLS objective within 1e-6 relative of the certified oracle's;
    # the full schedule, before the exit rules, hit 157 of these 200
    hits = 0
    for trial, P in harder_corpus():
        oracle = solve_oracle_noiseless(P).objective
        irls = solve_irls(P, IrlsOptions(seed=trial)).objective
        hits += abs(irls - oracle) <= 1e-6 * oracle
    assert hits >= 157, f"only {hits}/200 reached the oracle objective"
