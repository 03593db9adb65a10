"""IRLS sign tree: every sign class whose least-squares residual is within the
stalled threshold, found by a row-by-row tree that prunes on partial residuals.

The tree's set is checked against brute-force enumeration of all 2^(m-1)
patterns for m <= 12, at thresholds that leave no class, one class, many
classes and a class whose residual is exactly the threshold, on tall and
square A with zero, negative and duplicated measurements and duplicated
rows.  The brute force takes its residuals from _pattern_residuals, and those
are checked against lstsq.  solve_irls must return a feasible x_hat on every
irls-sweep trial at seeds 0 and 1, polish one run per kept class, and fall
back to the restart pipeline, reporting no classes and no nodes, where the
tree does not run or keeps no class or too many.
"""

import dataclasses
import json
from itertools import product

import numpy as np
import pytest
from test_batched_kernels import irls_corpus
from test_irls_exits import irls_sweep_trial

from lqphase import serialize, solver
from lqphase.frames import build_parseval_random
from lqphase.measurement import PhaselessProblem
from lqphase.records import CSV_COLUMNS
from lqphase.solver import IrlsOptions, solve_irls


def _class(p, b) -> tuple:
    """The class {p, -p} of a pattern as p o b with its first nonzero entry
    positive; rows with b_i = 0 drop out, as in the residual."""
    c = p * b
    nz = np.flatnonzero(c)
    return tuple((c if not len(nz) or c[nz[0]] > 0 else -c) + 0.0)


def tree_corpus():
    """(A, b) with 1 <= n <= m <= 12: Gaussian A, noisy b with some negative
    entries, b with exact zeros, duplicated rows and measurements, and an A
    of condition number 1e4."""
    rng = np.random.default_rng(17)
    for m in range(1, 13):
        for n in sorted({1, (m + 1) // 2, min(m, 5), m}):
            A = rng.standard_normal((m, n)) / np.sqrt(m)
            x = rng.standard_normal(n)
            noise = 0.3 * rng.standard_normal(m) / np.sqrt(m)
            b = np.abs(A @ x) + noise
            yield A, b.copy()
            b[rng.random(m) < 0.3] = 0.0
            yield A, b
            if m >= 2 * n + 1:
                A2, b2 = A.copy(), b.copy()
                A2[-n:], b2[-n:] = A2[:n], b2[:n]  # duplicated rows and measurements
                yield A2, b2
    for m, n in ((8, 3), (12, 4)):
        U, _ = np.linalg.qr(rng.standard_normal((m, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (U * np.logspace(0, -4, n)) @ V.T
        yield A, np.abs(A @ rng.standard_normal(n)) + 0.05 * rng.standard_normal(m)


def _brute(A, b, Q):
    """Every pattern with first entry +1 and its residual, from
    _pattern_residuals, after checking them against lstsq."""
    S = solver._sign_patterns(len(b))
    resid = solver._pattern_residuals(Q, b, S)
    C = (S * b).T
    lstsq = np.linalg.norm(A @ np.linalg.lstsq(A, C, rcond=None)[0] - C, axis=0)
    assert np.max(np.abs(lstsq - resid)) <= 1e-12 * max(1.0, np.linalg.norm(b))
    return S, resid


def _assert_tree_equals_brute(A, b, Q, threshold, S, resid):
    tree = solver._sign_tree(A, b, threshold, Q)
    assert tree is not None
    kept, nodes = tree
    got = [_class(p, b) for p in kept]
    assert len(set(got)) == len(got)  # one pattern per class
    want = {_class(p, b) for p, r in zip(S, resid) if r <= threshold}
    assert set(got) == want
    assert nodes >= len(kept)
    return want


def test_tree_lists_exactly_the_brute_force_classes():
    levels = {"none": 0, "one": 0, "many": 0, "exact": 0}
    for A, b in tree_corpus():
        m = len(b)
        Q, _ = np.linalg.qr(A)
        S, resid = _brute(A, b, Q)
        scale = float(np.linalg.norm(b))
        # the residual of each class, smallest first
        classes = {}
        for p, r in zip(S, resid):
            classes.setdefault(_class(p, b), r)
        r = np.sort(np.array(list(classes.values())))
        half = len(r) // 2
        eps_levels = {"many": 0.5 * (r[half] + r[min(half + 1, len(r) - 1)])}
        if r[0] > 2e-7 * scale:
            eps_levels["none"] = 0.5 * r[0]
        if len(r) > 1 and r[1] - r[0] > 1e-9 * scale and r[0] > 1e-7 * scale:
            eps_levels["one"] = 0.5 * (r[0] + r[1])
        # a class exactly at the threshold: eps is its computed residual
        j = len(r) // 3
        if r[j] >= 1e-7 * scale:
            eps_levels["exact"] = r[j]
        for name, eps in eps_levels.items():
            threshold = solver._stall_threshold(eps, scale)
            want = _assert_tree_equals_brute(A, b, Q, threshold, S, resid)
            count = int(np.sum(r <= threshold))
            assert len(want) == count
            if name == "none":
                assert count == 0
            elif name == "one":
                assert count == 1
            elif name == "exact":
                assert threshold == r[j] and count > j
            levels[name] += 1
            if name == "many" and m > 4:
                assert count > 1
    assert min(levels.values()) >= 20, levels


def test_every_irls_sweep_trial_is_feasible():
    # the restart pipeline missed the one feasible class of seed 0 (0, 11)
    # and (1, 16) and seed 1 (0, 15)
    infeasible, classes = [], []
    for seed, cell, trial in product((0, 1), range(4), range(26)):
        P, opts = irls_sweep_trial(seed, cell, trial)
        res = solve_irls(P, opts)
        if res.feasibility > P.eps:
            infeasible.append((seed, cell, trial))
        classes.append(getattr(res, "feasible_classes", 0))
    assert infeasible == []
    assert min(classes) >= 1


def test_one_polish_run_per_kept_class(monkeypatch):
    starts = []
    converge = solver._irls_converge

    def spy(P, X, *args):
        starts.append(X.copy())
        return converge(P, X, *args)

    monkeypatch.setattr(solver, "_irls_converge", spy)
    for P in irls_corpus():
        if P.m < P.n:
            continue
        del starts[:]
        res = solve_irls(P)
        Q, _ = np.linalg.qr(P.A)
        S, _ = solver._sign_tree(P.A, P.b, solver._stall_threshold(P.eps, np.linalg.norm(P.b)), Q)
        assert len(starts) == 1 and len(starts[0]) == len(S) == res.feasible_classes
        assert sum(res.exits.values()) == res.feasible_classes
        # each run starts at its pattern's least-squares point
        assert np.allclose(starts[0] @ P.A.T, (S * P.b) @ (Q @ Q.T), rtol=0.0, atol=1e-12)
        back = serialize.solver_result_from_dict(
            json.loads(serialize.json_text(dataclasses.asdict(res))))
        assert (back.feasible_classes, back.tree_nodes) == (res.feasible_classes, res.tree_nodes)
    assert not {"feasible_classes", "tree_nodes"} & set(CSV_COLUMNS)


def _same(a, b) -> bool:
    return (a.x_hat.tobytes(), a.objective, a.feasibility, a.iterations, a.steps, a.exits) == \
        (b.x_hat.tobytes(), b.objective, b.feasibility, b.iterations, b.steps, b.exits)


def _assert_falls_back(P, opts=IrlsOptions()):
    res = solve_irls(P, opts)
    assert (res.feasible_classes, res.tree_nodes) == (0, 0)
    assert _same(res, solver._irls_restarts(P, opts))


def test_wide_A_falls_back_to_the_restart_pipeline():
    wide = [P for P in irls_corpus() if P.m < P.n]
    assert wide
    for P in wide:
        _assert_falls_back(P)


def test_rank_deficient_A_falls_back():
    P, opts = irls_sweep_trial(0, 0, 0)
    A = P.A.copy()
    A[:, 1] = A[:, 0]  # rank n - 1
    _assert_falls_back(PhaselessProblem(A=A, frame=P.frame, b=P.b, eps=P.eps, q=P.q), opts)


def test_node_budget_overrun_falls_back(monkeypatch):
    P, opts = irls_sweep_trial(1, 2, 5)
    Q, _ = np.linalg.qr(P.A)
    threshold = solver._stall_threshold(P.eps, np.linalg.norm(P.b))
    _, nodes = solver._sign_tree(P.A, P.b, threshold, Q)
    for budget in (2**7 - 1, nodes - 1):  # the basis patterns alone; the last layer
        monkeypatch.setattr(solver, "TREE_MAX_NODES", budget)
        assert solver._sign_tree(P.A, P.b, threshold, Q) is None
        _assert_falls_back(P, opts)
    monkeypatch.setattr(solver, "TREE_MAX_NODES", nodes)
    assert solver._sign_tree(P.A, P.b, threshold, Q)[1] == nodes


def test_no_kept_class_falls_back():
    # eps far below every pattern's residual: no x meets the constraint
    P, opts = irls_sweep_trial(0, 3, 1)
    tight = PhaselessProblem(A=P.A, frame=P.frame, b=P.b, eps=1e-6, q=P.q)
    Q, _ = np.linalg.qr(P.A)
    kept, nodes = solver._sign_tree(P.A, P.b, solver._stall_threshold(1e-6, np.linalg.norm(P.b)), Q)
    assert len(kept) == 0 and nodes > 0
    _assert_falls_back(tight, opts)


@pytest.mark.parametrize("zeros", [[0], [0, 1, 2], list(range(8))])
def test_zero_measurements_take_plus_one(zeros):
    # rows with b_i = 0 take +1 only, and the global sign is fixed at the
    # first nonzero measurement in tree order, even outside the basis rows
    rng = np.random.default_rng(len(zeros))
    A = rng.standard_normal((10, 4)) / np.sqrt(10)
    b = np.abs(A @ rng.standard_normal(4)) + 0.02 * rng.standard_normal(10)
    b[zeros] = 0.0
    Q, _ = np.linalg.qr(A)
    S, resid = _brute(A, b, Q)
    threshold = float(np.max(resid)) + 1.0  # every class
    kept, _ = solver._sign_tree(A, b, threshold, Q)
    assert np.all(kept[:, zeros] == 1.0)
    assert len(kept) == 2 ** (10 - len(zeros) - 1)
    _assert_tree_equals_brute(A, b, Q, threshold, S, resid)


def test_noiseless_square_A_keeps_every_class(monkeypatch):
    rng = np.random.default_rng(4)
    F = build_parseval_random(5, 7, seed=1)
    A = rng.standard_normal((5, 5))
    b = np.abs(A @ rng.standard_normal(5))
    P = PhaselessProblem(A=A, frame=F, b=b, eps=0.0, q=0.5)
    res = solve_irls(P)
    assert res.feasible_classes == 2**4 == sum(res.exits.values())
    assert res.tree_nodes == 2**4 and res.feasibility <= 1e-7 * np.linalg.norm(b)
    # more kept classes than one polish batch takes: the restart pipeline
    monkeypatch.setattr(solver, "TREE_MAX_CLASSES", 2**4 - 1)
    _assert_falls_back(P)


@pytest.mark.parametrize("n", [8, 9])
def test_square_A_polishes_up_to_the_class_cap(n):
    # at m = n every one of the 2^(n-1) classes is kept: n = 8 gives 128,
    # which one polish batch takes, and n = 9 gives 256, which goes to the
    # restart pipeline
    rng = np.random.default_rng(n)
    F = build_parseval_random(n, n + 4, seed=2)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    b = np.abs(A @ rng.standard_normal(n)) + 0.01 * rng.standard_normal(n) / np.sqrt(n)
    P = PhaselessProblem(A=A, frame=F, b=b, eps=0.01, q=0.5)
    if 2 ** (n - 1) <= solver.TREE_MAX_CLASSES:
        assert solve_irls(P).feasible_classes == 2 ** (n - 1)
    else:
        _assert_falls_back(P)
