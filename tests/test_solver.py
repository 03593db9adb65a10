import dataclasses
import json
from itertools import combinations, product

import numpy as np
import pytest
from test_batched_kernels import irls_restarts

from lqphase import serialize, solver
from lqphase.errors import (
    DegenerateProblemError,
    InfeasibleProblemError,
    ParameterError,
    ResourceBudgetError,
)
from lqphase.frames import build_named_frame, build_parseval_random
from lqphase.measurement import PhaselessProblem, build_problem, phase_distance
from lqphase.signals import lq_quasinorm, sample_dictionary_sparse
from lqphase.solver import (
    FEAS_RTOL,
    irls_weighted_step,
    solve_irls,
    solve_oracle_noiseless,
)


def l1_min_breakpoints(A, c):
    """Independent l1 oracle for a one-dimensional null space: the piecewise
    linear objective ||x_p + t d||_1 attains its minimum at a kink."""
    x_p, *_ = np.linalg.lstsq(A, c, rcond=None)
    _, _, vh = np.linalg.svd(A)
    d = vh[-1]
    ts = [0.0] + [-x_p[i] / d[i] for i in range(len(d)) if abs(d[i]) > 1e-12]
    vals = [np.sum(np.abs(x_p + t * d)) for t in ts]
    return min(vals)


def zero_pattern_l1(A, c, N):
    """Fresh zero-pattern enumeration (independent of the library code path)."""
    m, n = A.shape
    best = np.inf
    for Z in combinations(range(N), n - m):
        M = np.zeros((n, n))
        M[:m] = A
        for row, idx in enumerate(Z):
            M[m + row, idx] = 1.0
        try:
            x = np.linalg.solve(M, np.concatenate([c, np.zeros(n - m)]))
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(A @ x - c) < 1e-8 * max(1.0, np.linalg.norm(c)):
            best = min(best, np.sum(np.abs(x)))
    return best


def _noiseless(A, F, b, q):
    return PhaselessProblem(A=A, frame=F, b=np.asarray(b, dtype=float), eps=0.0, q=q)


def _per_sign_minimum(referee, A, b):
    """The referee's minimum over the 2^(m-1) sign patterns of b, first sign +1."""
    return min(referee(A, np.array((1.0,) + tail) * b)
               for tail in product((1.0, -1.0), repeat=len(b) - 1))


# The affine oracle: for every sign pattern p the oracle minimizes over the
# affine set {Ax = p o b}; these tests check that search through
# solve_oracle_noiseless.

def test_affine_oracle_square_system():
    # m = n: each sign's affine set is the one point A^-1 (p o b)
    rng = np.random.default_rng(0)
    F = build_parseval_random(3, 5, seed=1)
    A = rng.standard_normal((3, 3))
    b = np.abs(rng.standard_normal(3))
    for q in (0.3, 1.0):
        res = solve_oracle_noiseless(_noiseless(A, F, b, q))
        signs = np.array(res.certificate["signs"])
        assert np.linalg.norm(res.x_hat - np.linalg.solve(A, signs * b)) < 1e-10
        assert res.certificate["zero_set"] is None
        best = _per_sign_minimum(lambda A, c: lq_quasinorm(F.D.T @ np.linalg.solve(A, c), q), A, b)
        assert res.objective == pytest.approx(best, rel=1e-12)


def test_affine_oracle_symmetric_pair():
    F = build_named_frame("identity", 2)
    res = solve_oracle_noiseless(_noiseless(np.array([[1.0, 1.0]]), F, [1.0], 1.0))
    assert res.objective == pytest.approx(1.0)
    assert sorted(np.round(np.abs(res.x_hat), 9)) == pytest.approx([0.0, 1.0])
    assert len(res.certificate["zero_set"]) == 1


def test_affine_oracle_matches_breakpoint_l1():
    rng = np.random.default_rng(5)
    F = build_named_frame("identity", 3)
    for _ in range(100):
        A = rng.standard_normal((2, 3))
        b = np.abs(rng.standard_normal(2))
        obj = solve_oracle_noiseless(_noiseless(A, F, b, 1.0)).objective
        assert obj == pytest.approx(_per_sign_minimum(l1_min_breakpoints, A, b), abs=1e-8)


def test_affine_oracle_matches_fresh_zero_pattern_enumeration():
    rng = np.random.default_rng(6)
    F = build_named_frame("identity", 4)
    for _ in range(100):
        A = rng.standard_normal((2, 4))
        b = np.abs(rng.standard_normal(2))
        obj = solve_oracle_noiseless(_noiseless(A, F, b, 1.0)).objective
        referee = _per_sign_minimum(lambda A, c: zero_pattern_l1(A, c, 4), A, b)
        assert obj == pytest.approx(referee, abs=1e-8)


def test_affine_oracle_error_paths():
    F = build_named_frame("identity", 3)
    with pytest.raises(DegenerateProblemError):
        solve_oracle_noiseless(_noiseless(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), F,
                                          [1.0, 2.0], 1.0))
    A_tall = np.vstack([np.eye(3), np.ones(3)])
    with pytest.raises(InfeasibleProblemError):
        solve_oracle_noiseless(_noiseless(A_tall, F, [1.0, 0.0, 0.0, 100.0], 1.0))
    # consistent tall system: one point up to the global sign
    res = solve_oracle_noiseless(_noiseless(A_tall, F, [1.0, 0.0, 0.0, 1.0], 1.0))
    assert np.allclose(res.x_hat, [1.0, 0.0, 0.0], atol=1e-10)
    assert res.certificate["zero_set"] is None


def _truth(F, z_vals):
    from lqphase.signals import DictionarySparseSignal, SparseCoefficients
    z = np.asarray(z_vals, dtype=float)
    support = tuple(int(i) for i in np.flatnonzero(z))
    return DictionarySparseSignal(x=F.D @ z, z=SparseCoefficients(z=z, support=support,
                                                                   k=max(1, len(support))),
                                  frame_id=F.label)


def test_oracle_hand_enumerated_instance():
    F = build_named_frame("identity", 2)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    truth = _truth(F, [1.0, 0.0])
    P = build_problem(A, F, truth, q=1.0)
    res = solve_oracle_noiseless(P)
    assert np.allclose(res.x_hat, [1.0, 0.0], atol=1e-9)
    assert res.objective == pytest.approx(1.0)
    assert res.feasibility < 1e-10
    assert res.certificate["signs"][0] == 1.0


def test_oracle_zero_signal():
    F = build_named_frame("identity", 3)
    A = np.random.default_rng(1).standard_normal((4, 3))
    P = PhaselessProblem(A=A, frame=F, b=np.zeros(4), eps=0.0, q=0.7)
    res = solve_oracle_noiseless(P)
    assert np.allclose(res.x_hat, 0.0, atol=1e-12) and res.objective == 0.0


def test_oracle_global_sign_invariance():
    F = build_parseval_random(3, 5, seed=3)
    truth = sample_dictionary_sparse(F, 2, seed=4)
    A = np.random.default_rng(5).standard_normal((6, 3)) / np.sqrt(6)
    P_plus = build_problem(A, F, truth, q=0.5)
    from lqphase.signals import DictionarySparseSignal, SparseCoefficients
    neg = DictionarySparseSignal(x=-truth.x,
                                 z=SparseCoefficients(z=-truth.z.z, support=truth.z.support,
                                                      k=truth.z.k),
                                 frame_id=truth.frame_id)
    P_minus = build_problem(A, F, neg, q=0.5)
    r1 = solve_oracle_noiseless(P_plus)
    r2 = solve_oracle_noiseless(P_minus)
    assert r1.objective == pytest.approx(r2.objective, abs=1e-12)
    assert phase_distance(r1.x_hat, r2.x_hat) < 1e-10


def test_oracle_certificate_reproduced_by_fresh_enumeration():
    # independent double loop over (signs, zero patterns)
    F = build_parseval_random(3, 4, seed=8)
    truth = sample_dictionary_sparse(F, 1, seed=9)
    A = np.random.default_rng(10).standard_normal((2, 3))
    P = build_problem(A, F, truth, q=1.0)
    res = solve_oracle_noiseless(P)

    best = np.inf
    for tail in product((1.0, -1.0), repeat=1):
        s = np.array((1.0,) + tail)
        cv = s * P.b
        for Z in combinations(range(4), 1):
            M = np.vstack([A, F.D[:, list(Z)].T])
            try:
                x = np.linalg.solve(M, np.concatenate([cv, [0.0]]))
            except np.linalg.LinAlgError:
                continue
            if np.linalg.norm(A @ x - cv) < 1e-8:
                best = min(best, lq_quasinorm(F.D.T @ x, 1.0))
        x_mn, *_ = np.linalg.lstsq(A, cv, rcond=None)
        best = min(best, lq_quasinorm(F.D.T @ x_mn, 1.0))
    assert res.objective == pytest.approx(best, abs=1e-10)


def test_oracle_rejects_noise_and_big_m():
    F = build_named_frame("identity", 2)
    A = np.eye(2)
    P = PhaselessProblem(A=A, frame=F, b=np.ones(2), eps=0.5, q=1.0)
    with pytest.raises(ParameterError):
        solve_oracle_noiseless(P)
    A_big = np.random.default_rng(0).standard_normal((12, 2))
    P2 = PhaselessProblem(A=A_big, frame=F, b=np.abs(A_big @ np.ones(2)), eps=0.0, q=1.0)
    with pytest.raises(ResourceBudgetError):
        solve_oracle_noiseless(P2)


def test_oracle_noise_test_is_relative_to_b():
    # the oracle's feasibility tolerance is FEAS_RTOL ||b||, and so is its
    # noise test: noise ten times a tiny b is noise, and noise far below the
    # tolerance of a large b is not
    F = build_named_frame("identity", 2)
    A = np.random.default_rng(8).standard_normal((3, 2))
    b = np.abs(A @ np.array([1.0, -2.0]))
    tiny = 1e-14 * b / np.linalg.norm(b)
    with pytest.raises(ParameterError, match="noiseless"):
        solve_oracle_noiseless(PhaselessProblem(A=A, frame=F, b=tiny, eps=1e-13, q=1.0))
    large = 1e6 * b / np.linalg.norm(b)
    res = solve_oracle_noiseless(PhaselessProblem(A=A, frame=F, b=large, eps=1e-10, q=1.0))
    assert res.feasibility <= FEAS_RTOL * np.linalg.norm(large)
    edge = FEAS_RTOL * float(np.linalg.norm(b))
    solve_oracle_noiseless(PhaselessProblem(A=A, frame=F, b=b, eps=edge, q=1.0))
    with pytest.raises(ParameterError, match="noiseless"):
        solve_oracle_noiseless(PhaselessProblem(A=A, frame=F, b=b, eps=2.0 * edge, q=1.0))


def test_oracle_corrupted_measurements_infeasible():
    F = build_named_frame("identity", 2)
    A = np.random.default_rng(3).standard_normal((5, 2))
    b = np.abs(np.random.default_rng(4).standard_normal(5)) + 1.0
    P = PhaselessProblem(A=A, frame=F, b=b, eps=0.0, q=1.0)
    with pytest.raises(InfeasibleProblemError):
        solve_oracle_noiseless(P)


def test_irls_zero_measurements():
    F = build_parseval_random(3, 5, seed=0)
    P = PhaselessProblem(A=np.eye(3), frame=F, b=np.zeros(3), eps=0.0, q=0.5)
    res = solve_irls(P)
    assert np.all(res.x_hat == 0.0) and res.iterations == 0


def irls_surrogate(A, D, p, b, x, q, eps_s, lam):
    """Smoothed objective majorized by the weighted step; nonincreasing under
    irls_weighted_step for fixed (p, eps_s, lam)."""
    resid = p * (A @ x) - b
    smooth = np.sum(((D.T @ x) ** 2 + eps_s**2) ** (q / 2.0))
    return float(resid @ resid + lam * (2.0 / q) * smooth)


def test_irls_inner_step_monotone_surrogate():
    # for fixed signs, smoothing and penalty, the weighted step never
    # increases the smoothed objective
    rng = np.random.default_rng(7)
    F = build_parseval_random(4, 6, seed=2)
    A = rng.standard_normal((8, 4)) / np.sqrt(8)
    b = np.abs(A @ rng.standard_normal(4))
    p = np.ones(8)
    lam, eps_s, q = 0.05, 0.3, 0.5
    x = rng.standard_normal(4)
    prev = irls_surrogate(A, F.D, p, b, x, q, eps_s, lam)
    for _ in range(25):
        x = irls_weighted_step(A, F.D, p[None], b, x[None], q, eps_s, lam)[0]
        cur = irls_surrogate(A, F.D, p, b, x, q, eps_s, lam)
        assert cur <= prev + 1e-10
        prev = cur


def test_irls_matches_oracle_objective(monkeypatch):
    # noiseless m=8, n=4, N=6, k=1: 20 restarts reach the oracle objective
    # within 1e-6 in at least 90% of seeded trials
    monkeypatch.setattr(solver, "IRLS_RESTARTS", 20)
    hits = 0
    trials = 100
    for trial in range(trials):
        q = 0.5 if trial % 2 == 0 else 1.0
        F = build_parseval_random(4, 6, seed=5000 + trial)
        truth = sample_dictionary_sparse(F, 1, seed=6000 + trial)
        A = np.random.default_rng(7000 + trial).standard_normal((8, 4)) / np.sqrt(8)
        P = build_problem(A, F, truth, q=q)
        oracle = solve_oracle_noiseless(P)
        irls = solve_irls(P, trial)
        if abs(irls.objective - oracle.objective) < 1e-6:
            hits += 1
    assert hits >= 0.9 * trials, f"only {hits}/{trials} matched the oracle"


def test_irls_feasibility_tracking_noiseless():
    F = build_parseval_random(4, 6, seed=12)
    truth = sample_dictionary_sparse(F, 1, seed=13)
    A = np.random.default_rng(14).standard_normal((8, 4)) / np.sqrt(8)
    P = build_problem(A, F, truth, q=1.0)
    res = solve_irls(P, 0)
    assert res.feasibility <= 1e-6 * np.linalg.norm(P.b)
    assert res.iterations >= 1


def test_irls_steps_count_every_weighted_step(monkeypatch):
    # steps is the number of iterates over all polish runs; iterations is
    # the winning iterate's index within its own run
    rows = []
    step = solver.irls_weighted_step

    def counting(A, D, S, b, X, *args):
        rows.append(len(X))
        return step(A, D, S, b, X, *args)

    monkeypatch.setattr(solver, "irls_weighted_step", counting)
    monkeypatch.setattr(solver, "IRLS_RESTARTS", 6)
    F = build_parseval_random(4, 6, seed=12)
    truth = sample_dictionary_sparse(F, 1, seed=13)
    A = np.random.default_rng(14).standard_normal((8, 4)) / np.sqrt(8)
    P = build_problem(A, F, truth, q=0.5)
    # the sign tree keeps one pattern here, so the restart pipeline shows
    # the batching
    for solve in (solve_irls, irls_restarts):
        del rows[:]
        res = solve(P, 2)
        assert res.steps == sum(rows) >= res.iterations >= 1
    assert len(rows) < res.steps  # one call advances every live restart
    back = serialize.solver_result_from_dict(
        json.loads(serialize.json_text(dataclasses.asdict(res))))
    assert (back.steps, back.iterations) == (res.steps, res.iterations)
    assert solve_oracle_noiseless(P).steps == 0


@pytest.mark.parametrize("seed", [True, 2.5, -1], ids=str)
def test_solve_irls_rejects_a_bad_seed(seed):
    # the seed is IRLS's only parameter: it draws the restart pipeline's starts
    F = build_parseval_random(4, 6, seed=12)
    A = np.random.default_rng(14).standard_normal((3, 4))
    P = build_problem(A, F, sample_dictionary_sparse(F, 1, seed=13), q=1.0)
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        solve_irls(P, seed)
