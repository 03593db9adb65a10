import dataclasses
import json
from itertools import combinations, product

import numpy as np
import pytest

from lqphase import serialize, solver
from lqphase.errors import (
    DegenerateProblemError,
    DimensionError,
    DomainError,
    InfeasibleProblemError,
    ParameterError,
    ResourceBudgetError,
)
from lqphase.frames import build_named_frame, build_parseval_random
from lqphase.measurement import PhaselessProblem, build_problem, phase_distance
from lqphase.signals import lq_quasinorm, sample_dictionary_sparse
from lqphase.solver import (
    irls_weighted_step,
    solve_affine_lq_oracle,
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


def test_affine_oracle_square_system():
    rng = np.random.default_rng(0)
    F = build_parseval_random(3, 5, seed=1)
    A = rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    for q in (0.3, 1.0):
        x, obj, Z = solve_affine_lq_oracle(A, c, F, q)
        assert np.linalg.norm(x - np.linalg.solve(A, c)) < 1e-10
        assert Z is None


def test_affine_oracle_symmetric_pair():
    F = build_named_frame("identity", 2)
    x, obj, Z = solve_affine_lq_oracle(np.array([[1.0, 1.0]]), np.array([1.0]), F, 1.0)
    assert obj == pytest.approx(1.0)
    assert sorted(np.round(np.abs(x), 9)) == pytest.approx([0.0, 1.0])
    assert Z is not None and len(Z) == 1


def test_affine_oracle_matches_breakpoint_l1():
    rng = np.random.default_rng(5)
    F = build_named_frame("identity", 3)
    for _ in range(100):
        A = rng.standard_normal((2, 3))
        c = rng.standard_normal(2)
        _, obj, _ = solve_affine_lq_oracle(A, c, F, 1.0)
        assert obj == pytest.approx(l1_min_breakpoints(A, c), abs=1e-8)


def test_affine_oracle_matches_fresh_zero_pattern_enumeration():
    rng = np.random.default_rng(6)
    F = build_named_frame("identity", 4)
    for _ in range(100):
        A = rng.standard_normal((2, 4))
        c = rng.standard_normal(2)
        _, obj, _ = solve_affine_lq_oracle(A, c, F, 1.0)
        assert obj == pytest.approx(zero_pattern_l1(A, c, 4), abs=1e-8)


def test_affine_oracle_error_paths():
    F = build_named_frame("identity", 3)
    with pytest.raises(DegenerateProblemError):
        solve_affine_lq_oracle(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                               np.array([1.0, 2.0]), F, 1.0)
    A_tall = np.vstack([np.eye(3), np.ones(3)])
    with pytest.raises(InfeasibleProblemError):
        solve_affine_lq_oracle(A_tall, np.array([1.0, 0.0, 0.0, 100.0]), F, 1.0)
    # consistent tall system: unique point
    x, obj, Z = solve_affine_lq_oracle(A_tall, np.array([1.0, 0.0, 0.0, 1.0]), F, 1.0)
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-10) and Z is None


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
        x = irls_weighted_step(A, F.D, p, b, x, q, eps_s, lam)
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

    def counting(A, D, p, b, x, *args):
        rows.append(len(np.atleast_2d(x)))
        return step(A, D, p, b, x, *args)

    monkeypatch.setattr(solver, "irls_weighted_step", counting)
    monkeypatch.setattr(solver, "IRLS_RESTARTS", 6)
    F = build_parseval_random(4, 6, seed=12)
    truth = sample_dictionary_sparse(F, 1, seed=13)
    A = np.random.default_rng(14).standard_normal((8, 4)) / np.sqrt(8)
    P = build_problem(A, F, truth, q=0.5)
    # the sign tree keeps one pattern here, so the restart pipeline shows
    # the batching
    for solve in (solve_irls, solver._irls_restarts):
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["A", "c"])
def test_affine_oracle_rejects_a_non_finite_A_or_c_before_any_svd(monkeypatch, entry, value):
    # before the check, a non-finite c raised "c is not in the range of A"
    F = build_parseval_random(4, 6, seed=2)
    A = np.random.default_rng(2).standard_normal((3, 4))
    c = np.ones(3)
    if entry == "A":
        A[1, 2] = value
    else:
        c[1] = value

    def svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the input checks")

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(DomainError, match="A and c must be finite"):
        solve_affine_lq_oracle(A, c, F, 0.5)


@pytest.mark.parametrize("A, c", [(np.ones((2, 3)), np.ones(2)), (np.ones(4), np.ones(1))],
                         ids=["2 x 3 A at n = 4", "1-D A"])
def test_affine_oracle_rejects_an_A_of_the_wrong_shape_before_any_svd(monkeypatch, A, c):
    # the 2 x 3 A used to fail in a matmul after its SVD, the 1-D A in an unpacking
    F = build_parseval_random(4, 6, seed=2)

    def svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the input checks")

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(DimensionError, match=r"A must have shape \(m, 4\), got"):
        solve_affine_lq_oracle(A, c, F, 0.5)
