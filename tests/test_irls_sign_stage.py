"""IRLS sign stage: error-reduction alternating projections x = A_pinv (p o b),
p = sign(A x), from every start's sign pattern.

With a cap of t projections a row still live returns the pattern of its t-th
projection, so the stage run at caps 1, 2, ... reads off each row's
trajectory.  Along it the least-squares residual of the pattern, computed
here by lstsq rather than the solver's QR, never increases (the
error-reduction property).  On the irls-sweep trials every row ends at a
fixed pattern or a two-pattern cycle long before the iteration cap.  For a
wide A of full row rank every pattern is consistent, so the stage stops at
its first projection and the sign-flip descent has nothing to flip.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batched_kernels import irls_corpus
from test_irls_exits import irls_sweep_trial

from lqphase import solver
from lqphase.solver import IrlsOptions, solve_irls


def _lstsq_residual(A, b, p) -> float:
    c = p * b
    return float(np.linalg.norm(A @ np.linalg.lstsq(A, c, rcond=None)[0] - c))


def _assert_residuals_never_increase(A, b, S, projections=12):
    A_pinv = np.linalg.pinv(A)
    path = [solver._sign_stage(A, A_pinv, b, S, t)[0] for t in range(1, projections + 1)]
    resid = np.array([[_lstsq_residual(A, b, p) for p in St] for St in path])
    assert np.all(np.diff(resid, axis=0) <= 1e-9 * np.linalg.norm(b))
    return resid


def _random_patterns(rng, rows, m):
    return np.where(rng.random((rows, m)) < 0.5, 1.0, -1.0)


def test_pattern_residuals_never_increase_on_the_irls_corpus():
    rng = np.random.default_rng(3)
    falls = 0
    for P in irls_corpus():
        resid = _assert_residuals_never_increase(P.A, P.b, _random_patterns(rng, 10, len(P.b)))
        falls += np.sum(resid[-1] < resid[0])
    assert falls  # the corpus has rows the stage improves


@st.composite
def tall_problems(draw):
    """Tall Gaussian A (m > n), nonnegative b with some exact zeros, and
    random start patterns."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n + 1, 3 * n + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    b = np.abs(A @ rng.standard_normal(n) + draw(st.sampled_from([0.0, 0.1, 1.0]))
               * rng.standard_normal(m))
    b[rng.random(m) < 0.2] = 0.0
    return A, b, _random_patterns(rng, 6, m)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(tall_problems())
def test_pattern_residuals_never_increase_on_tall_A(problem):
    _assert_residuals_never_increase(*problem)


def test_the_stage_ends_at_a_fixed_pattern_or_a_cycle_long_before_the_cap(monkeypatch):
    calls = []
    stage = solver._sign_stage

    def spy(A, A_pinv, b, S, max_iters):
        calls.append((A, A_pinv, b, S.copy(), max_iters))
        return stage(A, A_pinv, b, S, max_iters)

    monkeypatch.setattr(solver, "_sign_stage", spy)
    for seed, cell, trial in product((0, 1), range(4), range(26)):
        # solve_irls takes these trials through the sign tree
        solver._irls_restarts(*irls_sweep_trial(seed, cell, trial))
    kinds = {"fixed": 0, "cycle": 0}
    for A, A_pinv, b, S0, max_iters in calls:
        assert max_iters == IrlsOptions().max_iters
        S, X = stage(A, A_pinv, b, S0, max_iters)
        # ten projections already give every row's final pattern
        assert stage(A, A_pinv, b, S0, 10)[0].tobytes() == S.tobytes()
        for p, x in zip(S, X):
            assert x.tobytes() == (A_pinv @ (p * b)).tobytes()
            p1 = np.where(A @ x >= 0.0, 1.0, -1.0)
            if np.array_equal(p1, p):
                kinds["fixed"] += 1
            else:
                assert np.array_equal(np.where(A @ (A_pinv @ (p1 * b)) >= 0.0, 1.0, -1.0), p)
                kinds["cycle"] += 1
    assert len(calls) == 208 and all(kinds.values())


def test_wide_A_stops_after_one_projection_and_flips_nothing(monkeypatch):
    rng = np.random.default_rng(5)
    for m, n in ((3, 5), (4, 6), (6, 8)):
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        b = np.abs(rng.standard_normal(m)) + 0.1
        S = _random_patterns(rng, 8, m)
        A_pinv = np.linalg.pinv(A)
        once, X = solver._sign_stage(A, A_pinv, b, S, 1)
        # the first projection's pattern is already final, and it is the start's
        assert once.tobytes() == solver._sign_stage(A, A_pinv, b, S, 500)[0].tobytes()
        assert np.array_equal(once, S)
        assert np.allclose(X @ A.T, S * b, rtol=0.0, atol=1e-12)
        assert np.array_equal(solver._sign_flip_descent(A, b, S), S)
    descended = []
    descent = solver._sign_flip_descent

    def spy(A, b, S, *args):
        descended.append(len(S))
        return descent(A, b, S, *args)

    monkeypatch.setattr(solver, "_sign_flip_descent", spy)
    wide = [P for P in irls_corpus() if P.A.shape[0] < P.A.shape[1]]
    for P in wide:
        solve_irls(P)  # no least-squares point is stalled: the descent never runs
    assert len(wide) == 2 and sum(descended) == 0
