import numpy as np
import pytest

from lqphase import nsp
from lqphase.errors import (
    DimensionError,
    DomainError,
    InvalidWitnessError,
    ParameterError,
    ResourceBudgetError,
)
from lqphase.frames import build_named_frame, build_parseval_random
from lqphase.linalg import null_spaces
from lqphase.measurement import build_problem, phase_distance
from lqphase.nsp import (
    NspWitness,
    dictionary_sparse_distance,
    nsp_real_evaluate,
    nsp_real_falsify,
)
from lqphase.signals import sample_dictionary_sparse
from lqphase.solver import solve_oracle_noiseless

I2 = build_named_frame("identity", 2)


def test_evaluate_symmetric_instance_fails_strictness():
    # u in N(a_0) with a_0 = (0,1); v in N(a_1) with a_1 = (1,0)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = NspWitness(Lambda=(0,), u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]), q=1.0, k=2)
    out = nsp_real_evaluate(A, I2, w)
    assert out.lhs == pytest.approx(2.0)
    assert out.rhs == pytest.approx(2.0)
    assert out.violated  # equality: the strict inequality fails


def test_evaluate_rejects_zero_vectors():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = NspWitness(Lambda=(0,), u=np.array([1.0, 0.0]), v=np.zeros(2), q=1.0, k=2)
    with pytest.raises(InvalidWitnessError, match="v must be nonzero"):
        nsp_real_evaluate(A, I2, w)


def test_evaluate_rejects_wrong_null_space():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = NspWitness(Lambda=(0,), u=np.array([1.0, 0.0]), v=np.array([1.0, 0.0]), q=1.0, k=2)
    with pytest.raises(InvalidWitnessError, match="null space"):
        nsp_real_evaluate(A, I2, w)


def test_evaluate_rejects_non_sparse_sum():
    # u + v = (1, 1) is not dictionary-1-sparse for the identity frame
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = NspWitness(Lambda=(0,), u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]), q=1.0, k=1)
    with pytest.raises(InvalidWitnessError, match="dictionary-1-sparse"):
        nsp_real_evaluate(A, I2, w)


def test_evaluate_quasinorms_recomputed_independently():
    rng = np.random.default_rng(0)
    # build a valid witness by hand on a rank-deficient instance
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    for q in (0.4, 1.0):
        u = np.array([0.0, rng.uniform(0.5, 2.0)])
        v = np.array([0.0, rng.uniform(0.5, 2.0)])
        w = nsp_real_evaluate(A, I2, NspWitness(Lambda=(0,), u=u, v=v, q=q, k=1))
        assert w.lhs == pytest.approx(np.sum(np.abs(u + v) ** q))
        assert w.rhs == pytest.approx(np.sum(np.abs(u - v) ** q))
        assert w.violated == (w.lhs >= w.rhs - 1e-12)


def test_q_homogeneity_of_witness_scaling():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    q = 0.7
    base = nsp_real_evaluate(A, I2, NspWitness(
        Lambda=(0,), u=np.array([0.0, 1.0]), v=np.array([0.0, 0.5]), q=q, k=1))
    for c in (0.1, 3.0, 40.0):
        scaled = nsp_real_evaluate(A, I2, NspWitness(
            Lambda=(0,), u=c * np.array([0.0, 1.0]), v=c * np.array([0.0, 0.5]), q=q, k=1))
        assert scaled.lhs == pytest.approx(c**q * base.lhs, rel=1e-10)
        assert scaled.rhs == pytest.approx(c**q * base.rhs, rel=1e-10)
        assert scaled.violated == base.violated


def test_falsify_injective_instance_returns_none():
    assert nsp_real_falsify(np.eye(2), I2, k=1, q=0.5, budget=100, seed=0) is None


def test_falsify_finds_witness_on_blind_instance():
    # both measurements ignore the second coordinate
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    w = nsp_real_falsify(A, I2, k=1, q=1.0, budget=200, seed=0)
    assert w is not None and w.violated
    # the proof construction: x0 = u+v, x_hat = u-v share magnitudes and
    # the alternative does not beat the strict inequality
    x0, x_hat = w.u + w.v, w.u - w.v
    assert np.linalg.norm(np.abs(A @ x_hat) - np.abs(A @ x0)) <= 1e-9
    assert np.sum(np.abs(x_hat)) <= np.sum(np.abs(x0)) + 1e-12
    # a found witness re-validates
    again = nsp_real_evaluate(A, I2, w)
    assert again.violated


def test_falsify_repeated_row_with_spare_measurement_is_consistent():
    # rows (1,0),(1,0),(0,1): every 1-sparse signal still identifiable,
    # so no witness exists and the oracle recovers
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = nsp_real_falsify(A, I2, k=1, q=1.0, budget=500, seed=1)
    assert w is None
    for seed in range(5):
        truth = sample_dictionary_sparse(I2, 1, seed=seed)
        P = build_problem(A, I2, truth, q=1.0)
        res = solve_oracle_noiseless(P)
        assert phase_distance(res.x_hat, truth.x) <= 1e-9 * max(1.0, np.linalg.norm(truth.x))


def test_falsify_none_on_generic_gaussian_and_oracle_recovers():
    for trial in range(5):
        F = build_parseval_random(4, 6, seed=trial)
        truth = sample_dictionary_sparse(F, 1, seed=trial + 10)
        A = np.random.default_rng(trial + 20).standard_normal((8, 4)) / np.sqrt(8)
        w = nsp_real_falsify(A, F, k=1, q=0.5, budget=1000, seed=trial, lambda_mode="all_subsets")
        assert w is None
        P = build_problem(A, F, truth, q=0.5)
        res = solve_oracle_noiseless(P)
        assert phase_distance(res.x_hat, truth.x) < 1e-8 * np.linalg.norm(truth.x)


def test_falsify_finds_witness_when_the_support_spans_the_space():
    # k = n: every D_S spans R^3, so P_S = I - QQ^T is rounding residue and
    # every splitting of a cell is admissible.  A rank cutoff relative to the
    # largest singular value of K = [P_S U, P_S V] reads that residue as full
    # rank and skips the cell; the falsifier's cutoff is relative to the unit
    # scale of [U V] instead.
    F = build_parseval_random(3, 5, 0)
    A = np.random.default_rng(10).standard_normal((3, 3))
    u, v = null_spaces(A[None, :1])[0][:, 0], -null_spaces(A[None, 1:])[0][:, 0]
    known = nsp_real_evaluate(A, F, NspWitness(Lambda=(0,), u=u, v=v, q=1.0, k=3))
    assert known.violated
    assert known.lhs == pytest.approx(2.7883, abs=1e-4)
    assert known.rhs == pytest.approx(2.6444, abs=1e-4)
    w = nsp_real_falsify(A, F, k=3, q=1.0, lambda_mode="all_subsets")
    assert w is not None and w.violated and w.Lambda == (0,)
    assert nsp_real_evaluate(A, F, w).violated


def test_falsify_all_subsets_guard(monkeypatch):
    # all 2^15 row subsets of m = 15 rows times C(3, 1) = 3 supports
    A = np.random.default_rng(0).standard_normal((15, 3))
    F = build_named_frame("identity", 3)
    cells = 2**15 * 3
    assert cells == 98_304
    monkeypatch.setattr(nsp, "SUPPORT_BUDGET", cells - 1)
    with pytest.raises(ResourceBudgetError, match=rf"^32768 x C\(3,1\) = {cells} \(row subset, support\) "
                       rf"cells exceed the budget {cells - 1}$"):
        nsp_real_falsify(A, F, k=1, q=1.0, budget=10, lambda_mode="all_subsets")
    monkeypatch.setattr(nsp, "SUPPORT_BUDGET", cells)  # the budget itself is allowed
    nsp_real_falsify(A, F, k=1, q=1.0, budget=10, lambda_mode="all_subsets")


@pytest.mark.parametrize("k", [-1, 6])
def test_falsify_rejects_sparsity_outside_zero_to_N(k):
    F = build_parseval_random(3, 5, seed=9)
    A = np.random.default_rng(1).standard_normal((2, 3))
    with pytest.raises(ParameterError, match=r"sparsity k must lie in \[0, 5\]"):
        nsp_real_falsify(A, F, k=k, q=0.5, budget=10)
    # the condition holds vacuously at k = 0, and at k = 1 this blind A fails it
    assert nsp_real_falsify(A, F, k=0, q=0.5, budget=10) is None
    assert nsp_real_falsify(A, F, k=1, q=0.5, budget=200).violated


@pytest.mark.parametrize("name, value, least", [
    ("budget", 1e4, 1), ("budget", 2.5, 1), ("budget", True, 1), ("budget", np.nan, 1), ("budget", 0, 1),
    ("seed", -1, 0), ("seed", True, 0), ("seed", 0.5, 0),
])
def test_falsify_rejects_a_bad_budget_or_seed_before_any_svd(monkeypatch, name, value, least):
    # budget 1e4 used to die in the search with a TypeError, 2.5, True and NaN
    # ran, and seed -1 passed wherever the screen settled every cell (as at
    # k = 1 here, m = n + 1) and failed in numpy elsewhere
    F = build_parseval_random(4, 6, seed=2)
    A = np.random.default_rng(2).standard_normal((5, 4))

    def svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the input checks")

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer >= {least}, got {value!r}$"):
        nsp_real_falsify(A, F, k=1, q=1.0, lambda_mode="all_subsets", **{name: value})


def _rows_with(value):
    A = np.random.default_rng(2).standard_normal((5, 4))
    A[1, 2] = value
    return A


BAD_A = [
    (np.ones((5, 3)), DimensionError, r"A must have shape \(m, 4\), got \(5, 3\)"),
    (np.ones(4), DimensionError, r"A must have shape \(m, 4\), got \(4,\)"),
    (_rows_with(np.nan), DomainError, "A must be finite"),
    (_rows_with(-np.inf), DomainError, "A must be finite"),
]
BAD_A_IDS = ["5x3", "vector", "nan", "-inf"]


@pytest.mark.parametrize("A, error, message", BAD_A, ids=BAD_A_IDS)
def test_falsify_rejects_a_misshapen_or_non_finite_A_before_any_svd(monkeypatch, A, error, message):
    F = build_parseval_random(4, 6, seed=2)

    def svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the input checks")

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(error, match=message):
        nsp_real_falsify(A, F, k=1, q=1.0, budget=10, lambda_mode="all_subsets")


@pytest.mark.parametrize("A, error, message", BAD_A, ids=BAD_A_IDS)
def test_evaluate_rejects_a_misshapen_or_non_finite_A(A, error, message):
    # a NaN A used to pass the null-space checks (NaN > tol is false) and
    # give a verdict; a 1-D A raised an IndexError
    F = build_parseval_random(4, 6, seed=2)
    d = F.D[:, 0]
    with pytest.raises(error, match=message):
        nsp_real_evaluate(A, F, NspWitness(Lambda=(0,), u=2 * d, v=-d, q=1.0, k=1))


def test_dictionary_sparse_distance():
    F = build_parseval_random(3, 5, seed=3)
    x = F.D @ np.array([0.0, 2.0, 0.0, 0.0, -1.0])
    assert dictionary_sparse_distance(x, F.D, 2) < 1e-12
    rng = np.random.default_rng(4)
    y = rng.standard_normal(3)
    assert dictionary_sparse_distance(y, F.D, 3) < 1e-12  # k = n spans everything
