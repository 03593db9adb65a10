from dataclasses import replace

import numpy as np
import pytest

from lqphase.errors import DimensionError, DomainError, ParameterError
from lqphase.frames import build_parseval_random
from lqphase.measurement import (
    PhaselessProblem,
    build_problem,
    forward_phaseless,
    phase_distance,
)
from lqphase.signals import sample_dictionary_sparse


def test_forward_noiseless_values():
    b, e, eps = forward_phaseless(np.eye(2), np.array([1.0, -2.0]))
    assert np.array_equal(b, [1.0, 2.0])
    assert np.all(e == 0.0) and eps == 0.0

    b0, _, _ = forward_phaseless(np.eye(3), np.zeros(3))
    assert np.all(b0 == 0.0)


def test_forward_sign_invariance():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 3))
    x = rng.standard_normal(3)
    b_plus, _, _ = forward_phaseless(A, x)
    b_minus, _, _ = forward_phaseless(A, -x)
    assert np.array_equal(b_plus, b_minus)


def test_bounded_noise_respects_radius():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    clean = np.abs(A @ x)
    for seed in range(50):
        b, e, eps = forward_phaseless(A, x, noise=("bounded", 0.1), seed=seed)
        assert eps <= 0.1 + 1e-15
        assert np.linalg.norm(b - clean) == pytest.approx(eps, abs=1e-15)


def test_gaussian_noise_is_not_a_noise_kind():
    # noise is "none" or bounded: a problem's eps is the declared bound
    F = build_parseval_random(3, 5, seed=2)
    truth = sample_dictionary_sparse(F, 1, seed=4)
    for noise in (("gaussian", 0.5), ("gaussian", 0.0), ["gaussian", 1e-3]):
        with pytest.raises(ParameterError, match=r"^noise must be 'none' or \('bounded', eps\)"):
            forward_phaseless(np.eye(3), np.ones(3), noise=noise, seed=7)
        with pytest.raises(ParameterError):
            build_problem(np.eye(3), F, truth, q=0.5, noise=noise, seed=7)


def test_forward_errors():
    with pytest.raises(DimensionError):
        forward_phaseless(np.eye(2), np.ones(3))
    with pytest.raises(ParameterError):
        forward_phaseless(np.eye(2), np.ones(2), noise=("poisson", 1.0))
    for level in (np.inf, -0.1, np.nan):
        with pytest.raises(ParameterError):
            forward_phaseless(np.eye(3), np.ones(3), noise=("bounded", level))


def test_phase_distance_real():
    x = np.array([1.0, -2.0, 3.0])
    assert phase_distance(-x, x) == 0.0
    assert phase_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2))


def test_phase_distance_symmetric_and_dominated():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        assert phase_distance(x, y) == pytest.approx(phase_distance(y, x))
        assert phase_distance(x, y) <= np.linalg.norm(x - y) + 1e-12


def test_phase_distance_errors():
    with pytest.raises(DimensionError):
        phase_distance(np.ones(2), np.ones(3))
    for field in ("quaternion", "complex"):  # only the real metric exists
        with pytest.raises(ParameterError, match="field must be 'real'"):
            phase_distance(np.ones(2), np.ones(2), field=field)
    assert phase_distance(np.ones(2), -np.ones(2), field="real") == 0.0


def test_build_problem_eps_semantics():
    F = build_parseval_random(3, 5, seed=2)
    truth = sample_dictionary_sparse(F, 1, seed=4)
    A = np.random.default_rng(6).standard_normal((5, 3))

    clean = build_problem(A, F, truth, q=0.5)
    assert clean.eps == 0.0 and np.all(clean.b >= 0.0)

    bounded = build_problem(A, F, truth, q=0.5, noise=("bounded", 0.2), seed=1)
    assert bounded.eps == 0.2
    assert np.linalg.norm(bounded.b - np.abs(A @ truth.x)) <= 0.2

    # a zero bound is noiseless
    zero = build_problem(A, F, truth, q=0.5, noise=("bounded", 0.0), seed=1)
    assert zero.eps == 0.0 and np.array_equal(zero.b, clean.b)


def test_build_problem_keeps_its_own_copy_of_A():
    # A used to be kept by reference: editing it afterwards changed P.A under
    # P.b, so b stopped being |A x0|
    F = build_parseval_random(3, 5, seed=2)
    truth = sample_dictionary_sparse(F, 1, seed=4)
    A = np.random.default_rng(6).standard_normal((5, 3))
    A_before = A.copy()
    P = build_problem(A, F, truth, q=0.5)
    b_before = P.b.copy()
    A[-1] = A[0]
    A *= 2.0
    assert np.array_equal(P.A, A_before) and np.array_equal(P.b, b_before)
    assert np.array_equal(P.b, np.abs(P.A @ truth.x))


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-3])
def test_a_problem_with_bad_eps_cannot_be_made(eps):
    # a NaN eps would turn the IRLS constraint off and make the oracle treat
    # the problem as noiseless, so no solver may see one
    F = build_parseval_random(3, 5, 0)
    P = build_problem(np.eye(3), F, sample_dictionary_sparse(F, 1, 0), q=0.5)
    with pytest.raises(DomainError, match=f"eps must be finite and nonnegative, got {eps}"):
        replace(P, eps=eps)
    with pytest.raises(DomainError, match="eps"):
        PhaselessProblem(A=P.A, frame=F, b=P.b, eps=eps, q=0.5)
    assert replace(P, eps=-0.0).eps == 0.0


def _entry(shape, value):
    v = np.random.default_rng(1).standard_normal(shape)
    v.flat[2] = value
    return v


@pytest.mark.parametrize("A, b, error, message", [
    (_entry((6, 3), np.inf), np.ones(6), DomainError, "A must have finite entries"),
    (_entry((6, 3), np.nan), np.ones(6), DomainError, "A must have finite entries"),
    (np.ones((6, 3)), _entry(6, -np.inf), DomainError, "b must have finite entries"),
    (np.ones((6, 3)), _entry(6, np.nan), DomainError, "b must have finite entries"),
    (np.ones((6, 3)), np.ones(5), DimensionError, r"b is \(5,\); need \(6,\)"),
    (np.ones((6, 4)), np.ones(6), DimensionError, r"A is \(6, 4\); need \(6, 3\)"),
    (np.ones(3), np.ones(1), DimensionError, r"A is \(3,\); need \(3, 3\)"),
], ids=["A inf", "A nan", "b -inf", "b nan", "short b", "wide A", "vector A"])
def test_a_problem_with_non_finite_or_misshapen_data_cannot_be_made(monkeypatch, A, b, error, message):
    # the SVD of a 6 x 3 A with an inf entry need not return, and every
    # solver takes one, so no solver may see such a problem
    F = build_parseval_random(3, 5, 0)

    def svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the input checks")

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(error, match=message):
        PhaselessProblem(A=A, frame=F, b=b, eps=0.0, q=0.5)
    if message == "A must have finite entries":  # b = |A x0| would be non-finite too
        with pytest.raises(error, match=message):
            build_problem(A, F, sample_dictionary_sparse(F, 1, 0), q=0.5)
