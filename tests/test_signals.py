from itertools import combinations

import numpy as np
import pytest

from lqphase.errors import ParameterError
from lqphase.frames import build_named_frame, build_parseval_random
from lqphase.signals import (
    best_k_term_error,
    lq_quasinorm,
    sample_dictionary_sparse,
)


def brute_force_sigma(z, k, q):
    """Independent oracle: best k-term error over all supports."""
    z = np.asarray(z, dtype=float)
    if k == 0:
        return np.sum(np.abs(z) ** q) ** (1.0 / q)
    best = np.inf
    for S in combinations(range(z.size), k):
        resid = z.copy()
        resid[list(S)] = 0.0
        best = min(best, np.sum(np.abs(resid) ** q) ** (1.0 / q) if np.any(resid) else 0.0)
    return best


def test_lq_quasinorm_values():
    assert lq_quasinorm(np.zeros(4), 0.5) == 0.0
    assert lq_quasinorm([3.0, -4.0], 1.0) == 7.0
    assert lq_quasinorm([4.0, 9.0], 0.5) == pytest.approx(5.0, abs=1e-12)


def test_lq_quasinorm_rejects_bad_exponent():
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            lq_quasinorm([1.0], q)


def test_q_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(200):
        q = rng.uniform(0.1, 1.0)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        assert lq_quasinorm(u + v, q) <= lq_quasinorm(u, q) + lq_quasinorm(v, q) + 1e-12


def test_best_k_term_examples():
    assert best_k_term_error([3.0, 1.0, -2.0, 0.0], 2, 1.0) == pytest.approx(1.0)
    # residual [0, 1, -2, 0] at q = 1/2 has quasi-norm (1 + sqrt 2)^2
    assert best_k_term_error([3.0, 1.0, -2.0, 0.0], 1, 0.5) == pytest.approx(
        (1.0 + np.sqrt(2.0)) ** 2
    )
    assert brute_force_sigma([3.0, 1.0, -2.0, 0.0], 1, 0.5) == pytest.approx(
        (1.0 + np.sqrt(2.0)) ** 2
    )


def test_sparse_vector_has_zero_error():
    z = np.array([0.0, 5.0, 0.0, -1.0, 0.0])
    assert best_k_term_error(z, 2, 0.7) == 0.0
    assert best_k_term_error(z, 4, 1.0) == 0.0


def test_best_k_term_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(60):
        N = int(rng.integers(2, 11))
        z = rng.standard_normal(N) * rng.uniform(0.1, 3.0)
        k = int(rng.integers(0, N + 1))
        q = float(rng.uniform(0.2, 1.0))
        assert best_k_term_error(z, k, q) == pytest.approx(brute_force_sigma(z, k, q), rel=1e-10)


def test_best_k_term_monotone_and_endpoints():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(7)
    q = 0.6
    values = [best_k_term_error(z, k, q) for k in range(8)]
    assert values[0] == pytest.approx(lq_quasinorm(z, q) ** (1.0 / q))
    assert values[-1] == 0.0
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_tie_break_keeps_lowest_index():
    # equal magnitudes: the first one is removed
    assert best_k_term_error([2.0, -2.0], 1, 1.0) == pytest.approx(2.0)
    r = best_k_term_error([1.0, 1.0, 1.0], 2, 1.0)
    assert r == pytest.approx(1.0)


def test_best_k_term_parameter_errors():
    with pytest.raises(ParameterError):
        best_k_term_error([1.0, 2.0], 3, 1.0)
    with pytest.raises(ParameterError):
        best_k_term_error([1.0], 0, 2.0)


def test_sample_zero_sparsity_gives_zero_signal():
    F = build_parseval_random(3, 5, seed=0)
    sig = sample_dictionary_sparse(F, 0, seed=1)
    assert np.all(sig.x == 0.0) and sig.z.support == ()


def test_sample_identity_frame_single_atom():
    F = build_named_frame("identity", 4)
    sig = sample_dictionary_sparse(F, 1, seed=5)
    assert np.count_nonzero(sig.x) == 1
    i = sig.z.support[0]
    assert sig.x[i] == sig.z.z[i]


def test_sample_energy_never_exceeds_coefficients():
    # DD^T = I: ||x|| = ||Dz|| <= ||z||, with equality when z = D^T x lies in D's row space
    F = build_named_frame("duplicated_identity", 3)
    for seed in range(30):
        sig = sample_dictionary_sparse(F, 2, seed=seed)
        nz = np.linalg.norm(sig.z.z)
        assert np.linalg.norm(sig.x) <= nz + 1e-12
        row = F.D.T @ sig.x
        assert np.linalg.norm(F.D @ row) == pytest.approx(np.linalg.norm(row), rel=1e-12)
        assert np.linalg.norm(row) == pytest.approx(np.linalg.norm(sig.x), rel=1e-12)


def test_sample_is_deterministic_and_validates():
    F = build_parseval_random(4, 6, seed=9)
    a = sample_dictionary_sparse(F, 2, seed=3)
    b = sample_dictionary_sparse(F, 2, seed=3)
    assert np.array_equal(a.z.z, b.z.z)
    with pytest.raises(ParameterError):
        sample_dictionary_sparse(F, 7, seed=0)
    with pytest.raises(ParameterError):
        sample_dictionary_sparse(F, 1, seed=0, magnitude_law="cauchy")
    rad = sample_dictionary_sparse(F, 3, seed=0, magnitude_law="rademacher")
    assert set(np.abs(rad.z.z[list(rad.z.support)])) == {1.0}
