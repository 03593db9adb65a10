"""Dictionary-sparse signal generation and lq quasi-norm utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .frames import TightFrame


@dataclass(frozen=True)
class SparseCoefficients:
    """Coefficient vector z with at most k nonzeros, all inside `support`."""

    z: np.ndarray
    support: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class DictionarySparseSignal:
    """Signal x = Dz for a k-sparse coefficient vector z."""

    x: np.ndarray
    z: SparseCoefficients
    frame_id: str


def _check_q(q: float) -> float:
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise ParameterError(f"exponent q must lie in (0, 1], got {q}")
    return q


def lq_quasinorm(v: np.ndarray, q: float) -> float:
    """sum_i |v_i|^q, the q-th power of the lq quasi-norm (0^q := 0)."""
    _check_q(q)
    v = np.abs(np.asarray(v, dtype=float))
    return float(np.sum(v**q))


def top_k_indices(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-magnitude entries, ties broken by lowest index."""
    order = np.argsort(-np.abs(np.asarray(v)), kind="stable")
    return order[:k]


def best_k_term_error(z: np.ndarray, k: int, q: float) -> float:
    """lq quasi-norm of z after zeroing its k largest-magnitude entries.

    Magnitude sorting realizes the best k-term approximation exactly because
    the quasi-norm is coordinate-separable and monotone in |z_i|.
    """
    _check_q(q)
    z = np.asarray(z, dtype=float)
    if k < 0 or k > z.size:
        raise ParameterError(f"k must lie in [0, {z.size}], got {k}")
    residual = z.copy()
    residual[top_k_indices(z, k)] = 0.0
    power = lq_quasinorm(residual, q)
    return float(power ** (1.0 / q))


# Laws of the nonzero values of sample_dictionary_sparse: name -> sampler(rng, k).
MAGNITUDE_LAWS = {
    "gaussian": lambda rng, k: rng.standard_normal(k),
    "rademacher": lambda rng, k: rng.integers(0, 2, size=k) * 2.0 - 1.0,
}


def sample_dictionary_sparse(
    F: TightFrame,
    k: int,
    seed: int,
    magnitude_law: str = "gaussian",
) -> DictionarySparseSignal:
    """Draw a uniform size-k support and i.i.d. nonzeros, then synthesize x = Dz."""
    if k < 0 or k > F.N:
        raise ParameterError(f"sparsity k must lie in [0, {F.N}], got {k}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(F.N, size=k, replace=False)) if k > 0 else np.array([], dtype=int)
    if magnitude_law not in MAGNITUDE_LAWS:
        raise ParameterError(f"unknown magnitude law {magnitude_law!r}")
    z = np.zeros(F.N)
    z[support] = MAGNITUDE_LAWS[magnitude_law](rng, k)
    x = F.D @ z
    coeffs = SparseCoefficients(z=z, support=tuple(int(i) for i in support), k=k)
    return DictionarySparseSignal(x=x, z=coeffs, frame_id=F.label)
