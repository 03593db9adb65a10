"""Magnitude-only forward model and phase-invariant error metrics.

Measurements are b = |A x0| + e.  Noise is injected additively on the
magnitudes; with noise, entries of b may be negative and solvers must not
assume otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .frames import TightFrame
from .signals import DictionarySparseSignal


@dataclass(frozen=True)
class PhaselessProblem:
    """One magnitude-only recovery instance.

    eps is the declared noise bound used in the fidelity constraint
    || |Ax| - b ||_2 <= eps; truth is kept for experiments only.
    """

    A: np.ndarray
    frame: TightFrame
    b: np.ndarray
    eps: float
    q: float
    truth: DictionarySparseSignal | None = None

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _parse_noise(noise) -> tuple[str, float]:
    if noise == "none" or noise is None:
        return "none", 0.0
    if isinstance(noise, (tuple, list)) and len(noise) == 2:
        kind, level = noise
        level = float(level)
        if kind in ("gaussian", "bounded") and level >= 0.0:
            return kind, level
    raise ParameterError(f"noise must be 'none', ('gaussian', sigma) or ('bounded', eps); got {noise!r}")


def forward_phaseless(
    A: np.ndarray,
    x0: np.ndarray,
    noise="none",
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Simulate b = |A x0| + e; returns (b, e, ||e||_2).

    Bounded noise is drawn uniformly from the l2 ball of the given radius,
    so the realized norm never exceeds the declared level.
    """
    A = np.asarray(A, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if A.ndim != 2 or x0.shape != (A.shape[1],):
        raise DimensionError(f"A is {A.shape}, x0 is {x0.shape}; need x0 of length {A.shape[1]}")
    kind, level = _parse_noise(noise)
    m = A.shape[0]
    clean = np.abs(A @ x0)
    if kind == "none" or level == 0.0:
        e = np.zeros(m)
    else:
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            e = level * rng.standard_normal(m)
        else:  # bounded: uniform in the l2 ball
            direction = rng.standard_normal(m)
            direction /= np.linalg.norm(direction)
            radius = level * rng.uniform() ** (1.0 / m)
            e = radius * direction
    b = clean + e
    return b, e, float(np.linalg.norm(e))


def phase_distance(x_hat: np.ndarray, x0: np.ndarray, field: str = "real") -> float:
    """Distance modulo the global phase: sign in the real case, unimodular otherwise."""
    x_hat = np.asarray(x_hat)
    x0 = np.asarray(x0)
    if x_hat.shape != x0.shape:
        raise DimensionError(f"shape mismatch {x_hat.shape} vs {x0.shape}")
    if field == "real":
        return float(min(np.linalg.norm(x_hat - x0), np.linalg.norm(x_hat + x0)))
    if field == "complex":
        # min over |c|=1 of ||x_hat - c x0||; the optimal phase aligns the
        # inner product, and the residual form avoids the cancellation of
        # sqrt(||x_hat||^2 + ||x0||^2 - 2|<x_hat, x0>|) near zero distance
        inner = np.vdot(x0, x_hat)
        c = inner / abs(inner) if abs(inner) > 0.0 else 1.0
        return float(np.linalg.norm(x_hat - c * x0))
    raise ParameterError(f"field must be 'real' or 'complex', got {field!r}")


def build_problem(
    A: np.ndarray,
    F: TightFrame,
    truth: DictionarySparseSignal,
    q: float,
    noise="none",
    seed: int | None = None,
) -> PhaselessProblem:
    """Simulate measurements of truth.x and package them as a problem instance."""
    b, _, eps_realized = forward_phaseless(A, truth.x, noise=noise, seed=seed)
    kind, level = _parse_noise(noise)
    if kind == "bounded":
        eps = level
    elif kind == "gaussian":
        eps = eps_realized
    else:
        eps = 0.0
    return PhaselessProblem(A=np.asarray(A, dtype=float), frame=F, b=b, eps=eps, q=float(q), truth=truth)
