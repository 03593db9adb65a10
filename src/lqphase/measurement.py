"""Magnitude-only forward model and phase-invariant error metrics.

Measurements are b = |A x0| + e.  Noise is "none" (e = 0) or
("bounded", eps): e is drawn uniformly from the l2 ball of radius eps, and
eps is the problem's declared bound.  It is added on the magnitudes, so
entries of b may be negative and solvers must not assume otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError
from .frames import TightFrame
from .signals import DictionarySparseSignal


def _check_finite(name: str, v: np.ndarray, shape: tuple) -> None:
    if v.shape != shape:
        raise DimensionError(f"{name} is {v.shape}; need {shape}")
    if not np.isfinite(v).all():
        raise DomainError(f"{name} must have finite entries")


@dataclass(frozen=True)
class PhaselessProblem:
    """One magnitude-only recovery instance.

    eps is the declared noise bound used in the fidelity constraint
    || |Ax| - b ||_2 <= eps; truth is kept for experiments only.  A (m, n)
    and b (m,) must be finite, so that no solver takes an SVD of inf or NaN.
    """

    A: np.ndarray
    frame: TightFrame
    b: np.ndarray
    eps: float
    q: float
    truth: DictionarySparseSignal | None = None

    def __post_init__(self):
        _check_finite("A", self.A, (*self.A.shape[:1], self.frame.n))
        _check_finite("b", self.b, self.A.shape[:1])
        # a NaN eps would switch the fidelity constraint off in every solver
        if not (np.isfinite(self.eps) and self.eps >= 0.0):
            raise DomainError(f"eps must be finite and nonnegative, got {self.eps}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _parse_noise(noise) -> float:
    """The declared noise bound: 0 for "none", eps for ("bounded", eps)."""
    if noise == "none" or noise is None:
        return 0.0
    if isinstance(noise, (tuple, list)) and len(noise) == 2:
        kind, level = noise
        level = float(level)
        if kind == "bounded" and 0.0 <= level < np.inf:
            return level
    raise ParameterError(f"noise must be 'none' or ('bounded', eps); got {noise!r}")


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
    level = _parse_noise(noise)
    m = A.shape[0]
    clean = np.abs(A @ x0)
    if level == 0.0:
        e = np.zeros(m)
    else:
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(m)
        direction /= np.linalg.norm(direction)
        radius = level * rng.uniform() ** (1.0 / m)
        e = radius * direction
    b = clean + e
    return b, e, float(np.linalg.norm(e))


def phase_distance(x_hat: np.ndarray, x0: np.ndarray, field: str = "real") -> float:
    """Distance modulo the global sign, min(||x_hat - x0||, ||x_hat + x0||).
    field names the scalars; only "real" is supported."""
    if field != "real":
        raise ParameterError(f"field must be 'real', got {field!r}")
    x_hat = np.asarray(x_hat)
    x0 = np.asarray(x0)
    if x_hat.shape != x0.shape:
        raise DimensionError(f"shape mismatch {x_hat.shape} vs {x0.shape}")
    return float(min(np.linalg.norm(x_hat - x0), np.linalg.norm(x_hat + x0)))


def build_problem(
    A: np.ndarray,
    F: TightFrame,
    truth: DictionarySparseSignal,
    q: float,
    noise="none",
    seed: int | None = None,
) -> PhaselessProblem:
    """Simulate measurements of truth.x and package them as a problem instance."""
    b, _, _ = forward_phaseless(A, truth.x, noise=noise, seed=seed)
    # a copy, so that editing the caller's A afterwards cannot break b = |A x0|
    return PhaselessProblem(A=np.array(A, dtype=float), frame=F, b=b, eps=_parse_noise(noise),
                            q=float(q), truth=truth)
