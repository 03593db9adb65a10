"""Tight (Parseval) frames used as redundant dictionaries.

A frame here is an n x N real matrix D with orthonormal rows (DD^T = I_n),
together with the (N-n) x N matrix D_perp whose rows complete the rows of D
to an orthonormal basis of R^N.  Consequently, for every z in R^N,

    ||z||^2 = ||Dz||^2 + ||D_perp z||^2,

and for every f in R^n, ||D^T f|| = ||f||.  Only Parseval frames are
constructed; general frame bounds are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError
from .linalg import null_space

FRAME_TOL = 1e-10

NAMED_FRAMES = ("identity", "mercedes", "duplicated_identity")


@dataclass(frozen=True)
class TightFrame:
    """Parseval frame D (n x N) together with its orthonormal complement."""

    n: int
    N: int
    D: np.ndarray
    D_perp: np.ndarray
    label: str = field(default="frame")


@dataclass(frozen=True)
class FrameValidation:
    parseval_deviation: float
    stack_deviation: float
    passed: bool


def _complete_rows(D: np.ndarray) -> np.ndarray:
    # rows of D_perp span the orthogonal complement of the row space of D
    perp = null_space(D).T
    return np.ascontiguousarray(perp)


def _as_frame(D: np.ndarray, label: str) -> TightFrame:
    n, N = D.shape
    F = TightFrame(n=n, N=N, D=D, D_perp=_complete_rows(D), label=label)
    report = validate_frame(F)
    if not report.passed:
        raise ConfigurationError(
            f"constructed frame is not Parseval within {FRAME_TOL:g} "
            f"(deviations {report.parseval_deviation:.3e}, {report.stack_deviation:.3e})"
        )
    return F


def build_parseval_random(n: int, N: int, seed: int) -> TightFrame:
    """Random Parseval frame: first n rows of a Haar-random N x N orthogonal matrix.

    Deterministic given (n, N, seed).
    """
    if n < 1 or N < n:
        raise DimensionError(f"need 1 <= n <= N, got n={n}, N={N}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, N))
    Q, R = np.linalg.qr(G)
    # sign fix makes the distribution Haar and the output reproducible
    Q = Q * np.sign(np.diag(R))
    D = np.ascontiguousarray(Q[:, :n].T)
    D_perp = np.ascontiguousarray(Q[:, n:].T)
    return TightFrame(n=n, N=N, D=D, D_perp=D_perp,
                      label=f"random(n={n},N={N},seed={seed})")


def build_named_frame(name: str, n: int | None = None) -> TightFrame:
    """Deterministic fixture frames: identity, mercedes, duplicated_identity."""
    if name == "identity":
        if n is None or n < 1:
            raise ConfigurationError("identity frame requires a positive n")
        return _as_frame(np.eye(n), label=f"identity(n={n})")
    if name == "duplicated_identity":
        if n is None or n < 1:
            raise ConfigurationError("duplicated_identity frame requires a positive n")
        D = np.hstack([np.eye(n), np.eye(n)]) / np.sqrt(2.0)
        return _as_frame(D, label=f"duplicated_identity(n={n})")
    if name == "mercedes":
        if n is not None and n != 2:
            raise ConfigurationError("mercedes frame is fixed at n=2")
        root3 = np.sqrt(3.0)
        D = np.sqrt(2.0 / 3.0) * np.array(
            [[1.0, -0.5, -0.5], [0.0, root3 / 2.0, -root3 / 2.0]]
        )
        return _as_frame(D, label="mercedes")
    raise ConfigurationError(f"unknown frame name {name!r}; choose from {NAMED_FRAMES}")


def validate_frame(F: TightFrame) -> FrameValidation:
    """Report the worst entrywise deviations from the Parseval identities."""
    dd = F.D @ F.D.T - np.eye(F.n)
    parseval_dev = float(np.max(np.abs(dd))) if dd.size else 0.0
    stacked = np.vstack([F.D, F.D_perp])
    st = stacked @ stacked.T - np.eye(F.N)
    stack_dev = float(np.max(np.abs(st))) if st.size else 0.0
    return FrameValidation(
        parseval_deviation=parseval_dev,
        stack_deviation=stack_dev,
        passed=(parseval_dev < FRAME_TOL and stack_dev < FRAME_TOL),
    )
