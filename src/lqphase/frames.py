"""Tight (Parseval) frames used as redundant dictionaries.

A frame here is an n x N real matrix D with orthonormal rows (DD^T = I_n),
and nothing else: n and N are read off D's shape.  The package uses D only
through Dz and D^T f, and these identities follow from DD^T = I_n alone:
for every f in R^n, ||D^T f|| = ||f||; for every z in R^N, ||Dz|| <= ||z||,
with equality exactly when z lies in D's row space (z = D^T D z).  Only
Parseval frames are constructed; general frame bounds are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError

FRAME_TOL = 1e-10

NAMED_FRAMES = ("identity", "mercedes", "duplicated_identity")


@dataclass(frozen=True)
class TightFrame:
    """Parseval frame D (n x N)."""

    D: np.ndarray
    label: str = field(default="frame")

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def N(self) -> int:
        return self.D.shape[1]


@dataclass(frozen=True)
class FrameValidation:
    parseval_deviation: float
    passed: bool


def _as_frame(D: np.ndarray, label: str) -> TightFrame:
    F = TightFrame(D=D, label=label)
    report = validate_frame(F)
    if not report.passed:
        raise ConfigurationError(
            f"constructed frame is not Parseval within {FRAME_TOL:g} "
            f"(deviation {report.parseval_deviation:.3e})"
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
    D = np.ascontiguousarray((Q[:, :n] * np.sign(np.diag(R)[:n])).T)
    return TightFrame(D=D, label=f"random(n={n},N={N},seed={seed})")


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
    """Report the worst entrywise deviation from DD^T = I_n."""
    dd = F.D @ F.D.T - np.eye(F.n)
    parseval_dev = float(np.max(np.abs(dd))) if dd.size else 0.0
    return FrameValidation(parseval_deviation=parseval_dev, passed=parseval_dev < FRAME_TOL)
