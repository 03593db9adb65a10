"""Exact and sampled isometry constants of A against dictionary-sparse vectors.

For a support S the admissible directions are the nonzero elements of
col(D_S); the extreme Rayleigh quotients of ||A y||^2 / ||y||^2 over that
column space are eigenvalue bounds of Q^T A^T A Q for any orthonormal basis
Q of col(D_S).  Rank-deficient supports (dependent frame columns) are
handled by restricting to the numerically nonzero singular directions.

The strong variant additionally ranges over all row subsets I of A holding
at least half the measurements; because the defining inequalities are
universal over the sparse vector, the min/max over I commute with that
quantifier and exhaustive enumeration over (I, S) pairs is exact.

The full-row subset I = [m] is one of those subsets, so sdrip_constants
reads delta off its own enumeration: the extremes on I = [m] are the DRIP
extremes, up to the order in which A^T A is summed.

Supports are enumerated in batches.  The basis kernel, linalg.support_bases,
takes a chunk of supports (lexicographic order, at most STACK_ELEMS elements
per stack), runs one batched SVD of the (C, n, k) column stack and groups
the slices by numerical rank; each group then needs one batched matrix
product and one batched eigen-bounds call.  Exhaustive, sampled and
half-subset constants and the DRIP witness all use it, the single-support
callers with a one-row stack.  Unlike the oracle's objectives, the
isometry constants carry no tie rule: a batched eigenvalue agrees with the
per-support one to rounding (on the test corpus, exactly), so the batched
values are the constants, and the first maximal support in lexicographic order
names the witness, which is recomputed for that support alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, ceil, floor

import numpy as np

from .errors import DimensionError, ParameterError, ResourceBudgetError
from .frames import TightFrame
from .linalg import STACK_ELEMS, batch_sym_eig_bounds, combination_blocks, support_bases

SUPPORT_BUDGET = 10**6
SDRIP_MAX_M = 14


@dataclass(frozen=True)
class DripWitness:
    """Support and coefficient vector attaining the extremal quotient."""

    support: tuple[int, ...]
    z: np.ndarray
    quotient: float
    side: str  # "upper" (lambda_max) or "lower" (lambda_min)


@dataclass(frozen=True)
class RipReport:
    order: int
    delta: float
    theta_minus: float | None = None
    theta_plus: float | None = None
    min_subset_size: int | None = None
    exhaustive: bool = True
    details: dict = field(default_factory=dict)


def drip_order_for_t(t: float, k: int) -> int:
    """Order ceil(t*k) used when t*k is not an integer (products within
    1e-9 of an integer are treated as that integer)."""
    if t <= 0.0 or k < 1:
        raise ParameterError(f"need t > 0 and k >= 1, got t={t}, k={k}")
    tk = t * k
    nearest = round(tk)
    if abs(tk - nearest) < 1e-9:
        return int(nearest)
    return int(ceil(tk))


def _support_extremes(D: np.ndarray, G: np.ndarray,
                      supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme quotients y^T G y / y^T y over col(D_S) for each support row;
    NaN where the columns vanish."""
    lo = np.full(len(supports), np.nan)
    hi = np.full(len(supports), np.nan)
    step = max(1, STACK_ELEMS // (D.shape[0] * supports.shape[1]))
    for start in range(0, len(supports), step):
        for rows, Q in support_bases(D, supports[start:start + step]):
            M = np.swapaxes(Q, 1, 2) @ G @ Q
            lo[start + rows], hi[start + rows] = batch_sym_eig_bounds(M)
    return lo, hi


def _side(lo: float, hi: float) -> str:
    return "upper" if hi - 1.0 >= 1.0 - lo else "lower"


def _check_problem(A: np.ndarray, F: TightFrame) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != F.n:
        raise DimensionError(f"A has shape {A.shape}; frame dimension is {F.n}")
    return A


def _deviation(lo: float, hi: float) -> float:
    return max(hi - 1.0, 1.0 - lo)


def drip_constant(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    support_budget: int = SUPPORT_BUDGET,
) -> tuple[float, DripWitness]:
    """Exact isometry defect at the given sparsity order, with witness.

    delta = max over supports |S| = order of max(lambda_max - 1, 1 - lambda_min)
    where lambda are the extreme quotients on col(D_S).
    """
    A = _check_problem(A, F)
    if not (1 <= order <= F.N):
        raise ParameterError(f"order must lie in [1, {F.N}], got {order}")
    n_supports = comb(F.N, order)
    if n_supports > support_budget:
        raise ResourceBudgetError(
            f"C({F.N},{order}) = {n_supports} supports exceed the budget {support_budget}; "
            "use the sampled estimator"
        )
    G = A.T @ A
    best: tuple[float, tuple[int, ...], str] | None = None
    for supports in combination_blocks(F.N, order, max(1, STACK_ELEMS // (F.n * order))):
        lo, hi = _support_extremes(F.D, G, supports)
        dev = np.fmax(hi - 1.0, 1.0 - lo)  # NaN only where the columns vanish
        if np.all(np.isnan(dev)):
            continue
        i = int(np.nanargmax(dev))  # first maximum, as in support order
        if best is None or dev[i] > best[0]:
            best = (float(dev[i]), tuple(supports[i].tolist()), _side(lo[i], hi[i]))
    if best is None:
        raise ParameterError("every candidate support has vanishing frame columns")
    dev, S, side = best
    witness = _witness_for_support(A, F, S, side)
    return dev, witness


def _witness_for_support(A: np.ndarray, F: TightFrame, S: tuple[int, ...], side: str) -> DripWitness:
    Q = support_bases(F.D, np.array([S], dtype=np.intp))[0][1][0]
    M = Q.T @ (A.T @ A) @ Q
    w, V = np.linalg.eigh(M)
    idx = -1 if side == "upper" else 0
    y = Q @ V[:, idx]
    # lift the direction back to coefficients supported on S
    zs, *_ = np.linalg.lstsq(F.D[:, list(S)], y, rcond=None)
    z = np.zeros(F.N)
    z[list(S)] = zs
    return DripWitness(support=tuple(S), z=z, quotient=float(w[idx]), side=side)


def drip_constant_sampled(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    budget: int = 10**5,
    seed: int = 0,
    refine: bool = True,
) -> tuple[float, DripWitness]:
    """Random-quotient lower bound on the isometry defect.

    Draws `budget` random supports; without refinement, each distinct support
    contributes random-coefficient Rayleigh quotients, one per draw.  With
    refine=True the extremes of every visited support are computed exactly, so
    the gap to the exhaustive constant vanishes once all supports have been
    seen.  The returned value never exceeds the exhaustive one.
    """
    A = _check_problem(A, F)
    if not (1 <= order <= F.N):
        raise ParameterError(f"order must lie in [1, {F.N}], got {order}")
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    G = A.T @ A
    # vectorized uniform k-subsets: order statistics of i.i.d. uniforms
    draws = np.argsort(rng.random((budget, F.N)), axis=1)[:, :order]
    draws.sort(axis=1)
    # distinct supports in lexicographic order (the witness is the first
    # maximal one), through their base-N keys while those fit in int64; the
    # row-wise unique sorts structured rows and is about 10x slower
    if F.N**order <= 2**63:
        keys = draws @ F.N ** np.arange(order - 1, -1, -1)
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        visited = draws[first]
    else:
        visited, counts = np.unique(draws, axis=0, return_counts=True)
    if refine:
        lo, hi = _support_extremes(F.D, G, visited)
    else:
        lo = np.full(len(visited), np.nan)
        hi = np.full(len(visited), np.nan)
        for i, (row, cnt) in enumerate(zip(visited, counts)):
            Y = F.D[:, row] @ rng.standard_normal((order, int(cnt)))
            norms = np.sum(Y * Y, axis=0)
            keep = norms > 0.0
            if np.any(keep):
                quots = np.sum(Y[:, keep] * (G @ Y[:, keep]), axis=0) / norms[keep]
                lo[i], hi[i] = np.min(quots), np.max(quots)
    dev = np.fmax(hi - 1.0, 1.0 - lo)
    if np.all(np.isnan(dev)):
        raise ParameterError("sampling never hit a support with nonvanishing frame columns")
    i = int(np.nanargmax(dev))
    witness = _witness_for_support(A, F, tuple(visited[i].tolist()), _side(lo[i], hi[i]))
    return float(dev[i]), witness


def _min_subset_size(m: int, half_rule: str) -> int:
    """Smallest row-subset size |I| of the half-subset constants."""
    if half_rule == "ceil":
        return ceil(m / 2)
    if half_rule == "floor":
        return max(1, floor(m / 2))
    raise ParameterError(f"half_rule must be 'ceil' or 'floor', got {half_rule!r}")


def _half_subsets(m: int, half_rule: str) -> list[tuple[int, ...]]:
    subsets: list[tuple[int, ...]] = []
    for size in range(_min_subset_size(m, half_rule), m + 1):
        subsets.extend(combinations(range(m), size))
    return subsets


def sdrip_constants(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    half_rule: str = "ceil",
    support_budget: int = SUPPORT_BUDGET,
    max_m: int = SDRIP_MAX_M,
) -> RipReport:
    """Exhaustive half-subset isometry extremes (theta_minus, theta_plus).

    theta_minus = min over subsets I (|I| >= m/2) and supports S of the
    smallest quotient ||A_I y||^2 / ||y||^2 over col(D_S); theta_plus is the
    corresponding max of the largest quotient.  delta is the DRIP constant,
    taken from the full-row subset of the same enumeration.
    """
    A = _check_problem(A, F)
    if not (1 <= order <= F.N):
        raise ParameterError(f"order must lie in [1, {F.N}], got {order}")
    m = A.shape[0]
    if m > max_m:
        raise ResourceBudgetError(
            f"m={m} exceeds the exhaustive subset guard ({max_m}); use the sampled estimator"
        )
    n_supports = comb(F.N, order)
    if n_supports > support_budget:
        raise ResourceBudgetError(
            f"C({F.N},{order}) = {n_supports} supports exceed the budget {support_budget}"
        )
    subsets = _half_subsets(m, half_rule)  # ends with the full-row subset
    masks = np.zeros((len(subsets), m))
    for i, I in enumerate(subsets):
        masks[i, list(I)] = 1.0

    theta_minus = np.inf
    theta_plus = -np.inf
    delta = 0.0
    rows = max(1, STACK_ELEMS // (len(subsets) * order * order))
    for supports in combination_blocks(F.N, order, rows):
        for _, Q in support_bases(F.D, supports):
            B = A @ Q  # (c, m, d); row i contributes outer(B_i, B_i) when i in I
            c, _, d = B.shape
            row_grams = np.einsum("cip,ciq->cipq", B, B).reshape(c, m, d * d)
            Ms = (masks @ row_grams).reshape(c * len(subsets), d, d)
            lows, highs = (v.reshape(c, len(subsets)) for v in batch_sym_eig_bounds(Ms))
            theta_minus = min(theta_minus, float(np.min(lows)))
            theta_plus = max(theta_plus, float(np.max(highs)))
            delta = max(delta, float(np.max(np.fmax(highs[:, -1] - 1.0, 1.0 - lows[:, -1]))))
    if not np.isfinite(theta_minus):
        raise ParameterError("every candidate support has vanishing frame columns")
    return RipReport(
        order=order,
        delta=delta,
        theta_minus=theta_minus,
        theta_plus=theta_plus,
        min_subset_size=min(len(s) for s in subsets),
        exhaustive=True,
        details={"half_rule": half_rule, "n_subsets": len(subsets), "n_supports": n_supports},
    )


def sdrip_constants_sampled(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    budget: int = 10**4,
    seed: int = 0,
    half_rule: str = "ceil",
) -> RipReport:
    """One-sided sampled bounds: reported theta_minus is an upper bound on the
    true minimum, theta_plus a lower bound on the true maximum."""
    A = _check_problem(A, F)
    m = A.shape[0]
    min_size = _min_subset_size(m, half_rule)
    rng = np.random.default_rng(seed)
    hits = 0
    theta_minus = np.inf
    theta_plus = -np.inf
    delta_lb = 0.0
    for _ in range(budget):
        S = np.sort(rng.choice(F.N, size=order, replace=False))
        groups = support_bases(F.D, S[None])
        if not groups:
            continue
        Q = groups[0][1][0]
        size = int(rng.integers(min_size, m + 1))
        I = np.sort(rng.choice(m, size=size, replace=False))
        B = A[I] @ Q
        w = np.linalg.eigvalsh(B.T @ B)
        lo, hi = float(w[0]), float(w[-1])
        theta_minus = min(theta_minus, lo)
        theta_plus = max(theta_plus, hi)
        if size == m:
            delta_lb = max(delta_lb, _deviation(lo, hi))
        hits += 1
    if hits == 0:
        raise ParameterError("sampling never hit a support with nonvanishing frame columns")
    return RipReport(
        order=order,
        delta=float(delta_lb),
        theta_minus=float(theta_minus),
        theta_plus=float(theta_plus),
        min_subset_size=min_size,
        exhaustive=False,
        details={"half_rule": half_rule, "budget": budget, "seed": seed},
    )
