"""Exact and sampled isometry constants of A against dictionary-sparse vectors.

For a support S the admissible directions are the nonzero elements of
col(D_S); the extreme Rayleigh quotients of ||A_I y||^2 / ||y||^2 over that
column space are the extreme eigenvalues of B_I^T B_I, with B = A Q for any
orthonormal basis Q of col(D_S) and B_I its rows in I.  DRIP takes them at
I = [m].  Rank-deficient supports (dependent frame columns) are handled by
restricting to the numerically nonzero singular directions.

The strong variant (S-DRIP) additionally ranges over all row subsets I of
A holding at least h = min_subset_size rows; because the defining
inequalities are universal over the sparse vector, the min/max over I
commute with that quantifier.  Only two row layers can attain them: for
I within J, A_J^T A_J - A_I^T A_I is a sum of outer products b_i b_i^T and so
positive semidefinite, and by Weyl monotonicity both extreme eigenvalues on
col(D_S) can only grow as rows are added.  Every subset with more than h
rows contains one with exactly h, so theta_minus is attained on a size-h
subset, and theta_plus on I = [m].  sdrip_constants therefore evaluates
I = [m] and the C(m, h) size-h subsets per support instead of all subsets
of size >= h, and reads delta off I = [m].  The sampled estimator draws a
support with one size-h subset and evaluates the same two layers.

One kernel, _extremes, computes every constant.  It takes a stack of
supports and a possibly empty layer of 0/1 row masks, cuts the supports into
chunks of at most STACK_ELEMS elements per array, and takes each chunk's
bases from linalg.support_bases, which runs one batched SVD of the (C, n, k)
column stack and groups the slices by numerical rank.  Per group it
evaluates I = [m] as B^T B and the mask layer through masked sums of the
row Grams outer(B_i, B_i), each with one batched eigen-bounds call.  DRIP
and its sampled estimator are the kernel with an empty layer, S-DRIP and
its sampled estimator the kernel with the size-h layer; so S-DRIP's delta is
DRIP's, bit for bit.  Unlike the oracle's objectives, the isometry
constants carry no tie rule: a batched eigenvalue agrees with the
per-support one to rounding, so the batched values are the constants.  All
four entry points return a RipReport; a DRIP report names the first maximal
support, in lexicographic order, in details["witness_support"].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, ceil, floor

import numpy as np

from .errors import ParameterError, ResourceBudgetError
from .frames import TightFrame
from .linalg import (
    STACK_ELEMS,
    batch_sym_eig_bounds,
    check_budget,
    check_matrix,
    combination_array,
    support_bases,
)

SUPPORT_BUDGET = 10**6
SDRIP_MAX_M = 14


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


def _extremes(A: np.ndarray, D: np.ndarray, supports: np.ndarray,
              masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extreme quotients ||A_I y||^2 / ||y||^2 over col(D_S) for each row S
    of a (C, k) stack of supports.

    I ranges over [m] and a layer of 0/1 row masks, shared (M, m) or one set
    per support (C, M, m), possibly empty (M = 0).  Returns the smallest and
    the largest quotient over all of them and the DRIP deviation
    max(hi - 1, 1 - lo) on I = [m] alone, each of length C, NaN where the
    columns of D_S vanish.
    """
    (C, k), (m, n), M = supports.shape, A.shape, masks.shape[-2]
    lo, hi, dev = np.full((3, C), np.nan)
    # float64 elements per support in a chunk's largest arrays: the column
    # stack and B, and with a layer the row Grams and their masked sums
    step = max(1, STACK_ELEMS // (k * max(n, m, (m + M) * k if M else 0)))
    for start in range(0, C, step):
        for rows, Q in support_bases(D, supports[start:start + step]):
            rows = start + rows
            B = A @ Q  # (c, m, d)
            low, high = batch_sym_eig_bounds(np.swapaxes(B, 1, 2) @ B)
            dev[rows] = np.fmax(high - 1.0, 1.0 - low)
            if M:  # row i adds outer(B_i, B_i) to the Gram of every I holding it
                c, _, d = B.shape
                row_grams = np.einsum("cip,ciq->cipq", B, B).reshape(c, m, d * d)
                layer = masks if masks.ndim == 2 else masks[rows]
                layer_lo, layer_hi = (v.reshape(c, M) for v in
                                      batch_sym_eig_bounds((layer @ row_grams).reshape(-1, d, d)))
                low = np.minimum(low, layer_lo.min(axis=1))
                high = np.maximum(high, layer_hi.max(axis=1))
            lo[rows], hi[rows] = low, high
    return lo, hi, dev


def _uniform_subsets(rng: np.random.Generator, count: int, n: int, k: int) -> np.ndarray:
    """`count` uniform k-subsets of range(n) as sorted rows: the positions of
    the k smallest of n i.i.d. uniforms."""
    return np.sort(np.argsort(rng.random((count, n)), axis=1)[:, :k], axis=1)


def _check_problem(A: np.ndarray, F: TightFrame, order: int, budget: int = 1) -> np.ndarray:
    """check_matrix's A, once order lies in [1, N] and there is at least one draw."""
    A = check_matrix(A, F.n)
    if not (1 <= order <= F.N):
        raise ParameterError(f"order must lie in [1, {F.N}], got {order}")
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    return A


def _first_max(dev: np.ndarray) -> int:
    """Index of the first largest DRIP deviation, in support order."""
    if np.all(np.isnan(dev)):
        raise ParameterError("every evaluated support has vanishing frame columns")
    return int(np.nanargmax(dev))


def drip_constant(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    support_budget: int = SUPPORT_BUDGET,
) -> RipReport:
    """Exact isometry defect at the given sparsity order.

    delta = max over supports |S| = order of max(lambda_max - 1, 1 - lambda_min)
    where lambda are the extreme quotients on col(D_S).
    """
    A = _check_problem(A, F, order)
    check_budget(F.N, order, support_budget, "supports")
    return _drip(A, F, order, combination_array(F.N, order), exhaustive=True, details={})


def _drip(A: np.ndarray, F: TightFrame, order: int, supports: np.ndarray,
          exhaustive: bool, details: dict) -> RipReport:
    """The DRIP report of a stack of supports: the largest deviation, and the
    first support that attains it as details["witness_support"]."""
    *_, dev = _extremes(A, F.D, supports, np.zeros((0, A.shape[0])))
    i = _first_max(dev)
    return RipReport(order=order, delta=float(dev[i]), exhaustive=exhaustive,
                     details={**details, "witness_support": supports[i].tolist()})


def drip_constant_sampled(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    budget: int = 10**5,
    seed: int = 0,
) -> RipReport:
    """Sampled lower bound on the isometry defect.

    Draws `budget` uniform supports and computes the exact extremes of every
    distinct one, so the returned value never exceeds the exhaustive constant
    and equals it once every support has been drawn.
    """
    A = _check_problem(A, F, order, budget)
    draws = _uniform_subsets(np.random.default_rng(seed), budget, F.N, order)
    # distinct supports in lexicographic order (the witness is the first
    # maximal one), through their base-N keys while those fit in int64; the
    # row-wise unique sorts structured rows and is about 10x slower
    if F.N**order <= 2**63:
        _, first = np.unique(draws @ F.N ** np.arange(order - 1, -1, -1), return_index=True)
        visited = draws[first]
    else:
        visited = np.unique(draws, axis=0)
    return _drip(A, F, order, visited, exhaustive=False, details={"budget": budget, "seed": seed})


def _min_subset_size(m: int, half_rule: str) -> int:
    """Smallest row-subset size |I| of the half-subset constants."""
    if half_rule == "ceil":
        return ceil(m / 2)
    if half_rule == "floor":
        return max(1, floor(m / 2))
    raise ParameterError(f"half_rule must be 'ceil' or 'floor', got {half_rule!r}")


def _report(lo: np.ndarray, hi: np.ndarray, dev: np.ndarray, order: int, h: int,
            exhaustive: bool, details: dict) -> RipReport:
    """An S-DRIP report from the kernel's per-support extremes."""
    return RipReport(order=order, delta=float(dev[_first_max(dev)]),
                     theta_minus=float(np.nanmin(lo)), theta_plus=float(np.nanmax(hi)),
                     min_subset_size=h, exhaustive=exhaustive, details=details)


def sdrip_constants(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    half_rule: str = "ceil",
    support_budget: int = SUPPORT_BUDGET,
    max_m: int = SDRIP_MAX_M,
) -> RipReport:
    """Exhaustive half-subset isometry extremes (theta_minus, theta_plus).

    theta_minus = min over subsets I (|I| >= h = min_subset_size) and
    supports S of the smallest quotient ||A_I y||^2 / ||y||^2 over col(D_S);
    theta_plus is the corresponding max of the largest quotient.  By the
    two-layer argument (module docstring) each support is evaluated on
    I = [m] and on the C(m, h) size-h subsets only; delta is the DRIP
    constant, taken from I = [m].  details["n_subsets"] still counts all
    subsets with |I| >= h.
    """
    A = _check_problem(A, F, order)
    m = A.shape[0]
    if m > max_m:
        raise ResourceBudgetError(
            f"m={m} exceeds the exhaustive subset guard ({max_m}); use the sampled estimator"
        )
    check_budget(F.N, order, support_budget, "supports")
    h = _min_subset_size(m, half_rule)
    masks = np.zeros((comb(m, h), m))
    np.put_along_axis(masks, combination_array(m, h), 1.0, axis=1)
    lo, hi, dev = _extremes(A, F.D, combination_array(F.N, order), masks)
    return _report(lo, hi, dev, order, h, exhaustive=True, details={
        "half_rule": half_rule, "n_subsets": sum(comb(m, s) for s in range(h, m + 1)),
        "n_supports": comb(F.N, order)})


def sdrip_constants_sampled(
    A: np.ndarray,
    F: TightFrame,
    order: int,
    budget: int = 10**4,
    seed: int = 0,
    half_rule: str = "ceil",
) -> RipReport:
    """One-sided sampled bounds: reported theta_minus is an upper bound on the
    true minimum, theta_plus and delta lower bounds on the true maxima.

    Each of the `budget` draws is a uniform support S with a uniform row
    subset of size h = min_subset_size, and evaluates the two layers that
    attain the exhaustive constants: that subset (theta_minus) and I = [m]
    (theta_plus and delta).  Once every support has been drawn, theta_plus
    and delta therefore equal the exhaustive ones.
    """
    A = _check_problem(A, F, order, budget)
    m = A.shape[0]
    h = _min_subset_size(m, half_rule)
    rng = np.random.default_rng(seed)
    supports = _uniform_subsets(rng, budget, F.N, order)
    masks = np.zeros((budget, 1, m))  # per draw: its size-h subset
    np.put_along_axis(masks[:, 0], _uniform_subsets(rng, budget, m, h), 1.0, axis=1)
    lo, hi, dev = _extremes(A, F.D, supports, masks)
    return _report(lo, hi, dev, order, h, exhaustive=False,
                   details={"half_rule": half_rule, "budget": budget, "seed": seed})
