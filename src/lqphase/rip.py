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
supports and a possibly empty layer of 0/1 row masks and cuts the supports
into chunks of at most STACK_ELEMS elements per array.  Each support's
columns B = A Q (d of them, d the rank of D_S) come from one of two
sources.  At order <= 2, a support whose columns do not vanish and whose
D_S^T D_S is well conditioned forms no basis: its Gram-Schmidt columns come
in closed form from P = A D and the frame Gram D^T D, taken once per call.
The other supports, and every support of order >= 3, take their bases from
linalg.support_bases, one batched SVD of the (C, n, k) column stack grouped
by numerical rank.  One Gram step serves both: the Gram of a row set I
holds the sums over I of the row products B_p B_q, taken over the upper
triangle (p, q), so one row sum evaluates I = [m], one product with the
masks the layer, and linalg.sym_eig_bounds gives the extremes from those
entries, in closed form at d <= 2.  DRIP and its sampled estimator are the
kernel with an empty layer, S-DRIP and its sampled estimator the kernel
with the size-h layer; so S-DRIP's delta is DRIP's, bit for bit.  Unlike the
oracle's objectives, the isometry constants carry no tie rule: a batched
eigenvalue agrees with the per-support one to rounding, so the batched
values are the constants.  All four entry points return a RipReport; a
DRIP report names the first maximal support, in lexicographic order, in
details["witness_support"].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, ceil, floor

import numpy as np

from .errors import ParameterError, ResourceBudgetError
from .frames import TightFrame
from .linalg import (
    STACK_ELEMS,
    check_budget,
    check_matrix,
    combination_array,
    subset_masks,
    support_bases,
    sym_eig_bounds,
    triu_pairs,
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


# The closed form of _extremes takes an order-2 support when
# tr(M)^2 / det(M) < _CLOSED_FORM_COND for M = D_S^T D_S.  As
# cond(M) <= tr(M)^2 / det(M) <= 4 cond(M), that admits every support with
# cond(M) < 2500 (the frames of the benchmark peak near 344) and none above
# 1e4; the others, and a support with a vanishing column, take the SVD path.
_CLOSED_FORM_COND = 1e4


def _gram_schmidt_columns(X: np.ndarray, G: np.ndarray, n: int,
                          supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of a (c, k) stack of supports, k <= 2, take the closed form, as a
    boolean mask, and the columns of A Q for those, as one (k, rows, m) array.

    Q is the Gram-Schmidt basis of col(D_S): q0 = d_i / sqrt(a), and at order
    2 q1 = r / ||r||, with r = d_j - (g/a) d_i, a = ||d_i||^2 and g = d_i^T d_j
    read off G = D^T D.  With P = A D, A q0 = P_i / sqrt(a) and
    A q1 = (P_j - (g/a) P_i) / ||r||, so no basis is formed.  Row i of X is
    d_i followed by P_i, so one update forms r and A r.  ||r|| is taken from r
    itself, as sqrt(det(M) / a) loses up to cond(M) ulps to cancellation.
    """
    i, norms2 = supports[:, 0], G.diagonal()
    a = norms2[i]
    if supports.shape[1] == 1:
        ok = a > 0.0
        return ok, (X[i[ok], n:] / np.sqrt(a[ok])[:, None])[None]
    j = supports[:, 1]
    b, g = norms2[j], G[i, j]
    ok = (a + b) ** 2 < _CLOSED_FORM_COND * (a * b - g * g)
    if not ok.all():
        i, j, a, g = i[ok], j[ok], a[ok], g[ok]
    Xi = X[i]
    Y = X[j] - (g / a)[:, None] * Xi  # rows r and A r
    B = np.empty((2, len(i), X.shape[1] - n))
    np.divide(Xi[:, n:], np.sqrt(a)[:, None], out=B[0])
    np.divide(Y[:, n:], np.sqrt(np.einsum("cn,cn->c", Y[:, :n], Y[:, :n]))[:, None], out=B[1])
    return ok, B


def _extremes(A: np.ndarray, D: np.ndarray, supports: np.ndarray,
              masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extreme quotients ||A_I y||^2 / ||y||^2 over col(D_S) for each row S
    of a (C, k) stack of supports.

    I ranges over [m] and a layer of 0/1 row masks, shared (M, m) or one set
    per support (C, M, m), possibly empty (M = 0).  Returns the smallest and
    the largest quotient over all of them and the DRIP deviation
    max(hi - 1, 1 - lo) on I = [m] alone, each of length C, NaN where the
    columns of D_S vanish.

    The supports _gram_schmidt_columns admits take their columns from it,
    the others from support_bases, and both the same Gram step (module
    docstring).
    """
    (C, k), (m, n), M = supports.shape, A.shape, masks.shape[-2]
    lo, hi, dev = np.full((3, C), np.nan)
    # float64 elements per support in a chunk's largest arrays: the column
    # stack and B, and with a layer the (e, c, m) and (e, c, M) entry stacks,
    # e = d(d + 1) / 2 <= k^2
    step = max(1, STACK_ELEMS // (k * max(n, m, (m + M) * k if M else 0)))
    if k <= 2:
        X, G = np.concatenate((D.T, D.T @ A.T), axis=1), D.T @ D
    for start in range(0, C, step):
        chunk = supports[start:start + step]
        sources, rest = [], np.arange(len(chunk))  # rest: the supports on the SVD path
        if k <= 2:
            ok, B = _gram_schmidt_columns(X, G, n, chunk)
            sources.append((np.flatnonzero(ok), B))
            rest = np.flatnonzero(~ok)
        if len(rest):
            sources += [(rest[rows], np.moveaxis(A @ Q, 2, 0))
                        for rows, Q in support_bases(D, chunk[rest])]
        for rows, B in sources:  # B: the (d, c, m) columns of A Q
            p, q = triu_pairs(len(B))
            V = B[p] * B[q]  # per row, the upper-triangle entries of its Gram, (e, c, m)
            rows = start + rows
            low, high = sym_eig_bounds(len(B), V.sum(axis=2))
            dev[rows] = np.fmax(high - 1.0, 1.0 - low)
            if M:  # the Gram of I sums the entries of the rows in I
                layer = ((V.reshape(-1, m) @ masks.T).reshape(len(V), len(rows), M) if masks.ndim == 2
                         else np.einsum("ecm,cjm->ecj", V, masks[rows]))
                layer_lo, layer_hi = sym_eig_bounds(len(B), layer)
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
    """Index of the first largest DRIP deviation, in support order.  A
    deviation max(hi - 1, 1 - lo) is >= 0, so NaN (a vanishing support) is
    ranked last as -1."""
    i = int(np.argmax(np.where(dev >= 0.0, dev, -1.0)))
    if not dev[i] >= 0.0:
        raise ParameterError("every evaluated support has vanishing frame columns")
    return i


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
                     theta_minus=float(np.fmin.reduce(lo)), theta_plus=float(np.fmax.reduce(hi)),
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
    lo, hi, dev = _extremes(A, F.D, combination_array(F.N, order), subset_masks(m, h))
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
