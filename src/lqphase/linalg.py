"""Small dense linear-algebra helpers used across the package.

The enumeration kernels take the k-subsets of range(N) as index arrays, in
the lexicographic order of itertools.combinations: all of them at once from
combination_array, which caches the read-only array, or a chunk at a time
from combination_blocks.  check_budget (per x C(N, k) work items within a
budget) and check_matrix (a raw A of shape (m, n) with finite entries) are
the only copies of their rules; every entry point runs them before it
allocates or factors anything.
Rank decisions use a relative singular-value cutoff (1e-10 times the largest
singular value, or times a scale the caller knows), matching the
frame-validation tolerance.

support_bases is the package's only kernel for an orthonormal basis of
col(D_S): one batched SVD per stack of supports, slices grouped by numerical
rank.  The null-space diagnostics (nsp: the real falsifier's projections and
dictionary_sparse_distance) take every basis from it.  The isometry
constants (rip: DRIP, S-DRIP and the DRIP witness) take from it only the
supports of order >= 3 and the ill-conditioned ones; at order <= 2 their
kernel forms A Q in closed form, without a basis.  The
callers cut the support axis into chunks of at most STACK_ELEMS elements
(in rip, its one kernel does).  sym_eig_bounds, the package's one
eigenvalue kernel, takes symmetric matrices by their upper-triangle entries,
so rip's Grams over row sets and nsp's full-rank bound form no matrix;
subset_masks are the size-h row masks of S-DRIP and the NSP sign screen.

null_spaces is its counterpart for null spaces: one batched SVD per (C, p, n)
stack and the same rank rule per slice; a single matrix M is the stack
M[None].  The real NSP falsifier takes from it the null spaces of row
subsets and of (row subset, support) systems; the nsp module describes its
schedule, and why a cell or subset its bounds certify is one this rule
would find of full rank.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import DimensionError, DomainError, ResourceBudgetError

RANK_RTOL = 1e-10
# Float64 elements per array in the batched enumeration kernels (512 KiB):
# the pattern axis is cut into chunks of at most this many elements per
# stack, so peak memory does not grow with the number of patterns, while a
# chunk is still large enough to amortize the per-call overhead of numpy.
STACK_ELEMS = 2**16


def check_budget(N: int, k: int, budget: int, what: str, per: int = 1) -> None:
    """Raise ResourceBudgetError when per * C(N, k) work items `what` exceed budget."""
    if (count := per * comb(N, k)) > budget:
        head = f"C({N},{k})" if per == 1 else f"{per} x C({N},{k})"
        raise ResourceBudgetError(f"{head} = {count} {what} exceed the budget {budget}")


def check_matrix(A, n: int) -> np.ndarray:
    """A as a float array, once it is an (m, n) matrix with finite entries."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionError(f"A must have shape (m, {n}), got {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("A must be finite")
    return A


def numerical_rank(s: np.ndarray, scale: float | None = None):
    """Rank from singular values sorted in descending order along the last
    axis: an int for one array, an int array for a stack of them.

    The cutoff is RANK_RTOL times scale, by default the largest singular
    value; a caller whose matrices have a known unit scale passes scale=1.0,
    so that a matrix of rounding residue has rank 0.  The rank is 0 when
    there are no singular values or the largest is 0."""
    if s.shape[-1] == 0:
        return 0 if s.ndim == 1 else np.zeros(s.shape[:-1], dtype=np.intp)
    ranks = np.count_nonzero(s > RANK_RTOL * (s[..., :1] if scale is None else scale), axis=-1)
    return int(ranks) if s.ndim == 1 else ranks


def null_spaces(Ms: np.ndarray, scale: float | None = None) -> list[np.ndarray]:
    """Orthonormal bases (columns) of {z : M_i z = 0} for a (C, p, n) stack.

    One batched SVD, the rank of each slice by numerical_rank with its scale;
    a stack of empty matrices (p = 0) has the full space as every null space.
    """
    Ms = np.asarray(Ms)
    C, p, n = Ms.shape
    if p == 0:
        return [np.eye(n) for _ in range(C)]
    _, s, vh = np.linalg.svd(Ms)
    return [vh_i[r:].T for vh_i, r in zip(vh, numerical_rank(s, scale=scale).tolist())]


def support_bases(D: np.ndarray, supports: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Orthonormal bases of col(D_S) for a (C, k) stack of supports, by rank.

    One batched SVD of the (C, n, k) column stack; returns
    (rows, Q) per numerical rank r >= 1, with Q the (len(rows), n, r) bases of
    those rows.  Supports whose columns vanish (and empty supports) appear in
    no group.
    """
    u, s, _ = np.linalg.svd(np.swapaxes(D[:, supports], 0, 1), full_matrices=False)
    ranks = numerical_rank(s)
    groups = []
    for r in np.flatnonzero(np.bincount(ranks)).tolist():  # np.unique would import numpy.ma
        if r:
            rows = np.flatnonzero(ranks == r)
            groups.append((rows, u[rows, :, :r]))
    return groups


@lru_cache(maxsize=8)
def triu_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d), read-only and cached: a call costs about 10 us,
    as much as a whole order-2 Gram step of rip."""
    pairs = np.triu_indices(d)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def sym_eig_bounds(d: int, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) eigenvalues of symmetric d x d matrices given by their
    upper-triangle entries, stacked on axis 0 in triu_pairs(d) order: (a,)
    for [[a]], (a, c, b) for [[a, c], [c, b]].  The closed forms at d <= 2
    run 1.6-18x faster than LAPACK's symmetric eigensolver on the isometry
    enumerations' stacks (36-1001 matrices); d >= 3 assemble the matrices."""
    if d == 1:  # both bounds are the view entries[0], not copies: every caller only reads them
        return entries[0], entries[0]
    if d == 2:
        a, c, b = entries
        tr = a + b
        root = np.sqrt((a - b) ** 2 + 4.0 * c ** 2)
        return 0.5 * (tr - root), 0.5 * (tr + root)
    p, q = triu_pairs(d)
    M = np.empty(entries.shape[1:] + (d, d))
    M[..., p, q] = M[..., q, p] = np.moveaxis(entries, 0, -1)
    w = np.linalg.eigvalsh(M)
    return w[..., 0], w[..., -1]


@lru_cache(maxsize=32)
def subset_masks(m: int, h: int) -> np.ndarray:
    """The size-h subsets of range(m) in lexicographic order, as one
    read-only (C(m, h), m) array of 0/1 row masks, cached like
    combination_array."""
    masks = np.zeros((comb(m, h), m))
    np.put_along_axis(masks, combination_array(m, h), 1.0, axis=1)
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=16)
def combination_array(N: int, k: int) -> np.ndarray:
    """All k-subsets of range(N) in lexicographic order, as one read-only
    (C(N, k), k) index array, cached since sweeps ask for it repeatedly."""
    flat = np.fromiter(chain.from_iterable(combinations(range(N), k)), dtype=np.intp,
                       count=comb(N, k) * k)
    flat.flags.writeable = False
    return flat.reshape(comb(N, k), k)


def combination_blocks(N: int, k: int, rows: int):
    """The k-subsets of range(N) in lexicographic order, as read-only (<= rows, k)
    index arrays; a single block is combination_array's cached one."""
    if comb(N, k) <= rows:
        yield combination_array(N, k)
        return
    it = combinations(range(N), k)
    while block := list(islice(it, rows)):
        yield np.array(block, dtype=np.intp).reshape(len(block), k)
