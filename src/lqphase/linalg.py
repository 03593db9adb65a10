"""Small dense linear-algebra helpers used across the package.

The enumeration kernels take the k-subsets of range(N) as index arrays from
combination_blocks, in the lexicographic order of itertools.combinations.
Rank decisions use a relative singular-value cutoff (default 1e-10 times
the largest singular value), matching the frame-validation tolerance.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb

import numpy as np

RANK_RTOL = 1e-10
# Float64 elements per array in the batched enumeration kernels (512 KiB):
# the pattern axis is cut into chunks of at most this many elements per
# stack, so peak memory does not grow with the number of patterns, while a
# chunk is still large enough to amortize the per-call overhead of numpy.
STACK_ELEMS = 2**16


def numerical_rank(s: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank from a singular-value array."""
    if s.size == 0:
        return 0
    smax = float(s[0])
    if smax <= 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * smax))


def null_space(M: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of {z : Mz = 0} for a dense p x n matrix.

    An empty matrix (p = 0) has the full space as its null space.
    """
    M = np.asarray(M)
    n = M.shape[1]
    if M.shape[0] == 0:
        return np.eye(n, dtype=float if not np.iscomplexobj(M) else complex)
    _, s, vh = np.linalg.svd(M)
    r = numerical_rank(s, rtol)
    return vh[r:].conj().T


def column_space(M: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of M."""
    M = np.asarray(M)
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0), dtype=M.dtype)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    r = numerical_rank(s, rtol)
    return u[:, :r]


def batch_sym_eig_bounds(Ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) eigenvalues of a stack of (B, d, d) symmetric matrices.

    Closed forms for d <= 2 run 1.6-18x faster than eigvalsh on the support
    and subset stacks of the isometry enumerations (B = 36-1001).
    """
    d = Ms.shape[-1]
    if d == 1:
        v = Ms[:, 0, 0]
        return v.copy(), v.copy()
    if d == 2:
        tr = Ms[:, 0, 0] + Ms[:, 1, 1]
        disc = (Ms[:, 0, 0] - Ms[:, 1, 1]) ** 2 + 4.0 * Ms[:, 0, 1] ** 2
        root = np.sqrt(np.maximum(disc, 0.0))
        return 0.5 * (tr - root), 0.5 * (tr + root)
    w = np.linalg.eigvalsh(Ms)
    return w[:, 0], w[:, -1]


@lru_cache(maxsize=16)
def _combination_array(N: int, k: int) -> np.ndarray:
    flat = np.fromiter(chain.from_iterable(combinations(range(N), k)), dtype=np.intp,
                       count=comb(N, k) * k)
    flat.flags.writeable = False
    return flat.reshape(-1, k)


def combination_blocks(N: int, k: int, rows: int):
    """The k-subsets of range(N) in lexicographic order, as read-only (<= rows, k)
    index arrays; a single block is cached, since sweeps ask for it repeatedly."""
    if comb(N, k) <= rows:
        yield _combination_array(N, k)
        return
    it = combinations(range(N), k)
    while block := list(islice(it, rows)):
        yield np.array(block, dtype=np.intp).reshape(len(block), k)
