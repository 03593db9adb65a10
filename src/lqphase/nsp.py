"""Null-space splitting diagnostics for magnitude-only recovery.

Real case: recovery of every dictionary-k-sparse signal up to sign is
equivalent to strict domination ||D^T(u+v)||_q^q < ||D^T(u-v)||_q^q for all
admissible splittings, where u lies in the null space of a row subset of A,
v in the null space of the complementary rows, and u+v is dictionary-sparse.
The falsifier searches for witnesses of failure cell by cell, a cell being a
row subset Lambda and a size-k support S; its splittings form a solution
space W, the null space of K = (I - P_S)[U V], with P_S the projection onto
col(D_S) and U, V null-space bases of the two row sets.  Cells are batched by
row-subset layer, a chunk of consecutive row subsets of equal null-space
dimensions at a time, and most are decided without decomposing K:

- when dim U + dim V exceeds rank(I - P_S) = n - rank(D_S), K cannot have
  full column rank, so the cell goes to the SVD;
- otherwise a Gram determinant certifies full rank, hence W = {0}, for a
  whole chunk at once (_full_rank_certified, whose docstring gives the
  margin argument);
- every cell not certified is decomposed by linalg.null_spaces, with the
  rank cutoff relative to the unit scale of [U V], in pieces that double as
  the scan reaches them, so a scan that stops at a witness decomposes fewer
  than twice the cells it scanned.

A cell with dim W <= 1 is decided exactly, by at most one evaluation of a
witness; only cells with dim W >= 2 are searched, so there the absence of a
counterexample is evidence, not proof, and results always carry the search
budget and mode.

Bases of col(D_S) come from linalg.support_bases, the kernel the isometry
constants use: the falsifier computes every support's projection once per
call, before it scans the row subsets, and dictionary_sparse_distance takes
them a chunk of supports at a time, for real and complex D alike.

Complex case: only witness evaluation is provided (block partitions of the
rows with per-block unimodular constants); the combinatorics of a search are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, groupby
from math import comb

import numpy as np

from .errors import InvalidWitnessError, ParameterError, ResourceBudgetError
from .frames import TightFrame
from .linalg import STACK_ELEMS, combination_array, combination_blocks, null_spaces, support_bases
from .rip import SUPPORT_BUDGET
from .signals import _check_q, lq_quasinorm

STRICTNESS_TOL = 1e-12
MEMBERSHIP_RTOL = 1e-8
NULLSPACE_TOL = 1e-9
ALL_SUBSETS_MAX_M = 14
# det(K^T K) that certifies a (row subset, support) system of full rank
# without an SVD: it gives s_min(K) > 6e-4, far above the rank cutoff 1e-10
# (see _full_rank_certified); derived from the cutoff, not tuned.
FULL_RANK_TAU = 1e-6


@dataclass(frozen=True)
class NspWitness:
    """Candidate violation of the real splitting condition.

    Lambda indexes rows of A (0-based); u must lie in N(A_Lambda), v in
    N(A_complement), and u+v must be dictionary-k-sparse.
    """

    Lambda: tuple[int, ...]
    u: np.ndarray
    v: np.ndarray
    q: float
    k: int
    lhs: float | None = None
    rhs: float | None = None
    violated: bool | None = None


@dataclass(frozen=True)
class ComplexNspWitness:
    """Candidate violation of the complex partition condition (0-based pair)."""

    Omega: tuple[tuple[int, ...], ...]
    phis: tuple[np.ndarray, ...]
    ds: np.ndarray
    pair: tuple[int, int]
    k: int
    lhs: float | None = None
    rhs: float | None = None
    violated: bool | None = None


def dictionary_sparse_distance(x: np.ndarray, D: np.ndarray, k: int,
                               support_budget: int = SUPPORT_BUDGET) -> float:
    """Distance from x to the set of dictionary-k-sparse vectors, by
    exhaustive support search; inf when k > N (there is no support).

    An empty support, or one whose columns vanish, spans {0} and gives ||x||.
    """
    x = np.asarray(x)
    n, N = D.shape
    if comb(N, k) > support_budget:
        raise ResourceBudgetError(f"C({N},{k}) supports exceed the budget {support_budget}")
    best = float(np.linalg.norm(x)) if k <= N else np.inf
    if k == 0:
        return best
    for supports in combination_blocks(N, k, max(1, STACK_ELEMS // (n * k))):
        for _, Q in support_bases(D, supports):
            proj = np.einsum("cir,cr->ci", Q, np.einsum("cir,i->cr", Q.conj(), x))
            best = min(best, float(np.min(np.linalg.norm(x - proj, axis=1))))
        if best == 0.0:
            break
    return best


def _rows(A: np.ndarray, idx) -> np.ndarray:
    return A[list(idx), :] if len(idx) else A[:0, :]


def nsp_real_evaluate(A: np.ndarray, F: TightFrame, w: NspWitness) -> NspWitness:
    """Validate a witness and decide whether it violates strict domination.

    violated means the strict inequality fails, i.e. lhs >= rhs - 1e-12.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    q = _check_q(w.q)
    u = np.asarray(w.u, dtype=float)
    v = np.asarray(w.v, dtype=float)
    Lam = tuple(sorted(int(i) for i in w.Lambda))
    if any(i < 0 or i >= m for i in Lam):
        raise InvalidWitnessError(f"Lambda {Lam} is not a subset of [0, {m})")
    comp = tuple(i for i in range(m) if i not in set(Lam))
    scale = max(np.linalg.norm(u), np.linalg.norm(v))
    if np.linalg.norm(u) <= NULLSPACE_TOL * max(1.0, scale):
        raise InvalidWitnessError("u must be nonzero")
    if np.linalg.norm(v) <= NULLSPACE_TOL * max(1.0, scale):
        raise InvalidWitnessError("v must be nonzero")
    if np.linalg.norm(_rows(A, Lam) @ u) > NULLSPACE_TOL * max(1.0, np.linalg.norm(u)):
        raise InvalidWitnessError("u is not in the null space of the Lambda rows")
    if np.linalg.norm(_rows(A, comp) @ v) > NULLSPACE_TOL * max(1.0, np.linalg.norm(v)):
        raise InvalidWitnessError("v is not in the null space of the complement rows")
    s = u + v
    ns = np.linalg.norm(s)
    if ns > 0:
        dist = dictionary_sparse_distance(s, F.D, w.k)
        if dist > MEMBERSHIP_RTOL * ns:
            raise InvalidWitnessError(
                f"u+v is not dictionary-{w.k}-sparse (relative distance {dist / ns:.2e})"
            )
    lhs = lq_quasinorm(F.D.T @ s, q)
    rhs = lq_quasinorm(F.D.T @ (u - v), q)
    return replace(w, Lambda=Lam, lhs=lhs, rhs=rhs, violated=bool(lhs >= rhs - STRICTNESS_TOL))


def _lambda_list(m: int, k: int, mode: str) -> list[tuple[int, ...]]:
    if mode == "card_at_most_k":
        max_size = min(k, m)
    elif mode == "all_subsets":
        if m > ALL_SUBSETS_MAX_M:
            raise ResourceBudgetError(
                f"m={m} exceeds the all-subsets guard ({ALL_SUBSETS_MAX_M})"
            )
        max_size = m
    else:
        raise ParameterError(f"lambda_mode must be 'card_at_most_k' or 'all_subsets', got {mode!r}")
    lams: list[tuple[int, ...]] = []
    for size in range(0, max_size + 1):
        lams.extend(combinations(range(m), size))
    return lams


def _coordinate_ascent(f, c0: np.ndarray, max_sweeps: int = 40) -> tuple[np.ndarray, float]:
    c = c0 / np.linalg.norm(c0)
    fc = f(c)
    step = 0.5
    dim = c.size
    for _ in range(max_sweeps):
        improved = False
        for i in range(dim):
            for sgn in (1.0, -1.0):
                cand = c.copy()
                cand[i] += sgn * step
                cand /= np.linalg.norm(cand)
                fcand = f(cand)
                if fcand > fc:
                    c, fc = cand, fcand
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return c, fc


def _search(gap, dim: int, restarts: int, entropy: tuple[int, int]):
    """The points c of the unit sphere in R^dim that the seeded restarts reach
    with gap(c) >= -STRICTNESS_TOL, in restart order.

    For dim = 1 the sphere is {1, -1}: c0/|c0| is +-1 exactly, every ascent
    candidate normalises back to its start, and gap(-c) equals gap(c) bit for
    bit.  Every restart therefore reaches the same verdict, and one evaluation
    decides the cell; the point is the sign of the first nonzero draw.
    """
    if dim == 1 and gap(np.ones(1)) < -STRICTNESS_TOL:
        return
    rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy))
    for _ in range(restarts):
        c0 = rng.standard_normal(dim)
        if np.linalg.norm(c0) == 0.0:
            continue
        if dim == 1:
            yield np.sign(c0)
            return
        c, fc = _coordinate_ascent(gap, c0)
        if fc >= -STRICTNESS_TOL:
            yield c


def _full_rank_certified(B: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(L, C) mask of the systems K = P_c B_l that certainly have full column
    rank, for B (L, n, d) stacking [U V] (U, V with orthonormal columns) and
    P (C, n, n) orthogonal projections.

    G = B^T P B = K^T K.  Every eigenvalue of G is at most ||B||^2 <= 2, so
    s_max(K) <= sqrt(2), and det(G) >= FULL_RANK_TAU gives
    s_min(K) >= sqrt(FULL_RANK_TAU / 2^(d-1)).  The trace gives more: the
    columns of B are unit vectors and P is a contraction, so tr G <= d, and
    by AM-GM the d - 1 largest eigenvalues multiply to at most
    (d / (d-1))^(d-1) < e.  So det(G) >= FULL_RANK_TAU = 1e-6 gives
    lambda_min(G) > 1e-6 / e and s_min(K) > 6e-4 for every d.  The Gram, the
    LU of det and the SVD each err by O(d eps), so a certified slice has every
    singular value far above the 1e-10 rank cutoff of null_spaces: the SVD
    would find its null space {0}.  A slice that fails, or whose determinant
    is NaN, is left to the SVD.
    """
    G = np.swapaxes(B, 1, 2)[:, None] @ (P @ B[:, None])
    return np.linalg.det(G) >= FULL_RANK_TAU


def _systems(P: np.ndarray, chunk: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]],
             cells: np.ndarray, n_supports: int) -> np.ndarray:
    """The stack of K = (I - P_S)[U V] for the flat (row subset, support)
    indices cells of a chunk of (Lambda, U, V), with P[S] = I - P_S.

    A slice is P[S] @ U and P[S] @ V side by side, the same products (and
    bits) as in any other stack; P[S] @ hstack([U, V]) would not be
    bit-identical.
    """
    rows, cols = np.divmod(cells, n_supports)
    Ks = []
    for row in dict.fromkeys(rows.tolist()):
        _, U, V = chunk[row]
        Ps = P[cols[rows == row]]
        Ks.append(np.concatenate([Ps @ U, Ps @ V], axis=2))
    return np.concatenate(Ks)


def _cell_witness(A: np.ndarray, F: TightFrame, Lam: tuple[int, ...], U: np.ndarray,
                  V: np.ndarray, W: np.ndarray, k: int, q: float, restarts: int,
                  entropy: tuple[int, int]) -> NspWitness | None:
    """The first violated witness that _search reaches in the cell (Lam, S)
    whose solution space W of (a, b) is nonzero, or None."""
    du = U.shape[1]
    Mu = U @ W[:du, :]
    Mv = V @ W[du:, :]
    Lp = F.D.T @ (Mu + Mv)
    Lm = F.D.T @ (Mu - Mv)

    def gap(c: np.ndarray) -> float:
        return float(np.sum(np.abs(Lp @ c) ** q) - np.sum(np.abs(Lm @ c) ** q))

    for c in _search(gap, W.shape[1], restarts, entropy):
        a = W[:du, :] @ c
        b = W[du:, :] @ c
        # null bases are orthonormal, so ||u|| = ||a|| and ||v|| = ||b||
        if np.linalg.norm(a) <= 1e-9 or np.linalg.norm(b) <= 1e-9:
            continue
        u = Mu @ c
        v = Mv @ c
        ns = np.linalg.norm(u + v)
        if ns > 1e-12:
            u, v = u / ns, v / ns
        checked = nsp_real_evaluate(A, F, NspWitness(Lambda=Lam, u=u, v=v, q=q, k=k))
        if checked.violated:
            return checked
    return None


def nsp_real_falsify(
    A: np.ndarray,
    F: TightFrame,
    k: int,
    q: float,
    budget: int = 10**4,
    seed: int = 0,
    lambda_mode: str = "card_at_most_k",
) -> NspWitness | None:
    """Search for a witness violating the strict splitting condition.

    For each row subset Lambda and each size-k support S, witnesses are
    parametrized by the solution space W of (I - P_S)(Ua + Vb) = 0, with U, V
    orthonormal null-space bases of the Lambda rows and of the complement
    rows and P_S the projection onto col(D_S).  W is the null space of
    K = (I - P_S)[U V], with the rank cutoff taken relative to the unit scale
    of [U V] (so K = 0 up to rounding, as when D_S spans R^n, has W = R^d).
    Row-subset null spaces come one stacked SVD per subset size, each size
    when the scan first needs it.  Cells are batched per chunk of consecutive
    row subsets with the same (dim U, dim V) = (du, dv), d = du + dv, and
    decided without an SVD where that is exact:

    - a cell with d > n - rank(D_S) = rank(I - P_S) >= rank(K) has
      dim W >= 1 and goes straight to the SVD;
    - every other cell goes through _full_rank_certified, one stacked Gram
      and one batched determinant per chunk, and a certified cell has
      dim W = 0 under the SVD's rank rule, so it is skipped as before;
    - the rest are decomposed lazily, in pieces of consecutive cells in scan
      order, each piece one more than the slices decomposed so far in the
      call (1, 2, 4, ...), so a scan that stops at a witness has decomposed
      fewer than twice the cells it needed.

    A cell with dim W <= 1 is decided exactly, by at most one evaluation of a
    witness; only cells with dim W >= 2 are searched, by seeded restarts plus
    coordinate ascent of the quasi-norm gap on the unit sphere of W, so their
    lack of a witness is evidence, not proof.  Cells are scanned in a fixed
    order, so the first returned witness is deterministic for a given seed.
    None means the budget was exhausted without finding a violation.
    """
    A = np.asarray(A, dtype=float)
    q = _check_q(q)
    m, n = A.shape
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    lambdas = _lambda_list(m, k, lambda_mode)
    supports = combination_array(F.N, k)
    n_supports = len(supports)
    # projections onto col(D_S)^perp and their ranks; a support whose columns
    # vanish keeps I
    P = np.repeat(np.eye(n)[None], n_supports, axis=0)
    perp = np.full(n_supports, n)
    for rows, Q in support_bases(F.D, supports):
        P[rows] = np.eye(n) - Q @ np.swapaxes(Q, 1, 2)
        perp[rows] = n - Q.shape[2]
    # null spaces of the row subsets, a stack per size when the scan reaches it
    layers: dict[int, list[np.ndarray]] = {}

    def layer(size: int) -> list[np.ndarray]:
        if size not in layers:
            blocks = combination_blocks(m, size, max(1, STACK_ELEMS // max(1, size * n)))
            layers[size] = [W for block in blocks for W in null_spaces(A[block])]
        return layers[size]

    restarts = max(1, budget // max(1, len(lambdas) * n_supports))
    cell_index = 0
    decomposed = 0
    for size, lams in groupby(lambdas, key=len):
        # the complements of the size-s subsets, in lexicographic order, are
        # the size-(m - s) subsets in reverse lexicographic order
        trios = zip(lams, layer(size), reversed(layer(m - size)))
        for (du, dv), run in groupby(trios, key=lambda t: (t[1].shape[1], t[2].shape[1])):
            run = list(run)
            if du == 0 or dv == 0:
                cell_index += len(run) * n_supports
                continue
            screened = np.flatnonzero(du + dv <= perp)
            P_screened = P[screened]
            per_chunk = max(1, STACK_ELEMS // max(1, n_supports * n * (du + dv)))
            for start in range(0, len(run), per_chunk):
                chunk = run[start:start + per_chunk]
                open_cells = np.ones((len(chunk), n_supports), dtype=bool)
                if screened.size:
                    B = np.concatenate([np.stack([U for _, U, _ in chunk]),
                                        np.stack([V for _, _, V in chunk])], axis=2)
                    open_cells[:, screened] = ~_full_rank_certified(B, P_screened)
                # row subset * n_supports + support, in scan order
                cells = np.flatnonzero(open_cells)
                first = cell_index
                cell_index += open_cells.size
                pos = 0
                while pos < len(cells):
                    piece = cells[pos:pos + decomposed + 1]
                    pos += len(piece)
                    decomposed += len(piece)
                    # (a, b) must satisfy (I - P_S)(Ua + Vb) = 0
                    Ws = null_spaces(_systems(P, chunk, piece, n_supports), scale=1.0)
                    for j, W in zip(piece.tolist(), Ws):
                        if W.shape[1] == 0:
                            continue
                        Lam, U, V = chunk[j // n_supports]
                        entropy = (seed, first + j + 1)
                        witness = _cell_witness(A, F, Lam, U, V, W, k, q, restarts, entropy)
                        if witness is not None:
                            return witness
    return None


def nsp_complex_evaluate(A: np.ndarray, D: np.ndarray, w: ComplexNspWitness, q: float) -> ComplexNspWitness:
    """Validate a complex partition witness and compare the designated pair.

    All blocks must annihilate their vectors, the unimodular constants must
    be pairwise distinct, and the block-difference ratios must agree and be
    dictionary-k-sparse.  violated means lhs >= rhs - 1e-12 for the pair.
    """
    A = np.asarray(A, dtype=complex)
    D = np.asarray(D, dtype=complex)
    q = _check_q(q)
    m = A.shape[0]
    p = len(w.Omega)
    if p < 2:
        raise InvalidWitnessError("a partition witness needs at least two blocks")
    if len(w.phis) != p or len(w.ds) != p:
        raise InvalidWitnessError("phis and ds must have one entry per block")
    flat = sorted(i for block in w.Omega for i in block)
    if flat != list(range(m)):
        raise InvalidWitnessError("Omega is not a partition of the row indices")
    ds = np.asarray(w.ds, dtype=complex)
    if np.max(np.abs(np.abs(ds) - 1.0)) > 1e-9:
        raise InvalidWitnessError("constants must be unimodular")
    for i in range(p):
        for j in range(i + 1, p):
            if abs(ds[i] - ds[j]) <= 1e-9:
                raise InvalidWitnessError(f"constants {i} and {j} are not distinct")
    phis = [np.asarray(phi, dtype=complex) for phi in w.phis]
    for i, (block, phi) in enumerate(zip(w.Omega, phis)):
        if np.linalg.norm(phi) <= 1e-12:
            raise InvalidWitnessError(f"phi_{i} must be nonzero")
        if np.linalg.norm(_rows(A, block) @ phi) > NULLSPACE_TOL * max(1.0, np.linalg.norm(phi)):
            raise InvalidWitnessError(f"phi_{i} is not annihilated by its block rows")
    ratios = [(phis[0] - phis[j]) / (ds[0] - ds[j]) for j in range(1, p)]
    scale = max(float(np.linalg.norm(r)) for r in ratios)
    if scale <= 1e-12:
        raise InvalidWitnessError("common ratio vanishes; witness requires a nonzero ratio")
    for j in range(1, len(ratios)):
        if np.linalg.norm(ratios[j] - ratios[0]) > 1e-9 * max(1.0, scale):
            raise InvalidWitnessError("block ratios are inconsistent")
    dist = dictionary_sparse_distance(ratios[0], D, w.k)
    if dist > MEMBERSHIP_RTOL * np.linalg.norm(ratios[0]):
        raise InvalidWitnessError(
            f"common ratio is not dictionary-{w.k}-sparse (relative distance "
            f"{dist / np.linalg.norm(ratios[0]):.2e})"
        )
    i, j = w.pair
    if not (0 <= i < p and 0 <= j < p and i != j):
        raise InvalidWitnessError(f"pair {w.pair} is not a valid distinct index pair")
    Dh = D.conj().T
    lhs = float(np.sum(np.abs(Dh @ (phis[i] - phis[j])) ** q))
    rhs = float(np.sum(np.abs(Dh @ (ds[j] * phis[i] - ds[i] * phis[j])) ** q))
    return replace(w, lhs=lhs, rhs=rhs, violated=bool(lhs >= rhs - STRICTNESS_TOL))
