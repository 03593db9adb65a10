"""Null-space splitting diagnostics for magnitude-only recovery.

Real case: recovery of every dictionary-k-sparse signal up to sign is
equivalent to strict domination ||D^T(u+v)||_q^q < ||D^T(u-v)||_q^q for all
admissible splittings, where u lies in the null space of a row subset of A,
v in the null space of the complementary rows, and u+v is dictionary-sparse.
Such a pair is exactly a phaseless ambiguity, |A(u+v)| = |A(u-v)|.  The
falsifier searches for witnesses of failure cell by cell, a cell being a row
subset Lambda and a size-k support S; its splittings form a solution space
W, the null space of K = (I - P_S)[U V], with P_S the projection onto
col(D_S) and U, V null-space bases of the two row sets.  Most cells are
decided without U, V or K.  nsp_real_falsify lists the five stages of its
scan; _full_rank_bound and _sign_screen derive the two bounds that come from
A's one SVD, formed only when A has full column rank, which each call tests
once.  The screen rests on A(u - v) = diag(sigma_Lambda) A(u + v), with
sigma_Lambda the signs -1 on Lambda and +1 off it.

A cell with dim W <= 1 is decided exactly, by at most one evaluation of a
witness; only cells with dim W >= 2 are searched, so there the absence of a
counterexample is evidence, not proof, and results always carry the search
budget and mode.

Bases of col(D_S) come from linalg.support_bases, which the isometry
constants also use, for supports of order >= 3 and ill-conditioned ones:
the falsifier computes every support's basis once per call, before it scans
the row subsets, and shares it between the projections of K, the sign
screen and the membership check of its witnesses; dictionary_sparse_distance
takes them a chunk of supports at a time, for real and complex D alike.
The full-rank bound shares the isometry constants' eigenvalue kernel,
linalg.sym_eig_bounds, and a layer's signs are 1 - 2 linalg.subset_masks.

Complex case: only witness evaluation is provided (block partitions of the
rows with per-block unimodular constants); the combinatorics of a search are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate, combinations, groupby
from math import comb

import numpy as np

from .errors import InvalidWitnessError, ParameterError, ResourceBudgetError
from .frames import TightFrame
from .linalg import (
    RANK_RTOL,
    STACK_ELEMS,
    check_budget,
    check_matrix,
    combination_array,
    combination_blocks,
    null_spaces,
    numerical_rank,
    subset_masks,
    support_bases,
    sym_eig_bounds,
    triu_pairs,
)
from .rip import SUPPORT_BUDGET
from .signals import _check_q, lq_quasinorm

STRICTNESS_TOL = 1e-12
MEMBERSHIP_RTOL = 1e-8
NULLSPACE_TOL = 1e-9
ALL_SUBSETS_MAX_M = 14
# Lower bound on s_min(K) that certifies a (row subset, support) system of
# full rank without U, V or an SVD: 1e4 times the rank cutoff, which the
# bound must clear by (1 + 2 sqrt 2) RANK_RTOL plus rounding (see
# _sign_screen); derived from the cutoff, not tuned.  Times s_1(A), it is
# also the bound on s_n(A without R) that certifies that the rows left
# after removing a set R have full column rank (_full_rank_bound).
SIGN_SCREEN_TAU = 1e4 * RANK_RTOL


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
    check_budget(N, k, support_budget, "supports")
    best = float(np.linalg.norm(x)) if k <= N else np.inf
    if k == 0:
        return best
    for supports in combination_blocks(N, k, max(1, STACK_ELEMS // (n * k))):
        best = min(best, _support_distance(x, support_bases(D, supports)))
        if best == 0.0:
            break
    return best


def _support_distance(x: np.ndarray, bases: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """The distance from x to the nearest col(D_S) among the support_bases
    groups bases; inf when there is none."""
    best = np.inf
    for _, Q in bases:
        proj = np.einsum("cir,cr->ci", Q, np.einsum("cir,i->cr", Q.conj(), x))
        best = min(best, float(np.min(np.linalg.norm(x - proj, axis=1))))
    return best


def nsp_real_evaluate(A: np.ndarray, F: TightFrame, w: NspWitness) -> NspWitness:
    """Validate a witness and decide whether it violates strict domination.

    violated means the strict inequality fails, i.e. lhs >= rhs - 1e-12.
    """
    return _evaluate(check_matrix(A, F.n), F, w, None)


def _evaluate(A: np.ndarray, F: TightFrame, w: NspWitness,
              bases: list[tuple[np.ndarray, np.ndarray]] | None) -> NspWitness:
    """nsp_real_evaluate, with the support_bases of all C(N, k) supports in
    one stack when the caller holds them (the falsifier does): they are the
    bases dictionary_sparse_distance computes whenever its supports fit one
    chunk, so the check is the same."""
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
    if np.linalg.norm(A[list(Lam)] @ u) > NULLSPACE_TOL * max(1.0, np.linalg.norm(u)):
        raise InvalidWitnessError("u is not in the null space of the Lambda rows")
    if np.linalg.norm(A[list(comp)] @ v) > NULLSPACE_TOL * max(1.0, np.linalg.norm(v)):
        raise InvalidWitnessError("v is not in the null space of the complement rows")
    s = u + v
    ns = np.linalg.norm(s)
    if ns > 0:
        if bases is None:
            dist = dictionary_sparse_distance(s, F.D, w.k)
        else:
            dist = min(float(ns), _support_distance(s, bases))
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
            raise ResourceBudgetError(f"m={m} exceeds the all-subsets guard ({ALL_SUBSETS_MAX_M})")
        max_size = m
    else:
        raise ParameterError(f"lambda_mode must be 'card_at_most_k' or 'all_subsets', got {mode!r}")
    return [lam for size in range(max_size + 1) for lam in combinations(range(m), size)]


def _coordinate_ascent(f, c0: np.ndarray) -> tuple[np.ndarray, float]:
    c = c0 / np.linalg.norm(c0)
    fc = f(c)
    step = 0.5
    dim = c.size
    max_sweeps = 40
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
    bit.  Every restart therefore reaches the same verdict, and the falsifier
    passes a dim-1 cell only where _unit_gaps found gap(1) >= -STRICTNESS_TOL,
    so one evaluation decides the cell; the point is the sign of the first
    nonzero draw.
    """
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


def _min_eig_exceeds(G: np.ndarray, floor: float) -> np.ndarray:
    """Whether the smallest eigenvalue of each Gram matrix G[:, :, ...]
    (r x r, stacked over the trailing axes) exceeds floor > 0.

    A sufficient test, exact at r = 1: det(G) ((r - 1) / tr G)^(r - 1) is a
    lower bound on the smallest eigenvalue, since by AM-GM the other r - 1
    multiply to at most (tr G / (r - 1))^(r - 1); it is within a factor 2 at
    r = 2.  Closed-form determinants up to r = 3 keep the test elementwise
    (a batched det or symmetric eigensolve costs 0.3-1.4 us a slice).  Each
    product in a determinant errs by O(eps ||G||^r), so the computed bound
    exceeds the true one by O(eps ||G||).

    Measured alternatives (2-CPU VM): linalg.sym_eig_bounds in its place
    gave the same certificates at the same speed for r <= 2, where it takes
    its closed forms, and at r = 3, where it assembles the matrices for
    LAPACK's eigensolver, a 13x slower screen (85 -> 1,112 ms over 24 calls
    at (n, m, k) = (6, 9, 3) and (5, 9, 3)) for 198 more certified cells of
    705,256.  A trigonometric 3 x 3 closed form would be unsound: where the
    two smallest eigenvalues coincide, its lambda_min errs by about
    sqrt(eps) ||G||.
    """
    r = len(G)
    if r == 1:
        return G[0, 0] > floor
    if r == 2:
        det = G[0, 0] * G[1, 1] - G[0, 1] ** 2
    elif r == 3:
        det = (G[0, 0] * (G[1, 1] * G[2, 2] - G[1, 2] ** 2)
               - G[0, 1] * (G[0, 1] * G[2, 2] - G[1, 2] * G[0, 2])
               + G[0, 2] * (G[0, 1] * G[1, 2] - G[1, 1] * G[0, 2]))
    else:
        det = np.linalg.det(np.moveaxis(G, (0, 1), (-2, -1)))
    tr = sum(G[i, i] for i in range(r))
    return det * (r - 1) ** (r - 1) > floor * tr ** (r - 1)


def _full_rank_bound(H: np.ndarray, s: np.ndarray):
    """The full-rank bound of a call, for H = U[:, n:] and s of the full SVD
    A = U S V^T of an A (m x n, m >= n) of full column rank: a function from
    r <= m - n to the mask, over the size-r row sets R in lexicographic
    order, of those whose removal certainly leaves rank n under the rank
    rule of null_spaces, formed once per r.

    H is an orthonormal basis of col(A)^perp; let H_R be its rows in R,
    sigma = s_min(H_R) (r <= m - n singular values), and y = Ax.  H^T y = 0
    gives H_R^T y_R = -H_{-R}^T y_{-R}, so sigma ||y_R|| <= ||y_{-R}|| since
    ||H|| = 1, and ||y||^2 = ||y_R||^2 + ||y_{-R}||^2 >= s_n(A)^2 ||x||^2
    then gives

        s_n(A without R) >= s_n(A) sigma / sqrt(1 + sigma^2),

    and s_n(A) itself at r = 0.  A set is certified where this bound is at
    least SIGN_SCREEN_TAU s_1(A), tested in squares, sigma^2 the smallest
    eigenvalue of H_R H_R^T, the block HH[R, R] of HH = H H^T, from which
    sym_eig_bounds reads its entries.  A set whose removal drops the rank
    (one that leaves n rows, two of them equal) has sigma = 0 and a bound
    of 0.

    Margin: the computed H annihilates A only up to O(m eps ||A||), which
    lowers the bound by as much, the SVD of A errs by O(eps ||A||), and
    sigma^2 by O(r (m - n) eps), as each entry of HH, an inner product of
    two rows of norm <= 1, errs by O((m - n) eps), far below the
    SIGN_SCREEN_TAU^2 = 1e-12 that a certified sigma^2 exceeds.  The rank
    rule keeps rank n while s_n(A without R) exceeds
    RANK_RTOL s_1(A without R) <= RANK_RTOL s_1(A), so a bound of
    SIGN_SCREEN_TAU s_1(A) = 1e4 RANK_RTOL s_1(A) clears it by four orders
    of magnitude: the rows left have a null_spaces basis {0}.
    """
    m, n = len(H), len(s)
    ratio2 = (s[-1] / s[0]) ** 2
    HH = H @ H.T  # H_R H_R^T is HH[R, R]

    @cache
    def certified(r: int) -> np.ndarray:
        if r == 0:
            return np.array([ratio2 >= SIGN_SCREEN_TAU**2])
        removed, (p, q) = combination_array(m, r).T, triu_pairs(r)
        sigma2 = sym_eig_bounds(r, HH[removed[p], removed[q]])[0]
        return ratio2 * sigma2 / (1.0 + sigma2) >= SIGN_SCREEN_TAU**2

    return certified


def _sign_screen(A: np.ndarray, H: np.ndarray, s: np.ndarray,
                 bases: list[tuple[np.ndarray, np.ndarray]], n_supports: int):
    """The certifier of a call: a function from the sign patterns signs
    (L, m) of L row subsets to the (L, C) mask of the cells (Lambda, S) whose
    system K = (I - P_S)[U V] certainly has full column rank, for H = U[:, n:]
    and s of the full SVD A = U S V^T of an A of full column rank, and the
    support_bases groups bases of the C supports; None where it could
    certify no cell.

    Let A (m x n) have full column rank, m > n, H an orthonormal basis of
    col(A)^perp, Q = Q_S (n x r) and M = H^T diag(sigma) A Q.  For unit (a, b),
    u = Ua, v = Vb, x = u + v: A(u - v) = diag(sigma) A x, since the Lambda
    rows annihilate u and the others v.

    - ||u - v|| <= kappa ||x|| and ||x||^2 + ||u - v||^2 = 2, so
      ||x|| >= s_B = sqrt(2 / (1 + kappa^2)), kappa = kappa(A).
    - Write x = Qc + e, e = K(a, b).  H^T A(u - v) = 0 gives
      Mc = -H^T diag(sigma) A e, so mu ||c|| <= ||A|| ||e||, mu = s_r(M).
    - ||x|| <= ||c|| + ||e|| then gives s_min(K) >= mu s_B / (||A|| + mu).

    So W = {0} wherever M has full column rank, which needs r <= m - n, so
    m <= n gets no certificate.  A cell is certified when its bound is at
    least SIGN_SCREEN_TAU, that is when
    mu^2 >= mu2_min = (SIGN_SCREEN_TAU / (s_B - SIGN_SCREEN_TAU))^2.  The
    per-row tensors h_i (x) a_i^T Q are formed once per call, so each call
    of the certifier is one product of the sign patterns with them per stack
    of supports, and _min_eig_exceeds tests mu^2 = lambda_min(M^T M)
    against mu2_min.

    Margin: the null bases U, V are exact only up to the singular values the
    rank rule drops, ||A_Lambda U|| <= RANK_RTOL ||A||, and likewise for V.
    That adds an error of norm at most 2 sqrt 2 RANK_RTOL ||A|| to
    A(u - v) = diag(sigma) A x, and lowers the bound by at most
    2 sqrt 2 RANK_RTOL.  The SVD of K keeps W = {0} while s_min(K) exceeds
    RANK_RTOL, so a bound of SIGN_SCREEN_TAU = 1e4 RANK_RTOL clears both by
    three orders of magnitude.  With A scaled to ||A|| = 1, ||M|| <= 1, so
    the computed lower bound on mu^2 exceeds mu^2 by at most
    O((m - n) r eps): where it clears mu2_min >= 1e-12, mu is at most 1e-3
    below the threshold, and a singular M gets a bound of O((m - n) r eps),
    far below mu2_min; the SVD of A and the products err by O(n eps), far
    less.  A certified cell is one the SVD would find of full rank.
    """
    m, n = A.shape
    bases = [(rows, Q) for rows, Q in bases if Q.shape[2] <= m - n]
    if not bases:
        return None
    s_B = np.sqrt(2.0) * s[-1] / np.hypot(s[0], s[-1])
    if s_B <= SIGN_SCREEN_TAU:
        return None
    H = H.T[None, :, None, :]  # (1, m - n, 1, m): the rows h_i
    An = A / s[0]  # ||An|| = 1, so the bound is mu s_B / (1 + mu)
    # (r, m - n, c, m): the tensors h_i (x) a_i^T Q, rows i last
    factors = [(rows, H * np.transpose(An @ Q, (2, 0, 1))[:, None]) for rows, Q in bases]
    # mu s_B / (1 + mu) >= SIGN_SCREEN_TAU exactly when mu^2 >= mu2_min
    mu2_min = (SIGN_SCREEN_TAU / (s_B - SIGN_SCREEN_TAU)) ** 2

    def certify(signs: np.ndarray) -> np.ndarray:
        L = len(signs)
        certified = np.zeros((L, n_supports), dtype=bool)
        for rows, T in factors if L else ():
            r, p, c, _ = T.shape
            per = max(1, STACK_ELEMS // (L * p * r))
            for start in range(0, c, per):
                block = rows[start:start + per]
                M = (T[:, :, start:start + per].reshape(-1, m) @ signs.T).reshape(r, p, len(block), L)
                G = np.einsum("ipcl,jpcl->ijcl", M, M)  # (r, r, c, L): M^T M
                certified[:, block] = _min_eig_exceeds(G, mu2_min).T
        return certified

    return certify


def _systems(P: np.ndarray, run: list[tuple[int, np.ndarray, np.ndarray]],
             cells: np.ndarray, n_supports: int) -> np.ndarray:
    """The stack of K = (I - P_S)[U V] for the flat (row subset, support)
    indices cells of a run of (index, U, V), with P[S] = I - P_S.

    A slice is P[S] @ U and P[S] @ V side by side, the same products (and
    bits) as in any other stack; P[S] @ hstack([U, V]) would not be
    bit-identical.
    """
    rows, cols = np.divmod(cells, n_supports)
    Ks = []
    for row in dict.fromkeys(rows.tolist()):
        _, U, V = run[row]
        Ps = P[cols[rows == row]]
        Ks.append(np.concatenate([Ps @ U, Ps @ V], axis=2))
    return np.concatenate(Ks)


def _unit_gaps(D: np.ndarray, q: float,
               systems: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """gap(1) = ||D^T(u + v)||_q^q - ||D^T(u - v)||_q^q, u = UW_u, v = VW_v, for
    the (U, V, W) of cells with dim W = 1 and one (dim U, dim V): one stacked
    product, bit for bit the gap(np.ones(1)) of _cell_witness.

    numpy's matmul makes one BLAS call per slice, chosen by the operands'
    strides, so each slice repeats _cell_witness's products: U and V keep
    the column-major layout of the null_spaces bases (an identity basis, a
    subset with no rows, gives its operand exactly in either layout), and
    D^T is broadcast.  Lp @ 1 is Lp up to the sign of a zero, which abs
    removes, and the power and the row sums are elementwise and per row.
    """
    du = systems[0][0].shape[1]
    Us = np.array([U.T for U, _, _ in systems]).swapaxes(1, 2)
    Vs = np.array([V.T for _, V, _ in systems]).swapaxes(1, 2)
    Ws = np.array([W for _, _, W in systems])
    Mu = Us @ Ws[:, :du]
    Mv = Vs @ Ws[:, du:]
    Lp = D.T @ (Mu + Mv)
    Lm = D.T @ (Mu - Mv)
    return np.sum(np.abs(Lp[:, :, 0]) ** q, axis=1) - np.sum(np.abs(Lm[:, :, 0]) ** q, axis=1)


def _cell_witness(A: np.ndarray, F: TightFrame, Lam: tuple[int, ...], U: np.ndarray,
                  V: np.ndarray, W: np.ndarray, k: int, q: float, restarts: int,
                  entropy: tuple[int, int],
                  bases: list[tuple[np.ndarray, np.ndarray]]) -> NspWitness | None:
    """The first violated witness that _search reaches in the cell (Lam, S)
    whose solution space W of (a, b) is nonzero, or None; bases are the
    support_bases of all C(N, k) supports, for the membership check."""
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
        checked = _evaluate(A, F, NspWitness(Lambda=Lam, u=u, v=v, q=q, k=k), bases)
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
    The scan takes the row subsets a layer (one size) at a time, and decides
    every layer's cells in the same five stages:

    - _full_rank_bound drops, from A's one SVD (whose rank the call tests
      once), the row subsets of size >= n or <= m - n whose rows or
      complement rows certainly have full column rank (U = {0} or V = {0}):
      no cell, no SVD;
    - _sign_screen certifies W = {0}, under the SVD's rank rule, for every
      cell whose bound on s_min(K) from the signs of Lambda, A's left null
      space and D_S clears SIGN_SCREEN_TAU: one matrix product per stack of
      supports, and no U, V or K.  It applies to A of full column rank with
      m > n and to supports with rank(D_S) <= m - n; every other cell stays
      open;
    - the row subsets with an open cell, and their complements, get their
      null spaces in pieces in scan order, each piece one more than the
      subsets the layer has taken so far (1, 2, 4, ...); each subset gets
      its null space at most once per call;
    - a piece's open cells in row subsets with dim U, dim V >= 1 are
      decomposed lazily, batched over consecutive row subsets with the same
      (dim U, dim V), in pieces of consecutive cells in scan order, each
      piece one more than the slices decomposed so far in the call
      (1, 2, 4, ...), so a scan that stops at a witness has decomposed fewer
      than twice the cells it needed;
    - the decomposed cells with dim W = 1 get their gap at c = 1 in one
      stacked product (_unit_gaps), and those below -STRICTNESS_TOL, which
      _search would reject, are not searched.

    A cell with dim W <= 1 is decided exactly, by at most one evaluation of a
    witness; only cells with dim W >= 2 are searched, by seeded restarts plus
    coordinate ascent of the quasi-norm gap on the unit sphere of W, so their
    lack of a witness is evidence, not proof.  Cells are scanned in a fixed
    order, the cell (Lambda, S) seeded by (seed, lambda * C + s + 1) for the
    row subset index lambda and support index s among C, so the first
    returned witness is deterministic for a given seed.  None means the
    budget was exhausted without finding a violation.  A must be a finite
    (m, F.n) array, and k must lie in [0, N]; at k = 0 the condition holds
    vacuously and None is exact.  Past the module's SUPPORT_BUDGET (read at
    each call) of C(N, k) supports, it raises ResourceBudgetError first.
    """
    A = check_matrix(A, F.n)
    q = _check_q(q)
    m, n = A.shape
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    if not 0 <= k <= F.N:
        raise ParameterError(f"sparsity k must lie in [0, {F.N}], got {k}")
    check_budget(F.N, k, SUPPORT_BUDGET, "supports")
    lambdas = _lambda_list(m, k, lambda_mode)
    supports = combination_array(F.N, k)
    n_supports = len(supports)
    # bases of col(D_S), shared by the screen, the projections onto
    # col(D_S)^perp and the witness check; a support whose columns vanish
    # keeps I
    bases = support_bases(F.D, supports)
    P = np.repeat(np.eye(n)[None], n_supports, axis=0)
    for rows, Q in bases:
        P[rows] = np.eye(n) - Q @ np.swapaxes(Q, 1, 2)
    # H = U[:, n:] and s of A's SVD where A has full column rank (else None),
    # the full-rank bound and the sign screen's certifier, each formed when
    # a layer first needs it; the bound needs m >= n and the screen m > n, so
    # a wide A gets no SVD of its own
    @cache
    def factors():
        Ua, s, _ = np.linalg.svd(A)
        return (Ua[:, n:], s) if numerical_rank(s) == n else None

    full_rank = cache(lambda: factors() and _full_rank_bound(*factors()))
    screen = cache(lambda: factors() and _sign_screen(A, *factors(), bases, n_supports))
    taken: dict[int, dict[int, np.ndarray]] = {}

    def null_bases(size: int, idx: list[int]) -> list[np.ndarray]:
        """The null spaces of the size-`size` row subsets with lexicographic
        indices idx, each taken at most once per call: those not yet taken
        in one stacked SVD."""
        have = taken.setdefault(size, {})
        missing = [i for i in idx if i not in have]
        if missing:
            missing.sort()
            subsets = combination_array(m, size)
            if len(missing) < len(subsets):
                subsets = subsets[missing]
            per = max(1, STACK_ELEMS // max(1, size * n))
            for start in range(0, len(missing), per):
                have.update(zip(missing[start:start + per], null_spaces(A[subsets[start:start + per]])))
        return [have[i] for i in idx]

    def pairs(size: int, rows: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """(U, V) for the size-`size` row subsets with indices rows.  The
        complements of the size-s subsets, in lexicographic order, are the
        size-(m - s) subsets in reverse lexicographic order."""
        last = comb(m, size) - 1
        return list(zip(null_bases(size, rows), null_bases(m - size, [last - i for i in rows])))

    def feeding(size: int) -> list[int]:
        """The size-`size` row subsets that _full_rank_bound leaves: a subset
        of size >= n whose complement's removal it certifies has U = {0}, and
        one of size <= m - n whose own removal it certifies has V = {0}."""
        dead = np.zeros(comb(m, size), dtype=bool)
        certified = full_rank() if size >= n or size <= m - n else None
        if certified and size >= n:
            dead |= certified(m - size)[::-1]
        if certified and size <= m - n:
            dead |= certified(size)
        return np.flatnonzero(~dead).tolist()

    def scan(trios: list[tuple[int, np.ndarray, np.ndarray]], cells_open: np.ndarray) -> NspWitness | None:
        """Decide the open cells cells_open of trios, (index in lambdas, U, V)
        of row subsets in scan order."""
        nonlocal decomposed
        done = 0
        for (du, dv), run in groupby(trios, key=lambda t: (t[1].shape[1], t[2].shape[1])):
            run = list(run)
            # position in run * n_supports + support, in scan order
            cells = np.flatnonzero(cells_open[done:done + len(run)])
            done += len(run)
            if du == 0 or dv == 0:
                continue
            # Measured on a 2-CPU VM: without the call-wide doubling of the
            # pieces, nsp-certify ran at parity, but the falsifier took
            # 26-40% longer at N = 10-12 (45-220 supports per row subset);
            # without _unit_gaps or the shared support bases, k = 2
            # nsp-certify passes took 94-141 ms against 59-90 ms.
            most = max(1, STACK_ELEMS // (n * (du + dv)))
            pos = 0
            while pos < len(cells):
                piece = cells[pos:pos + min(decomposed + 1, most)]
                pos += len(piece)
                decomposed += len(piece)
                # (a, b) must satisfy (I - P_S)(Ua + Vb) = 0
                Ws = null_spaces(_systems(P, run, piece, n_supports), scale=1.0)
                lines = [t for t, W in enumerate(Ws) if W.shape[1] == 1]
                below = np.zeros(len(Ws), dtype=bool)
                if lines:
                    systems = [run[piece[t] // n_supports][1:] + (Ws[t],) for t in lines]
                    below[lines] = _unit_gaps(F.D, q, systems) < -STRICTNESS_TOL
                for c, W, skip in zip(piece.tolist(), Ws, below.tolist()):
                    if W.shape[1] == 0 or skip:
                        continue
                    l, U, V = run[c // n_supports]
                    entropy = (seed, l * n_supports + c % n_supports + 1)
                    witness = _cell_witness(A, F, lambdas[l], U, V, W, k, q, restarts, entropy, bases)
                    if witness is not None:
                        return witness
        return None

    restarts = max(1, budget // max(1, len(lambdas) * n_supports))
    decomposed = 0
    max_size = len(lambdas[-1])
    # first: the index in lambdas of the layer's first row subset
    for size, first in enumerate(accumulate((comb(m, s) for s in range(max_size)), initial=0)):
        rows = feeding(size)
        certify = screen() if rows and m > n else None
        layer_open = (np.ones((len(rows), n_supports), dtype=bool) if certify is None
                      else ~certify(1.0 - 2.0 * subset_masks(m, size)[rows]))
        keep = layer_open.any(axis=1)
        rows = [i for i, kept in zip(rows, keep.tolist()) if kept]
        layer_open = layer_open[keep]
        taken_in_layer = 0
        while taken_in_layer < len(rows):
            piece = rows[taken_in_layer:2 * taken_in_layer + 1]
            trios = [(first + i, U, V) for i, (U, V) in zip(piece, pairs(size, piece))]
            witness = scan(trios, layer_open[taken_in_layer:taken_in_layer + len(piece)])
            taken_in_layer += len(piece)
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
    for part in (A.real, A.imag):  # check_matrix casts to float, which drops A.imag
        check_matrix(part, D.shape[0])
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
        if np.linalg.norm(A[list(block)] @ phi) > NULLSPACE_TOL * max(1.0, np.linalg.norm(phi)):
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
