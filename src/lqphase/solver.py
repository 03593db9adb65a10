"""Solvers for the lq-analysis magnitude-fidelity model.

Two routes are provided.  A certified global oracle for the noiseless model
enumerates measurement sign patterns (the global sign is quotiented out by
fixing the first sign) and, for each consistent linear system, exploits the
concavity of t -> t^q on [0, inf): on an affine set the objective attains its
minimum where max(n - m, 0) analysis coefficients vanish, so all such
zero patterns are enumerated, with a minimum-norm fallback guarding
rank-degenerate cells.  Beyond the oracle guard a practical iteratively
reweighted least-squares (IRLS) solver polishes the sign patterns that can
hold a feasible point, with no optimality certificate.

Sign tree.  For b >= 0 the feasible set {x : || |Ax| - b || <= eps} is the
union over sign patterns p of the pieces {x : ||Ax - p o b|| <= eps}, since
||a| - b_i| <= |a - p_i b_i| with equality at p_i = sign(a).  A piece is
non-empty exactly when the pattern's least-squares residual
||(I - Q Q^T)(p o b)|| (Q an orthonormal basis of A's column space) is at
most eps.  A negative b_i, which noise can give, keeps the equality but not
the inequality, so every feasible x still lies in the piece of its own
pattern sign(Ax): the patterns with a non-empty piece cover the feasible
set, though some may then hold no feasible point.  The residual of a prefix
of the rows bounds that of every completion, so a tree over the rows that
prunes on the partial residual lists exactly these patterns (sphere
decoding over sign vectors: Fincke and Pohst; Agrell, Eriksson, Vardy and
Zeger).  solve_irls takes one thin SVD A = U S V^T of numerical rank r, and
for m >= n runs _sign_tree on U_r S_r, which has A's column space and so
A's residuals at every rank.  The tree starts from the 2^(r-1) patterns of
r pivoted basis rows, adds one row per layer by a least-squares update that
depends on the matrix alone, prunes at the stalled threshold
max(eps, 1e-7 ||b||) plus the rounding margin TREE_ROUNDING m kappa ||b||,
and keeps a leaf only when its exact residual is within the threshold; one
pattern per class {p, -p}.  One eps-continuation run (Daubechies, DeVore,
Fornasier and Gunturk) per kept pattern then polishes its least-squares
point, in one batch of at most TREE_MAX_CLASSES runs.

Restart pipeline.  Where the tree does not run (m < n, where a full-row-rank
A gives every pattern residual 0; a tree of more than TREE_MAX_NODES nodes;
or a tree that keeps no pattern, when eps is below every pattern's residual
and nothing is feasible), _irls_restarts takes the patterns sign(Ax) of a
spectral start and of IRLS_RESTARTS - 1 random ones drawn from solve_irls's
seed, its only parameter, on solve_irls's SVD of A.  A start whose
least-squares point is stalled, its residual || |Ax| - b || above the
threshold, goes through a 1-opt sign-flip descent, which serves only this
pipeline and takes a flip when it lowers the exact least-squares residual by
more than FLIP_GAIN ||b||.  Last, one polish run per start.

A polish run stops as soon as it can no longer change the answer, which is
the best iterate by (violation, objective): at its first iterate inside the
noise band || |Ax| - b || <= eps + FEAS_RTOL ||b||, since no later iterate
has a smaller violation (the discrepancy principle, Morozov), or once its
sign pattern has held, or alternated between two patterns, at patterns whose
least-squares residual ||(I - Q Q^T)(p o b)|| exceeds the stalled threshold
and the band, since no iterate is feasible while they hold (the stall and
cycle rules of _irls_converge, which give the argument).  The band's
FEAS_RTOL ||b||, the oracle's feasibility tolerance, lets the objective, not
rounding residue, rank the feasible iterates at eps = 0.

The oracle runs one zero-pattern search for every shape of A, with
free = max(n - m, 0) analysis zeros per pattern; m >= n is the free = 0 case.
One SVD of A decides its numerical rank r (below min(m, n) raises
DegenerateProblemError) and gives A_pinv and, for m < n, an orthonormal basis
N of A's null space: the null-space method for equality-constrained least
squares (Golub and Van Loan, Matrix Computations, sec. 6.2).  A batched pass
selects candidates.  The least-squares points X_ls = A_pinv C of all
right-hand sides come from one product and are screened by their residual in
FEAS_BAND bands around FEAS_RTOL ||c||: all pass for a full-row-rank A, and
for m > n the screen drops inconsistent sign patterns.  The oracle has one
feasibility rule, ||A x - c|| <= FEAS_RTOL ||c||.  Every point of {Ax = c}
is x_ls + N y, and A N = 0 gives it the residual of x_ls, so that one screen
decides every zero set of a sign too.  With
G = D^T N and Y_ls = D^T X_ls, zero set Z leaves the free x free system
G_Z y = -(Y_ls)_Z, whose matrix does not depend on the sign pattern: each
chunk of zero sets takes one stacked inverse of its G_Z, then every sign's
D^T x = Y_ls + G y and ||x||^2 = ||x_ls||^2 + ||y||^2 (x_ls is orthogonal to
N), with no n x n matrix and no residual per (zero set, sign).  A
near-singular G_Z cannot give a small objective: its y is large, and for a
Parseval frame sum_i |d_i^T x|^q >= ||x||^q, since every |d_i^T x| <= ||x||
and sum_i |d_i^T x|^2 = ||x||^2.  An exact pass decides: every candidate
that can reach the minimum is re-solved with scalar calls (np.linalg.solve
of the stacked system M_Z = [A; D_Z^T] and lstsq for the least-squares point,
each counting only under the same FEAS_RTOL ||c|| rule, and lq_quasinorm), in
(sign, zero set) order with the 1e-15 and 1e-12 tie rules.  So the certified
point, objective, signs and zero set never depend on the batched arithmetic.

Re-check window.  Batched and scalar solutions x of one system are assumed
to differ by at most delta = RECHECK_RHO * ||x||.  Frame columns have norm at
most 1, so each y_i = |d_i^T x| moves by at most delta; t -> t^q is
subadditive and concave, so its term moves by at most
min(delta^q, q (y_i - delta)^(q-1) delta).  The sum E of these bounds puts
the scalar objective within [V - E, V + E] of the batched one V, and a
candidate is re-checked when V - E <= min(V + E) + TIE_SLACK.  At an
analysis zero the bound is delta^q: about 1e-9 ||x|| at q = 1, 3e-5 ||x||^q
at q = 0.5 and 0.13 ||x||^q at q = 0.1.  That is the rounding residue the
scalar objective itself carries at its zeros, which is why the window widens
as q falls.  Inside the exact pass a sign or zero set whose lower bound
V - E cannot beat the running best by the tie tolerance is skipped.  So is
a sign's lstsq once one of its zero sets is feasible and the least-squares
point's own lower bound cannot beat that by 1e-12: the minimum-norm fallback
could not win.  If a system is conditioned beyond RECHECK_RHO's assumption
and its candidate is left out, the certified objective exceeds the excluded
one by less than that candidate's own batched-versus-scalar discrepancy plus
1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt
from numbers import Integral

import numpy as np

from .errors import (
    DegenerateProblemError,
    InfeasibleProblemError,
    ParameterError,
    ResourceBudgetError,
)
from .linalg import (
    RANK_RTOL,
    STACK_ELEMS,
    check_budget,
    combination_blocks,
    numerical_rank,
)
from .measurement import PhaselessProblem
from .rip import SUPPORT_BUDGET
from .signals import _check_q, lq_quasinorm

ORACLE_MAX_M = 10  # the one m guard left: bench/workloads.py pins it (ROADMAP item 8)
FEAS_RTOL = 1e-8
# Relative accuracy assumed of every solved system, batched or scalar:
# ||x_batched - x_scalar|| <= RECHECK_RHO * ||x||.  The scalar LU of M_Z, the
# least-squares solves and the batched inverse of G_Z are each accurate to
# about cond * n * eps relative, and cond(G_Z) <= cond(M_Z), G_Z being a block
# of M_Z [V_r, N] = [[U_r S_r, 0], [D_Z^T V_r, G_Z]]; so this holds while
# cond(M_Z) * n * eps stays below it, i.e. for condition numbers up to about
# 1e5.  On the test suite's oracle corpus the two differ by at most
# 0.003 * RECHECK_RHO * ||x||.
RECHECK_RHO = 2.0**-30
# Absolute slack of the re-check window; covers the 1e-12 minimum-norm tie
# rule and the 1e-15 zero-pattern and sign tie rules with room to spare.
TIE_SLACK = 1e-11
# A batched residual counts as surely feasible below FEAS_RTOL / FEAS_BAND
# and as possibly feasible below FEAS_RTOL * FEAS_BAND; the scalar re-check
# applies the exact FEAS_RTOL test.
FEAS_BAND = 2.0**10
# Enumeration counters of the oracle certificate: sign patterns enumerated;
# least-squares points screened out by their residual band (0 for a
# full-row-rank A); zero patterns solved and found singular (each G_Z serves
# every sign; singular as _null_space_block decides, which is where
# np.linalg.matrix_rank finds M_Z singular); candidates re-solved exactly,
# zero sets and lstsq calls.  Skipping the lstsq that cannot win halved the
# last: 433 -> 217 over the 216 oracle-sweep trials at seeds 0 and 1.
ORACLE_COUNTERS = ("sign_patterns", "screened_out", "zero_patterns",
                   "singular_systems", "rechecked")
# The one IRLS schedule (see _irls_converge): smoothing from IRLS_EPS0 down by
# IRLS_DECAY a step to IRLS_TOL, lam0 = IRLS_REG ||b||^2 > 0, which keeps every
# weighted step positive definite, at most IRLS_MAX_ITERS steps a run, and
# IRLS_RESTARTS starts in the restart pipeline.
IRLS_MAX_ITERS = 500
IRLS_EPS0 = 1.0
IRLS_DECAY = 0.7
IRLS_TOL = 1e-8
IRLS_RESTARTS = 10
IRLS_REG = 1e-3
# An IRLS run ends by the first of these rules that holds (see _irls_converge).
EXIT_RULES = ("discrepancy", "stall", "cycle", "converged", "max_iters")
# Steps a sign pattern must hold before the stall rule tests its residual; a
# two-pattern cycle must hold for 2 * STALL_STEPS steps before the cycle rule
# tests its residuals.
STALL_STEPS = 3
# The sign-flip descent of the restart pipeline takes a flip when it lowers
# the pattern's exact least-squares residual by more than FLIP_GAIN ||b||, and
# stops a row after FLIP_MAX_SWEEPS sweeps.
FLIP_GAIN = 1e-14
FLIP_MAX_SWEEPS = 8
# Nodes the sign tree may visit (basis patterns plus evaluated children); a
# larger tree leaves the problem to the restart pipeline.
TREE_MAX_NODES = 2**16
# Sign classes one polish batch takes from the tree; of more, it takes those
# whose least-squares points have the smallest objective.  Many classes are
# kept only when m is near n (at m = n all 2^(n-1)).  On square near-isometric
# A at eps = 0.01 and 0.05 (2-CPU VM, one BLAS thread, median of 8 A), a
# solve_irls call took 1.3 ms at n = 8 (128 classes), 1.7 ms at n = 9 and
# 2.8-4.0 ms at n = 12, against 2.1 and 3.4 ms for the restart pipeline.  A
# batch whose runs never enter the noise band runs to max_iters: 0.3 s on a
# square Gaussian A at n = 12, eps = 0.1.
TREE_MAX_CLASSES = 2**7
# The tree prunes at the stalled threshold plus
# TREE_ROUNDING * m * kappa * ||b||, kappa = ||A||_F / sigma_min(A_I), which
# covers the rounding of its prefix residuals (see _sign_tree).
TREE_ROUNDING = 2.0**-47


@dataclass(frozen=True)
class SolverResult:
    x_hat: np.ndarray
    objective: float
    feasibility: float  # || |A x_hat| - b ||_2
    method: str
    certificate: dict | None = None
    iterations: int = 0  # IRLS: the winning iterate's index within its polish run
    steps: int = 0  # IRLS: weighted steps over all polish runs
    exits: dict = field(default_factory=dict)  # IRLS: polish runs ended by each of EXIT_RULES
    feasible_classes: int = 0  # IRLS: sign classes the tree kept; 0 on the fallback
    tree_nodes: int = 0  # IRLS: nodes the sign tree visited; 0 on the fallback


def _objectives(Y: np.ndarray, sq_norms: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Objectives V = sum_i |y_i|^q over the analysis coefficients, axis -2, of
    Y (..., N, K), and the bound E on |V - scalar objective| derived in the
    module docstring for points x of squared norms sq_norms (..., K).  Both
    sums are products with a ones vector: np.sum over a middle axis of these
    small stacks takes about three times as long."""
    Y = np.abs(Y)
    delta = RECHECK_RHO * np.sqrt(sq_norms)[..., None, :]
    ones = np.ones(Y.shape[-2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.maximum(Y - delta, 0.0) ** (q - 1.0) * (q * delta)
        return ones @ Y**q, ones @ np.fmin(delta**q, slope)


def _exact_affine(
    A: np.ndarray,
    c: np.ndarray,
    D: np.ndarray,
    q: float,
    zero_sets: np.ndarray,
    lower: np.ndarray,
    ls_lower: float,
    counts: dict,
) -> tuple[np.ndarray | None, float, tuple[int, ...] | None]:
    """The scalar zero-pattern enumeration for one right-hand side, over the given
    zero sets in order, with its 1e-15 and 1e-12 tie rules.  A point x, of a
    zero set or the minimum-norm least-squares point, is feasible when
    ||A x - c|| <= FEAS_RTOL ||c||.  A zero set whose lower bound cannot beat
    the running best by the tie tolerance is skipped: it could not have
    replaced the best.  So is the minimum-norm point, with lower bound
    ls_lower, once a zero set is feasible.  Returns (None, inf, None) when no
    point is feasible."""
    free = zero_sets.shape[1]
    best_x = None
    best_obj = np.inf
    best_Z: tuple[int, ...] | None = None
    rhs = np.concatenate([c, np.zeros(free)])
    tol = FEAS_RTOL * float(np.linalg.norm(c))
    for Z, lb in zip(zero_sets.tolist(), lower.tolist()):
        if lb >= best_obj - 1e-15:
            continue
        counts["rechecked"] += 1
        M = np.vstack([A, D[:, Z].T])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.linalg.norm(A @ x - c) > tol:
            continue
        obj = lq_quasinorm(D.T @ x, q)
        if obj < best_obj - 1e-15:
            best_x, best_obj, best_Z = x, obj, tuple(Z)
    if best_x is not None and ls_lower >= best_obj - 1e-12:
        return best_x, best_obj, best_Z
    # minimum-norm fallback guards rank-degenerate cells; zero-pattern
    # candidates win ties so the certificate stays informative
    counts["rechecked"] += 1
    x_mn, *_ = np.linalg.lstsq(A, c, rcond=None)
    if np.linalg.norm(A @ x_mn - c) <= tol:
        mn_obj = lq_quasinorm(D.T @ x_mn, q)
        if best_x is None or mn_obj < best_obj - 1e-12:
            best_x, best_obj, best_Z = x_mn, mn_obj, None
    return best_x, best_obj, best_Z


def _null_space_block(G: np.ndarray, Y_ls: np.ndarray, sq_ls: np.ndarray,
                      Zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points x = x_ls + N y with D_Z^T x = 0 for a block of zero sets Zs
    (z, free) and every least-squares point at once, from G = D^T N (N an
    orthonormal basis of A's null space), Y_ls = D^T X_ls (N, K) and the
    squared norms sq_ls (K,) of X_ls.

    Each Z solves G_Z y = -(Y_ls)_Z.  Returns D^T x = Y_ls + G y (z, N, K)
    and ||x||^2 = ||x_ls||^2 + ||y||^2 (z, K), both NaN where LU met an exact
    zero pivot, and the singular systems (z,): those, and each G_Z whose
    inverse exceeds 1 / RANK_RTOL in Frobenius norm.  The scale is absolute:
    the rows d_i^T N of G_Z have norm at most ||d_i|| <= 1.
    """
    GZ = G[Zs]
    try:
        G_inv = np.linalg.inv(GZ)
    except np.linalg.LinAlgError:
        # slogdet runs the same LU and reports its zero pivot as sign 0
        failed = np.linalg.slogdet(GZ)[0] == 0.0
        GZ[failed] = np.eye(G.shape[1])
        G_inv = np.linalg.inv(GZ)
        G_inv[failed] = np.nan
    singular = ~(np.einsum("zij,zij->z", G_inv, G_inv) <= RANK_RTOL**-2)
    Y = G_inv @ Y_ls[Zs]  # -y
    return Y_ls - G @ Y, sq_ls + np.einsum("zfk,zfk->zk", Y, Y), singular


def _zero_pattern_search(A: np.ndarray, C: np.ndarray, D: np.ndarray, q: float,
                         counts: dict) -> tuple | None:
    """Certified minimum over the affine sets {Ax = C[:, j]}.

    One SVD of A gives its numerical rank r, its pseudo-inverse and an
    orthonormal basis of its null space; r below min(m, n) raises
    DegenerateProblemError.  A point x of column j is feasible when
    ||A x - c_j|| <= FEAS_RTOL ||c_j||, the one rule for every candidate.
    Returns (j, x, objective, zero_set, margin) of the winning column, or None
    when no column is feasible: columns are taken in
    order and a later one wins only by more than 1e-15.  margin is the gap to
    the second-best feasible column (exact where that column was re-checked,
    batched otherwise), None when there is no second one.
    """
    m, n = A.shape
    N = D.shape[1]
    K = C.shape[1]
    u, sv, vh = np.linalg.svd(A, full_matrices=m < n)  # the null basis only when m < n
    r = numerical_rank(sv)
    if r < min(m, n):
        raise DegenerateProblemError(f"A has rank {r}; the oracle needs full rank {min(m, n)}")
    free = n - r
    # least-squares points, screened by their residual relative to ||c||; a
    # full-row-rank A passes every one, and only sure ones give a bound.
    # A N = 0: every x = x_ls + N y of a column has its least-squares point's
    # residual, so the one sure/maybe pair serves its zero sets too
    X_ls = ((vh[:r].T / sv) @ u[:, :r].T) @ C
    Y_ls = D.T @ X_ls
    sq_ls = np.sum(X_ls * X_ls, axis=0)
    v_ls, e_ls = _objectives(Y_ls, sq_ls, q)
    tol = FEAS_RTOL * np.linalg.norm(C, axis=0)
    resid = np.linalg.norm(A @ X_ls - C, axis=0)
    sure, maybe = resid <= tol / FEAS_BAND, resid <= tol * FEAS_BAND
    counts["screened_out"] += K - int(maybe.sum())
    col_best = np.where(sure, v_ls, np.inf)
    ref = float(np.min(col_best + e_ls)) + TIE_SLACK  # no exact winner lies above this
    kept_cols: list[np.ndarray] = []
    kept_zsets: list[np.ndarray] = []
    kept_lower: list[np.ndarray] = []
    if free:
        G = D.T @ vh[r:].T
        for Zs in combination_blocks(N, free, max(1, STACK_ELEMS // (N * K))):
            counts["zero_patterns"] += len(Zs)
            DX, sq, singular = _null_space_block(G, Y_ls, sq_ls, Zs)
            counts["singular_systems"] += int(singular.sum())
            V, E = _objectives(DX, sq, q)
            lo, hi = V - E, V + E
            ok = np.isfinite(hi)  # V, E >= 0: hi is finite when both are
            if (sure_ok := ok & sure).any():
                ref = min(ref, float(hi[sure_ok].min()) + TIE_SLACK)
                np.minimum(col_best, np.where(sure_ok, V, np.inf).min(axis=0), out=col_best)
            zi, cols = np.nonzero(ok & maybe & (lo <= ref))
            kept_cols.append(cols)
            kept_zsets.append(Zs[zi])
            kept_lower.append(lo[zi, cols])
    cols = np.concatenate(kept_cols) if kept_cols else np.zeros(0, dtype=np.intp)
    zsets = np.concatenate(kept_zsets) if kept_zsets else np.zeros((0, free), dtype=np.intp)
    lower = np.concatenate(kept_lower) if kept_lower else np.zeros(0)
    inside = lower <= ref
    cols, zsets, lower = cols[inside], zsets[inside], lower[inside]
    ls_lower = np.where(maybe, v_ls - e_ls, np.inf)
    col_lower = ls_lower.copy()
    np.minimum.at(col_lower, cols, lower)
    candidates = np.flatnonzero(col_lower <= ref)

    # exact re-check, in (column, zero set) order
    best: tuple[int, np.ndarray, float, tuple[int, ...] | None] | None = None
    exact = col_best  # batched values, replaced by exact ones where re-checked
    for j in candidates.tolist():
        if best is not None and col_lower[j] >= best[2] - 1e-15:
            continue
        rows = np.flatnonzero(cols == j)  # zero sets of a column stay in order
        c = np.ascontiguousarray(C[:, j])
        x, obj, Z = _exact_affine(A, c, D, q, zsets[rows], lower[rows], float(ls_lower[j]), counts)
        exact[j] = obj
        if x is not None and (best is None or obj < best[2] - 1e-15):
            best = (j, x, obj, Z)
    if best is None:
        return None
    j, x, obj, Z = best
    exact[j] = np.inf
    second = float(exact.min())
    return j, x, obj, Z, (second - obj if second < np.inf else None)


def _svd_factors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From one thin SVD A = U S V^T with numerical rank r: Q = U_r, an
    orthonormal basis of A's column space, the r singular values kept, and
    the pseudo-inverse V_r S_r^-1 U_r^T."""
    u, sv, vh = np.linalg.svd(A, full_matrices=False)
    r = numerical_rank(sv)
    return u[:, :r], sv[:r], (vh[:r].T / sv[:r]) @ u[:, :r].T


def _new_counts() -> dict:
    return dict.fromkeys(ORACLE_COUNTERS, 0)


@lru_cache(maxsize=16)
def _sign_patterns(m: int) -> np.ndarray:
    """Read-only (2^(m-1), m) sign patterns with first entry +1, in the order of
    product((1, -1), repeat=m-1) on the remaining entries."""
    bits = (np.arange(2 ** (m - 1))[:, None] >> np.arange(m - 2, -1, -1)) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    signs.flags.writeable = False
    return signs


def solve_oracle_noiseless(
    P: PhaselessProblem,
    max_m: int = ORACLE_MAX_M,
    support_budget: int = SUPPORT_BUDGET,
) -> SolverResult:
    """Certified global solution of the noiseless model by sign enumeration.

    Sign patterns fix the first component to +1 (global sign ambiguity); one
    zero-pattern search takes them all as right-hand sides, for every shape
    of A.  The certificate carries the winning signs and zero set, the
    enumeration counters and the margin to the second-best sign pattern.  It
    certifies ||A x - p o b|| <= FEAS_RTOL ||b||, so an eps above that
    tolerance raises ParameterError.  An A of numerical rank below min(m, n)
    raises DegenerateProblemError, and InfeasibleProblemError means that no
    sign pattern admits a solution.  Past max_m rows, or
    2^(m-1) x C(N, max(n - m, 0)) (sign, zero set) pairs past support_budget,
    it raises ResourceBudgetError before it enumerates.
    """
    A, b, F = P.A, P.b, P.frame
    if P.eps > FEAS_RTOL * np.linalg.norm(b):
        raise ParameterError(f"the certified oracle only handles the noiseless model: eps = {P.eps:.6g} "
                             f"exceeds FEAS_RTOL ||b|| = {FEAS_RTOL * np.linalg.norm(b):.6g}")
    m, n = A.shape
    if m > max_m:
        raise ResourceBudgetError(f"m={m} exceeds the sign enumeration guard ({max_m})")
    _check_q(P.q)
    check_budget(F.N, max(n - m, 0), support_budget, "(sign, zero set) pairs", per=2 ** (m - 1))
    signs = _sign_patterns(m)
    counts = _new_counts()
    counts["sign_patterns"] = len(signs)
    found = _zero_pattern_search(A, (signs * b).T, F.D, P.q, counts)
    if found is None:
        raise InfeasibleProblemError("no sign pattern admits a solution; measurements corrupted?")
    j, x, obj, Z, margin = found
    feas = float(np.linalg.norm(np.abs(A @ x) - b))
    cert = {
        "signs": tuple(signs[j].tolist()),
        "zero_set": Z,
        "minimum_norm_fallback": bool(Z is None and n > m),
        **counts,
        "margin": margin,
    }
    return SolverResult(x_hat=x, objective=obj, feasibility=feas, method="oracle",
                        certificate=cert, iterations=0)


def _mv(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X (R, k), one BLAS matrix-vector product per row,
    so each row is bit for bit the product M @ x (X @ M.T and einsum are not)."""
    return (M @ X[:, :, None])[..., 0]


def _row_norms(V: np.ndarray) -> np.ndarray:
    """||v|| of every row v of V, bit for bit as np.linalg.norm(v) computes it
    (norm(V, axis=1) is not)."""
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def irls_weighted_step(
    A: np.ndarray,
    D: np.ndarray,
    S: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    q: float,
    eps_s: float,
    lam: float,
) -> np.ndarray:
    """One reweighted least-squares update for fixed signs and smoothing, of
    each row of X (R, n) with the signs in that row of S (R, m), exactly as
    it would be updated alone."""
    W = (_mv(D.T, X) ** 2 + eps_s**2) ** (q / 2.0 - 1.0)
    H = A.T @ A + lam * (D * W[:, None, :]) @ D.T
    return np.linalg.solve(H, _mv(A.T, S * b)[:, :, None])[..., 0]


def _pattern_residuals(Q: np.ndarray, b: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Least-squares residual ||(I - Q Q^T)(p o b)|| = min_x ||A x - p o b|| of
    every row p of S, where Q is an orthonormal basis of A's column space."""
    CV = S * b
    return _row_norms(CV - _mv(Q, _mv(Q.T, CV)))


def _sign_flip_descent(Q: np.ndarray, b: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """1-opt descent on the least-squares residual over sign patterns, for every
    row of patterns (R, m); Q is an orthonormal basis of A's column space.

    Escapes alternating fixed points whose sign pattern is locally wrong;
    deterministic (first improving flip wins within a sweep).  A sweep visits
    the entries in order and takes every flip j with r_j < r - FLIP_GAIN ||b||
    (relative, as rounding is), where r and r_j are the _pattern_residuals of
    the current and the flipped pattern; a row stops after a sweep without a
    flip or after FLIP_MAX_SWEEPS sweeps.  Each step scores every remaining
    flip of the row with one _pattern_residuals call on the stacked flipped
    patterns, takes the first that passes and resumes after it, so the
    decisions are those of the entry-by-entry loop, made from the same exact
    residuals.
    """
    min_gain = FLIP_GAIN * float(np.linalg.norm(b))
    S = patterns.copy()
    flips = 1.0 - 2.0 * np.eye(S.shape[1])  # row j flips entry j
    for p in S:  # a row of S is a view: the descent flips it in place
        r = _pattern_residuals(Q, b, p[None])[0]
        for _ in range(FLIP_MAX_SWEEPS):
            j, improved = 0, False
            while j < len(p):
                r_flip = _pattern_residuals(Q, b, p * flips[j:])
                gain = np.flatnonzero(r_flip < r - min_gain)
                if not len(gain):
                    break
                r, j = r_flip[gain[0]], j + gain[0]
                p[j], improved = -p[j], True
                j += 1
            if not improved:
                break
    return S


def _stall_threshold(eps: float, scale: float) -> float:
    """Residual above which a run counts as stalled: max(eps, 1e-7 ||b||)."""
    return max(eps, 1e-7 * scale)


def _irls_converge(P: PhaselessProblem, X: np.ndarray, Q: np.ndarray) -> tuple:
    """Polish every row of X (R, n), one least-squares point per pattern, by one
    continuation run each, as one batched state, Q an orthonormal basis of col(A).

    Every row follows the one eps/lam schedule, so iteration t updates all
    live rows with one stacked weighted step.  A row leaves the batch at the
    first step where one of its exit rules holds, tested in this order:

    - discrepancy: the iterate lies inside the noise band
      || |A x| - b || <= eps + FEAS_RTOL ||b|| (violation 0), so no later
      iterate can beat it on the first key of (violation, objective);
    - stall: the sign pattern p = sign(A x) has held for STALL_STEPS steps and
      its least-squares residual ||(I - Q Q^T)(p o b)|| exceeds the stalled
      threshold max(eps, 1e-7 ||b||) and the noise band.  Every x with that
      pattern has || |A x| - b || = ||A x - p o b||, which is at least that
      residual, so no iterate is feasible while the pattern holds;
    - cycle: the pattern has equalled the one two steps back and differed
      from the one just before (S_t = S_(t-2) != S_(t-1)) for 2 STALL_STEPS
      steps, and the smaller least-squares residual of the two patterns
      exceeds the stalled threshold and the band.  Each iterate's
      || |A x| - b || is at least its own pattern's residual, so the stall
      rule's argument holds for both;
    - converged: the continuation has reached its floor and the step moved x
      by at most tol;
    - max_iters: the iteration cap.

    The violation is max(0, || |A x| - b || - eps - FEAS_RTOL ||b||).
    Returns, per row: the best iterate by (violation, objective), the earliest
    one winning a tie, with that key and its 1-based iteration; the number of
    weighted steps taken; and its exit rule, an index into EXIT_RULES.
    """
    A, b, D, q = P.A, P.b, P.frame.D, P.q
    scale = float(np.linalg.norm(b))
    band = P.eps + FEAS_RTOL * scale
    threshold = max(_stall_threshold(P.eps, scale), band)
    lam0 = IRLS_REG * float(b @ b)
    best_x = np.empty_like(X)
    best_v = np.empty(len(X))
    best_o = np.empty(len(X))
    best_t = np.zeros(len(X), dtype=int)
    steps = np.full(len(X), IRLS_MAX_ITERS)
    rule = np.full(len(X), EXIT_RULES.index("max_iters"))
    held = np.zeros(len(X), dtype=int)  # steps the current sign pattern has held
    cycled = np.zeros(len(X), dtype=int)  # steps with S_t = S_(t-2) != S_(t-1)
    live = np.arange(len(X))
    S = np.where(_mv(A, X) >= 0.0, 1.0, -1.0)
    S_old = np.zeros_like(S)  # the pattern before S; no pattern equals it at the start
    eps_s = IRLS_EPS0
    for t in range(IRLS_MAX_ITERS):
        # lam * w stays O(lam0) at analysis zeros and vanishes elsewhere,
        # so the data term is asymptotically unbiased
        lam = lam0 * (eps_s / IRLS_EPS0) ** (2.0 - q)
        X_new = irls_weighted_step(A, D, S, b, X, q, eps_s, lam)
        AX = _mv(A, X_new)
        S_new = np.where(AX >= 0.0, 1.0, -1.0)
        excess = _row_norms(np.abs(AX) - b) - band
        v = np.where(excess > 0.0, excess, 0.0)  # the violation, max(0, excess)
        o = np.sum(np.abs(_mv(D.T, X_new)) ** q, axis=1)
        bv, bo = best_v[live], best_o[live]
        better = (v < bv) | ((v == bv) & (o < bo)) | (t == 0)
        rows = live[better]
        best_x[rows], best_v[rows], best_o[rows], best_t[rows] = X_new[better], v[better], o[better], t + 1
        same = np.all(S_new == S, axis=1)
        held = np.where(same, held + 1, 0)
        cycled = np.where(~same & np.all(S_new == S_old, axis=1), cycled + 1, 0)
        ended = np.where(v == 0.0, EXIT_RULES.index("discrepancy"), -1)
        # a pattern's residual does not change while it holds: test it once
        check = np.flatnonzero((ended < 0) & (held == STALL_STEPS))
        if len(check):
            stalled = check[_pattern_residuals(Q, b, S_new[check]) > threshold]
            ended[stalled] = EXIT_RULES.index("stall")
        check = np.flatnonzero((ended < 0) & (cycled == 2 * STALL_STEPS))
        if len(check):
            low = np.minimum(_pattern_residuals(Q, b, S_new[check]),
                             _pattern_residuals(Q, b, S[check]))
            ended[check[low > threshold]] = EXIT_RULES.index("cycle")
        # convergence counts only once the continuation has reached its floor
        if eps_s <= IRLS_TOL * (1.0 + 1e-9):
            ended[(ended < 0) & (_row_norms(X_new - X) <= IRLS_TOL)] = EXIT_RULES.index("converged")
        done = ended >= 0
        out = live[done]
        steps[out], rule[out] = t + 1, ended[done]
        keep = ~done
        live, X, S, S_old = live[keep], X_new[keep], S_new[keep], S[keep]
        held, cycled = held[keep], cycled[keep]
        if not len(live):
            break
        eps_s = max(eps_s * IRLS_DECAY, IRLS_TOL)
    return best_x, best_v, best_o, best_t, steps, rule


def _basis_rows(A: np.ndarray) -> list[int]:
    """n rows of a full-column-rank A (m, n), by Gram-Schmidt on the rows with
    pivoting: each step takes the row with the largest component orthogonal to
    the rows already taken."""
    V = A.copy()
    rows = []
    for _ in range(A.shape[1]):
        w = np.einsum("ij,ij->i", V, V)
        i = int(np.argmax(w))
        rows.append(i)
        u = V[i] / sqrt(w[i])
        V -= np.outer(V @ u, u)
    return rows


def _sign_tree(A: np.ndarray, b: np.ndarray, threshold: float,
               Q: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Every sign pattern p, one per class {p, -p}, whose least-squares residual
    _pattern_residuals(Q, b, p) is at most threshold, for an A (m, n) of full
    column rank n <= m, n = 0 included, Q an orthonormal basis of col(A).

    Returns the patterns (K, m), in the order the tree emits them, and the
    nodes visited, or None when the tree would visit more than TREE_MAX_NODES.

    The tree takes the n rows I of _basis_rows first: A_I is invertible, so
    each of their patterns has one exact solution and residual 0.  It then
    adds the other rows in index order, each row k splitting a node into its
    two signs, + before -.  Adding row k to a prefix with least-squares point x
    adds e^2 / d to the squared residual, where e = c_k - a_k^T x is the
    recursive least-squares innovation of the target c = p o b and
    d = 1 + a_k^T G a_k its denominator, G the inverse Gram matrix of the
    prefix.  e / sqrt(d) = u_k^T c is linear in c, and the u_k are the
    Gram-Schmidt orthonormalization, in tree order, of the left null vectors
    (-A_I^-T a_k on I, 1 at row k) of A: u_k is supported on the prefix up to
    row k.  One QR of that (m, m - n) stack gives every u_k, so a layer costs
    one product of the nodes' partial patterns with u_k o b.  The prefix
    residual bounds every completion's from below, so a node is pruned once
    it exceeds threshold + TREE_ROUNDING m kappa ||b||, with
    kappa = ||A||_F / sigma_min(A_I), which bounds the condition number of
    every prefix; on random A with kappa from 1 to 1e9 the computed residuals
    stayed within m kappa u ||b|| / 4 of _pattern_residuals (u = 2^-53), so
    the margin covers their rounding 256-fold.  A leaf is kept only when its
    exact _pattern_residuals is at most threshold.

    The global sign is fixed at the first row in tree order with b_i != 0,
    which takes +1; a row with b_i = 0 takes +1 only, its sign being
    immaterial.  Nodes visited count the basis patterns and every child
    evaluated.
    """
    m, n = A.shape
    I = _basis_rows(A)
    order = I + sorted(set(range(m)) - set(I))
    bt = b[order]
    nz = np.flatnonzero(bt[:n])  # nz[0] carries the global sign
    nodes = 2 ** max(len(nz) - 1, 0)
    if nodes > TREE_MAX_NODES:
        return None
    S = np.ones((nodes, m))  # patterns in tree order; entries past a node's prefix unset
    if len(nz):
        S[:, nz] = _sign_patterns(len(nz))
    A_I = A[I]
    U, _ = np.linalg.qr(np.vstack([-np.linalg.solve(A_I.T, A[order[n:]].T), np.eye(m - n)]))
    U *= bt[:, None]
    kappa = np.linalg.norm(A) / np.linalg.svd(A_I, compute_uv=False).min(initial=np.inf)
    cut2 = (threshold + TREE_ROUNDING * m * kappa * float(np.linalg.norm(b))) ** 2
    r2 = np.zeros(nodes)
    fixed = len(nz) > 0
    both, plus = np.array([1.0, -1.0]), np.ones(1)
    for k in range(n, m):
        signs = both if fixed and bt[k] != 0.0 else plus
        fixed = fixed or bt[k] != 0.0
        nodes += len(S) * len(signs)
        if nodes > TREE_MAX_NODES:
            return None
        Z = (S[:, :k] @ U[:k, k - n])[:, None] + signs * U[k, k - n]
        R2 = r2[:, None] + Z * Z
        parent, side = np.nonzero(R2 <= cut2)  # parent-major, + before -
        r2 = R2[parent, side]
        S = S[parent]
        S[:, k] = signs[side]
        if not len(S):
            break
    S[:, order] = S.copy()
    return S[_pattern_residuals(Q, b, S) <= threshold], nodes


def _polish(P: PhaselessProblem, X0: np.ndarray, Q: np.ndarray,
            feasible_classes: int = 0, tree_nodes: int = 0) -> SolverResult:
    """One _irls_converge batch from the starts X0 (R, n); the winner minimizes
    (violation, objective, start index) over every iterate of every run."""
    A, b, D = P.A, P.b, P.frame.D
    best_x, best_v, best_o, best_t, steps, rules = _irls_converge(P, X0, Q)
    w = int(np.lexsort((np.arange(len(X0)), best_o, best_v))[0])
    x_hat = best_x[w].copy()
    return SolverResult(
        x_hat=x_hat,
        objective=lq_quasinorm(D.T @ x_hat, P.q),
        feasibility=float(np.linalg.norm(np.abs(A @ x_hat) - b)),
        method="irls",
        iterations=int(best_t[w]),
        steps=int(steps.sum()),
        exits=dict(zip(EXIT_RULES, np.bincount(rules, minlength=len(EXIT_RULES)).tolist())),
        feasible_classes=feasible_classes,
        tree_nodes=tree_nodes,
    )


def _irls_restarts(P: PhaselessProblem, seed: int, factors: tuple) -> SolverResult:
    """The restart pipeline, solve_irls's fallback where the sign tree does not
    run: one polish run per restart, from the least-squares point
    A_pinv (p o b) of its start's pattern p = sign(Ax) (zeros mapping to +1),
    after sign-flip descent where that point is stalled.  Restart 0 starts at
    the spectral direction, every later one at a fresh random direction
    scaled to ||b|| and drawn from (seed, restart index).  factors are A's
    _svd_factors, the one SVD solve_irls takes.

    Each step is batched over the starts and equals running them one after
    another bit for bit: stacked products are _mv's and norms _row_norms',
    which run the same BLAS kernels per row as the 1-D calls.
    """
    A, b = P.A, P.b
    n = A.shape[1]
    scale = float(np.linalg.norm(b))
    Q, _, A_pinv = factors
    _, V = np.linalg.eigh(A.T @ ((b**2)[:, None] * A))
    starts = [scale * V[:, -1]]
    for j in range(1, IRLS_RESTARTS):  # fresh random directions break bad sign-pattern basins
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, j)))
        g = rng.standard_normal(n)
        starts.append(scale * g / np.linalg.norm(g))
    S = np.where(_mv(A, np.array(starts)) >= 0.0, 1.0, -1.0)
    X0 = _mv(A_pinv, S * b)
    stalled = np.flatnonzero(_row_norms(np.abs(_mv(A, X0)) - b) > _stall_threshold(P.eps, scale))
    S[stalled] = _sign_flip_descent(Q, b, S[stalled])
    X0[stalled] = _mv(A_pinv, S[stalled] * b)
    return _polish(P, X0, Q)


def solve_irls(P: PhaselessProblem, seed: int = 0) -> SolverResult:
    """Reweighted least-squares polish of the sign patterns the sign tree keeps.

    One thin SVD of A gives Q = U_r, A_pinv and U_r S_r (r the numerical
    rank).  For m >= n, _sign_tree runs on U_r S_r, which has A's residuals,
    and one polish run starts at each kept pattern's least-squares point
    A_pinv (p o b); past TREE_MAX_CLASSES classes, at the TREE_MAX_CLASSES
    points of smallest objective (a stable sort; emission order breaks ties).
    The restart pipeline (_irls_restarts) runs instead when m < n, when the
    tree would visit more than TREE_MAX_NODES nodes, or when it keeps no
    pattern (eps below every pattern's residual); seed, which draws its
    random starts, acts only there and must be a non-negative integer.

    Each polish run is the continuation: every outer iteration sets
    p = sign(Ax), then solves the strictly convex weighted problem, and the
    smoothing and the regularization decay geometrically together so the
    fixed point approaches a stationary point of the unsmoothed objective;
    the schedule is the IRLS_* constants.
    Among all iterates of all runs the returned one minimizes (constraint
    violation, objective) lexicographically, the lowest pattern rank (the
    tree's emission order, or the restart index) winning a tie.

    `iterations` is the winning iterate's index within its polish run, `steps`
    the weighted steps of all polish runs, and `exits` counts the polish runs
    that ended by each of EXIT_RULES; they add up to the classes polished on
    the tree path, min(`feasible_classes`, TREE_MAX_CLASSES), and to the
    restarts on the fallback, where `feasible_classes` and `tree_nodes`
    read 0.
    """
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    _check_q(P.q)
    A, b, D = P.A, P.b, P.frame.D
    m, n = A.shape
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return SolverResult(x_hat=np.zeros(n), objective=0.0, feasibility=0.0,
                            method="irls", iterations=0, exits=dict.fromkeys(EXIT_RULES, 0))
    factors = Q, sv, A_pinv = _svd_factors(A)
    tree = _sign_tree(Q * sv, b, _stall_threshold(P.eps, scale), Q) if m >= n else None
    if tree is None or not len(tree[0]):
        return _irls_restarts(P, seed, factors)
    S, nodes = tree
    X0 = _mv(A_pinv, S * b)
    if len(S) > TREE_MAX_CLASSES:
        objective = np.sum(np.abs(_mv(D.T, X0)) ** P.q, axis=1)
        X0 = X0[np.sort(np.argsort(objective, kind="stable")[:TREE_MAX_CLASSES])]
    return _polish(P, X0, Q, feasible_classes=len(S), tree_nodes=nodes)
