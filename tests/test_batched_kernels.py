"""The batched oracle, isometry and null-space kernels against the loops they replace.

The reference loops below are the scalar implementations the kernels
replaced, kept verbatim apart from what they return: the oracle loop its
certified tuple, the DRIP loop its constant, witness support, side and every
support's deviation; and apart from the oracle loop's feasibility rule, now
the oracle's one rule ||A x - c|| <= FEAS_RTOL ||c||.  The oracle must
reproduce them bit for bit (point, objective, signs, zero set, fallback
flag), also on a wider corpus of named
frames and duplicated rows, while its null-space block stays within
RECHECK_RHO of the stacked n x n solve and finds a system singular exactly
where np.linalg.matrix_rank does; the isometry constant, which
rip's one kernel computes for DRIP, S-DRIP and both samplers, must agree
to 1e-12 relative, with the same witness support wherever the top two
supports do not tie, and S-DRIP's delta must be DRIP's bit for bit.  Its
closed form at order <= 2 must agree with an independent np.longdouble
referee (delta and theta_plus to 1e-12 relative, theta_minus to 1e-14
absolute), leave the ill-conditioned supports to the SVD path bit for bit
and give the same deviations, bit for bit, in chunks of one support.  The
NSP falsifier, which now stacks its null spaces and decides each cell with
a one-dimensional solution space by one evaluation,
must return bit-identical witnesses, also on near-degenerate A, whose
systems the sign screen cannot certify and leaves to the SVD, at the
benchmark's shape, where it takes row subsets in more than one piece, and at
m = n + 2..n + 4 on near-degenerate and rank-deficient A; the screen must
certify only systems of full rank, and the full-rank bound, at every number
of removed rows up to m - n, only removals that leave a null space {0}; the
falsifier must take row-subset null spaces only where a cell is open, in
doubling pieces, and none that the bound settles, the stacked gap of its
one-dimensional cells must be the scalar gap bit for bit, and the stacked
null-space kernel must return the per-slice one's bases.  The chunked
dictionary-sparse distance must agree with the per-support loop to rounding.
The batched IRLS restart pipeline, solve_irls's fallback where the sign tree
does not run, must reproduce the restart loop bit for bit (point, objective,
feasibility, winning iteration), and the sign-flip descent, which scores the
remaining flips of a row as one stack of exact residuals, the scalar
entry-by-entry loop row by row.
"""

import dataclasses
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqphase import nsp, rip, serialize, solver
from lqphase.errors import (
    DegenerateProblemError,
    InfeasibleProblemError,
    ParameterError,
    ResourceBudgetError,
)
from lqphase.frames import TightFrame, build_named_frame, build_parseval_random
from lqphase.linalg import (
    STACK_ELEMS,
    combination_array,
    null_spaces,
    numerical_rank,
    subset_masks,
    support_bases,
    sym_eig_bounds,
)
from lqphase.measurement import PhaselessProblem, build_problem
from lqphase.nsp import (
    STRICTNESS_TOL,
    NspWitness,
    _coordinate_ascent,
    _lambda_list,
    dictionary_sparse_distance,
    nsp_real_evaluate,
    nsp_real_falsify,
)
from lqphase.harness import sample_measurement_matrix
from lqphase.rip import drip_constant, sdrip_constants
from lqphase.signals import _check_q, lq_quasinorm, sample_dictionary_sparse
from lqphase.solver import (
    FEAS_RTOL,
    RECHECK_RHO,
    STALL_STEPS,
    SolverResult,
    solve_oracle_noiseless,
)

# ---------------------------------------------------------------- reference loops


def loop_affine_lq_oracle(A, c, F, q, support_budget=10**6):
    _check_q(q)
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if c.shape != (m,):
        raise ParameterError(f"c must have length {m}, got {c.shape}")
    rank = numerical_rank(np.linalg.svd(A, compute_uv=False))

    if m > n:
        x_ls, *_ = np.linalg.lstsq(A, c, rcond=None)
        if np.linalg.norm(A @ x_ls - c) > FEAS_RTOL * np.linalg.norm(c):
            raise InfeasibleProblemError("c is not in the range of the tall matrix A")
        if rank < n:
            raise DegenerateProblemError("tall system is rank-deficient")
        return x_ls, lq_quasinorm(F.D.T @ x_ls, q), None
    if rank < m:
        raise DegenerateProblemError("A must have full row rank")

    free = n - m
    x_mn, *_ = np.linalg.lstsq(A, c, rcond=None)
    if free == 0:
        return x_mn, lq_quasinorm(F.D.T @ x_mn, q), None

    if comb(F.N, free) > support_budget:
        raise ResourceBudgetError(
            f"C({F.N},{free}) zero patterns exceed the budget {support_budget}"
        )
    best_x = None
    best_obj = np.inf
    best_Z = None
    rhs = np.concatenate([c, np.zeros(free)])
    tol = FEAS_RTOL * np.linalg.norm(c)
    for Z in combinations(range(F.N), free):
        M = np.vstack([A, F.D[:, list(Z)].T])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.linalg.norm(A @ x - c) > tol:
            continue
        obj = lq_quasinorm(F.D.T @ x, q)
        if obj < best_obj - 1e-15:
            best_x, best_obj, best_Z = x, obj, Z
    # minimum-norm fallback guards rank-degenerate cells; zero-pattern
    # candidates win ties so the certificate stays informative
    mn_obj = lq_quasinorm(F.D.T @ x_mn, q)
    if best_x is None or mn_obj < best_obj - 1e-12:
        best_x, best_obj, best_Z = x_mn, mn_obj, None
    return best_x, best_obj, best_Z


def loop_oracle_noiseless(P, max_m=10, support_budget=10**6):
    """Returns (x, objective, signs, zero_set, minimum_norm_fallback)."""
    A, b, F = P.A, P.b, P.frame
    m, n = A.shape
    if m > max_m:
        raise ResourceBudgetError(f"m={m} exceeds the sign enumeration guard ({max_m})")
    if numerical_rank(np.linalg.svd(A, compute_uv=False)) < min(m, n):
        raise DegenerateProblemError(f"A must have full rank {min(m, n)}")

    screen = None
    if m > n:
        Qa, _ = np.linalg.qr(A)
        b_scale = max(np.linalg.norm(b), 1e-30)

        def screen(cv):
            return np.linalg.norm(cv - Qa @ (Qa.T @ cv)) > FEAS_RTOL * b_scale

    best = None
    for tail in product((1.0, -1.0), repeat=m - 1):
        s = np.array((1.0,) + tail)
        cv = s * b
        if screen is not None and screen(cv):
            continue
        try:
            x, obj, Z = loop_affine_lq_oracle(A, cv, F, P.q, support_budget)
        except (InfeasibleProblemError, DegenerateProblemError):
            continue
        if best is None or obj < best[0] - 1e-15:
            best = (obj, x, tuple(s), Z)
    if best is None:
        raise InfeasibleProblemError("no sign pattern admits a solution; measurements corrupted?")
    obj, x, s, Z = best
    return x, obj, s, Z, bool(Z is None and n > m)


def loop_sym_eig_bounds(M):
    d = M.shape[0]
    if d == 1:
        v = float(M[0, 0])
        return v, v
    if d == 2:
        tr = float(M[0, 0] + M[1, 1])
        # discriminant (a-c)^2 + 4b^2 is nonnegative by construction
        disc = float((M[0, 0] - M[1, 1]) ** 2 + 4.0 * M[0, 1] ** 2)
        root = np.sqrt(disc)
        return 0.5 * (tr - root), 0.5 * (tr + root)
    w = np.linalg.eigvalsh(M)
    return float(w[0]), float(w[-1])


def loop_support_basis(D, S):
    Ds = D[:, list(S)]
    u, s, _ = np.linalg.svd(Ds, full_matrices=False)
    r = numerical_rank(s)
    if r == 0:
        return None
    return u[:, :r]


def loop_drip_constant(A, F, order):
    """Returns (delta, support, every support's deviation)."""
    G = A.T @ A
    best = None
    devs = []
    for S in combinations(range(F.N), order):
        Q = loop_support_basis(F.D, S)
        if Q is None:
            continue
        lo, hi = loop_sym_eig_bounds(Q.T @ G @ Q)
        dev = max(hi - 1.0, 1.0 - lo)
        devs.append(dev)
        if best is None or dev > best[0]:
            best = (dev, S)
    return (*best, devs)


def loop_column_space(M):
    """Orthonormal basis (columns) of the column space of M."""
    M = np.asarray(M)
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0), dtype=M.dtype)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    r = numerical_rank(s)
    return u[:, :r]


def loop_dictionary_sparse_distance(x, D, k, support_budget=10**6):
    x = np.asarray(x)
    N = D.shape[1]
    if comb(N, k) > support_budget:
        raise ResourceBudgetError(f"C({N},{k}) supports exceed the budget {support_budget}")
    best = np.inf
    for S in combinations(range(N), k):
        Q = loop_column_space(D[:, list(S)])
        resid = x - Q @ (Q.T @ x)
        best = min(best, float(np.linalg.norm(resid)))
        if best == 0.0:
            break
    return best


def loop_nsp_real_falsify(A, F, k, q, budget=10**4, seed=0, lambda_mode="card_at_most_k"):
    A = np.asarray(A, dtype=float)
    q = _check_q(q)
    m, n = A.shape
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    lambdas = _lambda_list(m, k, lambda_mode)
    supports = list(combinations(range(F.N), k))
    null_cache = {}

    def nullsp(T):
        if T not in null_cache:
            null_cache[T] = loop_null_space(A[list(T)])
        return null_cache[T]

    restarts = max(1, budget // max(1, len(lambdas) * len(supports)))
    cell_index = 0
    for Lam in lambdas:
        comp = tuple(i for i in range(m) if i not in set(Lam))
        U = nullsp(Lam)
        V = nullsp(comp)
        du, dv = U.shape[1], V.shape[1]
        if du == 0 or dv == 0:
            cell_index += len(supports)
            continue
        for S in supports:
            cell_index += 1
            Q = loop_column_space(F.D[:, list(S)])
            P_out = np.eye(n) - Q @ Q.T
            # (a, b) must satisfy (I - P_S)(Ua + Vb) = 0
            K = np.hstack([P_out @ U, P_out @ V])
            W = loop_null_space(K)
            if W.shape[1] == 0:
                continue
            Mu = U @ W[:du, :]
            Mv = V @ W[du:, :]
            Lp = F.D.T @ (Mu + Mv)
            Lm = F.D.T @ (Mu - Mv)

            def gap(c):
                return float(np.sum(np.abs(Lp @ c) ** q) - np.sum(np.abs(Lm @ c) ** q))

            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, cell_index)))
            for _ in range(restarts):
                c0 = rng.standard_normal(W.shape[1])
                if np.linalg.norm(c0) == 0.0:
                    continue
                c, fc = _coordinate_ascent(gap, c0)
                if fc < -STRICTNESS_TOL:
                    continue
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
                witness = NspWitness(Lambda=Lam, u=u, v=v, q=q, k=k)
                checked = nsp_real_evaluate(A, F, witness)
                if checked.violated:
                    return checked
    return None


def loop_weighted_step(
    A: np.ndarray,
    D: np.ndarray,
    p: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    q: float,
    eps_s: float,
    lam: float,
) -> np.ndarray:
    """One reweighted least-squares update for fixed signs and smoothing."""
    w = ((D.T @ x) ** 2 + eps_s**2) ** (q / 2.0 - 1.0)
    H = A.T @ A + lam * (D * w[None, :]) @ D.T
    return np.linalg.solve(H, A.T @ (p * b))


def loop_sign_flip_descent(Qa: np.ndarray, b: np.ndarray, p: np.ndarray,
                           max_sweeps: int) -> np.ndarray:
    """1-opt descent on the least-squares residual over sign patterns; Qa is an
    orthonormal basis of A's column space.

    Escapes alternating fixed points whose sign pattern is locally wrong;
    deterministic (first improving flip wins within a sweep).  A flip counts
    when it lowers the residual by more than FLIP_GAIN ||b||.
    """
    min_gain = solver.FLIP_GAIN * np.linalg.norm(b)

    def resid(pattern: np.ndarray) -> float:
        cv = pattern * b
        return float(np.linalg.norm(cv - Qa @ (Qa.T @ cv)))

    best = resid(p)
    p = p.copy()
    for _ in range(max_sweeps):
        improved = False
        for i in range(len(p)):
            p[i] = -p[i]
            r = resid(p)
            if r < best - min_gain:
                best = r
                improved = True
            else:
                p[i] = -p[i]
        if not improved:
            break
    return p


def loop_solve_irls(P: PhaselessProblem, seed: int = 0) -> SolverResult:
    """Sign-flip descent and reweighted least-squares polish, one start at a
    time.

    Restart 0 starts at the spectral direction, every later one at a fresh
    random direction scaled to ||b||.  A start's pattern p = sign(A x) goes to
    its least-squares point x = A_pinv (p o b); a stalled one gets one round
    of 1-opt sign-flip descent; the polish runs the continuation from the
    pattern's least-squares point until an exit rule holds.  A_pinv and the
    basis Qa of A's column space come from A's thin SVD, cut at its numerical
    rank r.  Among all iterates of all runs the returned one minimizes
    (constraint violation, objective) lexicographically, the violation
    counting from the noise band eps + FEAS_RTOL ||b||, which the stall and
    cycle rules' threshold covers.  The schedule is read from solver's IRLS_*
    constants at call time, so a test can change it for both implementations.
    """
    _check_q(P.q)
    A, b, D = P.A, P.b, P.frame.D
    n = A.shape[1]
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return SolverResult(x_hat=np.zeros(n), objective=0.0, feasibility=0.0,
                            method="irls", iterations=0)
    lam0 = solver.IRLS_REG * float(b @ b)
    _, V = np.linalg.eigh(A.T @ ((b**2)[:, None] * A))
    x_spec = scale * V[:, -1]
    u, sv, vh = np.linalg.svd(A, full_matrices=False)
    r = numerical_rank(sv)
    A_pinv = (vh[:r].T / sv[:r]) @ u[:, :r].T
    Qa = u[:, :r]
    threshold = max(P.eps, 1e-7 * scale)
    band = P.eps + FEAS_RTOL * scale
    stalled = max(threshold, band)

    def sign(x: np.ndarray) -> np.ndarray:
        return np.where(A @ x >= 0.0, 1.0, -1.0)

    def resid(pattern: np.ndarray) -> float:
        cv = pattern * b
        return float(np.linalg.norm(cv - Qa @ (Qa.T @ cv)))

    best_key: tuple[float, float] | None = None
    best_x = None
    best_iters = 0

    def converge(x: np.ndarray) -> None:
        nonlocal best_key, best_x, best_iters
        eps_s = solver.IRLS_EPS0
        p, p_old = sign(x), None
        held = cycled = 0
        for t in range(solver.IRLS_MAX_ITERS):
            # lam * w stays O(lam0) at analysis zeros and vanishes elsewhere,
            # so the data term is asymptotically unbiased
            lam = lam0 * (eps_s / solver.IRLS_EPS0) ** (2.0 - P.q)
            x_new = loop_weighted_step(A, D, p, b, x, P.q, eps_s, lam)
            p_new = sign(x_new)
            feas = float(np.linalg.norm(np.abs(A @ x_new) - b))
            key = (max(0.0, feas - band), lq_quasinorm(D.T @ x_new, P.q))
            if best_key is None or key < best_key:
                best_key, best_x, best_iters = key, x_new, t + 1
            same = np.array_equal(p_new, p)
            held = held + 1 if same else 0
            back = p_old is not None and np.array_equal(p_new, p_old)
            cycled = cycled + 1 if not same and back else 0
            if key[0] == 0.0:  # discrepancy
                return
            if held == STALL_STEPS and resid(p_new) > stalled:
                return
            if cycled == 2 * STALL_STEPS and min(resid(p_new), resid(p)) > stalled:
                return
            # convergence counts only once the continuation has reached its floor
            if eps_s <= solver.IRLS_TOL * (1.0 + 1e-9) and np.linalg.norm(x_new - x) <= solver.IRLS_TOL:
                return
            x, p, p_old = x_new, p_new, p
            eps_s = max(eps_s * solver.IRLS_DECAY, solver.IRLS_TOL)

    for j in range(solver.IRLS_RESTARTS):
        if j == 0:
            x = x_spec
        else:  # a fresh random direction; breaks bad sign-pattern basins
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, j)))
            g = rng.standard_normal(n)
            x = scale * g / np.linalg.norm(g)
        p = sign(x)
        x = A_pinv @ (p * b)
        if np.linalg.norm(np.abs(A @ x) - b) > threshold:
            p = loop_sign_flip_descent(Qa, b, p, solver.FLIP_MAX_SWEEPS)
            x = A_pinv @ (p * b)
        converge(x)
    assert best_x is not None
    feas = float(np.linalg.norm(np.abs(A @ best_x) - b))
    return SolverResult(
        x_hat=best_x,
        objective=lq_quasinorm(D.T @ best_x, P.q),
        feasibility=feas,
        method="irls",
        iterations=best_iters,
    )


# ---------------------------------------------------------------- corpus


def _frame(n, N, seed):
    if N == 2 * n and seed % 2 == 0:
        return build_named_frame("duplicated_identity", n)
    return build_parseval_random(n, N, seed)


def oracle_corpus(q):
    """Phaseless problems with m < n, m = n and m > n on random and duplicated frames."""
    out = []
    for seed in range(4):
        for n, N in ((4, 6), (4, 8), (6, 9)):
            F = _frame(n, N, seed)
            truth = sample_dictionary_sparse(F, 1 + seed % 2, seed + 11)
            for m in range(1, n + 3):
                A = np.random.default_rng(1000 * seed + 10 * n + m).standard_normal((m, n))
                out.append(build_problem(A, F, truth, q=q))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasibleProblemError, DegenerateProblemError) as exc:
        return type(exc)


def affine_search(A, c, F, q):
    """The oracle's zero-pattern search on the one right-hand side c, as
    (x, objective, zero_set); raises InfeasibleProblemError when no point of
    {Ax = c} is feasible."""
    found = solver._zero_pattern_search(A, c[:, None], F.D, q, solver._new_counts())
    if found is None:
        raise InfeasibleProblemError("c is not in the range of A")
    _, x, obj, Z, _ = found
    return x, obj, Z


def _batched(P):
    res = _outcome(solve_oracle_noiseless, P)
    if isinstance(res, type):
        return res
    cert = res.certificate
    return res.x_hat, res.objective, cert["signs"], cert["zero_set"], cert["minimum_norm_fallback"]


def assert_bit_identical(got, ref):
    if isinstance(ref, type) or isinstance(got, type):
        assert got is ref
        return
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1:] == ref[1:]
    assert type(got[1]) is type(ref[1])


# ---------------------------------------------------------------- oracle


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 1.0])
def test_oracle_matches_reference_loop_bit_for_bit(q):
    corpus = oracle_corpus(q)
    for P in corpus:
        assert_bit_identical(_batched(P), _outcome(loop_oracle_noiseless, P))
    # the corpus reaches all three regimes and singular zero-pattern systems
    shapes = {np.sign(P.A.shape[0] - P.A.shape[1]) for P in corpus}
    assert shapes == {-1, 0, 1}
    singular = [solve_oracle_noiseless(P).certificate["singular_systems"] for P in corpus
                if P.frame.label.startswith("duplicated") and P.A.shape[0] < P.A.shape[1]]
    assert max(singular) > 0


@pytest.mark.parametrize("q", [0.3, 1.0])
def test_affine_oracle_matches_reference_loop(q):
    # the oracle's search on one right-hand side c, also on c that are no
    # sign pattern of a magnitude vector
    rng = np.random.default_rng(3)
    for n, N in ((3, 5), (4, 8), (5, 8)):
        for trial in range(6):
            F = _frame(n, N, trial)
            for m in range(1, n + 2):
                A = rng.standard_normal((m, n))
                c = A @ rng.standard_normal(n) if m > n else rng.standard_normal(m)
                got = _outcome(affine_search, A, c, F, q)
                ref = _outcome(loop_affine_lq_oracle, A, c, F, q)
                assert got[0].tobytes() == ref[0].tobytes() and got[1:] == ref[1:]


@pytest.mark.parametrize("q", [0.5, 1.0])
def test_oracle_rank_deficient_A_matches_loop(q):
    F = build_parseval_random(4, 7, seed=2)
    truth = sample_dictionary_sparse(F, 1, seed=3)
    rng = np.random.default_rng(4)
    for m in (2, 3, 4, 6):
        A = rng.standard_normal((m, 4))
        A[-1] = A[0]  # duplicated row: rank < m
        if m > 4:
            A[:, -1] = A[:, 0]  # duplicated column: rank < n for the tall matrices
        P = build_problem(A, F, truth, q=q)
        assert_bit_identical(_batched(P), _outcome(loop_oracle_noiseless, P))
        assert _batched(P) is DegenerateProblemError


@pytest.mark.parametrize("m", [2, 4, 5, 7])
def test_oracle_zero_measurements_match_loop(m):
    F = build_named_frame("duplicated_identity", 4)
    A = np.random.default_rng(m).standard_normal((m, 4))
    P = PhaselessProblem(A=A, frame=F, b=np.zeros(m), eps=0.0, q=0.5)
    assert_bit_identical(_batched(P), _outcome(loop_oracle_noiseless, P))
    assert solve_oracle_noiseless(P).objective == 0.0


@st.composite
def oracle_instances(draw):
    """(A, F, b, q, full_rank, x1): m on both sides of n, duplicated rows, b = 0
    or |A x0| scaled by 1e-12 to 1e3, A of full rank min(m, n) or below it, and
    a point x1 whose image A x1 is in the range of A."""
    n = draw(st.integers(2, 5))
    m = max(1, n + draw(st.sampled_from([1, -1, 2, -2, 0, -3])))
    F = _frame(n, draw(st.sampled_from([n, n + 2, 2 * n])), draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = min(m, n) - draw(st.sampled_from([0, 0, 1]))
    A = rng.standard_normal((m, max(rank, 1))) @ rng.standard_normal((max(rank, 1), n))
    if rank == 0:
        A[:] = 0.0
    if m > 1 and draw(st.booleans()):
        A[-1] = A[0]  # duplicated row
    full_rank = numerical_rank(np.linalg.svd(A, compute_uv=False)) == min(m, n)
    scale = draw(st.sampled_from([1.0, 1e-12, 1e3, 1e-6, 0.0, 1e-3]))
    b = scale * np.abs(A @ rng.standard_normal(n))
    return A, F, b, draw(st.sampled_from([0.1, 0.5, 1.0])), full_rank, scale * rng.standard_normal(n)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(oracle_instances())
def test_one_search_matches_reference_loops_for_every_shape(instance):
    A, F, b, q, full_rank, x1 = instance
    P = PhaselessProblem(A=A, frame=F, b=b, eps=0.0, q=q)
    assert_bit_identical(_batched(P), _outcome(loop_oracle_noiseless, P))
    if not full_rank:
        return
    flipped = np.where(np.arange(len(b)) % 2, -b, b)  # one sign pattern's right-hand side
    for c in (A @ x1, flipped):
        assert_bit_identical(_outcome(affine_search, A, c, F, q),
                             _outcome(loop_affine_lq_oracle, A, c, F, q))


def test_tall_A_and_c_outside_its_range():
    # m > n at eps = 0, with b scaled by 1e-12: feasibility is relative to
    # ||b||, so the scaled problem has the scaled solution, and a b that no
    # |A x| meets is refused however small it is; a rank-deficient tall A
    # fails the rank check first
    F = build_parseval_random(3, 5, seed=1)
    A = np.random.default_rng(2).standard_normal((5, 3))
    truth = sample_dictionary_sparse(F, 1, seed=4)
    P = build_problem(A, F, truth, q=1.0)
    tiny = PhaselessProblem(A=A, frame=F, b=1e-12 * P.b, eps=0.0, q=1.0)
    got = solve_oracle_noiseless(tiny)
    assert_bit_identical(_batched(tiny), _outcome(loop_oracle_noiseless, tiny))
    assert got.feasibility <= FEAS_RTOL * np.linalg.norm(tiny.b)
    assert np.linalg.norm(np.abs(got.x_hat) - 1e-12 * np.abs(truth.x)) <= 1e-8 * 1e-12
    assert got.objective == pytest.approx(1e-12 * solve_oracle_noiseless(P).objective, rel=1e-8)
    off = 1e-12 * (np.abs(np.random.default_rng(3).standard_normal(5)) + 1.0)
    outside = PhaselessProblem(A=A, frame=F, b=off, eps=0.0, q=1.0)
    for signs in product((1.0, -1.0), repeat=5):
        c = np.array(signs) * off
        x_ls, *_ = np.linalg.lstsq(A, c, rcond=None)
        assert np.linalg.norm(A @ x_ls - c) > 0.1 * np.linalg.norm(c)
    assert _batched(outside) is _outcome(loop_oracle_noiseless, outside) is InfeasibleProblemError
    A = A.copy()
    A[:, 2] = A[:, 0]
    degenerate = PhaselessProblem(A=A, frame=F, b=np.abs(A @ truth.x), eps=0.0, q=1.0)
    assert _batched(degenerate) is DegenerateProblemError


def test_ill_conditioned_wide_A_refuses_an_infeasible_least_squares_point():
    # cond(A) of 1e8 to 1e9.9 passes the rank check, yet the minimum-norm point's
    # residual can exceed FEAS_RTOL ||c||; the reference loop returned it
    # untested, the search refuses it and keeps a feasible zero set or none
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        V, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        A = (U * np.array([1.0, 10.0 ** -rng.uniform(8, 9.9)])) @ V.T
        c = rng.standard_normal(2)
        x_mn, *_ = np.linalg.lstsq(A, c, rcond=None)
        if np.linalg.norm(A @ x_mn - c) <= FEAS_RTOL * np.linalg.norm(c):
            continue
        F = build_parseval_random(4, 6, seed)
        if loop_affine_lq_oracle(A, c, F, 1.0)[2] is not None:
            continue
        got = _outcome(affine_search, A, c, F, 1.0)
        if got is InfeasibleProblemError:
            outcomes.add("infeasible")
        else:
            assert got[2] is not None
            assert np.linalg.norm(A @ got[0] - c) <= FEAS_RTOL * np.linalg.norm(c)
            outcomes.add("zero set")
    assert outcomes == {"infeasible", "zero set"}


@pytest.mark.parametrize("q", [0.3, 1.0])
def test_oracle_chunked_equals_unchunked(q, monkeypatch):
    corpus = [P for P in oracle_corpus(q) if P.A.shape[0] < P.A.shape[1]]
    whole = [solve_oracle_noiseless(P) for P in corpus]
    for P, ref in zip(corpus, whole):
        N, K = P.frame.N, 2 ** (P.A.shape[0] - 1)
        monkeypatch.setattr(solver, "STACK_ELEMS", 3 * N * K)  # three zero patterns a chunk
        assert comb(N, P.A.shape[1] - P.A.shape[0]) > 3
        got = solve_oracle_noiseless(P)
        assert got.x_hat.tobytes() == ref.x_hat.tobytes()
        assert got.objective == ref.objective
        assert got.certificate == ref.certificate


def test_oracle_counters_add_up_overdetermined():
    # m = 3 > n = 2: four sign patterns, of which the projection screen keeps
    # exactly the consistent ones
    F = build_named_frame("identity", 2)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.abs(A @ np.array([1.0, -2.0]))
    P = PhaselessProblem(A=A, frame=F, b=b, eps=0.0, q=1.0)
    cert = solve_oracle_noiseless(P).certificate
    Qa, _ = np.linalg.qr(A)
    kept = sum(
        np.linalg.norm(s * b - Qa @ (Qa.T @ (s * b))) <= FEAS_RTOL * np.linalg.norm(b)
        for s in (np.array((1.0,) + t) for t in product((1.0, -1.0), repeat=2))
    )
    assert kept == 1
    assert cert["sign_patterns"] == 4
    assert cert["screened_out"] + kept == cert["sign_patterns"]
    assert cert["zero_patterns"] == 0 and cert["singular_systems"] == 0
    assert cert["rechecked"] == kept
    assert cert["margin"] is None  # a single feasible sign pattern


def test_oracle_counters_add_up_underdetermined():
    # duplicated identity, n = 3, N = 6, m = 1: M_Z stacks a and two frame
    # columns, and is singular when the columns are parallel (i and i + 3) or
    # span a = e_0 + 2 e_1; elimination then ends on an exact zero pivot
    F = build_named_frame("duplicated_identity", 3)
    A = np.array([[1.0, 2.0, 0.0]])
    b = np.array([3.0])
    P = PhaselessProblem(A=A, frame=F, b=b, eps=0.0, q=1.0)
    cert = solve_oracle_noiseless(P).certificate
    Zs = list(combinations(range(6), 2))
    singular = sum(np.linalg.matrix_rank(np.vstack([A, F.D[:, list(Z)].T])) < 3 for Z in Zs)
    assert cert["sign_patterns"] == 1 and cert["screened_out"] == 0
    assert cert["zero_patterns"] == len(Zs) == 15
    assert cert["singular_systems"] == singular > 0
    # at least the winning zero set and one of its ties (columns i and i + 3
    # are equal); at most every nonsingular zero set and the minimum-norm point
    assert 2 <= cert["rechecked"] <= len(Zs) - singular + 1


def test_null_space_block_stays_within_recheck_rho_of_the_stacked_solve():
    # the re-check window assumes every batched point within RECHECK_RHO ||x||
    # of the scalar one; on the wide problems of the oracle corpus each
    # analysis coefficient and the norm of the null-space point stay within
    # that of the stacked n x n solve of M_Z = [A; D_Z^T], and a system counts
    # as singular exactly where np.linalg.matrix_rank finds M_Z singular
    singular_seen = 0
    for P in oracle_corpus(1.0):
        A, D = P.A, P.frame.D
        m, n = A.shape
        if m >= n:
            continue
        C = (solver._sign_patterns(m) * P.b).T
        X_ls = np.linalg.pinv(A) @ C
        Zs = combination_array(D.shape[1], n - m)
        DX, sq, singular = solver._null_space_block(
            D.T @ np.linalg.svd(A)[2][m:].T, D.T @ X_ls, np.sum(X_ls * X_ls, axis=0), Zs)
        M = np.concatenate([np.broadcast_to(A, (len(Zs), m, n)), D.T[Zs]], axis=1)
        np.testing.assert_array_equal(singular, np.linalg.matrix_rank(M) < n)
        assert np.all(singular[np.isnan(sq).any(axis=1)])  # NaN where LU met a zero pivot
        singular_seen += int(singular.sum())
        X = np.linalg.solve(M[~singular], np.concatenate([C, np.zeros((n - m, C.shape[1]))]))
        norms = np.linalg.norm(X, axis=1)
        assert np.all(np.abs(DX[~singular] - D.T @ X) <= RECHECK_RHO * norms[:, None])
        assert np.all(np.abs(np.sqrt(sq[~singular]) - norms) <= RECHECK_RHO * norms)
    assert singular_seen > 0


def wide_oracle_corpus():
    """Noiseless problems on the three named frames and on random Parseval
    frames of N = n + 1, 2n and 2n + 1, at every m from 1 to n + 1 and q in
    {0.1, 0.3, 0.5, 1}: per cell a Gaussian A and, for m > 1, one with a
    duplicated row (rank-deficient unless m = n + 1), with truths of one or
    two nonzero analysis coefficients."""
    frames = [build_named_frame("mercedes")]
    for n in (2, 3, 4, 5):
        frames += [build_named_frame("identity", n), build_named_frame("duplicated_identity", n)]
        frames += [build_parseval_random(n, N, 40 + N) for N in (n + 1, 2 * n, 2 * n + 1)]
    rng = np.random.default_rng(41)
    for i, F in enumerate(frames):
        for m in range(1, F.n + 2):
            for q in (0.1, 0.3, 0.5, 1.0):
                truth = sample_dictionary_sparse(F, 1 + (m + i) % 2, int(rng.integers(2**31)))
                A = rng.standard_normal((m, F.n))
                yield build_problem(A, F, truth, q=q)
                if m > 1:
                    A = A.copy()
                    A[-1] = A[0]
                    yield build_problem(A, F, truth, q=q)


def test_oracle_matches_reference_loop_on_the_wide_corpus():
    outcomes = {}
    for P in wide_oracle_corpus():
        got, ref = _batched(P), _outcome(loop_oracle_noiseless, P)
        assert_bit_identical(got, ref)
        key = ref if isinstance(ref, type) else np.sign(P.A.shape[0] - P.A.shape[1])
        outcomes[key] = outcomes.get(key, 0) + 1
    assert set(outcomes) == {-1, 0, 1, DegenerateProblemError}


def test_oracle_takes_one_svd_and_lstsq_only_where_the_fallback_can_win(monkeypatch):
    calls = {"svd": 0, "lstsq": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    for P in oracle_corpus(0.3):
        calls.update(svd=0, lstsq=0)
        res = solve_oracle_noiseless(P)
        assert calls["svd"] == 1
        if P.A.shape[0] < P.A.shape[1]:
            # every re-checked sign has a feasible zero set whose objective the
            # least-squares lower bound v_ls - e_ls cannot beat by 1e-12
            assert calls["lstsq"] == 0
        else:  # no zero sets: the least-squares point is the only candidate
            assert calls["lstsq"] == res.certificate["rechecked"] > 0
    # a dictionary [e_0, 0] misses A's null space e_1, so every zero-pattern
    # system is singular and only the minimum-norm point is feasible
    D = np.array([[1.0, 0.0], [0.0, 0.0]])
    F = TightFrame(D=D, label="degenerate")
    P = PhaselessProblem(A=np.array([[1.0, 0.0]]), frame=F, b=np.array([3.0]), eps=0.0, q=0.5)
    calls.update(svd=0, lstsq=0)
    res = solve_oracle_noiseless(P)
    assert calls == {"svd": 1, "lstsq": 1}
    assert res.certificate["minimum_norm_fallback"] and res.certificate["singular_systems"] == 2
    assert_bit_identical(_batched(P), _outcome(loop_oracle_noiseless, P))


def test_oracle_margin_is_the_second_best_sign_objective():
    for seed in range(6):
        F = build_parseval_random(5, 8, seed)
        truth = sample_dictionary_sparse(F, 2, seed + 1)
        for m in (3, 5, 7):
            A = np.random.default_rng(seed + m).standard_normal((m, 5))
            P = build_problem(A, F, truth, q=0.5)
            res = solve_oracle_noiseless(P)
            per_sign = []
            for tail in product((1.0, -1.0), repeat=m - 1):
                cv = np.array((1.0,) + tail) * P.b
                try:
                    per_sign.append(loop_affine_lq_oracle(A, cv, F, 0.5)[1])
                except (InfeasibleProblemError, DegenerateProblemError):
                    pass
            per_sign.sort()
            assert res.objective == per_sign[0]
            if len(per_sign) == 1:
                assert res.certificate["margin"] is None
            else:
                assert res.certificate["margin"] == pytest.approx(per_sign[1] - per_sign[0],
                                                                  rel=1e-6, abs=1e-9)


def test_oracle_certificate_survives_json():
    F = build_parseval_random(4, 6, seed=1)
    truth = sample_dictionary_sparse(F, 1, seed=2)
    A = np.random.default_rng(3).standard_normal((3, 4))
    res = solve_oracle_noiseless(build_problem(A, F, truth, q=1.0))
    back = serialize.solver_result_from_dict(dataclasses.asdict(res))
    assert back.certificate == res.certificate
    assert set(solver.ORACLE_COUNTERS) | {"margin"} <= set(back.certificate)


def test_oracle_budget_raises_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(solver, "combination_blocks", refuse)
    F = build_parseval_random(6, 12, seed=0)
    A = np.random.default_rng(0).standard_normal((2, 6))
    P = PhaselessProblem(A=A, frame=F, b=np.abs(A @ np.ones(6)), eps=0.0, q=1.0)
    with pytest.raises(ResourceBudgetError):
        solve_oracle_noiseless(P, support_budget=comb(12, 4) - 1)


def test_oracle_l1_equals_linear_programs_over_sign_patterns():
    # q = 1: for each sign pattern, min ||D^T x||_1 s.t. Ax = s*b is a linear
    # program in (x, t) with -t <= D^T x <= t
    optimize = pytest.importorskip("scipy.optimize")
    for seed in range(8):
        n, N = (4, 7) if seed % 2 else (5, 9)
        F = build_parseval_random(n, N, seed)
        truth = sample_dictionary_sparse(F, 1 + seed % 2, seed + 5)
        m = 2 + seed % 3
        A = np.random.default_rng(seed + 40).standard_normal((m, n))
        P = build_problem(A, F, truth, q=1.0)
        Dt = F.D.T
        cost = np.concatenate([np.zeros(n), np.ones(N)])
        A_ub = np.block([[Dt, -np.eye(N)], [-Dt, -np.eye(N)]])
        A_eq = np.hstack([A, np.zeros((m, N))])
        bounds = [(None, None)] * n + [(0, None)] * N
        best = np.inf
        for tail in product((1.0, -1.0), repeat=m - 1):
            lp = optimize.linprog(cost, A_ub=A_ub, b_ub=np.zeros(2 * N), A_eq=A_eq,
                                  b_eq=np.array((1.0,) + tail) * P.b, bounds=bounds,
                                  method="highs")
            assert lp.status == 0
            best = min(best, lp.fun)
        assert solve_oracle_noiseless(P).objective == pytest.approx(best, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- isometry constants


def drip_corpus():
    for seed in range(6):
        for n, N in ((3, 6), (4, 8), (6, 9), (4, 14)):
            F = _frame(n, N, seed)
            for m in (3, 7):
                A = np.random.default_rng(100 * seed + m).standard_normal((m, n)) / np.sqrt(m)
                for order in range(1, min(4, N) + 1):
                    yield A, F, order


def test_drip_matches_reference_loop():
    ties = 0
    for A, F, order in drip_corpus():
        ref, S, devs = loop_drip_constant(A, F, order)
        report = drip_constant(A, F, order)
        assert report.delta == pytest.approx(ref, rel=1e-12, abs=1e-15)
        top = sorted(devs)[-2:]
        if len(top) == 2 and top[1] - top[0] <= 1e-12 * abs(top[1]):
            ties += 1
            continue
        assert report.details["witness_support"] == list(S)
    assert ties > 0  # the duplicated frames tie; those cases must still agree on delta


def test_drip_chunked_equals_unchunked(monkeypatch):
    cases = [(A, F, order) for A, F, order in drip_corpus() if comb(F.N, order) > 5]
    whole = [drip_constant(A, F, order) for A, F, order in cases]
    monkeypatch.setattr(rip, "STACK_ELEMS", 5 * 6 * 4)  # at most 5 supports per chunk
    for (A, F, order), report in zip(cases, whole):
        got = drip_constant(A, F, order)
        assert got.delta == pytest.approx(report.delta, rel=1e-14, abs=1e-15)
        assert got.details == report.details


def test_sdrip_chunked_equals_unchunked(monkeypatch):
    F = build_parseval_random(4, 8, seed=3)
    A = np.random.default_rng(5).standard_normal((6, 4)) / np.sqrt(6)
    whole = sdrip_constants(A, F, 2)
    monkeypatch.setattr(rip, "STACK_ELEMS", 1)  # one support per chunk
    got = sdrip_constants(A, F, 2)
    assert got.theta_minus == pytest.approx(whole.theta_minus, rel=1e-14)
    assert got.theta_plus == pytest.approx(whole.theta_plus, rel=1e-14)
    assert got.delta == pytest.approx(whole.delta, rel=1e-14)


def _zero_column_frame(n):
    """Parseval frame [I_n, 0]: the last column vanishes."""
    return TightFrame(D=np.hstack([np.eye(n), np.zeros((n, 1))]), label="zero_column")


@pytest.mark.parametrize("half_rule", ["ceil", "floor"])
def test_sdrip_delta_comes_from_its_own_full_row_subset(half_rule, monkeypatch):
    cases = [(A, F, order) for A, F, order in drip_corpus() if comb(F.N, order) <= 210]
    cases += [(np.random.default_rng(order).standard_normal((5, 3)) / np.sqrt(5),
               _zero_column_frame(3), order) for order in (1, 2, 3)]
    refs = [drip_constant(A, F, order).delta for A, F, order in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("sdrip_constants ran a separate DRIP pass")

    monkeypatch.setattr(rip, "drip_constant", refuse)
    for (A, F, order), ref in zip(cases, refs):
        got = sdrip_constants(A, F, order, half_rule=half_rule)
        assert got.delta == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert max(1.0 - got.theta_minus, got.theta_plus - 1.0) >= got.delta
    assert any(F.label.startswith("duplicated") for _, F, _ in cases)  # rank-deficient supports


def test_sdrip_delta_is_the_drip_constant_bit_for_bit():
    # both read B^T B on the same support slices, whatever the chunking
    cases = list(drip_corpus())
    cases += [(np.random.default_rng(order).standard_normal((5, 3)) / np.sqrt(5),
               _zero_column_frame(3), order) for order in (1, 2, 3)]
    for A, F, order in cases:
        assert sdrip_constants(A, F, order).delta == drip_constant(A, F, order).delta


# ---------------------------------------------------------------- closed-form isometry kernel


def loop_longdouble_extremes(A, D, S, rows):
    """Referee for _extremes: the extreme quotients ||A_I y||^2 / ||y||^2 over
    col(D_S) for I = rows, as the roots of the 2 x 2 generalised problem
    det(G - lambda M) = 0, with G = (A_I D_S)^T A_I D_S and M = D_S^T D_S,
    in np.longdouble; a vanishing column is dropped, and so is the second of
    two parallel ones.  None where every column vanishes."""
    AL, DL = A.astype(np.longdouble), D.astype(np.longdouble)
    cols = [DL[:, c] for c in S if np.any(D[:, c] != 0.0)]
    if not cols:
        return None
    if len(cols) == 2 and cols[0] @ cols[0] * (cols[1] @ cols[1]) == (cols[0] @ cols[1]) ** 2:
        cols = cols[:1]
    P = [AL[rows] @ c for c in cols]
    if len(cols) == 1:
        v = P[0] @ P[0] / (cols[0] @ cols[0])
        return v, v
    (m00, m01), m11 = (cols[0] @ cols[0], cols[0] @ cols[1]), cols[1] @ cols[1]
    (g00, g01), g11 = (P[0] @ P[0], P[0] @ P[1]), P[1] @ P[1]
    qa = m00 * m11 - m01 * m01
    qb = g00 * m11 + g11 * m00 - 2 * g01 * m01
    qc = g00 * g11 - g01 * g01
    big = (qb + np.sqrt(max(qb * qb - 4 * qa * qc, 0))) / (2 * qa)
    return qc / (qa * big), big


def closed_form_corpus():
    """(A, D): tilted, non-Parseval D with near-parallel column pairs whose
    cond(D_S^T D_S) lies below 2500 (closed form) or above 1e4 (SVD path),
    a duplicated or a zero column, and two Parseval frames.  The SVD path's
    own error grows with the condition: near 1e6 its theta_minus was 1.05e-14
    off the referee, so the corpus stops at 2e5."""
    rng = np.random.default_rng(29)
    for case in range(6):
        n, N, m = 4, 8, 5 + case % 3
        D = rng.standard_normal((n, N)) * rng.uniform(0.2, 3.0, N)
        for c, cond in ((0, 30.0), (2, (8e2, 2e3)[case % 2]), (4, (3e4, 2e5)[case % 2])):
            u = rng.standard_normal(n)
            u -= (u @ D[:, c]) / (D[:, c] @ D[:, c]) * D[:, c]
            # [d, s d + e u] with |e u| = 2 |s d| / sqrt(cond)
            s = rng.uniform(0.5, 2.0)
            D[:, c + 1] = s * D[:, c] + u / np.linalg.norm(u) * s * np.linalg.norm(D[:, c]) * 2 / np.sqrt(cond)
        D[:, 7] = D[:, 6] if case % 2 else 0.0
        yield rng.standard_normal((m, n)) / np.sqrt(m), D
    for F in (build_parseval_random(4, 8, seed=5), build_named_frame("duplicated_identity", 4)):
        yield rng.standard_normal((6, 4)) / np.sqrt(6), F.D


def _layers(m, rng):
    """No layer, the size-ceil(m/2) layer, and three random nonempty row masks."""
    random = rng.integers(0, 2, (3, m)).astype(float)
    random[:, 0] = 1.0
    return [np.zeros((0, m)), subset_masks(m, (m + 1) // 2), random]


def closed_form_cases():
    rng = np.random.default_rng(7)
    for A, D in closed_form_corpus():
        for k in (1, 2):
            supports = np.array(list(combinations(range(D.shape[1]), k)))
            for masks in _layers(A.shape[0], rng):
                yield A, D, supports, masks


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_isometry_kernel_matches_a_longdouble_referee():
    for A, D, supports, masks in closed_form_cases():
        lo, hi, dev = rip._extremes(A, D, supports, masks)
        for c, S in enumerate(supports):
            full = loop_longdouble_extremes(A, D, S, np.arange(A.shape[0]))
            if full is None:
                assert np.isnan([lo[c], hi[c], dev[c]]).all()
                continue
            assert dev[c] == pytest.approx(max(full[1] - 1, 1 - full[0]), rel=1e-12)
            bounds = [full] + [loop_longdouble_extremes(A, D, S, np.flatnonzero(I)) for I in masks]
            assert hi[c] == pytest.approx(max(b[1] for b in bounds), rel=1e-12)
            if len(masks):  # theta_minus is the least lo over the supports
                assert lo[c] == pytest.approx(min(b[0] for b in bounds), abs=1e-14)


def test_ill_conditioned_supports_take_the_svd_path_bit_for_bit(monkeypatch):
    taken = []

    def spy(D, supports):
        taken.extend(map(tuple, supports.tolist()))
        return support_bases(D, supports)

    monkeypatch.setattr(rip, "support_bases", spy)
    for A, D, supports, masks in closed_form_cases():
        taken.clear()
        got = rip._extremes(A, D, supports, masks)
        slow = np.array([tuple(S) in taken for S in supports.tolist()])
        with monkeypatch.context() as svd_only:
            svd_only.setattr(rip, "_CLOSED_FORM_COND", 0.0)
            ref = rip._extremes(A, D, supports, masks)
        for got_v, ref_v in zip(got, ref):
            np.testing.assert_array_equal(got_v[slow], ref_v[slow])
        M = np.einsum("ic,id->cd", D, D)
        cond = np.array([np.linalg.cond(M[np.ix_(S, S)]) if np.all(np.diag(M)[S] > 0) else np.inf
                         for S in supports])
        assert np.all(slow[cond > 1e4]) and not np.any(slow[cond < 2500])
    assert taken  # the corpus reaches the SVD path


def test_closed_form_chunked_equals_unchunked(monkeypatch):
    cases = list(closed_form_cases())
    whole = [rip._extremes(*case) for case in cases]
    monkeypatch.setattr(rip, "STACK_ELEMS", 1)  # one support per chunk
    for case, ref in zip(cases, whole):
        lo, hi, dev = rip._extremes(*case)
        np.testing.assert_array_equal(dev, ref[2])  # row sums, as in S-DRIP's delta
        np.testing.assert_allclose(lo, ref[0], rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(hi, ref[1], rtol=1e-14)


def test_sym_eig_bounds_matches_eigvalsh_on_stacked_entries():
    """linalg.sym_eig_bounds on (e, c, M) upper-triangle entries, in
    np.triu_indices order, against eigvalsh of the full matrices at d = 1..4:
    Grams, indefinite matrices and a repeated eigenvalue (closed forms at
    d <= 2, assembled matrices above)."""
    rng = np.random.default_rng(11)
    c, M = 5, 3
    for d in range(1, 5):
        X = rng.standard_normal((c, M, d, d + 2))
        Y = X[..., :d]
        p, q = np.triu_indices(d)
        for G in (X @ np.swapaxes(X, -1, -2), Y + np.swapaxes(Y, -1, -2),
                  np.broadcast_to(2.0 * np.eye(d), (c, M, d, d))):
            entries = np.moveaxis(G[..., p, q], -1, 0)
            kept = entries.copy()
            lo, hi = sym_eig_bounds(d, entries)
            w = np.linalg.eigvalsh(G)
            tol = 1e-13 * np.abs(G).max()
            assert lo.shape == hi.shape == (c, M)
            np.testing.assert_allclose(lo, w[..., 0], rtol=0, atol=tol)
            np.testing.assert_allclose(hi, w[..., -1], rtol=0, atol=tol)
            np.testing.assert_array_equal(entries, kept)
            # at d = 1 both bounds are the entries themselves, not copies
            assert d > 1 or (np.shares_memory(lo, entries) and np.shares_memory(hi, entries))
            # a 2-D stack of entries, as the NSP full-rank bound passes
            lo2, hi2 = sym_eig_bounds(d, entries[:, :, 0])
            np.testing.assert_array_equal(lo2, lo[:, 0])
            np.testing.assert_array_equal(hi2, hi[:, 0])


# ---------------------------------------------------------------- null-space diagnostics


def nsp_corpus():
    for seed in range(2):
        for n, N in ((3, 5), (3, 6), (4, 6)):
            F = _frame(n, N, seed)
            for m in range(2, n + 3):
                A = np.random.default_rng(100 * seed + m).standard_normal((m, n))
                yield A, F, 0.5 if (seed + m) % 2 else 1.0, seed


@pytest.mark.parametrize("lambda_mode", ["card_at_most_k", "all_subsets"])
@pytest.mark.parametrize("k", [1, 2])
def test_nsp_falsifier_matches_reference_loop_bit_for_bit(k, lambda_mode):
    outcomes = set()
    for A, F, q, seed in nsp_corpus():
        got = nsp_real_falsify(A, F, k, q, budget=100, seed=seed, lambda_mode=lambda_mode)
        ref = loop_nsp_real_falsify(A, F, k, q, budget=100, seed=seed, lambda_mode=lambda_mode)
        outcomes.add(ref is None)
        if ref is None:
            assert got is None
            continue
        assert got.Lambda == ref.Lambda and got.q == ref.q and got.k == ref.k
        assert got.u.tobytes() == ref.u.tobytes() and got.v.tobytes() == ref.v.tobytes()
        assert (got.lhs, got.rhs, got.violated) == (ref.lhs, ref.rhs, ref.violated)
    assert outcomes == {True, False}  # the corpus has witnesses and budgets run out


def nsp_wide_corpus():
    """Budget 10**4 (so dim-W-1 cells have restarts >= 2), k = 3 at m = n + 1
    (dim W = 2, the ascent), duplicated rows (dim U, dim V vary inside a size
    layer), rows with a common zero coordinate (dim-W-1 cells whose point has
    v = 0 and so end without a witness), q = 0.3, and k = 1 at m > n (dim W = 0)."""
    for seed in range(2):
        q = 0.3 if seed else 0.5
        for (n, N, m), k, mode in (((4, 7, 5), 2, "card_at_most_k"), ((3, 5, 2), 1, "card_at_most_k"),
                                   ((3, 5, 4), 1, "all_subsets"), ((4, 6, 5), 3, "card_at_most_k")):
            A = np.random.default_rng(200 + 10 * seed + m).standard_normal((m, n))
            yield A, _frame(n, N, seed), k, q, 10**4, seed, mode
        for (n, N, m), k in (((3, 5, 4), 2), ((4, 6, 5), 2), ((3, 6, 3), 2), ((4, 6, 4), 3)):
            A = np.random.default_rng(300 + 10 * seed + m).standard_normal((m, n))
            A[-1] = A[0]
            yield A, _frame(n, N, seed), k, q, 100, seed, "all_subsets"
    A = np.random.default_rng(3).standard_normal((4, 3))
    A[:2, 0] = 0.0
    yield A, build_named_frame("duplicated_identity", 3), 2, 1.0, 10**4, 3, "all_subsets"


def test_nsp_falsifier_matches_reference_loop_on_the_wide_corpus(monkeypatch):
    searched = []  # [dim W, restarts, points reached] per cell the falsifier searched
    search = nsp._search

    def spy(gap, dim, restarts, entropy):
        searched.append(cell := [dim, restarts, 0])
        for c in search(gap, dim, restarts, entropy):
            cell[2] += 1
            yield c

    monkeypatch.setattr(nsp, "_search", spy)
    dims, ended_without_witness = set(), 0
    for A, F, k, q, budget, seed, mode in nsp_wide_corpus():
        ref = loop_nsp_real_falsify(A, F, k, q, budget=budget, seed=seed, lambda_mode=mode)
        for elems in (nsp.STACK_ELEMS, 1):  # 1: one slice per stack
            monkeypatch.setattr(nsp, "STACK_ELEMS", elems)
            searched.clear()
            got = nsp_real_falsify(A, F, k, q, budget=budget, seed=seed, lambda_mode=mode)
            if ref is None:
                assert got is None
            else:
                assert got.Lambda == ref.Lambda and got.q == ref.q and got.k == ref.k
                assert got.u.tobytes() == ref.u.tobytes() and got.v.tobytes() == ref.v.tobytes()
                assert (got.lhs, got.rhs, got.violated) == (ref.lhs, ref.rhs, ref.violated)
        monkeypatch.setattr(nsp, "STACK_ELEMS", STACK_ELEMS)
        assert all(points <= 1 for dim, _, points in searched if dim == 1)  # one evaluation
        dims.update(min(dim, 2) for dim, _, _ in searched)
        ended_without_witness += sum(dim == 1 and restarts >= 2 and points
                                     for dim, restarts, points in searched[:-1 if got else None])
        if got is None:  # every cell was scanned: some had dim U, dim V >= 1 but dim W = 0
            pairs = [(loop_null_space(A[list(L)]).shape[1],
                      loop_null_space(A[[i for i in range(len(A)) if i not in L]]).shape[1])
                     for L in _lambda_list(len(A), k, mode)]
            if sum(du > 0 and dv > 0 for du, dv in pairs) * comb(F.N, k) > len(searched):
                dims.add(0)
    assert dims == {0, 1, 2}
    assert ended_without_witness > 0


def _zero_columns_frame(n, N):
    """Parseval frame [I_n, 0]: the last N - n columns vanish."""
    return TightFrame(D=np.hstack([np.eye(n), np.zeros((n, N - n))]), label="zero_columns")


def _assert_same_witness(got, ref):
    if ref is None:
        assert got is None
        return
    assert got.Lambda == ref.Lambda and got.q == ref.q and got.k == ref.k
    assert got.u.tobytes() == ref.u.tobytes() and got.v.tobytes() == ref.v.tobytes()
    assert (got.lhs, got.rhs, got.violated) == (ref.lhs, ref.rhs, ref.violated)


def nsp_benchmark_shape_corpus():
    """(A, F, q, seed) at nsp-certify's shape n = 6, N = 8, m = 7, k = 2, where
    the scan takes its row subsets in more than one piece: two witnesses past
    the layer's first row subset, and on the frame [I_6, 0] a scan with no
    witness, which takes every piece of every layer and whose supports with
    a vanishing column the sign screen certifies; then m = n + 2 with a
    repeated row, whose witness lies in a layer the full-rank bound filters."""
    for frame_seed, seed, q in ((1, 2, 0.5), (3, 4, 1.0)):
        A = np.random.default_rng(700 + 10 * frame_seed + seed).standard_normal((7, 6))
        yield A, build_parseval_random(6, 8, frame_seed), q, seed
    yield np.random.default_rng(800).standard_normal((7, 6)), _zero_columns_frame(6, 8), 0.5, 0
    A = np.random.default_rng(5).standard_normal((8, 6))
    A[-1] = A[0]
    yield A, build_parseval_random(6, 8, 600), 0.5, 0


def test_nsp_falsifier_matches_reference_loop_at_the_benchmark_shape(monkeypatch):
    past_first, ended = 0, 0
    for A, F, q, seed in nsp_benchmark_shape_corpus():
        ref = loop_nsp_real_falsify(A, F, 2, q, budget=100, seed=seed, lambda_mode="all_subsets")
        for elems in (nsp.STACK_ELEMS, 1):  # 1: one slice per stack
            monkeypatch.setattr(nsp, "STACK_ELEMS", elems)
            got = nsp_real_falsify(A, F, 2, q, budget=100, seed=seed, lambda_mode="all_subsets")
            _assert_same_witness(got, ref)
        monkeypatch.setattr(nsp, "STACK_ELEMS", STACK_ELEMS)
        if ref is None:
            ended += 1
        else:  # the layer of size 2 starts at (0, 1)
            past_first += ref.Lambda > (0, 1) and len(ref.Lambda) == 2
    assert past_first >= 2 and ended == 1


def nsp_near_degenerate_corpus():
    """m = n + 1, k = 1, and a last row of A within 1e-7 of the first.  Then
    for a row subset that splits the two rows, the row spaces of the subset
    and of its complement meet in a line within 1e-7 of a_0, so K = P_S [U V]
    is within 1e-7 of rank deficiency when a_0 is orthogonal to col(D_S): the
    second instance of each pair makes a_0 orthogonal to d_0 up to 1e-7.
    Those systems are too close to deficiency for the sign screen, so they
    reach the SVD, which finds them of full rank."""
    for seed in range(2):
        for (n, N), q in (((3, 5), 0.3), ((4, 6), 1.0), ((5, 7), 0.5)):
            rng = np.random.default_rng(500 + 10 * seed + n)
            F = _frame(n, N, seed)
            d = F.D[:, 0] / np.linalg.norm(F.D[:, 0])
            for orthogonal in (False, True):
                A = rng.standard_normal((n + 1, n))
                if orthogonal:
                    A[0] += 1e-7 * rng.standard_normal(n) - (A[0] @ d) * d
                A[-1] = A[0] + 1e-7 * rng.standard_normal(n)
                yield A, F, 1, q, seed


def _splittable(A, Lam):
    """Whether the row subset Lam and its complement both have a nonzero null space."""
    comp = [i for i in range(len(A)) if i not in Lam]
    return loop_null_space(A[list(Lam)]).shape[1] > 0 and loop_null_space(A[comp]).shape[1] > 0


def test_nsp_falsifier_matches_reference_loop_on_near_degenerate_A(monkeypatch):
    screen, null_spaces_ = nsp._sign_screen, nsp.null_spaces
    count = {"left": 0, "decomposed": 0}

    def screen_spy(A, H, s, bases, n_supports):
        certify = screen(A, H, s, bases, n_supports)
        assert certify is not None  # k = 1 and m = n + 1 on a generic A

        def certify_spy(signs):
            certified = certify(signs)
            # open cells in row subsets with dim U, dim V >= 1, which reach the SVD
            count["left"] += sum(int(np.count_nonzero(~row)) for sign, row in zip(signs, certified)
                                 if _splittable(A, np.flatnonzero(sign < 0).tolist()))
            return certified

        return certify_spy

    def null_spaces_spy(Ms, scale=None):
        if scale is not None:  # the (Lambda, S) systems, not the row subsets
            count["decomposed"] += len(Ms)
        return null_spaces_(Ms, scale=scale)

    monkeypatch.setattr(nsp, "_sign_screen", screen_spy)
    monkeypatch.setattr(nsp, "null_spaces", null_spaces_spy)
    left_and_decomposed = 0
    for A, F, k, q, seed in nsp_near_degenerate_corpus():
        ref = loop_nsp_real_falsify(A, F, k, q, budget=100, seed=seed, lambda_mode="all_subsets")
        for elems in (nsp.STACK_ELEMS, 1):  # 1: one slice per stack
            monkeypatch.setattr(nsp, "STACK_ELEMS", elems)
            count.update(left=0, decomposed=0)
            got = nsp_real_falsify(A, F, k, q, budget=100, seed=seed, lambda_mode="all_subsets")
            if ref is None:
                assert got is None
                # every cell was scanned, so exactly the cells the screen left were decomposed
                assert count["decomposed"] == count["left"]
                left_and_decomposed += count["left"]
            else:
                assert got.Lambda == ref.Lambda and got.q == ref.q and got.k == ref.k
                assert got.u.tobytes() == ref.u.tobytes() and got.v.tobytes() == ref.v.tobytes()
                assert (got.lhs, got.rhs, got.violated) == (ref.lhs, ref.rhs, ref.violated)
        monkeypatch.setattr(nsp, "STACK_ELEMS", STACK_ELEMS)
    assert left_and_decomposed > 0


def sign_screen_corpus():
    """(A, D, k, label) at n = 4, m = n + 1..n + 3, every k <= m - n + 1
    (at k = m - n + 1 no cell can be certified): generic A and A scaled by
    1e4; a last row 1e-3, 1e-6 or 1e-9 from the first; near-rank-deficient A
    (a column within 1e-3 or 1e-8 of another); rank-deficient A (a repeated
    column, or A = 0); a Parseval frame, one with duplicated columns and one
    with a zero column.  At k = 1 the columns of a tilted dictionary lie
    1e-1..1e-14 off the hyperplane a_0^perp, so mu = s_r(M) runs down to
    rounding at Lambda = {0}."""
    rng = np.random.default_rng(12)
    n = 4
    frames = (build_parseval_random(n, 6, 0).D, build_named_frame("duplicated_identity", n).D,
              _zero_column_frame(n).D)
    for extra in (1, 2, 3):
        A = rng.standard_normal((n + extra, n))
        a = A[0] / np.linalg.norm(A[0])
        W = rng.standard_normal((n, 14))
        W -= np.outer(a, a @ W)
        tilted = W / np.linalg.norm(W, axis=0) + np.outer(a, np.logspace(-1, -14, 14))
        yield A, tilted, 1, "tilted"
        yield 1e4 * A, tilted, 1, "tilted, scaled by 1e4"
        variants = [("generic", A), ("scaled by 1e4", 1e4 * A)]
        for e in (3, 6, 9):
            near = A.copy()
            near[-1] = A[0] + 10.0**-e * rng.standard_normal(n)
            variants.append((f"rows 1e-{e} apart", near))
        for e in (3, 8):
            near = A.copy()
            near[:, -1] = A[:, 0] + 10.0**-e * rng.standard_normal(n + extra)
            variants.append((f"columns 1e-{e} apart", near))
        deficient = A.copy()
        deficient[:, -1] = A[:, 0]
        variants += [("rank-deficient", deficient), ("rank-deficient", 0.0 * A)]
        for label, B in variants:
            for D in frames:
                for k in range(1, extra + 2):
                    yield B, D, k, label


def test_full_rank_screen_certifies_only_full_rank_systems():
    """The sign screen against the systems it stands for: every certified
    cell's K = (I - P_S)[U V], from the null spaces the falsifier takes, has
    s_min(K) >= SIGN_SCREEN_TAU up to rounding and so full column rank under
    the rank rule of null_spaces; a rank-deficient A gets no certificate.
    mu is computed apart from the screen, from the left null space of A, to
    show the corpus has mu in every decade from 1e-1 down to 1e-14 and that
    the screen certifies cells within two decades of its threshold."""
    mus, certified_mus, certified_s_min = [], [], []
    for A, D, k, label in sign_screen_corpus():
        m, n = A.shape
        lams = _lambda_list(m, m, "all_subsets")
        signs = np.array([[-1.0 if i in Lam else 1.0 for i in range(m)] for Lam in lams])
        assert np.array_equal(1.0 - 2.0 * np.concatenate([subset_masks(m, size) for size in range(m + 1)]),
                              signs)
        supports = np.array(list(combinations(range(D.shape[1]), k)))
        bases = support_bases(D, supports)
        Ua, s, _ = np.linalg.svd(A)
        if label == "rank-deficient":  # nsp_real_falsify forms no screen
            assert numerical_rank(s) < n
            continue
        certify = nsp._sign_screen(A, Ua[:, n:], s, bases, len(supports))
        # None: no support of rank <= m - n, or A too ill-conditioned for any bound
        certified = np.zeros((len(lams), len(supports)), dtype=bool) if certify is None else certify(signs)
        assert certified.shape == (len(lams), len(supports))
        P = np.repeat(np.eye(n)[None], len(supports), axis=0)
        for rows, Q in bases:
            P[rows] = np.eye(n) - Q @ np.swapaxes(Q, 1, 2)
        for l in np.flatnonzero(certified.any(axis=1)):
            comp = [i for i in range(m) if i not in lams[l]]
            B = np.concatenate([loop_null_space(A[list(lams[l])]), loop_null_space(A[comp])], axis=1)
            if B.shape[1] == 0:
                continue
            Ks = P[certified[l]] @ B
            assert all(W.shape[1] == 0 for W in null_spaces(Ks, scale=1.0))
            assert all(W.shape[1] == 0 for W in null_spaces(Ks))
            s_min = np.linalg.svd(Ks, compute_uv=False)[:, -1]
            assert np.all(s_min >= 0.99 * nsp.SIGN_SCREEN_TAU)
            certified_s_min.extend(s_min)
        H = loop_null_space(A.T)
        for rows, Q in bases:
            if Q.shape[2] <= m - n:
                M = H.T @ (signs[:, None, :, None] * (A / np.linalg.norm(A, 2) @ Q)[None])
                mu = np.linalg.svd(M, compute_uv=False)[..., -1]
                mus.extend(mu.ravel())
                certified_mus.extend(mu[certified[:, rows]])
    mus = np.array(mus)
    assert set(range(-14, 0)) <= set(np.floor(np.log10(mus[mus > 0])).astype(int).tolist())
    # not vacuous: the screen certifies cells within two decades of its threshold
    assert min(certified_mus) < 1e-5 and min(certified_s_min) < 100 * nsp.SIGN_SCREEN_TAU


def test_nsp_falsifier_decomposes_only_the_systems_it_needs(monkeypatch):
    null_spaces_, search = nsp.null_spaces, nsp._search
    decomposed, scanned = [], []

    def null_spaces_spy(Ms, scale=None):
        if scale is not None:  # the (Lambda, S) systems, not the row subsets
            decomposed.append(len(Ms))
        return null_spaces_(Ms, scale=scale)

    def search_spy(gap, dim, restarts, entropy):
        scanned.append(entropy[1])  # the cell index
        return search(gap, dim, restarts, entropy)

    monkeypatch.setattr(nsp, "null_spaces", null_spaces_spy)
    monkeypatch.setattr(nsp, "_search", search_spy)
    # m = n + 1, k = 1: every cell has dim W = 0, and the screen certifies them all
    A = np.random.default_rng(20).standard_normal((5, 4))
    F = build_parseval_random(4, 6, 0)
    assert nsp_real_falsify(A, F, 1, 1.0, lambda_mode="all_subsets") is None
    assert decomposed == [] and scanned == []
    # k = 2 stops at its first witness, having decomposed fewer than twice the cells it scanned
    for seed in range(3):
        decomposed.clear()
        A = np.random.default_rng(30 + seed).standard_normal((7, 6))
        F = build_parseval_random(6, 8, seed)
        w = nsp_real_falsify(A, F, 2, 1.0, seed=seed, lambda_mode="all_subsets")
        assert w is not None
        assert 0 < sum(decomposed) <= 2 * scanned[-1] + 1
        assert scanned[-1] < len(_lambda_list(7, 2, "all_subsets")) * comb(8, 2) // 4



def test_nsp_falsifier_takes_null_spaces_only_for_row_subsets_with_an_open_cell(monkeypatch):
    """A generic k = 1 call at m = n + 1: the sign screen certifies every cell
    but those of Lambda = {} and Lambda = [m] (M = H^T A Q_S = 0 there), and
    the full-rank bound drops those two, since A has full column rank, so the
    call takes no null space at all.  A k = 2 call, which the screen leaves
    open at m = n + 1, takes each row subset's null space at most once, and
    none for the end layers (sizes 0, 1, n, n + 1), which feed no cell."""
    null_spaces_ = nsp.null_spaces
    row_subsets, systems = [], []

    def null_spaces_spy(Ms, scale=None):
        (row_subsets if scale is None else systems).extend(Ms)
        return null_spaces_(Ms, scale=scale)

    monkeypatch.setattr(nsp, "null_spaces", null_spaces_spy)
    for n, N, seed in ((3, 5, 0), (4, 6, 1), (6, 8, 2)):
        F = build_parseval_random(n, N, seed)
        A = np.random.default_rng(40 + seed).standard_normal((n + 1, n))
        for mode in ("card_at_most_k", "all_subsets"):
            row_subsets.clear()
            systems.clear()
            assert nsp_real_falsify(A, F, 1, 0.5, seed=seed, lambda_mode=mode) is None
            assert row_subsets == [] and systems == []
        row_subsets.clear()
        nsp_real_falsify(A, F, 2, 0.5, seed=seed, lambda_mode="all_subsets")
        keys = [M.tobytes() for M in row_subsets]
        assert len(keys) == len(set(keys)) > 0
        assert all(2 <= len(M) <= n - 1 for M in row_subsets)


def test_nsp_falsifier_takes_row_subset_null_spaces_in_doubling_pieces(monkeypatch):
    """At nsp-certify's shape (n = 6, N = 8, m = 7, k = 2) a call takes the
    null spaces of fewer than twice the row subsets its scan reached, and of
    their complements, in stacks of 1, 2, 4, ... subsets, and none for the
    end layers.  Every witness here lies in the layer of size 2, whose
    subsets all feed cells, so the scan reached the subsets up to the
    witness's."""
    null_spaces_ = nsp.null_spaces
    stacks = []

    def null_spaces_spy(Ms, scale=None):
        if scale is None:  # the row subsets, not the (Lambda, S) systems
            stacks.append(Ms.shape[:2])
        return null_spaces_(Ms, scale=scale)

    monkeypatch.setattr(nsp, "null_spaces", null_spaces_spy)
    beyond_one_piece = 0
    for seed in range(6):
        stacks.clear()
        F = build_parseval_random(6, 8, seed)
        A = np.random.default_rng(60 + seed).standard_normal((7, 6))
        w = nsp_real_falsify(A, F, 2, 0.5 if seed % 2 else 1.0, seed=seed, lambda_mode="all_subsets")
        assert w is not None and len(w.Lambda) == 2
        reached = list(combinations(range(7), 2)).index(w.Lambda) + 1
        assert {p for _, p in stacks} == {2, 5}
        counts = [count for count, p in stacks if p == 2]
        assert counts == [count for count, p in stacks if p == 5]
        assert counts == [2**i for i in range(len(counts))][:len(counts) - 1] + counts[-1:]
        assert reached <= sum(counts) < 2 * reached
        beyond_one_piece += len(counts) > 1
    assert beyond_one_piece > 0


def full_rank_corpus():
    """(A, label) at n = 4 and 6, m = n..n + 4: generic A, A scaled by 1e4
    and 1e-4, a repeated row, rows 1e-6 and 1e-9 apart, a rank-deficient A
    (a repeated column, and A = 0), and a wide A (m = n - 1), which gets no
    certificate."""
    rng = np.random.default_rng(13)
    for n in (4, 6):
        yield rng.standard_normal((n - 1, n)), "wide"
        for m in range(n, n + 5):
            A = rng.standard_normal((m, n))
            yield A, "generic"
            yield 1e4 * A, "generic"
            yield 1e-4 * A, "generic"
            repeated = A.copy()
            repeated[-1] = A[0]
            yield repeated, "repeated row" if m > n else "rank-deficient"
            for e in (6, 9):
                near = A.copy()
                near[-1] = A[0] + 10.0**-e * rng.standard_normal(n)
                yield near, f"rows 1e-{e} apart"
            deficient = A.copy()
            deficient[:, -1] = A[:, 0]
            yield deficient, "rank-deficient"
            yield 0.0 * A, "rank-deficient"


def test_full_rank_bound_drops_only_subsets_without_a_null_space():
    """_full_rank_bound against loop_null_space, the rank rule the falsifier's
    SVDs apply, at every removal size r <= m - n: the rows left after a
    certified removal have a zero null-space basis; every removal from a
    generic A is certified, and a rank-deficient or wide A gets no bound from
    the falsifier (test_nsp_falsifier_decides_the_rank_of_A_once); a repeated
    row loses exactly the removals that leave n rows with both copies among
    them; and near the threshold (rows 1e-6 apart) the bound certifies some
    removals and leaves others to the SVD."""
    certified_near = left_near = 0
    for A, label in full_rank_corpus():
        m, n = A.shape
        Ua, s, _ = np.linalg.svd(A)
        # nsp_real_falsify forms the bound only for A of full column rank
        if label in ("wide", "rank-deficient"):
            assert numerical_rank(s) < n
        if numerical_rank(s) < n:
            continue
        certified = nsp._full_rank_bound(Ua[:, n:], s)
        for r in range(m - n + 1):
            removals = np.array(list(combinations(range(m), r)), dtype=np.intp).reshape(comb(m, r), r)
            mask = certified(r)
            assert mask.shape == (len(removals),) and certified(r) is mask  # formed once per size
            for R in removals[mask]:
                assert loop_null_space(np.delete(A, R, axis=0)).shape == (n, 0)
            if label == "generic":
                assert mask.all()
            if label == "repeated row":
                both_left = [r == m - n and not {0, m - 1} & set(R.tolist()) for R in removals]
                assert mask.tolist() == [not both for both in both_left]
            if label == "rows 1e-6 apart":
                certified_near += int(mask.sum())
                left_near += int((~mask).sum())
    assert certified_near > 0 and left_near > 0


def test_nsp_falsifier_decides_the_rank_of_A_once(monkeypatch):
    """The falsifier tests A's rank once per call, on the singular values of
    its one SVD, and hands the full-rank bound and the sign screen only an A
    of full column rank: on full_rank_corpus, a tall or square A of full
    column rank gets one rank test and one bound, a rank-deficient one a rank
    test and neither bound nor screen, and a wide A gets no SVD at all."""
    calls = dict.fromkeys(("numerical_rank", "_full_rank_bound", "_sign_screen"), 0)

    def counted(name):
        original = getattr(nsp, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)

        return spy

    for name in calls:
        monkeypatch.setattr(nsp, name, counted(name))
    screened = 0
    for seed, (A, label) in enumerate(full_rank_corpus()):
        m, n = A.shape
        calls.update(dict.fromkeys(calls, 0))
        nsp_real_falsify(A, _frame(n, n + 2, seed), 2, 1.0, budget=10, lambda_mode="all_subsets")
        full = m >= n and numerical_rank(np.linalg.svd(A, compute_uv=False)) == n
        assert calls["numerical_rank"] == (m >= n)
        assert calls["_full_rank_bound"] == full
        assert calls["_sign_screen"] <= (full and m > n)
        screened += calls["_sign_screen"]
    assert screened > 0


def nsp_tall_corpus():
    """(A, F, k, q, seed, mode) at n = 4, N = 6, m = n + 2..n + 4 (a layer
    schedule by size used to differ there): a repeated row, a last row 1e-7
    from the first, a rank-deficient A (a repeated column), k = 1..3 and both
    lambda modes."""
    for m in (6, 7, 8):
        rng = np.random.default_rng(900 + m)
        A = rng.standard_normal((m, 4))
        repeated, near, deficient = A.copy(), A.copy(), A.copy()
        repeated[-1] = A[0]
        near[-1] = A[0] + 1e-7 * rng.standard_normal(4)
        deficient[:, -1] = A[:, 0]
        for i, B in enumerate((repeated, near, deficient)):
            for k in (1, 2, 3):
                for mode in ("card_at_most_k", "all_subsets"):
                    yield B, _frame(4, 6, m + i), k, 0.5 if (m + k) % 2 else 1.0, i, mode


def test_nsp_falsifier_takes_no_null_space_the_full_rank_bound_settles(monkeypatch):
    """At m = n + 2, n + 3 and n + 4 on a generic A, every row subset of size
    at most m - n or at least n has full column rank or a complement that
    has, and the falsifier takes no null space of one, at every k, also on
    scans that reach every layer; only the sizes strictly between are
    taken, and at k = 3 some are.  On near-degenerate and rank-deficient
    A at those shapes, its witnesses are the reference loop's bit for bit,
    in one stack and one slice per stack."""
    sizes = []
    null_spaces_ = nsp.null_spaces

    def null_spaces_spy(Ms, scale=None):
        if scale is None:  # the row subsets, not the (Lambda, S) systems
            sizes.extend([Ms.shape[1]] * len(Ms))
        return null_spaces_(Ms, scale=scale)

    monkeypatch.setattr(nsp, "null_spaces", null_spaces_spy)
    complete = taken = 0
    for n, N in ((4, 6), (6, 8)):
        for m in range(n + 2, n + 5):
            A = np.random.default_rng(950 + m).standard_normal((m, n))
            sizes.clear()
            for k in (1, 2, 3):
                w = nsp_real_falsify(A, build_parseval_random(n, N, m), k, 0.5, lambda_mode="all_subsets")
                complete += w is None
            assert all(m - n < size < n for size in sizes)
            taken += len(sizes)
    assert taken > 0 and complete > 0
    witnesses = 0
    for A, F, k, q, seed, mode in nsp_tall_corpus():
        ref = loop_nsp_real_falsify(A, F, k, q, budget=100, seed=seed, lambda_mode=mode)
        for elems in (nsp.STACK_ELEMS, 1):  # 1: one slice per stack
            monkeypatch.setattr(nsp, "STACK_ELEMS", elems)
            _assert_same_witness(nsp_real_falsify(A, F, k, q, budget=100, seed=seed, lambda_mode=mode), ref)
        monkeypatch.setattr(nsp, "STACK_ELEMS", STACK_ELEMS)
        witnesses += ref is not None
    assert witnesses > 0


def test_unit_gaps_equal_the_scalar_gap_bit_for_bit(monkeypatch):
    """Every batch of dim-W-1 cells that the falsifier passes to _unit_gaps,
    against _cell_witness's own gap at c = 1, read through a _search that
    records it: equal bit for bit, at q = 0.3, 0.5 and 1, N = 8 and 11, on
    complete scans (the frame [I_6, 0]) and on a wide A, whose Lambda = {}
    has the identity as U (an exact product in either layout).  Both
    verdicts occur."""
    unit_gaps = nsp._unit_gaps
    batches = []

    def unit_gaps_spy(D, q, systems):
        gaps = unit_gaps(D, q, systems)
        batches.append((D, q, systems, gaps))
        return gaps

    monkeypatch.setattr(nsp, "_unit_gaps", unit_gaps_spy)
    calls = [(np.random.default_rng(800).standard_normal((7, 6)), _zero_columns_frame(6, 8), 2, 0.5),
             (np.random.default_rng(801).standard_normal((7, 6)), _zero_columns_frame(6, 8), 2, 1.0)]
    for seed, q in enumerate((0.3, 0.5, 1.0)):
        calls.append((np.random.default_rng(61 + seed).standard_normal((7, 6)),
                      build_parseval_random(6, 8 if seed < 2 else 11, seed), 2, q))
    # m = n - 1, k = 1: Lambda = {} with a vanishing column as support has dim W = 1
    calls.append((np.random.default_rng(70).standard_normal((5, 6)), _zero_columns_frame(6, 8), 1, 0.3))
    for A, F, k, q in calls:
        nsp_real_falsify(A, F, k, q, budget=100, lambda_mode="all_subsets")
    monkeypatch.setattr(nsp, "_unit_gaps", unit_gaps)

    recorded = []

    def search_spy(gap, dim, restarts, entropy):
        recorded.append(gap(np.ones(1)))
        return iter(())

    monkeypatch.setattr(nsp, "_search", search_spy)
    cells = below = identity = 0
    for D, q, systems, gaps in batches:
        F = TightFrame(D=D, label="")
        for (U, V, W), g in zip(systems, gaps):
            recorded.clear()
            nsp._cell_witness(np.zeros((1, D.shape[0])), F, (), U, V, W, 2, q, 1, (0, 0), [])
            assert np.float64(recorded[0]).tobytes() == g.tobytes()
            cells += 1
            below += bool(g < -STRICTNESS_TOL)
            identity += np.array_equal(U, np.eye(len(U)))
    assert cells > 1500 and 0 < below < cells and identity > 0


def _left_by_the_full_rank_bound(A, k, mode):
    """The row subsets of _lambda_list that _full_rank_bound leaves, taken
    one size at a time from the bound's per-size masks."""
    m, n = A.shape
    Ua, s, _ = np.linalg.svd(A)
    certified = nsp._full_rank_bound(Ua[:, n:], s)
    left = []
    for size in range(min(k, m) + 1 if mode == "card_at_most_k" else m + 1):
        dead = np.zeros(comb(m, size), dtype=bool)
        if size >= n:
            dead |= certified(m - size)[::-1]
        if size <= m - n:
            dead |= certified(size)
        left += [Lam for Lam, d in zip(combinations(range(m), size), dead.tolist()) if not d]
    return left


def test_nsp_falsifier_screens_every_row_subset_in_one_certifier_call(monkeypatch):
    """A call builds the sign screen at most once and calls its certifier
    once, on the signs of exactly the row subsets the full-rank bound leaves,
    in scan order, and that mask equals the certifier called one size at a
    time on the same subsets, bit for bit.  Cases: nsp-certify's shape
    (m = n + 1) at k = 1, and at k = 2, where no support has rank <= m - n
    and the screen has no certifier, and in card_at_most_k mode at k = 1,
    where the bound leaves no row subset and no screen is built; m = n + 2
    at k = 2 with and without a repeated row; and a wide A.  With
    the repeat the scan's witness lies in the size-2 layer, as the reference
    loop's does; without it there is none, and the certifier certifies
    cells."""
    screen = nsp._sign_screen
    built, calls = [], []

    def screen_spy(A, H, s, bases, n_supports):
        certify = screen(A, H, s, bases, n_supports)
        built.append(certify)

        def certify_spy(signs):
            got = certify(signs)
            calls.append((signs.copy(), got.copy()))
            return got

        return None if certify is None else certify_spy

    monkeypatch.setattr(nsp, "_sign_screen", screen_spy)
    A8 = np.random.default_rng(5).standard_normal((8, 6))
    repeated = A8.copy()
    repeated[-1] = repeated[0]
    cases = [(np.random.default_rng(60).standard_normal((7, 6)), 1, "all_subsets"),
             (np.random.default_rng(61).standard_normal((7, 6)), 1, "card_at_most_k"),
             (np.random.default_rng(62).standard_normal((7, 6)), 2, "all_subsets"),
             (A8, 2, "all_subsets"), (repeated, 2, "all_subsets")]
    witnesses = {}
    for A, k, mode in cases:
        F = build_parseval_random(A.shape[1], 8, 600)
        built.clear()
        calls.clear()
        witnesses[id(A)] = w = nsp_real_falsify(A, F, k, 0.5, lambda_mode=mode)
        m, n = A.shape
        left = _left_by_the_full_rank_bound(A, k, mode)
        generic = [Lam for Lam in _lambda_list(m, k, mode) if m - n < len(Lam) < n]
        assert left == generic or A is repeated
        if not left:
            assert mode == "card_at_most_k" and built == [] and calls == []
            continue
        assert len(built) == 1 and len(calls) == (built[0] is not None)
        if built[0] is None:
            assert m == n + 1 and k == 2
            continue
        signs, got = calls[0]
        assert signs.tolist() == [[-1.0 if i in Lam else 1.0 for i in range(m)] for Lam in left]
        sizes = np.count_nonzero(signs < 0, axis=1)
        for size in np.unique(sizes):
            layer = built[0](signs[sizes == size])
            assert layer.dtype == got.dtype and np.array_equal(layer, got[sizes == size])
        if A is A8:
            assert w is None and set(sizes.tolist()) == {3, 4, 5} and got.any()
    w = witnesses[id(repeated)]
    assert w is not None and len(w.Lambda) == 2
    _assert_same_witness(w, loop_nsp_real_falsify(repeated, build_parseval_random(6, 8, 600), 2, 0.5,
                                                  lambda_mode="all_subsets"))
    built.clear()
    calls.clear()
    wide = np.random.default_rng(63).standard_normal((5, 6))
    nsp_real_falsify(wide, build_parseval_random(6, 8, 600), 1, 0.5, lambda_mode="all_subsets")
    assert built == [] and calls == []


def test_min_eig_exceeds_is_a_sufficient_test_of_the_smallest_eigenvalue():
    """nsp._min_eig_exceeds against eigvalsh on Gram stacks of r = 1..4 whose
    smallest eigenvalue is 0 or runs from 1e-16 to 1: a pass implies
    lambda_min > floor up to rounding, the test is exact at r <= 2, and a
    singular or zero Gram never passes.  Two equal eigenvalues of 1.5 floor
    pass at r = 2, where the AM-GM determinant bound gives 0.75 floor."""
    rng = np.random.default_rng(21)
    floor = 1e-12
    for r in (1, 2, 3, 4):
        Q = np.linalg.qr(rng.standard_normal((300, r, r)))[0]
        lam = rng.uniform(0.1, 1.0, (300, r))
        lam[:, 0] = np.concatenate([np.zeros(20), 10.0 ** rng.uniform(-16, 0, 280)])
        G = np.concatenate([np.einsum("bij,bj,bkj->bik", Q, lam, Q), np.zeros((1, r, r))])
        passed = nsp._min_eig_exceeds(np.moveaxis(G, 0, -1), floor)
        lam_min = np.linalg.eigvalsh(G)[:, 0]
        assert np.all(lam_min[passed] > floor * (1 - 1e-3))
        assert not passed[:20].any() and not passed[-1]
        assert passed[lam_min > floor * (1 + 1e-3)].all() if r <= 2 else passed.any()
        if r == 1:
            assert np.array_equal(passed, G[:, 0, 0] > floor)
    equal = 1.5 * floor * np.eye(2)[:, :, None]
    assert nsp._min_eig_exceeds(equal, floor).all()


def loop_null_space(M):
    M = np.asarray(M)
    n = M.shape[1]
    if M.shape[0] == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(M)
    r = numerical_rank(s)
    return vh[r:].T


def test_null_spaces_match_the_per_slice_kernel_bit_for_bit():
    rng = np.random.default_rng(4)
    for p, n in ((2, 5), (4, 4), (6, 3), (3, 1)):
        full = rng.standard_normal((3, p, n))
        low = rng.standard_normal((3, p, 1)) @ rng.standard_normal((3, 1, n))  # rank 1
        tiny = 1e-13 * rng.standard_normal((1, p, n)) + low[:1]  # rank 1 by the relative cutoff
        Ms = np.concatenate([full, np.zeros((2, p, n)), low, tiny])[rng.permutation(9)]
        got = null_spaces(Ms)
        assert len(got) == len(Ms)
        for M, W in zip(Ms, got):
            ref = loop_null_space(M)
            assert W.shape == ref.shape and W.dtype == ref.dtype
            assert W.tobytes() == ref.tobytes() and W.strides == ref.strides
            assert np.linalg.norm(M @ W) <= 1e-9 * max(1.0, np.linalg.norm(M))
        assert {W.shape[1] for W in got} == {n - min(p, n), n - 1, n}
    for W in null_spaces(np.zeros((4, 0, 3))):
        assert W.tobytes() == loop_null_space(np.zeros((0, 3))).tobytes() and W.dtype == float


def test_dictionary_sparse_distance_matches_reference_loop(monkeypatch):
    rng = np.random.default_rng(8)
    Fr = build_parseval_random(4, 7, seed=1)
    dictionaries = [Fr.D, build_named_frame("duplicated_identity", 3).D,
                    _zero_column_frame(4).D, np.zeros((2, 3))]
    for elems in (nsp.STACK_ELEMS, 1):  # 1: one support per chunk
        monkeypatch.setattr(nsp, "STACK_ELEMS", elems)
        for D in dictionaries:
            n, N = D.shape
            for k in range(N + 2):
                S = rng.choice(N, size=min(k, N), replace=False)
                for x in (rng.standard_normal(n), D[:, S] @ rng.standard_normal(len(S))):
                    ref = loop_dictionary_sparse_distance(x, D, k)
                    got = dictionary_sparse_distance(x, D, k)
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)
                    if k > N:
                        assert got == np.inf
                    elif k == 0 or not D.any():  # only supports that span {0}
                        assert got == np.linalg.norm(x)


# ---------------------------------------------------------------- IRLS


def irls_restarts(P: PhaselessProblem, seed: int) -> SolverResult:
    """The restart pipeline on P, with the SVD of A that solve_irls takes."""
    return solver._irls_restarts(P, seed, solver._svd_factors(P.A))


def irls_corpus():
    """Problems shaped like the irls-sweep workload (n = 8, N = 12, m in {16, 24},
    q in {0.5, 1}, eps = 0.01, near-isometric A), and wide Gaussian ones at eps = 0."""
    for seed in range(2):
        for m, q in product((16, 24), (0.5, 1.0)):
            F = build_parseval_random(8, 12, seed)
            truth = sample_dictionary_sparse(F, 2, seed + 20)
            A = sample_measurement_matrix("near_isometric", m, 8, 0.05, seed + 40)
            yield build_problem(A, F, truth, q, noise=("bounded", 0.01), seed=seed + 60)
        F = build_parseval_random(6, 9, seed)
        truth = sample_dictionary_sparse(F, 1, seed + 30)
        A = np.random.default_rng(seed + 50).standard_normal((4, 6)) / 2.0
        yield build_problem(A, F, truth, 0.5 + 0.5 * seed)


def _irls_outcome(solve, P, seed):
    try:
        res = solve(P, seed)
    except np.linalg.LinAlgError as exc:
        return type(exc)
    return res.x_hat.tobytes(), res.objective, res.feasibility, res.iterations


# (seed, schedule constants of solver that differ from the IRLS schedule)
@pytest.mark.parametrize("seed, schedule", [
    (3, {}),
    (0, dict(IRLS_RESTARTS=1)),
    (4, dict(IRLS_MAX_ITERS=5)),  # every run stops at the iteration cap
    (5, dict(IRLS_MAX_ITERS=55, IRLS_RESTARTS=4)),  # most runs pass their exit test first
    (6, dict(IRLS_REG=0.02, IRLS_RESTARTS=4)),
    # lam * w below rounding: iterates repeat exactly, so keys tie within a run
    (7, dict(IRLS_REG=1e-18, IRLS_RESTARTS=4)),
    # the start's last bits reach the first weights, so polish starts must be
    # the 1-D least-squares points A_pinv @ (p * b)
    (9, dict(IRLS_EPS0=1e-2)),
], ids=["default", "one-restart", "cap-5", "cap-55", "reg", "tiny-reg", "small-eps0"])
def test_irls_matches_reference_loop_bit_for_bit(seed, schedule, monkeypatch):
    for name, value in schedule.items():
        monkeypatch.setattr(solver, name, value)
    descended = []
    descent = solver._sign_flip_descent

    def counting(Q, b, S):
        descended.append(len(S))
        return descent(Q, b, S)

    monkeypatch.setattr(solver, "_sign_flip_descent", counting)
    problems = list(irls_corpus())
    for P in problems:
        # every corpus problem but the wide ones takes the sign tree in
        # solve_irls, so the restart pipeline is called directly
        assert _irls_outcome(irls_restarts, P, seed) == _irls_outcome(loop_solve_irls, P, seed)
    # the corpus reaches both paths: starts that go through the sign-flip
    # descent and starts polished from their own pattern
    assert 0 < sum(descended) < solver.IRLS_RESTARTS * len(problems)


@pytest.mark.parametrize("max_sweeps", [1, 8])
def test_sign_flip_descent_matches_scalar_loop_row_by_row(max_sweeps, monkeypatch):
    monkeypatch.setattr(solver, "FLIP_MAX_SWEEPS", max_sweeps)
    rng = np.random.default_rng(11)
    for m, n in ((16, 8), (24, 8), (5, 3)):
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        x = rng.standard_normal(n)
        b = np.abs(A @ x)
        exact = np.where(A @ x >= 0.0, 1.0, -1.0)  # zero residual: never improves
        patterns = np.vstack([exact, -exact, np.where(rng.random((6, m)) < 0.5, 1.0, -1.0)])
        Q = solver._svd_factors(A)[0]
        got = solver._sign_flip_descent(Q, b, patterns)
        assert got.tobytes() != patterns.tobytes()
        assert np.array_equal(got[:2], patterns[:2])
        for row, p in zip(got, patterns):
            assert row.tobytes() == loop_sign_flip_descent(Q, b, p, max_sweeps).tobytes()


def descent_tie_corpus():
    """(A, b, patterns) with exact ties and exact zeros: b with zero entries,
    duplicated rows of A (flipping either copy scores the same), exactly
    feasible patterns and their negations, and random patterns; tall A with
    m = 3..24.  Square and wide A (n = m and m + 2, m = 2..12), the restart
    pipeline's m <= n traffic, give every pattern a residual of rounding size,
    so with b of either sign at ||b|| = 1 and 1e3 every comparison is of
    rounding residue, which the gain FLIP_GAIN ||b|| never lets decide a flip."""
    rng = np.random.default_rng(23)
    for m in range(3, 25):
        n = max(1, m // 3)
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        A[m // 2:m // 2 + m // 4] = A[:m // 4]  # duplicated rows
        x = rng.standard_normal(n)
        exact = np.where(A @ x >= 0.0, 1.0, -1.0)
        random = np.where(rng.random((4, m)) < 0.5, 1.0, -1.0)
        b = np.abs(A @ x)  # exactly feasible: exact and -exact never move
        yield A, b, np.vstack([exact, -exact, random])
        b = np.abs(A @ x + 0.3 * rng.standard_normal(m))
        b[rng.random(m) < 0.3] = 0.0
        b[m // 2:m // 2 + m // 4] = b[:m // 4]  # duplicated measurements
        yield A, b, np.vstack([exact, -exact, random])
    for m in range(2, 13):
        for n in (m, m + 2):
            A = rng.standard_normal((m, n)) / np.sqrt(m)
            for scale in (1.0, 1e3):
                b = rng.standard_normal(m)
                b[0] = -abs(b[0])
                b *= scale / np.linalg.norm(b)
                signs = np.where(b >= 0.0, 1.0, -1.0)
                random = np.where(rng.random((4, m)) < 0.5, 1.0, -1.0)
                yield A, b, np.vstack([signs, -signs, random])


@pytest.mark.parametrize("max_sweeps", [0, 1, 2, 3, 8])
def test_sign_flip_descent_matches_scalar_loop_on_ties(max_sweeps, monkeypatch):
    monkeypatch.setattr(solver, "FLIP_MAX_SWEEPS", max_sweeps)
    for A, b, patterns in descent_tie_corpus():
        Q = solver._svd_factors(A)[0]
        got = solver._sign_flip_descent(Q, b, patterns)
        for row, p in zip(got, patterns):
            assert row.tobytes() == loop_sign_flip_descent(Q, b, p, max_sweeps).tobytes()


def test_sign_flip_descent_of_an_empty_stack():
    Q = solver._svd_factors(np.random.default_rng(2).standard_normal((6, 3)))[0]
    got = solver._sign_flip_descent(Q, np.ones(6), np.zeros((0, 6)))
    assert got.shape == (0, 6)
