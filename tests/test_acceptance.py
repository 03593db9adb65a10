"""Acceptance suite: one timed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
All tolerances are fixed here; any failure is build-failing.
"""

import time
from itertools import combinations
from math import ceil

import numpy as np

from lqphase.bounds import bound_rhs, constants_c1_c2
from lqphase.frames import build_parseval_random
from lqphase.harness import run_bound_experiment, sample_measurement_matrix
from lqphase.lemmas import (
    sparse_convex_decomposition,
    subset_sum_identities,
    tail_power_bound_check,
)
from lqphase.measurement import build_problem, phase_distance
from lqphase.nsp import nsp_real_evaluate, nsp_real_falsify
from lqphase.records import ExperimentConfig, records_to_csv
from lqphase.rip import drip_constant, drip_order_for_t, sdrip_constants
from lqphase.signals import best_k_term_error, lq_quasinorm, sample_dictionary_sparse
from lqphase.solver import solve_oracle_noiseless


def _report(num: int, desc: str, ok: bool, elapsed: float, budget: float) -> None:
    line = (f"criterion {num} [{'PASS' if ok and elapsed < budget else 'FAIL'}] "
            f"{desc} ({elapsed:.1f}s / budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_frame_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for i in range(100):
        n = int(rng.integers(1, 17))
        N = int(rng.integers(n, 33))
        F = build_parseval_random(n, N, seed=i)
        dd = np.max(np.abs(F.D @ F.D.T - np.eye(n)))
        ok &= dd < 1e-9
        for _ in range(3):
            f = rng.standard_normal(n)
            ok &= abs(np.linalg.norm(F.D.T @ f) ** 2 - f @ f) <= 1e-9 * (f @ f)
            z = rng.standard_normal(N)
            ok &= np.linalg.norm(F.D @ z) ** 2 <= (z @ z) * (1 + 1e-9)
            row = F.D.T @ f  # on D's row space synthesis keeps the energy
            ok &= abs(np.linalg.norm(F.D @ row) ** 2 - row @ row) <= 1e-9 * (row @ row)
        ok &= (F.n, F.N) == F.D.shape == (n, N)
    _report(1, "frame axioms on 100 random Parseval frames", ok, time.perf_counter() - start, 5.0)


def test_criterion_2_lemma_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True

    count = 0
    for k in range(1, 9):
        for l in range(1, k + 1):
            for _ in range(3):
                v = rng.integers(-99, 100, size=k)
                r = subset_sum_identities(k, l, v)
                ok &= (r.lhs1 == r.rhs1) and (r.lhs2 == r.rhs2)
                count += 1
    ok &= count >= 100

    for _ in range(1000):
        r = int(rng.integers(2, 12))
        k = int(rng.integers(1, r + 1))
        q = float(rng.uniform(0.15, 1.0))
        x = np.zeros(14)
        supp = rng.choice(14, size=r, replace=False)
        vals = rng.standard_normal(r) * rng.uniform(0.2, 3.0)
        vals[np.abs(vals) < 1e-4] = 1e-4
        x[supp] = vals
        floor = max(np.max(np.abs(x)), (lq_quasinorm(x, q) / k) ** (1.0 / q))
        alpha = floor * (1.0 + float(rng.uniform(0.0, 1.0)))
        dec = sparse_convex_decomposition(x, k, alpha, q)
        bound = min((r / k) * float(x @ x),
                    alpha**q * float(np.sum(np.abs(x[supp]) ** (2.0 - q))))
        ok &= bool(np.all(dec.weights > 0))
        ok &= abs(float(np.sum(dec.weights)) - 1.0) < 1e-12
        ok &= bool(np.all(np.count_nonzero(dec.atoms, axis=1) <= k))
        ok &= np.linalg.norm(dec.reconstruct() - x) <= 1e-10 * max(1.0, np.linalg.norm(x))
        ok &= dec.weighted_energy() <= bound + 1e-9

    for _ in range(10000):
        r = int(rng.integers(1, 12))
        k = int(rng.integers(1, r + 1))
        b = np.sort(rng.uniform(0.0, 4.0, size=r))[::-1]
        omega = float(rng.uniform(1.0, 5.0))
        deficit = float(np.sum(b[k:]) - np.sum(b[:k]))
        d = max(0.0, deficit) + float(rng.uniform(0.0, 1.0))
        ok &= tail_power_bound_check(b, k, d, omega).holds

    _report(2, "lemma suite (identities exact, 1000 decompositions, 10000 tail bounds)",
            ok, time.perf_counter() - start, 30.0)


def _instance(seed: int, max_m: int = 8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    N = int(rng.integers(n, 10))
    m = int(rng.integers(2, max_m + 1))
    k = int(rng.integers(1, min(2, N) + 1))
    F = build_parseval_random(n, N, seed=seed + 1)
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    return F, A, k


def _reference_drip(A, F, k):
    """The DRIP constant support by support, independently of rip's kernel:
    an SVD basis Q of col(D_S) and the eigenvalues of (A Q)^T (A Q)."""
    delta = 0.0
    for S in combinations(range(F.N), k):
        u, s, _ = np.linalg.svd(F.D[:, list(S)], full_matrices=False)
        B = A @ u[:, :int(np.sum(s > 1e-10 * s[0]))]
        w = np.linalg.eigvalsh(B.T @ B)
        delta = max(delta, w[-1] - 1.0, 1.0 - w[0])
    return delta


def test_criterion_3_drip_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for i in range(50):
        F, A, k = _instance(300 + i)
        exact = drip_constant(A, F, k).delta
        ok &= abs(exact - _reference_drip(A, F, k)) <= 1e-10
        if k + 1 <= F.N:
            bigger = drip_constant(A, F, k + 1).delta
            ok &= exact <= bigger + 1e-12
    _report(3, "exhaustive defect vs per-support SVD and eigvalsh reference, monotone in order",
            ok, time.perf_counter() - start, 60.0)


def test_criterion_4_sdrip_consistency():
    start = time.perf_counter()
    ok = True
    for i in range(50):
        rng = np.random.default_rng(400 + i)
        n = int(rng.integers(2, 7))
        N = int(rng.integers(n, 10))
        m = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(2, N) + 1))
        F = build_parseval_random(n, N, seed=401 + i)
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        rep = sdrip_constants(A, F, k)
        delta = drip_constant(A, F, k).delta
        # full-subset extremes per support (the half-subset range includes I = [1:m])
        lo_full, hi_full = np.inf, -np.inf
        G = A.T @ A
        for S in combinations(range(F.N), k):
            Ds = F.D[:, list(S)]
            u, s, _ = np.linalg.svd(Ds, full_matrices=False)
            r = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
            if r == 0:
                continue
            Q = u[:, :r]
            w = np.linalg.eigvalsh(Q.T @ G @ Q)
            lo_full = min(lo_full, w[0])
            hi_full = max(hi_full, w[-1])
        ok &= rep.theta_minus <= lo_full + 1e-12
        ok &= rep.theta_plus >= hi_full - 1e-12
        ok &= max(1.0 - rep.theta_minus, rep.theta_plus - 1.0) >= delta - 1e-12
        ok &= rep.min_subset_size == ceil(m / 2)
    _report(4, "half-subset extremes sandwich the full-subset case and dominate the defect",
            ok, time.perf_counter() - start, 120.0)


def test_criterion_5_oracle_exact_recovery():
    start = time.perf_counter()
    ok = True
    exceptions = 0
    for trial in range(100):
        q = 0.5 if trial < 50 else 1.0
        F = build_parseval_random(4, 6, seed=500 + trial)
        truth = sample_dictionary_sparse(F, 1, seed=700 + trial)
        A = np.random.default_rng(900 + trial).standard_normal((8, 4)) / np.sqrt(8)
        witness = nsp_real_falsify(A, F, k=1, q=q, budget=10**4, seed=trial,
                                   lambda_mode="all_subsets")
        if witness is not None:
            continue  # condition falsified: recovery is not promised
        P = build_problem(A, F, truth, q=q)
        res = solve_oracle_noiseless(P)
        if phase_distance(res.x_hat, truth.x) >= 1e-8 * np.linalg.norm(truth.x):
            exceptions += 1
    ok &= exceptions == 0
    _report(5, "no counterexample implies oracle exact recovery (100 trials, 0 exceptions)",
            ok, time.perf_counter() - start, 600.0)


def test_criterion_6_nsp_converse_construction():
    start = time.perf_counter()
    ok = True
    instances = [
        (np.array([[1.0, 0.0], [1.0, 0.0]]), 2, 1.0),
        (np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), 2, 0.5),
        (np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 3, 0.7),
    ]
    from lqphase.frames import build_named_frame
    for A, n, q in instances:
        F = build_named_frame("identity", n)
        w = nsp_real_falsify(A, F, k=1, q=q, budget=500, seed=0)
        ok &= w is not None
        if w is None:
            continue
        ok &= bool(nsp_real_evaluate(A, F, w).violated)
        x0 = w.u + w.v
        x_hat = w.u - w.v
        ok &= np.linalg.norm(np.abs(A @ x_hat) - np.abs(A @ x0)) <= 1e-9
        ok &= lq_quasinorm(x_hat, q) <= lq_quasinorm(x0, q) + 1e-12
    _report(6, "ambiguous instances yield witnesses whose construction beats the truth",
            ok, time.perf_counter() - start, 60.0)


def _bound_trial(seed: int, q: float, t: float, n: int, N: int, m: int, ensemble: str,
                 jitter: float):
    F = build_parseval_random(n, N, seed=seed)
    truth = sample_dictionary_sparse(F, 1, seed=seed + 10**6)
    A = sample_measurement_matrix(ensemble, m, n, jitter, seed=seed + 2 * 10**6)
    P = build_problem(A, F, truth, q=q)
    order = drip_order_for_t(t, 1)
    delta = drip_constant(A, F, order).delta
    consts = constants_c1_c2(q, t, delta)
    if not consts.admissible:
        return None
    res = solve_oracle_noiseless(P)
    sigma = best_k_term_error(F.D.T @ truth.x, 1, q)
    lhs = phase_distance(res.x_hat, truth.x)
    rhs = bound_rhs(consts, 0.0, sigma, 1)
    return lhs, rhs, sigma


def test_criterion_7_bound_verification():
    start = time.perf_counter()
    settings = [
        (1.0, 1.0, "gaussian", 0.0),
        (1.0, 1.2, "near_isometric", 0.1),
        (0.5, 1.0, "near_isometric", 0.1),
    ]
    ok = True
    for family, (n, N) in (("exactly-sparse analysis", (4, 4)),
                           ("non-sparse analysis", (4, 6))):
        admissible = 0
        violations = 0
        seed = 0
        while admissible < 100 and seed < 900:
            q, t, ensemble, jitter = settings[seed % len(settings)]
            out = _bound_trial(10_000 + seed, q, t, n, N, 8, ensemble, jitter)
            seed += 1
            if out is None:
                continue
            lhs, rhs, sigma = out
            if N > n and sigma <= 1e-8:
                continue  # the second family requires a genuinely non-sparse analysis vector
            admissible += 1
            if lhs > rhs + 1e-9:
                violations += 1
        ok &= admissible >= 100
        ok &= violations == 0
    _report(7, "error bound holds on 100 admissible oracle trials per family",
            ok, time.perf_counter() - start, 600.0)


def test_criterion_8_constant_formulas():
    # at q = 1, c1 and c2 against the bounds docstring's closed forms c3, c4,
    # evaluated here in float64
    start = time.perf_counter()
    ok = True
    ts = np.linspace(0.05, 4.0 / 3.0 - 1e-3, 50)
    for t in ts:
        deltas = np.linspace(0.0, t / (4.0 - t) * 0.995, 50)
        prev = (-np.inf, -np.inf)
        for d in deltas:
            c = constants_c1_c2(1.0, float(t), float(d))
            den = t - (4.0 - t) * d
            c3 = 2.0 * max(t, np.sqrt(t)) * np.sqrt(1.0 + d) / den
            c4 = (4.0 * d + 2.0 * np.sqrt(den * d)) / den + 1.0
            ok &= abs(c.c1 - c3) <= 1e-12 * max(1.0, abs(c3))
            ok &= abs(c.c2 - c4) <= 1e-12 * max(1.0, abs(c4))
            ok &= c.c1 >= prev[0] - 1e-12 and c.c2 >= prev[1] - 1e-12
            prev = (c.c1, c.c2)
    for q in (0.25, 0.5, 0.75, 1.0):
        c = constants_c1_c2(q, 1.0, 1e-13)
        ok &= abs(c.c1 - (1.0 + 2.0 ** (1.0 / q - 1.0))) < 1e-5
        ok &= abs(c.c2 - 1.0) < 1e-5
    _report(8, "constant specialization, zero-defect limit and defect monotonicity",
            ok, time.perf_counter() - start, 5.0)


def test_criterion_9_determinism():
    start = time.perf_counter()
    cfg = ExperimentConfig(n_values=[4], N_values=[6], m_values=[8], k_values=[1],
                           q_values=[0.5, 1.0], t_values=[1.0], eps_values=[0.0],
                           trials=3, master_seed=314, solver="oracle")
    runs = [records_to_csv(run_bound_experiment(cfg)) for _ in range(3)]
    ok = runs[0] == runs[1] == runs[2]
    _report(9, "byte-identical CSV across runs",
            ok, time.perf_counter() - start, 120.0)
