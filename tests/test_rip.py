import sys
from itertools import combinations
from math import ceil, comb

import numpy as np
import pytest

from lqphase import rip
from lqphase.errors import DomainError, ParameterError, ResourceBudgetError
from lqphase.frames import TightFrame, build_named_frame, build_parseval_random
from lqphase.linalg import support_bases, sym_eig_bounds
from lqphase.rip import drip_constant, drip_order_for_t, sdrip_constants


def brute_subset_extremes(A, F, k, min_size):
    """Independent oracle: dense eigensolves over every (subset, support) pair."""
    m = A.shape[0]
    lo_all, hi_all = np.inf, -np.inf
    for S in combinations(range(F.N), k):
        Ds = F.D[:, list(S)]
        u, s, _ = np.linalg.svd(Ds, full_matrices=False)
        r = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
        if r == 0:
            continue
        Q = u[:, :r]
        for size in range(min_size, m + 1):
            for I in combinations(range(m), size):
                B = A[list(I)] @ Q
                w = np.linalg.eigvalsh(B.T @ B)
                lo_all = min(lo_all, w[0])
                hi_all = max(hi_all, w[-1])
    return lo_all, hi_all


def test_identity_measurement_has_zero_defect():
    F = build_named_frame("identity", 3)
    for k in (1, 2, 3):
        delta = drip_constant(np.eye(3), F, k).delta
        assert delta == pytest.approx(0.0, abs=1e-12)


def test_degenerate_diagonal():
    F = build_named_frame("identity", 2)
    A = np.diag([np.sqrt(2.0), 0.0])
    rep = drip_constant(A, F, 1)
    assert rep.delta == pytest.approx(1.0, abs=1e-12)
    # both supports attain deviation 1 (quotients 2 and 0)
    assert rep.details["witness_support"] in ([0], [1])


def support_deviation(A, F, S):
    """max(lambda_max - 1, 1 - lambda_min) of ||Ay||^2 / ||y||^2 on col(D_S),
    from a dense SVD and eigensolve of that one support."""
    u, s, _ = np.linalg.svd(F.D[:, list(S)], full_matrices=False)
    B = A @ u[:, :int(np.sum(s > 1e-10 * s[0]))]
    w = np.linalg.eigvalsh(B.T @ B)
    return max(w[-1] - 1.0, 1.0 - w[0])


def test_witness_attains_the_quotient():
    rng = np.random.default_rng(3)
    for seed in range(5):
        F = build_parseval_random(4, 7, seed=seed)
        A = rng.standard_normal((6, 4)) / np.sqrt(6)
        for order in (1, 2, 3):
            rep = drip_constant(A, F, order)
            S = rep.details["witness_support"]
            assert len(S) == order and S == sorted(S)
            assert support_deviation(A, F, S) == pytest.approx(rep.delta, rel=1e-9)


def test_drip_reports_name_their_details_in_cli_order():
    F = build_parseval_random(3, 6, seed=2)
    A = np.random.default_rng(2).standard_normal((5, 3))
    rep = drip_constant(A, F, 2)
    assert (rep.order, rep.theta_minus, rep.theta_plus, rep.min_subset_size) == (2, None, None, None)
    assert list(rep.details) == ["witness_support"]


def test_drip_takes_support_bases_only_inside_the_kernel(monkeypatch):
    # order <= 2 takes the closed-form columns, and order 3 and parallel frame
    # columns take support_bases; both are called from _extremes alone
    calls = []

    def spy(kernel):
        def call(*args):
            calls.append((kernel.__name__, sys._getframe(1).f_code.co_name))
            return kernel(*args)
        return call

    monkeypatch.setattr(rip, "support_bases", spy(support_bases))
    monkeypatch.setattr(rip, "_gram_schmidt_columns", spy(rip._gram_schmidt_columns))
    A = np.random.default_rng(3).standard_normal((6, 4))
    for F in (build_parseval_random(4, 7, seed=1), build_named_frame("duplicated_identity", 4)):
        for order in (2, 3):
            drip_constant(A, F, order)
    assert {kernel for kernel, _ in calls} == {"support_bases", "_gram_schmidt_columns"}
    assert {caller for _, caller in calls} == {"_extremes"}


def test_monotone_in_order():
    rng = np.random.default_rng(5)
    for trial in range(10):
        F = build_parseval_random(3, 6, seed=trial)
        A = rng.standard_normal((5, 3)) / np.sqrt(5)
        deltas = [drip_constant(A, F, k).delta for k in range(1, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_rank_deficient_supports_are_restricted():
    # duplicated identity: columns i and i+n are parallel
    F = build_named_frame("duplicated_identity", 2)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 2))
    d1 = drip_constant(A, F, 1).delta
    d2 = drip_constant(A, F, 2).delta
    assert np.isfinite(d1) and np.isfinite(d2) and d1 <= d2 + 1e-12


def test_isometry_consequence_on_coefficients():
    # (1-delta)||Dz||^2 <= ||ADz||^2 <= (1+delta)||Dz||^2 <= (1+delta)||z||^2, as DD^T = I
    # gives ||Dz|| <= ||z||; adding the energy ||z||^2 - ||Dz||^2 that D loses keeps
    # (1-delta)||z||^2 <= ||ADz||^2 + ||z||^2 - ||Dz||^2 <= (1+delta)||z||^2
    F = build_parseval_random(3, 6, seed=9)
    A = np.random.default_rng(2).standard_normal((7, 3)) / np.sqrt(7)
    k = 2
    delta = drip_constant(A, F, k).delta
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = np.zeros(6)
        S = rng.choice(6, size=k, replace=False)
        z[S] = rng.standard_normal(k)
        nz, nx = z @ z, np.linalg.norm(F.D @ z) ** 2
        assert nx <= nz + 1e-12
        ax = np.linalg.norm(A @ (F.D @ z)) ** 2
        assert (1 - delta) * nx - 1e-9 <= ax <= (1 + delta) * nx + 1e-9
        mid = ax + nz - nx
        assert (1 - delta) * nz - 1e-9 <= mid <= (1 + delta) * nz + 1e-9


def test_sdrip_identity_example():
    F = build_named_frame("identity", 2)
    rep = sdrip_constants(np.eye(2), F, 1)
    assert rep.theta_minus == pytest.approx(0.0, abs=1e-12)  # subset {1} kills e_0
    assert rep.theta_plus == pytest.approx(1.0, abs=1e-12)
    assert rep.min_subset_size == 1


def test_sdrip_matches_brute_force_oracle():
    rng = np.random.default_rng(13)
    for trial in range(5):
        n, N, m, k = 3, 5, 5, 2
        F = build_parseval_random(n, N, seed=trial + 20)
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        rep = sdrip_constants(A, F, k)
        lo, hi = brute_subset_extremes(A, F, k, ceil(m / 2))
        assert rep.theta_minus == pytest.approx(lo, abs=1e-10)
        assert rep.theta_plus == pytest.approx(hi, abs=1e-10)


def test_sdrip_scaled_orthonormal_rows():
    # A = sqrt(2) * Q with orthonormal rows: every quotient doubles
    rng = np.random.default_rng(4)
    G = rng.standard_normal((4, 4))
    Qm, _ = np.linalg.qr(G)
    Q2 = Qm[:2, :]  # 2 x 4 orthonormal rows
    A = np.sqrt(2.0) * Q2
    F = build_named_frame("identity", 4)
    rep = sdrip_constants(A, F, 1)
    lo, hi = brute_subset_extremes(Q2, F, 1, 1)
    assert rep.theta_plus == pytest.approx(2.0 * hi, rel=1e-10)
    assert rep.theta_minus == pytest.approx(2.0 * lo, abs=1e-10)


def test_sdrip_sandwich_against_full_subset():
    rng = np.random.default_rng(21)
    F = build_parseval_random(3, 5, seed=2)
    A = rng.standard_normal((6, 3)) / np.sqrt(6)
    k = 1
    rep = sdrip_constants(A, F, k)
    delta = drip_constant(A, F, k).delta
    lo_full, hi_full = brute_subset_extremes(A, F, k, A.shape[0])  # full subset only
    assert rep.theta_minus <= lo_full + 1e-12
    assert rep.theta_plus >= hi_full - 1e-12
    assert max(1.0 - rep.theta_minus, rep.theta_plus - 1.0) >= delta - 1e-12


def test_sdrip_half_rule_on_odd_m():
    rng = np.random.default_rng(6)
    F = build_parseval_random(2, 4, seed=8)
    A = rng.standard_normal((5, 2))
    ceil_rep = sdrip_constants(A, F, 1, half_rule="ceil")
    floor_rep = sdrip_constants(A, F, 1, half_rule="floor")
    assert ceil_rep.min_subset_size == 3 and floor_rep.min_subset_size == 2
    # the floor rule ranges over strictly more subsets
    assert floor_rep.theta_minus <= ceil_rep.theta_minus + 1e-12
    assert floor_rep.theta_plus >= ceil_rep.theta_plus - 1e-12


@pytest.mark.parametrize("half_rule", ["bogus", "Ceil", ""])
def test_sdrip_estimators_reject_an_unknown_half_rule(half_rule):
    F = build_parseval_random(2, 4, seed=8)
    A = np.random.default_rng(6).standard_normal((5, 2))
    with pytest.raises(ParameterError):
        sdrip_constants(A, F, 1, half_rule=half_rule)


def test_order_for_t():
    assert drip_order_for_t(1.0, 3) == 3
    assert drip_order_for_t(4.0 / 3.0, 3) == 4
    assert drip_order_for_t(1.1, 5) == 6
    # float roundoff guard: 0.2 * 5 = 1.0000000000000002 must not become 2
    assert drip_order_for_t(0.2, 5) == 1
    with pytest.raises(ParameterError):
        drip_order_for_t(0.0, 3)


def test_budget_guards():
    F = build_parseval_random(8, 30, seed=0)
    A = np.random.default_rng(0).standard_normal((4, 8))
    with pytest.raises(ResourceBudgetError):
        drip_constant(A, F, 15, support_budget=1000)
    # m = 16 rows: C(16, 8) + 1 = 12,871 row sets for each of the 30 supports
    A_big = np.random.default_rng(1).standard_normal((16, 8))
    pairs = (comb(16, 8) + 1) * 30
    assert pairs == 386_130
    with pytest.raises(ResourceBudgetError, match=rf"^12871 x C\(30,1\) = {pairs} \(row set, support\) "
                       rf"pairs exceed the budget {pairs - 1}$"):
        sdrip_constants(A_big, F, 1, support_budget=pairs - 1)
    report = sdrip_constants(A_big, F, 1, support_budget=pairs)  # the budget itself is allowed
    assert report.theta_minus <= report.theta_plus


def _zero_column_frame(n, N, seed):
    """A random Parseval frame with one extra, vanishing column."""
    D = np.hstack([build_parseval_random(n, N - 1, seed).D, np.zeros((n, 1))])
    return TightFrame(D=D)


@pytest.mark.parametrize("half_rule", ["ceil", "floor"])
@pytest.mark.parametrize("m", range(1, 10))
def test_sdrip_matches_brute_force_over_every_layer(m, half_rule):
    # m = 1 and m = 2 (ceil) give h = m: the size-h layer is I = [m] itself
    rng = np.random.default_rng(100 + m)
    frames = [build_parseval_random(3, 5, seed=m), build_named_frame("duplicated_identity", 3),
              _zero_column_frame(3, 5, seed=m)]
    matrices = [rng.standard_normal((m, 3)) / np.sqrt(m),
                np.outer(rng.standard_normal(m), rng.standard_normal(3))]  # rank one
    for F in frames:
        for A in matrices:
            for k in (1, 2, 3):  # k = 3: Grams of d = 3 assembled from their entries
                rep = sdrip_constants(A, F, k, half_rule=half_rule)
                lo, hi = brute_subset_extremes(A, F, k, rep.min_subset_size)
                lo_full, hi_full = brute_subset_extremes(A, F, k, m)
                assert rep.theta_minus == pytest.approx(lo, abs=1e-12)
                assert rep.theta_plus == pytest.approx(hi, abs=1e-12)
                assert rep.delta == pytest.approx(max(hi_full - 1.0, 1.0 - lo_full), abs=1e-12)
                assert rep.details["n_subsets"] == sum(
                    comb(m, s) for s in range(rep.min_subset_size, m + 1))


@pytest.mark.parametrize("half_rule,h", [("ceil", 4), ("floor", 3)])
def test_sdrip_evaluates_the_size_h_layer_and_the_full_rows_only(monkeypatch, half_rule, h):
    # every Gram, from the closed form or the SVD path, is evaluated by
    # sym_eig_bounds on its (e, ...) entries
    counted = []

    def counting(d, entries):
        counted.append(entries[0].size)
        return sym_eig_bounds(d, entries)

    monkeypatch.setattr(rip, "sym_eig_bounds", counting)
    F = _zero_column_frame(3, 6, seed=2)  # order 1: five of the six supports are usable
    A = np.random.default_rng(8).standard_normal((7, 3))
    for order, usable in ((1, 5), (2, 15)):  # order 2: the five with the zero column take the SVD path
        counted.clear()
        sdrip_constants(A, F, order, half_rule=half_rule)
        assert sum(counted) == usable * (comb(7, h) + 1)


@pytest.mark.parametrize("estimate", [drip_constant, sdrip_constants])
@pytest.mark.parametrize("order", [0, 7])
def test_exhaustive_constants_reject_an_order_out_of_range(estimate, order):
    F = build_parseval_random(3, 6, seed=1)
    A = np.random.default_rng(1).standard_normal((5, 3))
    with pytest.raises(ParameterError, match=r"^order must"):
        estimate(A, F, order)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimate", [
    lambda A, F: drip_constant(A, F, 2),
    lambda A, F: sdrip_constants(A, F, 2),
], ids=["drip", "sdrip"])
def test_isometry_constants_reject_a_non_finite_A_before_any_svd(monkeypatch, estimate, value):
    # before the check, NaN raised "every evaluated support has vanishing
    # frame columns" and inf gave delta = inf and theta = NaN
    F = build_parseval_random(3, 5, seed=1)
    A = np.random.default_rng(1).standard_normal((6, 3))
    A[4, 1] = value

    def svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the input checks")

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(DomainError, match="A must be finite"):
        estimate(A, F)
