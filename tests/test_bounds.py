import dataclasses

import numpy as np
import pytest
import sympy as sp

from lqphase import serialize
from lqphase.bounds import (
    admissibility_check,
    bound_rhs,
    constants_c1_c2,
    verify_recovery_bound,
)
from lqphase.cli import main
from lqphase.errors import ConfigurationError, DomainError, ParameterError
from lqphase.frames import build_named_frame, build_parseval_random
from lqphase.measurement import build_problem
from lqphase.rip import RipReport, drip_constant, drip_order_for_t
from lqphase.signals import sample_dictionary_sparse
from lqphase.solver import FEAS_RTOL, SolverResult, solve_oracle_noiseless


def c3_c4_closed_form(t, delta):
    """The q = 1 constants c3, c4 as the bounds docstring states them,
    evaluated in float64 apart from constants_c1_c2."""
    den = t - (4.0 - t) * delta
    c3 = 2.0 * max(t, np.sqrt(t)) * np.sqrt(1.0 + delta) / den
    c4 = (4.0 * delta + 2.0 * np.sqrt(den * delta)) / den + 1.0
    return c3, c4


def sympy_constants(q, t, delta):
    """Independent high-precision evaluation of the closed forms."""
    qS, tS, dS = sp.Rational(q) if isinstance(q, str) else sp.nsimplify(q), sp.nsimplify(t), sp.nsimplify(delta)
    B = 3 + 2 ** (sp.Integer(2) / qS - 2)
    den = tS - (B - tS) * dS
    t_tilde = sp.Max(tS, sp.sqrt(tS))
    lead = 1 + 2 ** (1 / qS - 1)
    c1 = lead * t_tilde * sp.sqrt(1 + dS) / den
    c2 = lead * (2 ** (1 / qS) * dS + sp.sqrt(den * dS)) / den + 1
    return float(sp.N(c1, 30)), float(sp.N(c2, 30))


def test_constants_at_zero_defect():
    c = constants_c1_c2(1.0, 1.0, 0.0)
    assert (c.c1, c.c2) == (2.0, 1.0)
    assert c.admissible and not c.marginal
    assert c.denominator == pytest.approx(1.0)


def test_constants_frozen_example():
    c = constants_c1_c2(1.0, 1.0, 0.1)
    assert c.denominator == pytest.approx(0.7)
    e1, e2 = sympy_constants(1, 1, sp.Rational(1, 10))
    assert c.c1 == pytest.approx(e1, abs=1e-14)
    assert c.c2 == pytest.approx(e2, abs=1e-14)
    # the same closed form written directly
    assert c.c1 == pytest.approx(2 * np.sqrt(1.1) / 0.7, abs=1e-14)
    assert c.c2 == pytest.approx(2 * (0.2 + np.sqrt(0.07)) / 0.7 + 1, abs=1e-14)


def test_constants_sympy_cross_check_grid():
    for q in (0.25, 0.5, 0.75, 1.0):
        for t, delta in ((0.5, 0.02), (1.0, 0.05), (1.25, 0.01)):
            c = constants_c1_c2(q, t, delta)
            if not c.admissible:
                continue
            e1, e2 = sympy_constants(q, t, delta)
            assert c.c1 == pytest.approx(e1, rel=1e-13)
            assert c.c2 == pytest.approx(e2, rel=1e-13)


def test_half_exponent_threshold():
    # q = 1/2: 2^(2/q-2) = 4, threshold t/(7-t) = 1/6 at t = 1
    c = constants_c1_c2(0.5, 1.0, 1.0 / 6.0 + 1e-9)
    assert not c.admissible
    c2 = constants_c1_c2(0.5, 1.0, 1.0 / 6.0 - 1e-3)
    assert c2.admissible
    marg = constants_c1_c2(0.5, 1.0, 1.0 / 6.0 - 1e-8)
    assert marg.marginal


def test_constants_parameter_errors():
    with pytest.raises(ParameterError):
        constants_c1_c2(1.0, 1.5, 0.1)
    with pytest.raises(ParameterError):
        constants_c1_c2(1.0, 0.0, 0.1)
    with pytest.raises(ParameterError):
        constants_c1_c2(1.0, 1.0, -0.1)
    with pytest.raises(ParameterError):
        constants_c1_c2(2.0, 1.0, 0.1)
    # defects at or above the threshold (in particular >= 1) are reported, not raised
    big = constants_c1_c2(1.0, 1.0, 1.3)
    assert not big.admissible and big.c1 is None


def test_nan_defect_is_rejected(tmp_path, capsys):
    assert not constants_c1_c2(0.5, 1.0, float("inf")).admissible  # inf stays inadmissible
    with pytest.raises(ParameterError, match="delta"):
        constants_c1_c2(0.5, 1.0, float("nan"))
    with pytest.raises(ParameterError, match="delta"):
        constants_c1_c2(1.0, 1.0, float("nan"))  # the q = 1 constants c3, c4
    assert main(["bound", "check", "--q", "0.5", "--t", "1.0", "--delta", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: delta")
    # a trial whose report carries delta = NaN is an error, not a failed bound
    F = build_parseval_random(3, 5, seed=1)
    truth = sample_dictionary_sparse(F, 1, seed=2)
    A = np.random.default_rng(3).standard_normal((5, 3))
    P = build_problem(A, F, truth, q=1.0)
    trial = {"problem": serialize.problem_to_dict(P),
             "result": dataclasses.asdict(solve_oracle_noiseless(P)),
             "rip": dataclasses.asdict(RipReport(order=1, delta=float("nan"))),
             "t": 1.0}
    path = tmp_path / "trial.json"
    serialize.save_json(trial, str(path))
    assert main(["bound", "verify", "--trial", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: delta")


def test_specialization_q_one_equals_c3_c4():
    c = constants_c1_c2(1.0, 1.0, 0.0)
    assert (c.c1, c.c2) == (2.0, 1.0) == c3_c4_closed_form(1.0, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = float(rng.uniform(0.05, 4.0 / 3.0 - 1e-6))
        delta = float(rng.uniform(0.0, t / (4.0 - t) * 0.999))
        c = constants_c1_c2(1.0, t, delta)
        c3, c4 = c3_c4_closed_form(t, delta)
        assert c.c1 == pytest.approx(c3, rel=1e-12)
        assert c.c2 == pytest.approx(c4, rel=1e-12)


def test_c3_c4_frozen_point():
    # denominator 1.2 - 2.8*0.2 = 0.64
    c = constants_c1_c2(1.0, 1.2, 0.2)
    assert c.admissible and c.c1 > 0 and c.c2 >= 1
    assert c.c1 == pytest.approx(2 * 1.2 * np.sqrt(1.2) / 0.64, abs=1e-12)
    assert c.c2 == pytest.approx((0.8 + 2 * np.sqrt(0.64 * 0.2)) / 0.64 + 1, abs=1e-12)
    at_threshold = constants_c1_c2(1.0, 1.0, 0.4)  # threshold 1/3
    assert not at_threshold.admissible and at_threshold.c1 is None and at_threshold.c2 is None


def test_admissibility_window():
    rep = admissibility_check(1.0, 1.0, 1.0, 1.0)
    assert rep.lower_limit == 0.0 and rep.t_in_window and rep.delta_bound == 0.0

    rep = admissibility_check(1.0, None, 0.9, 1.1)
    assert rep.lower_limit == pytest.approx(4.0 / 11.0)
    assert rep.window_nonempty

    rep = admissibility_check(0.5, None, 0.5, 1.0)
    assert rep.lower_limit >= 7.0 / 3.0 - 1e-12
    assert not rep.window_nonempty

    with pytest.raises(ParameterError):
        admissibility_check(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        admissibility_check(1.0, 1.0, 0.5, 2.0)


def test_bound_rhs_values_and_linearity():
    consts = constants_c1_c2(1.0, 1.0, 0.0)  # c1=2, c2=1
    assert bound_rhs(consts, 0.0, 0.0, 3) == 0.0
    # q=1, k=4, sigma=2, eps=0: c2 * 2 * 2 / 2 = 2
    assert bound_rhs(consts, 0.0, 2.0, 4) == pytest.approx(2.0)
    # linear in eps and sigma separately
    r1 = bound_rhs(consts, 0.3, 1.0, 4)
    r2 = bound_rhs(consts, 0.6, 1.0, 4)
    r0 = bound_rhs(consts, 0.0, 1.0, 4)
    assert r2 - r1 == pytest.approx(r1 - r0)
    s1 = bound_rhs(consts, 0.1, 1.0, 4)
    s2 = bound_rhs(consts, 0.1, 2.0, 4)
    s0 = bound_rhs(consts, 0.1, 0.0, 4)
    assert s2 - s1 == pytest.approx(s1 - s0)


def test_bound_rhs_high_precision_point():
    consts = constants_c1_c2(0.5, 1.0, 0.05)
    val = bound_rhs(consts, 0.1, 0.5, 1)
    e1, e2 = sympy_constants(0.5, 1.0, 0.05)
    expected = e1 * 0.1 + e2 * 2.0 ** (2.0 / 0.5 - 1.0) * 0.5 / 1.0
    assert val == pytest.approx(expected, rel=1e-12)
    bad = constants_c1_c2(0.5, 1.0, 0.3)
    with pytest.raises(DomainError):
        bound_rhs(bad, 0.1, 0.5, 1)


def test_delta_monotonicity_of_constants():
    for q in (0.5, 1.0):
        B = 3.0 + 2.0 ** (2.0 / q - 2.0)
        t = 1.0
        deltas = np.linspace(0.0, t / (B - t) * 0.98, 60)
        c1s, c2s = [], []
        for d in deltas:
            c = constants_c1_c2(q, t, float(d))
            c1s.append(c.c1)
            c2s.append(c.c2)
        assert all(a <= b + 1e-12 for a, b in zip(c1s, c1s[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(c2s, c2s[1:]))


def test_limit_at_zero_defect():
    for q in (0.25, 0.5, 0.75, 1.0):
        c = constants_c1_c2(q, 1.0, 1e-14)
        assert c.c1 == pytest.approx(1.0 + 2.0 ** (1.0 / q - 1.0), rel=1e-6)
        assert c.c2 == pytest.approx(1.0, rel=1e-6)


def _oracle_trial(seed, t=1.0, q=1.0, n=4, N=4, m=8):
    F = build_parseval_random(n, N, seed=seed)
    truth = sample_dictionary_sparse(F, 1, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    G = rng.standard_normal((m, n))
    Q, R = np.linalg.qr(G)
    A = Q * np.sign(np.diag(R))  # orthonormal columns: zero defect
    P = build_problem(A, F, truth, q=q)
    order = drip_order_for_t(t, 1)
    delta = drip_constant(A, F, order).delta
    rip = RipReport(order=order, delta=delta)
    result = solve_oracle_noiseless(P)
    return P, result, rip


def test_verify_recovery_bound_pass():
    P, result, rip = _oracle_trial(3)
    rec = verify_recovery_bound(P, result, rip, 1.0)
    assert rec.bound_status == "pass"
    assert rec.lhs <= 1e-10
    assert rec.admissible and rec.delta == pytest.approx(0.0, abs=1e-10)
    assert rec.sigma_k == pytest.approx(0.0, abs=1e-8)


def test_verify_recovery_bound_not_applicable():
    P, result, _ = _oracle_trial(4)
    rip = RipReport(order=1, delta=0.9)
    rec = verify_recovery_bound(P, result, rip, 1.0)
    assert rec.bound_status == "not_applicable" and rec.rhs is None


def test_verify_recovery_bound_guards():
    P, result, rip = _oracle_trial(5)
    with pytest.raises(ConfigurationError, match="order"):
        verify_recovery_bound(P, result, rip, 1.3)  # needs order 2
    from dataclasses import replace
    with pytest.raises(ConfigurationError, match="truth"):
        verify_recovery_bound(replace(P, truth=None), result, rip, 1.0)


def test_verify_records_theta_bound_when_present():
    P, result, _ = _oracle_trial(6, m=6)
    from lqphase.rip import sdrip_constants
    rip = sdrip_constants(P.A, P.frame, 1)
    rec = verify_recovery_bound(P, result, rip, 1.0)
    assert rec.delta_theta_bound == pytest.approx(
        max(1.0 - rip.theta_minus, rip.theta_plus - 1.0)
    )


def test_infeasible_uncertified_x_hat_fails_the_bound():
    # x_hat = (1 + s) x0 with s ||x0|| = 0.08: within the bound's right-hand
    # side 2 eps = 0.1 (delta = 0, sigma = 0), but || |A x_hat| - b || = 0.08
    # breaks the constraint || |A x| - b || <= eps = 0.05
    from dataclasses import replace
    P, oracle, rip = _oracle_trial(3)
    P = replace(P, eps=0.05)
    x_hat = P.truth.x * (1.0 + 0.08 / np.linalg.norm(P.truth.x))
    feas = float(np.linalg.norm(np.abs(P.A @ x_hat) - P.b))
    result = SolverResult(x_hat=x_hat, objective=oracle.objective, feasibility=feas, method="irls")
    rec = verify_recovery_bound(P, result, rip, 1.0)
    assert feas == pytest.approx(0.08) and rec.lhs <= rec.rhs
    assert rec.bound_status == "fail"
    assert rec.reason.startswith("infeasible x_hat") and f"{feas:.6g}" in rec.reason
    # inside the noise band the same error passes
    inside = replace(result, feasibility=0.05)
    assert verify_recovery_bound(P, inside, rip, 1.0).bound_status == "pass"
    # the certified oracle's records are left as they were
    assert verify_recovery_bound(P, replace(result, method="oracle"), rip, 1.0).bound_status == "pass"


def _identity_trial(scale):
    """The identity frame at n = 4 and A (7 x 4) with orthonormal columns, so
    delta = 0, with a 1-sparse truth, so sigma_k = 0: noiseless, rhs is 0.
    x0, and with it b, is scale times that of scale 1."""
    F = build_named_frame("identity", 4)
    truth = sample_dictionary_sparse(F, 1, seed=1)
    truth = dataclasses.replace(truth, x=scale * truth.x,
                                z=dataclasses.replace(truth.z, z=scale * truth.z.z))
    Q, R = np.linalg.qr(np.random.default_rng(1).standard_normal((7, 4)))
    A = Q * np.sign(np.diag(R))
    rip = RipReport(order=1, delta=drip_constant(A, F, 1).delta)
    return build_problem(A, F, truth, q=1.0), rip


def test_bound_verdict_does_not_depend_on_the_data_scale():
    # an absolute slack passed x_hat = x0 + 0.3 at scale 1e-12 (lhs 6e-13 <=
    # rhs + 1e-9 with rhs 0) and failed x0 (1 + 1e-12) at 1e8
    for scale in (1.0, 1e-12, 1e8):
        P, rip = _identity_trial(scale)
        x0 = P.truth.x

        def verdict(x_hat):
            result = SolverResult(x_hat=x_hat, objective=0.0, feasibility=0.0, method="oracle")
            return verify_recovery_bound(P, result, rip, 1.0)

        assert rip.delta == pytest.approx(0.0, abs=1e-12)
        off = verdict(x0 + scale * 0.3)  # 0.3 scale in each of 4 entries: 0.6 scale away
        assert (off.rhs, off.bound_status) == (0.0, "fail")
        assert off.lhs == pytest.approx(0.6 * scale)
        assert verdict(x0).bound_status == "pass"
        assert verdict(x0 * (1.0 + 1e-12)).bound_status == "pass"  # a rounding-level error


def test_uncertified_x_hat_must_lie_in_the_irls_noise_band():
    # the limit is the band IRLS stops at, eps + FEAS_RTOL ||b||; with a
    # floor max(1, ||b||), a point FEAS_RTOL / 2 off passed whenever ||b|| < 1
    for scale in (1e-3, 1e3):
        P, rip = _identity_trial(scale)
        band = FEAS_RTOL * float(np.linalg.norm(P.b))
        result = SolverResult(x_hat=P.truth.x, objective=0.0, feasibility=0.0, method="irls")

        def verdict(feasibility):
            return verify_recovery_bound(P, dataclasses.replace(result, feasibility=feasibility), rip, 1.0)

        assert verdict(0.5 * band).bound_status == "pass"
        outside = verdict(2.0 * band)
        assert outside.bound_status == "fail"
        assert outside.reason == (f"infeasible x_hat: || |A x_hat| - b || = {2.0 * band:.6g} "
                                  f"exceeds eps + FEAS_RTOL ||b|| = {band:.6g}")
        assert verdict(0.5 * FEAS_RTOL).bound_status == ("fail" if band < FEAS_RTOL else "pass")
