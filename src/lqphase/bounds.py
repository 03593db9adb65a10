"""Closed-form stability constants and end-to-end recovery-bound checks.

For exponent q in (0, 1], scale parameter t in (0, 4/3) and isometry defect
delta, the error bound reads

    phase_dist(x_hat, x0) <= c1 * eps + c2 * 2^(2/q-1) * sigma_k / k^(1/q-1/2)

with
    B    = 3 + 2^(2/q-2)
    den  = t - (B - t) * delta          (admissible iff den > 0)
    c1   = (1 + 2^(1/q-1)) * max(t, sqrt(t)) * sqrt(1 + delta) / den
    c2   = (1 + 2^(1/q-1)) * (2^(1/q) * delta + sqrt(den * delta)) / den + 1

At q = 1 these specialize to c3 = 2*max(t,sqrt(t))*sqrt(1+delta)/(t-(4-t)delta)
and c4 = (4*delta + 2*sqrt((t-(4-t)delta)*delta))/(t-(4-t)delta) + 1.

Evaluation happens in extended precision and results within 1e-6 of the
admissibility boundary are flagged as numerically marginal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ParameterError
from .measurement import PhaselessProblem, phase_distance
from .records import TrialRecord
from .rip import RipReport, drip_order_for_t
from .signals import _check_q, best_k_term_error
from .solver import FEAS_RTOL, SolverResult

MARGINAL_TOL = 1e-6
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class BoundConstants:
    q: float
    t: float
    t_tilde: float
    delta: float
    denominator: float
    admissible: bool
    marginal: bool
    c1: float | None = None
    c2: float | None = None


@dataclass(frozen=True)
class AdmissibilityReport:
    q: float
    lower_branch_minus: float
    lower_branch_plus: float
    lower_limit: float
    upper_limit: float
    window_nonempty: bool
    t: float | None
    t_in_window: bool | None
    delta_bound: float


def _check_t(t: float) -> float:
    t = float(t)
    if not (0.0 < t < 4.0 / 3.0):
        raise ParameterError(f"t must lie in (0, 4/3), got {t}")
    return t


def constants_c1_c2(q: float, t: float, delta: float) -> BoundConstants:
    """Stability constants at exponent q; inadmissible delta yields unset constants.

    Any defect at or above the threshold t/(3 + 2^(2/q-2) - t) (always < 1)
    is inadmissible, so arbitrarily large computed defects are accepted and
    simply reported as such.
    """
    q = _check_q(q)
    t = _check_t(t)
    if not delta >= 0.0:  # also rejects NaN
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    qL = np.longdouble(q)
    tL = np.longdouble(t)
    dL = np.longdouble(delta)
    B = 3.0 + 2.0 ** (2.0 / qL - 2.0)
    den = tL - (B - tL) * dL
    threshold = tL / (B - tL)
    marginal = bool(abs(dL - threshold) < MARGINAL_TOL)
    t_tilde = max(t, float(np.sqrt(tL)))
    if den <= 0.0:
        return BoundConstants(q=q, t=t, t_tilde=t_tilde, delta=float(delta),
                              denominator=float(den), admissible=False, marginal=marginal)
    lead = 1.0 + 2.0 ** (1.0 / qL - 1.0)
    c1 = lead * np.longdouble(t_tilde) * np.sqrt(1.0 + dL) / den
    c2 = lead * (2.0 ** (1.0 / qL) * dL + np.sqrt(den * dL)) / den + 1.0
    return BoundConstants(q=q, t=t, t_tilde=t_tilde, delta=float(delta),
                          denominator=float(den), admissible=True, marginal=marginal,
                          c1=float(c1), c2=float(c2))


def constants_c3_c4(t: float, delta: float) -> tuple[float, float]:
    """Specialized constants for the q = 1 model: the c1, c2 of constants_c1_c2."""
    c = constants_c1_c2(1.0, t, delta)
    if not c.admissible:
        raise DomainError(f"delta {delta} is inadmissible at t={t} (needs delta < t/(4-t))")
    return c.c1, c.c2


def admissibility_check(
    q: float,
    t: float | None,
    theta_minus: float,
    theta_plus: float,
) -> AdmissibilityReport:
    """Evaluate the half-subset window condition and the induced defect bound.

    The window requires max of the two branches below to be < t < 4/3; the
    implied restricted-isometry defect is max(1 - theta_minus, theta_plus - 1).
    """
    q = _check_q(q)
    if not (0.0 < theta_minus < 2.0 and 0.0 < theta_plus < 2.0):
        raise ParameterError("theta_minus and theta_plus must lie in (0, 2)")
    B = 3.0 + 2.0 ** (2.0 / q - 2.0)
    branch_minus = B * (1.0 - theta_minus) / (2.0 - theta_minus)
    branch_plus = B * (theta_plus - 1.0) / theta_plus
    lower = max(branch_minus, branch_plus)
    upper = 4.0 / 3.0
    window_nonempty = lower < upper
    t_in = None
    if t is not None:
        t = float(t)
        t_in = bool(lower < t < upper)
    return AdmissibilityReport(
        q=q,
        lower_branch_minus=branch_minus,
        lower_branch_plus=branch_plus,
        lower_limit=lower,
        upper_limit=upper,
        window_nonempty=window_nonempty,
        t=t,
        t_in_window=t_in,
        delta_bound=max(1.0 - theta_minus, theta_plus - 1.0),
    )


def bound_rhs(consts: BoundConstants, eps: float, sigma: float, k: int) -> float:
    """c1*eps + c2 * 2^(2/q-1) * sigma / k^(1/q-1/2)."""
    if not consts.admissible or consts.c1 is None or consts.c2 is None:
        raise DomainError("bound constants are inadmissible; no right-hand side exists")
    if eps < 0.0 or sigma < 0.0 or k < 1:
        raise ParameterError("need eps >= 0, sigma >= 0 and k >= 1")
    q = consts.q
    return float(consts.c1 * eps
                 + consts.c2 * 2.0 ** (2.0 / q - 1.0) * sigma / k ** (1.0 / q - 0.5))


def verify_recovery_bound(
    P: PhaselessProblem,
    result: SolverResult,
    rip: RipReport,
    t: float,
) -> TrialRecord:
    """Compare the phase-invariant error of a solver run against the bound.

    The defect fed into the constants is the exhaustively computed one at
    order ceil(t*k); when half-subset extremes are present in the report, the
    implied bound max(1-theta_minus, theta_plus-1) is recorded alongside.
    Inadmissible instances yield bound_status = "not_applicable".  An
    admissible trial whose uncertified x_hat lies outside the constraint set,
    || |A x_hat| - b || > eps + FEAS_RTOL max(1, ||b||), fails, and its reason
    names the violation.
    """
    if P.truth is None:
        raise ConfigurationError("bound verification needs the ground-truth signal")
    k = P.truth.z.k
    expected_order = drip_order_for_t(t, k)
    if rip.order != expected_order:
        raise ConfigurationError(
            f"restricted-isometry report was computed at order {rip.order}, "
            f"but t={t}, k={k} requires order {expected_order}"
        )
    consts = constants_c1_c2(P.q, t, rip.delta)
    sigma = best_k_term_error(P.frame.D.T @ P.truth.x, k, P.q)
    lhs = phase_distance(result.x_hat, P.truth.x, field="real")
    delta_theta = None
    theta_window = None
    if rip.theta_minus is not None and rip.theta_plus is not None:
        delta_theta = max(1.0 - rip.theta_minus, rip.theta_plus - 1.0)
        if 0.0 < rip.theta_minus < 2.0 and 0.0 < rip.theta_plus < 2.0:
            theta_window = admissibility_check(P.q, t, rip.theta_minus, rip.theta_plus).t_in_window
        else:
            theta_window = False
    reason = ""
    if consts.admissible:
        rhs = bound_rhs(consts, P.eps, sigma, k)
        status = "pass" if lhs <= rhs + BOUND_TOL else "fail"
        if result.method != "oracle":
            # the oracle certifies feasibility itself; an uncertified x_hat
            # outside the constraint set is no solution of the model, whatever
            # its error, and without an optimality certificate a violation of
            # the bound indicts the solver, not the bound
            limit = P.eps + FEAS_RTOL * max(1.0, float(np.linalg.norm(P.b)))
            if result.feasibility > limit:
                status = "fail"
                reason = (f"infeasible x_hat: || |A x_hat| - b || = {result.feasibility:.6g} "
                          f"exceeds eps + FEAS_RTOL max(1, ||b||) = {limit:.6g}")
            elif status == "fail":
                reason = "uncertified solver; violation indicates suboptimality"
    else:
        rhs = None
        status = "not_applicable"
    return TrialRecord(
        n=P.n, N=P.frame.N, m=P.m, k=k, q=P.q, t=float(t), eps=P.eps,
        reason=reason,
        delta=rip.delta, delta_order=rip.order,
        theta_minus=rip.theta_minus, theta_plus=rip.theta_plus,
        delta_theta_bound=delta_theta, theta_window_ok=theta_window,
        admissible=consts.admissible, marginal=consts.marginal,
        sigma_k=sigma, method=result.method, objective=result.objective,
        feasibility=result.feasibility, solver_iterations=result.iterations,
        lhs=lhs, rhs=rhs, bound_status=status,
    )
