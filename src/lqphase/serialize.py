"""JSON encoding/decoding for frames, problems and reports, and encoding of witnesses.

Matrices inside frame payloads are flat row-major lists (shape is implied by
n and N); measurement matrices are nested lists of rows.  Problems embed
their frame so files are self-contained; frame_id is kept as a label.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError
from .frames import FRAME_TOL, TightFrame, validate_frame
from .measurement import PhaselessProblem
from .nsp import NspWitness
from .rip import RipReport
from .signals import DictionarySparseSignal, SparseCoefficients
from .solver import ORACLE_COUNTERS, SolverResult

_ORACLE_DIAGNOSTICS = (*ORACLE_COUNTERS, "margin")


def save_json(obj: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return path


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def frame_to_dict(F: TightFrame) -> dict:
    return {
        "n": F.n,
        "N": F.N,
        "D": [float(x) for x in F.D.ravel()],
        "D_perp": [float(x) for x in F.D_perp.ravel()],
        "label": F.label,
    }


def frame_from_dict(data: dict) -> TightFrame:
    try:
        n, N = int(data["n"]), int(data["N"])
        D = np.asarray(data["D"], dtype=float).reshape(n, N)
        D_perp = np.asarray(data["D_perp"], dtype=float).reshape(N - n, N)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"malformed frame payload: {exc}") from exc
    F = TightFrame(n=n, N=N, D=D, D_perp=D_perp, label=str(data.get("label", "frame")))
    report = validate_frame(F)
    if not report.passed:
        raise ConfigurationError(
            f"frame payload violates the Parseval identities beyond {FRAME_TOL:g}"
        )
    return F


def truth_to_dict(sig: DictionarySparseSignal) -> dict:
    return {
        "x": [float(v) for v in sig.x],
        "z": [float(v) for v in sig.z.z],
        "support": list(sig.z.support),
        "k": sig.z.k,
        "frame_id": sig.frame_id,
    }


def truth_from_dict(data: dict) -> DictionarySparseSignal:
    coeffs = SparseCoefficients(
        z=np.asarray(data["z"], dtype=float),
        support=tuple(int(i) for i in data["support"]),
        k=int(data["k"]),
    )
    return DictionarySparseSignal(x=np.asarray(data["x"], dtype=float), z=coeffs,
                                  frame_id=str(data.get("frame_id", "frame")))


def problem_to_dict(P: PhaselessProblem) -> dict:
    out = {
        "A": [[float(v) for v in row] for row in P.A],
        "b": [float(v) for v in P.b],
        "eps": float(P.eps),
        "q": float(P.q),
        "frame": frame_to_dict(P.frame),
        "frame_id": P.frame.label,
    }
    if P.truth is not None:
        out["truth"] = truth_to_dict(P.truth)
    return out


def problem_from_dict(data: dict) -> PhaselessProblem:
    """Decode a problem, checking A, b and eps before any solver sees them."""
    try:
        frame = frame_from_dict(data["frame"])
        A = np.asarray(data["A"], dtype=float)
        b = np.asarray(data["b"], dtype=float)
    except KeyError as exc:
        raise ConfigurationError(f"problem payload missing key {exc}") from exc
    if A.ndim != 2 or A.shape[1] != frame.n or b.shape != A.shape[:1]:
        raise DimensionError(f"A is {A.shape} and b is {b.shape}; need (m, {frame.n}) and (m,)")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise DomainError("A and b must have finite entries")
    eps = float(data.get("eps", 0.0))
    if not (np.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"eps must be finite and nonnegative, got {eps}")
    truth = truth_from_dict(data["truth"]) if data.get("truth") else None
    return PhaselessProblem(A=A, frame=frame, b=b, eps=eps,
                            q=float(data.get("q", 1.0)), truth=truth)


def rip_report_to_dict(r: RipReport) -> dict:
    return {
        "order": r.order,
        "delta": r.delta,
        "theta_minus": r.theta_minus,
        "theta_plus": r.theta_plus,
        "min_subset_size": r.min_subset_size,
        "exhaustive": r.exhaustive,
        "details": r.details,
    }


def rip_report_from_dict(data: dict) -> RipReport:
    return RipReport(
        order=int(data["order"]),
        delta=float(data["delta"]),
        theta_minus=None if data.get("theta_minus") is None else float(data["theta_minus"]),
        theta_plus=None if data.get("theta_plus") is None else float(data["theta_plus"]),
        min_subset_size=None if data.get("min_subset_size") is None else int(data["min_subset_size"]),
        exhaustive=bool(data.get("exhaustive", True)),
        details=dict(data.get("details", {})),
    )


def witness_to_dict(w: NspWitness) -> dict:
    return {
        "Lambda": list(w.Lambda),
        "u": [float(v) for v in w.u],
        "v": [float(v) for v in w.v],
        "q": w.q,
        "k": w.k,
        "lhs": w.lhs,
        "rhs": w.rhs,
        "violated": w.violated,
    }


def solver_result_to_dict(r: SolverResult) -> dict:
    cert = None
    if r.certificate is not None:
        cert = {
            "signs": list(r.certificate["signs"]),
            "zero_set": None if r.certificate["zero_set"] is None else list(r.certificate["zero_set"]),
            "minimum_norm_fallback": r.certificate["minimum_norm_fallback"],
            **{k: r.certificate[k] for k in _ORACLE_DIAGNOSTICS if k in r.certificate},
        }
    return {
        "x_hat": [float(v) for v in r.x_hat],
        "objective": r.objective,
        "feasibility": r.feasibility,
        "method": r.method,
        "certificate": cert,
        "iterations": r.iterations,
        "steps": r.steps,
    }


def solver_result_from_dict(data: dict) -> SolverResult:
    cert = data.get("certificate")
    if cert is not None:
        cert = {
            "signs": tuple(float(s) for s in cert["signs"]),
            "zero_set": None if cert["zero_set"] is None else tuple(int(i) for i in cert["zero_set"]),
            "minimum_norm_fallback": bool(cert["minimum_norm_fallback"]),
            **{k: cert[k] for k in _ORACLE_DIAGNOSTICS if k in cert},
        }
    return SolverResult(
        x_hat=np.asarray(data["x_hat"], dtype=float),
        objective=float(data["objective"]),
        feasibility=float(data["feasibility"]),
        method=str(data["method"]),
        certificate=cert,
        iterations=int(data.get("iterations", 0)),
        steps=int(data.get("steps", 0)),
    )
