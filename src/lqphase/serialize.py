"""JSON encoding/decoding for frames and problems; decoding of reports and results.

Matrices inside frame payloads are flat row-major lists (shape is implied by
n and N); measurement matrices are nested lists of rows.  Problems embed
their frame so files are self-contained; frame_id is kept as a label.
Reports, witnesses and solver results are written as json_text(asdict(...)).

json_text writes every JSON file and CLI payload as strict JSON: numpy arrays
and scalars become lists and Python scalars, and a non-finite float becomes
the string "inf", "-inf" or "nan", which float() reads back, never the
Infinity or NaN tokens that strict parsers reject.
"""

from __future__ import annotations

import json
from math import isfinite

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError
from .frames import FRAME_TOL, TightFrame, validate_frame
from .measurement import PhaselessProblem
from .rip import RipReport
from .signals import DictionarySparseSignal, SparseCoefficients
from .solver import SolverResult


def _strict(v):
    if isinstance(v, np.ndarray):
        return _strict(v.tolist())
    if isinstance(v, np.generic):
        return _strict(v.item())
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    if isinstance(v, float) and not isfinite(v):
        return str(float(v))  # "inf", "-inf" or "nan"
    return v


def json_text(obj) -> str:
    """obj as strict JSON text, one-space indented: numpy arrays and scalars
    become lists and Python scalars, non-finite floats "inf", "-inf" or "nan"."""
    return json.dumps(_strict(obj), indent=1, allow_nan=False)


def save_json(obj: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(obj) + "\n")
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


def truth_from_dict(data: dict, N: int) -> DictionarySparseSignal:
    """Decode a truth signal of a frame with N columns; its support must lie
    in [0, N) and have at most k entries."""
    coeffs = SparseCoefficients(
        z=np.asarray(data["z"], dtype=float),
        support=tuple(int(i) for i in data["support"]),
        k=int(data["k"]),
    )
    if any(not 0 <= i < N for i in coeffs.support):
        raise DomainError(f"truth support {list(coeffs.support)} is not inside [0, {N})")
    if len(coeffs.support) > coeffs.k:
        raise DomainError(f"truth support has {len(coeffs.support)} entries, more than k = {coeffs.k}")
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


def _check_finite(name: str, v: np.ndarray, shape: tuple) -> None:
    if v.shape != shape:
        raise DimensionError(f"{name} is {v.shape}; need {shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must have finite entries")


def problem_from_dict(data: dict) -> PhaselessProblem:
    """Decode a problem, checking A, b, eps and the truth before any solver sees them."""
    try:
        frame = frame_from_dict(data["frame"])
        A = np.asarray(data["A"], dtype=float)
        b = np.asarray(data["b"], dtype=float)
    except KeyError as exc:
        raise ConfigurationError(f"problem payload missing key {exc}") from exc
    _check_finite("A", A, (*A.shape[:1], frame.n))
    _check_finite("b", b, A.shape[:1])
    truth = truth_from_dict(data["truth"], frame.N) if data.get("truth") else None
    if truth is not None:
        _check_finite("truth x", truth.x, (frame.n,))
        _check_finite("truth z", truth.z.z, (frame.N,))
    return PhaselessProblem(A=A, frame=frame, b=b, eps=float(data.get("eps", 0.0)),
                            q=float(data.get("q", 1.0)), truth=truth)


def rip_report_from_dict(data: dict) -> RipReport:
    """Decode an isometry report, checking that delta and the thetas present are finite."""
    report = RipReport(
        order=int(data["order"]),
        delta=float(data["delta"]),
        theta_minus=None if data.get("theta_minus") is None else float(data["theta_minus"]),
        theta_plus=None if data.get("theta_plus") is None else float(data["theta_plus"]),
        min_subset_size=None if data.get("min_subset_size") is None else int(data["min_subset_size"]),
        exhaustive=bool(data.get("exhaustive", True)),
        details=dict(data.get("details", {})),
    )
    values = [v for v in (report.delta, report.theta_minus, report.theta_plus) if v is not None]
    _check_finite("delta and thetas of the rip report", np.array(values), (len(values),))
    return report


def solver_result_from_dict(data: dict) -> SolverResult:
    """Decode a solver result, checking that x_hat is a finite vector and that
    objective and feasibility are finite; a counter the payload lacks reads 0."""
    cert = data.get("certificate")
    if cert is not None:  # the counters and the margin pass through as read
        cert = {
            **cert,
            "signs": tuple(float(s) for s in cert["signs"]),
            "zero_set": None if cert["zero_set"] is None else tuple(int(i) for i in cert["zero_set"]),
            "minimum_norm_fallback": bool(cert["minimum_norm_fallback"]),
        }
    result = SolverResult(
        x_hat=np.asarray(data["x_hat"], dtype=float),
        objective=float(data["objective"]),
        feasibility=float(data["feasibility"]),
        method=str(data["method"]),
        certificate=cert,
        exits={str(k): int(v) for k, v in data.get("exits", {}).items()},
        **{k: int(data.get(k, 0)) for k in ("iterations", "steps", "feasible_classes", "tree_nodes")},
    )
    _check_finite("x_hat", result.x_hat, (result.x_hat.size,))
    _check_finite("objective and feasibility", np.array([result.objective, result.feasibility]), (2,))
    return result
