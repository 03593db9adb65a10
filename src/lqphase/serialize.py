"""Every file read (load_json) and write (write_text) of the package; JSON
encoding/decoding for frames and problems; from_dict, the one decoder of
every flat dataclass payload (trial records, reports, results, configs).
require_mapping rejects a payload that is not a JSON object, naming it.

A frame payload has the keys n, N, D and label, with D a flat row-major list
of n x N entries; any other key, such as the orthonormal complement of D's
rows that older payloads carry, is ignored.  Measurement matrices are nested
lists of rows.  Problems embed their frame so files are self-contained;
frame_id is kept as a label.  Other dataclasses are written as
json_text(asdict(...)).

json_text writes every JSON file and CLI payload as strict JSON: numpy arrays
and scalars become lists and Python scalars, and a non-finite float becomes
the string "inf", "-inf" or "nan", which float() reads back, never the
Infinity or NaN tokens that strict parsers reject.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, replace
from math import isfinite

import numpy as np

from .errors import ConfigurationError, DomainError
from .frames import FRAME_TOL, TightFrame, validate_frame
from .measurement import PhaselessProblem, _check_finite
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


def write_text(path: str, text: str) -> str:
    """Write text to path in UTF-8 with "\n" line ends; returns path.  An
    OSError names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def save_json(obj: dict, path: str) -> str:
    return write_text(path, json_text(obj) + "\n")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"cannot parse {path}: {exc}") from exc


def require_mapping(data, what: str) -> dict:
    """data, if it is a JSON object; anything else raises ConfigurationError
    naming what."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a mapping, got {type(data).__name__}")
    return data


def from_dict(cls, data, what: str):
    """The dataclass cls from a flat payload of its fields.  A non-mapping, an
    unknown key or a missing field without a default raises ConfigurationError
    naming what.  A float or float | None field reads "inf", "-inf" and "nan"
    as floats, an np.ndarray field becomes a float array (a JSON object in it
    raises ConfigurationError naming the field), and every other value is
    taken as read, for the caller to check.  Annotations are strings, as
    every module has ``from __future__ import annotations``."""
    require_mapping(data, what)
    specs = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(specs)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [k for k, f in specs.items() if k not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"missing {what} keys: {sorted(missing)}")
    return cls(**{k: _float_array(v, f"{what} {k}") if specs[k].type == "np.ndarray"
                  else float(v) if specs[k].type in ("float", "float | None") and v in ("inf", "-inf", "nan")
                  else v for k, v in data.items()})


def _float_array(v, name: str) -> np.ndarray:
    """v as a float array; a value float() cannot take, such as a JSON
    object, raises ConfigurationError naming it."""
    try:
        return np.asarray(v, dtype=float)
    except TypeError as exc:
        raise ConfigurationError(f"{name} must hold numbers only: {exc}") from exc


def _numbers(obj, names: list[str], what: str) -> dict:
    """The named fields of obj as floats.  A JSON object, list or null raises
    ConfigurationError naming its field; float() reads a string or rejects it."""
    for name in names:
        if not isinstance(v := getattr(obj, name), (int, float, str)):
            raise ConfigurationError(f"{what} {name} must be a number, got {type(v).__name__}")
    return {name: float(getattr(obj, name)) for name in names}


def frame_to_dict(F: TightFrame) -> dict:
    return {
        "n": F.n,
        "N": F.N,
        "D": [float(x) for x in F.D.ravel()],
        "label": F.label,
    }


def frame_from_dict(data: dict) -> TightFrame:
    require_mapping(data, "frame payload")
    try:
        n, N = int(data["n"]), int(data["N"])
        D = np.asarray(data["D"], dtype=float).reshape(n, N)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"malformed frame payload: {exc}") from exc
    F = TightFrame(D=D, label=str(data.get("label", "frame")))
    report = validate_frame(F)
    if not report.passed:
        raise ConfigurationError(
            f"frame payload violates DD^T = I beyond {FRAME_TOL:g}"
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
    require_mapping(data, "truth payload")
    try:
        coeffs = SparseCoefficients(z=np.asarray(data["z"], dtype=float),
                                    support=tuple(int(i) for i in data["support"]), k=int(data["k"]))
        x = np.asarray(data["x"], dtype=float)
    except KeyError as exc:
        raise ConfigurationError(f"truth payload missing key {exc}") from exc
    if any(not 0 <= i < N for i in coeffs.support):
        raise DomainError(f"truth support {list(coeffs.support)} is not inside [0, {N})")
    if len(coeffs.support) > coeffs.k:
        raise DomainError(f"truth support has {len(coeffs.support)} entries, more than k = {coeffs.k}")
    return DictionarySparseSignal(x=x, z=coeffs, frame_id=str(data.get("frame_id", "frame")))


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
    """Decode a problem, checking A, b, eps and the truth before any solver
    sees them (PhaselessProblem checks A, b and eps)."""
    require_mapping(data, "problem payload")
    try:
        frame = frame_from_dict(data["frame"])
        A = np.asarray(data["A"], dtype=float)
        b = np.asarray(data["b"], dtype=float)
    except KeyError as exc:
        raise ConfigurationError(f"problem payload missing key {exc}") from exc
    truth = truth_from_dict(data["truth"], frame.N) if data.get("truth") else None
    if truth is not None:
        _check_finite("truth x", truth.x, (frame.n,))
        _check_finite("truth z", truth.z.z, (frame.N,))
    return PhaselessProblem(A=A, frame=frame, b=b, eps=float(data.get("eps", 0.0)),
                            q=float(data.get("q", 1.0)), truth=truth)


def rip_report_from_dict(data: dict) -> RipReport:
    """Decode an isometry report, checking that delta and the thetas present are finite."""
    report = from_dict(RipReport, data, "rip report")
    names = ["delta"] + [k for k in ("theta_minus", "theta_plus") if getattr(report, k) is not None]
    values = _numbers(report, names, "rip report")
    _check_finite("delta and thetas of the rip report", np.array(list(values.values())), (len(names),))
    return replace(report, **values)


def solver_result_from_dict(data: dict) -> SolverResult:
    """Decode a solver result, checking that x_hat is a finite vector and that
    objective and feasibility are finite; a counter the payload lacks reads 0."""
    result = from_dict(SolverResult, data, "solver result")
    _check_finite("x_hat", result.x_hat, (result.x_hat.size,))
    scores = _numbers(result, ["objective", "feasibility"], "solver result")
    _check_finite("objective and feasibility", np.array(list(scores.values())), (2,))
    if (cert := result.certificate) is not None:  # the counters and the margin pass through as read
        if not isinstance(cert, dict):
            raise ConfigurationError(f"solver certificate must be a mapping, got {type(cert).__name__}")
        if missing := sorted({"signs", "zero_set"} - set(cert)):
            raise ConfigurationError(f"missing solver certificate keys: {missing}")
        try:
            cert = {**cert, "signs": tuple(cert["signs"]),
                    "zero_set": None if cert["zero_set"] is None else tuple(cert["zero_set"])}
        except TypeError as exc:
            raise ConfigurationError(f"solver certificate signs and zero_set must be lists: {exc}") from exc
    return replace(result, **scores, certificate=cert)
