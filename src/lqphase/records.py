"""Experiment configuration and trial records, with CSV/JSON emission.

The CSV schema is fixed: CSV_COLUMNS is the golden-tested column list, pinned
by ``test_emit_csv_golden_header_and_format``.  Output is byte-identical for
identical (config, seed) regardless of machine, and floats are serialized with
17 significant digits.

TrialRecord fields outside CSV_COLUMNS are JSON-only: ``wall_time_s`` because
timings would break byte-stable output, and ``theta_window_ok`` because it is
derived from ``q``, ``t``, ``theta_minus`` and ``theta_plus``, which the CSV
already carries.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from math import inf
from numbers import Integral

from .errors import ConfigurationError, ParameterError
from .rip import SDRIP_MAX_M, SUPPORT_BUDGET, _min_subset_size
from .serialize import json_text
from .signals import MAGNITUDE_LAWS
from .solver import ORACLE_MAX_M, IrlsOptions

CSV_COLUMNS = (
    "cell_index", "trial_index", "n", "N", "m", "k", "q", "t", "eps", "seed",
    "status", "reason", "delta", "delta_order", "theta_minus", "theta_plus",
    "delta_theta_bound", "admissible", "marginal", "sigma_k", "eps_realized",
    "method", "objective", "feasibility", "solver_iterations",
    "lhs", "rhs", "bound_status",
)

CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class TrialRecord:
    """One recovery experiment; reproducible from (config, master seed, indices)."""

    cell_index: int = -1
    trial_index: int = -1
    n: int = 0
    N: int = 0
    m: int = 0
    k: int = 0
    q: float = 1.0
    t: float = 1.0
    eps: float = 0.0
    seed: int = 0
    status: str = "ok"  # ok | skipped
    reason: str = ""
    delta: float | None = None
    delta_order: int | None = None
    theta_minus: float | None = None
    theta_plus: float | None = None
    delta_theta_bound: float | None = None
    theta_window_ok: bool | None = None
    admissible: bool | None = None
    marginal: bool | None = None
    sigma_k: float | None = None
    eps_realized: float | None = None
    method: str = ""
    objective: float | None = None
    feasibility: float | None = None
    solver_iterations: int | None = None
    lhs: float | None = None
    rhs: float | None = None
    bound_status: str = ""  # pass | fail | not_applicable | ""
    wall_time_s: float | None = None


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    return str(v).replace(",", ";")


def records_to_csv(records: list[TrialRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        d = asdict(r)
        lines.append(",".join(_fmt_cell(d[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_results(records: list[TrialRecord], format: str, path: str) -> str:
    """Write records as CSV (stable column order) or a JSON array; returns path."""
    if not records:
        raise ParameterError("no records to emit")
    if format == "csv":
        payload = records_to_csv(records)
    elif format == "json":
        payload = json_text([asdict(r) for r in records])
    else:
        raise ParameterError(f"format must be 'csv' or 'json', got {format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    return path


def records_from_json(path: str) -> list[TrialRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    names = {f.name for f in fields(TrialRecord)}
    floats = {f.name for f in fields(TrialRecord) if "float" in f.type}
    # json_text writes a non-finite float as "inf", "-inf" or "nan"
    return [TrialRecord(**{k: float(v) if k in floats and isinstance(v, str) else v
                           for k, v in item.items() if k in names}) for item in raw]


def _is_int(v) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(v, Integral) and not isinstance(v, bool)


@dataclass
class ExperimentConfig:
    """Grid definition for bound-verification and phase-transition sweeps."""

    n_values: list[int]
    N_values: list[int]
    m_values: list[int]
    k_values: list[int]
    q_values: list[float]
    t_values: list[float] = field(default_factory=lambda: [1.0])
    eps_values: list[float] = field(default_factory=lambda: [0.0])
    trials: int = 1
    master_seed: int = 0
    solver: str = "oracle"
    solver_options: dict = field(default_factory=dict)
    frame_kind: str = "random"  # random | identity | duplicated_identity | mercedes
    matrix_ensemble: str = "gaussian"  # gaussian | orthonormal | near_isometric
    jitter: float = 0.05
    magnitude_law: str = "gaussian"
    compute_sdrip: bool = False
    half_rule: str = "ceil"
    support_budget: int = SUPPORT_BUDGET
    oracle_max_m: int = ORACLE_MAX_M
    sdrip_max_m: int = SDRIP_MAX_M
    success_tol: float = 1e-6
    version: int = 1

    def validate(self) -> None:
        if self.version != 1:
            raise ConfigurationError(f"unsupported config version {self.version}")
        for name in ("n_values", "N_values", "m_values", "k_values",
                     "q_values", "t_values", "eps_values"):
            vals = getattr(self, name)
            if not vals:
                raise ConfigurationError(f"{name} must be nonempty")
        for name in ("n_values", "N_values", "m_values", "k_values"):
            if not all(_is_int(v) for v in getattr(self, name)):
                raise ConfigurationError(f"every value of {name} must be an integer")
        for name in ("n_values", "N_values", "m_values"):
            if any(v < 1 for v in getattr(self, name)):
                raise ConfigurationError(f"every value of {name} must be >= 1")
        if any(k < 0 for k in self.k_values):
            raise ConfigurationError("every value of k_values must be >= 0")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigurationError("trials must be an integer >= 1")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigurationError("master_seed must be an integer >= 0")
        # a NaN guard would switch its guard off: every comparison with it is false
        for name in ("support_budget", "oracle_max_m", "sdrip_max_m"):
            if not _is_int(getattr(self, name)) or getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1")
        if any(not (0.0 < q <= 1.0) for q in self.q_values):
            raise ConfigurationError("every q must lie in (0, 1]")
        if any(not (0.0 < t < 4.0 / 3.0) for t in self.t_values):
            raise ConfigurationError("every t must lie in (0, 4/3)")
        if any(not (0.0 <= e < inf) for e in self.eps_values):
            raise ConfigurationError("every value of eps_values must be finite and >= 0")
        if not (0.0 <= self.jitter < inf):
            raise ConfigurationError("jitter must be finite and >= 0")
        if not (0.0 < self.success_tol < inf):
            raise ConfigurationError("success_tol must be finite and > 0")
        if self.solver not in ("oracle", "irls"):
            raise ConfigurationError(f"unknown solver {self.solver!r}")
        # IRLS reads these options in irls sweeps and in transition cells
        # above the oracle guard, with each trial's derived seed
        IrlsOptions.from_dict(self.solver_options)
        if "seed" in self.solver_options:
            raise ConfigurationError("solver_options cannot set 'seed': each trial derives its own")
        if self.matrix_ensemble not in ("gaussian", "orthonormal", "near_isometric"):
            raise ConfigurationError(f"unknown matrix ensemble {self.matrix_ensemble!r}")
        if self.magnitude_law not in MAGNITUDE_LAWS:
            raise ConfigurationError(f"unknown magnitude law {self.magnitude_law!r}")
        try:
            _min_subset_size(1, self.half_rule)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from None
        if any(n > N for n in self.n_values for N in self.N_values):
            raise ConfigurationError("every n must be <= every N in the grid")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING and f.default_factory is MISSING} - set(data)
        if missing:
            raise ConfigurationError(f"missing config keys: {sorted(missing)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
