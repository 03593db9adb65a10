"""Experiment configuration, trial records and transition cells, with CSV/JSON
emission.

The CSV schemas are fixed: CSV_COLUMNS is the golden-tested column list, pinned
by ``test_emit_csv_golden_header_and_format``, and TRANSITION_COLUMNS that of
transition sweeps.  csv_text writes both, so output is byte-identical for
identical (config, seed) regardless of machine, and floats are serialized with
17 significant digits.

TrialRecord fields outside CSV_COLUMNS are JSON-only: ``wall_time_s`` because
timings would break byte-stable output, and ``theta_window_ok`` because it is
derived from ``q``, ``t``, ``theta_minus`` and ``theta_plus``, which the CSV
already carries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import inf
from numbers import Integral, Real

from .errors import ConfigurationError, ParameterError
from .frames import NAMED_FRAMES
from .rip import SDRIP_MAX_M, SUPPORT_BUDGET, _min_subset_size
from .serialize import from_dict, json_text, load_json, write_text
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

TRANSITION_COLUMNS = ("cell_index", "n", "N", "m", "k", "q", "trials", "successes", "rate")

MATRIX_ENSEMBLES = ("gaussian", "orthonormal", "near_isometric")


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


@dataclass(frozen=True)
class TransitionCell:
    cell_index: int
    n: int
    N: int
    m: int
    k: int
    q: float
    trials: int
    successes: int
    # exception type of each trial whose solver raised (counted as no success);
    # not a CSV column
    errors: tuple[str, ...] = ()

    @property
    def rate(self) -> float:
        return self.successes / self.trials


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


def csv_text(rows: list, columns: tuple[str, ...]) -> str:
    """A header line of columns, then one line per row of the row's attributes
    named by columns."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt_cell(getattr(row, c)) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[TrialRecord]) -> str:
    return csv_text(records, CSV_COLUMNS)


def transition_to_csv(cells: list[TransitionCell]) -> str:
    return csv_text(cells, TRANSITION_COLUMNS)


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
    return write_text(path, payload)


def records_from_json(path: str) -> list[TrialRecord]:
    return [from_dict(TrialRecord, item, "trial record") for item in load_json(path)]


def _is_int(v) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """True for Python and numpy real numbers, but not for bools."""
    return isinstance(v, Real) and not isinstance(v, bool)


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
    matrix_ensemble: str = "gaussian"  # one of MATRIX_ENSEMBLES
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
        # a string would fail the range checks below with a TypeError, and
        # a bool would pass them as 0 or 1
        for name in ("q_values", "t_values", "eps_values"):
            if not all(_is_real(v) for v in getattr(self, name)):
                raise ConfigurationError(f"every value of {name} must be a number")
        for name in ("jitter", "success_tol"):
            if not _is_real(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a number")
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
        from_dict(IrlsOptions, self.solver_options, "irls options").validate()
        if "seed" in self.solver_options:
            raise ConfigurationError("solver_options cannot set 'seed': each trial derives its own")
        kinds = ("random",) + NAMED_FRAMES
        if self.frame_kind not in kinds:
            raise ConfigurationError(f"unknown frame_kind {self.frame_kind!r}; choose from {kinds}")
        if self.matrix_ensemble not in MATRIX_ENSEMBLES:
            raise ConfigurationError(f"unknown matrix ensemble {self.matrix_ensemble!r}")
        if self.magnitude_law not in MAGNITUDE_LAWS:
            raise ConfigurationError(f"unknown magnitude law {self.magnitude_law!r}")
        try:
            _min_subset_size(1, self.half_rule)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from None
        if any(n > N for n in self.n_values for N in self.N_values):
            raise ConfigurationError("every n must be <= every N in the grid")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        cfg = from_dict(cls, data, "config")
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_json_dict(load_json(path))
