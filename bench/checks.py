"""Correctness checks on a sweep's outputs.

Every check holds for any seed.  Each trial's instance is rebuilt from its
(cell, trial) seeds, independently of the run that produced the record.  For
the seeds kept in reference.json the certified values are also compared
against the values recorded when the benchmark was defined; ties may break
differently after a hot-path change, so the comparison allows 1e-9 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads
from lqphase import lq_quasinorm, nsp_real_evaluate
from lqphase.errors import InvalidWitnessError

FEAS_RTOL = 1e-8
OBJECTIVE_ATOL = 1e-12
THETA_ATOL = 1e-12
RECOVERY_RTOL = 1e-8
REFERENCE_RTOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def certified_values(record) -> dict:
    """Values a hot-path change must leave unchanged: the isometry constants and,
    on oracle trials, the objective, bound status and NSP outcome (kept in
    `reason`).  IRLS results carry no certificate and are left out."""
    names = ("delta", "theta_minus", "theta_plus")
    if record.method == "oracle":
        names += ("objective", "bound_status", "reason")
    return {name: getattr(record, name) for name in names if getattr(record, name) is not None}


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _differs(ref, got) -> bool:
    if isinstance(ref, float) and isinstance(got, float):
        return not math.isclose(ref, got, rel_tol=REFERENCE_RTOL)
    return ref != got


def check_sweep(workload: str, cfg, records, witnesses: dict) -> dict[tuple, list[str]]:
    """Problems found per trial: {(cell_index, trial_index): [message, ...]}."""
    reference = load_reference(workload, cfg.master_seed)
    if reference is not None and len(reference) != len(records):
        raise ValueError(f"reference holds {len(reference)} trials, the sweep {len(records)}")
    problems = {}
    for r in records:
        key = (r.cell_index, r.trial_index)
        found = _check_record(cfg, r, witnesses.get(key), workload == "nsp-certify")
        if reference is not None:
            ref = reference[f"{r.cell_index},{r.trial_index}"]
            got = certified_values(r)
            found += [f"{name}: reference {ref.get(name)!r}, got {got.get(name)!r}"
                      for name in sorted(set(ref) | set(got))
                      if _differs(ref.get(name), got.get(name))]
        if found:
            problems[key] = found
    return problems


def _check_record(cfg, r, witness, nsp: bool) -> list[str]:
    if r.status != "ok":
        return [f"skipped: {r.reason}"]
    cell = dict(cell_index=r.cell_index, n=r.n, N=r.N, m=r.m, k=r.k, q=r.q, eps=r.eps)
    frame, truth, A, problem = workloads.instance(cfg, cell, r.trial_index)
    out = []
    if not all(np.isfinite(v) for v in (r.objective, r.feasibility, r.lhs)):
        out.append("non-finite objective, feasibility or error")
    if r.method == "oracle":
        b_norm = float(np.linalg.norm(problem.b))
        if r.feasibility > FEAS_RTOL * max(1.0, b_norm):
            out.append(f"oracle feasibility {r.feasibility:.3e} exceeds {FEAS_RTOL:g}*max(1,|b|)")
        truth_obj = lq_quasinorm(frame.D.T @ truth.x, r.q)
        if r.objective > truth_obj + OBJECTIVE_ATOL:
            out.append(f"oracle objective {r.objective!r} exceeds the truth's {truth_obj!r}")
        if r.bound_status == "fail":
            out.append("certified oracle trial fails the recovery bound")
    if r.theta_minus is not None and r.theta_plus is not None:
        if max(1.0 - r.theta_minus, r.theta_plus - 1.0) < r.delta - THETA_ATOL:
            out.append("half-subset extremes imply a defect below delta")
    if nsp:
        if witness is not None:
            try:
                if not nsp_real_evaluate(A, frame, witness).violated:
                    out.append("NSP witness does not violate the splitting condition")
            except InvalidWitnessError as exc:
                out.append(f"NSP witness is invalid: {exc}")
        elif r.lhs > RECOVERY_RTOL * float(np.linalg.norm(truth.x)):
            out.append(f"no NSP witness, yet the oracle misses x0 by {r.lhs:.3e}")
    return out
