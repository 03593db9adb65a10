import json
from dataclasses import asdict

import numpy as np
import pytest

from lqphase import harness
from lqphase.cli import main
from lqphase.errors import ConfigurationError, ParameterError
from lqphase.harness import (
    derive_trial_seeds,
    run_bound_experiment,
    sample_measurement_matrix,
    selfcheck_lemmas,
    transition_sweep,
)
from lqphase.records import (
    CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    emit_results,
    records_from_json,
    records_to_csv,
    transition_to_csv,
)


def small_config(**overrides):
    base = dict(n_values=[4], N_values=[6], m_values=[8], k_values=[1],
                q_values=[1.0], t_values=[1.0], eps_values=[0.0],
                trials=3, master_seed=42, solver="oracle")
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_cell_records():
    recs = run_bound_experiment(small_config())
    assert len(recs) == 3
    assert all(r.status == "ok" for r in recs)
    statuses = {r.bound_status for r in recs}
    assert statuses <= {"pass", "not_applicable"}
    # reproducible from (config, master seed, indices)
    again = run_bound_experiment(small_config())
    assert records_to_csv(recs) == records_to_csv(again)


def test_bound_sweep_accepts_only_threads_1():
    # the keyword stays for the benchmark's call; sweeps run serially
    cfg = small_config(trials=2)
    assert (records_to_csv(run_bound_experiment(cfg, threads=1))
            == records_to_csv(run_bound_experiment(cfg)))
    with pytest.raises(ParameterError, match="threads"):
        run_bound_experiment(cfg, threads=2)


def test_deadline_skips_trials_instead_of_dropping_them():
    cfg = small_config(m_values=[6, 8], trials=3)
    recs = run_bound_experiment(cfg, max_seconds=0.0)
    assert [(r.cell_index, r.trial_index) for r in recs] == [(c, t) for c in (0, 1) for t in range(3)]
    assert all(r.status == "skipped" and r.reason == "deadline" for r in recs)
    assert [r.seed for r in recs] == [derive_trial_seeds(42, r.cell_index, r.trial_index)[0]
                                      for r in recs]
    assert len(records_to_csv(recs).splitlines()) == 1 + len(recs)
    # a deadline that is never reached changes nothing
    assert (records_to_csv(run_bound_experiment(cfg, max_seconds=1e9))
            == records_to_csv(run_bound_experiment(cfg)))


@pytest.mark.parametrize("sweep", [run_bound_experiment, transition_sweep])
@pytest.mark.parametrize("seconds", [float("nan"), -1.0, -1e-300])
def test_a_deadline_that_is_not_a_number_at_least_0_is_rejected(sweep, seconds):
    # elapsed >= NaN is never true, so a NaN deadline would switch itself off,
    # and a negative one would skip every trial
    with pytest.raises(ParameterError, match="max_seconds"):
        sweep(small_config(), max_seconds=seconds)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        small_config(q_values=[]).validate()
    with pytest.raises(ConfigurationError):
        small_config(trials=0).validate()
    with pytest.raises(ConfigurationError):
        small_config(q_values=[1.5]).validate()
    with pytest.raises(ConfigurationError):
        small_config(t_values=[1.5]).validate()
    with pytest.raises(ConfigurationError):
        small_config(n_values=[8]).validate()  # n > N
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json_dict({"bogus_key": 1})


@pytest.mark.parametrize("field, values", [("n_values", [0]), ("N_values", [0]),
                                           ("m_values", [0]), ("m_values", [3, -1]),
                                           ("k_values", [-1])])
def test_dimensions_out_of_range_are_rejected_at_load(tmp_path, capsys, field, values):
    data = asdict(small_config(**{field: values}))
    with pytest.raises(ConfigurationError, match=field):
        ExperimentConfig.from_json_dict(data)
    _assert_both_modes_reject(tmp_path, capsys, data)


def _assert_both_modes_reject(tmp_path, capsys, data) -> None:
    """Both experiment modes exit 1 on the config, with one `error:` line."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))  # NaN and Infinity tokens, which json.load reads back
    for mode in ("bound", "transition"):
        assert main(["experiment", mode, "--config", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("jitter", float("nan")), ("jitter", float("inf")), ("jitter", -0.1),
    ("success_tol", -1.0), ("success_tol", 0.0), ("success_tol", float("nan")),
    ("eps_values", [float("nan")]), ("eps_values", [0.0, float("inf")]),
    ("trials", 1.5), ("trials", True), ("n_values", [3.5]), ("N_values", [6.0]),
    ("m_values", [True]), ("k_values", [1.0]), ("master_seed", -1), ("master_seed", 0.5),
    # a NaN guard would let every cell through
    *[(guard, value) for guard in ("oracle_max_m", "sdrip_max_m", "support_budget")
      for value in (float("nan"), -3, 0.5, True)],
])
def test_numbers_out_of_range_are_rejected_at_load(tmp_path, capsys, field, value):
    # jitter feeds the near_isometric ensemble, success_tol the transition rate
    data = asdict(small_config(matrix_ensemble="near_isometric", **{field: value}))
    with pytest.raises(ConfigurationError, match=field):
        ExperimentConfig.from_json_dict(data)
    _assert_both_modes_reject(tmp_path, capsys, data)


@pytest.mark.parametrize("field, value", [
    # a string failed the range checks with a TypeError, a bool ran as 0 or 1
    ("q_values", ["0.5"]), ("q_values", [True]), ("q_values", [0.5, None]),
    ("t_values", ["1.0"]), ("t_values", [False]), ("eps_values", [None]), ("eps_values", ["0"]),
    ("jitter", "0.05"), ("jitter", True), ("jitter", None),
    ("success_tol", "1e-6"), ("success_tol", True), ("success_tol", None),
])
def test_numbers_of_the_wrong_type_are_rejected_at_load(tmp_path, capsys, field, value):
    data = asdict(small_config(**{field: value}))
    with pytest.raises(ConfigurationError, match=field):
        ExperimentConfig.from_json_dict(data)
    _assert_both_modes_reject(tmp_path, capsys, data)


@pytest.mark.parametrize("kind", ["mercedez", "no_such_frame"])
def test_unknown_frame_kind_is_rejected_at_load(tmp_path, capsys, kind):
    # it used to load, and every trial was skipped at run time
    data = asdict(small_config(frame_kind=kind))
    with pytest.raises(ConfigurationError, match="frame_kind"):
        ExperimentConfig.from_json_dict(data)
    _assert_both_modes_reject(tmp_path, capsys, data)


@pytest.mark.parametrize("dropped", [["q_values"], ["n_values", "m_values"]])
def test_missing_config_keys_are_named_at_load(tmp_path, capsys, dropped):
    data = asdict(small_config())
    for key in dropped:
        del data[key]
    message = f"missing config keys: {sorted(dropped)}"
    with pytest.raises(ConfigurationError) as info:
        ExperimentConfig.from_json_dict(data)
    assert str(info.value) == message
    _assert_both_modes_reject(tmp_path, capsys, data)


def test_guarded_cells_are_skipped_with_reason():
    recs = run_bound_experiment(small_config(m_values=[12]))  # oracle guard is 10
    assert all(r.status == "skipped" for r in recs)
    assert all("oracle" in r.reason for r in recs)
    recs = run_bound_experiment(small_config(k_values=[0]))
    assert all(r.status == "skipped" for r in recs)


def test_a_cell_past_the_support_budget_is_skipped_with_the_guards_message():
    # C(6, 1) = 6 supports of order 1 against a budget of 1
    recs = run_bound_experiment(small_config(support_budget=1))
    assert [r.status for r in recs] == ["skipped"] * 3
    assert all(r.reason == "ResourceBudgetError: C(6,1) = 6 supports exceed the budget 1" for r in recs)


@pytest.mark.parametrize("kind, N", [("identity", 3), ("duplicated_identity", 3), ("mercedes", 4)])
def test_named_frame_with_wrong_N_is_skipped(kind, N):
    recs = run_bound_experiment(small_config(n_values=[2], N_values=[N], m_values=[3],
                                             frame_kind=kind, trials=1))
    assert [r.status for r in recs] == ["skipped"]
    assert recs[0].reason.startswith("ConfigurationError")


def test_noisy_cells_use_irls_and_record_realized_noise():
    cfg = small_config(solver="irls", eps_values=[0.05], trials=2,
                       solver_options={"restarts": 6, "max_iters": 200})
    recs = run_bound_experiment(cfg)
    assert all(r.status == "ok" for r in recs)
    assert all(r.method == "irls" for r in recs)
    assert all(0.0 < r.eps_realized <= 0.05 + 1e-12 for r in recs)


def test_seed_derivation_is_stable_and_distinct():
    a = derive_trial_seeds(7, 3, 2)
    b = derive_trial_seeds(7, 3, 2)
    c = derive_trial_seeds(7, 3, 3)
    assert a == b and a != c and len(a) == 4


def test_matrix_ensembles():
    A = sample_measurement_matrix("orthonormal", 6, 3, 0.0, seed=1)
    assert np.max(np.abs(A.T @ A - np.eye(3))) < 1e-10
    B = sample_measurement_matrix("near_isometric", 6, 3, 0.05, seed=1)
    assert np.max(np.abs(B.T @ B - np.eye(3))) < 0.2
    with pytest.raises(ConfigurationError):
        sample_measurement_matrix("orthonormal", 2, 3, 0.0, seed=1)
    with pytest.raises(ConfigurationError):
        sample_measurement_matrix("laplace", 6, 3, 0.0, seed=1)


@pytest.mark.parametrize("m,n", [(3, 6), (6, 3)])
def test_unknown_matrix_ensemble_is_named_at_every_shape(m, n):
    # the name is checked before the m >= n rule of the orthonormal ensembles
    with pytest.raises(ConfigurationError, match="^unknown matrix ensemble 'foo'$"):
        sample_measurement_matrix("foo", m, n, 0.0, seed=1)


def test_emit_csv_golden_header_and_format(tmp_path):
    recs = run_bound_experiment(small_config(trials=1))
    out = tmp_path / "r.csv"
    emit_results(recs, "csv", str(out))
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == ("cell_index,trial_index,n,N,m,k,q,t,eps,seed,status,reason,"
                        "delta,delta_order,theta_minus,theta_plus,delta_theta_bound,"
                        "admissible,marginal,sigma_k,eps_realized,method,objective,"
                        "feasibility,solver_iterations,lhs,rhs,bound_status")
    assert text.endswith("\n") and "\r" not in text
    # 17 significant digits round-trip: parsing the delta cell reproduces it
    row = lines[1].split(",")
    delta_col = CSV_HEADER.split(",").index("delta")
    assert float(row[delta_col]) == recs[0].delta


def test_emit_json_round_trip(tmp_path):
    recs = run_bound_experiment(small_config(trials=2))
    out = tmp_path / "r.json"
    emit_results(recs, "json", str(out))
    reloaded = records_from_json(str(out))
    assert reloaded == recs


def test_theta_window_ok_is_json_only(tmp_path):
    recs = run_bound_experiment(small_config(compute_sdrip=True, trials=2))
    assert all(isinstance(r.theta_window_ok, bool) for r in recs)
    assert "theta_window_ok" not in CSV_HEADER.split(",")
    out = tmp_path / "r.json"
    emit_results(recs, "json", str(out))
    raw = json.loads(out.read_text())
    assert [item["theta_window_ok"] for item in raw] == [r.theta_window_ok for r in recs]
    assert all(isinstance(item["theta_window_ok"], bool) for item in raw)
    reloaded = records_from_json(str(out))
    assert [r.theta_window_ok for r in reloaded] == [r.theta_window_ok for r in recs]


def test_emit_guards(tmp_path):
    with pytest.raises(ParameterError):
        emit_results([], "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ParameterError):
        emit_results([TrialRecord()], "xml", str(tmp_path / "x.xml"))
    with pytest.raises(OSError):
        emit_results([TrialRecord()], "csv", str(tmp_path / "no" / "dir" / "x.csv"))


def test_config_json_round_trip(tmp_path):
    cfg = small_config(trials=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(cfg)))
    back = ExperimentConfig.from_json_file(str(path))
    assert back == cfg


def test_transition_zero_sparsity_always_succeeds():
    cfg = ExperimentConfig(n_values=[3], N_values=[4], m_values=[4], k_values=[0],
                           q_values=[1.0], trials=6, master_seed=1)
    cells = transition_sweep(cfg)[0]
    assert all(c.rate == 1.0 for c in cells)


def test_transition_identity_instance_k1():
    # square identity-like setting recovers single atoms exactly
    cfg = ExperimentConfig(n_values=[3], N_values=[3], m_values=[3], k_values=[1],
                           q_values=[0.5], trials=8, master_seed=2,
                           frame_kind="identity", matrix_ensemble="orthonormal")
    cells = transition_sweep(cfg)[0]
    assert cells[0].rate == 1.0


def test_transition_rate_improves_with_measurements():
    # reported, not asserted cell-by-cell: just check the table structure and
    # that the most-measured cell does at least as well as the least-measured
    cfg = ExperimentConfig(n_values=[3], N_values=[5], m_values=[3, 8], k_values=[1],
                           q_values=[1.0], trials=10, master_seed=3)
    cells = transition_sweep(cfg)[0]
    csv = transition_to_csv(cells)
    assert csv.splitlines()[0] == "cell_index,n,N,m,k,q,trials,successes,rate"
    rates = {c.m: c.rate for c in cells}
    assert rates[8] >= rates[3]


def test_selfcheck_lemmas_passes():
    ok, lines = selfcheck_lemmas(seed=0)
    assert ok and len(lines) == 3
    assert all("OK" in line for line in lines)


def test_transition_leaves_out_cells_that_cannot_be_built():
    # a duplicated_identity frame at n = 4 has N = 8, so the N = 5 cells are not
    # run; the N = 8 cells still are
    cfg = ExperimentConfig(n_values=[4], N_values=[8, 5], m_values=[4, 12], k_values=[1],
                           q_values=[1.0], trials=2, frame_kind="duplicated_identity",
                           matrix_ensemble="orthonormal")
    cells = transition_sweep(cfg)[0]
    assert [(c.cell_index, c.N, c.m) for c in cells] == [(0, 8, 4), (1, 8, 12)]
    cells_again, not_run = transition_sweep(cfg)
    assert cells_again == cells
    assert not_run == dict.fromkeys(
        [2, 3], "bad configuration (duplicated_identity frame at n=4 has N=8, not 5)")
    assert transition_to_csv(cells).splitlines()[0] == "cell_index,n,N,m,k,q,trials,successes,rate"


def test_transition_counts_trials_whose_solver_raised():
    # m = 2 < n = 4 needs C(6, 2) zero patterns, over the support budget of 1,
    # so every trial of cell 0 raises; the overdetermined cell 1 needs none
    cfg = ExperimentConfig(n_values=[4], N_values=[6], m_values=[2, 5], k_values=[1],
                           q_values=[1.0], trials=3, support_budget=1)
    cells = transition_sweep(cfg)[0]
    assert [c.errors for c in cells] == [("ResourceBudgetError",) * 3, ()]
    assert [c.successes for c in cells] == [0, 3]
    assert transition_to_csv(cells).splitlines() == [
        "cell_index,n,N,m,k,q,trials,successes,rate", "0,4,6,2,1,1,3,0,0", "1,4,6,5,1,1,3,3,1"]


@pytest.mark.parametrize("options, error", [
    ({"restart": 3}, ConfigurationError),
    ({"tol": float("nan")}, ParameterError),
    ({"reg": -1.0}, ParameterError),
    ({"max_iters": 2.5}, ParameterError),
])
def test_irls_options_are_checked_at_load(options, error):
    # irls sweeps read solver_options, and so do transition cells above the
    # oracle guard, so a bad option fails at load instead of in a trial
    for solver in ("irls", "oracle"):
        data = asdict(small_config(solver=solver, solver_options=options))
        with pytest.raises(error):
            ExperimentConfig.from_json_dict(data)


def test_solver_options_cannot_set_the_seed(tmp_path, capsys):
    # each trial solves with its own derived seed, which would overwrite this one
    for solver in ("irls", "oracle"):
        data = asdict(small_config(solver=solver, solver_options={"restarts": 2, "seed": 7}))
        with pytest.raises(ConfigurationError, match="'seed'"):
            ExperimentConfig.from_json_dict(data)
    _assert_both_modes_reject(tmp_path, capsys, data)


def test_bound_sweep_skips_a_cell_with_k_above_N():
    # t = 0.1 keeps the DRIP order ceil(t * k) = 1 <= N, so the k = 7 > N = 6
    # cell reaches the instance builder, which rejects it
    recs = run_bound_experiment(small_config(k_values=[1, 7], t_values=[0.1], trials=2))
    assert [(r.cell_index, r.status) for r in recs] == [(0, "ok"), (0, "ok"),
                                                       (1, "skipped"), (1, "skipped")]
    assert all(r.reason == "ConfigurationError: sparsity k=7 exceeds N=6" for r in recs[2:])


def test_transition_leaves_out_a_cell_with_k_above_N():
    cfg = ExperimentConfig(n_values=[3], N_values=[4], m_values=[6], k_values=[1, 5],
                           q_values=[1.0], trials=2)
    cells, not_run = transition_sweep(cfg)
    assert [(c.cell_index, c.k, c.trials) for c in cells] == [(0, 1, 2)]
    assert not_run == {1: "bad configuration (sparsity k=5 exceeds N=4)"}


@pytest.mark.parametrize("field, value", [("magnitude_law", "laplace"), ("half_rule", "round")])
def test_sampling_rules_are_checked_at_load(field, value):
    data = asdict(small_config(**{field: value}))
    with pytest.raises(ConfigurationError, match=repr(value)):
        ExperimentConfig.from_json_dict(data)


def test_transition_reports_left_out_cells_beside_solver_errors():
    # N = 5 cells are left out (a duplicated_identity frame at n = 4 has N = 8);
    # the m = 2 trials raise ResourceBudgetError (C(8, 2) zero patterns > 1)
    cfg = ExperimentConfig(n_values=[4], N_values=[8, 5], m_values=[2, 5], k_values=[1],
                           q_values=[1.0], trials=3, frame_kind="duplicated_identity",
                           support_budget=1)
    cells, not_run = transition_sweep(cfg)
    assert sorted(not_run) == [2, 3]
    assert cells[0].errors == ("ResourceBudgetError",) * 3


def test_both_sweeps_build_the_same_instances(monkeypatch):
    # with one t and eps = 0 the two grids have the same cell indices, so a
    # (cell, trial) of either sweep must be the same problem
    original = harness._instance
    built = []

    def spy(cfg, cell, seeds):
        problem = original(cfg, cell, seeds)
        built[-1][(cell["cell_index"], seeds)] = tuple(
            a.tobytes() for a in (problem.A, problem.b, problem.truth.x))
        return problem

    monkeypatch.setattr(harness, "_instance", spy)
    cfg = small_config(m_values=[3, 8], k_values=[1, 2], q_values=[0.5, 1.0], trials=2)
    built.append({})
    assert all(r.status == "ok" for r in run_bound_experiment(cfg))
    built.append({})
    transition_sweep(cfg)
    bound, transition = built
    assert len(bound) == 16 and bound == transition
