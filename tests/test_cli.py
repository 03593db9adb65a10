import dataclasses
import json
import shutil
import subprocess

import numpy as np
import pytest

from lqphase import nsp, serialize
from lqphase.cli import build_parser, main
from lqphase.frames import build_parseval_random, validate_frame
from lqphase.measurement import build_problem, phase_distance
from lqphase.nsp import nsp_real_falsify
from lqphase.records import TrialRecord, emit_results, records_from_json
from lqphase.rip import drip_constant, sdrip_constants
from lqphase.signals import sample_dictionary_sparse
from lqphase.solver import solve_irls, solve_oracle_noiseless


@pytest.fixture()
def problem_file(tmp_path):
    F = build_parseval_random(3, 5, seed=9)
    truth = sample_dictionary_sparse(F, 1, seed=2)
    A = np.random.default_rng(1).standard_normal((6, 3)) / np.sqrt(6)
    P = build_problem(A, F, truth, q=1.0)
    path = tmp_path / "problem.json"
    serialize.save_json(serialize.problem_to_dict(P), str(path))
    return path, P, truth


def test_frame_gen_round_trip(tmp_path):
    out = tmp_path / "frame.json"
    assert main(["frame", "gen", "--n", "3", "--N", "5", "--seed", "4",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert sorted(data) == ["D", "N", "label", "n"] and (data["n"], data["N"]) == (3, 5)
    F = serialize.frame_from_dict(data)
    assert validate_frame(F).passed
    assert F.D.tobytes() == build_parseval_random(3, 5, seed=4).D.tobytes()
    # deterministic given the seed
    out2 = tmp_path / "frame2.json"
    main(["frame", "gen", "--n", "3", "--N", "5", "--seed", "4", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_rip_estimate_and_sdrip(tmp_path, problem_file):
    path, P, _ = problem_file
    out = tmp_path / "rip.json"
    assert main(["rip", "estimate", "--problem", str(path), "--order", "2",
                 "--sdrip", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert "exhaustive" not in rep and rep["theta_minus"] <= rep["theta_plus"]
    assert main(["rip", "estimate", "--problem", str(path), "--order", "1",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["details"]["witness_support"]) == 1


def test_rip_estimate_sdrip_takes_fifteen_rows(tmp_path):
    # m = 15 was refused by an m guard; its C(15, 8) + 1 = 6,436 row sets for
    # each of the 5 supports fit the work budget
    F = build_parseval_random(3, 5, seed=9)
    A = np.random.default_rng(1).standard_normal((15, 3)) / np.sqrt(15)
    path, out = tmp_path / "problem.json", tmp_path / "rip.json"
    serialize.save_json(serialize.problem_to_dict(
        build_problem(A, F, sample_dictionary_sparse(F, 1, seed=2), q=1.0)), str(path))
    assert main(["rip", "estimate", "--problem", str(path), "--order", "1",
                 "--sdrip", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["min_subset_size"] == 8 and rep["theta_minus"] <= rep["theta_plus"]


def test_solve_oracle(tmp_path, problem_file):
    path, P, truth = problem_file
    out = tmp_path / "sol.json"
    assert main(["solve", "--problem", str(path), "--method", "oracle",
                 "--out", str(out)]) == 0
    res = serialize.solver_result_from_dict(json.loads(out.read_text()))
    assert phase_distance(res.x_hat, truth.x) < 1e-8


def test_nsp_falsify_reports_budget(tmp_path, problem_file):
    path, _, _ = problem_file
    out = tmp_path / "nsp.json"
    assert main(["nsp", "falsify", "--problem", str(path), "--k", "1",
                 "--q", "1.0", "--budget", "100", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["witness"] is None
    assert payload["budget"] == 100 and payload["lambda_mode"] == "card_at_most_k"


def test_nsp_falsify_past_the_support_budget_is_a_resource_error(capsys, monkeypatch, problem_file):
    # the 1 + 6 row subsets of size <= k = 1 of m = 6 rows times C(5, 1) = 5
    # supports give 35 cells against a budget of 34; the falsifier had no guard
    path, _, _ = problem_file
    monkeypatch.setattr(nsp, "SUPPORT_BUDGET", 34)
    assert main(["nsp", "falsify", "--problem", str(path), "--k", "1", "--q", "1.0"]) == 2
    assert capsys.readouterr().err == (
        "resource error: 7 x C(5,1) = 35 (row subset, support) cells exceed the budget 34\n")


@pytest.mark.parametrize("command", [
    ["experiment", "bound", "--config"], ["experiment", "transition", "--config"],
    ["solve", "--problem"], ["bound", "verify", "--trial"],
])
def test_a_json_file_that_does_not_parse_is_named(tmp_path, capsys, command):
    # the message used to be json's alone, with no path
    path = tmp_path / "truncated.json"
    path.write_text('{"n_values": [4], ')
    assert main(command + [str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot parse {path}: ")


NON_MAPPINGS = [
    (["solve", "--problem"], None, "problem payload"),
    (["rip", "estimate", "--order", "1", "--problem"], None, "problem payload"),
    (["nsp", "falsify", "--k", "1", "--q", "1.0", "--problem"], None, "problem payload"),
    (["solve", "--problem"], "frame", "frame payload"),
    (["solve", "--problem"], "truth", "truth payload"),
    (["bound", "verify", "--trial"], None, "trial payload"),
]


@pytest.mark.parametrize("command, part, what", NON_MAPPINGS,
                         ids=["solve", "rip-estimate", "nsp-falsify", "frame", "truth", "bound-verify"])
def test_a_payload_that_is_not_a_json_object_is_named(tmp_path, problem_file, capsys,
                                                        command, part, what):
    # a list where an object belongs used to end in a TypeError traceback
    path, _, _ = problem_file
    data = json.loads(path.read_text())
    if part is None:
        data = [data]
    else:
        data[part] = [data[part]]
    path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(command + [str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {what} must be a mapping, got list\n"
    assert not out.exists()


def test_bound_check_and_verify(tmp_path, problem_file):
    path, P, _ = problem_file
    out = tmp_path / "consts.json"
    assert main(["bound", "check", "--q", "1.0", "--t", "1.0", "--delta", "0.1",
                 "--out", str(out)]) == 0
    consts = json.loads(out.read_text())
    assert consts["admissible"] and consts["denominator"] == pytest.approx(0.7)

    rip_out = tmp_path / "rip.json"
    main(["rip", "estimate", "--problem", str(path), "--order", "1", "--out", str(rip_out)])
    sol_out = tmp_path / "sol.json"
    main(["solve", "--problem", str(path), "--method", "oracle", "--out", str(sol_out)])
    trial = {
        "problem": json.loads(path.read_text()),
        "result": json.loads(sol_out.read_text()),
        "rip": json.loads(rip_out.read_text()),
        "t": 1.0,
    }
    trial_path = tmp_path / "trial.json"
    trial_path.write_text(json.dumps(trial))
    rec_out = tmp_path / "record.json"
    assert main(["bound", "verify", "--trial", str(trial_path), "--out", str(rec_out)]) == 0
    rec = json.loads(rec_out.read_text())
    assert rec["bound_status"] in ("pass", "fail", "not_applicable")


def test_experiment_bound_cli_determinism(tmp_path):
    cfg = {
        "n_values": [4], "N_values": [6], "m_values": [8], "k_values": [1],
        "q_values": [1.0], "t_values": [1.0], "eps_values": [0.0],
        "trials": 2, "master_seed": 5, "solver": "oracle",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "bound", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["experiment", "bound", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_transition_cli(tmp_path):
    cfg = {
        "n_values": [3], "N_values": [4], "m_values": [5], "k_values": [0, 1],
        "q_values": [1.0], "trials": 3, "master_seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["experiment", "transition", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("cell_index,") and len(lines) == 3


@pytest.mark.parametrize("command", [
    ["frame", "gen", "--n", "2", "--N", "3"],
    ["experiment", "bound"],
    ["experiment", "bound", "--format", "json"],
    ["experiment", "transition"],
], ids=["frame gen", "bound csv", "bound json", "transition"])
def test_every_file_write_exits_3_naming_the_path(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_values": [3], "N_values": [4], "m_values": [5],
                                    "k_values": [1], "q_values": [1.0]}))
    out = tmp_path / "no" / "dir" / "out"
    config = ["--config", str(cfg_path)] if command[0] == "experiment" else []
    assert main([*command, *config, "--out", str(out)]) == 3
    assert f"i/o error: cannot write {out}: " in capsys.readouterr().err


def test_experiment_transition_reports_cells_cut_by_the_deadline(tmp_path, capsys):
    cfg = {
        "n_values": [3], "N_values": [4], "m_values": [5], "k_values": [0, 1],
        "q_values": [1.0], "trials": 3, "master_seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["experiment", "transition", "--config", str(cfg_path), "--out", str(out),
                 "--max-seconds", "0"]) == 0
    assert out.read_text().splitlines() == ["cell_index,n,N,m,k,q,trials,successes,rate"]
    assert capsys.readouterr().err == "deadline: 2 of 2 transition cells not run\n"


def test_experiment_transition_reports_cells_that_cannot_be_built(tmp_path, capsys):
    cfg = {
        "n_values": [4], "N_values": [8, 5], "m_values": [4, 12], "k_values": [1],
        "q_values": [1.0], "trials": 2, "frame_kind": "duplicated_identity",
        "matrix_ensemble": "near_isometric", "jitter": 0.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["experiment", "transition", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [line.split(",")[:4] for line in out.read_text().splitlines()[1:]] == [
        ["0", "4", "8", "4"], ["1", "4", "8", "12"]]
    assert capsys.readouterr().err == (
        "bad configuration (duplicated_identity frame at n=4 has N=8, not 5): "
        "2 of 4 transition cells not run\n")


def test_experiment_transition_reports_trials_whose_solver_raised(tmp_path, capsys):
    # the oracle's 2 x C(6, 2) = 30 (sign, zero set) pairs at m = 2 exceed the
    # budget of 16; the 2^4 = 16 sign patterns at m = 5 do not
    cfg = {
        "n_values": [4], "N_values": [6], "m_values": [2, 5], "k_values": [1],
        "q_values": [1.0], "trials": 3, "support_budget": 16,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["experiment", "transition", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,4,6,2,1,1,3,0,0"
    assert capsys.readouterr().err == (
        "ResourceBudgetError: 3 of 6 transition trials raised and count as failures\n")


SHARED_FLAGS = {"--seed": "4", "--max-seconds": "1.5", "--out": "o.json"}
SUBCOMMANDS = [
    (["frame", "gen", "--n", "2", "--N", "3"], {"--seed", "--out"}),
    (["rip", "estimate", "--problem", "p.json", "--order", "1"], {"--out"}),
    (["nsp", "falsify", "--problem", "p.json", "--k", "1", "--q", "1"], {"--seed", "--out"}),
    (["solve", "--problem", "p.json"], {"--seed", "--out"}),
    (["bound", "check", "--q", "1", "--t", "1", "--delta", "0.1"], {"--out"}),
    (["bound", "verify", "--trial", "t.json"], {"--out"}),
    (["experiment", "bound", "--config", "c.json"], {"--max-seconds", "--out"}),
    (["experiment", "transition", "--config", "c.json"], {"--max-seconds", "--out"}),
    (["selfcheck", "lemmas"], {"--seed"}),
]


@pytest.mark.parametrize("argv,reads", SUBCOMMANDS,
                         ids=[" ".join(w for w in argv[:2] if w[0] != "-") for argv, _ in SUBCOMMANDS])
def test_subcommands_accept_only_the_shared_flags_they_read(argv, reads, capsys):
    # a flag the subcommand would ignore is a usage error, not a silent no-op
    for flag, value in SHARED_FLAGS.items():
        if flag in reads:
            args = build_parser().parse_args(argv + [flag, value])
            assert str(getattr(args, flag[2:].replace("-", "_"))) == value
        else:
            assert main(argv + [flag, value]) == 1
            assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["bound", "transition"])
@pytest.mark.parametrize("extra, message", [
    # sweeps run serially, so --threads is gone
    (["--threads", "1"], "unrecognized arguments: --threads 1"),
    # a NaN deadline is never reached and a negative one skips every trial
    (["--max-seconds", "nan"], "error: max_seconds must be None or a number >= 0, got nan"),
    (["--max-seconds", "-1"], "error: max_seconds must be None or a number >= 0, got -1.0"),
], ids=["threads", "nan-deadline", "negative-deadline"])
def test_experiments_reject_threads_and_a_bad_deadline(tmp_path, capsys, mode, extra, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_values": [3], "N_values": [4], "m_values": [5], "k_values": [1], "q_values": [1.0]}))
    assert main(["experiment", mode, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o.csv"), *extra]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


IGNORED_FLAGS = [
    (["rip", "estimate", "--order", "1"], ["--half-rule", "floor"]),
    (["solve", "--method", "oracle"], ["--seed", "5"]),
]


@pytest.mark.parametrize("argv,flag", IGNORED_FLAGS,
                         ids=[" ".join(argv + flag[:1]) for argv, flag in IGNORED_FLAGS])
def test_flags_a_mode_does_not_read_are_usage_errors(tmp_path, problem_file, capsys, argv, flag):
    path, _, _ = problem_file
    out = tmp_path / "o.json"
    assert main(argv + flag + ["--problem", str(path), "--out", str(out)]) == 1
    assert f"argument {flag[0]}: has no effect" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["irls", "oracle"])
def test_solve_has_no_config(tmp_path, problem_file, capsys, method):
    # IRLS runs one schedule whose only parameter is --seed, so there is no
    # options file to read
    path, _, _ = problem_file
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"restarts": 2}))
    out = tmp_path / "o.json"
    assert main(["solve", "--problem", str(path), "--method", method, "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lqphase") and "unrecognized arguments: --config" in err
    assert not out.exists()


SAMPLER_FLAGS = [
    (["rip", "estimate", "--order", "1"], ["--sampled"]),
    (["rip", "estimate", "--order", "1"], ["--budget", "5"]),
    (["rip", "estimate", "--order", "1"], ["--seed", "9"]),
    (["rip", "estimate", "--order", "1", "--sdrip"], ["--seed", "0"]),
    (["rip", "estimate", "--order", "1", "--sdrip"], ["--sampled", "--half-rule", "ceil"]),
]


@pytest.mark.parametrize("argv,flag", SAMPLER_FLAGS,
                         ids=[" ".join(argv + flag[:1]) for argv, flag in SAMPLER_FLAGS])
def test_rip_estimate_has_no_sampled_mode(tmp_path, problem_file, capsys, argv, flag):
    # every isometry constant is exact, so the sampler's flags are unknown
    path, _, _ = problem_file
    out = tmp_path / "o.json"
    assert main(argv + flag + ["--problem", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lqphase") and f"unrecognized arguments: {flag[0]}" in err
    assert not out.exists()


def test_flags_a_mode_reads_keep_their_defaults(tmp_path, problem_file):
    path, _, _ = problem_file
    out = tmp_path / "o.json"
    rip = ["rip", "estimate", "--problem", str(path), "--order", "1", "--out", str(out)]
    assert main(rip + ["--sdrip", "--half-rule", "floor"]) == 0
    assert json.loads(out.read_text())["details"]["half_rule"] == "floor"
    assert main(rip + ["--sdrip"]) == 0
    assert json.loads(out.read_text())["details"]["half_rule"] == "ceil"
    solve = ["solve", "--problem", str(path), "--method", "irls", "--out", str(out)]
    assert main(solve + ["--seed", "5"]) == 0
    assert main(solve) == 0
    unseeded = out.read_text()
    assert main(solve + ["--seed", "0"]) == 0 and out.read_text() == unseeded


def test_solve_irls_reports_weighted_steps(tmp_path, problem_file):
    path, _, _ = problem_file
    out = tmp_path / "sol.json"
    assert main(["solve", "--problem", str(path), "--method", "irls", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["steps"] >= data["iterations"] >= 1


def test_selfcheck_exit_code():
    assert main(["selfcheck", "lemmas"]) == 0


def test_exit_codes(tmp_path, problem_file):
    path, _, _ = problem_file
    # usage error -> 1
    assert main(["frame", "gen", "--n", "x"]) == 1
    assert main(["frame"]) == 1
    # config/data error -> 1
    missing_cfg = tmp_path / "nope.json"
    missing_cfg.write_text(json.dumps({"bogus": True}))
    assert main(["experiment", "bound", "--config", str(missing_cfg)]) == 1
    # resource error -> 2 (sign enumeration guard)
    F = build_parseval_random(2, 3, seed=0)
    truth = sample_dictionary_sparse(F, 1, seed=0)
    A = np.random.default_rng(0).standard_normal((12, 2))
    P = build_problem(A, F, truth, q=1.0)
    big = tmp_path / "big.json"
    serialize.save_json(serialize.problem_to_dict(P), str(big))
    assert main(["solve", "--problem", str(big), "--method", "oracle"]) == 2
    # i/o error -> 3
    assert main(["frame", "gen", "--n", "2", "--N", "3",
                 "--out", str(tmp_path / "no" / "dir" / "f.json")]) == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solve_rejects_non_finite_measurements(tmp_path, problem_file, capsys, bad):
    path, _, _ = problem_file
    data = json.loads(path.read_text())
    data["b"][0] = bad
    path.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(path), "--method", "oracle"]) == 1
    assert "finite" in capsys.readouterr().err


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("lqphase")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "f.json"
    proc = subprocess.run([exe, "frame", "gen", "--n", "2", "--N", "4",
                           "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and out.exists()


def test_solve_irls_reports_how_its_runs_ended(tmp_path, problem_file):
    path, P, _ = problem_file
    out = tmp_path / "sol.json"
    assert main(["solve", "--problem", str(path), "--method", "irls", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    exits = data["exits"]
    assert set(exits) == {"discrepancy", "stall", "cycle", "converged", "max_iters"}
    # one polish run per sign class the tree keeps
    assert sum(exits.values()) == data["feasible_classes"] >= 1
    assert data["tree_nodes"] >= 2 ** (P.n - 1)


def _strict_loads(text: str):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_json_output_is_strict(tmp_path, capsys):
    assert main(["bound", "check", "--q", "0.5", "--t", "1.0", "--delta", "inf"]) == 0
    consts = _strict_loads(capsys.readouterr().out)
    assert (consts["delta"], consts["denominator"]) == ("inf", "-inf")
    path = tmp_path / "payload.json"
    serialize.save_json({"v": [float("inf"), -np.inf, np.float64("nan"), 0.5]}, str(path))
    assert _strict_loads(path.read_text()) == {"v": ["inf", "-inf", "nan", 0.5]}
    record = TrialRecord(delta=float("inf"), lhs=float("nan"), rhs=0.5, reason="nan")
    emit_results([record], "json", str(path))
    assert _strict_loads(path.read_text())[0]["delta"] == "inf"
    back = records_from_json(str(path))[0]
    assert back.delta == np.inf and np.isnan(back.lhs) and (back.rhs, back.reason) == (0.5, "nan")


# each CLI payload against the library call it wraps, through
# json_text(asdict(...)), so every dataclass field must reach the JSON
LIBRARY_CALLS = [
    (["solve", "--method", "oracle"], solve_oracle_noiseless),
    (["solve", "--method", "irls"], solve_irls),
    (["rip", "estimate", "--order", "2"], lambda P: drip_constant(P.A, P.frame, 2)),
    (["rip", "estimate", "--order", "2", "--sdrip", "--half-rule", "floor"],
     lambda P: sdrip_constants(P.A, P.frame, 2, half_rule="floor")),
]


def _problem_with_m_rows(tmp_path, m):
    F = build_parseval_random(3, 5, seed=9)
    A = np.random.default_rng(1).standard_normal((m, 3))
    P = build_problem(A, F, sample_dictionary_sparse(F, 1, seed=2), q=0.5)
    path = tmp_path / f"problem{m}.json"
    serialize.save_json(serialize.problem_to_dict(P), str(path))
    return str(path), serialize.problem_from_dict(serialize.load_json(str(path)))


@pytest.mark.parametrize("m", [2, 6])
@pytest.mark.parametrize("argv, call", LIBRARY_CALLS, ids=[" ".join(a) for a, _ in LIBRARY_CALLS])
def test_payload_carries_every_field_of_the_library_result(tmp_path, capsys, m, argv, call):
    path, P = _problem_with_m_rows(tmp_path, m)
    assert main([*argv, "--problem", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(serialize.json_text(dataclasses.asdict(call(P))))


def test_nsp_payload_carries_every_field_of_the_witness(tmp_path, capsys):
    path, P = _problem_with_m_rows(tmp_path, 2)
    assert main(["nsp", "falsify", "--problem", path, "--k", "1", "--q", "0.5",
                 "--budget", "200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    witness = nsp_real_falsify(P.A, P.frame, 1, 0.5, budget=200)
    assert witness is not None and payload["witness"]["violated"] is True
    assert payload["witness"] == json.loads(serialize.json_text(dataclasses.asdict(witness)))


@pytest.mark.parametrize("k", [-1, 10])
def test_nsp_falsify_rejects_sparsity_outside_zero_to_N(tmp_path, capsys, k):
    path, _ = _problem_with_m_rows(tmp_path, 2)
    assert main(["nsp", "falsify", "--problem", path, "--k", str(k), "--q", "1.0"]) == 1
    assert "sparsity k must lie in [0, 5]" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--budget", "0")])
def test_nsp_falsify_rejects_a_bad_seed_or_budget(tmp_path, capsys, k, flag, value):
    # m = n + 1: at k = 1 the screen settles every cell, and seed -1 used to
    # exit 0 and write "seed": -1; at k = 2 it failed in numpy, naming no argument
    path, _ = _problem_with_m_rows(tmp_path, 4)
    out = tmp_path / "nsp.json"
    assert main(["nsp", "falsify", "--problem", path, "--k", str(k), "--q", "1.0",
                 flag, value, "--out", str(out)]) == 1
    name, least = flag[2:], 0 if flag == "--seed" else 1
    assert capsys.readouterr().err == f"error: {name} must be an integer >= {least}, got {value}\n"
    assert not out.exists()


def _trial(tmp_path, method="oracle", **edits):
    """A bound verify trial on a 6 x 9 frame with m = 4, with edits applied to
    its truth (key "x") and its result (the other keys)."""
    F = build_parseval_random(6, 9, seed=4)
    A = np.random.default_rng(5).standard_normal((4, 6))
    P = build_problem(A, F, sample_dictionary_sparse(F, 1, seed=6), q=1.0)
    result = solve_oracle_noiseless(P) if method == "oracle" else solve_irls(P)
    trial = json.loads(serialize.json_text({
        "problem": serialize.problem_to_dict(P), "result": dataclasses.asdict(result),
        "rip": dataclasses.asdict(drip_constant(A, F, 1)), "t": 1.0}))
    for key, value in edits.items():
        (trial["problem"]["truth"] if key == "x" else trial["result"])[key] = value
    path = tmp_path / "trial.json"
    serialize.save_json(trial, str(path))
    return str(path)


@pytest.mark.parametrize("method, edits, message", [
    ("oracle", {"x": ["nan", 0.1, 0.2, 0.3, 0.4, 0.5]}, "truth x must have finite entries"),
    ("oracle", {"x": [0.1, 0.2, 0.3]}, "truth x is (3,)"),
    ("oracle", {"x_hat": ["nan", 0.1, 0.2, 0.3, 0.4, 0.5]}, "x_hat must have finite entries"),
    ("irls", {"feasibility": "nan"}, "objective and feasibility must have finite entries"),
])
def test_bound_verify_rejects_a_non_finite_or_misshapen_trial(tmp_path, capsys, method, edits,
                                                              message):
    assert main(["bound", "verify", "--trial", _trial(tmp_path, method)]) == 0
    capsys.readouterr()
    assert main(["bound", "verify", "--trial", _trial(tmp_path, method, **edits)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("part, key, value, message", [
    ("rip", "delta", "nan", "delta and thetas of the rip report must have finite entries"),
    ("rip", "theta_minus", "nan", "delta and thetas of the rip report must have finite entries"),
    ("rip", "theta_plus", "inf", "delta and thetas of the rip report must have finite entries"),
    ("truth", "support", [42], "truth support [42] is not inside [0, 9)"),
    ("truth", "support", [-1], "truth support [-1] is not inside [0, 9)"),
    ("truth", "support", [0, 3], "truth support has 2 entries, more than k = 1"),
])
def test_bound_verify_rejects_a_non_finite_rip_report_or_a_truth_support_off_the_frame(
        tmp_path, capsys, part, key, value, message):
    path = _trial(tmp_path)
    trial = serialize.load_json(path)
    (trial["rip"] if part == "rip" else trial["problem"]["truth"])[key] = value
    serialize.save_json(trial, path)
    assert main(["bound", "verify", "--trial", path]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("part, edit, message", [
    ("result", lambda d: d.pop("x_hat"), "missing solver result keys: ['x_hat']"),
    ("rip", lambda d: d.update(detla=0.5), "unknown rip report keys: ['detla']"),
    # every report is exact now; one from the deleted sampler reaches no verdict
    ("rip", lambda d: d.update(exhaustive=False), "unknown rip report keys: ['exhaustive']"),
    ("truth", lambda d: d.pop("z"), "truth payload missing key 'z'"),
    # a check the decoders kept: delta is read as a float
    ("rip", lambda d: d.update(delta="abc"), "could not convert string to float: 'abc'"),
    ("result", lambda d: d["certificate"].pop("signs"), "missing solver certificate keys: ['signs']"),
    ("result", lambda d: d["certificate"].update(signs=5),
     "solver certificate signs and zero_set must be lists: 'int' object is not iterable"),
], ids=["result-without-x_hat", "rip-with-unknown-key", "rip-of-a-sampled-report", "truth-without-z",
        "non-numeric-delta", "certificate-without-signs", "certificate-signs-not-a-list"])
def test_bound_verify_names_a_missing_or_unknown_key(tmp_path, capsys, part, edit, message):
    path = _trial(tmp_path)
    trial = serialize.load_json(path)
    edit(trial["problem"]["truth"] if part == "truth" else trial[part])
    serialize.save_json(trial, path)
    assert main(["bound", "verify", "--trial", path]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")  # and no record on stdout


@pytest.mark.parametrize("part, key, value, message", [
    ("rip", "delta", {"a": 1}, "rip report delta must be a number, got dict"),
    ("rip", "delta", [0.5], "rip report delta must be a number, got list"),
    ("rip", "theta_minus", {"a": 1}, "rip report theta_minus must be a number, got dict"),
    ("rip", "theta_plus", {"a": 1}, "rip report theta_plus must be a number, got dict"),
    ("result", "objective", {"a": 1}, "solver result objective must be a number, got dict"),
    ("result", "feasibility", {"a": 1}, "solver result feasibility must be a number, got dict"),
    ("result", "x_hat", {"a": 1}, "solver result x_hat must hold numbers only: "
     "float() argument must be a string or a real number, not 'dict'"),
], ids=["delta-object", "delta-list", "theta_minus-object", "theta_plus-object", "objective-object",
        "feasibility-object", "x_hat-object"])
def test_bound_verify_names_a_field_that_is_not_a_number(tmp_path, capsys, part, key, value, message):
    # a JSON object here used to end the CLI with a TypeError traceback
    path = _trial(tmp_path)
    trial = serialize.load_json(path)
    trial[part][key] = value
    serialize.save_json(trial, path)
    assert main(["bound", "verify", "--trial", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("t", [[1.0], {"a": 1}, None, True, False, "1.0"],
                         ids=["list", "object", "null", "true", "false", "string"])
def test_bound_verify_rejects_a_t_that_is_not_a_number(tmp_path, capsys, t):
    # a list, an object or null ended in a TypeError traceback, and true read as t = 1
    path = _trial(tmp_path)
    trial = serialize.load_json(path)
    trial["t"] = t
    serialize.save_json(trial, path)
    out = tmp_path / "record.json"
    assert main(["bound", "verify", "--trial", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: trial t must be a number, got {type(t).__name__}\n"
    assert not out.exists()
