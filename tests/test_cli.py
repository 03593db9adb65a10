import json
import shutil
import subprocess

import numpy as np
import pytest

from lqphase import serialize
from lqphase.cli import build_parser, main
from lqphase.frames import build_parseval_random, validate_frame
from lqphase.measurement import build_problem, phase_distance
from lqphase.signals import sample_dictionary_sparse


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
    F = serialize.frame_from_dict(json.loads(out.read_text()))
    assert validate_frame(F).passed
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
    assert rep["exhaustive"] and rep["theta_minus"] <= rep["theta_plus"]
    assert main(["rip", "estimate", "--problem", str(path), "--order", "1",
                 "--sampled", "--budget", "500", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["exhaustive"] is False


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
    assert main(["experiment", "bound", "--config", str(cfg_path), "--out", str(out2),
                 "--threads", "4"]) == 0
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
        "matrix_ensemble": "orthonormal",
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
    cfg = {
        "n_values": [4], "N_values": [6], "m_values": [2, 5], "k_values": [1],
        "q_values": [1.0], "trials": 3, "support_budget": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["experiment", "transition", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,4,6,2,1,1,3,0,0"
    assert capsys.readouterr().err == (
        "ResourceBudgetError: 3 of 6 transition trials raised and count as failures\n")


SHARED_FLAGS = {"--seed": "4", "--threads": "2", "--max-seconds": "1.5", "--out": "o.json"}
SUBCOMMANDS = [
    (["frame", "gen", "--n", "2", "--N", "3"], {"--seed", "--out"}),
    (["rip", "estimate", "--problem", "p.json", "--order", "1"], {"--seed", "--out"}),
    (["nsp", "falsify", "--problem", "p.json", "--k", "1", "--q", "1"], {"--seed", "--out"}),
    (["solve", "--problem", "p.json"], {"--seed", "--out"}),
    (["bound", "check", "--q", "1", "--t", "1", "--delta", "0.1"], {"--out"}),
    (["bound", "verify", "--trial", "t.json"], {"--out"}),
    (["experiment", "bound", "--config", "c.json"], {"--threads", "--max-seconds", "--out"}),
    (["experiment", "transition", "--config", "c.json"], {"--threads", "--max-seconds", "--out"}),
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


IGNORED_FLAGS = [
    (["rip", "estimate", "--order", "1"], ["--budget", "5"]),
    (["rip", "estimate", "--order", "1"], ["--seed", "9"]),
    (["rip", "estimate", "--order", "1", "--sdrip"], ["--seed", "0"]),
    (["rip", "estimate", "--order", "1"], ["--half-rule", "floor"]),
    (["rip", "estimate", "--order", "1", "--sampled"], ["--half-rule", "ceil"]),
    (["solve", "--method", "oracle"], ["--seed", "5"]),
    (["solve", "--method", "oracle"], ["--config", "c.json"]),
    (["solve", "--method", "irls", "--config", "c.json"], ["--seed", "5"]),
]


@pytest.mark.parametrize("argv,flag", IGNORED_FLAGS,
                         ids=[" ".join(argv + flag[:1]) for argv, flag in IGNORED_FLAGS])
def test_flags_a_mode_does_not_read_are_usage_errors(tmp_path, problem_file, capsys, argv, flag):
    path, _, _ = problem_file
    (tmp_path / "c.json").write_text(json.dumps({"restarts": 2, "seed": 3}))
    out = tmp_path / "o.json"
    argv = [w.replace("c.json", str(tmp_path / "c.json")) for w in argv + flag]
    assert main(argv + ["--problem", str(path), "--out", str(out)]) == 1
    assert f"argument {flag[0]}: has no effect" in capsys.readouterr().err
    assert not out.exists()


def test_flags_a_mode_reads_keep_their_defaults(tmp_path, problem_file):
    path, _, _ = problem_file
    out = tmp_path / "o.json"
    rip = ["rip", "estimate", "--problem", str(path), "--order", "1", "--out", str(out)]
    assert main(rip + ["--sampled", "--sdrip", "--budget", "50", "--seed", "9",
                       "--half-rule", "floor"]) == 0
    assert main(rip + ["--sampled"]) == 0
    assert json.loads(out.read_text())["details"]["budget"] == 10**4
    assert json.loads(out.read_text())["details"]["seed"] == 0
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
