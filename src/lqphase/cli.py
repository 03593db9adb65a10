"""Command-line interface.

Subcommands: frame gen, rip estimate, nsp falsify, solve, bound check,
bound verify, experiment bound, experiment transition, selfcheck lemmas.
rip estimate enumerates every support: it reports the exact DRIP constant,
or with --sdrip the exact half-subset extremes.  solve --method irls takes
one parameter, --seed; the oracle takes none.
Exit codes: 0 success, 1 usage/config error, 2 resource/budget error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import serialize
from .bounds import constants_c1_c2, verify_recovery_bound
from .errors import ConfigurationError, ResourceBudgetError
from .frames import build_parseval_random
from .harness import (
    run_bound_experiment,
    selfcheck_lemmas,
    transition_sweep,
)
from .nsp import nsp_real_falsify
from .records import ExperimentConfig, _is_real, emit_results, transition_to_csv
from .rip import drip_constant, sdrip_constants
from .solver import solve_irls, solve_oracle_noiseless


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


_SHARED_OPTIONS = {
    "--seed": dict(type=int, default=0),
    "--max-seconds": dict(type=float, default=None),
    "--out": dict(type=str, default=None),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    """Add the shared options a subcommand reads, and no others: a flag it
    would ignore is then a usage error."""
    for flag in flags:
        p.add_argument(flag, **_SHARED_OPTIONS[flag])


def _reject(args, why: str, *flags: str) -> None:
    """Exit with a usage error naming the first of flags that was passed,
    for a subcommand mode that does not read them (their default is None)."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            sys.stderr.write(f"error: argument {flag}: has no effect {why}\n")
            raise SystemExit(1)


def _emit(payload: dict, out: str | None) -> None:
    if out:
        serialize.save_json(payload, out)
    else:
        sys.stdout.write(serialize.json_text(payload) + "\n")


def _cmd_frame_gen(args) -> int:
    F = build_parseval_random(args.n, args.N, args.seed)
    _emit(serialize.frame_to_dict(F), args.out)
    return 0


def _cmd_rip_estimate(args) -> int:
    if not args.sdrip:
        _reject(args, "without --sdrip", "--half-rule")
    P = serialize.problem_from_dict(serialize.load_json(args.problem))
    if args.sdrip:
        report = sdrip_constants(P.A, P.frame, args.order, half_rule=args.half_rule or "ceil")
    else:
        report = drip_constant(P.A, P.frame, args.order)
    _emit(dataclasses.asdict(report), args.out)
    return 0


def _cmd_nsp_falsify(args) -> int:
    P = serialize.problem_from_dict(serialize.load_json(args.problem))
    witness = nsp_real_falsify(P.A, P.frame, args.k, args.q, budget=args.budget,
                               seed=args.seed, lambda_mode=args.lambda_mode)
    payload = {
        "witness": None if witness is None else dataclasses.asdict(witness),
        "budget": args.budget,
        "lambda_mode": args.lambda_mode,
        "seed": args.seed,
    }
    _emit(payload, args.out)
    return 0


def _cmd_solve(args) -> int:
    if args.method == "oracle":
        _reject(args, "with --method oracle", "--seed")
    P = serialize.problem_from_dict(serialize.load_json(args.problem))
    result = solve_oracle_noiseless(P) if args.method == "oracle" else solve_irls(P, args.seed or 0)
    _emit(dataclasses.asdict(result), args.out)
    return 0


def _cmd_bound_check(args) -> int:
    consts = constants_c1_c2(args.q, args.t, args.delta)
    _emit(dataclasses.asdict(consts), args.out)
    return 0


def _cmd_bound_verify(args) -> int:
    trial = serialize.require_mapping(serialize.load_json(args.trial), "trial payload")
    if not _is_real(t := trial["t"]):  # a bool would read as 0 or 1
        raise ConfigurationError(f"trial t must be a number, got {type(t).__name__}")
    P = serialize.problem_from_dict(trial["problem"])
    result = serialize.solver_result_from_dict(trial["result"])
    rip = serialize.rip_report_from_dict(trial["rip"])
    record = verify_recovery_bound(P, result, rip, float(t))
    _emit(dataclasses.asdict(record), args.out)
    return 0


def _cmd_experiment_bound(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    records = run_bound_experiment(cfg, max_seconds=args.max_seconds)
    out = args.out or "bound_results.csv"
    emit_results(records, args.format, out)
    return 0


def _cmd_experiment_transition(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    cells, not_run = transition_sweep(cfg, max_seconds=args.max_seconds)
    out = args.out or "transition_results.csv"
    serialize.write_text(out, transition_to_csv(cells))
    if not_run:
        why = "; ".join(dict.fromkeys(not_run.values()))
        total = len(cells) + len(not_run)
        sys.stderr.write(f"{why}: {len(not_run)} of {total} transition cells not run\n")
    errors = [e for c in cells for e in c.errors]
    if errors:
        kinds = ", ".join(dict.fromkeys(errors))
        sys.stderr.write(f"{kinds}: {len(errors)} of {len(cells) * cfg.trials} transition "
                         "trials raised and count as failures\n")
    return 0


def _cmd_selfcheck_lemmas(args) -> int:
    ok, lines = selfcheck_lemmas(seed=args.seed)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="lqphase", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    frame = sub.add_parser("frame").add_subparsers(dest="action", required=True)
    gen = frame.add_parser("gen")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--N", type=int, required=True)
    _add_shared(gen, "--seed", "--out")
    gen.set_defaults(func=_cmd_frame_gen)

    rip = sub.add_parser("rip").add_subparsers(dest="action", required=True)
    est = rip.add_parser("estimate")
    est.add_argument("--problem", required=True)
    est.add_argument("--order", type=int, required=True)
    est.add_argument("--sdrip", action="store_true")
    # ceil with --sdrip; None lets DRIP, which does not read it, reject it
    est.add_argument("--half-rule", choices=("ceil", "floor"), default=None)
    _add_shared(est, "--out")
    est.set_defaults(func=_cmd_rip_estimate)

    nsp = sub.add_parser("nsp").add_subparsers(dest="action", required=True)
    fal = nsp.add_parser("falsify")
    fal.add_argument("--problem", required=True)
    fal.add_argument("--k", type=int, required=True)
    fal.add_argument("--q", type=float, required=True)
    fal.add_argument("--budget", type=int, default=10**4)
    fal.add_argument("--lambda-mode", choices=("card_at_most_k", "all_subsets"),
                     default="card_at_most_k")
    _add_shared(fal, "--seed", "--out")
    fal.set_defaults(func=_cmd_nsp_falsify)

    solve_p = sub.add_parser("solve")
    solve_p.add_argument("--problem", required=True)
    solve_p.add_argument("--method", choices=("oracle", "irls"), default="oracle")
    _add_shared(solve_p, "--seed", "--out")
    solve_p.set_defaults(func=_cmd_solve, seed=None)  # 0 for irls; None lets oracle reject it

    bound = sub.add_parser("bound").add_subparsers(dest="action", required=True)
    check = bound.add_parser("check")
    check.add_argument("--q", type=float, required=True)
    check.add_argument("--t", type=float, required=True)
    check.add_argument("--delta", type=float, required=True)
    _add_shared(check, "--out")
    check.set_defaults(func=_cmd_bound_check)
    verify = bound.add_parser("verify")
    verify.add_argument("--trial", required=True)
    _add_shared(verify, "--out")
    verify.set_defaults(func=_cmd_bound_verify)

    exp = sub.add_parser("experiment").add_subparsers(dest="action", required=True)
    expb = exp.add_parser("bound")
    expb.add_argument("--config", required=True)
    expb.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="csv writes the fixed records.CSV_COLUMNS schema; json carries every "
             "TrialRecord field, including wall_time_s and theta_window_ok")
    _add_shared(expb, "--max-seconds", "--out")
    expb.set_defaults(func=_cmd_experiment_bound)
    expt = exp.add_parser("transition")
    expt.add_argument("--config", required=True)
    _add_shared(expt, "--max-seconds", "--out")
    expt.set_defaults(func=_cmd_experiment_transition)

    selfcheck = sub.add_parser("selfcheck").add_subparsers(dest="action", required=True)
    lem = selfcheck.add_parser("lemmas")
    _add_shared(lem, "--seed")
    lem.set_defaults(func=_cmd_selfcheck_lemmas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ResourceBudgetError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except (ValueError, RuntimeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
