"""Command-line interface.

Subcommands: frame gen, rip estimate, nsp falsify, solve, bound check,
bound verify, experiment bound, experiment transition, selfcheck lemmas.
Exit codes: 0 success, 1 usage/config error, 2 resource/budget error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import serialize
from .bounds import constants_c1_c2, verify_recovery_bound
from .errors import ResourceBudgetError
from .frames import build_parseval_random
from .harness import (
    run_bound_experiment,
    selfcheck_lemmas,
    transition_sweep,
    transition_to_csv,
)
from .nsp import nsp_real_falsify
from .records import ExperimentConfig, emit_results
from .rip import (
    RipReport,
    drip_constant,
    drip_constant_sampled,
    sdrip_constants,
    sdrip_constants_sampled,
)
from .solver import IrlsOptions, solve_irls, solve_oracle_noiseless


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--out", type=str, default=None)


def _emit(payload: dict, out: str | None) -> None:
    if out:
        serialize.save_json(payload, out)
    else:
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")


def _cmd_frame_gen(args) -> int:
    F = build_parseval_random(args.n, args.N, args.seed)
    _emit(serialize.frame_to_dict(F), args.out)
    return 0


def _cmd_rip_estimate(args) -> int:
    P = serialize.problem_from_dict(serialize.load_json(args.problem))
    if args.sampled:
        if args.sdrip:
            report = sdrip_constants_sampled(P.A, P.frame, args.order, budget=args.budget,
                                             seed=args.seed, half_rule=args.half_rule)
        else:
            delta, witness = drip_constant_sampled(P.A, P.frame, args.order,
                                                   budget=args.budget, seed=args.seed)
            report = RipReport(order=args.order, delta=delta, exhaustive=False,
                               details={"budget": args.budget, "seed": args.seed,
                                        "witness_support": list(witness.support)})
    elif args.sdrip:
        report = sdrip_constants(P.A, P.frame, args.order, half_rule=args.half_rule)
    else:
        delta, witness = drip_constant(P.A, P.frame, args.order)
        report = RipReport(order=args.order, delta=delta, exhaustive=True,
                           details={"witness_support": list(witness.support)})
    _emit(serialize.rip_report_to_dict(report), args.out)
    return 0


def _cmd_nsp_falsify(args) -> int:
    P = serialize.problem_from_dict(serialize.load_json(args.problem))
    witness = nsp_real_falsify(P.A, P.frame, args.k, args.q, budget=args.budget,
                               seed=args.seed, lambda_mode=args.lambda_mode)
    payload = {
        "witness": None if witness is None else serialize.witness_to_dict(witness),
        "budget": args.budget,
        "lambda_mode": args.lambda_mode,
        "seed": args.seed,
    }
    _emit(payload, args.out)
    return 0


def _cmd_solve(args) -> int:
    P = serialize.problem_from_dict(serialize.load_json(args.problem))
    if args.method == "oracle":
        result = solve_oracle_noiseless(P)
    else:
        opts = IrlsOptions(**serialize.load_json(args.config)) if args.config else IrlsOptions(seed=args.seed)
        result = solve_irls(P, opts)
    _emit(serialize.solver_result_to_dict(result), args.out)
    return 0


def _cmd_bound_check(args) -> int:
    consts = constants_c1_c2(args.q, args.t, args.delta)
    _emit(dataclasses.asdict(consts), args.out)
    return 0


def _cmd_bound_verify(args) -> int:
    trial = serialize.load_json(args.trial)
    P = serialize.problem_from_dict(trial["problem"])
    result = serialize.solver_result_from_dict(trial["result"])
    rip = serialize.rip_report_from_dict(trial["rip"])
    record = verify_recovery_bound(P, result, rip, float(trial["t"]))
    _emit(dataclasses.asdict(record), args.out)
    return 0


def _cmd_experiment_bound(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    records = run_bound_experiment(cfg, threads=args.threads, max_seconds=args.max_seconds)
    out = args.out or "bound_results.csv"
    emit_results(records, args.format, out)
    return 0


def _cmd_experiment_transition(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    cells, not_run = transition_sweep(cfg, threads=args.threads, max_seconds=args.max_seconds)
    out = args.out or "transition_results.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(transition_to_csv(cells))
    if not_run:
        why = "; ".join(dict.fromkeys(not_run.values()))
        total = len(cells) + len(not_run)
        sys.stderr.write(f"{why}: {len(not_run)} of {total} transition cells not run\n")
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
    _add_common(gen)
    gen.set_defaults(func=_cmd_frame_gen)

    rip = sub.add_parser("rip").add_subparsers(dest="action", required=True)
    est = rip.add_parser("estimate")
    est.add_argument("--problem", required=True)
    est.add_argument("--order", type=int, required=True)
    est.add_argument("--sdrip", action="store_true")
    est.add_argument("--sampled", action="store_true")
    est.add_argument("--budget", type=int, default=10**4)
    est.add_argument("--half-rule", choices=("ceil", "floor"), default="ceil")
    _add_common(est)
    est.set_defaults(func=_cmd_rip_estimate)

    nsp = sub.add_parser("nsp").add_subparsers(dest="action", required=True)
    fal = nsp.add_parser("falsify")
    fal.add_argument("--problem", required=True)
    fal.add_argument("--k", type=int, required=True)
    fal.add_argument("--q", type=float, required=True)
    fal.add_argument("--budget", type=int, default=10**4)
    fal.add_argument("--lambda-mode", choices=("card_at_most_k", "all_subsets"),
                     default="card_at_most_k")
    _add_common(fal)
    fal.set_defaults(func=_cmd_nsp_falsify)

    solve_p = sub.add_parser("solve")
    solve_p.add_argument("--problem", required=True)
    solve_p.add_argument("--method", choices=("oracle", "irls"), default="oracle")
    solve_p.add_argument("--config", default=None)
    _add_common(solve_p)
    solve_p.set_defaults(func=_cmd_solve)

    bound = sub.add_parser("bound").add_subparsers(dest="action", required=True)
    check = bound.add_parser("check")
    check.add_argument("--q", type=float, required=True)
    check.add_argument("--t", type=float, required=True)
    check.add_argument("--delta", type=float, required=True)
    _add_common(check)
    check.set_defaults(func=_cmd_bound_check)
    verify = bound.add_parser("verify")
    verify.add_argument("--trial", required=True)
    _add_common(verify)
    verify.set_defaults(func=_cmd_bound_verify)

    exp = sub.add_parser("experiment").add_subparsers(dest="action", required=True)
    expb = exp.add_parser("bound")
    expb.add_argument("--config", required=True)
    expb.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="csv writes the fixed records.CSV_COLUMNS schema; json carries every "
             "TrialRecord field, including wall_time_s and theta_window_ok")
    _add_common(expb)
    expb.set_defaults(func=_cmd_experiment_bound)
    expt = exp.add_parser("transition")
    expt.add_argument("--config", required=True)
    _add_common(expt)
    expt.set_defaults(func=_cmd_experiment_transition)

    selfcheck = sub.add_parser("selfcheck").add_subparsers(dest="action", required=True)
    lem = selfcheck.add_parser("lemmas")
    _add_common(lem)
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
