"""Benchmark of lqphase sweeps: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 bench/run.py --workload oracle-sweep --seed 0 --seconds 26 --trace 0

The benchmark builds nothing; it imports lqphase from ./src.  It times set-up
in fresh interpreters, then repeats the workload's sweep, single-threaded, as
many times as fit into --seconds at the speed the benchmark was defined at,
checks every output, and prints each metric with its unit.  Timings are read
at the machine's reference speed, by the calibration tasks of calib.py.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with the environment it was measured in,
is written under .bench_out/, and a traced run writes its spans there too.
Exit code 0 means every check passed, 1 that a check failed, 2 that the
benchmark could not start.  README.md in this directory describes the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("oracle-sweep", "sdrip-sweep", "irls-sweep", "nsp-certify")
SETUP_RUNS = 9
MIN_SWEEPS = 3
# A run stops early when the next round would end after this many times
# --seconds; that happens only on a machine or commit 15% slower than the
# benchmark's definition, and it bounds the length of a run.
TIME_CAP = 1.15
# End-to-end metrics of the result line.  failed_frac is printed beside them
# but left out of that line: it is 0 in every passing run, and only passing
# runs are compared; ok_frac = 1 - failed_frac carries the same information.
END_TO_END = {
    "setup_s": "s", "trials_per_s": "1/s", "trial_p50_ms": "ms", "trial_p90_ms": "ms",
    "ok_frac": "ratio", "bound_pass_frac": "ratio", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 is the default seed, 1 the held-out one")
    p.add_argument("--seconds", type=float, default=26.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics, untraced; 1: per-layer metrics from traced sweeps")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class Sweep:
    traced: bool
    seconds: float
    csv_lines: list[str]
    wall_ms: list[float]
    task_ms: list[float] = field(default_factory=list)  # paired calibration task per trial
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


@dataclass
class Measured:
    sweeps: list[Sweep]
    setup_s: list[float]   # set-up times, each in its own fresh interpreter
    import_s: list[float]  # the part of each set-up that imported numpy
    records: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)


def _setup_child(args) -> int:
    """Time `import lqphase` plus building the config, in this fresh
    interpreter.  numpy, which lqphase imports first, is imported on its own
    beforehand; that part is also printed, as the calibration of calib.py."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import workloads  # imports lqphase

    workloads.build_config(args.workload, args.seed)
    print(repr(time.perf_counter() - t0), repr(t1 - t0))
    return 0


def time_setup(args) -> tuple[float, float]:
    """(set-up seconds, of which importing numpy) of one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    total, numpy_part = done.stdout.split()[-2:]
    return float(total), float(numpy_part)


def run_sweep(name: str, cfg, traced: bool):
    """One timed sweep; returns (Sweep, records, witnesses).  An untraced sweep
    runs the calibration task after each trial, and its time is left out of
    the sweep's."""
    import calib
    import spans
    import workloads
    from lqphase.records import records_to_csv

    tracer = spans.Tracer(name) if traced else calib.Paired()
    with tracer:
        t0 = time.perf_counter()
        records, witnesses = workloads.run_sweep(name, cfg)
        seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    csv = records_to_csv(records)
    emit_s = time.perf_counter() - t0
    sweep = Sweep(traced, seconds, csv.splitlines(),
                  [1e3 * r.wall_time_s if r.wall_time_s is not None else 0.0 for r in records])
    if not traced:
        sweep.task_ms = [1e3 * t for t in tracer.times]
        sweep.seconds -= sum(tracer.times)
    else:
        sweep.layers = spans.layer_metrics(tracer.spans, tracer.counts, seconds, records, emit_s)
        sweep.spans = tracer.spans
    return sweep, records, witnesses


def round_count(args) -> int:
    """Rounds a run makes: as many untraced sweeps as fit into --seconds at the
    workload's `sweep_s`, or half as many rounds of two sweeps when traced.
    The count depends on the settings alone, so every commit takes its
    per-trial median times over the same number of sweeps."""
    import workloads

    count = max(MIN_SWEEPS, int(args.seconds / workloads.WORKLOADS[args.workload]["sweep_s"]))
    return max(MIN_SWEEPS, count // 2) if args.trace else count


def measure(args, cfg) -> Measured:
    """Time set-up, then run the sweeps.

    Set-up is timed first, in SETUP_RUNS fresh interpreters, outside the
    measuring time.  Then each round runs one untraced sweep, followed by a
    traced one in a traced run.
    """
    import summary
    import workloads

    name, trace = args.workload, bool(args.trace)
    workloads.run_sweep(name, workloads.warmup_config(cfg))
    run = Measured([], [], [])
    for _ in range(SETUP_RUNS):
        total, numpy_part = time_setup(args)
        run.setup_s.append(total)
        run.import_s.append(numpy_part)
    count = round_count(args)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < count:
        t0 = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            sweep, records, witnesses = run_sweep(name, cfg, traced)
            run.sweeps.append(sweep)
            if not run.records:
                run.records, run.witnesses = records, witnesses
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + summary.median(rounds) > TIME_CAP * args.seconds:
            break
    return run


def find_failures(workload: str, cfg, sweeps, records, witnesses):
    """Failed (sweep, trial) pairs and the messages per trial.

    A trial fails in every sweep when a correctness check fails on it, and in
    one sweep when its record there differs from the first untraced sweep's
    or when a traced sweep shows no span for a layer it should reach.
    """
    import checks
    import spans
    import workloads

    problems = checks.check_sweep(workload, cfg, records, witnesses)
    keys = [(r.cell_index, r.trial_index) for r in records]
    failed = {(i, key) for i in range(len(sweeps)) for key in problems}
    expected = workloads.WORKLOADS[workload]["layers"]
    base = sweeps[0].csv_lines
    for i, sweep in enumerate(sweeps):
        if sweep.csv_lines[0] != base[0] or len(sweep.csv_lines) != len(base):
            failed |= {(i, key) for key in keys}
            problems.setdefault(("sweep", i), []).append("CSV header or length differs")
            continue
        for key, a, b in zip(keys, base[1:], sweep.csv_lines[1:]):
            if a != b:
                failed.add((i, key))
                problems.setdefault(key, []).append(f"record in sweep {i} differs from sweep 0")
        if sweep.traced:
            for key, lacking in spans.missing_layers(sweep.spans, records, expected).items():
                failed.add((i, key))
                problems.setdefault(key, []).append(f"no span for layer(s) {', '.join(lacking)}")
    return failed, problems


def per_trial(run: Measured, raw: bool = False) -> list[float]:
    """Each trial's median time over the untraced sweeps, in ms.  Unless raw,
    each time is first scaled by the reference time of the calibration task
    over the task's time right after that trial (calib.py)."""
    import calib
    import summary

    ref_ms = 1e3 * calib.TASK_REF_S
    plain = [s for s in run.sweeps if not s.traced]
    return [summary.median([t if raw else t * ref_ms / c for t, c in zip(ts, cs)])
            for ts, cs in zip(zip(*(s.wall_ms for s in plain)), zip(*(s.task_ms for s in plain)))]


def speed(run: Measured) -> dict:
    """How fast the machine ran, from the calibration tasks (calib.py): each
    scale is a task's median time in this run over its reference time, so 1.1
    means 10% slower than the reference."""
    import calib
    import summary

    return {
        "task_scale": summary.median([c for s in run.sweeps for c in s.task_ms])
        / (1e3 * calib.TASK_REF_S),
        "import_scale": summary.median(run.import_s) / calib.IMPORT_REF_S,
    }


def end_to_end(run: Measured, failed: int, attempted: int, raw: bool = False) -> dict:
    """End-to-end metrics of the untraced sweeps, at the machine's reference
    speed (or as measured, with raw=True).

    The machine's speed changes from second to second, so each trial time is
    scaled by the calibration task run right after it, each trial's time is
    its median over the run's sweeps, whose number round_count fixes, and the
    sweep's wall time is rebuilt from those times plus the median time a sweep
    spent outside its trials.  In each set-up time the numpy import it began
    with counts at its reference time (calib.py; README.md, "Noise").
    """
    import calib
    import summary

    task = 1.0 if raw else speed(run)["task_scale"]
    plain = [s for s in run.sweeps if not s.traced]
    times = per_trial(run, raw)
    outside_s = summary.median([s.seconds - sum(s.wall_ms) / 1e3 for s in plain]) / task
    setup = run.setup_s if raw else [calib.IMPORT_REF_S + s - i
                                     for s, i in zip(run.setup_s, run.import_s)]
    applies = [r.bound_status for r in run.records if r.bound_status in ("pass", "fail")]
    return {
        "setup_s": summary.median(setup),
        "trials_per_s": len(run.records) / (sum(times) / 1e3 + outside_s),
        "trial_p50_ms": summary.median(times),
        "trial_p90_ms": summary.p90(times),
        "ok_frac": 1.0 - failed / attempted,
        "failed_frac": failed / attempted,
        "bound_pass_frac": applies.count("pass") / len(applies) if applies else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(sweeps) -> dict:
    """The fastest traced sweep's layer metrics and the tracing overhead, in
    the order of spans.UNITS (each share beside its busy time)."""
    import spans

    traced = min((s for s in sweeps if s.traced), key=lambda s: s.seconds)
    plain = min(s.seconds for s in sweeps if not s.traced)
    out = {**traced.layers, "trace.overhead_frac": traced.seconds / plain - 1.0}
    return {name: out[name] for name in spans.UNITS}


def write_result(args, env, run: Measured, metrics, raw, problems, attempted, failed):
    OUT.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "trials": len(run.records),
        "sweep_seconds": [[s.traced, s.seconds] for s in run.sweeps],
        "sweep_trial_ms": [s.wall_ms for s in run.sweeps if not s.traced],
        "sweep_task_ms": [s.task_ms for s in run.sweeps if not s.traced],
        "setup_runs_s": run.setup_s, "import_runs_s": run.import_s,
        "speed": speed(run),
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "raw_metrics": raw, "problems": {str(k): v for k, v in problems.items()},
    }
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for i, sweep in enumerate(run.sweeps):
                for s in sweep.spans:
                    fh.write(json.dumps({"sweep": i, "name": s.name, "key": s.key,
                                         "start": s.start, "end": s.end, "depth": s.depth}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lqphase" / "__init__.py").is_file():
        print(f"error: no lqphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return _setup_child(args)

    # these import lqphase, so they come after ./src is on the path
    import envinfo
    import lqphase
    import spans
    import workloads

    if Path(lqphase.__file__).resolve().parent != SRC / "lqphase":
        print(f"error: imported lqphase from {lqphase.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = envinfo.environment(ROOT)
    cfg = workloads.build_config(args.workload, args.seed)
    run = measure(args, cfg)
    sweeps, records = run.sweeps, run.records
    failures, problems = find_failures(args.workload, cfg, sweeps, records, run.witnesses)
    attempted, failed = len(records) * len(sweeps), len(failures)

    metrics = end_to_end(run, failed, attempted)
    raw = end_to_end(run, failed, attempted, raw=True)
    units = dict(END_TO_END, failed_frac="ratio")
    if args.trace:
        metrics.update(per_layer(sweeps))
        units.update(spans.UNITS)
    n_plain = sum(not s.traced for s in sweeps)
    scales = speed(run)
    print(f"lqphase benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print(f"environment  nproc={env['nproc']}  python={env['python']}  numpy={env['numpy']}  "
          f"blas={env['blas']['blas']['name']} {env['blas']['blas']['version']}  "
          f"commit={env['commit']}  sources={env['source_sha256'][:12]}")
    print(f"sweeps  {n_plain} untraced (rounds planned {round_count(args)}) and "
          f"{len(sweeps) - n_plain} traced, {len(records)} trials each; setup_s is the median "
          f"of {len(run.setup_s)} fresh interpreters; each trial time is its median over "
          f"the untraced sweeps, n={len(records)}")
    print(f"machine speed  calibration task {scales['task_scale']:.4f}x and numpy import "
          f"{scales['import_scale']:.4f}x its reference time; timings below are read at "
          f"the reference speed (calib.py), the raw ones are in brackets")
    for name, value in metrics.items():
        extra = f"  [{raw[name]:.6g}]" if name in raw and raw[name] != value else ""
        print(f"  {name:<38} {value:>14.6g} {units[name]}{extra}")
    for key, messages in list(problems.items())[:20]:
        print(f"CHECK FAILED {key}: {'; '.join(messages)}")
    print(f"checks  {f'{failed} of {attempted} trials failed' if failures else 'all passed'}")
    path = write_result(args, env, run, metrics, raw, problems, attempted, failed)
    print(f"result  {path.relative_to(ROOT)}")

    keys = spans.UNITS if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in keys},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
