"""Spread of one set of benchmark results, or the change between two sets.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result files that run.py wrote (.bench_out/*.json); only
untraced runs are read.  For every workload and end-to-end metric it prints the
median and the spread (quartile distance over median) beside the metric's
bound in BENCHMARK.json; given NEW_DIR it also prints how far the new median is
worse than the base median, as a share of the base.  Results measured in
different environments (see envinfo.py) are refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import envinfo
import summary

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    results = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in results if r["trace"] == 0]


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    envs = [r["environment"] for results in sets for r in results]
    for env in envs[1:]:
        differ = envinfo.comparable(envs[0], env)
        if differ:
            print(f"refused: results come from different environments ({', '.join(differ)})",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worst = 0
    for workload in sorted({r["workload"] for results in sets for r in results}):
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            for results in sets:
                values = [r["metrics"][name] for r in results if r["workload"] == workload]
                row.append((summary.median(values), summary.spread(values), len(values)))
            text = "  ".join(f"median {m:.5g} spread {s:.3f} (n={n})" for m, s, n in row)
            if len(row) == 2:
                change = (row[1][0] - row[0][0]) / row[0][0]
                worse = change if metric["better"] == "lower" else -change
                verdict = "WORSE THAN BOUND" if worse > bound else "within bound"
                if row[0][1] > bound:
                    verdict += ", unresolved: base spread exceeds the bound"
                text += f"  worse by {worse:+.3f} ({verdict})"
                worst |= worse > bound
            print(f"  {name:<16} bound {bound:<5} {text}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
