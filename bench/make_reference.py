"""Record the certified values of the default and held-out seeds in reference.json.

Run from the repository root when a workload's grid or trial count changes,
on a commit whose certified outputs are trusted:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
            records, _ = workloads.run_sweep(name, workloads.build_config(name, seed))
            reference.setdefault(name, {})[str(seed)] = {
                f"{r.cell_index},{r.trial_index}": checks.certified_values(r) for r in records
            }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
