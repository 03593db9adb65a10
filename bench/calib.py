"""Machine-speed calibration: fixed tasks that do not touch lqphase.

The VM the benchmark runs on changes speed from second to second and for
minutes at a time (README.md, "Noise"), by more than a timing bound allows.
A run therefore also times two fixed tasks whose speed follows the machine's:

- `task`, about a millisecond and a half of small numpy linear algebra driven
  from Python loops, the same mix as a trial.  In an untraced sweep `Paired`
  runs it once after every trial, so it sees the machine in the same states
  as the trials, and the run applies to its times the statistic it applies to
  the trials' times;
- `import numpy` in a fresh interpreter, timed on its own at the start of
  each set-up (lqphase imports it first anyway).  It takes about half of the
  set-up, and on this VM its time swings by 2x for minutes at a time while the
  rest of the set-up does not move with it.

Each trial time is scaled by the task's reference time over the task's time
right after that trial, so it reads in milliseconds of this machine at its
reference speed.  In each set-up time, the numpy import counts at its
reference time and the rest as measured.  The reference times are the tasks'
times on the 2-CPU VM the benchmark was defined on; both commits of a
comparison share them, so they cancel out of any comparison.  A change to
lqphase cannot move either task.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

import workloads
from lqphase import harness

# Reference times on the VM the benchmark was defined on, in seconds: a
# typical `task` paired with a trial, and a typical `import numpy` at the
# start of a set-up.
TASK_REF_S = 1.5e-3
IMPORT_REF_S = 0.08

_rng = np.random.default_rng(20250604)
_GRAMS = [(lambda M: M.T @ M + np.eye(d))(_rng.standard_normal((d + 2, d))) for d in (2, 3, 4, 6, 8)]
_RHS = [_rng.standard_normal(G.shape[0]) for G in _GRAMS]
_ROWS = _rng.standard_normal((9, 4))


def task() -> float:
    """Fixed work: small eigen- and linear solves, row-subset Gram matrices and
    index enumeration, in the proportions of a trial."""
    acc = 0.0
    for _ in range(6):
        for G, v in zip(_GRAMS, _RHS):
            acc += float(np.linalg.eigvalsh(G)[0])
            acc += float(np.linalg.solve(G, v) @ v)
    for I in combinations(range(9), 5):
        B = _ROWS[list(I)]
        acc += float(np.einsum("ip,iq->pq", B, B)[0, 0])
    for S in combinations(range(14), 3):
        acc += S[0] * S[1] - S[2]
    return acc


class Paired:
    """Context manager that runs `task` once after every trial of a sweep and
    keeps its times, in seconds, in trial order.  It replaces the trial
    functions the sweeps call by name, as spans.Tracer does."""

    TARGETS = ((harness, "_run_bound_trial"), (workloads, "nsp_trial"))

    def __init__(self):
        self.times: list[float] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Paired":
        for module, attr in self.TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn):
        def trial_then_task(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = time.perf_counter()
            task()
            self.times.append(time.perf_counter() - t0)
            return result

        return trial_then_task
