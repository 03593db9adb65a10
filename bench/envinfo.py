"""The environment a result was measured in.

Two results can be compared only when every field except the measured code
(`commit`, `source_sha256`) is equal.  The checkout the benchmark runs in may
not be a git repository, so the sources are also identified by a digest.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

CODE_FIELDS = ("commit", "source_sha256")


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack")}


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src" / "lqphase"),
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Fields, other than the measured code, on which two environments differ."""
    keys = (set(a) | set(b)) - set(CODE_FIELDS)
    return sorted(k for k in keys if a.get(k) != b.get(k))
