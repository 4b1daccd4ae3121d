"""Interpreter isolation and the environment record of a benchmark run.

The package is imported from ``src/`` by path: it is not installed, and the
benchmark downloads nothing.  numpy's element-wise operations do not thread,
but BLAS-backed calls could, so every process pins its thread pools to one
thread before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-iteration scratch directories; each is removed after its iteration.
TMP = ROOT / ".bench_tmp"
#: Span dumps of traced runs.
OUT = ROOT / ".bench_out"

_PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def have_source() -> bool:
    return (SRC / "phasewave" / "__init__.py").is_file()


def isolate() -> None:
    """Pin thread pools, drop PHASEWAVE_OUT and put ``src/`` first on the path.

    Call before numpy or phasewave is imported.  Children inherit the
    environment, so every fresh interpreter runs under the same settings.
    """
    os.environ.update(_PINNED)
    os.environ.pop("PHASEWAVE_OUT", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Sizes of the L2 and L3 caches seen by CPU 0, as the kernel reports them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for k in range(8):
        level = _read(f"{base}/index{k}/level")
        size = _read(f"{base}/index{k}/size")
        if level and size and level.strip() in ("2", "3"):
            out[f"L{level.strip()}"] = size.strip()
    return out


def _git_sha() -> str | None:
    # Only a checkout with its own .git: git would otherwise search parent directories.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies a commit without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "phasewave").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(workload: str, seed: int, smoke: bool) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "threads": dict(_PINNED),
        "note": "read_field reads files just written, from the page cache; caches are "
                "not dropped, so read times measure parsing, not disk",
    }
