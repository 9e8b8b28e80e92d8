"""The run environment recorded beside the metrics."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def blas_runtime() -> list[dict]:
    """OpenBLAS libraries mapped into this process and their thread counts."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    entry["threads"] = int(get_threads())
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode(errors="replace")
        found.append(entry)
    return found


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def environment(root: Path, args) -> dict:
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = {k: blas_build.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reduced": bool(args.reduced),
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_build": blas_build,
        "blas_runtime": blas_runtime(),
        "blas_thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        "src_lines": src_lines(root),
        "src_lines_note": "net src/ line count, recorded as information, not a metric",
    }
