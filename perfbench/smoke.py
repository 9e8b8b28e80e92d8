#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at reduced size (dims 4-8, one pass).

    python3 perfbench/smoke.py

Run from the root of a qmstab checkout. For every workload it asserts that
  - untraced and traced runs report exactly the metrics BENCHMARK.json
    declares, each with its declared unit;
  - no op fails (failed_frac is 0);
  - a wrong expected value injected into the workload's checks makes ops
    fail (failed_frac > 0).
It also asserts that run.py, started in a directory that holds only
BENCHMARK.json and perfbench/, exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WRONG = {"osc-n60": ("expect_mean", 0.5),
         "small-n24": ("expect_null_dim", 2),
         "certify-n32": ("expect_verdict", "fails")}


def bench_run(root: Path, name: str, trace: int, wrong: bool = False) -> dict:
    args = argparse.Namespace(workload=name, seed=7, seconds=1.0, trace=trace, reduced=True,
                              setup_only=False)
    wl = WORKLOADS[name](seed=args.seed, reduced=True)
    if wrong:
        setattr(wl, *WRONG[name])
    result = run.run_benchmark(args, root, time.perf_counter(), workload=wl)
    assert result is not None, "benchmark refused to run"
    return result


def check_bare_directory(root: Path) -> None:
    (root / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=root / ".bench_out"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify-n32", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without the program"
    assert '"metrics"' not in proc.stdout, "run.py printed a result without the program"


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench_run(root, name, trace)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{name} trace {trace}: metric names/units differ: " \
                f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}"
            assert result["failed"] == 0 and result["correct"], f"{name} trace {trace}: ops failed"
        result = bench_run(root, name, 0, wrong=True)
        assert result["failed"] > 0 and not result["correct"], \
            f"{name}: a wrong expected value went unnoticed"
        print(f"smoke: {name} ok (wrong expectation failed {result['failed']} of "
              f"{result['attempted']} ops)")
    check_bare_directory(root)
    print("smoke: bare directory refused ok")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
