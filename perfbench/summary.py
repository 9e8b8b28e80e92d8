#!/usr/bin/env python3
"""Run each workload in its own process and print every metric with its unit.

    python3 perfbench/summary.py                       # all workloads, seed 1
    python3 perfbench/summary.py --seeds 1 2 3 4 5 --workloads small-n24

Run from the root of a qmstab checkout. With several seeds it also prints,
per metric, the median over runs and the quartile spread (Q3 - Q1) / median
from statistics.quantiles(values, n=4), which is how run-to-run noise is
judged against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in section}

    ok = True
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed_frac={result['failed'] / result['attempted']:.3g} "
                  f"({result['failed']} of {result['attempted']} ops)", flush=True)
        print(f"== {name} ==")
        for m in section:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                print(f"  {m['name']:<44} absent")
                continue
            med = statistics.median(values)
            line = f"  {m['name']:<44} {med:.6g} {m['unit']}"
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
                line += f"   spread {spread:.3f}"
                if bounds.get(m["name"]) is not None:
                    line += f" (bound {bounds[m['name']]}, bound/3 {bounds[m['name']] / 3:.3f})"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
