"""Time invariant_set_probe with the expm_fixed and the rk_adaptive propagator.

Prints one row per dimension: the median wall time over `--repeats` probes
of the damped oscillator H = N, L = a with V = N (20 seeded samples to
t = 30, as in the `small-n24` benchmark workload), once with each method.
These numbers set the limits in `dynamics._auto_method`.

    PYTHONPATH=src python3 scripts/time_propagators.py [--dims 16 24 30 40]
"""

from __future__ import annotations

import argparse
import statistics
import time

from qmstab import ModelSpec, invariant_set_probe, ladder_lowering, number_operator


def median_time(n: int, method: str, repeats: int) -> tuple[float, float]:
    model = ModelSpec(number_operator(n), [ladder_lowering(n)])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe = invariant_set_probe(model, number_operator(n), seed=3, method=method)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), probe.max_final


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[16, 24, 30, 40])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    median_time(4, "expm_fixed", 1)  # load BLAS/LAPACK before timing
    print("dim  expm_s  rk_s    max_final (expm / rk)")
    for n in args.dims:
        expm, expm_final = median_time(n, "expm_fixed", args.repeats)
        rk, rk_final = median_time(n, "rk_adaptive", args.repeats)
        print(f"{n:3d}  {expm:6.3f}  {rk:6.3f}  {expm_final:.3e} / {rk_final:.3e}", flush=True)


if __name__ == "__main__":
    main()
