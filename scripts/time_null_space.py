"""Time steady_states with each of the three null-space solvers.

Prints one row per dimension and model: the median wall time over
`--repeats` calls for a seeded random model (Hermitian H, two random
couplings) and for the criterion-2 oscillator (L = a + a'/2), once with
dense eig forced, once with the bordered LU tried first (the default above
`invariants._DENSE_EIG_DIM`) and once with the shift-inverted Arnoldi window
forced. The methods actually used follow in parentheses, since a bordered
solve that certifies nothing falls back on the window. These numbers set
`invariants._DENSE_EIG_DIM`.

    PYTHONPATH=src python3 scripts/time_null_space.py [--dims 6 8 10 12 24]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

import qmstab.invariants as inv
from qmstab import (
    ModelSpec,
    ladder_lowering,
    number_operator,
    random_hermitian,
    random_matrix,
    steady_states,
)

# module attributes each solver is timed with: dense only, bordered LU first,
# Arnoldi window only
SOLVERS = (
    {"_DENSE_EIG_DIM": 10**6},
    {"_DENSE_EIG_DIM": 1},
    {"_DENSE_EIG_DIM": 1, "_null_space_bordered": lambda m: None},
)


def random_model(n: int) -> ModelSpec:
    rng = np.random.default_rng(0)
    return ModelSpec(random_hermitian(n, rng), [random_matrix(n, rng) for _ in range(2)])


def oscillator(n: int) -> ModelSpec:
    a = ladder_lowering(n)
    return ModelSpec(number_operator(n), [a + 0.5 * a.conj().T])


def median_time(model: ModelSpec, solver: dict, repeats: int) -> tuple[float, str]:
    saved = {name: getattr(inv, name) for name in solver}
    for name, value in solver.items():
        setattr(inv, name, value)
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = steady_states(model)
            times.append(time.perf_counter() - t0)
    finally:
        for name, value in saved.items():
            setattr(inv, name, value)
    return statistics.median(times), report.null_space_method


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[6, 8, 10, 12, 24])
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    steady_states(random_model(4))  # load BLAS/LAPACK before timing
    print("dim  model       dense_s  bordered_s  arnoldi_s  (methods used)")
    for n in args.dims:
        for name, make in (("random", random_model), ("oscillator", oscillator)):
            model = make(n)
            (dense, _), (bordered, used), (arnoldi, window) = (
                median_time(model, solver, args.repeats) for solver in SOLVERS
            )
            print(f"{n:3d}  {name:10s}  {dense:7.4f}  {bordered:10.4f}  {arnoldi:9.4f}"
                  f"  ({used}, {window})", flush=True)


if __name__ == "__main__":
    main()
