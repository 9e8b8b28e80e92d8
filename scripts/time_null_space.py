"""Time steady_states with the dense and the splu-Arnoldi null-space solvers.

Prints one row per dimension: the median wall time over `--repeats` calls
for a seeded random model (Hermitian H, two random couplings) and for the
criterion-2 oscillator (L = a + a'/2), once with dense eig forced and once
with shift-inverted Arnoldi forced. These numbers set
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


def random_model(n: int) -> ModelSpec:
    rng = np.random.default_rng(0)
    return ModelSpec(random_hermitian(n, rng), [random_matrix(n, rng) for _ in range(2)])


def oscillator(n: int) -> ModelSpec:
    a = ladder_lowering(n)
    return ModelSpec(number_operator(n), [a + 0.5 * a.conj().T])


def median_time(model: ModelSpec, dense_limit: int, repeats: int) -> tuple[float, str]:
    inv._DENSE_EIG_DIM = dense_limit
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = steady_states(model)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), report.null_space_method


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[6, 8, 10, 12, 24])
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    default = inv._DENSE_EIG_DIM
    steady_states(random_model(4))  # load BLAS/LAPACK before timing
    print("dim  model       dense_s  splu_s  (method actually used)")
    try:
        for n in args.dims:
            for name, make in (("random", random_model), ("oscillator", oscillator)):
                model = make(n)
                dense, _ = median_time(model, 10**6, args.repeats)
                splu, method = median_time(model, 1, args.repeats)
                print(f"{n:3d}  {name:10s}  {dense:7.4f}  {splu:6.4f}  ({method})", flush=True)
    finally:
        inv._DENSE_EIG_DIM = default


if __name__ == "__main__":
    main()
