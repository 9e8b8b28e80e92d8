"""Time the expm_fixed and the krylov propagator against `auto`'s cost ratio.

For each dimension n in `--dims`, three model families are propagated with
each method through `evolve` (`probe` through `invariant_set_probe`), median
wall time over `--repeats` calls; each repeat runs both methods, in turn
first, so that a slow phase of the host lands on both:

- `probe`: the damped oscillator H = N, L = a with the observable V = N
  propagated under R^T to t = 30 (33 points), the `small-n24` probe;
- `vacuum`: the oscillator H = N, L = a + a'/2 from the vacuum to t = 20
  (41 points), the `osc-n60` `simulate` shape;
- `random`: a seeded dense random model (Hermitian H, two complex Gaussian
  couplings) from one seeded random state to t = 5 (201 points).

A fourth family runs at each n in `--damped-dims`:

- `damped`: H = N, L = a from one seeded random state to t = 20
  (201 points), n small sectors that one state touches all of.

Each row prints the largest active sector, the cost ratio that
`dynamics._auto_method` compares with `_EXPM_COST_RATIO`, both times and
`auto`'s pick, starred when it is more than 1.5x slower than the other
method. These rows set `_EXPM_COST_RATIO`.

    PYTHONPATH=src python3 scripts/time_propagators.py [--dims 12 24 30 36] \\
        [--damped-dims 100] [--repeats 3]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from qmstab import ModelSpec, ladder_lowering, number_operator, random_density
from qmstab import dynamics as dyn
from qmstab.generator import liouvillian, vec

METHODS = (dyn.METHOD_EXPM, dyn.METHOD_KRYLOV)


def _random_model(n: int, rng) -> ModelSpec:
    def gaussian():
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)

    x = gaussian()
    return ModelSpec((x + x.conj().T) / 2, [gaussian(), gaussian()])


def family(name: str, n: int) -> tuple[ModelSpec, np.ndarray, float, int]:
    """The model, the initial state (the observable for `probe`), t_final and
    point count of one row."""
    rng = np.random.default_rng(3)
    a = ladder_lowering(n)
    if name == "probe":
        return ModelSpec(number_operator(n), [a]), number_operator(n), 30.0, 33
    if name == "vacuum":
        vacuum = np.zeros((n, n), dtype=complex)
        vacuum[0, 0] = 1.0
        return ModelSpec(number_operator(n), [a + 0.5 * a.conj().T]), vacuum, 20.0, 41
    if name == "damped":
        return ModelSpec(number_operator(n), [a]), random_density(n, rng), 20.0, 201
    return _random_model(n, rng), random_density(n, rng), 5.0, 201


def run_once(name: str, row: tuple, method: str) -> float:
    model, x, t_final, n_points = row
    t0 = time.perf_counter()
    if name == "probe":
        dyn.invariant_set_probe(model, x, t_final, method=method, n_points=n_points)
    else:
        dyn.evolve(model, x, t_final, method=method, n_points=n_points)
    return time.perf_counter() - t0


def median_times(name: str, row: tuple, repeats: int) -> dict[str, float]:
    """Median wall time of each method; repeat i runs METHODS rotated by i."""
    times: dict[str, list[float]] = {method: [] for method in METHODS}
    for i in range(repeats):
        for method in METHODS[i % 2:] + METHODS[:i % 2]:
            times[method].append(run_once(name, row, method))
    return {method: statistics.median(t) for method, t in times.items()}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[12, 24, 30, 36])
    ap.add_argument("--damped-dims", type=int, nargs="*", default=[100])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    # load BLAS/LAPACK before timing, not in the first cell
    median_times("vacuum", family("vacuum", 4), 1)
    rows = [(name, n) for name in ("probe", "vacuum", "random") for n in args.dims]
    rows += [("damped", n) for n in args.damped_dims]
    print("family  dim  sector  ratio    expm_s  krylov_s  auto")
    for name, n in rows:
        row = family(name, n)
        lv = liouvillian(row[0])
        matrix = lv.matrix.T.tocsr() if name == "probe" else lv.matrix
        frame, _ = dyn._frame(lv, matrix, vec(row[1]))
        ratio = dyn._cost_ratio(frame, row[3])
        largest = max(sl.stop - sl.start for sl in frame.slices)
        medians = median_times(name, row, args.repeats)
        pick = dyn._auto_method(frame, row[3])
        other = METHODS[1 - METHODS.index(pick)]
        flag = " *" if medians[pick] > 1.5 * medians[other] else ""
        print(f"{name:6s}  {n:3d}  {largest:6d}  {ratio:7.1e}  {medians[dyn.METHOD_EXPM]:6.3f}"
              f"  {medians[dyn.METHOD_KRYLOV]:8.3f}  {pick}{flag}", flush=True)


if __name__ == "__main__":
    main()
