"""Time the null-space solvers of `invariants._null_space` and both branches
of the Liouvillian's assembly and bordered solve directly.

The first table has one row per dimension and model: the median wall time
over `--repeats` calls of `_null_space_dense`, of `_null_space_bordered` at
width 1, and of the border doubled from width 1 until `_null_space_bordered`
certifies (`width_s`; at most to width dim^2), on the real Liouvillian
`liouvillian(model).matrix`, at the tolerance `steady_states` uses. The
models are a seeded random one (Hermitian H, two random couplings), the
criterion-2 oscillator (L = a + a'/2), both with a simple kernel, and two
damped ladders side by side, the second one's levels shifted by 0.3
(`ladders`) or not (`twins`), whose ground states make the width-1 bordered
matrix singular. After the times come what each solver found: the dense
SVD's null dimension, whether width 1 certifies a simple zero, and the
width that certified (or `none`). These rows set
`invariants._DENSE_KERNEL_DIM`.

The second table adds a `banded` family, a seeded random H and one random
coupling, both of bandwidth w, whose fill sweeps across 1/2 at n = 16 and
24. Each row gives `Superoperator.predicted_fill`, R's share of nonzeros,
and the median times of both branches, each helper called directly: R
assembled in CSR (`generator._sparse_real`) or dense (`_dense_real`), and
the bordered solve by sparse LU (`invariants._bordered_sparse`) or by
numpy's dense inverse (`_bordered_dense`). These rows set
`generator._DENSE_FILL`.

    PYTHONPATH=src python3 scripts/time_null_space.py [--dims 6 8 10 12 16 24 32 40]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

import qmstab.generator as gen
import qmstab.invariants as inv
from qmstab import ModelSpec, liouvillian, random_hermitian, random_matrix


def lowering(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def random_model(n: int) -> ModelSpec:
    rng = np.random.default_rng(0)
    return ModelSpec(random_hermitian(n, rng), [random_matrix(n, rng) for _ in range(2)])


def oscillator(n: int) -> ModelSpec:
    a = lowering(n)
    return ModelSpec(np.diag(np.arange(n, dtype=complex)), [a + 0.5 * a.conj().T])


def ladders(n: int, offset: float) -> ModelSpec:
    k = n // 2
    h = np.diag(np.r_[np.arange(k), np.arange(n - k) + offset]).astype(complex)
    coupling = np.zeros((n, n), dtype=complex)
    coupling[:k, :k], coupling[k:, k:] = lowering(k), lowering(n - k)
    return ModelSpec(h, [coupling])


def banded(n: int, w: int) -> ModelSpec:
    rng = np.random.default_rng(0)
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= w
    return ModelSpec(np.where(band, random_hermitian(n, rng), 0),
                     [np.where(band, random_matrix(n, rng), 0)])


MODELS = (
    ("random", random_model),
    ("oscillator", oscillator),
    ("ladders", lambda n: ladders(n, 0.3)),
    ("twins", lambda n: ladders(n, 0.0)),
)


def median_time(solve, repeats: int):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = solve()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def certified_width(m, tol_abs: float):
    """The first border width, doubled from 1, at which the bordered LU
    certifies the kernel; None up to width dim^2."""
    k = 1
    while k <= m.shape[0]:
        if inv._null_space_bordered(m, k, tol_abs) is not None:
            return k
        k *= 2
    return None


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[6, 8, 10, 12, 16, 24, 32, 40])
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    inv.steady_states(random_model(4))  # load BLAS/LAPACK and SuperLU before timing
    print("dim  model       dense_s  bordered_s  width_s  null  bordered  width")
    for n in args.dims:
        for name, make in MODELS:
            lv = liouvillian(make(n))
            m, tol_abs = lv.matrix, 1e-9 * max(1.0, lv.norm)
            dense, basis = median_time(lambda: inv._null_space_dense(m, tol_abs), args.repeats)
            bordered, found = median_time(lambda: inv._null_space_bordered(m, 1, tol_abs),
                                          args.repeats)
            doubled, width = median_time(lambda: certified_width(m, tol_abs), args.repeats)
            print(f"{n:3d}  {name:10s}  {dense:7.4f}  {bordered:10.4f}  {doubled:7.4f}"
                  f"  {basis.shape[1]:4d}  {'simple' if found else 'no':8s}  {width or 'none'}",
                  flush=True)

    print("\ndim  model        fill  R_fill  csr_R_s  dense_R_s  splu_s  inverse_s")
    for n in args.dims:
        widths = sorted({max(1, round(n * f)) for f in (1 / 8, 1 / 4, 5 / 16, 3 / 8, 7 / 16, 1 / 2, 3 / 4)})
        rows = [(name, make(n)) for name, make in MODELS]
        rows += [(f"banded {w}", banded(n, w)) for w in widths if w < n]
        for name, model in rows:
            lv = liouvillian(model)
            m, n2 = lv.matrix, n * n
            k_op = -1j * model.hamiltonian - 0.5 * sum(l.conj().T @ l for l in model.couplings)
            t = (np.arange(n2) % (n + 1) == 0).astype(float)[:, None]
            times = [median_time(solve, args.repeats)[0] for solve in (
                lambda: gen._sparse_real(model, lv.basis),
                lambda: gen._dense_real(model.couplings, k_op),
                lambda: inv._bordered_sparse(m, t),
                lambda: inv._bordered_dense(m, t),
            )]
            print(f"{n:3d}  {name:11s}  {lv.predicted_fill:4.2f}  {m.nnz / n2**2:6.2f}  "
                  + "  ".join(f"{x:.4f}" for x in times), flush=True)


if __name__ == "__main__":
    main()
