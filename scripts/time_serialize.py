"""Time the report writer and the model reader on a certify-n32-sized model.

Builds a seeded 32 x 32 model (Hermitian H, 20 random couplings), the size
that the `certify-n32` benchmark workload's `synthesize` writes, and prints
the median wall time over `--repeats` calls of each stage: `jsonable` on the
raw arrays, `dumps_canonical` on the converted document, and `load_model`
on the saved file.

    PYTHONPATH=src python3 scripts/time_serialize.py [--dim 32 --couplings 20]
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from qmstab import ModelSpec, random_hermitian, random_matrix
from qmstab.serialize import dumps_canonical, jsonable, load_model, save_model


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--couplings", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    h = random_hermitian(args.dim, rng)
    couplings = [random_matrix(args.dim, rng) for _ in range(args.couplings)]
    raw = {"hamiltonian": h, "couplings": couplings}
    doc = jsonable(raw)
    text = dumps_canonical(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(ModelSpec(h, couplings), path)
        rows = [
            ("jsonable", median_time(lambda: jsonable(raw), args.repeats)),
            ("dumps_canonical", median_time(lambda: dumps_canonical(doc), args.repeats)),
            ("load_model", median_time(lambda: load_model(path), args.repeats)),
        ]
    print(f"dim {args.dim}, {args.couplings} couplings, {len(text) / 1e6:.2f} MB rendered")
    print("stage            median_s")
    for name, seconds in rows:
        print(f"{name:15s}  {seconds:8.4f}")


if __name__ == "__main__":
    main()
