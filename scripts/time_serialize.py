"""Time writing and reading the model file that `synthesize` writes.

Builds a seeded target V = A A' with A of shape `--dim` x `--rank` (32 x 24
is the `certify-n32` benchmark workload's target), synthesizes its couplings
with `synthesize_coupling`, and prints, for the couplings written dense and
in factored form (`left`/`right`, what `synthesize` writes), the file's
bytes and the median wall time over `--repeats` calls of `save_model` and
of `load_model`.

    PYTHONPATH=src python3 scripts/time_serialize.py [--dim 32 --rank 24]
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from qmstab import SynthesisSpec, synthesize_coupling
from qmstab.serialize import load_model, save_model


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--rank", type=int, default=24)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    rng = np.random.default_rng([0, 1])
    shape = (args.dim, args.rank)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    result = synthesize_coupling(SynthesisSpec(v=a @ a.conj().T))
    print(f"dim {args.dim}, rank {args.rank}, {len(result.couplings)} couplings")
    print("form       bytes  save_model_s  load_model_s")
    with tempfile.TemporaryDirectory() as tmp:
        for form, factors in (("dense", None), ("factored", result.factors or None)):
            path = Path(tmp) / f"{form}.json"
            save_s = median_time(
                lambda: save_model(result.model, path, factors=factors), args.repeats
            )
            load_s = median_time(lambda: load_model(path), args.repeats)
            print(f"{form:8s}  {path.stat().st_size:9d}  {save_s:12.4f}  {load_s:12.4f}")


if __name__ == "__main__":
    main()
