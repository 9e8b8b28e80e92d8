"""Time each CLI subcommand end to end, in cold processes, on fixtures.

Each run is a fresh `python -m qmstab.cli <subcommand> ...` process on the
files in `fixtures/`, so its wall time includes the interpreter's start-up
and every import the subcommand pays for; `simulate` takes `krylov`
on the n = 40 oscillator from its vacuum, and `analyze-dense24` analyzes
the seeded dense dim-24 model of `report_bytes.py`'s `analyze-random24`,
whose kernel the dense bordered inverse answers; both inputs are written
into the temporary directory. Runs alternate over the
rows, `--repeats` rounds, and one more process per row, run
with `-X importtime` and not timed, counts the `scipy` modules it loads.
Prints one row each: the median wall time, the median peak RSS of the timed
processes (each from its own rusage), that count and the exit code.
`--src` times another checkout on this checkout's fixtures, so
two trees can be compared:

    python3 scripts/time_startup.py [--repeats 5] [--subcommands synthesize analyze]
    python3 scripts/time_startup.py --src /path/to/old

At most MAX_PROCESSES processes are started, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MAX_PROCESSES = 48

# row -> its CLI arguments, the subcommand first; "{f}" is the fixtures
# directory and "{t}" the temporary directory that holds the vacuum and the
# dense model
INVOCATIONS = {
    "synthesize": ["synthesize", "--v", "{f}/twoqubit_V.json"],
    "check-lyapunov": ["check-lyapunov", "--model", "{f}/twoqubit_dissipative.json",
                       "--v", "{f}/twoqubit_Vshifted.json"],
    "check-lasalle": ["check-lasalle", "--theorem", "8",
                      "--model", "{f}/twoqubit_dissipative.json",
                      "--v", "{f}/twoqubit_Vshifted.json"],
    "steady-state": ["steady-state", "--model", "{f}/oscillator_n40.json"],
    "analyze": ["analyze", "--model", "{f}/twoqubit.json", "--v", "{f}/twoqubit_V.json"],
    "analyze-dense24": ["analyze", "--model", "{t}/random24.json"],
    "simulate": ["simulate", "--model", "{f}/oscillator_n40.json",
                 "--rho0", "{t}/vacuum40.json", "--t-final", "1", "--points", "5"],
    "probe-invariant-set": ["probe-invariant-set", "--model", "{f}/qubit_decay.json",
                            "--v", "{f}/qubit_V.json"],
}


def command(row: str, tmp: str, flags=()) -> list[str]:
    args = [a.format(f=ROOT / "fixtures", t=tmp) for a in INVOCATIONS[row]]
    out = str(Path(tmp) / row)
    return [sys.executable, *flags, "-m", "qmstab.cli", *args, "--out", out]


def _cjson(a: np.ndarray) -> list:
    return np.stack((a.real, a.imag), -1).tolist()


def _random_matrix(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def write_inputs(tmp: Path) -> None:
    """The 40-level vacuum |0><0| and `report_bytes.py`'s seeded dense model
    `random24.json`: a random Hamiltonian and two random couplings."""
    rows = [[[float(i == j == 0), 0.0] for j in range(40)] for i in range(40)]
    (tmp / "vacuum40.json").write_text(json.dumps({"matrix": rows}))
    rng = np.random.default_rng(0)
    x = _random_matrix(rng, 24)
    model = {"dim": 24, "hamiltonian": _cjson((x + x.conj().T) / 2),
             "couplings": [_cjson(_random_matrix(rng, 24) / np.sqrt(2)) for _ in range(2)]}
    (tmp / "random24.json").write_text(json.dumps(model))


def timed_run(cmd: list[str], env: dict) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one process. The RSS is the
    child's own, from `os.wait4`: `RUSAGE_CHILDREN` holds the largest over
    every child waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024  # KB on Linux


def scipy_modules(importtime_log: str) -> int:
    """Distinct `scipy` and `scipy.*` modules in `-X importtime` output."""
    names = {line.rsplit("|", 1)[-1].strip() for line in importtime_log.splitlines()
             if line.startswith("import time:")}
    return sum(1 for name in names if name.partition(".")[0] == "scipy")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--subcommands", nargs="+", choices=list(INVOCATIONS),
                    default=list(INVOCATIONS))
    ap.add_argument("--src", type=Path, default=ROOT,
                    help="checkout whose src/ is timed (default: this one)")
    args = ap.parse_args(argv)
    processes = len(args.subcommands) * (args.repeats + 1)
    if args.repeats < 1 or processes > MAX_PROCESSES:
        ap.error(f"--repeats must be at least 1 and start at most {MAX_PROCESSES} "
                 f"processes ({processes} asked)")
    src = str(args.src.resolve() / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    runs = {row: [] for row in args.subcommands}
    modules, codes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for row in args.subcommands:
            proc = subprocess.run(command(row, tmp, ["-X", "importtime"]),
                                  env=env, capture_output=True, text=True)
            modules[row], codes[row] = scipy_modules(proc.stderr), proc.returncode
        for _ in range(args.repeats):
            for row in args.subcommands:
                runs[row].append(timed_run(command(row, tmp), env))

    print(f"src {src}, {args.repeats} cold runs per subcommand")
    print("subcommand           median_s  peak_rss_mb  scipy_modules  exit")
    for row in args.subcommands:
        median, rss = (statistics.median(col) for col in zip(*runs[row]))
        print(f"{row:20s} {median:8.3f}  {rss:11.1f}  {modules[row]:13d}  {codes[row]:4d}")


if __name__ == "__main__":
    main()
