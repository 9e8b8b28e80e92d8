"""Time each CLI subcommand end to end, in cold processes, on fixtures.

Each run is a fresh `python -m qmstab.cli <subcommand> ...` process on the
files in `fixtures/`, so its wall time includes the interpreter's start-up
and every import the subcommand pays for; `simulate` takes `krylov`
on the n = 40 oscillator from its vacuum, which is written into the
temporary directory. Runs alternate over the
subcommands, `--repeats` rounds, and one more process per subcommand, run
with `-X importtime` and not timed, counts the `scipy` modules it loads.
Prints one row per subcommand: the median wall time, that count and the
exit code. `--src` times another checkout on this checkout's fixtures, so
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

ROOT = Path(__file__).resolve().parent.parent
MAX_PROCESSES = 48

# subcommand -> its arguments on fixtures; "{f}" is the fixtures directory
# and "{t}" the temporary directory that holds the vacuum
INVOCATIONS = {
    "synthesize": ["--v", "{f}/twoqubit_V.json"],
    "check-lyapunov": ["--model", "{f}/twoqubit_dissipative.json",
                       "--v", "{f}/twoqubit_Vshifted.json"],
    "check-lasalle": ["--theorem", "8", "--model", "{f}/twoqubit_dissipative.json",
                      "--v", "{f}/twoqubit_Vshifted.json"],
    "steady-state": ["--model", "{f}/oscillator_n40.json"],
    "analyze": ["--model", "{f}/twoqubit.json", "--v", "{f}/twoqubit_V.json"],
    "simulate": ["--model", "{f}/oscillator_n40.json", "--rho0", "{t}/vacuum40.json",
                 "--t-final", "1", "--points", "5"],
    "probe-invariant-set": ["--model", "{f}/qubit_decay.json", "--v", "{f}/qubit_V.json"],
}


def command(sub: str, tmp: str, flags=()) -> list[str]:
    args = [a.format(f=ROOT / "fixtures", t=tmp) for a in INVOCATIONS[sub]]
    out = str(Path(tmp) / sub)
    return [sys.executable, *flags, "-m", "qmstab.cli", sub, *args, "--out", out]


def write_vacuum(path: Path, n: int = 40) -> None:
    """The n-level vacuum |0><0| as an operator file."""
    rows = [[[float(i == j == 0), 0.0] for j in range(n)] for i in range(n)]
    path.write_text(json.dumps({"matrix": rows}))


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

    times = {sub: [] for sub in args.subcommands}
    modules, codes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        write_vacuum(Path(tmp) / "vacuum40.json")
        for sub in args.subcommands:
            proc = subprocess.run(command(sub, tmp, ["-X", "importtime"]),
                                  env=env, capture_output=True, text=True)
            modules[sub], codes[sub] = scipy_modules(proc.stderr), proc.returncode
        for _ in range(args.repeats):
            for sub in args.subcommands:
                t0 = time.perf_counter()
                subprocess.run(command(sub, tmp), env=env, capture_output=True)
                times[sub].append(time.perf_counter() - t0)

    print(f"src {src}, {args.repeats} cold runs per subcommand")
    print("subcommand           median_s  scipy_modules  exit")
    for sub in args.subcommands:
        median = statistics.median(times[sub])
        print(f"{sub:20s} {median:8.3f}  {modules[sub]:13d}  {codes[sub]:4d}")


if __name__ == "__main__":
    main()
