"""Digest every file that a fixed list of CLI runs writes.

Imports qmstab from the checkout given by `--src`, runs each invocation in
RUNS in-process into a fresh temporary directory, and prints one
`sha256  run/file` line per output file (`report.json`, series files,
`synthesized_model.json`), after an `exit N  run` line with the run's exit
code. Before hashing, the `meta` object of each report
is removed and the temporary directory's path is replaced by `<tmp>`, so the
digests cover exactly the bytes that the determinism contract fixes.

The list covers every subcommand on `fixtures/` plus seeded `synthesize`
targets: the `certify-n32` recipe, degenerate and indefinite diagonal
targets and a Hamiltonian with and without compensation. The `steady-state`
and `analyze` runs reach every `null_space_method`: `bordered-lu` (simple
kernels), `dense-svd` (`twoqubit`) and `splu-arnoldi` (`ladders42`, a
degenerate kernel above dim 40), `simulate-unstable40` pins a failing
`lasalle-diagnostics` entry and `simulate-json` the series embedded by
`--format json`. The three `lyapunov-weak` runs reach each branch of the
weak entry's `best_c`: a positive rate, none (`null`) and a singular
dI - G(V) (`0.0`). The inputs come from this script's own
checkout, so two trees see identical files. To compare two trees:

    python3 scripts/report_bytes.py --src /path/to/old > old.txt
    python3 scripts/report_bytes.py --src . > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (run name, CLI arguments); "{f}" is the copied fixtures directory and
# "{t}" the directory of the generated targets.
RUNS = (
    ("analyze-twolevel", ["analyze", "--model", "{f}/twolevel.json"]),
    ("analyze-twoqubit", ["analyze", "--model", "{f}/twoqubit.json", "--v", "{f}/twoqubit_V.json"]),
    ("analyze-qutrit", ["analyze", "--model", "{f}/qutrit_branching_decay.json"]),
    ("analyze-random24", ["analyze", "--model", "{t}/random24.json"]),
    ("analyze-osc40", ["analyze", "--model", "{f}/oscillator_n40.json"]),
    ("steady-osc60", ["steady-state", "--model", "{f}/oscillator_n60.json"]),
    ("steady-twoqubit", ["steady-state", "--model", "{f}/twoqubit.json"]),
    ("steady-ladders42", ["steady-state", "--model", "{t}/ladders42.json"]),
    ("simulate-pops", ["simulate", "--model", "{f}/qubit_decay.json",
                       "--rho0", "{f}/qubit_excited.json", "--t-final", "5", "--points", "41"]),
    ("simulate-vw", ["simulate", "--model", "{f}/qubit_decay.json",
                     "--rho0", "{f}/qubit_excited.json", "--t-final", "5", "--points", "41",
                     "--v", "{f}/qubit_V.json", "--w", "{f}/qubit_V.json",
                     "--c", "1", "--d", "0"]),
    ("simulate-json", ["simulate", "--model", "{f}/qubit_decay.json",
                       "--rho0", "{f}/qubit_excited.json", "--t-final", "5", "--points", "41",
                       "--v", "{f}/qubit_V.json", "--format", "json"]),
    ("simulate-osc40", ["simulate", "--model", "{f}/oscillator_n40.json",
                        "--rho0", "{t}/vacuum40.json", "--t-final", "1", "--points", "5",
                        "--v", "{f}/number_n40.json"]),
    ("simulate-unstable40", ["simulate", "--model", "{f}/oscillator_unstable_n40.json",
                             "--rho0", "{t}/vacuum40.json", "--t-final", "5", "--points", "41",
                             "--v", "{f}/number_n40.json", "--w", "{f}/number_n40.json"]),
    ("lyapunov-qubit", ["check-lyapunov", "--model", "{f}/qubit_decay.json",
                        "--v", "{f}/qubit_V.json"]),
    ("lyapunov-twoqubit", ["check-lyapunov", "--model", "{f}/twoqubit_dissipative.json",
                           "--v", "{f}/twoqubit_Vshifted.json"]),
    ("lyapunov-indefinite", ["check-lyapunov", "--model", "{f}/twoqubit_dissipative.json",
                             "--v", "{f}/twoqubit_V.json"]),
    ("lyapunov-weak", ["check-lyapunov", "--model", "{f}/qubit_decay.json",
                       "--v", "{f}/qubit_V.json", "--c", "0.5", "--d", "0"]),
    ("lyapunov-weak-none", ["check-lyapunov", "--model", "{f}/oscillator_unstable_n40.json",
                            "--v", "{f}/number_n40.json", "--c", "0.1", "--d", "1"]),
    ("lyapunov-weak-singular", ["check-lyapunov", "--model", "{f}/twoqubit_dissipative.json",
                                "--v", "{f}/twoqubit_Vshifted.json", "--c", "0.1", "--d", "0"]),
    *(
        (f"lasalle-t{flag}", ["check-lasalle", "--theorem", flag,
                              "--model", "{f}/twoqubit_dissipative.json",
                              "--v", "{f}/twoqubit_V.json", "--w", "{f}/twoqubit_W.json",
                              *(["--u", "{f}/twoqubit_W.json"] if flag == "c1" else [])])
        for flag in ("5", "6", "7", "c1")
    ),
    ("lasalle-t8", ["check-lasalle", "--theorem", "8", "--model", "{f}/twoqubit_dissipative.json",
                    "--v", "{f}/twoqubit_Vshifted.json"]),
    ("synth-n32", ["synthesize", "--v", "{t}/n32.json"]),
    ("lyapunov-n32", ["check-lyapunov", "--model", "{t}/synth-n32/synthesized_model.json",
                      "--v", "{t}/n32.json"]),
    ("lasalle-n32", ["check-lasalle", "--theorem", "8",
                     "--model", "{t}/synth-n32/synthesized_model.json", "--v", "{t}/n32.json"]),
    ("synth-2110", ["synthesize", "--v", "{t}/diag2110.json"]),
    ("synth-indefinite", ["synthesize", "--v", "{t}/diag10m1.json"]),
    ("synth-3222100", ["synthesize", "--v", "{t}/diag3222100.json", "--pairs", "3:0,2:1"]),
    ("synth-h", ["synthesize", "--v", "{t}/diag3210.json", "--hamiltonian", "{t}/h4.json"]),
    ("synth-h-nocomp", ["synthesize", "--v", "{t}/diag3210.json", "--hamiltonian", "{t}/h4.json",
                        "--no-compensate"]),
    ("lyapunov-fails", ["check-lyapunov", "--model", "{t}/synth-h-nocomp/synthesized_model.json",
                        "--v", "{t}/diag3210.json"]),
    ("probe-qubit", ["probe-invariant-set", "--model", "{f}/qubit_decay.json",
                     "--v", "{f}/qubit_V.json", "--seed", "3"]),
)


def _cjson(a) -> list:
    return np.stack((a.real, a.imag), -1).tolist()


def _random_matrix(rng, n: int, m: int) -> np.ndarray:
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def write_targets(root: Path) -> None:
    """Seeded inputs, built with numpy only so that every tree reads the same
    files."""

    def operator(name: str, a) -> None:
        (root / name).write_text(json.dumps({"matrix": _cjson(np.asarray(a, complex))}))

    # the certify-n32 recipe: V = A A' with A of shape 32 x 24
    a = _random_matrix(np.random.default_rng([0, 1]), 32, 24) / np.sqrt(2)
    operator("n32.json", a @ a.conj().T)
    operator("diag2110.json", np.diag([2.0, 1.0, 1.0, 0.0]))
    operator("diag3222100.json", np.diag([3.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0]))
    operator("diag3210.json", np.diag([3.0, 2.0, 1.0, 0.0]))
    operator("diag10m1.json", np.diag([1.0, 0.0, -1.0]))
    vacuum = np.zeros((40, 40))
    vacuum[0, 0] = 1.0
    operator("vacuum40.json", vacuum)
    x = _random_matrix(np.random.default_rng(0), 4, 4)
    operator("h4.json", (x + x.conj().T) / 2)
    rng = np.random.default_rng(0)
    x = _random_matrix(rng, 24, 24)
    model = {"dim": 24, "hamiltonian": _cjson((x + x.conj().T) / 2),
             "couplings": [_cjson(_random_matrix(rng, 24, 24) / np.sqrt(2)) for _ in range(2)]}
    (root / "random24.json").write_text(json.dumps(model))
    # two damped 21-level ladders, the second shifted by 0.3: a singular
    # bordered matrix above the dense limit, so the Arnoldi window answers
    a = np.diag(np.sqrt(np.arange(1.0, 21.0)), 1)
    model = {"dim": 42, "hamiltonian": _cjson(np.diag(np.r_[np.arange(21), np.arange(21) + 0.3])),
             "couplings": [_cjson(np.kron(np.eye(2), a))]}
    (root / "ladders42.json").write_text(json.dumps(model))


def digest(path: Path, tmp: str) -> str:
    text = path.read_text()
    if path.name == "report.json":
        text = re.sub(r'"meta": \{[^{}]*\}', '"meta": {}', text, count=1)
    return hashlib.sha256(text.replace(tmp, "<tmp>").encode()).hexdigest()


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=".", help="qmstab checkout whose src/ is imported")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    from qmstab.cli import main as qmstab_main

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = str(Path(tmpdir).resolve())
        fixtures, targets = Path(tmp) / "fixtures", Path(tmp) / "targets"
        shutil.copytree(FIXTURES, fixtures)
        targets.mkdir()
        write_targets(targets)
        for name, argv in RUNS:
            out = targets / name
            argv = [s.format(f=fixtures, t=targets) for s in argv]
            with contextlib.redirect_stderr(io.StringIO()):
                code = qmstab_main([*argv, "--out", str(out)])
            print(f"exit {code}  {name}")
            for path in sorted(out.iterdir()):
                print(f"{digest(path, tmp)}  {name}/{path.name}")


if __name__ == "__main__":
    main()
