"""Workloads: seeded input files, the op mix of one pass, and output checks.

Inputs are written by this module with numpy and the documented JSON file
format ([re, im] pairs, models as {"dim", "hamiltonian", "couplings"}), not
with qmstab's own writers, so the program under test only ever sees files.

Each op is one `qmstab` CLI call. Its check reads the op's `report.json`
after the op's timer has stopped and returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np


# ---------------------------------------------------------------------------
# File format helpers (independent of qmstab.serialize)
# ---------------------------------------------------------------------------

def _cjson(a) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, complex)]


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def write_model(path: Path, h, couplings) -> None:
    _write(path, {"dim": int(h.shape[0]), "hamiltonian": _cjson(h),
                  "couplings": [_cjson(l) for l in couplings]})


def write_operator(path: Path, a) -> None:
    _write(path, {"matrix": _cjson(a)})


def read_matrix(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def lowering(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n)), k=1).astype(complex)


def number(n: int) -> np.ndarray:
    return np.diag(np.arange(n)).astype(complex)


def random_hermitian(n: int, rng) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def random_matrix(n: int, m: int, rng) -> np.ndarray:
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def reference_stationary_mean(h, couplings, obs) -> float:
    """tr(rho_ss obs) from a dense SVD null vector of the Schroedinger
    Liouvillian, assembled here with row-major vectorization so that it
    shares no code or convention with the program."""
    n = h.shape[0]
    eye = np.eye(n)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in couplings:
        ldl = l.conj().T @ l
        m += np.kron(l, l.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T)
    rho = np.linalg.svd(m)[2][-1].conj().reshape(n, n)
    rho = rho / np.trace(rho)
    return float(np.trace(rho @ obs).real)


# ---------------------------------------------------------------------------
# Ops and checks
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One CLI call. `check(report, exit_code)` returns problems found."""

    subcommand: str
    argv: list[str]
    out: Path
    check: Callable[[dict, int], list[str]]


def checks_by_name(report: dict) -> dict:
    return {c["name"]: c for c in report["run"]["checks"]}


def _expect_verdicts(report: dict, names, verdict: str) -> list[str]:
    found = checks_by_name(report)
    return [
        f"check {name!r}: verdict {found[name]['verdict'] if name in found else 'absent'},"
        f" expected {verdict}"
        for name in names
        if name not in found or found[name]["verdict"] != verdict
    ]


def _expect_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


@dataclass
class Workload:
    """Base: subclasses set `name`, `mix` (subcommands of one pass, in
    order), `warmup` (the mix's cheapest subcommand) and implement
    `generate` and `pass_ops(k)`, which builds the ops of pass k (k = -1 is
    the warm-up) after `generate` has run."""

    seed: int
    reduced: bool = False
    root: Path = field(default=Path("."), init=False)  # set by generate()

    name: ClassVar[str] = ""
    mix: ClassVar[tuple[str, ...]] = ()
    warmup: ClassVar[str] = ""

    def generate(self, root: Path) -> None:
        raise NotImplementedError

    def pass_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        """The warm-up op, built as pass -1 so that it draws no pass's inputs."""
        return next(op for op in self.pass_ops(-1) if op.subcommand == self.warmup)

    def _out(self, stem: str) -> Path:
        return self.root / "out" / stem


# ---------------------------------------------------------------------------
# osc-n60: Liouvillian assembly, null space and RK propagation
# ---------------------------------------------------------------------------

@dataclass
class OscN60(Workload):
    """Criterion-2 oscillator H = N, L = a + a'/2 at n = 60: steady-state,
    then simulate from the vacuum to t = 20. The model is fixed (the seed
    only reaches the CLI's --seed, which these subcommands do not use); its
    stationary <N> is 1/3."""

    name = "osc-n60"
    mix = ("steady-state", "simulate")
    warmup = "simulate"
    expect_mean: float | None = None  # 1/3, or the reference value when reduced
    steady_tol: ClassVar[float] = 1e-6
    simulate_tol: ClassVar[float] = 1e-5

    @property
    def dim(self) -> int:
        return 8 if self.reduced else 60

    def generate(self, root: Path) -> None:
        self.root = root
        n = self.dim
        a = lowering(n)
        h, couplings = number(n), [a + 0.5 * a.conj().T]
        write_model(root / "model.json", h, couplings)
        write_operator(root / "number.json", number(n))
        vac = np.zeros((n, n), complex)
        vac[0, 0] = 1.0
        write_operator(root / "vacuum.json", vac)
        if self.expect_mean is None:  # truncation moves <N> away from 1/3 at small n
            self.expect_mean = (reference_stationary_mean(h, couplings, number(n))
                                if self.reduced else 1.0 / 3.0)

    def _mean(self, state) -> float:
        return float(np.trace(read_matrix(state) @ number(self.dim)).real)

    def _check_steady(self, report: dict, code: int) -> list[str]:
        problems = _expect_exit(code, 0) + _expect_verdicts(
            report, ["invariant-state-exists"], "holds")
        entry = checks_by_name(report).get("invariant-state-exists", {})
        states = entry.get("states", [])
        if len(states) != 1:
            return problems + [f"{len(states)} stationary states, expected 1"]
        mean = self._mean(states[0])
        if abs(mean - self.expect_mean) > self.steady_tol:
            problems.append(f"stationary <N> = {mean!r}, expected {self.expect_mean!r}"
                            f" within {self.steady_tol:g}")
        return problems

    def _check_simulate(self, report: dict, code: int) -> list[str]:
        problems = _expect_exit(code, 0) + _expect_verdicts(
            report, ["trace-preservation", "final-state"], "holds")
        entry = checks_by_name(report).get("final-state")
        if entry is not None:
            mean = self._mean(entry["state"])
            if abs(mean - self.expect_mean) > self.simulate_tol:
                problems.append(f"final <N> = {mean!r}, expected {self.expect_mean!r}"
                                f" within {self.simulate_tol:g}")
        return problems

    def pass_ops(self, k: int) -> list[Op]:
        r = self.root
        ss_out, sim_out = self._out("steady"), self._out("simulate")
        return [
            Op("steady-state", ["steady-state", "--model", str(r / "model.json"),
                                "--out", str(ss_out)], ss_out, self._check_steady),
            Op("simulate", ["simulate", "--model", str(r / "model.json"),
                            "--rho0", str(r / "vacuum.json"), "--t-final", "20",
                            "--points", "9", "--v", str(r / "number.json"),
                            "--out", str(sim_out)], sim_out, self._check_simulate),
        ]


# ---------------------------------------------------------------------------
# small-n24: dense-eig null space, uniqueness words, many short expm runs
# ---------------------------------------------------------------------------

@dataclass
class SmallN24(Workload):
    """`analyze` on a seeded random dim-24 model (Hermitian H, two random
    couplings), then `probe-invariant-set` on the damped oscillator H = N,
    L = a, V = N at n = 24 with 20 seeded samples to t = 30."""

    name = "small-n24"
    mix = ("analyze", "probe-invariant-set")
    warmup = "analyze"
    expect_null_dim: int = 1

    @property
    def dim(self) -> int:
        return 6 if self.reduced else 24

    def generate(self, root: Path) -> None:
        self.root = root
        n = self.dim
        rng = np.random.default_rng(self.seed)
        write_model(root / "random.json", random_hermitian(n, rng),
                    [random_matrix(n, n, rng) for _ in range(2)])
        write_model(root / "damped.json", number(n), [lowering(n)])
        write_operator(root / "number.json", number(n))

    def _check_analyze(self, report: dict, code: int) -> list[str]:
        problems = _expect_exit(code, 0) + _expect_verdicts(
            report, ["invariant-state-exists"], "holds")
        entry = checks_by_name(report).get("invariant-state-exists", {})
        if entry.get("null_dimension") != self.expect_null_dim:
            problems.append(f"null_dimension {entry.get('null_dimension')},"
                            f" expected {self.expect_null_dim}")
        return problems

    def _check_probe(self, report: dict, code: int) -> list[str]:
        return _expect_exit(code, 0) + _expect_verdicts(
            report, ["invariant-set-probe"], "holds")

    def pass_ops(self, k: int) -> list[Op]:
        r = self.root
        an_out, pr_out = self._out("analyze"), self._out("probe")
        return [
            Op("analyze", ["analyze", "--model", str(r / "random.json"),
                           "--out", str(an_out)], an_out, self._check_analyze),
            Op("probe-invariant-set", ["probe-invariant-set", "--model", str(r / "damped.json"),
                                       "--v", str(r / "number.json"), "--t-final", "30",
                                       "--threshold", "1e-5", "--seed", str(self.seed),
                                       "--out", str(pr_out)], pr_out, self._check_probe),
        ]


# ---------------------------------------------------------------------------
# certify-n32: synthesis and certificates; no Liouvillian, no propagator
# ---------------------------------------------------------------------------

@dataclass
class CertifyN32(Workload):
    """Each pass takes a fresh seeded rank-deficient PSD target V = A A'
    (A is 32 x 24), synthesizes couplings for it, then checks the Lyapunov
    condition and Theorem 8 on the synthesized model. Pass k's target is
    drawn from (seed, k) and written when the pass's ops are built, before
    any op timer starts; no two passes of a run share a target."""

    name = "certify-n32"
    mix = ("synthesize", "check-lyapunov", "check-lasalle")
    warmup = "synthesize"
    expect_verdict: str = "holds"

    @property
    def shape(self) -> tuple[int, int]:
        return (6, 4) if self.reduced else (32, 24)

    def generate(self, root: Path) -> None:
        self.root = root

    def _target(self, k: int) -> str:
        rng = np.random.default_rng([self.seed, k + 1])
        a = random_matrix(*self.shape, rng)
        path = self.root / "target.json"
        write_operator(path, a @ a.conj().T)
        return str(path)

    def _checker(self, names):
        def check(report: dict, code: int) -> list[str]:
            return _expect_exit(code, 0) + _expect_verdicts(report, names, self.expect_verdict)
        return check

    def pass_ops(self, k: int) -> list[Op]:
        v = self._target(k)
        syn_out, ly_out, ls_out = self._out("synth"), self._out("lyapunov"), self._out("lasalle")
        model = str(syn_out / "synthesized_model.json")
        return [
            Op("synthesize", ["synthesize", "--v", v, "--out", str(syn_out)], syn_out,
               self._checker(["synthesis", "synthesis-verification"])),
            Op("check-lyapunov", ["check-lyapunov", "--model", model, "--v", v,
                                  "--out", str(ly_out)], ly_out,
               self._checker(["strict-lyapunov"])),
            Op("check-lasalle", ["check-lasalle", "--theorem", "8", "--model", model, "--v", v,
                                 "--out", str(ls_out)], ls_out,
               self._checker(["ground-convergence"])),
        ]


WORKLOADS = {w.name: w for w in (OscN60, SmallN24, CertifyN32)}
