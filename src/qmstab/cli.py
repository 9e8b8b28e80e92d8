"""Command-line interface tying the analysis stages into reproducible runs.

Each run writes a canonical JSON report (plus any series files) into the
output directory. Exit codes: 0 all requested checks hold, 1 at least one
fails, 2 inconclusive results present under --strict, 64 usage error,
65 input format error or a solver failure (`InvariantAnalysisError`,
`IntegrationError`). Diagnostics go to standard error; machine-readable
output goes to files only.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .generator import ModelSpec
from .lyapunov import (
    COROLLARY_1,
    THEOREM_5,
    THEOREM_6,
    THEOREM_7,
    check_lasalle_pair,
    check_lyapunov,
    check_theorem8,
    check_weak_lyapunov,
)
from .operators import (
    DensityMatrix,
    IntegrationError,
    InvariantAnalysisError,
    OperatorError,
    Verdict,
)
from .serialize import (
    FormatError,
    emit_series,
    load_model,
    load_operator,
    save_model,
    write_json,
)
from .synthesis import SynthesisSpec, synthesize_coupling, verify_synthesis

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65

# --theorem flag -> (library tag, report anchor); tag "t8" selects check_theorem8
_THEOREMS = {
    "5": (THEOREM_5, "Theorem 5"),
    "6": (THEOREM_6, "Theorem 6"),
    "7": (THEOREM_7, "Theorem 7"),
    "8": ("t8", "Theorem 8"),
    "c1": (COROLLARY_1, "Corollary 1"),
}
_UNIQUENESS_VERDICTS = {
    "unique": Verdict.HOLDS,
    "not_unique": Verdict.FAILS,
    "inconclusive": Verdict.INCONCLUSIVE,
}


def _verdict(ok) -> Verdict:
    return Verdict.HOLDS if ok else Verdict.FAILS


def _tolerance(text: str) -> float:
    """--tol: a finite number > 0; anything else is a usage error (exit 64)."""
    value = float(text)  # argparse reports a ValueError as a usage error too
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmstab",
        description=(
            "Stability analysis of quantum Markov models: invariant states, "
            "Lyapunov and invariance-principle certificates, master-equation "
            "simulation, and coupling synthesis."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qmstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--out",
            default=os.environ.get("QMSTAB_OUT", "."),
            help="output directory for the report and series files "
            "(default: $QMSTAB_OUT or the working directory)",
        )
        p.add_argument(
            "--seed", type=int, default=0,
            help="recorded as run.seed in the report; no subcommand samples",
        )
        p.add_argument("--tol", type=_tolerance, default=1e-9, help="check tolerance (finite, > 0)")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 2 when any verdict is inconclusive",
        )
        p.add_argument(
            "--format",
            choices=("json", "csv", "svg"),
            default="csv",
            help="series output: separate csv/svg files, or json to embed "
            "series in the report",
        )

    p = sub.add_parser("analyze", help="invariant states, faithfulness, uniqueness, connectivity")
    p.add_argument("--model", required=True)
    p.add_argument("--v", help="operator whose spectral projections drive an extra connectivity scan")
    common(p)

    p = sub.add_parser("steady-state", help="stationary states from the Liouvillian null space")
    p.add_argument("--model", required=True)
    common(p)

    p = sub.add_parser("simulate", help="integrate the master equation and emit series")
    p.add_argument("--model", required=True)
    p.add_argument("--rho0", required=True, help="initial state file")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--v", help="observable V for a series and diagnostics")
    p.add_argument("--w", help="observable W for a series and diagnostics")
    p.add_argument("--c", type=float, help="rate for the mean-bound check (with --v and --d)")
    p.add_argument("--d", type=float, help="offset for the mean-bound check (with --v and --c)")
    p.add_argument("--points", type=int, default=201, help="number of sample times")
    common(p)

    p = sub.add_parser("check-lyapunov", help="strict or weak Lyapunov condition")
    p.add_argument("--model", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--c", type=float, help="weak-mode decay rate (with --d)")
    p.add_argument("--d", type=float, help="weak-mode offset (with --c)")
    common(p)

    p = sub.add_parser("check-lasalle", help="invariance-principle hypothesis pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", help="companion operator (theorems 5-7, c1)")
    p.add_argument("--u", help="relaxation operator (corollary c1)")
    p.add_argument("--theorem", choices=sorted(_THEOREMS), required=True)
    common(p)

    p = sub.add_parser("synthesize", help="engineer couplings for a target operator")
    p.add_argument("--v", required=True, help="target operator file")
    p.add_argument("--hamiltonian", help="optional Hamiltonian file")
    p.add_argument("--magnitude", type=float, default=1.0, help="coupling amplitude |l|")
    p.add_argument(
        "--pairs",
        help="comma list hi:lo of ascending distinct-eigenvalue indices "
        "(default: every adjacent pair)",
    )
    p.add_argument("--no-compensate", action="store_true", help="skip Hamiltonian compensation")
    common(p)

    p = sub.add_parser("probe-invariant-set", help="worst case of convergence onto V's ground set")
    p.add_argument("--model", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--t-final", type=float, default=30.0)
    p.add_argument("--threshold", type=float, default=1e-5)
    common(p)

    return parser


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

class _Run:
    def __init__(self, args):
        self.args = args
        self.outdir = Path(args.out)
        self.checks: list[dict] = []
        self.series_files: list[str] = []
        self.inputs: dict = {}

    def add_check(
        self, name: str, anchor: str, verdict, tolerance: float, result=None, fields=(), **data
    ) -> None:
        """Append one entry: each attribute of `result` named in `fields`, then `data`."""
        entry = {"name": name, "anchor": anchor, "verdict": verdict, "tolerance": tolerance}
        entry.update({f: getattr(result, f) for f in fields}, **data)
        self.checks.append(entry)

    def add_series(self, stem: str, times, values) -> dict:
        if self.args.format == "json":
            return {"t": [float(x) for x in times], "value": [float(x) for x in values]}
        path = self.outdir / f"{stem}.{self.args.format}"
        emit_series(times, values, path, fmt=self.args.format, name=stem)
        self.series_files.append(path.name)
        return {"file": path.name}

    def finish(self) -> int:
        verdicts = [c["verdict"] for c in self.checks]
        report = {
            "meta": {"timestamp": datetime.now(timezone.utc).isoformat()},
            "run": {
                "version": __version__,
                "command": self.args.command,
                "seed": self.args.seed,
                "tolerance": self.args.tol,
                "inputs": self.inputs,
                "checks": self.checks,
                "series_files": sorted(self.series_files),
            },
        }
        write_json(report, self.outdir / "report.json")
        if Verdict.FAILS in verdicts:
            return EXIT_FAILS
        if self.args.strict and Verdict.INCONCLUSIVE in verdicts:
            return EXIT_INCONCLUSIVE
        return EXIT_OK


def _load_model_arg(run: _Run):
    model, labels = load_model(run.args.model)
    run.inputs["model"] = str(run.args.model)
    if labels:
        run.inputs["labels"] = labels
    return model


def _load_operator_arg(run: _Run, flag: str, what: str):
    path = getattr(run.args, flag)
    arr = load_operator(path, what)
    run.inputs[what] = str(path)
    return arr


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
# `invariants` and `dynamics` import scipy.sparse, so only the subcommands
# that run them import them: check-lyapunov, check-lasalle and synthesize
# load numpy alone. scipy.sparse.linalg, and with it scipy.linalg, loads only
# where a sparse LU runs.

def _cmd_steady_common(run: _Run, model: ModelSpec):
    from .invariants import steady_states

    report = steady_states(model, tol=run.args.tol)
    run.add_check(
        "invariant-state-exists", "Theorem 1", _verdict(report.states), run.args.tol, report,
        ("null_dimension", "null_space_method", "exhaustive", "inverse_norm_estimate",
         "residuals", "cleanup_distances", "reliable", "notes"),
        states=[s.matrix for s in report.states],
    )
    return report


def cmd_steady_state(run: _Run) -> None:
    model = _load_model_arg(run)
    _cmd_steady_common(run, model)


def cmd_analyze(run: _Run) -> None:
    from .invariants import connectivity_scan, subharmonicity_check

    model = _load_model_arg(run)
    report = _cmd_steady_common(run, model)

    for i, support in enumerate(report.support_projections):
        run.add_check(
            f"faithful[{i}]", "Definition 1", _verdict(report.faithful[i]), run.args.tol,
            rank=int(np.trace(support).real.round()), support=support,
        )
        sub = subharmonicity_check(model, support, tol=1e-7)
        run.add_check(
            f"support-subharmonic[{i}]", "Proposition 1", sub.verdict, 1e-7, sub,
            ("min_eigenvalue",),
        )

    run.add_check(
        "unique-invariant-state", "Theorem 3", _UNIQUENESS_VERDICTS[report.unique], run.args.tol,
        report, ("null_dimension",),
    )

    families = [("coordinate family", "coordinate")]
    if run.args.v:
        families.append(("spectral family of V", _load_operator_arg(run, "v", "v")))
    for label, family in families:
        scan = connectivity_scan(model, family, threshold=run.args.tol)
        run.add_check(
            f"connectivity({label})", "Remark 1", _verdict(scan.all_connected), run.args.tol,
            scan, ("note",), values={r.label: r.value for r in scan.results},
        )


def cmd_simulate(run: _Run) -> None:
    from .dynamics import evolve, expectation_series, lasalle_diagnostics, mean_bound_check

    bound_args = (run.args.v, run.args.c, run.args.d)
    if bound_args[1:] != (None, None) and None in bound_args:
        raise FormatError("the mean bound needs --v, --c and --d together")
    model = _load_model_arg(run)
    rho0 = DensityMatrix.from_matrix(_load_operator_arg(run, "rho0", "rho0"))
    traj = evolve(model, rho0, run.args.t_final, n_points=run.args.points)
    trace_dev = max(abs(np.trace(s.matrix).real - 1.0) for s in traj.states)
    run.add_check(
        "trace-preservation", "Definition 1", _verdict(trace_dev <= 1e-10), 1e-10, traj,
        ("step_controller",), max_trace_deviation=trace_dev,
    )

    v = _load_operator_arg(run, "v", "v") if run.args.v else None
    w = _load_operator_arg(run, "w", "w") if run.args.w else None
    observables = [(stem, op) for stem, op in (("series_v", v), ("series_w", w)) if op is not None]
    if not observables:
        for i in range(model.dim):
            proj = np.zeros((model.dim, model.dim), dtype=complex)
            proj[i, i] = 1.0
            observables.append((f"series_pop{i:03d}", proj))
    series_meta = {}
    for stem, op in observables:
        series_meta[stem] = run.add_series(stem, traj.times, expectation_series(traj, op))
    run.add_check(
        "series-emitted", "Definition 7", Verdict.HOLDS, run.args.tol, series=series_meta
    )

    if v is not None and w is not None:
        diag = lasalle_diagnostics(traj, v, w)
        # a sampled rise of <V> refutes G(V) <= 0; samples prove nothing
        verdict = Verdict.INCONCLUSIVE if diag.v_monotone else Verdict.FAILS
        run.add_check(
            "lasalle-diagnostics", "Theorem 5", verdict, diag.slack, diag,
            ("v_monotone", "v_monotone_max_violation", "v_rise_time", "v_sup",
             "w_integral_estimate", "w_final"),
        )
    if run.args.c is not None:
        bound = mean_bound_check(traj, v, run.args.c, run.args.d)
        run.add_check(
            "mean-bound", "Eq. (1)", bound.verdict, bound.slack, bound,
            ("max_violation", "worst_time"),
        )
    run.add_check(
        "final-state", "Definition 7", Verdict.HOLDS, run.args.tol,
        t=traj.times[-1], state=traj.final_state.matrix,
    )


def cmd_check_lyapunov(run: _Run) -> None:
    model = _load_model_arg(run)
    varr = _load_operator_arg(run, "v", "v")
    if (run.args.c is None) != (run.args.d is None):
        raise FormatError("weak mode needs both --c and --d")
    if run.args.c is not None:
        cert = check_weak_lyapunov(model, varr, run.args.c, run.args.d, tol=run.args.tol)
        run.add_check(
            "weak-lyapunov", "Eq. (1)", cert.verdict, run.args.tol, cert, ("c", "d", "metrics")
        )
    else:
        cert = check_lyapunov(model, varr, tol=run.args.tol)
        run.add_check(
            "strict-lyapunov", "Definition 2", cert.verdict, run.args.tol, cert,
            ("shift", "metrics", "witness", "notes"),
        )


def cmd_check_lasalle(run: _Run) -> None:
    theorem, anchor = _THEOREMS[run.args.theorem]
    # an operator the theorem never reads would be recorded in `inputs` as if used
    if run.args.u and theorem != COROLLARY_1:
        raise FormatError(f"theorem {run.args.theorem} reads no --u; only c1 does")
    if run.args.w and theorem == "t8":
        raise FormatError("theorem 8 reads no --w")
    model = _load_model_arg(run)
    varr = _load_operator_arg(run, "v", "v")
    if theorem == "t8":
        rep = check_theorem8(model, varr, tol=run.args.tol)
        run.add_check(
            "ground-convergence", anchor, rep.verdict, run.args.tol, rep,
            ("commutator_norm", "restricted_min_eigenvalue", "kernel_dim", "notes"),
        )
        return
    if not run.args.w:
        raise FormatError(f"theorem {run.args.theorem} needs --w")
    warr = _load_operator_arg(run, "w", "w")
    uarr = _load_operator_arg(run, "u", "u") if run.args.u else None
    cert = check_lasalle_pair(model, varr, warr, theorem=theorem, u=uarr, tol=run.args.tol)
    run.add_check(
        f"lasalle-{run.args.theorem}", anchor, cert.verdict, run.args.tol, cert,
        ("shift", "metrics", "notes"),
    )


def cmd_synthesize(run: _Run) -> None:
    varr = _load_operator_arg(run, "v", "v")
    h = _load_operator_arg(run, "hamiltonian", "hamiltonian") if run.args.hamiltonian else None
    pairs = None
    if run.args.pairs:
        try:
            pairs = tuple(
                (int(a), int(b))
                for a, b in (item.split(":") for item in run.args.pairs.split(","))
            )
        except ValueError as exc:
            raise FormatError(f"cannot parse --pairs {run.args.pairs!r}: {exc}") from exc
    spec = SynthesisSpec(
        v=varr,
        hamiltonian=h,
        coupling_magnitude=run.args.magnitude,
        pair_selection=pairs,
        compensate=not run.args.no_compensate,
    )
    result = synthesize_coupling(spec, tol=run.args.tol)
    model_path = run.outdir / "synthesized_model.json"
    save_model(result.model, model_path, factors=result.factors or None)
    verification = verify_synthesis(result, result.model)
    # the couplings live in the model file only; the entry names it and its digest
    run.add_check(
        "synthesis", "Appendix cases A/B/C", result.certificate.verdict, run.args.tol, result,
        ("pair_cases", "level_values", "notes"),
        generator=result.generator_matrix, model_file=model_path.name,
        model_sha256=hashlib.sha256(model_path.read_bytes()).hexdigest(),
    )
    run.add_check(
        "synthesis-verification", "Appendix cases A/B/C", verification.verdict, 1e-10,
        verification, ("max_block_deviation",),
    )


def cmd_probe(run: _Run) -> None:
    from .dynamics import invariant_set_probe

    model = _load_model_arg(run)
    varr = _load_operator_arg(run, "v", "v")
    probe = invariant_set_probe(model, varr, run.args.t_final, run.args.threshold)
    run.add_check(
        "invariant-set-probe", "Theorem 8", probe.verdict, run.args.threshold, probe,
        ("worst_case", "worst_final", "t_final", "t_below_threshold", "step_controller"),
    )


_COMMANDS = {
    "analyze": cmd_analyze,
    "steady-state": cmd_steady_state,
    "simulate": cmd_simulate,
    "check-lyapunov": cmd_check_lyapunov,
    "check-lasalle": cmd_check_lasalle,
    "synthesize": cmd_synthesize,
    "probe-invariant-set": cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    run = _Run(args)
    try:
        run.outdir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](run)
    except (FormatError, OperatorError, InvariantAnalysisError, IntegrationError) as exc:
        print(f"qmstab: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    return run.finish()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
