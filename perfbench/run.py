#!/usr/bin/env python3
"""qmstab benchmark: time-to-verdict of CLI subcommands on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload osc-n60 --seed 1 --seconds 24 --trace 0

The program is imported from ./src and driven in-process through
`qmstab.cli.main(argv)`, one op after the other (a closed loop with one
client). Inputs are generated from --seed into a scratch directory under
./.bench_out, which is removed at the end. Every op's report.json is checked
after the op's timer stops.

With --trace 0 the last stdout line holds the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics from a traced
run (see perfbench/README.md). Earlier lines are for people: per-subcommand
medians, the run environment and notes. A JSON record with all samples is
left in ./.bench_out/.

setup_s is the median of three cold set-ups: this process's own (imports
from before numpy is loaded, input generation, one warm-up op) and two more
in fresh processes started with --setup-only, which print their set-up time
as JSON and exit. Those two run one after the other inside the timed window,
between passes, at a third and two thirds of it, so that the window's
samples span more wall time and average more of the host's slow speed
swings. Time spent in them is not counted in the window.

Exit status: 0 after a completed run (check "correct" in the result), 2 when
the checkout has no qmstab sources or no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Set-up time starts here, before numpy and scipy are first imported.
IMPORT_START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))

from envinfo import environment  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# Cold set-ups per untraced run: this process's own and SETUP_ROUNDS - 1
# more, each in a fresh process started with --setup-only during the window.
SETUP_ROUNDS = 3
# A run stops starting passes once this much wall time plus one more pass
# would pass, so that a slowed program still exits well within 180 s.
RUN_BUDGET_S = 150.0

# Names under which each subcommand's median is printed, next to the
# positional op1/op2 metrics that every workload reports.
SUBCOMMAND_METRIC = {
    "steady-state": "steady_state_p50_s",
    "simulate": "simulate_p50_s",
    "analyze": "analyze_p50_s",
    "probe-invariant-set": "probe_p50_s",
    "synthesize": "synthesize_p50_s",
    "check-lyapunov": "check_lyapunov_p50_s",
    "check-lasalle": "check_lasalle_p50_s",
}


def log(text: str = "") -> None:
    print(text, flush=True)


class Runner:
    """Runs ops of one workload, timing each and checking its report."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_id = 0

    def run(self, op, traced: bool = False) -> tuple[float, bool]:
        report_path = op.out / "report.json"
        if report_path.exists():
            report_path.unlink()
        gc.collect()
        self.op_id += 1
        code, error = None, None
        if traced:
            self.tracer.op = self.op_id
            root = self.tracer.begin(f"cli.{op.subcommand}")
        start = time.perf_counter()
        try:
            code = self.cli.main(list(op.argv))
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.end(root)
                self.tracer.op_walls[self.op_id] = wall
        self.attempted += 1
        problems = [f"raised:\n{error}"] if error else []
        if not error:
            try:
                report = json.loads(report_path.read_text())
                problems += op.check(report, code)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"report unreadable or malformed: {exc!r}")
        if problems:
            self.failed += 1
            message = f"{op.subcommand} op {self.op_id} failed: " + "; ".join(problems)
            self.problems.append(message)
            print(message, file=sys.stderr, flush=True)
        return wall, not problems


def measure(wl: Workload, runner: Runner, seconds: float, trace: bool, reduced: bool,
            process_start: float, pauses: list, pause_s: float) -> dict:
    """The timed window. With tracing, passes alternate traced/untraced,
    starting traced; end-to-end samples come from untraced passes only.
    Samples and pass times are kept for successful ops and passes only, so
    an op that fails early cannot read as fast.

    `pauses` are calls made between passes, the i-th of n once i/(n+1) of
    the window has passed (those still due when it ends run after it); the
    time they take does not count towards the window. `pause_s` estimates
    one pause, for the run budget."""
    samples = {sub: [] for sub in wl.mix}
    pass_walls = {True: [], False: []}
    traced_ops: list[set[int]] = []
    min_passes = 2 if trace else 1
    notes: list[str] = []
    window_start = time.perf_counter()
    paused = 0.0
    pending = list(pauses)
    k = 0
    while True:
        traced = trace and k % 2 == 0
        if traced:
            runner.tracer.enable()
        first_op = runner.op_id + 1
        pass_start = time.perf_counter()
        pass_wall, pass_ok = 0.0, True
        try:
            for op in wl.pass_ops(k):
                wall, ok = runner.run(op, traced)
                pass_wall += wall
                pass_ok &= ok
                if ok and not traced:
                    samples[op.subcommand].append(wall)
        finally:
            if traced:
                runner.tracer.disable()
        if traced:
            traced_ops.append(set(range(first_op, runner.op_id + 1)))
        if pass_ok:
            pass_walls[traced].append(pass_wall)
        k += 1
        now = time.perf_counter()
        if k >= min_passes:
            if reduced or now - window_start - paused >= seconds:
                break
            if now - process_start + (now - pass_start) + pause_s * len(pending) > RUN_BUDGET_S:
                notes.append(f"stopped after {k} passes to stay within the run budget")
                break
        done = len(pauses) - len(pending)
        if pending and now - window_start - paused >= seconds * (done + 1) / (len(pauses) + 1):
            pending.pop(0)()
            paused += time.perf_counter() - now
    window_s = time.perf_counter() - window_start - paused
    for pause in pending:
        pause()
    return {"samples": samples, "pass_walls": pass_walls, "traced_ops": traced_ops,
            "passes": k, "notes": notes, "window_s": window_s}


def child_setup(args, root: Path, runner: Runner, rounds: list[float]) -> None:
    """One cold set-up in a fresh process, appended to `rounds`. A cost paid
    once per process (imports, first calls, a cache filled on first use)
    counts in every round, so the median keeps it. The round's warm-up op
    counts as an attempted op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.reduced:
        argv.append("--reduced")
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=60)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rounds.append(result["setup_s"])
        runner.attempted += result["attempted"]
        runner.failed += result["failed"]
        runner.problems += result["problems"]
    except (subprocess.TimeoutExpired, IndexError, ValueError, KeyError) as exc:
        runner.attempted += 1
        runner.failed += 1
        runner.problems.append(f"set-up process failed: {exc!r}")
        print(runner.problems[-1], file=sys.stderr, flush=True)


def end_to_end(wl: Workload, setup_s: float, window: dict) -> dict:
    """Every workload reports the same names, so op1/op2 stand for the first
    two subcommands of its mix (see perfbench/README.md)."""
    s, walls = window["samples"], window["pass_walls"][False]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(wl.mix) * len(walls) / sum(walls) if walls else None,
        "op1_p50_s": statistics.median(s[wl.mix[0]]) if s[wl.mix[0]] else None,
        "op2_p50_s": statistics.median(s[wl.mix[1]]) if s[wl.mix[1]] else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, window: dict) -> dict:
    per_pass = [tracer.pass_metrics(ops) for ops in window["traced_ops"]]
    names = set().union(*per_pass) if per_pass else set()
    out = {name: statistics.median(p.get(name, 0) for p in per_pass) for name in names}
    walls = window["pass_walls"]
    if walls[True] and walls[False]:
        out["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    out["trace.self_sum_residual_s"] = tracer.op_residual()
    out["trace.spans"] = statistics.median(
        sum(1 for s in tracer.spans if s.op in ops) for ops in window["traced_ops"])
    return out


def declared(spec: dict, section: str, values: dict, tracer, notes: list[str]) -> dict:
    """The metrics BENCHMARK.json declares, each with its unit. A traced
    layer the workload never called reads 0; a metric whose target or
    counter is gone is omitted with a note."""
    out = {}
    for m in spec[section]:
        name, value = m["name"], values.get(m["name"])
        if value is None and tracer is not None and tracer.covers(name):
            value = 0
        if value is None:
            notes.append(f"metric {name} omitted: no value")
            continue
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="smoke mode: dims 4-8 and one pass (two when traced)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it; used for set-up rounds")
    args = parser.parse_args(argv)
    result = run_benchmark(args, Path.cwd(), process_start)
    if result is None:
        return 2
    log(json.dumps(result))
    return 0


def run_benchmark(args, root: Path, process_start: float, workload: Workload | None = None):
    """One run; returns the result object, or None when the checkout lacks
    the program or BENCHMARK.json. `workload` lets the smoke check pass a
    workload with altered expectations."""
    src = root / "src"
    if not (src / "qmstab" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"perfbench: {root} has no src/qmstab/cli.py or no BENCHMARK.json; "
              "run from the root of a qmstab checkout", file=sys.stderr)
        return None
    spec = json.loads((root / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(src))
    from qmstab import cli
    import_s = time.perf_counter() - IMPORT_START
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        print(f"perfbench: imported qmstab from {cli.__file__}, not from {src}", file=sys.stderr)
        return None

    wl = workload or WORKLOADS[args.workload](seed=args.seed, reduced=args.reduced)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    runner = Runner(cli, tracer)
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_root))
    try:
        t = time.perf_counter()
        wl.generate(scratch)
        runner.run(wl.warmup_op())
        rounds = [import_s + time.perf_counter() - t]
        if args.setup_only:
            return {"setup_s": rounds[0], "attempted": runner.attempted,
                    "failed": runner.failed, "problems": runner.problems}
        pauses = [] if args.trace else [
            functools.partial(child_setup, args, root, runner, rounds)] * (SETUP_ROUNDS - 1)
        window = measure(wl, runner, args.seconds, bool(args.trace), args.reduced,
                         process_start, pauses, rounds[0])
        setup_s = statistics.median(rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    notes = window["notes"] + (tracer.notes if tracer else [])
    e2e = end_to_end(wl, setup_s, window)
    values = per_layer(tracer, window) if tracer else e2e
    metrics = declared(spec, "per_layer" if tracer else "end_to_end", values, tracer, notes)
    env = environment(root, args)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _print_summary(wl, window, e2e, units, runner, rounds)
    if tracer:
        _print_layers(values, window)
    log("env: " + json.dumps(env, sort_keys=True))
    for note in notes:
        log(f"note: {note}")
    record = {"env": env, "end_to_end": e2e, "metrics": metrics, "notes": notes,
              "problems": runner.problems, "samples": window["samples"],
              "pass_walls": {"traced": window["pass_walls"][True],
                             "untraced": window["pass_walls"][False]},
              "setup": {"import_s": import_s, "rounds_s": rounds}}
    if tracer:
        record["per_layer_all"] = values
        record["spans"] = [[s.name, s.op, s.parent, s.start, s.end, s.counts]
                           for s in tracer.spans]
    path = out_root / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    log(f"record: {path.relative_to(root)}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def _print_summary(wl, window, e2e, units, runner, setup_rounds) -> None:
    log(f"workload {wl.name}: {window['passes']} passes of {' + '.join(wl.mix)} "
        f"in {window['window_s']:.1f} s")
    log(f"setup: cold rounds {[round(x, 3) for x in setup_rounds]} s")
    aliases = {"op1_p50_s": wl.mix[0], "op2_p50_s": wl.mix[1]}
    for name, value in e2e.items():
        extra = f"  ({wl.name} {aliases[name]})" if name in aliases else ""
        log(f"  {name} = {value} {units[name]}{extra}")
    for sub, values in window["samples"].items():
        if values:
            log(f"  {SUBCOMMAND_METRIC[sub]} = {statistics.median(values)} s "
                f"(n = {len(values)}, min {min(values):.4f}, max {max(values):.4f})")
    frac = runner.failed / runner.attempted if runner.attempted else 0.0
    log(f"  failed_frac = {frac} ({runner.failed} of {runner.attempted} ops)")
    log("  no tail percentile: a run has far fewer than 10 samples per subcommand "
        "beyond p90")
    log("  no wait time: one closed-loop client, no queue")


def _print_layers(values: dict, window: dict) -> None:
    """Self time per traced pass, largest first, as a share of the pass."""
    walls = window["pass_walls"][True]
    wall = statistics.median(walls) if walls else 0.0
    log(f"traced pass: median {wall:.4f} s over {len(walls)} passes; self time per layer:")
    selfs = sorted(((v, k[:-len(".self_s")]) for k, v in values.items() if k.endswith(".self_s")),
                   reverse=True)
    for value, layer in selfs:
        share = f"{100 * value / wall:5.1f}%" if wall else ""
        calls = values.get(f"{layer}.calls")
        log(f"  {layer:<40} {value:10.4f} s {share}" + (f"  calls {calls}" if calls else ""))
    for key in sorted(values):
        if not key.endswith((".self_s", ".calls")):
            log(f"  {key} = {values[key]}")


if __name__ == "__main__":
    sys.exit(main())
