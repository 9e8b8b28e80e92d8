"""The timing scripts still run, on the smallest sizes: the one that sets
`invariants._DENSE_KERNEL_DIM` by timing the three null-space solvers
directly, the serialization timer and the start-up timer (one subcommand,
one cold run). So does the report digest script that shows a refactor kept
the report bytes, and so does every workload of the traced benchmark run."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("time_null_space", ["--dims", "3", "--repeats", "1"]),
        ("time_serialize", ["--dim", "4", "--rank", "3", "--repeats", "1"]),
        ("time_startup", ["--subcommands", "check-lyapunov", "--repeats", "1"]),
    ],
)
def test_timing_script_runs(name, argv, capsys):
    _load(name).main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 2  # a header and at least one row


def test_report_bytes_digests_every_run(capsys, monkeypatch):
    # one "exit N  run" line per run, then one digest per file it wrote
    monkeypatch.setattr(sys, "path", list(sys.path))
    module = _load("report_bytes")
    module.main(["--src", str(SCRIPTS.parent)])
    lines = capsys.readouterr().out.splitlines()
    exits = [line for line in lines if line.startswith("exit ")]
    assert [line.split()[-1] for line in exits] == [name for name, _ in module.RUNS]
    assert len(lines) == 81


def test_every_traced_target_resolves(monkeypatch):
    # a renamed or deleted target silently drops its per-layer metrics
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ gains no files
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    assert [t for t in tracing.TARGETS if tracer._resolve(t) is None] == []


def _strict_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_benchmark_run_reports_every_declared_metric(tmp_path, workload):
    # run.py in a root of its own, with src/ linked and no bytecode written,
    # so the checkout gains no files
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--reduced"],
        cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_strict_constant)
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
