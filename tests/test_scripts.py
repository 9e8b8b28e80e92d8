"""The timing scripts still run, on the smallest sizes: the one that sets
`invariants._DENSE_KERNEL_DIM` by timing the three null-space solvers
directly, the serialization timer and the start-up timer (one subcommand,
one cold run). So does the report digest script that shows a refactor kept
the report bytes."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
    assert len(lines) == 77
