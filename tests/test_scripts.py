"""The timing scripts that set `dynamics._EXPM_COST_RATIO` and
`invariants._DENSE_EIG_DIM` still run, on the smallest sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("time_propagators", ["--dims", "4", "--repeats", "1"]),
        ("time_null_space", ["--dims", "3", "--repeats", "1"]),
    ],
)
def test_timing_script_runs(name, argv, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 2  # a header and at least one row
