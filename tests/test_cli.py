import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmstab.cli import _COMMANDS, main

from conftest import FIXTURES, certify_n32_target


def run(args, outdir):
    return main([*args, "--out", str(outdir)])


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def checks_by_name(report):
    return {c["name"]: c for c in report["run"]["checks"]}


# The key set of every check entry kind and the type json.load gives each
# value, on the runs of test_every_check_carries_anchor_and_tolerance (where
# the strict witness is null). Every entry also carries ENTRY_COMMON.
ENTRY_COMMON = {"name": str, "anchor": str, "verdict": str, "tolerance": float}
ENTRY_SCHEMA = {
    "invariant-state-exists": {
        "null_dimension": int, "null_space_method": str,
        "inverse_norm_estimate": (float, type(None)), "residuals": list,
        "cleanup_distances": list, "reliable": list, "notes": list, "states": list,
    },
    "faithful[0]": {"rank": int, "support": list},
    "support-subharmonic[0]": {"min_eigenvalue": float},
    "unique-invariant-state": {"null_dimension": int},
    "connectivity(coordinate family)": {"note": str, "values": dict},
    "connectivity(spectral family of V)": {"note": str, "values": dict},
    "trace-preservation": {"step_controller": dict, "max_trace_deviation": float},
    "series-emitted": {"series": dict},
    "lasalle-diagnostics": {
        "v_monotone": bool, "v_monotone_max_violation": float,
        "v_rise_time": (float, type(None)), "v_sup": float, "w_integral_estimate": float,
        "w_final": float,
    },
    "mean-bound": {"max_violation": float, "worst_time": (float, type(None))},
    "final-state": {"t": float, "state": list},
    "weak-lyapunov": {"c": float, "d": float, "metrics": dict},
    "strict-lyapunov": {"shift": float, "metrics": dict, "witness": type(None), "notes": list},
    "ground-convergence": {
        "commutator_norm": float, "restricted_min_eigenvalue": float, "kernel_dim": int,
        "notes": list,
    },
    "lasalle-5": {"shift": float, "metrics": dict, "notes": list},
    "synthesis": {
        "pair_cases": list, "level_values": list, "notes": list, "generator": list,
        "model_file": str, "model_sha256": str,
    },
    "synthesis-verification": {"max_block_deviation": float},
    "invariant-set-probe": {
        "worst_case": list, "worst_final": float, "t_final": float, "t_below_threshold": float,
        "step_controller": dict,
    },
}


class TestAnalyze:
    def test_twolevel_all_hold(self, tmp_path):
        code = run(["analyze", "--model", str(FIXTURES / "twolevel.json")], tmp_path)
        assert code == 0
        checks = checks_by_name(read_report(tmp_path))
        assert checks["invariant-state-exists"]["verdict"] == "holds"
        assert checks["faithful[0]"]["verdict"] == "holds"
        assert checks["unique-invariant-state"]["verdict"] == "holds"
        assert checks["connectivity(coordinate family)"]["verdict"] == "holds"
        state = checks["invariant-state-exists"]["states"][0]
        assert state[0][0][0] == pytest.approx(0.5, abs=1e-9)

    def test_every_check_carries_anchor_and_tolerance(self, tmp_path):
        # every subcommand and every entry kind; flags are JSON booleans
        # wherever they appear, and each entry has exactly the keys and value
        # types of ENTRY_SCHEMA
        model, v = str(FIXTURES / "qubit_decay.json"), str(FIXTURES / "qubit_V.json")
        invocations = [
            ["analyze", "--model", str(FIXTURES / "twolevel.json"), "--v", v],
            ["steady-state", "--model", model],
            ["simulate", "--model", model, "--rho0", str(FIXTURES / "qubit_excited.json"),
             "--t-final", "2", "--points", "21", "--v", v, "--w", v, "--c", "1", "--d", "0"],
            ["check-lyapunov", "--model", model, "--v", v],
            ["check-lyapunov", "--model", model, "--v", v, "--c", "0.5", "--d", "0"],
            ["check-lasalle", "--theorem", "5", "--model", model, "--v", v, "--w", v],
            ["check-lasalle", "--theorem", "8", "--model", model, "--v", v],
            ["synthesize", "--v", v],
            ["probe-invariant-set", "--model", model, "--v", v],
        ]
        commands, flags, entries = set(), set(), set()
        for i, args in enumerate(invocations):
            run(args, tmp_path / str(i))
            report = read_report(tmp_path / str(i))
            commands.add(report["run"]["command"])
            for check in report["run"]["checks"]:
                schema = {**ENTRY_COMMON, **ENTRY_SCHEMA[check["name"]]}
                assert check.keys() == schema.keys(), check["name"]
                for key, value in check.items():
                    allowed = schema[key] if isinstance(schema[key], tuple) else (schema[key],)
                    assert type(value) in allowed, (check["name"], key)
                entries.add(check["name"])
                assert check["anchor"]
                assert "tolerance" in check
                assert check["verdict"] in ("holds", "fails", "inconclusive")
                if "v_monotone" in check:
                    assert type(check["v_monotone"]) is bool, (check["name"], "v_monotone")
                    flags.add("v_monotone")
                for flag in check.get("reliable", []):
                    assert type(flag) is bool, (check["name"], "reliable")
                    flags.add("reliable")
        assert commands == set(_COMMANDS)
        assert entries == set(ENTRY_SCHEMA)
        assert flags == {"reliable", "v_monotone"}

    def test_dephasing_model_not_unique(self, tmp_path):
        from qmstab import ModelSpec, pauli
        from qmstab.serialize import save_model

        save_model(ModelSpec(pauli("z"), [pauli("z")]), tmp_path / "m.json")
        code = run(["analyze", "--model", str(tmp_path / "m.json")], tmp_path)
        assert code == 1  # faithfulness/uniqueness fail for the dephasing model

    def test_tol_reaches_connectivity(self, tmp_path):
        # a weak coupling gives connectivity values of 1e-6: above the
        # default --tol, below 1e-5, which the verdict must compare
        from qmstab import ModelSpec, pauli
        from qmstab.serialize import save_model

        save_model(ModelSpec(pauli("z"), [1e-3 * pauli("x")]), tmp_path / "m.json")
        for tol, code, verdict in (("1e-9", 0, "holds"), ("1e-5", 1, "fails")):
            out = tmp_path / tol
            assert run(["analyze", "--model", str(tmp_path / "m.json"), "--tol", tol], out) == code
            entry = checks_by_name(read_report(out))["connectivity(coordinate family)"]
            assert min(entry["values"].values()) == pytest.approx(1e-6)
            assert (entry["verdict"], entry["tolerance"]) == (verdict, float(tol))

    def test_uniqueness_fails_with_degenerate_null_space(self, tmp_path):
        # the generators' commutant is trivial, but no invariant state is
        # faithful: the 4-dimensional null space refutes uniqueness
        code = run(["analyze", "--model", str(FIXTURES / "qutrit_branching_decay.json")], tmp_path)
        assert code == 1
        checks = checks_by_name(read_report(tmp_path))
        assert checks["invariant-state-exists"]["null_dimension"] == 4
        unique = checks["unique-invariant-state"]
        assert unique["null_dimension"] == 4
        assert unique["verdict"] == "fails"

    def test_unique_above_dim_24(self, tmp_path):
        run(["analyze", "--model", str(FIXTURES / "oscillator_n40.json")], tmp_path)
        unique = checks_by_name(read_report(tmp_path))["unique-invariant-state"]
        assert unique.keys() == {*ENTRY_COMMON, *ENTRY_SCHEMA["unique-invariant-state"]}
        assert (unique["null_dimension"], unique["verdict"]) == (1, "holds")

    def test_null_space_path_reported(self, tmp_path):
        # a simple kernel takes the bordered LU at any dimension; twoqubit's
        # 4-dimensional kernel makes it singular, so the dense SVD answers
        run(["analyze", "--model", str(FIXTURES / "twolevel.json")], tmp_path / "twolevel")
        entry = checks_by_name(read_report(tmp_path / "twolevel"))["invariant-state-exists"]
        assert entry["null_space_method"] == "bordered-lu"
        assert entry["inverse_norm_estimate"] == 1.0
        run(["steady-state", "--model", str(FIXTURES / "twoqubit.json")], tmp_path / "twoqubit")
        entry = checks_by_name(read_report(tmp_path / "twoqubit"))["invariant-state-exists"]
        assert entry["null_space_method"] == "dense-svd"
        assert (entry["null_dimension"], entry["inverse_norm_estimate"]) == (4, None)


class TestSteadyState:
    def test_reliable_is_json_boolean(self, tmp_path):
        code = run(["steady-state", "--model", str(FIXTURES / "oscillator_n40.json")], tmp_path)
        assert code == 0
        entry = checks_by_name(read_report(tmp_path))["invariant-state-exists"]
        assert len(entry["reliable"]) == 1 and entry["reliable"][0] is True  # not 1
        assert entry["null_space_method"] == "bordered-lu"
        assert 0 < entry["inverse_norm_estimate"] <= 1e-3 / 1e-9  # tol_abs >= tol

    def test_cleanup_distances_reported(self, tmp_path):
        from qmstab import steady_states
        from qmstab.serialize import load_model

        model_path = FIXTURES / "qutrit_branching_decay.json"
        run(["steady-state", "--model", str(model_path)], tmp_path)
        entry = checks_by_name(read_report(tmp_path))["invariant-state-exists"]
        expected = steady_states(load_model(model_path)[0]).cleanup_distances
        assert len(entry["cleanup_distances"]) == len(entry["states"]) == len(expected)
        assert entry["cleanup_distances"] == pytest.approx(list(expected), rel=0, abs=1e-12)


class TestCheckCommands:
    def test_lasalle_t5_two_qubit(self, tmp_path):
        code = run(
            [
                "check-lasalle",
                "--model", str(FIXTURES / "twoqubit.json"),
                "--v", str(FIXTURES / "twoqubit_V.json"),
                "--w", str(FIXTURES / "twoqubit_W.json"),
                "--theorem", "5",
            ],
            tmp_path,
        )
        assert code == 0
        checks = checks_by_name(read_report(tmp_path))
        assert checks["lasalle-5"]["anchor"] == "Theorem 5"
        assert checks["lasalle-5"]["shift"] == pytest.approx(2.0)

    def test_theorem8_on_decay_model(self, tmp_path):
        code = run(
            [
                "check-lasalle",
                "--model", str(FIXTURES / "qubit_decay.json"),
                "--v", str(FIXTURES / "qubit_V.json"),
                "--theorem", "8",
            ],
            tmp_path,
        )
        assert code == 0

    def test_weak_lyapunov_oscillator(self, tmp_path):
        code = run(
            [
                "check-lyapunov",
                "--model", str(FIXTURES / "oscillator_n40.json"),
                "--v", str(FIXTURES / "number_n40.json"),
                "--c", "0.75", "--d", "0.25",
            ],
            tmp_path,
        )
        assert code == 0
        # G(N) = -0.75 N + 0.25 I on the interior, so 0.75 is the best rate
        entry = checks_by_name(read_report(tmp_path))["weak-lyapunov"]
        assert entry["metrics"]["best_c"] == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("model,v,d,best", [
        ("oscillator_unstable_n40.json", "number_n40.json", "1", None),
        ("twoqubit_dissipative.json", "twoqubit_Vshifted.json", "0", 0.0),
    ])
    def test_weak_lyapunov_reports_no_or_zero_rate(self, tmp_path, model, v, d, best):
        code = run(
            ["check-lyapunov", "--model", str(FIXTURES / model), "--v", str(FIXTURES / v),
             "--c", "0.1", "--d", d],
            tmp_path,
        )
        assert code == 1
        assert checks_by_name(read_report(tmp_path))["weak-lyapunov"]["metrics"]["best_c"] == best

    def test_weak_lyapunov_refuses_zero_v(self, tmp_path, capsys):
        from qmstab.serialize import save_operator

        save_operator(np.zeros((2, 2), dtype=complex), tmp_path / "zero.json")
        code = run(
            ["check-lyapunov", "--model", str(FIXTURES / "qubit_decay.json"),
             "--v", str(tmp_path / "zero.json"), "--c", "1", "--d", "1"],
            tmp_path,
        )
        assert code == 65
        assert "zero operator" in capsys.readouterr().err

    def test_strict_lyapunov_fails_on_pumped_oscillator(self, tmp_path):
        code = run(
            [
                "check-lyapunov",
                "--model", str(FIXTURES / "oscillator_unstable_n40.json"),
                "--v", str(FIXTURES / "number_n40.json"),
            ],
            tmp_path,
        )
        assert code == 1

    def test_inconclusive_with_strict_flag(self, tmp_path):
        from qmstab import ModelSpec, pauli
        from qmstab.serialize import save_model, save_operator

        save_model(ModelSpec(pauli("z"), [pauli("z")]), tmp_path / "m.json")
        save_operator(np.diag([2.0, 1.0]).astype(complex), tmp_path / "v.json")
        args = [
            "check-lasalle",
            "--model", str(tmp_path / "m.json"),
            "--v", str(tmp_path / "v.json"),
            "--theorem", "8",
        ]
        assert run(args, tmp_path) == 0
        assert run([*args, "--strict"], tmp_path) == 2

    @pytest.mark.parametrize("theorem, flag", [
        ("5", "--u"), ("6", "--u"), ("7", "--u"), ("8", "--u"), ("8", "--w"),
    ])
    def test_lasalle_refuses_an_operator_its_theorem_never_reads(
        self, tmp_path, capsys, theorem, flag
    ):
        args = [
            "check-lasalle", "--theorem", theorem,
            "--model", str(FIXTURES / "twoqubit_dissipative.json"),
            "--v", str(FIXTURES / "twoqubit_Vshifted.json"),
            *(["--w", str(FIXTURES / "twoqubit_W.json")] if theorem != "8" else []),
            flag, str(FIXTURES / "twoqubit_W.json"),
        ]
        assert run(args, tmp_path) == 65
        assert f"reads no {flag}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_corollary1_with_nonzero_u_is_inconclusive(self, tmp_path):
        # the slack G(V) <= U - W holds, but for U != 0 the finite integral
        # of <U(t)> is assumed, not checked
        args = [
            "check-lasalle", "--theorem", "c1",
            "--model", str(FIXTURES / "twoqubit_dissipative.json"),
            "--v", str(FIXTURES / "twoqubit_V.json"),
            "--w", str(FIXTURES / "twoqubit_W.json"),
            "--u", str(FIXTURES / "twoqubit_W.json"),
        ]
        assert run(args, tmp_path / "plain") == 0
        assert checks_by_name(read_report(tmp_path / "plain"))["lasalle-c1"]["verdict"] == (
            "inconclusive")
        assert run([*args, "--strict"], tmp_path / "strict") == 2


class TestSimulate:
    def test_decay_series(self, tmp_path):
        code = run(
            [
                "simulate",
                "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"),
                "--t-final", "20",
                "--v", str(FIXTURES / "qubit_V.json"),
            ],
            tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "series_v.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert float(lines[-1].split(",")[1]) < 1e-5

    def test_population_series_by_default(self, tmp_path):
        code = run(
            [
                "simulate",
                "--model", str(FIXTURES / "twolevel.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"),
                "--t-final", "5",
            ],
            tmp_path,
        )
        assert code == 0
        assert (tmp_path / "series_pop000.csv").exists()
        assert (tmp_path / "series_pop001.csv").exists()

    def test_svg_output(self, tmp_path):
        code = run(
            [
                "simulate",
                "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"),
                "--t-final", "10",
                "--v", str(FIXTURES / "qubit_V.json"),
                "--format", "svg",
            ],
            tmp_path,
        )
        assert code == 0
        assert (tmp_path / "series_v.svg").read_text().startswith("<svg")

    def test_step_controller_reports_sectors(self, tmp_path):
        # qubit_decay's real Liouvillian has 3 sectors; the excited state
        # touches only the population sector of 2 coordinates
        code = run(
            [
                "simulate",
                "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"),
                "--t-final", "1",
            ],
            tmp_path,
        )
        assert code == 0
        rec = checks_by_name(read_report(tmp_path))["trace-preservation"]["step_controller"]
        assert (rec["sectors"], rec["propagated_dim"]) == (3, 2)

    def test_rising_v_fails_lasalle_diagnostics(self, tmp_path):
        # the pumped oscillator's <N> rises from the vacuum at once: a
        # sampled rise refutes G(V) <= 0, whatever <W> does
        vacuum = tmp_path / "vacuum40.json"
        vacuum.write_text(json.dumps(
            {"matrix": [[[float(i == j == 0), 0.0] for j in range(40)] for i in range(40)]}
        ))
        number = str(FIXTURES / "number_n40.json")
        code = run(
            [
                "simulate",
                "--model", str(FIXTURES / "oscillator_unstable_n40.json"),
                "--rho0", str(vacuum), "--t-final", "5", "--points", "41",
                "--v", number, "--w", number,
            ],
            tmp_path,
        )
        assert code == 1
        check = checks_by_name(read_report(tmp_path))["lasalle-diagnostics"]
        assert (check["verdict"], check["v_monotone"]) == ("fails", False)
        assert check["v_rise_time"] == 0.125  # the first sample after t = 0

    def test_sampled_trajectory_never_proves_lasalle(self, tmp_path):
        # <V> falls at every sample: that refutes nothing and proves nothing,
        # so the entry is inconclusive whatever <W> does between the samples
        args = ["simulate", "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"), "--t-final", "5",
                "--points", "41", "--v", str(FIXTURES / "qubit_V.json"),
                "--w", str(FIXTURES / "qubit_V.json"), "--c", "1", "--d", "0"]
        assert run(args, tmp_path / "plain") == 0
        check = checks_by_name(read_report(tmp_path / "plain"))["lasalle-diagnostics"]
        assert (check["verdict"], check["v_monotone"], check["v_rise_time"]) == (
            "inconclusive", True, None)
        assert run([*args, "--strict"], tmp_path / "strict") == 2

    def test_json_format_embeds_the_csv_series(self, tmp_path):
        args = ["simulate", "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"), "--t-final", "5",
                "--points", "41", "--v", str(FIXTURES / "qubit_V.json")]
        assert run(args, tmp_path / "csv") == 0
        assert run([*args, "--format", "json"], tmp_path / "json") == 0
        report = read_report(tmp_path / "json")
        assert report["run"]["series_files"] == []
        assert [p.name for p in (tmp_path / "json").iterdir()] == ["report.json"]
        series = checks_by_name(report)["series-emitted"]["series"]["series_v"]
        rows = (tmp_path / "csv" / "series_v.csv").read_text().splitlines()[1:]
        t, value = zip(*(map(float, row.split(",")) for row in rows))
        assert (series["t"], series["value"]) == (list(t), list(value))

    def test_long_horizon_finishes_on_the_stationary_state(self, tmp_path):
        # t = 1e9 on the n = 40 oscillator, whose vacuum takes the Krylov
        # steps: the Dormand-Prince loop needed about 1e11 steps, and a
        # Ritz value at rounding noise would shrink the trace by 1e-6
        vacuum = tmp_path / "vacuum40.json"
        vacuum.write_text(json.dumps(
            {"matrix": [[[float(i == j == 0), 0.0] for j in range(40)] for i in range(40)]}
        ))
        args = ["simulate", "--model", str(FIXTURES / "oscillator_n40.json"),
                "--rho0", str(vacuum), "--v", str(FIXTURES / "number_n40.json"),
                "--t-final", "1e9", "--points", "3"]
        start = time.perf_counter()
        assert run(args, tmp_path / "out") == 0
        assert time.perf_counter() - start < 5.0
        checks = checks_by_name(read_report(tmp_path / "out"))
        trace = checks["trace-preservation"]
        assert trace["verdict"] == "holds"
        assert trace["step_controller"]["method"] == "krylov"
        assert trace["step_controller"]["max_trace_drift"] <= 1e-8
        assert run(["steady-state", "--model", str(FIXTURES / "oscillator_n40.json")],
                   tmp_path / "ss") == 0
        (stationary,) = checks_by_name(read_report(tmp_path / "ss"))[
            "invariant-state-exists"]["states"]
        final = np.array(checks["final-state"]["state"])
        np.testing.assert_allclose(final, np.array(stationary), rtol=0, atol=1e-8)

    @pytest.mark.parametrize(
        "extra",
        [["--c", "1"], ["--c", "1", "--d", "0"], ["--v", "{V}", "--c", "1"], ["--d", "0"]],
    )
    def test_partial_mean_bound_flags_are_an_input_error(self, tmp_path, capsys, extra):
        args = ["simulate", "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"), "--t-final", "1",
                *(a.format(V=FIXTURES / "qubit_V.json") for a in extra)]
        assert run(args, tmp_path) == 65
        assert "needs --v, --c and --d together" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_writes_model_file(self, tmp_path):
        code = run(["synthesize", "--v", str(FIXTURES / "qubit_V.json")], tmp_path)
        assert code == 0
        from qmstab.serialize import load_model

        model, _ = load_model(tmp_path / "synthesized_model.json")
        np.testing.assert_allclose(
            model.couplings[0], np.array([[0, 0], [1, 0]], dtype=complex), atol=1e-12
        )
        # the couplings are written once, to the model file the entry names
        entry = checks_by_name(read_report(tmp_path))["synthesis"]
        assert "couplings" not in entry
        assert entry["model_file"] == "synthesized_model.json"
        data = (tmp_path / "synthesized_model.json").read_bytes()
        assert entry["model_sha256"] == hashlib.sha256(data).hexdigest()

    def test_model_file_holds_factored_couplings(self, tmp_path):
        v = str(FIXTURES / "twoqubit_V.json")
        assert run(["synthesize", "--v", v], tmp_path / "synth") == 0
        model = tmp_path / "synth" / "synthesized_model.json"
        couplings = json.loads(model.read_text())["couplings"]
        assert couplings and all(sorted(c) == ["left", "right"] for c in couplings)
        assert run(["check-lyapunov", "--model", str(model), "--v", v], tmp_path / "check") == 0

    def test_notes_name_pairs_by_the_indices_given(self, tmp_path):
        from qmstab.serialize import save_operator

        v = tmp_path / "v.json"
        save_operator(np.diag([3.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0]).astype(complex), v)
        assert run(["synthesize", "--v", str(v), "--pairs", "3:0,2:1"], tmp_path) == 0
        notes = checks_by_name(read_report(tmp_path))["synthesis"]["notes"]
        assert [note.split(" has")[0] for note in notes if note.startswith("pair")] == [
            "pair (3, 0)", "pair (2, 1)"]

    @pytest.mark.parametrize("pairs, message", [
        ("0:0", "pair (0, 0) needs hi > lo"),
        ("0:1", "pair (0, 1) needs hi > lo"),
        ("5:0", "pair (5, 0) out of range for 2 levels"),
        ("x", "cannot parse --pairs 'x'"),
    ])
    def test_bad_pairs_are_an_input_error(self, tmp_path, capsys, pairs, message):
        # the message names the pair in the indices given, ascending levels
        args = ["synthesize", "--v", str(FIXTURES / "qubit_V.json"), "--pairs", pairs]
        assert run(args, tmp_path) == 65
        assert message in capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 20 waits for items 1 and 13 (the stationary face as one block "
    "with a conserved observable), 2 (certified ground convergence) and 18 (the "
    "probe without an n^4 Liouvillian)"))
def test_engineered_n32_model_tells_one_story(tmp_path):
    # the round's engineering loop on the certify-n32 recipe: synthesize, then
    # analyze, check-lasalle --theorem 8 and the probe on its model agree, in
    # 5 s together; analyze's block structure is asserted first, so that
    # while it is missing the probe does not run
    from qmstab.serialize import save_operator

    v = tmp_path / "n32.json"
    save_operator(certify_n32_target(), v)
    start = time.perf_counter()
    assert run(["synthesize", "--v", str(v)], tmp_path / "synth") == 0
    model = str(tmp_path / "synth" / "synthesized_model.json")
    run(["analyze", "--model", model], tmp_path / "analyze")
    analyze = checks_by_name(read_report(tmp_path / "analyze"))
    exists, unique = analyze["invariant-state-exists"], analyze["unique-invariant-state"]
    assert exists["null_dimension"] == 64
    assert [block["d"] for block in exists.get("blocks", [])] == [8]
    assert len(exists["states"]) == 1  # basis-free: the block's own state
    assert unique["verdict"] == "fails" and unique.get("conserved_observable") is not None
    run(["check-lasalle", "--theorem", "8", "--model", model, "--v", str(v)], tmp_path / "lasalle")
    ground = checks_by_name(read_report(tmp_path / "lasalle"))["ground-convergence"]
    run(["probe-invariant-set", "--model", model, "--v", str(v)], tmp_path / "probe")
    probe = checks_by_name(read_report(tmp_path / "probe"))["invariant-set-probe"]
    for entry in (ground, probe):
        assert entry["verdict"] == "holds"
        assert entry.get("rate") is not None and entry.get("horizon") is not None
    assert time.perf_counter() - start < 5.0


_IMPORT_CONTRACT = """
import json
import sys
from qmstab.cli import main

out, f = sys.argv[1:]
model, v = f"{out}/synthesized_model.json", f"{f}/twoqubit_V.json"
codes = [
    main(["synthesize", "--v", v, "--out", out]),
    main(["check-lyapunov", "--model", model, "--v", v, "--out", out]),
    main(["check-lasalle", "--theorem", "8", "--model", model,
          "--v", f"{f}/twoqubit_Vshifted.json", "--out", out]),
]
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert codes == [0, 0, 0] and not loaded, (codes, loaded)
assert main(["steady-state", "--model", f"{f}/twolevel.json", "--out", out]) == 0
vacuum = f"{out}/vacuum40.json"
with open(vacuum, "w") as fh:
    json.dump({"matrix": [[[float(i == j == 0), 0.0] for j in range(40)] for i in range(40)]}, fh)
assert main(["simulate", "--model", f"{f}/oscillator_n40.json", "--rho0", vacuum,
             "--t-final", "1", "--points", "5", "--out", f"{out}/simulate"]) == 0
with open(f"{out}/simulate/report.json") as fh:
    checks = {c["name"]: c for c in json.load(fh)["run"]["checks"]}
assert checks["trace-preservation"]["step_controller"]["method"] == "krylov"
assert "scipy.sparse" in sys.modules and "scipy.integrate" not in sys.modules
"""


def _run_script(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )


def test_numpy_only_subcommands_load_no_scipy(tmp_path):
    # synthesize and the Lyapunov and LaSalle checks need n x n algebra
    # only, so their process loads no scipy module at all; a Liouvillian
    # loads scipy.sparse, and no propagator loads scipy.integrate, not even
    # krylov, which the n = 40 oscillator's vacuum takes. The Theorem 8
    # check takes the shifted V, since it needs V >= 0.
    proc = _run_script(_IMPORT_CONTRACT, tmp_path, FIXTURES)
    assert proc.returncode == 0, proc.stderr


_KERNEL_IMPORTS = """
import sys
from qmstab.cli import main

out, f = sys.argv[1:]
assert main(["steady-state", "--model", f"{f}/oscillator_n40.json", "--out", out]) == 0
assert main(["analyze", "--model", f"{f}/twoqubit.json", "--out", out]) == 1  # not unique
assert "qmstab.dynamics" not in sys.modules
"""


def test_kernel_subcommands_label_no_sectors(tmp_path):
    # only the propagator reads sector labels, so steady-state and analyze
    # never import qmstab.dynamics, where the labels are computed
    proc = _run_script(_KERNEL_IMPORTS, tmp_path, FIXTURES)
    assert proc.returncode == 0, proc.stderr


_NO_FACTORIZATION_IMPORTS = """
import json
import sys

import numpy as np
from qmstab.cli import main

out, f = sys.argv[1:]
vacuum, model = f"{out}/vacuum40.json", f"{out}/random24.json"
with open(vacuum, "w") as fh:
    json.dump({"matrix": [[[float(i == j == 0), 0.0] for j in range(40)] for i in range(40)]}, fh)
rng = np.random.default_rng(0)
x = rng.standard_normal((3, 24, 24)) + 1j * rng.standard_normal((3, 24, 24))
cjson = lambda a: np.stack((a.real, a.imag), -1).tolist()
with open(model, "w") as fh:
    json.dump({"dim": 24, "hamiltonian": cjson((x[0] + x[0].conj().T) / 2),
               "couplings": [cjson(x[1]), cjson(x[2])]}, fh)
assert main(["simulate", "--model", f"{f}/oscillator_n40.json", "--rho0", vacuum,
             "--t-final", "1", "--points", "5", "--out", f"{out}/simulate"]) == 0
assert main(["probe-invariant-set", "--model", f"{f}/qubit_decay.json",
             "--v", f"{f}/qubit_V.json", "--out", f"{out}/probe"]) == 0
assert main(["analyze", "--model", model, "--out", f"{out}/analyze"]) == 0
with open(f"{out}/analyze/report.json") as fh:
    assert '"null_space_method": "bordered-lu"' in fh.read()
loaded = {"scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph"} & set(sys.modules)
assert not loaded, loaded
"""


def test_runs_without_a_sparse_factorization_load_no_scipy_linalg(tmp_path):
    # sector labels are numpy, and the dense bordered inverse gives its norm
    # itself, so simulate, the probe and analyze of a dense model load no
    # scipy.linalg: only splu and onenormest need scipy.sparse.linalg
    proc = _run_script(_NO_FACTORIZATION_IMPORTS, tmp_path, FIXTURES)
    assert proc.returncode == 0, proc.stderr


def test_lazy_exports_resolve():
    import qmstab

    for name in qmstab.__all__:
        assert getattr(qmstab, name) is not None
        assert name in dir(qmstab)
    namespace = {}
    exec("from qmstab import *", namespace)
    assert set(qmstab.__all__) <= namespace.keys()
    # the errors moved next to OperatorError keep their old homes
    assert qmstab.invariants.InvariantAnalysisError is qmstab.InvariantAnalysisError
    assert qmstab.dynamics.IntegrationError is qmstab.IntegrationError
    with pytest.raises(AttributeError, match="no_such_name"):
        qmstab.no_such_name


class TestProbe:
    def test_decay_model(self, tmp_path):
        code = run(
            [
                "probe-invariant-set",
                "--model", str(FIXTURES / "qubit_decay.json"),
                "--v", str(FIXTURES / "qubit_V.json"),
                "--t-final", "30",
            ],
            tmp_path,
        )
        assert code == 0
        entry = checks_by_name(read_report(tmp_path))["invariant-set-probe"]
        assert len(entry["worst_case"]) == 33
        assert entry["worst_case"][0] == pytest.approx(1.0)
        assert entry["worst_final"] == entry["worst_case"][-1] <= 1e-5
        assert 0.0 < entry["t_below_threshold"] <= 30.0
        rec = entry["step_controller"]
        assert rec["method"] == "krylov"
        # a qubit's 4 coordinates: Arnoldi breaks down into one exact step
        assert (rec["accepted"], rec["n_rhs_evals"], rec["rejected_estimate"]) == (1, 2, 0)
        assert rec["renormalizations"] == 0 and rec["max_trace_drift"] == 0.0

    def test_bad_time_or_threshold_is_an_input_error(self, tmp_path, capsys):
        # rejected by name before any propagation, without a numpy warning
        model, v = str(FIXTURES / "qubit_decay.json"), str(FIXTURES / "qubit_V.json")
        probe = ["probe-invariant-set", "--model", model, "--v", v]
        simulate = ["simulate", "--model", model, "--rho0", str(FIXTURES / "qubit_excited.json")]
        cases = [(cmd + ["--t-final", t], "t_final")
                 for cmd in (probe, simulate) for t in ("nan", "inf", "1e300", "0", "-1")]
        cases += [(probe + ["--threshold", x], "threshold") for x in ("nan", "inf", "-1")]
        for i, (args, name) in enumerate(cases):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(args, tmp_path / str(i)) == 65, args
            assert f"qmstab: {name} must be" in capsys.readouterr().err, args

    def test_zero_observable_is_an_input_error(self, tmp_path, capsys):
        from qmstab.serialize import save_operator

        save_operator(np.zeros((2, 2), dtype=complex), tmp_path / "zero.json")
        args = ["probe-invariant-set", "--model", str(FIXTURES / "qubit_decay.json"),
                "--v", str(tmp_path / "zero.json")]
        assert run(args, tmp_path / "out") == 65
        assert "qmstab: V is the zero operator" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 64
        assert main([]) == 64

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # --tol inf would let every check pass, and --tol nan would write
        # NaN, which is not JSON, into the report
        args = ["check-lyapunov", "--model", str(FIXTURES / "twolevel.json"),
                "--v", str(FIXTURES / "qubit_V.json"), f"--tol={tol}"]
        assert run(args, tmp_path) == 64
        assert "finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_simulate_has_no_method_flag(self, tmp_path, capsys):
        # `auto` alone picks the CLI's propagator
        args = ["simulate", "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"), "--t-final", "1",
                "--method", "krylov"]
        assert run(args, tmp_path) == 64
        assert "--method" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["analyze", "--model", str(tmp_path / "nope.json")], tmp_path) == 65

    def test_operator_of_the_wrong_size(self, tmp_path, capsys):
        args = ["analyze", "--model", str(FIXTURES / "twoqubit.json"),
                "--v", str(FIXTURES / "qubit_V.json")]
        assert run(args, tmp_path) == 65
        assert "does not match dimension 4" in capsys.readouterr().err

    def test_integration_error_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        import qmstab.dynamics

        def failing(*args, **kwargs):
            raise qmstab.dynamics.IntegrationError("step size underflow at t = 0.5")

        monkeypatch.setattr(qmstab.dynamics, "evolve", failing)
        args = ["simulate", "--model", str(FIXTURES / "qubit_decay.json"),
                "--rho0", str(FIXTURES / "qubit_excited.json"), "--t-final", "1"]
        assert run(args, tmp_path) == 65
        err = capsys.readouterr().err
        assert err == "qmstab: step size underflow at t = 0.5\n"

    def test_malformed_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2}')
        assert run(["analyze", "--model", str(bad)], tmp_path) == 65


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, tmp_path):
        args = [
            "probe-invariant-set",
            "--model", str(FIXTURES / "qubit_decay.json"),
            "--v", str(FIXTURES / "qubit_V.json"),
            "--t-final", "30",
            "--seed", "42",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args, out1) == 0
        assert run(args, out2) == 0
        r1, r2 = read_report(out1), read_report(out2)
        assert r1["meta"].keys() == {"timestamp"}
        r1.pop("meta")
        r2.pop("meta")
        from qmstab.serialize import dumps_canonical

        assert dumps_canonical(r1).encode() == dumps_canonical(r2).encode()

    def test_series_files_byte_identical(self, tmp_path):
        args = [
            "simulate",
            "--model", str(FIXTURES / "qubit_decay.json"),
            "--rho0", str(FIXTURES / "qubit_excited.json"),
            "--t-final", "5",
            "--v", str(FIXTURES / "qubit_V.json"),
            "--seed", "7",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args, out1) == 0
        assert run(args, out2) == 0
        assert (out1 / "series_v.csv").read_bytes() == (out2 / "series_v.csv").read_bytes()
