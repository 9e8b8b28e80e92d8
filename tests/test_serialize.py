import json

import numpy as np
import pytest

from qmstab import (
    ModelSpec,
    SynthesisSpec,
    Verdict,
    check_lyapunov,
    pauli,
    psd_check,
    synthesize_coupling,
)
from qmstab.cli import main as cli_main
from qmstab.serialize import (
    FormatError,
    complex_matrix_from_json,
    complex_matrix_to_json,
    dumps_canonical,
    emit_series,
    load_model,
    load_operator,
    model_from_json,
    model_to_json,
    save_model,
    save_operator,
)

from conftest import FIXTURES, certify_n32_target


class TestComplexMatrixFormat:
    def test_round_trip(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = complex_matrix_from_json(complex_matrix_to_json(a))
        np.testing.assert_array_equal(a, back)

    def test_rejects_ragged(self):
        with pytest.raises(FormatError):
            complex_matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

    def test_rejects_non_square(self):
        with pytest.raises(FormatError):
            complex_matrix_from_json([[[1.0, 0.0], [0.0, 0.0]]])

    @pytest.mark.parametrize(
        "doc",
        [
            [[["1.0", "0.0"], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[None, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0]]],
            [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
            [],
            "not a matrix",
        ],
        ids=["strings", "null", "three-element", "ragged-entry", "non-square", "empty", "string"],
    )
    def test_rejects_malformed_entries(self, doc):
        with pytest.raises(FormatError):
            complex_matrix_from_json(doc)

    def test_round_trip_keeps_negative_zero(self):
        a = np.array([[-0.0 + 1j, complex(0.0, -0.0)], [complex(-0.0, -0.0), 2.0]])
        back = complex_matrix_from_json(json.loads(json.dumps(complex_matrix_to_json(a))))
        np.testing.assert_array_equal(np.signbit(back.real), np.signbit(a.real))
        np.testing.assert_array_equal(np.signbit(back.imag), np.signbit(a.imag))
        assert dumps_canonical(complex_matrix_to_json(back)) == dumps_canonical(
            complex_matrix_to_json(a)
        )


class TestModelFiles:
    def test_fixture_round_trip_is_stable(self, tmp_path):
        model, labels = load_model(FIXTURES / "twolevel.json")
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_model(model, p1, labels)
        model2, labels2 = load_model(p1)
        save_model(model2, p2, labels2)
        assert p1.read_bytes() == p2.read_bytes()
        assert labels == labels2

    def test_all_fixture_models_parse(self):
        for name in (
            "oscillator_n40.json",
            "oscillator_n60.json",
            "oscillator_unstable_n40.json",
            "twolevel.json",
            "twoqubit.json",
            "twoqubit_dissipative.json",
            "qubit_decay.json",
        ):
            model, _ = load_model(FIXTURES / name)
            assert model.dim >= 2

    def test_missing_field(self):
        with pytest.raises(FormatError, match="couplings"):
            model_from_json({"dim": 2, "hamiltonian": complex_matrix_to_json(np.eye(2))})

    def test_dim_mismatch(self):
        doc = {
            "dim": 3,
            "hamiltonian": complex_matrix_to_json(np.eye(2)),
            "couplings": [complex_matrix_to_json(np.eye(2))],
        }
        with pytest.raises(FormatError, match="dim"):
            model_from_json(doc)

    def test_non_hermitian_hamiltonian(self):
        doc = model_to_json(ModelSpec(pauli("z"), [pauli("x")]))
        doc["hamiltonian"][0][1] = [5.0, 0.0]
        with pytest.raises(FormatError, match="Hermitian"):
            model_from_json(doc)

    def test_operator_file_forms(self, tmp_path):
        a = pauli("y")
        save_operator(a, tmp_path / "op.json")
        np.testing.assert_array_equal(load_operator(tmp_path / "op.json"), a)
        (tmp_path / "bare.json").write_text(json.dumps(complex_matrix_to_json(a)))
        np.testing.assert_array_equal(load_operator(tmp_path / "bare.json"), a)

    @pytest.mark.parametrize("dim", [2.0, True, "2"], ids=["float", "bool", "string"])
    def test_dim_must_be_an_integer(self, dim):
        n = 1 if dim is True else 2
        doc = model_to_json(ModelSpec(np.eye(n), [np.eye(n)]))
        doc["dim"] = dim
        with pytest.raises(FormatError, match="dim must be a JSON integer"):
            model_from_json(doc)

    @pytest.mark.parametrize("labels", [[1, 2], ["a", None]], ids=["integers", "null"])
    def test_labels_must_be_strings(self, labels):
        doc = model_to_json(ModelSpec(pauli("z"), [pauli("x")]), labels)
        with pytest.raises(FormatError, match="labels"):
            model_from_json(doc)


def _factored(left, right) -> dict:
    return {"left": complex_matrix_to_json(left), "right": complex_matrix_to_json(right)}


class TestFactoredCouplings:
    def test_synthesized_model_reloads_bit_identical(self, tmp_path):
        v = certify_n32_target()
        result = synthesize_coupling(SynthesisSpec(v=v))
        path = tmp_path / "synthesized_model.json"
        save_model(result.model, path, factors=result.factors)
        assert path.stat().st_size <= 110_000
        model, _ = load_model(path)
        assert len(model.couplings) == len(result.model.couplings) == 24
        for loaded, built in zip(model.couplings, result.model.couplings):
            assert np.array_equal(loaded, built)
        expected = result.certificate.metrics["generator_max_eigenvalue"]
        assert check_lyapunov(model, v).metrics["generator_max_eigenvalue"] == expected

    def test_mixed_dense_and_factored_load(self, rng):
        left, right = rng.standard_normal((3, 2)), rng.standard_normal((3, 2)) + 1j
        dense = rng.standard_normal((3, 3))
        doc = model_to_json(ModelSpec(np.eye(3), [dense]))
        doc["couplings"].append(_factored(left, right))
        model, _ = model_from_json(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(model.couplings[0], dense)
        np.testing.assert_array_equal(model.couplings[1], left @ right.conj().T)

    @pytest.mark.parametrize(
        "coupling",
        [
            {"left": complex_matrix_to_json(np.ones((2, 1)))},
            {**_factored(np.ones((2, 1)), np.ones((2, 1))), "scale": [1.0, 0.0]},
            _factored(np.ones((2, 1)), np.ones((2, 2))),
            _factored(np.ones((3, 1)), np.ones((3, 1))),
            _factored(np.ones((2, 0)), np.ones((2, 0))),
            _factored(np.ones((2, 3)), np.ones((2, 3))),
        ],
        ids=[
            "missing-right", "extra-key", "different-r", "rows-not-dim", "r-zero", "r-above-dim",
        ],
    )
    def test_rejects_malformed_factors(self, coupling, tmp_path, capsys):
        doc = model_to_json(ModelSpec(pauli("z"), [pauli("x")]))
        doc["couplings"] = [coupling]
        with pytest.raises(FormatError, match=r"couplings\[0\]"):
            model_from_json(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["analyze", "--model", str(path), "--out", str(tmp_path / "out")]) == 65


class TestSeries:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "s.csv"
        emit_series([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == "0,1"
        assert len(lines) == 4

    def test_csv_precision(self, tmp_path):
        path = tmp_path / "s.csv"
        value = 1.0 / 3.0
        emit_series([0.0], [value], path)
        stored = float(path.read_text().splitlines()[1].split(",")[1])
        assert stored == value  # 17 significant digits round-trip exactly

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="empty"):
            emit_series([], [], tmp_path / "s.csv")

    def test_svg_chart(self, tmp_path):
        path = tmp_path / "s.svg"
        t = np.linspace(0, 5, 50)
        emit_series(t, np.exp(-t), path, fmt="svg", name="w")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert ">t<" in text and ">w<" in text
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")


class TestCanonicalJson:
    def test_sorted_and_deterministic(self):
        doc = {"b": [1.0, 2.0], "a": {"y": 1, "x": [[1.0, 0.0], [0.0, 1.0]]}}
        s1 = dumps_canonical(doc)
        s2 = dumps_canonical(json.loads(s1))
        assert s1 == s2
        assert s1.index('"a"') < s1.index('"b"')

    def test_jsonable_on_results(self):
        report = psd_check(np.diag([-1.0, 0.0]))
        doc = json.loads(dumps_canonical(report))
        assert doc["verdict"] == "fails"
        assert doc["witness"]["eigenvalue"] == -1.0
        json.dumps(doc)  # fully serializable

    def test_pinned_bytes(self):
        # Written by the per-value renderer; every later renderer must match it.
        doc = {
            "floats": [-0.0, 1e-300, float("nan"), float("inf"), float("-inf"),
                       np.float64(0.1), 2**70],
            "leaves": [True, False, None, "Schr\u00f6dinger \u2202\"q\"\n\t"],
            "int_keys": {10: "ten", 3: [], 1: {}},
            "tuples": (1, (2.5, -3)),
            "under": [123456789] * 8 + [12345678],  # 98 columns inline at indent 2
            "over": [123456789] * 9,  # 99 columns: one past the inline rule
            "nested": [{"a": 1}, [1e-5, 1e16, 1.5e16, 123456789.125]],
        }
        assert dumps_canonical(doc) == (
            '{\n  "floats": [-0.0, 1e-300, NaN, Infinity, -Infinity, 0.1, 1180591620717411303424],\n'
            '  "int_keys": {\n    "1": {},\n    "3": [],\n    "10": "ten"\n  },\n'
            '  "leaves": [true, false, null, "Schr\\u00f6dinger \\u2202\\"q\\"\\n\\t"],\n'
            '  "nested": [\n    {\n      "a": 1\n    },\n'
            '    [1e-05, 1e+16, 1.5e+16, 123456789.125]\n  ],\n'
            '  "over": [\n' + "    123456789,\n" * 8 + "    123456789\n  ],\n"
            '  "tuples": [1, [2.5, -3]],\n'
            '  "under": [123456789, 123456789, 123456789, 123456789, 123456789, 123456789, '
            '123456789, 123456789, 12345678]\n}\n'
        )

    def test_jsonable_pinned_bytes(self):
        doc = {
            "matrix": np.array([[1 + 2j, -0.0], [0.5j, 3.0]]),
            "vector": np.array([1 - 1j, 0.25]),
            "real": np.array([1.5, -2.0]),
            "ints": np.arange(3),
            "flags": (np.bool_(True), False),
            "scalars": [np.float32(0.1), np.int64(7), 2j, Verdict.HOLDS],
            "report": psd_check(np.diag([-1.0, 0.0])),
            5: None,
        }
        assert dumps_canonical(doc) == (
            '{\n  "5": null,\n  "flags": [true, false],\n  "ints": [0, 1, 2],\n'
            '  "matrix": [[[1.0, 2.0], [-0.0, 0.0]], [[0.0, 0.5], [3.0, 0.0]]],\n'
            '  "real": [1.5, -2.0],\n'
            '  "report": {\n    "min_eigenvalue": -1.0,\n    "threshold": 1e-09,\n'
            '    "verdict": "fails",\n    "witness": {\n      "eigenvalue": -1.0,\n'
            '      "vector": [[1.0, 0.0], [0.0, 0.0]]\n    }\n  },\n'
            '  "scalars": [0.10000000149011612, 7, [0.0, 2.0], "holds"],\n'
            '  "vector": [[1.0, -1.0], [0.25, 0.0]]\n}\n'
        )

    def test_jsonable_verdict(self):
        assert dumps_canonical(Verdict.HOLDS) == '"holds"\n'
        assert json.loads(dumps_canonical({"v": Verdict.INCONCLUSIVE})) == {"v": "inconclusive"}
