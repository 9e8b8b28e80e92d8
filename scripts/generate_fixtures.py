#!/usr/bin/env python3
"""Regenerate the model/operator fixture files under fixtures/.

The fixtures cover the worked examples the test suite runs against: the
damped/pumped oscillator at two truncations, the driven two-level system,
the two-qubit coherence-stabilization model with and without its
Hamiltonian, the single-qubit ground-state decay model, and a qutrit whose
excited level decays into two dark levels (trivial commutant, no faithful
invariant state, four-dimensional stationary space).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from qmstab import ModelSpec, ket_bra, ladder_lowering, number_operator, pauli
from qmstab.serialize import complex_matrix_to_json, save_model, write_json

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def save_operator_file(arr, path):
    write_json({"matrix": complex_matrix_to_json(arr)}, path)


def oscillator(n, alpha=1.0, beta=0.5, omega=1.0):
    a = ladder_lowering(n)
    return ModelSpec(omega * number_operator(n), [alpha * a + beta * a.conj().T])


def main():
    FIXTURES.mkdir(exist_ok=True)

    save_model(oscillator(40), FIXTURES / "oscillator_n40.json")
    save_model(oscillator(60), FIXTURES / "oscillator_n60.json")
    save_model(oscillator(40, alpha=0.5, beta=1.0), FIXTURES / "oscillator_unstable_n40.json")
    save_operator_file(number_operator(40), FIXTURES / "number_n40.json")
    save_operator_file(number_operator(60), FIXTURES / "number_n60.json")

    # driven two-level system: H = omega sigma_z, L = sigma_x
    save_model(
        ModelSpec(pauli("z"), [pauli("x")]),
        FIXTURES / "twolevel.json",
        labels=["0", "1"],
    )

    # two-qubit coherence stabilization, basis |00>, |01>, |10>, |11>
    l = 1.0 / np.sqrt(2.0)
    couplings = [l * ket_bra(1, 0, 4), l * ket_bra(3, 1, 4)]
    h = -0.5j * ket_bra(0, 1, 4) + 0.5j * ket_bra(1, 0, 4)
    labels = ["00", "01", "10", "11"]
    save_model(
        ModelSpec(np.zeros((4, 4), dtype=complex), couplings),
        FIXTURES / "twoqubit_dissipative.json",
        labels=labels,
    )
    save_model(ModelSpec(h, couplings), FIXTURES / "twoqubit.json", labels=labels)
    v2 = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)
    save_operator_file(v2, FIXTURES / "twoqubit_V.json")
    save_operator_file(v2 + 2.0 * np.eye(4), FIXTURES / "twoqubit_Vshifted.json")
    w2 = np.zeros((4, 4), dtype=complex)
    w2[:2, :2] = 0.5
    save_operator_file(w2, FIXTURES / "twoqubit_W.json")

    # single-qubit decay to the ground level: H = 0, L = sigma_minus
    save_model(
        ModelSpec(np.zeros((2, 2), dtype=complex), [pauli("minus")]),
        FIXTURES / "qubit_decay.json",
        labels=["0", "1"],
    )
    save_operator_file(np.diag([1.0, 0.0]).astype(complex), FIXTURES / "qubit_V.json")
    save_operator_file(np.diag([1.0, 0.0]).astype(complex), FIXTURES / "qubit_excited.json")

    # qutrit branching decay: H = 0, L1 = |1><0|, L2 = |2><0|; levels 1 and 2
    # and their coherences are all stationary
    save_model(
        ModelSpec(np.zeros((3, 3), dtype=complex), [ket_bra(1, 0, 3), ket_bra(2, 0, 3)]),
        FIXTURES / "qutrit_branching_decay.json",
        labels=["0", "1", "2"],
    )

    print(f"fixtures written to {FIXTURES}")


if __name__ == "__main__":
    main()
