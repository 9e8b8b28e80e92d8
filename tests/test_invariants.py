import time

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import qmstab.generator as generator
import qmstab.invariants as invariants
from qmstab import (
    InvariantAnalysisError,
    ModelSpec,
    OperatorError,
    SynthesisSpec,
    Verdict,
    connectivity_check,
    connectivity_scan,
    faithfulness_check,
    generator_schroedinger,
    ket_bra,
    ladder_lowering,
    liouvillian,
    number_operator,
    pauli,
    steady_states,
    subharmonicity_check,
    synthesize_coupling,
    uniqueness_check,
)
from qmstab.serialize import load_model

from conftest import FIXTURES, certify_n32_target, oscillator, random_model


def two_ladders(n, offset):
    """Two damped n-level ladders side by side, the second one's levels
    shifted by `offset`: the kernel holds both ground states."""
    a, zero = ladder_lowering(n), np.zeros((n, n))
    h = np.diag(np.r_[np.arange(n), np.arange(n) + offset]).astype(complex)
    return ModelSpec(h, [np.block([[a, zero], [zero, a]])])


def timed_kernel(model):
    """`invariants._null_space` at the tolerance `steady_states` uses, and
    its wall time: the stages around it multiply small matrices, which
    OpenBLAS threads can stall on a busy 2-CPU host."""
    lv = liouvillian(model)
    start = time.perf_counter()
    kernel = invariants._null_space(lv.matrix, 1e-9 * max(1.0, lv.norm))
    return kernel, time.perf_counter() - start


def trace_distance(a, b):
    w = np.linalg.eigvalsh(a - b)
    return 0.5 * np.abs(w).sum()


class TestSteadyStates:
    def test_flip_model_maximally_mixed(self, twolevel):
        report = steady_states(twolevel)
        assert report.null_dimension == 1
        assert report.unique == "unique"
        assert trace_distance(report.states[0].matrix, np.eye(2) / 2) < 1e-10
        assert report.faithful == (True,)
        assert all(report.reliable)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("inf"), float("nan")])
    def test_bad_tolerance_is_an_input_error(self, twolevel, tol):
        # tol = 0 would divide by zero in the bordered LU's certificate
        with pytest.raises(OperatorError, match="tolerance must be finite and positive"):
            steady_states(twolevel, tol=tol)

    def test_decay_model_ground_state(self, qubit_decay):
        report = steady_states(qubit_decay)
        assert trace_distance(report.states[0].matrix, np.diag([0.0, 1.0])) < 1e-10
        assert report.faithful == (False,)

    def test_oscillator_mean_photon_number(self):
        # fixed point of d<n>/dt = -0.75 <n> + 0.25; a simple kernel at
        # dim 30, which the bordered LU certifies
        n = 30
        report = steady_states(oscillator(n))
        mean = np.trace(report.states[0].matrix @ number_operator(n)).real
        assert abs(mean - 1.0 / 3.0) < 1e-6
        assert report.unique == "unique"

    def test_bordered_path_repeatable(self):
        # and it leaves numpy's global random state alone: onenormest's
        # default would draw its start columns from it
        model = oscillator(12)
        before = np.random.get_state()
        first, second = steady_states(model), steady_states(model)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
        assert first.null_space_method == "bordered-lu"
        assert 0 < first.inverse_norm_estimate == second.inverse_norm_estimate
        assert first.states[0].matrix.tobytes() == second.states[0].matrix.tobytes()

    def test_doubled_width_path_repeatable(self):
        # two damped 21-level ladders side by side (dim 42): one ground state
        # each, so the width-1 bordered matrix is singular and, above the
        # dense limit, the border doubles to width 2
        model = two_ladders(21, 0.3)
        (basis, method, width, _), elapsed = timed_kernel(model)
        assert (basis.shape[1], method, width) == (2, "bordered-lu", 2) and elapsed < 0.1
        first, second = steady_states(model), steady_states(model)
        assert (first.null_space_method, first.null_dimension) == ("bordered-lu", 2)
        assert first.notes == ("bordered LU certified the kernel at border width 2",)
        assert 0 < first.inverse_norm_estimate == second.inverse_norm_estimate
        for a_state, b_state in zip(first.states, second.states):
            assert a_state.matrix.tobytes() == b_state.matrix.tobytes()

    def test_identical_ladders_take_dense_svd(self):
        # two identical damped 5-level ladders (dim 10): four stationary
        # directions, below the dense limit
        report = steady_states(two_ladders(5, 0.0))
        assert report.null_space_method == "dense-svd"
        assert (report.null_dimension, report.notes) == (4, ())

    def test_synthesized_n32_kernel_is_found_whole(self):
        # the certify-n32 recipe's synthesized model (dim 32, 24 rank-1
        # couplings): 64 null directions, which the dense SVD holds whole
        # below the dense limit
        model = synthesize_coupling(SynthesisSpec(v=certify_n32_target())).model
        start = time.perf_counter()
        report = steady_states(model)
        assert time.perf_counter() - start < 3.0
        assert (report.null_dimension, report.notes) == (64, ())
        assert (report.null_space_method, len(report.states)) == ("dense-svd", 64)

    @pytest.mark.parametrize("n, doubled", [(5, False), (12, False), (21, True)])
    def test_doubled_width_runs_only_above_the_dense_limit(self, n, doubled):
        # two identical damped ladders: four stationary directions make the
        # width-1 bordered matrix singular; the dense SVD answers up to dim
        # 40, the border doubled to width 4 above it
        model = two_ladders(n, 0.0)
        (basis, method, width, _), elapsed = timed_kernel(model)
        report = steady_states(model)
        assert basis.shape[1] == report.null_dimension == 4
        if doubled:
            assert (method, width, report.null_space_method) == ("bordered-lu", 4, "bordered-lu")
            assert report.notes == ("bordered LU certified the kernel at border width 4",)
            assert elapsed < 0.1
        else:
            assert (method, report.null_space_method) == ("dense-svd", "dense-svd")
            assert report.notes == ()

    def test_doubling_starts_at_the_structural_rank_deficiency(self, monkeypatch):
        # dephasing in the eigenbasis of H at dim 42: R's 42 population
        # columns are empty, so every border narrower than 42 leaves B_k
        # structurally singular, and the first width after 1 is 64
        n, widths = 42, []
        solve = invariants._null_space_bordered

        def spy(m, k, tol_abs):
            widths.append(k)
            return solve(m, k, tol_abs)

        monkeypatch.setattr(invariants, "_null_space_bordered", spy)
        model = ModelSpec(np.diag(np.arange(n, dtype=complex)), [np.diag(np.linspace(0.5, 2, n))])
        report = steady_states(model)
        assert widths == [1, 64]
        assert (report.null_space_method, report.null_dimension) == ("bordered-lu", n)
        assert len(report.states) == n

    def test_no_certified_width_above_the_dense_limit_is_a_solver_error(self, tmp_path,
                                                                        monkeypatch):
        # every border width reported singular: above dim 40 no dense SVD
        # runs, so the error names each width tried, up to dim^2 = 1764, and
        # the CLI exits 65
        from qmstab.cli import main
        from qmstab.serialize import save_model

        monkeypatch.setattr(invariants, "_null_space_bordered", lambda *args: None)
        model = two_ladders(21, 0.3)
        widths = ", ".join(str(2**i) for i in range(11))
        with pytest.raises(InvariantAnalysisError, match=f"border widths {widths}, and above"):
            steady_states(model)
        save_model(model, tmp_path / "m.json")
        assert main(["steady-state", "--model", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "out")]) == 65

    def test_cleanup_does_not_depend_on_the_sign_of_the_null_basis(self, monkeypatch):
        # the solver fixes no sign; a direction with negative trace must be
        # cleaned up and measured like its positive twin, not split silently
        solve = invariants._null_space
        model = oscillator(12)
        reports = []
        for sign in (1.0, -1.0):
            def signed(*args, s=sign, **kwargs):
                basis, *rest = solve(*args, **kwargs)
                return (s * basis, *rest)

            monkeypatch.setattr(invariants, "_null_space", signed)
            reports.append(steady_states(model))
        assert reports[0].cleanup_distances == reports[1].cleanup_distances
        assert reports[0].states[0].matrix.tobytes() == reports[1].states[0].matrix.tobytes()

    @pytest.mark.parametrize("n", [6, 24])
    def test_dense_bordered_estimate_matches_a_sparse_lu(self, n):
        # numpy's inverse of B answers on a dense R; its value is the exact
        # ||B^-1||_1, and here the LU's `onenormest` reaches it too
        lv = liouvillian(random_model(n, np.random.default_rng(5), n_couplings=2))
        m, n2 = lv.matrix, lv.matrix.shape[0]
        assert m.nnz >= generator._DENSE_FILL * n2**2
        t = (np.arange(n2) % (n + 1) == 0).astype(float)
        lu = spla.splu(sps.block_array([[m, t[:, None]], [t[None, :], None]], format="csc"))
        inverse = spla.LinearOperator((n2 + 1,) * 2, matvec=lu.solve, dtype=float,
                                      rmatvec=lambda z: lu.solve(z, trans="T"))
        basis, estimate = invariants._null_space_bordered(m, 1, 1e-9 * max(1.0, lv.norm))
        assert estimate == pytest.approx(spla.onenormest(inverse, t=1), rel=1e-10)
        b = sps.block_array([[m, t[:, None]], [t[None, :], None]]).toarray()
        assert estimate == pytest.approx(np.linalg.norm(np.linalg.inv(b), 1), rel=1e-12)
        x = lu.solve(np.eye(1, n2 + 1, n2)[0])[:n2]
        assert np.abs(basis[:, 0] - x / np.linalg.norm(x)).max() <= 1e-10

    def test_sparse_estimate_sees_a_rounding_level_null_direction(self):
        # diagonal H and L at dim 2: both populations are stationary, but R
        # holds 2.2e-16 on one of them, so the width-1 B is nonsingular by
        # rounding; `onenormest` from the ones vector read 1.07 for its ~1e15
        # inverse norm and certified a simple kernel, the random probe does not
        model = ModelSpec(np.diag([0.345584192064786, 0.33043707618338714]),
                          [np.diag([0.9053558666731177 + 0.4463745723640113j,
                                    -0.5369532353602852 + 0.5811181041963531j])])
        lv = liouvillian(model)
        assert lv.matrix.nnz < generator._DENSE_FILL * 4**2 and lv.matrix[0, 0] != 0
        assert invariants._null_space_bordered(lv.matrix, 1, 1e-9 * max(1.0, lv.norm)) is None
        report = steady_states(model)
        assert (report.null_space_method, report.null_dimension) == ("dense-svd", 2)
        assert report.unique == "not_unique"

    def test_dense_degenerate_kernel_falls_through_to_dense_svd(self):
        # dephasing in a random basis: every U diag(p) U' is stationary, so B
        # is singular and the dense inverse must not certify a simple zero
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        model = ModelSpec(u @ np.diag(rng.standard_normal(6)) @ u.conj().T,
                          [u @ np.diag(rng.standard_normal(6)) @ u.conj().T])
        lv = liouvillian(model)
        assert lv.matrix.nnz >= generator._DENSE_FILL * 36**2
        assert invariants._null_space_bordered(lv.matrix, 1, 1e-9 * max(1.0, lv.norm)) is None
        report = steady_states(model)
        assert (report.null_space_method, report.null_dimension) == ("dense-svd", 6)
        assert report.unique == "not_unique"

    def test_degenerate_null_space(self, dephasing):
        report = steady_states(dephasing)
        assert report.null_dimension == 2
        assert report.unique == "not_unique"
        assert len(report.states) == 2
        for dm, resid in zip(report.states, report.residuals):
            assert resid <= 10 * report.tolerance * max(1.0, report.liouvillian_norm)

    def test_reported_residual_bound(self, rng):
        for _ in range(5):
            model = random_model(4, rng, n_couplings=2)
            report = steady_states(model)
            for dm in report.states:
                resid = np.abs(generator_schroedinger(model, dm.matrix)).max()
                assert resid <= 10 * report.tolerance * max(1.0, report.liouvillian_norm)


class TestFaithfulness:
    def test_maximally_mixed(self):
        res = faithfulness_check(np.eye(2) / 2)
        assert res.faithful and res.rank == 2
        np.testing.assert_allclose(res.support, np.eye(2), atol=1e-12)

    def test_pure_state(self):
        res = faithfulness_check(np.diag([0.0, 1.0]))
        assert not res.faithful and res.rank == 1
        np.testing.assert_allclose(res.support, np.diag([0.0, 1.0]), atol=1e-12)

    def test_computed_invariant_state_is_faithful(self, twolevel):
        report = steady_states(twolevel)
        assert faithfulness_check(report.states[0]).faithful


class TestConnectivity:
    def test_flip_model_both_projections(self, twolevel):
        for i in (0, 1):
            res = connectivity_check(twolevel, ket_bra(i, i, 2))
            assert res.connected
            assert res.value == pytest.approx(1.0)

    def test_oscillator_neighbor_rates(self):
        # contributions i |alpha|^2 (down) and (i+1) |beta|^2 (up)
        n = 10
        model = oscillator(n)
        for i in (1, 3, 5):
            res = connectivity_check(model, ket_bra(i, i, n))
            assert res.value == pytest.approx(i * 1.0 + (i + 1) * 0.25)

    def test_diagonal_coupling_disconnected(self, dephasing):
        res = connectivity_check(dephasing, ket_bra(0, 0, 2))
        assert not res.connected
        assert res.value < 1e-12

    def test_trivial_projection_rejected(self, twolevel):
        with pytest.raises(OperatorError, match="non-trivial"):
            connectivity_check(twolevel, np.eye(2))

    def test_scan_coordinate_family(self, twolevel):
        scan = connectivity_scan(twolevel, "coordinate")
        assert scan.all_connected
        assert scan.counterexample is None

    def test_scan_oscillator_with_partial_sums(self):
        scan = connectivity_scan(oscillator(8), "coordinate")
        assert scan.all_connected
        labels = [r.label for r in scan.results]
        assert any("partial sum" in l for l in labels)

    def test_scan_spectral_family(self, twolevel):
        scan = connectivity_scan(twolevel, np.diag([1.0, 0.0]).astype(complex))
        assert scan.all_connected

    def test_scan_family_of_the_wrong_size_rejected(self, twoqubit):
        with pytest.raises(OperatorError, match="does not match dimension 4"):
            connectivity_scan(twoqubit, np.diag([1.0, 0.0]).astype(complex))

    def test_block_model_counterexample(self):
        # two decoupled qubits in a 2 + 2 block split: block projections
        # are not connected to their complement
        l = np.kron(np.eye(2), pauli("minus")).astype(complex)
        model = ModelSpec(np.zeros((4, 4), dtype=complex), [l])
        family = [
            np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex),
            np.kron(np.diag([0.0, 1.0]), np.eye(2)).astype(complex),
        ]
        scan = connectivity_scan(model, family)
        assert not scan.all_connected
        assert scan.counterexample.value < 1e-12


class TestUniqueness:
    def test_flip_model_unique(self, twolevel):
        res = uniqueness_check(twolevel)
        assert (res.verdict, res.null_dimension) == ("unique", 1)

    def test_dephasing_not_unique(self, dephasing):
        res = uniqueness_check(dephasing)
        assert (res.verdict, res.null_dimension) == ("not_unique", 2)

    def test_dimension_one(self):
        model = ModelSpec(np.zeros((1, 1), dtype=complex), [np.ones((1, 1), dtype=complex)])
        assert uniqueness_check(model).verdict == "unique"

    def test_two_qubit_reducible(self, twoqubit):
        res = uniqueness_check(twoqubit)
        assert (res.verdict, res.null_dimension) == ("not_unique", 4)

    def test_oscillator_kernel_is_one_dimensional(self):
        res = uniqueness_check(oscillator(16))
        assert (res.verdict, res.null_dimension) == ("unique", 1)

    def test_agrees_with_null_dimension(self, twolevel, dephasing, twoqubit, qubit_decay):
        qutrit_branching_decay, _ = load_model(FIXTURES / "qutrit_branching_decay.json")
        for model in (twolevel, dephasing, twoqubit, qubit_decay, qutrit_branching_decay):
            res = uniqueness_check(model)
            report = steady_states(model)
            assert res.verdict == report.unique
            assert (res.verdict == "unique") == (report.null_dimension == 1)
        # the generators' commutant is trivial, but no invariant state is
        # faithful: the 4-dimensional kernel refutes uniqueness
        res = uniqueness_check(qutrit_branching_decay)
        assert (res.verdict, res.null_dimension) == ("not_unique", 4)

    def test_irreducible_randoms_chain(self, rng):
        # dense random couplings are generically irreducible: the verdict,
        # the null dimension, and faithfulness must line up
        for _ in range(5):
            model = random_model(4, rng)
            res = uniqueness_check(model)
            report = steady_states(model)
            if res.verdict == "unique":
                assert report.null_dimension == 1
                scan = connectivity_scan(model, "coordinate")
                if scan.all_connected:
                    assert report.faithful[0]


class TestSubharmonicity:
    def test_identity_projection(self, twolevel):
        assert subharmonicity_check(twolevel, np.eye(2)).verdict is Verdict.HOLDS

    def test_invariant_support(self, qubit_decay):
        report = steady_states(qubit_decay)
        res = subharmonicity_check(qubit_decay, report.support_projections[0], tol=1e-7)
        assert res.verdict is Verdict.HOLDS

    def test_generic_projection_fails(self, twolevel):
        res = subharmonicity_check(twolevel, ket_bra(0, 0, 2))
        assert res.verdict is Verdict.FAILS
        assert res.witness is not None

    def test_all_computed_supports_subharmonic(self, twolevel, dephasing, twoqubit):
        for model in (twolevel, dephasing, twoqubit):
            report = steady_states(model)
            for p in report.support_projections:
                res = subharmonicity_check(model, p, tol=1e-7)
                assert res.verdict is Verdict.HOLDS
