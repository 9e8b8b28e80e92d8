import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import qmstab.dynamics as dyn
from qmstab import (
    IntegrationError,
    ModelSpec,
    OperatorError,
    Verdict,
    check_lyapunov,
    evolve,
    expectation_series,
    generator_heisenberg,
    invariant_set_probe,
    ket_bra,
    ladder_lowering,
    lasalle_diagnostics,
    liouvillian,
    mean_bound_check,
    number_operator,
    random_density,
    steady_states,
)
from qmstab.generator import unvec, vec
from qmstab.operators import hermitian_part

from conftest import complex_form, dense_expm_samples, oscillator

EXCITED = np.diag([1.0, 0.0]).astype(complex)
V_GROUND = np.diag([1.0, 0.0]).astype(complex)


def vacuum(n):
    rho = np.zeros((n, n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


class TestEvolve:
    def test_invariant_state_stays_constant(self, twolevel):
        traj = evolve(twolevel, np.eye(2) / 2, 5.0)
        for s in traj.states:
            assert np.abs(s.matrix - np.eye(2) / 2).max() < 1e-10

    def test_decay_reaches_ground(self, qubit_decay):
        traj = evolve(qubit_decay, EXCITED, 20.0)
        assert traj.final_state.matrix[1, 1].real >= 1.0 - 1e-6

    def test_trace_preserved_along_trajectory(self, twoqubit, rng):
        traj = evolve(twoqubit, random_density(4, rng), 10.0)
        for s in traj.states:
            assert abs(np.trace(s.matrix).real - 1.0) <= 1e-10

    def test_positivity_along_trajectory(self, twoqubit, rng):
        traj = evolve(twoqubit, random_density(4, rng), 10.0)
        for s in traj.states:
            assert np.linalg.eigvalsh(s.matrix)[0] >= -1e-8

    @pytest.mark.parametrize("model_name", ["twolevel", "qubit_decay", "twoqubit"])
    def test_integrators_agree(self, model_name, request, rng):
        # the Krylov steps against a dense expm of the complex Liouvillian
        model = request.getfixturevalue(model_name)
        rho0 = random_density(model.dim, rng)
        traj = evolve(model, rho0, 10.0)
        lv = liouvillian(model)
        for state, z in zip(traj.states,
                            dense_expm_samples(lv.basis, lv.matrix, vec(rho0), traj.times)):
            w = np.linalg.eigvalsh(state.matrix - unvec(z))
            assert 0.5 * np.abs(w).sum() <= 1e-7

    def test_times_grid(self, qubit_decay):
        traj = evolve(qubit_decay, EXCITED, 2.0, n_points=21)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(2.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_input_validation(self, qubit_decay):
        with pytest.raises(OperatorError):
            evolve(qubit_decay, EXCITED, -1.0)
        with pytest.raises(OperatorError):
            evolve(qubit_decay, np.eye(2), 1.0)  # trace 2


class TestBlockPropagator:
    def test_evolve_matches_the_complex_reference_loop(self, twoqubit, rng):
        # the complex dim^2 loop that the real sectors replaced, on T R T',
        # renormalized at every sample; a random state touches every sector,
        # and on 16 coordinates Arnoldi breaks down into one exact step
        rho0 = random_density(4, rng)
        traj = evolve(twoqubit, rho0, 5.0, n_points=21, trace_tol=0.0)
        lv = liouvillian(twoqubit)
        propagator = sla.expm(complex_form(lv.basis, lv.matrix) * traj.times[1])
        z = vec(rho0).astype(complex)
        complex_expected = [unvec(z).copy()]
        for _ in traj.times[1:]:
            z = propagator @ z
            z = z / np.trace(unvec(z)).real
            complex_expected.append(unvec(z).copy())
        assert traj.step_controller.accepted == 1
        for state, c in zip(traj.states, complex_expected):
            assert np.abs(state.matrix - hermitian_part(c)).max() <= 1e-13

    def test_drifting_trace_is_renormalized_once(self):
        # y drifts by 1e-12, inside trace_tol, and is never rescaled; 2y has
        # trace 2 and is rescaled once, at the end of the first step, onto
        # y / (1 + 1e-12). With atol = 0 the error test scales with y, so
        # both runs take the same steps; the n = 8 oscillator's 32-coordinate
        # vacuum sector keeps Arnoldi from breaking down into one step
        lv = liouvillian(oscillator(8))
        y = (1.0 + 1e-12) * vec(vacuum(8))
        times = np.linspace(0.0, 5.0, 11)
        raw, record = dyn._evolve_krylov(*dyn._frame(lv, lv.matrix, 2.0 * y), times,
                                         1e-9, 0.0, 1e-11)
        untouched, kept = dyn._evolve_krylov(*dyn._frame(lv, lv.matrix, y), times,
                                             1e-9, 0.0, 1e-11)
        assert (record.renormalizations, kept.renormalizations) == (1, 0)
        assert record.accepted == kept.accepted > 1
        assert record.max_trace_drift == pytest.approx(1.0)
        np.testing.assert_allclose(
            raw[1:], untouched[1:] / (1.0 + 1e-12), rtol=0, atol=1e-14
        )

    def test_probe_matches_per_sample_evolve(self):
        # on H = N, L = a, V(t) = e^{-t} N: the state that starts on the top
        # level |n-1> reaches the worst case (n - 1) e^{-t} at every time.
        # Krylov's rtol 1e-9 is relative to V's scale, its spread n - 1 = 7.
        n = 8
        model = ModelSpec(number_operator(n), [ladder_lowering(n)])
        probe = invariant_set_probe(model, number_operator(n), t_final=30.0)
        top = np.zeros((n, n))
        top[-1, -1] = 1.0
        traj = evolve(model, top, 30.0, n_points=33)
        expected = expectation_series(traj, number_operator(n))
        np.testing.assert_allclose(probe.worst_case, expected, rtol=0, atol=1e-10 * (n - 1))
        np.testing.assert_allclose(
            probe.worst_case, (n - 1) * np.exp(-traj.times), rtol=0, atol=1e-10 * (n - 1)
        )
        assert probe.step_controller.method == "krylov"

    @pytest.mark.parametrize("n", [24, 36])
    def test_probe_reads_samples_inside_a_step(self, n):
        # G(N) = -N exactly on H = N, L = a, so worst_case[i] is
        # (n - 1) e^{-t_i}. At n = 24 Arnoldi breaks down into one step that
        # holds every sample; at n = 36 seven steps each hold several
        model = ModelSpec(number_operator(n), [ladder_lowering(n)])
        probe = invariant_set_probe(model, number_operator(n), t_final=30.0)
        rec = probe.step_controller
        assert (rec.accepted, rec.n_rhs_evals, rec.rejected_estimate) == {
            24: (1, 2, 0), 36: (7, 217, 0)}[n]
        times = np.linspace(0.0, 30.0, 33)
        np.testing.assert_allclose(probe.worst_case, (n - 1) * np.exp(-times),
                                   rtol=0, atol=1e-12)

    def test_probe_methods_agree_without_renormalizing(self):
        # the Krylov probe against a dense expm of the complex R^T; R^T
        # preserves the identity, not the trace: no column is rescaled
        n = 8
        model = ModelSpec(number_operator(n), [ladder_lowering(n)])
        krylov = invariant_set_probe(model, number_operator(n))
        lv = liouvillian(model)
        samples = dense_expm_samples(lv.basis, lv.matrix.T, vec(number_operator(n)),
                                     np.linspace(0.0, 30.0, 33))
        expm = [np.linalg.eigvalsh(hermitian_part(unvec(z)))[-1] for z in samples]
        np.testing.assert_allclose(krylov.worst_case, expm, rtol=0, atol=1e-10 * (n - 1))
        rec = krylov.step_controller
        assert (rec.renormalizations, rec.max_trace_drift) == (0, 0.0)

    def test_one_liouvillian_per_probe(self, qubit_decay, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return liouvillian(*args, **kwargs)

        monkeypatch.setattr(dyn, "liouvillian", counting)
        invariant_set_probe(qubit_decay, V_GROUND, t_final=5.0)
        assert len(calls) == 1

    def test_krylov_renormalization_returns_to_y0(self, rng):
        # R = -I/2 only shrinks the trace: Arnoldi breaks down after A y,
        # one exact step runs to the end and renormalizes once
        zero = liouvillian(ModelSpec(np.zeros((3, 3)), [np.zeros((3, 3))]))
        lv = dataclasses.replace(zero, matrix=-0.5 * sp.identity(9, format="csr"))
        y0 = vec(random_density(3, rng)).astype(complex)
        frame, x = dyn._frame(lv, lv.matrix, y0)
        times = np.linspace(0.0, 10.0, 11)
        raw, record = dyn._evolve_krylov(frame, x, times, 1e-9, 1e-12, 1e-11)
        assert (record.accepted, record.renormalizations) == (1, 1)
        assert record.max_trace_drift == pytest.approx(1.0 - np.exp(-5.0))
        np.testing.assert_allclose(raw, np.exp(-times / 2)[:, None] * y0, rtol=0, atol=1e-14)
        final = raw[-1] / np.trace(unvec(raw[-1])).real
        np.testing.assert_allclose(final, y0, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("heisenberg", [False, True])
    def test_krylov_matches_expm_on_the_vacuum(self, heisenberg):
        # the n = 24 damped oscillator's vacuum to t = 20 under R, and under
        # R^T with no trace check (the probe's path): 744 and 837 matvecs,
        # 31 a step, where the Dormand-Prince loop took 3,308 and 4,400;
        # the reference steps a dense expm of the complex generator
        n = 24
        lv = liouvillian(oscillator(n))
        matrix = lv.matrix.T.tocsr() if heisenberg else lv.matrix
        trace_tol = None if heisenberg else 1e-11
        times, krylov, record = dyn._propagate(lv, matrix, vec(vacuum(n)), 20.0, 41,
                                               trace_tol=trace_tol)
        expm = dense_expm_samples(lv.basis, matrix, vec(vacuum(n)), times)
        assert record.n_rhs_evals == 31 * record.accepted <= 1000
        assert record.rejected_estimate <= 2
        assert record.renormalizations == 0
        np.testing.assert_allclose(krylov, expm, rtol=0, atol=1e-10)

    def test_long_horizon_lands_on_the_stationary_state(self):
        # t = 1e9: the state relaxes until A y is rounding noise, Arnoldi
        # then breaks down at once and the state is kept to the end
        model = oscillator(40)
        start = time.perf_counter()
        traj = evolve(model, vacuum(40), 1e9, n_points=3)
        assert time.perf_counter() - start < 5.0
        rec = traj.step_controller
        assert rec.method == "krylov"
        assert rec.max_trace_drift <= 1e-8
        (stationary,) = steady_states(model).states
        for state in traj.states[1:]:
            assert np.abs(state.matrix - stationary.matrix).max() <= 1e-8

    @pytest.mark.parametrize("dim", [1, 4])
    def test_krylov_on_a_zero_generator(self, dim):
        # no Hamiltonian, a zero coupling: |R|_1 = 0 sets no starting step,
        # and Arnoldi breaks down on A y = 0 at once
        model = ModelSpec(np.zeros((dim, dim)), [np.zeros((dim, dim))])
        rho = np.eye(dim) / dim
        traj = evolve(model, rho, 1.0, n_points=3)
        assert (traj.step_controller.accepted, traj.step_controller.n_rhs_evals) == (1, 1)
        for state in traj.states:
            assert np.array_equal(state.matrix, rho)

    def test_step_underflow_names_time(self):
        # at t = 1e16 ten ulps are 20 time units, far above any step that
        # meets rtol on the n = 8 oscillator; its 32-coordinate vacuum
        # sector keeps Arnoldi from breaking down
        lv = liouvillian(oscillator(8))
        frame, x = dyn._frame(lv, lv.matrix, vec(vacuum(8)))
        assert x.size > dyn._KRYLOV_DIM
        with pytest.raises(IntegrationError, match="at t = 1e"):
            dyn._evolve_krylov(frame, x, np.array([1e16, 1e16 + 1e3]), 1e-9, 1e-12, 1e-11)

    @pytest.mark.parametrize("tols", [(1e-15, 1e-12), (0.0, 1e-12), (1e-9, -1e-12),
                                      (np.nan, 1e-12), (1e-9, np.nan)])
    def test_bad_rk_tolerance_is_an_input_error(self, qubit_decay, tols):
        rtol, atol = tols
        with pytest.raises(OperatorError, match="rtol|atol"):
            evolve(qubit_decay, EXCITED, 1.0, rtol=rtol, atol=atol)

    def test_one_eigvalsh_per_sampled_state(self, qubit_decay, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(1)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        evolve(qubit_decay, EXCITED, 2.0, n_points=11)
        assert len(calls) == 11 + 1  # sampled states plus the initial state
        calls.clear()
        # the probe diagonalizes its 11 sampled observables in one batched call
        invariant_set_probe(qubit_decay, V_GROUND, t_final=2.0, n_points=11)
        assert len(calls) == 1

    def test_step_record_counts_sectors_and_propagated_coordinates(self):
        # the vacuum lies in one of the oscillator's two sectors; V = N
        # touches only the diagonal sector of the 24 of H = N, L = a
        rec = evolve(oscillator(20), vacuum(20), 1.0, n_points=5).step_controller
        assert (rec.sectors, rec.propagated_dim) == (2, 200)
        n = 24
        damped = ModelSpec(number_operator(n), [ladder_lowering(n)])
        rec = invariant_set_probe(damped, number_operator(n), t_final=1.0).step_controller
        assert (rec.sectors, rec.propagated_dim) == (24, 24)
        trivial = ModelSpec(np.zeros((1, 1)), [np.zeros((1, 1))])
        rec = evolve(trivial, np.ones((1, 1)), 1.0, n_points=3).step_controller
        assert (rec.sectors, rec.propagated_dim) == (1, 1)

    def test_positivity_violation_names_time(self, qubit_decay):
        with pytest.raises(IntegrationError, match="t = 0"):
            evolve(qubit_decay, EXCITED, 1.0, n_points=5, positivity_tol=-1.0)


class TestExpectationSeries:
    def test_identity_is_one(self, twolevel, rng):
        traj = evolve(twolevel, random_density(2, rng), 3.0)
        series = expectation_series(traj, np.eye(2))
        np.testing.assert_allclose(series, 1.0, atol=1e-10)

    def test_oscillator_matches_scalar_ode(self):
        # d<n>/dt = -0.75 <n> + 0.25 from the vacuum
        n = 20
        traj = evolve(oscillator(n), vacuum(n), 20.0)
        series = expectation_series(traj, number_operator(n))
        analytic = (1.0 / 3.0) * (1.0 - np.exp(-0.75 * traj.times))
        assert np.abs(series - analytic).max() < 1e-6

    def test_two_qubit_w_decays(self, twoqubit, twoqubit_w, rng):
        traj = evolve(twoqubit, random_density(4, rng), 50.0)
        series = expectation_series(traj, twoqubit_w)
        assert series[-1] < 1e-4
        assert series[-1] <= series[0] + 1e-12

    def test_dimension_mismatch(self, twolevel, rng):
        traj = evolve(twolevel, random_density(2, rng), 1.0)
        with pytest.raises(OperatorError):
            expectation_series(traj, np.eye(3))

    def test_heisenberg_schroedinger_consistency(self, twoqubit, twoqubit_v, rng):
        # d/dt tr(rho_t X) by finite differences vs tr(rho_t G(X))
        traj = evolve(twoqubit, random_density(4, rng), 5.0, n_points=501)
        series = expectation_series(traj, twoqubit_v)
        gv = generator_heisenberg(twoqubit, twoqubit_v)
        gen_series = expectation_series(traj, (gv + gv.conj().T) / 2)
        dt = traj.times[1] - traj.times[0]
        fd = (series[2:] - series[:-2]) / (2 * dt)
        assert np.abs(fd - gen_series[1:-1]).max() < 1e-5


class TestMeanBound:
    def test_oscillator_bound_holds(self):
        n = 20
        traj = evolve(oscillator(n), vacuum(n), 20.0)
        res = mean_bound_check(traj, number_operator(n), c=0.75, d=0.25)
        assert res.verdict is Verdict.HOLDS
        series = expectation_series(traj, number_operator(n))
        assert series[-1] == pytest.approx(0.25 / 0.75, abs=1e-4)

    def test_identity_bound(self, twolevel, rng):
        traj = evolve(twolevel, random_density(2, rng), 5.0)
        res = mean_bound_check(traj, np.eye(2), c=1.0, d=1.0)
        assert res.verdict is Verdict.HOLDS

    def test_witness_time_only_for_a_violation(self, qubit_decay):
        # <V>(t) = e^{-t}: at c = 1 the bound holds with equality, so its excess
        # is rounding noise and no time is a witness; at c = 2 every t > 0
        # violates it, most at t = ln 2, and the witness is the first sample
        traj = evolve(qubit_decay, EXCITED, 5.0, n_points=41)
        holds = mean_bound_check(traj, V_GROUND, 1.0, 0.0)
        assert (holds.verdict, holds.worst_time) == (Verdict.HOLDS, None)
        fails = mean_bound_check(traj, V_GROUND, 2.0, 0.0)
        assert (fails.verdict, fails.worst_time) == (Verdict.FAILS, traj.times[1])
        assert fails.max_violation == pytest.approx(0.25, abs=1e-3)

    def test_pumped_oscillator_violates(self):
        n = 24
        traj = evolve(oscillator(n, alpha=0.5, beta=1.0), vacuum(n), 8.0, n_points=161)
        res = mean_bound_check(traj, number_operator(n), c=0.75, d=0.25)
        assert res.verdict is Verdict.FAILS
        assert res.max_violation > 0.1


class TestLaSalleDiagnostics:
    def test_two_qubit_convergence(self, twoqubit, twoqubit_v, twoqubit_w, rng):
        traj = evolve(twoqubit, random_density(4, rng), 50.0)
        diag = lasalle_diagnostics(traj, twoqubit_v, twoqubit_w)
        assert diag.v_monotone and diag.v_rise_time is None
        assert diag.w_final < 1e-4
        fin = traj.final_state.matrix
        assert abs(fin[0, 0] + fin[0, 1] + fin[1, 0] + fin[1, 1]) <= 1e-4
        assert diag.w_integral_estimate >= 0.0

    def test_zero_w(self, qubit_decay):
        traj = evolve(qubit_decay, EXCITED, 10.0)
        diag = lasalle_diagnostics(traj, V_GROUND, np.zeros((2, 2)))
        assert diag.w_integral_estimate == 0.0
        assert diag.w_final == 0.0

    def test_w_proportional_to_v_drives_ground(self, qubit_decay):
        # G(V) = -V here, so W = V qualifies and <V> must die out
        traj = evolve(qubit_decay, EXCITED, 30.0, n_points=3001)
        diag = lasalle_diagnostics(traj, V_GROUND, V_GROUND)
        assert diag.v_monotone
        assert diag.w_final < 1e-6
        assert mean_bound_check(traj, V_GROUND, 1.0, 0.0).verdict is Verdict.HOLDS
        # integral of <V> = e^{-t} over [0, 30] is 1 - e^{-30}: the whole tail
        # past the horizon is e^{-30}, and nothing is extrapolated
        assert diag.w_integral_estimate == pytest.approx(1.0, abs=1e-4)

    def test_w_integral_covers_the_samples_only(self, qubit_decay):
        # the trapezoid over [0, 5] alone; an extrapolated tail would add e^{-5}
        traj = evolve(qubit_decay, EXCITED, 5.0, n_points=41)
        diag = lasalle_diagnostics(traj, V_GROUND, V_GROUND)
        expected = np.trapezoid(np.clip(diag.w_series, 0.0, None), traj.times)
        assert diag.w_integral_estimate == expected
        # the trapezoid rule errs by about (h^2/12)(1 - e^{-5}) = 1.3e-3, not by e^{-5}
        assert diag.w_integral_estimate == pytest.approx(1.0 - np.exp(-5.0), abs=2e-3)

    def test_monotone_under_certified_strict_lyapunov(self, qubit_decay, rng):
        assert check_lyapunov(qubit_decay, V_GROUND).verdict is Verdict.HOLDS
        traj = evolve(qubit_decay, random_density(2, rng), 15.0)
        series = expectation_series(traj, V_GROUND)
        assert np.diff(series).max() <= 1e-8


class TestInvariantSetProbe:
    def test_decay_model(self, qubit_decay):
        # the worst initial state is the excited one, whose <V> decays as e^{-t}
        probe = invariant_set_probe(qubit_decay, V_GROUND, t_final=30.0)
        assert probe.verdict is Verdict.HOLDS
        assert probe.worst_final <= 1e-5
        traj = evolve(qubit_decay, EXCITED, 30.0, n_points=33)
        series = expectation_series(traj, V_GROUND)
        np.testing.assert_allclose(probe.worst_case, series, rtol=0, atol=1e-12)
        assert probe.t_below_threshold == traj.times[np.argmax(series <= 1e-5)]

    def test_shifted_observable_gives_the_same_verdict(self, qubit_decay):
        # V + I has V's ground set; <V + I> alone never falls below 1
        plain = invariant_set_probe(qubit_decay, V_GROUND)
        shifted = invariant_set_probe(qubit_decay, V_GROUND + np.eye(2))
        assert plain.verdict is shifted.verdict is Verdict.HOLDS
        np.testing.assert_allclose(shifted.worst_case, plain.worst_case, rtol=0, atol=1e-12)

    def test_ground_set_is_invariant(self, qubit_decay):
        traj = evolve(qubit_decay, np.diag([0.0, 1.0]).astype(complex), 10.0)
        series = expectation_series(traj, V_GROUND)
        assert np.abs(series).max() < 1e-10

    def test_refined_two_qubit_limit_set(self, twoqubit_couplings, twoqubit_hamiltonian):
        # an extra coupling draining |10> restricts the limit set to the
        # coherent span of {|00>,|01>} plus the global ground level
        l3 = (1.0 / np.sqrt(2.0)) * ket_bra(3, 2, 4)
        refined = ModelSpec(twoqubit_hamiltonian, list(twoqubit_couplings) + [l3])
        rng = np.random.default_rng(5)
        for _ in range(5):
            traj = evolve(refined, random_density(4, rng), 60.0)
            fin = traj.final_state.matrix
            assert fin[2, 2].real <= 1e-4
            assert abs(fin[0, 0] + fin[0, 1] + fin[1, 0] + fin[1, 1]) <= 1e-4

    def test_deterministic(self, qubit_decay):
        p1 = invariant_set_probe(qubit_decay, V_GROUND, t_final=5.0)
        p2 = invariant_set_probe(qubit_decay, V_GROUND, t_final=5.0)
        np.testing.assert_array_equal(p1.worst_case, p2.worst_case)

    @pytest.mark.parametrize("t_final", [0, -1, np.nan, np.inf, 1e300])
    def test_t_final_must_be_finite_and_positive(self, qubit_decay, t_final):
        # 1e300 is finite but beyond 1/eps times the fastest time scale
        with pytest.raises(OperatorError, match="t_final must be positive and finite"):
            invariant_set_probe(qubit_decay, V_GROUND, t_final=t_final)
        with pytest.raises(OperatorError, match="t_final must be positive and finite"):
            evolve(qubit_decay, EXCITED, t_final)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_threshold_must_be_finite_and_non_negative(self, qubit_decay, threshold):
        with pytest.raises(OperatorError, match="threshold must be finite and non-negative"):
            invariant_set_probe(qubit_decay, V_GROUND, threshold=threshold)

    def test_zero_observable_is_an_input_error(self):
        # a zero V has no coordinate to propagate
        n = 3
        model = ModelSpec(number_operator(n), [ladder_lowering(n)])
        with pytest.raises(OperatorError, match="V is the zero operator"):
            invariant_set_probe(model, np.zeros((n, n)))
