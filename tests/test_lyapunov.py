import numpy as np
import pytest

from qmstab import (
    ModelSpec,
    OperatorError,
    Verdict,
    check_lasalle_pair,
    check_lyapunov,
    check_theorem8,
    check_weak_lyapunov,
    generator_heisenberg,
    ket_bra,
    lyapunov_search,
    number_operator,
    pauli,
    psd_check,
    random_density,
    spectral_decompose,
    tightness_tail_bound,
)

from conftest import oscillator

V_GROUND = np.diag([1.0, 0.0]).astype(complex)


class TestStrictLyapunov:
    def test_ground_decay_model_holds(self, qubit_decay):
        cert = check_lyapunov(qubit_decay, V_GROUND)
        assert cert.verdict is Verdict.HOLDS
        # re-verification is idempotent: the certified inequality re-passes
        g = generator_heisenberg(qubit_decay, V_GROUND)
        assert psd_check(-g, cert.tolerance).verdict is Verdict.HOLDS

    def test_identity_always_holds(self, twolevel, twoqubit):
        for model in (twolevel, twoqubit):
            assert check_lyapunov(model, np.eye(model.dim)).verdict is Verdict.HOLDS

    def test_pumped_oscillator_fails_with_witness(self):
        model = oscillator(12, alpha=0.5, beta=1.0)
        cert = check_lyapunov(model, number_operator(12))
        assert cert.verdict is Verdict.FAILS
        psi = cert.witness.vector
        rho = np.outer(psi, psi.conj())
        grow = np.trace(generator_heisenberg(model, number_operator(12)) @ rho).real
        assert grow > 0

    def test_shifts_indefinite_v(self, qubit_decay):
        # sigma_z = 2 P_e - I: the shift by I leaves G(sigma_z) = -2 P_e <= 0
        cert = check_lyapunov(qubit_decay, pauli("z"))
        assert cert.verdict is Verdict.HOLDS
        assert cert.shift == pytest.approx(1.0)
        np.testing.assert_allclose(cert.v, 2 * V_GROUND, atol=1e-12)
        np.testing.assert_allclose(
            generator_heisenberg(qubit_decay, pauli("z")), -2 * V_GROUND, atol=1e-12
        )
        assert cert.notes == ("V shifted by 1 * I to reach positivity; G(V) is unaffected",)
        assert check_lyapunov(qubit_decay, V_GROUND).notes == ()

    def test_weak_mode_and_theorem8_reject_indefinite_v(self, qubit_decay):
        # their conditions change under the shift: the offset d, and ker V
        with pytest.raises(OperatorError, match="positive semidefinite"):
            check_weak_lyapunov(qubit_decay, pauli("z"), c=1.0, d=0.0)
        with pytest.raises(OperatorError, match="positive semidefinite"):
            check_theorem8(qubit_decay, pauli("z"))


class TestWeakLyapunov:
    def test_oscillator_rates(self):
        # G(n) = -0.75 n + 0.25 I on the interior; the truncation boundary
        # is extra-dissipative, so the full matrix certifies too
        model = oscillator(16)
        cert = check_weak_lyapunov(model, number_operator(16), c=0.75, d=0.25)
        assert cert.verdict is Verdict.HOLDS

    @pytest.mark.parametrize("c,d,expected", [
        (0.5, 0.5, Verdict.HOLDS),
        (0.5, 1.0, Verdict.HOLDS),
        (1.0, 0.5, Verdict.FAILS),
    ])
    def test_identity_needs_d_at_least_c(self, twolevel, c, d, expected):
        cert = check_weak_lyapunov(twolevel, np.eye(2), c=c, d=d)
        assert cert.verdict is expected

    def test_shifted_two_qubit(self, twoqubit, twoqubit_v):
        cert = check_weak_lyapunov(twoqubit, twoqubit_v + 2 * np.eye(4), c=0.1, d=0.4)
        assert cert.verdict is Verdict.HOLDS

    def test_monotone_in_constants(self, rng):
        model = oscillator(10)
        v = number_operator(10)
        base = check_weak_lyapunov(model, v, c=0.75, d=0.25)
        assert base.verdict is Verdict.HOLDS
        for _ in range(10):
            c2 = 0.75 * rng.uniform(0.1, 1.0)
            d2 = 0.25 + rng.uniform(0.0, 2.0)
            assert check_weak_lyapunov(model, v, c=c2, d=d2).verdict is Verdict.HOLDS

    def test_rejects_bad_constants(self, twolevel):
        with pytest.raises(OperatorError):
            check_weak_lyapunov(twolevel, np.eye(2), c=0.0, d=1.0)


class TestTailBound:
    def test_photon_number_cut(self):
        sd = spectral_decompose(number_operator(60))
        tb = tightness_tail_bound(sd, c=2.0, eps=0.1)
        assert tb.verdict is Verdict.HOLDS
        assert tb.m == 20
        assert np.trace(tb.projection).real == pytest.approx(20.0)

    def test_vacuous_epsilon(self):
        sd = spectral_decompose(number_operator(10))
        tb = tightness_tail_bound(sd, c=2.0, eps=1.5)
        assert tb.m == 0
        assert np.abs(tb.projection).max() == 0.0

    def test_truncation_too_small(self):
        sd = spectral_decompose(number_operator(10))
        tb = tightness_tail_bound(sd, c=2.0, eps=0.1)
        assert tb.verdict is Verdict.INCONCLUSIVE
        assert tb.m is None

    def test_guarantee_on_sampled_states(self, rng):
        n = 60
        v = number_operator(n)
        sd = spectral_decompose(v)
        tb = tightness_tail_bound(sd, c=2.0, eps=0.1)
        vacuum = np.zeros((n, n), dtype=complex)
        vacuum[0, 0] = 1.0
        for _ in range(100):
            raw = random_density(n, rng)
            mean = np.trace(raw @ v).real
            lam = min(1.0, 2.0 * rng.uniform(0.0, 1.0) / mean)
            rho = lam * raw + (1 - lam) * vacuum
            assert np.trace(rho @ v).real <= 2.0 + 1e-9
            assert np.trace(rho @ tb.projection).real > 0.9


class TestLaSallePairs:
    def test_two_qubit_theorem5(self, twoqubit, twoqubit_v, twoqubit_w):
        cert = check_lasalle_pair(twoqubit, twoqubit_v, twoqubit_w, theorem="t5")
        assert cert.verdict is Verdict.HOLDS
        assert cert.shift == pytest.approx(2.0)
        assert cert.metrics["generator_w_norm"] < np.inf

    def test_shifted_input_needs_no_shift(self, twoqubit, twoqubit_v, twoqubit_w):
        cert = check_lasalle_pair(twoqubit, twoqubit_v + 2 * np.eye(4), twoqubit_w, theorem="t5")
        assert cert.verdict is Verdict.HOLDS
        assert cert.shift == 0.0

    def test_w_from_strict_certificate(self, qubit_decay):
        w = -generator_heisenberg(qubit_decay, V_GROUND)
        cert = check_lasalle_pair(qubit_decay, V_GROUND, w, theorem="t5")
        assert cert.verdict is Verdict.HOLDS

    def test_trivial_pair(self, twolevel):
        cert = check_lasalle_pair(twolevel, np.eye(2), np.zeros((2, 2)), theorem="t5")
        assert cert.verdict is Verdict.HOLDS

    def test_theorem6_adds_decay_of_w(self, qubit_decay):
        w = -generator_heisenberg(qubit_decay, V_GROUND)  # diag(1, 0)
        cert = check_lasalle_pair(qubit_decay, V_GROUND, w, theorem="t6")
        assert cert.verdict is Verdict.HOLDS

    def test_theorem7_equality(self, twolevel):
        cert = check_lasalle_pair(twolevel, np.eye(2), np.zeros((2, 2)), theorem="t7")
        assert cert.verdict is Verdict.HOLDS

    def test_theorem7_fails_when_w_grows(self, qubit_decay):
        w = generator_heisenberg(qubit_decay, V_GROUND)  # diag(-1, 0), G(W) indefinite
        cert = check_lasalle_pair(qubit_decay, V_GROUND, w, theorem="t7")
        assert cert.verdict is Verdict.FAILS

    def test_theorem7_keeps_the_decay_witness_when_both_conditions_fail(self, qubit_decay):
        # W = diag(-1, 1) misses G(V) = diag(-1, 0) by 1, and G(W) = diag(2, 0)
        # breaks G(W) <= 0 along |0>; the witness is G(W)'s, as when only
        # the decay fails
        w = generator_heisenberg(qubit_decay, V_GROUND) + np.diag([0.0, 1.0])
        cert = check_lasalle_pair(qubit_decay, V_GROUND, w, theorem="t7")
        assert cert.verdict is Verdict.FAILS
        assert cert.metrics["equality_residual"] == pytest.approx(1.0)
        assert cert.metrics["generator_w_max_eigenvalue"] == pytest.approx(2.0)
        assert cert.witness.eigenvalue == pytest.approx(-2.0)
        np.testing.assert_allclose(np.abs(cert.witness.vector), [1.0, 0.0], atol=1e-12)
        assert len(cert.notes) == 1 and "residual" in cert.notes[0]

    def test_corollary1(self, qubit_decay):
        w = np.diag([1.0, 0.0])
        u = np.diag([0.5, 0.5])
        cert = check_lasalle_pair(qubit_decay, V_GROUND, w, theorem="corollary1", u=u)
        # the slack holds, but a finite integral of <U(t)> is not certified
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.metrics["slack_min_eigenvalue"] >= 0.0
        assert any("cannot certify" in note for note in cert.notes)
        # U = 0 integrates to 0, so the hypothesis holds by itself
        zero = check_lasalle_pair(qubit_decay, V_GROUND, w, theorem="corollary1", u=np.zeros((2, 2)))
        assert zero.verdict is Verdict.HOLDS

    def test_corollary1_needs_u(self, qubit_decay):
        with pytest.raises(OperatorError, match="U"):
            check_lasalle_pair(qubit_decay, V_GROUND, np.eye(2), theorem="corollary1")

    def test_unknown_theorem_rejected(self, qubit_decay):
        with pytest.raises(OperatorError, match="unknown LaSalle mode 't9'"):
            check_lasalle_pair(qubit_decay, V_GROUND, np.eye(2), theorem="t9")

    def test_non_psd_w_rejected(self, qubit_decay):
        with pytest.raises(OperatorError):
            check_lasalle_pair(qubit_decay, V_GROUND, pauli("z"), theorem="t5")


class TestGroundConvergence:
    def test_decay_model_holds(self, qubit_decay):
        report = check_theorem8(qubit_decay, V_GROUND)
        assert report.verdict is Verdict.HOLDS
        assert report.commutator_norm < 1e-12
        assert report.kernel_dim == 1
        assert report.restricted_min_eigenvalue == pytest.approx(1.0)

    def test_commuting_coupling_inconclusive(self):
        model = ModelSpec(pauli("z"), [pauli("z")])
        report = check_theorem8(model, np.diag([2.0, 1.0]).astype(complex))
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_noncommuting_generator_fails(self):
        # three-level ladder with a Hamiltonian mixing the top two levels:
        # G(V) stays negative but no longer commutes with V
        v = np.diag([2.0, 1.0, 0.0]).astype(complex)
        ls = [ket_bra(1, 0, 3), ket_bra(2, 1, 3)]
        h = 0.3 * (ket_bra(0, 1, 3) + ket_bra(1, 0, 3))
        model = ModelSpec(h, ls)
        report = check_theorem8(model, v)
        assert report.verdict is Verdict.FAILS
        assert report.commutator_norm > 1e-3


class TestSearch:
    def test_oscillator_certificate_found(self):
        model = oscillator(12)
        basis = [np.eye(12, dtype=complex), number_operator(12)]
        v = lyapunov_search(model, basis, c=0.5, d=1.0)
        assert v is not None
        assert check_weak_lyapunov(model, v, c=0.5, d=1.0).verdict is Verdict.HOLDS

    def test_identity_basis(self, qubit_decay):
        v = lyapunov_search(qubit_decay, [np.eye(2, dtype=complex)], c=0.5, d=1.0)
        assert v is not None
        off = v - (np.trace(v).real / 2) * np.eye(2)
        assert np.abs(off).max() < 1e-9

    def test_identity_basis_infeasible_when_d_below_c(self, qubit_decay):
        assert lyapunov_search(qubit_decay, [np.eye(2, dtype=complex)], c=1.0, d=0.5) is None

    def test_restricted_basis_not_found(self):
        # pumped oscillator, trace-normalized number-operator direction only:
        # the slack d I cannot absorb the growing spectrum
        model = oscillator(12, alpha=0.5, beta=1.0)
        assert lyapunov_search(model, [number_operator(12)], c=0.5, d=1.0) is None

    def test_output_always_certified(self, rng):
        # whatever comes back from random bases re-passes the checker
        model = oscillator(8)
        for _ in range(5):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            basis = [np.eye(8, dtype=complex), (g + g.conj().T) / 2]
            v = lyapunov_search(model, basis, c=0.3, d=1.0, max_iter=300)
            if v is not None:
                assert check_weak_lyapunov(model, v, c=0.3, d=1.0).verdict is Verdict.HOLDS

    def test_degenerate_basis_rejected(self, qubit_decay):
        with pytest.raises(OperatorError, match="dependent"):
            lyapunov_search(qubit_decay, [np.eye(2), 2 * np.eye(2)], c=0.5, d=1.0)
