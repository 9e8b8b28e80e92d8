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
    number_operator,
    pauli,
    psd_check,
    random_density,
    spectral_decompose,
    tightness_tail_bound,
)

from qmstab.serialize import load_model, load_operator

from conftest import FIXTURES, oscillator

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


def _fixture_pair(model, v):
    return load_model(FIXTURES / f"{model}.json")[0], load_operator(FIXTURES / f"{v}.json")


class TestBestRate:
    @pytest.mark.parametrize("model,v,d,best", [
        ("qubit_decay", "qubit_V", 0.0, 1.0),
        ("qubit_decay", "qubit_V", 1.0, 2.0000000000000004),
        ("oscillator_n40", "number_n40", 1.0, 0.7697368421052633),
        ("oscillator_unstable_n40", "number_n40", 40.0, 0.2763157894736842),
    ])
    def test_fixture_rates_are_the_boundary(self, model, v, d, best):
        model, varr = _fixture_pair(model, v)
        assert check_weak_lyapunov(model, varr, c=0.1, d=d).metrics["best_c"] == best
        inside = check_weak_lyapunov(model, varr, c=(1 - 1e-6) * best, d=d)
        assert inside.verdict is Verdict.HOLDS and inside.metrics["best_c"] == best
        assert check_weak_lyapunov(model, varr, c=(1 + 1e-3) * best, d=d).verdict is Verdict.FAILS

    def test_no_rate_when_the_offset_is_too_small(self):
        # the pumped oscillator's G(N) exceeds 1 * I, so A = I - G(N) is not PSD
        model, varr = _fixture_pair("oscillator_unstable_n40", "number_n40")
        cert = check_weak_lyapunov(model, varr, c=0.1, d=1.0)
        assert cert.verdict is Verdict.FAILS and cert.metrics["best_c"] is None

    def test_singular_offset_gives_rate_zero(self):
        # d = 0: A = -G(V) is singular and V is nonzero on its kernel
        model, varr = _fixture_pair("twoqubit_dissipative", "twoqubit_Vshifted")
        cert = check_weak_lyapunov(model, varr, c=1e-3, d=0.0)
        assert cert.metrics["best_c"] == 0.0
        assert cert.verdict is Verdict.FAILS

    def test_zero_v_refused(self, qubit_decay):
        with pytest.raises(OperatorError, match="zero operator"):
            check_weak_lyapunov(qubit_decay, np.zeros((2, 2)), c=1.0, d=1.0)


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
