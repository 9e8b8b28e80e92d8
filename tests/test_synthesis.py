import numpy as np
import pytest

from qmstab import (
    ModelSpec,
    OperatorError,
    SynthesisSpec,
    Verdict,
    check_lyapunov,
    evolve,
    expectation_series,
    generator_heisenberg,
    ket_bra,
    pauli,
    random_hermitian,
    solve_ground_coupling,
    spectral_decompose,
    synthesize_coupling,
    verify_synthesis,
)
from qmstab.operators import dag

from conftest import certify_n32_target

V_GROUND = np.diag([1.0, 0.0]).astype(complex)


def assembled_model(result, hamiltonian=None):
    n = result.v.shape[0]
    h = hamiltonian if hamiltonian is not None else np.zeros((n, n), dtype=complex)
    couplings = list(result.couplings) or [np.zeros((n, n), dtype=complex)]
    return ModelSpec(h, couplings)


class TestSynthesizeCoupling:
    def test_qubit_target_gives_lowering_operator(self):
        result = synthesize_coupling(SynthesisSpec(v=V_GROUND))
        assert len(result.couplings) == 1
        np.testing.assert_allclose(result.couplings[0], pauli("minus"), atol=1e-12)
        np.testing.assert_allclose(
            result.generator_matrix, np.diag([-1.0, 0.0]), atol=1e-12
        )
        assert result.pair_cases == ("B",)
        assert result.certificate.verdict is Verdict.HOLDS
        # descending-eigenbasis blocks: drained higher level, untouched kernel
        assert result.blocks[(0, 0)][0, 0] == pytest.approx(-1.0)
        assert abs(result.blocks[(1, 1)][0, 0]) < 1e-12

    def test_degenerate_target_case_a(self):
        result = synthesize_coupling(SynthesisSpec(v=np.eye(3, dtype=complex)))
        assert result.couplings == ()
        assert result.pair_cases == ("A",)
        assert not result.failed
        assert np.abs(result.generator_matrix).max() < 1e-12
        # the assembled model carries one zero coupling in place of none
        assert len(result.model.couplings) == 1 and not result.model.couplings[0].any()

    def test_two_qubit_target(self, twoqubit_v):
        l = 1.0 / np.sqrt(2.0)
        result = synthesize_coupling(
            SynthesisSpec(v=twoqubit_v, coupling_magnitude=l, pair_selection=((2, 1), (1, 0)))
        )
        np.testing.assert_allclose(
            result.generator_matrix, np.diag([-1.0, -1.0, 0.0, 0.0]), atol=1e-12
        )
        got = [l * ket_bra(1, 0, 4), l * ket_bra(3, 1, 4)]
        for c in result.couplings:
            assert min(np.abs(c - g).max() for g in got) < 1e-12
        assert result.certificate.verdict is Verdict.HOLDS
        assert result.certificate.shift == pytest.approx(2.0)

    def test_case_b_sign_law(self, rng):
        # an engineered pair with gap v and magnitude |l| contributes
        # exactly -v |l|^2 to the higher block and 0 to the lower block
        for _ in range(5):
            gap = rng.uniform(0.5, 3.0)
            mag = rng.uniform(0.2, 2.0)
            v = np.diag([1.0 + gap, 1.0]).astype(complex)
            result = synthesize_coupling(SynthesisSpec(v=v, coupling_magnitude=mag))
            assert result.blocks[(0, 0)][0, 0] == pytest.approx(-gap * mag**2)
            assert abs(result.blocks[(1, 1)][0, 0]) < 1e-12
            assert abs(result.blocks[(0, 1)][0, 0]) < 1e-12

    @pytest.mark.parametrize("h", [pauli("x"), pauli("y"), 0.7 * pauli("x") + 0.2 * pauli("y")])
    def test_case_c_cancels_hamiltonian_cross_term(self, h):
        # a real and a complex l of modulus 1: the drain is -|l|^2 either way
        for mag in (1.0, 0.6 + 0.8j):
            result = synthesize_coupling(
                SynthesisSpec(v=V_GROUND, hamiltonian=h, coupling_magnitude=mag)
            )
            assert result.pair_cases == ("C",)
            assert abs(result.blocks[(0, 1)][0, 0]) < 1e-10
            assert result.certificate.verdict is Verdict.HOLDS
            # the generator in the user basis is still the pure drain
            np.testing.assert_allclose(
                result.generator_matrix, np.diag([-1.0, 0.0]), atol=1e-10
            )

    def test_case_c_off_reproduces_coherent_cross_block(
        self, twoqubit_v, twoqubit_hamiltonian
    ):
        l = 1.0 / np.sqrt(2.0)
        result = synthesize_coupling(
            SynthesisSpec(
                v=twoqubit_v,
                hamiltonian=twoqubit_hamiltonian,
                coupling_magnitude=l,
                pair_selection=((2, 1), (1, 0)),
                compensate=False,
            )
        )
        expected = np.zeros((4, 4))
        expected[:2, :2] = -1.0
        np.testing.assert_allclose(result.generator_matrix, expected, atol=1e-12)
        assert result.certificate.verdict is Verdict.HOLDS

    def test_zero_magnitude_rejected(self):
        with pytest.raises(OperatorError, match="nonzero"):
            SynthesisSpec(v=V_GROUND, coupling_magnitude=0.0)

    def test_bad_pair_rejected(self):
        with pytest.raises(OperatorError, match="out of range"):
            synthesize_coupling(SynthesisSpec(v=V_GROUND, pair_selection=((5, 0),)))

    def test_failure_witness_matches_check_lyapunov(self):
        # an uncompensated Hamiltonian leaves G(V) with a positive eigenvalue;
        # both certificates of G(V) <= 0 report that eigenvalue, positive
        v = np.diag([3.0, 2.0, 1.0, 0.0]).astype(complex)
        h = random_hermitian(4, np.random.default_rng(0))
        result = synthesize_coupling(SynthesisSpec(v=v, hamiltonian=h, compensate=False))
        direct = check_lyapunov(assembled_model(result, h), v)
        assert result.failed and direct.verdict is Verdict.FAILS
        assert result.certificate.witness.eigenvalue > 0
        assert result.certificate.witness.eigenvalue == pytest.approx(direct.witness.eigenvalue)
        assert result.certificate.witness.eigenvalue == pytest.approx(
            result.certificate.metrics["generator_max_eigenvalue"]
        )

    def test_v_admitted_as_check_lyapunov_admits_it(self):
        # the certify-n32 recipe target, V = AA' with A of shape 32 x 24, is
        # PSD within tolerance though its smallest eigenvalue is a rounding
        # error below 0: neither check shifts it; both shift an indefinite V
        # by the same amount, with the same note
        for v, shift in ((certify_n32_target(), 0.0), (np.diag([1.0, 0.0, -1.0]).astype(complex), 1.0)):
            result = synthesize_coupling(SynthesisSpec(v=v))
            direct = check_lyapunov(result.model, v)
            assert result.certificate.shift == direct.shift == shift
            assert set(direct.notes) <= set(result.notes)

    def test_levels_grouped_by_consecutive_gaps(self):
        # gaps of 0.6e-9 chain three eigenvalues into one level, although
        # the outer two are 1.2e-9 apart; synthesis and the spectral
        # decomposition share the rule
        v = np.diag([1.0, 1.2e-9, 0.6e-9, 0.0]).astype(complex)
        result = synthesize_coupling(SynthesisSpec(v=v))
        assert result.level_slices == ((0, 1), (1, 4))
        assert len(spectral_decompose(v).eigenvalues) == 2

    def test_factors_rebuild_couplings(self):
        # L = left right' exactly, with r = hops in case B and r = d_lo in case C
        v = np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex)
        h = random_hermitian(4, np.random.default_rng(0))
        for hamiltonian, cases, ranks in ((None, ("B", "B"), [1, 1]), (h, ("C", "C"), [2, 1])):
            result = synthesize_coupling(SynthesisSpec(v=v, hamiltonian=hamiltonian))
            assert result.pair_cases == cases
            assert [left.shape for left, _ in result.factors] == [(4, r) for r in ranks]
            for coupling, (left, right) in zip(result.couplings, result.factors, strict=True):
                assert np.array_equal(coupling, left @ dag(right))


class TestVerifySynthesis:
    def test_round_trip(self, twoqubit_v):
        l = 1.0 / np.sqrt(2.0)
        result = synthesize_coupling(
            SynthesisSpec(v=twoqubit_v, coupling_magnitude=l, pair_selection=((2, 1), (1, 0)))
        )
        verdict = verify_synthesis(result, assembled_model(result))
        assert verdict.verdict is Verdict.HOLDS
        assert verdict.max_block_deviation < 1e-12

    def test_tampered_coupling_detected(self):
        result = synthesize_coupling(SynthesisSpec(v=V_GROUND))
        tampered = ModelSpec(np.zeros((2, 2), dtype=complex), [2.0 * result.couplings[0]])
        verdict = verify_synthesis(result, tampered)
        assert verdict.verdict is Verdict.FAILS
        assert verdict.first_mismatch is not None

    def test_first_mismatch_is_the_first_deviating_block(self):
        # a Hamiltonian term between |1> (level 1 of the levels 3, 2, 0) and
        # |3> (level 2) moves only blocks (1, 2) and (2, 1) of G(V), by 2 eps
        v = np.diag([3.0, 2.0, 2.0, 0.0]).astype(complex)
        result = synthesize_coupling(SynthesisSpec(v=v))
        for eps, first in ((1e-3, (1, 2)), (1e-12, None)):
            h = eps * (ket_bra(1, 3, 4) + ket_bra(3, 1, 4))
            check = verify_synthesis(result, ModelSpec(h, result.model.couplings))
            assert check.first_mismatch == first
            assert check.max_block_deviation == pytest.approx(2 * eps, rel=1e-6)

    def test_case_c_blocks_verify(self):
        result = synthesize_coupling(SynthesisSpec(v=V_GROUND, hamiltonian=pauli("x")))
        model = assembled_model(result, hamiltonian=pauli("x"))
        verdict = verify_synthesis(result, model)
        assert verdict.verdict is Verdict.HOLDS

    def test_generator_matches_recorded_blocks(self, twoqubit_v, twoqubit_hamiltonian):
        l = 1.0 / np.sqrt(2.0)
        result = synthesize_coupling(
            SynthesisSpec(
                v=twoqubit_v,
                hamiltonian=twoqubit_hamiltonian,
                coupling_magnitude=l,
                pair_selection=((2, 1), (1, 0)),
                compensate=False,
            )
        )
        model = assembled_model(result, hamiltonian=twoqubit_hamiltonian)
        g = generator_heisenberg(model, twoqubit_v)
        q = result.basis_transform
        g_eigen = dag(q) @ g @ q
        for (i, j), block in result.blocks.items():
            si, ei = result.level_slices[i]
            sj, ej = result.level_slices[j]
            assert np.abs(g_eigen[si:ei, sj:ej] - block).max() < 1e-10


class TestGroundCoupling:
    def test_qubit_factorization(self):
        res = solve_ground_coupling(V_GROUND)
        assert res.verdict is Verdict.HOLDS
        np.testing.assert_allclose(res.m, pauli("minus"), atol=1e-12)
        np.testing.assert_allclose(res.default_coupling, pauli("minus"), atol=1e-12)
        assert np.abs(dag(res.m) @ res.m - V_GROUND).max() < 1e-10
        # free parameters sit on the diagonal in this basis
        frees = sorted(tuple(np.argwhere(np.abs(f) > 0.5)[0]) for f in res.family.free_basis)
        assert frees == [(0, 0), (1, 1)]

    def test_family_members_solve_commutation(self, rng):
        res = solve_ground_coupling(V_GROUND)
        for _ in range(5):
            coeff = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            l = res.family.member(coeff)
            comm = l @ V_GROUND - V_GROUND @ l
            assert np.abs(comm - res.m).max() < 1e-12

    def test_scaled_target(self):
        v = np.diag([4.0, 0.0]).astype(complex)
        res = solve_ground_coupling(v)
        np.testing.assert_allclose(res.m, 2.0 * pauli("minus"), atol=1e-12)
        assert np.abs(dag(res.m) @ res.m - v).max() < 1e-10
        comm = res.default_coupling @ v - v @ res.default_coupling
        assert np.abs(comm - res.m).max() < 1e-12

    def test_zero_target(self):
        res = solve_ground_coupling(np.zeros((2, 2), dtype=complex))
        assert res.verdict is Verdict.HOLDS
        assert np.abs(res.m).max() == 0.0

    def test_positive_definite_unsupported(self):
        res = solve_ground_coupling(np.diag([2.0, 1.0]).astype(complex))
        assert res.verdict is Verdict.INCONCLUSIVE
        assert "positive definite" in res.explanation

    def test_two_positive_levels_unsupported(self):
        res = solve_ground_coupling(np.diag([2.0, 1.0, 0.0]).astype(complex))
        assert res.verdict is Verdict.INCONCLUSIVE
        assert "unsupported" in res.explanation

    def test_block_degenerate_target(self):
        # one positive level of rank 2 with a rank-2 kernel
        v = np.diag([3.0, 3.0, 0.0, 0.0]).astype(complex)
        res = solve_ground_coupling(v)
        assert res.verdict is Verdict.HOLDS
        assert np.abs(dag(res.m) @ res.m - v).max() < 1e-10

    def test_default_coupling_drives_to_ground(self):
        res = solve_ground_coupling(V_GROUND)
        model = ModelSpec(np.zeros((2, 2), dtype=complex), [res.default_coupling])
        traj = evolve(model, np.diag([1.0, 0.0]).astype(complex), 20.0)
        series = expectation_series(traj, V_GROUND)
        assert series[-1] <= 1e-6
