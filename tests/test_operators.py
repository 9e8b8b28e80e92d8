import numpy as np
import pytest

from qmstab import (
    DensityMatrix,
    OperatorError,
    Verdict,
    ket_bra,
    ladder_lowering,
    number_operator,
    pauli,
    psd_check,
    random_density,
    random_hermitian,
    spectral_decompose,
)
from qmstab.operators import as_complex_matrix, eigenlevels, eigh, require_hermitian


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(OperatorError):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(OperatorError):
            as_complex_matrix(bad)

    def test_rejects_non_hermitian(self):
        with pytest.raises(OperatorError, match="not Hermitian"):
            require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_accepts_hermitian_within_tolerance(self):
        a = pauli("y") + 1e-13 * np.array([[0, 1], [0, 0]])
        require_hermitian(a)


class TestSpectralDecompose:
    def test_identity(self):
        sd = spectral_decompose(np.eye(3, dtype=complex))
        assert list(sd.eigenvalues) == [1.0]
        np.testing.assert_allclose(sd.projections[0], np.eye(3), atol=1e-14)

    def test_half_one_plus_sigma_z(self):
        # V = (1 + sigma_z)/2 = diag(1, 0)
        v = 0.5 * (np.eye(2) + pauli("z"))
        sd = spectral_decompose(v)
        np.testing.assert_allclose(sd.eigenvalues, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(sd.projections[0], ket_bra(1, 1, 2), atol=1e-14)
        np.testing.assert_allclose(sd.projections[1], ket_bra(0, 0, 2), atol=1e-14)

    def test_number_operator(self):
        n = 6
        sd = spectral_decompose(number_operator(n))
        np.testing.assert_allclose(sd.eigenvalues, np.arange(n), atol=1e-13)
        for i, p in enumerate(sd.projections):
            np.testing.assert_allclose(p, ket_bra(i, i, n), atol=1e-13)

    def test_degenerate_merging(self):
        v = np.diag([0.0, 1e-12, 1.0]).astype(complex)
        sd = spectral_decompose(v, degeneracy_tol=1e-9)
        assert sd.multiplicities == (2, 1)

    def test_reconstruction_and_projector_algebra(self, rng):
        for _ in range(20):
            a = random_hermitian(7, rng)
            sd = spectral_decompose(a)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(sd.reconstruct() - a).max() <= 10 * 7 * np.finfo(float).eps * scale
            total = sum(sd.projections)
            np.testing.assert_allclose(total, np.eye(7), atol=1e-12)
            for i, p in enumerate(sd.projections):
                np.testing.assert_allclose(p @ p, p, atol=1e-12)
                for j_, p2 in enumerate(sd.projections):
                    if j_ != i:
                        assert np.abs(p @ p2).max() < 1e-10


class TestEigenlevels:
    def test_diagonal_input_gives_coordinate_vectors(self):
        w, vecs = eigh(np.diag([2.0, 0.0, 1.0, 0.0]).astype(complex))
        assert list(w) == [0.0, 0.0, 1.0, 2.0]
        np.testing.assert_array_equal(vecs, np.eye(4)[:, [1, 3, 2, 0]])

    def test_phase_fixed_eigenvectors(self, rng):
        a = random_hermitian(6, rng)
        w, vecs = eigh(a)
        np.testing.assert_allclose(a @ vecs, vecs * w, atol=1e-12)
        for j in range(6):
            z = vecs[np.argmax(np.abs(vecs[:, j])), j]
            assert z.real > 0 and abs(z.imag) < 1e-15

    def test_descending_keeps_degenerate_columns_in_order(self):
        v = np.diag([3.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0]).astype(complex)
        values, slices, vecs = eigenlevels(v, 1e-9, descending=True)
        assert list(values) == [3.0, 2.0, 1.0, 0.0]
        assert slices == ((0, 1), (1, 4), (4, 5), (5, 7))
        # reversing the ascending columns instead would give 0, 3, 2, 1, 4, 6, 5
        np.testing.assert_array_equal(vecs, np.eye(7))


class TestPsdCheck:
    def test_zero_holds(self):
        assert psd_check(np.zeros((3, 3))).verdict is Verdict.HOLDS

    def test_diagonal_failure_with_witness(self):
        report = psd_check(np.diag([-1.0, 0.0]))
        assert report.verdict is Verdict.FAILS
        assert report.min_eigenvalue == pytest.approx(-1.0)
        vec = report.witness.vector
        np.testing.assert_allclose(np.abs(vec), [1.0, 0.0], atol=1e-12)

    def test_shift_closure(self, rng):
        for _ in range(20):
            a = random_hermitian(5, rng)
            shift = abs(np.linalg.eigvalsh(a)[0]) + 1.0
            assert psd_check(a + shift * np.eye(5)).verdict is Verdict.HOLDS


class TestBuilders:
    def test_pauli_z(self):
        np.testing.assert_array_equal(pauli("z"), np.diag([1.0, -1.0]))

    def test_raising_lowering_product(self):
        # sigma_+ sigma_- = diag(1, 0) = (1 + sigma_z)/2
        prod = pauli("plus") @ pauli("minus")
        np.testing.assert_allclose(prod, 0.5 * (np.eye(2) + pauli("z")), atol=1e-15)

    def test_lowering_maps_first_to_second(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        np.testing.assert_array_equal(pauli("minus") @ e0, np.array([0.0, 1.0]))

    def test_number_operator_diagonal(self):
        np.testing.assert_array_equal(number_operator(3), np.diag([0.0, 1.0, 2.0]))

    def test_ladder_commutator_truncation(self):
        a = ladder_lowering(5)
        comm = a @ a.conj().T - a.conj().T @ a
        # [a, a^dag] = I except the top truncated level
        np.testing.assert_allclose(comm[:4, :4], np.eye(4), atol=1e-14)
        assert comm[4, 4] == pytest.approx(-4.0)

    def test_ket_bra(self):
        kb = ket_bra(1, 0, 3)
        assert kb[1, 0] == 1.0 and np.abs(kb).sum() == 1.0

    @pytest.mark.parametrize("call", [
        lambda: pauli("q"),
        lambda: ladder_lowering(1),
        lambda: number_operator(0),
        lambda: ket_bra(3, 0, 2),
    ])
    def test_invalid_inputs(self, call):
        with pytest.raises(OperatorError):
            call()


class TestDensityMatrix:
    def test_valid(self):
        dm = DensityMatrix.from_matrix(np.eye(2) / 2)
        assert dm.dim == 2

    def test_trace_violation(self):
        with pytest.raises(OperatorError, match="trace"):
            DensityMatrix.from_matrix(np.eye(2))

    def test_negativity_violation(self):
        with pytest.raises(OperatorError, match="eigenvalue"):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))

    def test_random_density_is_valid(self, rng):
        for _ in range(10):
            rho = random_density(6, rng)
            DensityMatrix.from_matrix(rho)
