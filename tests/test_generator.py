import numpy as np
import pytest
import scipy.sparse as sps

import qmstab.generator as generator
from qmstab import (
    ModelSpec,
    OperatorError,
    Verdict,
    dissipation_functional,
    dissipator,
    generator_heisenberg,
    generator_schroedinger,
    heisenberg_diffusion,
    ket_bra,
    liouvillian,
    number_operator,
    pauli,
    psd_check,
    random_density,
    random_hermitian,
    unvec,
    vec,
)
from qmstab.operators import dag, random_matrix
from qmstab.serialize import load_model

from conftest import FIXTURES, complex_form, oscillator, random_model

SM = pauli("minus")
SP = pauli("plus")


def row_major_reference(model):
    """R from a dense row-major Liouvillian, vec(A X B) = kron(A, B^T) vec(X)
    with vec(X)[i n + j] = X[i, j], in the orthonormal Hermitian basis that
    `liouvillian` documents, each element at its column-stacked position
    i + j n: E_ii at (i, i), and for p < q, (E_pq + E_qp)/sqrt2 at (p, q)
    and i(E_pq - E_qp)/sqrt2 at (q, p)."""
    n = model.dim
    eye, h, s = np.eye(n), model.hamiltonian, np.sqrt(0.5)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in model.couplings:
        ldl = l.conj().T @ l
        m += np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    u = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            if i == j:
                e[i, i] = 1.0
            elif i < j:
                e[i, j] = e[j, i] = s
            else:
                e[j, i], e[i, j] = 1j * s, -1j * s
            u[:, i + j * n] = e.reshape(-1)
    u = sps.csr_array(u)  # two entries a column: products in O(n^4)
    return (u.conj().T @ (m @ u)).real


class TestDissipator:
    def test_identity_annihilated(self, twolevel):
        np.testing.assert_allclose(dissipator(twolevel, np.eye(2)), 0, atol=1e-14)

    def test_decay_of_excited_projector(self, qubit_decay):
        # independent 2x2 arithmetic: L'(P)L = 0 and {L'L, P} = 2P
        p = SP @ SM
        np.testing.assert_allclose(dissipator(qubit_decay, p), -p, atol=1e-14)

    def test_ground_model_dissipation_matrix(self, qubit_decay):
        v = np.diag([1.0, 0.0]).astype(complex)
        expected = np.array([[-1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(dissipator(qubit_decay, v), expected, atol=1e-12)

    def test_hermiticity_preserved(self, rng):
        model = random_model(5, rng, n_couplings=2)
        for _ in range(10):
            x = random_hermitian(5, rng)
            out = dissipator(model, x)
            assert np.abs(out - dag(out)).max() < 1e-11

    def test_dimension_mismatch(self, twolevel):
        with pytest.raises(OperatorError):
            dissipator(twolevel, np.eye(3))


class TestHeisenbergGenerator:
    def test_unitality(self, rng):
        for _ in range(10):
            model = random_model(4, rng, n_couplings=2)
            assert np.abs(generator_heisenberg(model, np.eye(4))).max() < 1e-12

    def test_oscillator_interior_identity(self):
        n = 20
        model = oscillator(n)
        v = number_operator(n)
        g = generator_heisenberg(model, v)
        target = -0.75 * v + 0.25 * np.eye(n)
        interior = slice(0, n - 2)
        assert np.abs(g - target)[interior, interior].max() < 1e-12

    def test_two_qubit_generator_diagonal(self, twoqubit_dissipative, twoqubit_v):
        g = generator_heisenberg(twoqubit_dissipative, twoqubit_v)
        np.testing.assert_allclose(g, np.diag([-1.0, -1.0, 0.0, 0.0]), atol=1e-13)

    def test_linearity(self, rng):
        model = random_model(4, rng)
        for _ in range(10):
            a, b = rng.standard_normal(2)
            x, y = random_matrix(4, rng), random_matrix(4, rng)
            lhs = generator_heisenberg(model, a * x + b * y)
            rhs = a * generator_heisenberg(model, x) + b * generator_heisenberg(model, y)
            assert np.abs(lhs - rhs).max() < 1e-10


class TestSchroedingerGenerator:
    def test_maximally_mixed_fixed_point(self, twolevel):
        np.testing.assert_allclose(
            generator_schroedinger(twolevel, np.eye(2) / 2), 0, atol=1e-14
        )

    def test_ground_state_fixed_point(self, qubit_decay):
        rho = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(generator_schroedinger(qubit_decay, rho), 0, atol=1e-14)

    def test_trace_annihilation(self, rng):
        for _ in range(20):
            model = random_model(5, rng, n_couplings=2)
            rho = random_density(5, rng)
            assert abs(np.trace(generator_schroedinger(model, rho))) < 1e-12

    def test_duality(self, rng):
        for _ in range(20):
            model = random_model(4, rng, n_couplings=2)
            x = random_matrix(4, rng)
            rho = random_density(4, rng)
            lhs = np.trace(generator_heisenberg(model, x) @ rho)
            rhs = np.trace(x @ generator_schroedinger(model, rho))
            assert abs(lhs - rhs) < 1e-10


class TestDissipationFunctional:
    def test_identity(self, twolevel):
        np.testing.assert_allclose(dissipation_functional(twolevel, np.eye(2)), 0, atol=1e-13)

    def test_flip_model_projector(self, twolevel):
        # [P, sigma_x]'[P, sigma_x] = I for P = |1><1|
        p = ket_bra(1, 1, 2)
        np.testing.assert_allclose(dissipation_functional(twolevel, p), np.eye(2), atol=1e-13)

    def test_positive_and_matches_commutator_form(self, rng):
        for _ in range(100):
            model = random_model(4, rng, n_couplings=2)
            x = random_matrix(4, rng)
            d = dissipation_functional(model, x)
            assert psd_check(d, tol=1e-10).verdict is Verdict.HOLDS
            direct = np.zeros_like(d)
            for l in model.couplings:
                xl = x @ l - l @ x
                direct += dag(xl) @ xl
            assert np.abs(d - direct).max() < 1e-10

    def test_projection_dissipativity_link(self, rng):
        # P G(P) P = -P D(P) P = -sum_k P Lk'(I-P) Lk P
        for _ in range(20):
            model = random_model(5, rng, n_couplings=2)
            g = random_matrix(5, rng)
            q, _ = np.linalg.qr(g)
            p = q[:, :2] @ dag(q[:, :2])
            lhs = p @ generator_heisenberg(model, p) @ p
            mid = -p @ dissipation_functional(model, p) @ p
            direct = np.zeros_like(p)
            comp = np.eye(5) - p
            for l in model.couplings:
                direct -= p @ dag(l) @ comp @ l @ p
            assert np.abs(lhs - mid).max() < 1e-10
            assert np.abs(lhs - direct).max() < 1e-10


class TestDiffusion:
    def test_identity_gives_zero(self, qubit_decay):
        b, c = heisenberg_diffusion(qubit_decay, np.eye(2))[0]
        assert np.abs(b).max() < 1e-14 and np.abs(c).max() < 1e-14

    def test_decay_model_coefficients(self, qubit_decay):
        # commutator arithmetic: [P, sigma_-] = -sigma_-, [sigma_+, P] = -sigma_+
        p = SP @ SM
        b, c = heisenberg_diffusion(qubit_decay, p)[0]
        np.testing.assert_allclose(b, np.array([[0, -0.5], [-0.5, 0]]), atol=1e-14)
        np.testing.assert_allclose(c, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-14)

    def test_commuting_observable(self, dephasing):
        b, c = heisenberg_diffusion(dephasing, pauli("z"))[0]
        assert np.abs(b).max() < 1e-14 and np.abs(c).max() < 1e-14

    def test_hermitian_outputs(self, rng):
        model = random_model(4, rng, n_couplings=3)
        x = random_hermitian(4, rng)
        for b, c in heisenberg_diffusion(model, x):
            assert np.abs(b - dag(b)).max() < 1e-12
            assert np.abs(c - dag(c)).max() < 1e-12


class TestLiouvillian:
    def test_heisenberg_annihilates_identity(self, twolevel):
        # R^T is the Heisenberg generator, and G(I) = 0
        lv = liouvillian(twolevel)
        identity = (lv.basis.conj().T @ vec(np.eye(2))).real
        assert np.abs(lv.matrix.T @ identity).max() < 1e-12

    def test_flip_model_mixed_state_in_null_space(self, twolevel):
        lv = liouvillian(twolevel)
        mixed = (lv.basis.conj().T @ vec(np.eye(2) / 2)).real
        assert np.abs(lv.matrix @ mixed).max() < 1e-12

    def test_matches_elementwise_generators(self, rng):
        model = random_model(4, rng, n_couplings=2)
        lv = liouvillian(model)
        schroedinger = complex_form(lv.basis, lv.matrix)
        heisenberg = complex_form(lv.basis, lv.matrix.T)
        for _ in range(50):
            x = random_matrix(4, rng)
            assert np.abs(
                unvec(heisenberg @ vec(x)) - generator_heisenberg(model, x)
            ).max() < 1e-10
            assert np.abs(
                unvec(schroedinger @ vec(x)) - generator_schroedinger(model, x)
            ).max() < 1e-10

    def test_dimension_cap(self):
        n = generator.MAX_LIOUVILLIAN_DIM + 1
        model = ModelSpec(np.zeros((n, n)), [np.zeros((n, n))])
        with pytest.raises(OperatorError, match="cap"):
            liouvillian(model)

    def test_oversized_dense_model_refused_before_assembly(self, monkeypatch):
        # dense couplings at n = 65 predict 65^4 > 2^24 entries
        def assemble(*args):
            raise AssertionError("assembled an oversized Liouvillian")

        monkeypatch.setattr(generator, "_dense_real", assemble)
        monkeypatch.setattr(generator, "_sparse_real", assemble)
        model = random_model(65, np.random.default_rng(0), n_couplings=1)
        with pytest.raises(OperatorError, match=f"would hold {65**4} entries"):
            liouvillian(model)

    def test_side_invariant_enforced(self, twolevel, monkeypatch):
        # with L' = 0 the anticommutator term drops, and L rho L' alone
        # does not preserve the trace; on both assembly branches
        models = [twolevel, random_model(6, np.random.default_rng(0), 2), oscillator(8)]
        dense = [liouvillian(m).predicted_fill >= generator._DENSE_FILL for m in models]
        assert dense == [True, True, False]
        monkeypatch.setattr(generator, "dag", np.zeros_like)
        for model in models:
            with pytest.raises(OperatorError, match="trace"):
                liouvillian(model)

    @pytest.mark.parametrize("name, dense", [("oscillator_n40", False), ("random6", True),
                                             ("random24", True)])
    def test_both_assembly_branches_match_a_kronecker_reference(self, name, dense):
        if name.startswith("random"):
            model = random_model(int(name[6:]), np.random.default_rng(5), n_couplings=2)
        else:
            model, _ = load_model(FIXTURES / f"{name}.json")
        lv = liouvillian(model)
        assert (lv.predicted_fill >= generator._DENSE_FILL) == dense
        r = lv.matrix.toarray()
        scale = np.abs(r).sum(axis=0).max()
        assert np.abs(r - row_major_reference(model)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["twolevel", "random24"])
    def test_dense_branch_csr_equals_scipys_conversion(self, name):
        # the dense branch builds R's CSR arrays from its nonzero mask; they
        # equal sps.csr_array of the dense R, index dtypes included (twolevel's
        # R has 9 zeros of 16, the seeded random24's none)
        if name == "twolevel":
            model, _ = load_model(FIXTURES / "twolevel.json")
        else:
            model = random_model(24, np.random.default_rng(5), n_couplings=2)
        lv = liouvillian(model)
        assert lv.predicted_fill >= generator._DENSE_FILL
        reference = sps.csr_array(lv.matrix.toarray())
        for part in ("data", "indices", "indptr"):
            got, want = getattr(lv.matrix, part), getattr(reference, part)
            assert got.dtype == want.dtype, part
            np.testing.assert_array_equal(got, want, err_msg=part)


class TestModelSpec:
    def test_requires_hermitian_hamiltonian(self):
        with pytest.raises(OperatorError):
            ModelSpec(np.array([[0, 1], [0, 0]], dtype=complex), [SM])

    def test_requires_couplings(self):
        with pytest.raises(OperatorError):
            ModelSpec(np.zeros((2, 2), dtype=complex), [])

    def test_requires_consistent_dimensions(self):
        with pytest.raises(OperatorError):
            ModelSpec(np.zeros((2, 2), dtype=complex), [np.eye(3)])

    def test_immutable_entries(self, twolevel):
        with pytest.raises(ValueError):
            twolevel.hamiltonian[0, 0] = 5.0
