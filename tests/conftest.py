from pathlib import Path

import numpy as np
import pytest

from qmstab import ModelSpec, ket_bra, ladder_lowering, number_operator, pauli

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def twolevel():
    """Driven two-level system: H = sigma_z, L = sigma_x."""
    return ModelSpec(pauli("z"), [pauli("x")])


@pytest.fixture
def qubit_decay():
    """Pure decay onto the ground level: H = 0, L = sigma_minus."""
    return ModelSpec(np.zeros((2, 2), dtype=complex), [pauli("minus")])


@pytest.fixture
def dephasing():
    """H = sigma_z, L = sigma_z: two stationary states."""
    return ModelSpec(pauli("z"), [pauli("z")])


def complex_form(basis, real):
    """The column-stacked superoperator T R T' as a dense complex array, for
    a real matrix R in the Hermitian basis T (`liouvillian(model).basis`)."""
    return (basis @ real @ basis.conj().T).toarray()


def dense_expm_samples(basis, real, z, times):
    """The vectorized operators e^{t T R T'} z on the uniform grid `times`,
    stepped by one dense expm: a reference that shares no code with the
    propagator."""
    import scipy.linalg as sla

    step = sla.expm(complex_form(basis, real) * times[1])
    samples = [z]
    for _ in times[1:]:
        samples.append(step @ samples[-1])
    return samples


def oscillator(n, alpha=1.0, beta=0.5, omega=1.0):
    a = ladder_lowering(n)
    return ModelSpec(omega * number_operator(n), [alpha * a + beta * a.conj().T])


@pytest.fixture
def twoqubit_couplings():
    l = 1.0 / np.sqrt(2.0)
    return [l * ket_bra(1, 0, 4), l * ket_bra(3, 1, 4)]


@pytest.fixture
def twoqubit_hamiltonian():
    return -0.5j * ket_bra(0, 1, 4) + 0.5j * ket_bra(1, 0, 4)


@pytest.fixture
def twoqubit(twoqubit_couplings, twoqubit_hamiltonian):
    return ModelSpec(twoqubit_hamiltonian, twoqubit_couplings)


@pytest.fixture
def twoqubit_dissipative(twoqubit_couplings):
    return ModelSpec(np.zeros((4, 4), dtype=complex), twoqubit_couplings)


@pytest.fixture
def twoqubit_v():
    return np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)


@pytest.fixture
def twoqubit_w():
    w = np.zeros((4, 4), dtype=complex)
    w[:2, :2] = 0.5
    return w


def random_model(dim, rng, n_couplings=1):
    from qmstab import random_hermitian, random_matrix

    return ModelSpec(
        random_hermitian(dim, rng),
        [random_matrix(dim, rng) for _ in range(n_couplings)],
    )


def certify_n32_target():
    """The `certify-n32` recipe's target: V = AA' with A of shape 32 x 24."""
    rng = np.random.default_rng([0, 1])
    a = (rng.standard_normal((32, 24)) + 1j * rng.standard_normal((32, 24))) / np.sqrt(2)
    return a @ a.conj().T
