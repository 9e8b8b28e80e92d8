"""Lindblad generators and the real matrix of the generator on states.

Builds the Heisenberg-picture generator G(X) = -i[X,H] + L(X) with
dissipator L(X) = sum_k (Lk' X Lk - 1/2 {Lk' Lk, X}), its Schroedinger
(predual) counterpart G* acting on states, the dissipation functional
D(X) = G(X'X) - G(X')X - X'G(X) and the per-coupling diffusion
coefficients. `liouvillian` gives the one superoperator matrix: G* in an
orthonormal basis of Hermitian matrices, where it is real. The Heisenberg
picture is its transpose.

Vectorization is column-stacking (`order="F"`); the convention is fixed and
covered by consistency tests, so no consumer depends on it implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .operators import (
    DensityMatrix,
    OperatorError,
    _frozen,
    as_complex_matrix,
    dag,
    max_abs,
    require_hermitian,
)

if TYPE_CHECKING:
    import scipy.sparse as sps

# The cap bounds the dim^2 x dim^2 problems handed to the null-space solves
# and the propagator. At the cap, `steady_states` of the sparse oscillator
# H = N, L = a + a'/2 (n = 128) takes 0.26-0.31 s at 115 MB peak RSS on the
# bordered LU (2 CPUs).
MAX_LIOUVILLIAN_DIM = 128

# `liouvillian` refuses, before it allocates them, more predicted entries
# (fill n^4) than this. Dense couplings give n^4, and assembling them peaked
# at 57-61 bytes an entry above the baseline RSS (the complex M at 16, the
# dense R at 8 and its CSR conversion; seeded random models with two
# couplings, n = 32, 40 and 48, 2 CPUs): 2^24 entries, dense n = 64, take
# about 1 GB, where the dimension cap alone admits 6 GB at n = 100 and
# 16 GB at n = 128.
MAX_LIOUVILLIAN_ENTRIES = 2**24

# At a predicted fill of M at or above this, `liouvillian` assembles R dense,
# and at an actual fill of R at or above it `invariants._null_space_bordered`
# inverts the bordered R dense. Memory: CSR holds 12 bytes an entry (value
# and column index) against 8 dense, so a dense R is smaller from a fill of
# 2/3 and at most 4/3 the size of CSR from 1/2. Time: on the `banded` rows of
# scripts/time_null_space.py (README "Numerical notes"; 2 CPUs) both dense
# steps are as fast as the sparse ones from a predicted fill of about 0.3 at
# n = 24 and 30, and faster from 1/2. A cut at or below 0.22 would move the
# near-degenerate dim-9 Hamiltonian of the property tests onto the dense R,
# whose different rounding ARPACK then fails to converge on.
_DENSE_FILL = 0.5

_SUPEROP_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """A quantum Markov model: Hamiltonian plus coupling operators.

    Single-coupling models are lists of length one; all Lindblad terms are
    summed over the couplings.
    """

    hamiltonian: np.ndarray
    couplings: tuple[np.ndarray, ...]

    def __init__(self, hamiltonian, couplings: Sequence):
        h = require_hermitian(hamiltonian)
        ls = tuple(as_complex_matrix(l) for l in couplings)
        if not ls:
            raise OperatorError("model needs at least one coupling operator")
        for l in ls:
            if l.shape != h.shape:
                raise OperatorError(
                    f"coupling shape {l.shape} does not match Hamiltonian shape {h.shape}"
                )
        object.__setattr__(self, "hamiltonian", _frozen(h))
        object.__setattr__(self, "couplings", tuple(_frozen(l) for l in ls))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def state_matrix(rho) -> np.ndarray:
    """Accept either a DensityMatrix or a raw matrix."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return as_complex_matrix(rho)


def _check_dim(model: ModelSpec, x: np.ndarray) -> None:
    if x.shape != (model.dim, model.dim):
        raise OperatorError(
            f"operator shape {x.shape} does not match model dimension {model.dim}"
        )


def dissipator(model: ModelSpec, x) -> np.ndarray:
    """Dissipative part sum_k (Lk' X Lk - 1/2 Lk'Lk X - 1/2 X Lk'Lk)."""
    arr = as_complex_matrix(x)
    _check_dim(model, arr)
    out = np.zeros_like(arr)
    for l in model.couplings:
        ld = dag(l)
        ldl = ld @ l
        out += ld @ arr @ l - 0.5 * (ldl @ arr + arr @ ldl)
    return out


def generator_heisenberg(model: ModelSpec, x) -> np.ndarray:
    """Heisenberg generator G(X) = -i[X, H] + dissipator(X)."""
    arr = as_complex_matrix(x)
    _check_dim(model, arr)
    h = model.hamiltonian
    return -1j * (arr @ h - h @ arr) + dissipator(model, arr)


def generator_schroedinger(model: ModelSpec, rho) -> np.ndarray:
    """Predual generator -i[H, rho] + sum_k (Lk rho Lk' - 1/2 {Lk'Lk, rho})."""
    arr = state_matrix(rho)
    _check_dim(model, arr)
    h = model.hamiltonian
    out = -1j * (h @ arr - arr @ h)
    for l in model.couplings:
        ldl = dag(l) @ l
        out += l @ arr @ dag(l) - 0.5 * (ldl @ arr + arr @ ldl)
    return out


def dissipation_functional(model: ModelSpec, x) -> np.ndarray:
    """D(X) = G(X'X) - G(X')X - X'G(X); positive semidefinite for all X.

    Equal to sum_k [X, Lk]' [X, Lk], which tests use as the independent
    cross-check.
    """
    arr = as_complex_matrix(x)
    _check_dim(model, arr)
    xd = dag(arr)
    return (
        generator_heisenberg(model, xd @ arr)
        - generator_heisenberg(model, xd) @ arr
        - xd @ generator_heisenberg(model, arr)
    )


def heisenberg_diffusion(model: ModelSpec, x) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-coupling diffusion coefficients (B, C).

    B = 1/2 ([X, L] + [L', X]) and C = i/2 (-[X, L] + [L', X]); both are
    Hermitian whenever X is.
    """
    arr = as_complex_matrix(x)
    _check_dim(model, arr)
    out = []
    for l in model.couplings:
        xl = arr @ l - l @ arr
        ldx = dag(l) @ arr - arr @ dag(l)
        out.append((0.5 * (xl + ldx), 0.5j * (-xl + ldx)))
    return out


# ---------------------------------------------------------------------------
# Vectorization and Liouvillian matrices
# ---------------------------------------------------------------------------

def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).reshape(-1, order="F")

def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise OperatorError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((n, n), order="F")


@dataclass(frozen=True)
class Superoperator:
    """The Schroedinger generator G* as a real matrix on coherence vectors.

    `basis` is the sparse unitary T whose columns are vec of E_ii,
    (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2 (i < j), placed at the
    column-stacked positions of (i, i), (i, j) and (j, i). `matrix` is the
    real CSR matrix R with vec(G*(X)) = T R T' vec(X). Since
    tr(G*(rho) X) = tr(rho G(X)), the Heisenberg generator G is R^T in the
    same basis. `norm` is the induced 1-norm of the complex M = T R T', the
    scale of every null-space tolerance. `predicted_fill` is the bound on
    M's share of nonzeros, at most 1, that chose how R was assembled.
    """

    basis: sps.csr_array
    matrix: sps.csr_array
    norm: float
    predicted_fill: float

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


def liouvillian(model: ModelSpec) -> Superoperator:
    """The Schroedinger generator of `model` in the Hermitian basis.

    With K = -iH - 1/2 sum Lk'Lk, G*(rho) = K rho + rho K' + sum Lk rho Lk',
    and column-stacked, vec(A X B) = kron(B^T, A) vec(X), so M has at most
    sum nnz(Lk)^2 + 2n nnz(K) nonzeros. Below a fill of `_DENSE_FILL` M is
    assembled in CSR from Kronecker products and rotated once: a map that
    preserves Hermiticity is real in the Hermitian basis (the coherence
    vector; Alicki & Lendi, Lect. Notes Phys. 717, 2007), so
    R = (T' M T).real loses only rounding. At or above it, M is one dense
    product of the stacked couplings plus K on its block diagonals, and R is
    gathered from M's rows and columns by index, without T, then stored as
    CSR. A model with more than `MAX_LIOUVILLIAN_ENTRIES` predicted entries
    is refused before either. The diagonal coordinates sum to the trace, so
    their rows of R must sum to zero (trace preservation).
    """
    # imported here, so that runs which build no Liouvillian (synthesis,
    # Lyapunov and LaSalle checks) load no scipy: a cold `import scipy.sparse`
    # took 0.33 s and 49 MB against 0.19 s and 27 MB for numpy alone, and
    # `scipy.sparse.linalg`, which loads `scipy.linalg`, 0.12 s and 10 MB more,
    # so `invariants` imports it only where a sparse LU runs (2 CPUs, scipy 1.17.1)
    import scipy.sparse as sps

    n = model.dim
    if n > MAX_LIOUVILLIAN_DIM:
        raise OperatorError(f"dimension {n} exceeds the Liouvillian cap {MAX_LIOUVILLIAN_DIM}")

    k_op = -1j * model.hamiltonian - 0.5 * sum(dag(l) @ l for l in model.couplings)
    nnz = sum(np.count_nonzero(l) ** 2 for l in model.couplings) + 2 * n * np.count_nonzero(k_op)
    entries = min(int(nnz), n**4)
    if entries > MAX_LIOUVILLIAN_ENTRIES:
        raise OperatorError(f"the Liouvillian of dimension {n} would hold {entries} entries, "
                            f"more than {MAX_LIOUVILLIAN_ENTRIES}")
    fill = entries / n**4

    i, j = np.triu_indices(n, 1)
    diag, up, lo = np.arange(n) * (n + 1), i + j * n, j + i * n
    s = np.full(i.size, np.sqrt(0.5))
    t = sps.csr_array((np.concatenate([np.ones(n), s, s, 1j * s, -1j * s]),
                       (np.r_[diag, up, lo, up, lo], np.r_[diag, up, up, lo, lo])), shape=(n * n,) * 2)
    r, norm = _dense_real(model.couplings, k_op) if fill >= _DENSE_FILL else _sparse_real(model, t)
    residual = max_abs(r[diag].sum(axis=0))
    if residual > _SUPEROP_TOL * max(1.0, norm):
        raise OperatorError(f"Liouvillian does not preserve the trace (residual {residual:.3e})")
    return Superoperator(t, r, norm, fill)


def _sparse_real(model: ModelSpec, basis: sps.csr_array) -> tuple[sps.csr_array, float]:
    """R and the induced 1-norm of M, from M assembled in CSR."""
    import scipy.sparse as sps

    def kron(a, b):
        return sps.kron(sps.csr_array(a), sps.csr_array(b), format="csr")

    eye = sps.identity(model.dim, dtype=complex, format="csr")
    h = model.hamiltonian
    # G*(rho) = -i(H rho - rho H) + sum Lk rho Lk' - 1/2 {Lk'Lk, rho}
    m = 1j * (kron(h.T, eye) - kron(eye, h))
    for l in model.couplings:
        ldl = dag(l) @ l
        m += kron(l.conj(), l)
        m -= 0.5 * (kron(eye, ldl) + kron(ldl.T, eye))
    r = sps.csr_array((basis.conj().T @ m @ basis).real)
    r.eliminate_zeros()
    return r, float(abs(m).sum(axis=0).max())


def _dense_real(couplings, k_op: np.ndarray) -> tuple[sps.csr_array, float]:
    """R and the induced 1-norm of M, from M assembled dense."""
    import scipy.sparse as sps

    n, idx = k_op.shape[0], np.arange(k_op.shape[0])
    i, j = np.triu_indices(n, 1)
    diag, up, lo = idx * (n + 1), i + j * n, j + i * n
    # m[j, l, i, k] = M[i + jn, k + ln]: sum_k kron(conj(Lk), Lk) is one GEMM,
    # and kron(I, K) and kron(conj(K), I) are added on the diagonals j = l
    # and i = k
    flat = np.reshape(couplings, (len(couplings), n * n))
    m = (flat.conj().T @ flat).reshape(n, n, n, n)
    m[idx, idx] += k_op
    m[:, :, idx, idx] += k_op.conj()[:, :, None]
    norm = float(np.abs(m).sum(axis=(0, 2)).max())
    rows = np.r_[diag, up]

    def block(cols):  # M[rows, cols]^T: the scatters below then write rows
        return m[rows // n, cols[:, None] // n, rows % n, cols[:, None] % n]

    # y = (M T)[rows]^T; M preserves Hermiticity, so (M T)[lo] = conj((M T)[up])
    # and T' M T takes its rows up and lo from sqrt2 Re and sqrt2 Im of (M T)[up]
    d, a, b = block(diag), block(up), block(lo)
    del m  # one complex n^4 array at a time
    s, y = np.sqrt(0.5), np.empty((n * n, rows.size), dtype=complex)
    y[diag], y[up], y[lo] = d, s * (a + b), 1j * s * (a - b)
    r = np.empty((n * n, n * n))
    r[diag], r[up], r[lo] = y[:, :n].real.T, 2 * s * y[:, n:].real.T, 2 * s * y[:, n:].imag.T
    # the CSR arrays straight from the nonzero mask, with the int32 indices
    # that sps.csr_array(r) picks below MAX_LIOUVILLIAN_ENTRIES; its detour
    # through COO took 6.5-8.7 ms against 2.2-2.8 ms on a dim-24 R (2 CPUs)
    nz = r != 0
    cols = np.nonzero(nz)[1].astype(np.int32)
    indptr = np.r_[0, np.cumsum(np.count_nonzero(nz, axis=1))].astype(np.int32)
    return sps.csr_array((r[nz], cols, indptr), shape=r.shape), norm
