"""Dense complex-Hermitian linear algebra foundation.

Validation of operator invariants, spectral decompositions with degenerate
eigenvalues merged into joint projections, positive-semidefiniteness tests
with failure witnesses, and the standard operator builders (Pauli matrices,
truncated bosonic ladder operators, dyads).

Basis convention: basis vectors are indexed 0, 1, ...; for a qubit the
first basis vector is the excited level, so sigma_z = diag(1, -1) and the
lowering operator maps the first basis vector onto the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Default tolerances. Hermiticity is relative to the entrywise magnitude of
# the operator; PSD tests are relative to the spectral norm (inequalities in
# exact arithmetic are certified only up to conditioning).
HERMITICITY_RTOL = 1e-10
DEGENERACY_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8


class Verdict(str, Enum):
    """Tri-state outcome of a check. `inconclusive` is never folded into
    pass or fail."""

    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class OperatorError(ValueError):
    """An operator violates a structural requirement (shape, finiteness,
    hermiticity, positivity, normalization)."""


# The solver modules raise these two; they live here, with numpy alone, so
# that catching them (as `cli.main` does) imports no solver and no scipy.
class InvariantAnalysisError(RuntimeError):
    """Numerical stationarity analysis failed in a way that should not
    happen for a valid Lindblad model."""


class IntegrationError(RuntimeError):
    """The integrator could not continue (step underflow or a positivity
    violation beyond tolerance)."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise OperatorError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise OperatorError("matrix must have positive dimension")
    if not np.isfinite(arr).all():
        raise OperatorError("matrix contains NaN or Inf entries")
    return arr


def dag(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if np.asarray(a).size else 0.0


def op_norm(a: np.ndarray) -> float:
    """Spectral (largest singular value) norm."""
    return float(np.linalg.norm(np.asarray(a), 2))


def require_hermitian(a, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate hermiticity within `rtol * max(1, ||A||_max)`.

    Inputs failing the test are rejected rather than symmetrized, so that
    construction errors surface early.
    """
    arr = as_complex_matrix(a)
    scale = max(1.0, max_abs(arr))
    dev = max_abs(arr - dag(arr))
    if dev > rtol * scale:
        raise OperatorError(
            f"matrix is not Hermitian: ||A - A^dag||_max = {dev:.3e} "
            f"exceeds {rtol * scale:.3e}"
        )
    return arr


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + dag(a)) / 2.0


@dataclass(frozen=True)
class EigWitness:
    """Eigenpair witnessing the failure of an operator inequality."""

    eigenvalue: float
    vector: np.ndarray


@dataclass(frozen=True)
class PsdReport:
    """Result of a positive-semidefiniteness test.

    `holds` iff the minimum eigenvalue is >= -tol * max(1, ||A||); on
    failure `witness` carries the most negative eigenvalue and its vector.
    """

    verdict: Verdict
    min_eigenvalue: float
    threshold: float
    witness: EigWitness | None = None

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def psd_check(a, tol: float = PSD_TOL) -> PsdReport:
    """Test A >= 0 for a Hermitian operator, up to a relative tolerance."""
    arr = require_hermitian(a)
    w, v = np.linalg.eigh(arr)
    lo = float(w[0])
    threshold = tol * max(1.0, float(np.abs(w).max()))
    if lo >= -threshold:
        return PsdReport(Verdict.HOLDS, lo, threshold)
    return PsdReport(
        Verdict.FAILS, lo, threshold, witness=EigWitness(lo, _frozen(v[:, [0]]).ravel())
    )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and orthogonal projections of a Hermitian operator.

    Eigenvalues are the distinct values in ascending order; eigenvalues
    closer than the merge tolerance are grouped into one projection.
    """

    eigenvalues: np.ndarray
    projections: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for v, p in zip(self.eigenvalues, self.projections):
            out += v * p
        return out


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues with a deterministic eigenbasis: exact
    coordinate vectors for diagonal input (stable sort), otherwise LAPACK
    vectors rotated so that each one's largest-magnitude component is real
    and positive, whatever the LAPACK sign convention."""
    if max_abs(a - np.diag(np.diag(a))) <= 1e-12 * max(1.0, max_abs(a)):
        w = np.diag(a).real.copy()
        order = np.argsort(w, kind="stable")
        return w[order], np.eye(a.shape[0], dtype=complex)[:, order]
    try:
        w, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise OperatorError(f"eigendecomposition failed: {exc}") from exc
    # one column at a time: numpy's vectorized abs rounds differently
    for j in range(vecs.shape[1]):
        z = vecs[int(np.argmax(np.abs(vecs[:, j]))), j]
        vecs[:, j] *= np.conj(z) / abs(z)
    return w, vecs


def eigenlevels(a: np.ndarray, tol: float, descending: bool = False):
    """Eigenvalue levels of a Hermitian operator and the eigenbasis of `eigh`.

    Consecutive eigenvalues whose gap is within `tol` form one level.
    Returns the level values (the mean of each level's eigenvalues), the
    `(start, stop)` column slice of each level, and the eigenvectors as
    columns; ascending order unless `descending` (a stable sort, so
    degenerate columns keep their ascending order).
    """
    w, vecs = eigh(a)
    if descending:
        order = np.argsort(-w, kind="stable")
        w, vecs = w[order], vecs[:, order]
    bounds = [0, *(np.flatnonzero(np.abs(np.diff(w)) > tol) + 1).tolist(), len(w)]
    slices = tuple(zip(bounds[:-1], bounds[1:]))
    values = np.array([np.mean(w[i:j]) for i, j in slices], dtype=float)
    return values, slices, vecs


def spectral_decompose(a, degeneracy_tol: float = DEGENERACY_TOL) -> SpectralDecomposition:
    """Spectral decomposition with degenerate levels merged.

    Consecutive eigenvalues within `degeneracy_tol` (absolute gap) of each
    other are treated as one level and share a single projection.
    """
    values, slices, v = eigenlevels(require_hermitian(a), degeneracy_tol)
    return SpectralDecomposition(
        eigenvalues=values,
        projections=tuple(_frozen(v[:, i:j] @ dag(v[:, i:j])) for i, j in slices),
        multiplicities=tuple(j - i for i, j in slices),
    )


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(
        cls,
        a,
        trace_tol: float = TRACE_TOL,
        positivity_tol: float = POSITIVITY_TOL,
        hermiticity_rtol: float = HERMITICITY_RTOL,
    ) -> "DensityMatrix":
        arr = require_hermitian(a, rtol=hermiticity_rtol)
        tr = np.trace(arr)
        if abs(tr - 1.0) > trace_tol:
            raise OperatorError(f"density matrix trace {tr:.12g} is not 1 within {trace_tol:g}")
        lo = float(np.linalg.eigvalsh(hermitian_part(arr))[0])
        if lo < -positivity_tol:
            raise OperatorError(
                f"density matrix has eigenvalue {lo:.3e} below -{positivity_tol:g}"
            )
        return cls(matrix=_frozen(hermitian_part(arr)))


# ---------------------------------------------------------------------------
# Operator builders
# ---------------------------------------------------------------------------

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "minus": np.array([[0, 0], [1, 0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix, or the raising/lowering combination for axis
    "plus"/"minus". The lowering operator maps the first basis vector
    (excited level) onto the second (ground level)."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise OperatorError(f"unknown Pauli axis {axis!r}; expected one of {sorted(_PAULI)}")


def ladder_lowering(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator: a|i> = sqrt(i)|i-1>."""
    if dim < 2:
        raise OperatorError("ladder operators need dimension >= 2")
    a = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim):
        a[i - 1, i] = np.sqrt(i)
    return a


def number_operator(dim: int) -> np.ndarray:
    """Truncated photon-number operator diag(0, 1, ..., dim-1)."""
    if dim < 2:
        raise OperatorError("number operator needs dimension >= 2")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def ket_bra(i: int, j: int, dim: int) -> np.ndarray:
    """Dyad |i><j| in the computational basis."""
    if dim < 1 or not (0 <= i < dim and 0 <= j < dim):
        raise OperatorError(f"ket_bra indices ({i}, {j}) out of range for dimension {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[i, j] = 1.0
    return out


# ---------------------------------------------------------------------------
# Random sampling (seeded; used by tests, scripts and the benchmark workloads)
# ---------------------------------------------------------------------------

def random_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return hermitian_part(random_matrix(dim, rng))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random state: partial trace of a purified Gaussian vector."""
    g = random_matrix(dim, rng)
    rho = g @ dag(g)
    return rho / np.trace(rho).real
