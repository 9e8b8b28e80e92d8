"""Invariant states and their classification.

Computes the stationary states of a model from the null space of the real
Schroedinger-side Liouvillian R (`generator.liouvillian`): by one inverse
of R bordered with the trace, which certifies a simple zero eigenvalue
(`bordered-lu`; a sparse LU, or numpy's dense inverse when R is at least
half nonzeros); when it does not, by one dense SVD up to dim 40
(`dense-svd`) and by an Arnoldi window above it (`splu-arnoldi`). It
classifies them: faithfulness (full-rank support), subharmonicity of support
projections, the connectivity condition P L'(I-P) L P != 0 linking a
projection to its complement, and uniqueness, read off the same kernel: the
invariant state is unique exactly when that kernel is one-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .generator import (
    _DENSE_FILL,
    ModelSpec,
    generator_heisenberg,
    generator_schroedinger,
    liouvillian,
    unvec,
)
from .operators import (
    PSD_TOL,
    DensityMatrix,
    InvariantAnalysisError,
    OperatorError,
    PsdReport,
    _frozen,
    dag,
    hermitian_part,
    max_abs,
    op_norm,
    psd_check,
    require_hermitian,
    spectral_decompose,
)

UNIQUE = "unique"
NOT_UNIQUE = "not_unique"
INCONCLUSIVE = "inconclusive"

NULL_SPACE_DENSE = "dense-svd"
NULL_SPACE_ARNOLDI = "splu-arnoldi"
NULL_SPACE_BORDERED = "bordered-lu"

# When the bordered LU certifies nothing, one dense SVD of R answers up to
# this dimension: it is exact, where the Arnoldi window can stall or miss
# copies of a repeated null eigenvalue, and takes 0.12 / 0.56 / 1.56 s at
# dims 24 / 32 / 40 against 0.36 / 1.02 / 2.36 s for dense eig, growing as
# dim^6 (scripts/time_null_space.py; 2 CPUs; README "Numerical notes").
_DENSE_KERNEL_DIM = 40
# Shift-inverted Arnoldi asks ARPACK for this many eigenvalues nearest the
# shift: 100-150 LU solves on the `osc-n60` and `small-n24` models when
# forced, and room for every null vector of a model with up to 8 stationary
# directions. The deflated rerun in `_null_space_arnoldi` says when a wider
# kernel, or a repeated null eigenvalue, was not held whole.
_NULL_WINDOW = 8
# t'R = 0 for the trace functional t, so each eigenvalue lambda != 0 of R is
# one of B = [[R, t], [t', 0]] (its eigenvector has t'v = 0), and a repeated
# or defective zero eigenvalue of R makes B singular: ||B^-1||_1 >= 1/|lambda|
# for every eigenvalue of R but a simple zero, so ||B^-1||_1 < 1/tol_abs rules
# out a second one within tol_abs. The dense path's norm is exact; the sparse
# path's `onenormest` gives a lower bound: a margin.
_BORDERED_MARGIN = 1e3
_CONNECTIVITY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class InvariantStateReport:
    """Stationary set of a model.

    `states` spans the stationary face found; `null_dimension` is the
    kernel dimension of the real Liouvillian before cleanup. A state whose
    cleanup moved it by more than 10x the tolerance is flagged unreliable
    rather than silently accepted. `null_space_method` names the kernel solver
    whose answer is reported (`dense-svd`, `bordered-lu` or `splu-arnoldi`,
    see `_null_space`); `inverse_norm_estimate` certifies a `bordered-lu`
    answer and is None otherwise. `exhaustive` is False when an Arnoldi window
    (only above dim 40) may have missed null vectors, making
    `null_dimension` a lower bound.
    """

    states: tuple[DensityMatrix, ...]
    null_dimension: int
    faithful: tuple[bool, ...]
    support_projections: tuple[np.ndarray, ...]
    unique: str
    residuals: tuple[float, ...]
    cleanup_distances: tuple[float, ...]
    reliable: tuple[bool, ...]
    liouvillian_norm: float
    tolerance: float
    null_space_method: str
    exhaustive: bool
    inverse_norm_estimate: float | None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FaithfulnessResult:
    faithful: bool
    support: np.ndarray
    rank: int


@dataclass(frozen=True)
class ConnectivityResult:
    """Norm of P L'(I-P) L P summed over couplings; `connected` iff the
    value exceeds the threshold."""

    projection: np.ndarray
    value: float
    connected: bool
    label: str = ""


@dataclass(frozen=True)
class ConnectivityScan:
    results: tuple[ConnectivityResult, ...]
    all_connected: bool
    counterexample: ConnectivityResult | None
    note: str = (
        "a scan over one family of projections cannot exclude other families; "
        "all-connected here is evidence, not proof, of the universal condition"
    )


@dataclass(frozen=True)
class UniquenessResult:
    """`steady_states`' uniqueness verdict and the kernel it rests on."""

    verdict: str
    null_dimension: int
    exhaustive: bool


def _validate_projection(p, dim: int, allow_trivial: bool = False) -> np.ndarray:
    arr = require_hermitian(p)
    if arr.shape != (dim, dim):
        raise OperatorError(f"projection shape {arr.shape} does not match dimension {dim}")
    if max_abs(arr @ arr - arr) > 1e-8:
        raise OperatorError("matrix is not idempotent: P^2 != P")
    if not allow_trivial:
        rank = int(round(np.trace(arr).real))
        if rank == 0 or rank == dim:
            raise OperatorError("connectivity needs a non-trivial projection (0 != P != I)")
    return arr


# ---------------------------------------------------------------------------
# Stationary states
# ---------------------------------------------------------------------------

def _null_space_dense(m: sps.csr_array, tol_abs: float) -> np.ndarray:
    """Orthonormal null space basis by one dense SVD: the right singular
    vectors with singular values (distances to singularity) at most tol_abs."""
    _, s, vt = np.linalg.svd(m.toarray())
    return vt[s <= tol_abs].T


def _null_space_arnoldi(m: sps.csr_array, tol_abs: float):
    """Null space basis of a real matrix by shift-inverted Arnoldi near zero.

    m - sigma I is factored once by sparse LU (`splu`, CSC) and its solve
    drives ARPACK for the `_NULL_WINDOW` eigenvalues nearest sigma. Krylov
    methods see the copies of a repeated eigenvalue only through rounding,
    so a second run finds the nearest eigenvalue left once the null vectors
    found are deflated. The window is exhaustive when that one lies outside
    the disc |w - sigma| <= sigma + tol_abs, which holds every eigenvalue
    within tol_abs of zero. Returns the basis and whether the window is
    exhaustive. Raises InvariantAnalysisError when ARPACK does not converge,
    as when the spectrum clusters near sigma.
    """
    import scipy.sparse.linalg as spla  # it loads scipy.linalg: only where used

    n2 = m.shape[0]
    sigma = max(10 * tol_abs, 1e-8)
    lu = spla.splu(sps.csc_array(m - sigma * sps.identity(n2)))
    # a fixed generic start vector keeps repeated runs bit-identical
    v0 = np.random.default_rng(0).standard_normal(n2)
    op = spla.LinearOperator(m.shape, matvec=lu.solve, dtype=float)
    try:
        w_inv, v = spla.eigs(op, k=min(_NULL_WINDOW, n2 - 2), which="LM", v0=v0)
        null = v[:, np.abs(sigma + 1.0 / w_inv) <= tol_abs]
        # the real and imaginary parts of a real matrix's eigenvectors span their eigenspace
        u = np.linalg.svd(np.hstack([null.real, null.imag]), full_matrices=False)[0]
        basis = u[:, : null.shape[1]]

        def deflated(x):  # the basis spans an invariant subspace: Schur deflation
            y = lu.solve(x - basis @ (basis.T @ x))
            return y - basis @ (basis.T @ y)

        rest = spla.LinearOperator(m.shape, matvec=deflated, dtype=float)
        w_inv = spla.eigs(rest, k=1, which="LM", v0=v0, return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise InvariantAnalysisError(
            "shift-inverted Arnoldi did not converge: the Liouvillian spectrum "
            "clusters at the tolerance scale near zero"
        ) from exc
    return basis, bool(abs(1.0 / w_inv[0]) > sigma + tol_abs)


def _null_space_bordered(m: sps.csr_array):
    """The coordinates x with R x = 0 and trace t'x = 1, from B y = e_last
    (see `_BORDERED_MARGIN`), and the estimate of ||B^-1||_1; None when B is
    exactly singular. B is inverted dense when R holds at least `_DENSE_FILL`
    nonzeros (`_bordered_dense`), else factored by one sparse LU
    (`_bordered_sparse`)."""
    n2 = m.shape[0]
    t = (np.arange(n2) % (math.isqrt(n2) + 1) == 0).astype(float)  # diagonal coordinates
    return (_bordered_dense if m.nnz >= _DENSE_FILL * n2**2 else _bordered_sparse)(m, t)


def _bordered_dense(m: sps.csr_array, t: np.ndarray):
    """B^-1 by numpy's inverse. Not by scipy's dense LU: alone it is faster,
    but inside `analyze` its bundled OpenBLAS spins beside numpy's, and
    `analyze` was slower. The explicit inverse gives ||B^-1||_1 exactly, its
    largest column sum, where `_bordered_sparse` has a lower bound."""
    n2 = m.shape[0]
    b = np.zeros((n2 + 1,) * 2)
    b[:n2, :n2], b[:n2, n2], b[n2, :n2] = m.toarray(), t, t
    try:
        inverse = np.linalg.inv(b)
    except np.linalg.LinAlgError:  # exactly singular
        return None
    return inverse[:n2, n2], float(np.linalg.norm(inverse, 1))


def _bordered_sparse(m: sps.csr_array, t: np.ndarray):
    """B^-1 through one sparse LU (`splu`) and its solves. `onenormest(t=1)`
    starts from the ones vector: its default draws from numpy's global RNG."""
    import scipy.sparse.linalg as spla  # it loads scipy.linalg: only where used

    n2 = m.shape[0]
    try:
        lu = spla.splu(sps.block_array([[m, t[:, None]], [t[None, :], None]], format="csc"))
    except RuntimeError:  # "Factor is exactly singular"
        return None
    inverse = spla.LinearOperator((n2 + 1,) * 2, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda z: lu.solve(z, trans="T"))
    return lu.solve(np.eye(1, n2 + 1, n2)[0])[:n2], float(spla.onenormest(inverse, t=1))


def _null_space(m: sps.csr_array, tol_abs: float):
    """Orthonormal null space basis of a real Liouvillian.

    Returns (basis, method, exhaustive, inverse_norm_estimate); the null
    dimension is the basis' column count. The bordered LU answers when its
    estimate certifies a simple zero eigenvalue; otherwise one dense SVD,
    which is exact, up to `_DENSE_KERNEL_DIM`, and shift-inverted Arnoldi
    above it, whose window that is not exhaustive is a lower bound and whose
    non-convergence raises.
    """
    bordered = _null_space_bordered(m)
    if bordered is not None and bordered[1] <= 1.0 / (_BORDERED_MARGIN * tol_abs):
        x, estimate = bordered
        return x[:, None] / np.linalg.norm(x), NULL_SPACE_BORDERED, True, estimate
    if m.shape[0] <= _DENSE_KERNEL_DIM**2:
        return _null_space_dense(m, tol_abs), NULL_SPACE_DENSE, True, None
    vecs, exhaustive = _null_space_arnoldi(m, tol_abs)
    return vecs, NULL_SPACE_ARNOLDI, exhaustive, None


def _orthonormal_append(basis: list[np.ndarray], x: np.ndarray, floor: float) -> bool:
    """Gram-Schmidt step in the Hilbert-Schmidt inner product: append the
    normalized part of `x` orthogonal to the orthonormal `basis` when its
    norm exceeds `floor`, and say whether it did."""
    r = x.copy()
    for b in basis:
        r -= np.trace(dag(b) @ r) * b
    nrm = float(np.sqrt(np.trace(dag(r) @ r).real))
    if nrm > floor:
        basis.append(r / nrm)
    return nrm > floor


def steady_states(model: ModelSpec, tol: float = 1e-9) -> InvariantStateReport:
    """Stationary states from the null space of the real Liouvillian.

    The kernel of R (`generator.liouvillian`) is solved whole (per sector,
    ARPACK stalls on mid-size sectors). The Hermitian basis T maps its real
    orthonormal basis to Hermitian matrices, each eigenvalue-clipped at -tol
    and renormalized to unit trace; tolerances scale with the 1-norm of the
    complex Liouvillian.
    Degenerate stationary spaces are returned as a basis of states with the
    `not_unique` verdict. A `tol` not finite and positive is an OperatorError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise OperatorError(f"tolerance must be finite and positive, got {tol!r}")
    lv = liouvillian(model)
    tol_abs = tol * max(1.0, lv.norm)
    basis, method, exhaustive, estimate = _null_space(lv.matrix, tol_abs)
    null_dim = basis.shape[1]
    if null_dim == 0:
        raise InvariantAnalysisError(
            "no Liouvillian null vector within tolerance; a trace-preserving "
            "model always has one, so the input or the tolerance is suspect"
        )
    notes = [] if exhaustive else [
        f"Arnoldi window returned {null_dim} null vectors and may have "
        "missed more; null_dimension is a lower bound"
    ]

    # a basis direction's sign is arbitrary: flipping its coordinates to a
    # nonnegative trace, before T, leaves no signed zeros for eigh to see
    basis = basis * np.where(basis[:: model.dim + 1].sum(axis=0) < 0, -1.0, 1.0)
    candidates: list[tuple[np.ndarray, float]] = []
    for y in (unvec(x) for x in (lv.basis @ basis).T):
        tr = float(np.trace(y).real)
        w, v = np.linalg.eigh(y)
        if w[0] >= -tol_abs and tr > tol:
            clipped = v @ np.diag(np.clip(w, 0.0, None)) @ dag(v)
            rho = clipped / np.trace(clipped).real
            candidates.append((rho, max_abs(rho - y / tr)))
        else:
            # Traceless or indefinite direction: its positive and negative
            # parts are stationary individually (the stationary set is a
            # face), so both are offered as candidates.
            for sign in (1.0, -1.0):
                part = v @ np.diag(np.clip(sign * w, 0.0, None)) @ dag(v)
                tr_part = float(np.trace(part).real)
                if tr_part > tol:
                    candidates.append((part / tr_part, 0.0))

    states: list[DensityMatrix] = []
    residuals: list[float] = []
    cleanups: list[float] = []
    reliable: list[bool] = []
    kept_directions: list[np.ndarray] = []
    for rho, cleanup in candidates:
        resid = max_abs(generator_schroedinger(model, rho))
        if resid > 10 * tol_abs:
            continue
        if not _orthonormal_append(kept_directions, rho, 1e-8):
            continue  # dependent on already-kept states
        try:
            dm = DensityMatrix.from_matrix(rho, trace_tol=1e-8, positivity_tol=10 * tol_abs)
        except OperatorError:
            continue
        states.append(dm)
        residuals.append(resid)
        cleanups.append(cleanup)
        reliable.append(cleanup <= 10 * tol)
        if len(states) >= null_dim:
            break

    if not states:
        raise InvariantAnalysisError(
            "null space found but no valid density matrix could be extracted"
        )
    if len(states) < null_dim:
        notes.append(
            f"{len(states)} independent states extracted from a null space of "
            f"dimension {null_dim}"
        )

    faith = [faithfulness_check(dm, tol) for dm in states]
    unique = NOT_UNIQUE if null_dim > 1 else UNIQUE if exhaustive else INCONCLUSIVE

    return InvariantStateReport(
        states=tuple(states),
        null_dimension=null_dim,
        faithful=tuple(f.faithful for f in faith),
        support_projections=tuple(f.support for f in faith),
        unique=unique,
        residuals=tuple(residuals),
        cleanup_distances=tuple(cleanups),
        reliable=tuple(reliable),
        liouvillian_norm=lv.norm,
        tolerance=tol,
        null_space_method=method,
        exhaustive=exhaustive,
        inverse_norm_estimate=estimate,
        notes=tuple(notes),
    )


def faithfulness_check(rho, tol: float = 1e-9) -> FaithfulnessResult:
    """Rank and support projection of a state; faithful iff full rank."""
    arr = rho.matrix if isinstance(rho, DensityMatrix) else require_hermitian(rho)
    w, v = np.linalg.eigh(arr)
    mask = w > tol
    rank = int(mask.sum())
    support = v[:, mask] @ dag(v[:, mask])
    return FaithfulnessResult(
        faithful=rank == arr.shape[0], support=_frozen(support), rank=rank
    )


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def connectivity_check(
    model: ModelSpec, p, threshold: float = _CONNECTIVITY_THRESHOLD, label: str = ""
) -> ConnectivityResult:
    """Evaluate sum_k ||P Lk'(I-P) Lk P|| for a non-trivial projection."""
    parr = _validate_projection(p, model.dim)
    comp = np.eye(model.dim) - parr
    value = 0.0
    for l in model.couplings:
        value += op_norm(parr @ dag(l) @ comp @ l @ parr)
    return ConnectivityResult(
        projection=_frozen(parr),
        value=float(value),
        connected=value > threshold,
        label=label,
    )


def _resolve_family(model: ModelSpec, family) -> list[tuple[str, np.ndarray]]:
    n = model.dim
    if isinstance(family, str):
        if family != "coordinate":
            raise OperatorError(f"unknown projection family {family!r}")
        eye = np.eye(n, dtype=complex)
        return [(f"|{i}><{i}|", np.outer(eye[:, i], eye[:, i].conj())) for i in range(n)]
    if isinstance(family, np.ndarray):
        if family.shape != (n, n):
            raise OperatorError(f"operator shape {family.shape} does not match dimension {n}")
        sd = spectral_decompose(family)
        return [
            (f"eigenspace[{i}] (value {sd.eigenvalues[i]:.6g})", np.asarray(p))
            for i, p in enumerate(sd.projections)
        ]
    return [(f"member[{i}]", _validate_projection(p, n, allow_trivial=True)) for i, p in enumerate(family)]


def connectivity_scan(
    model: ModelSpec, family, threshold: float = _CONNECTIVITY_THRESHOLD
) -> ConnectivityScan:
    """Check every family member and every cumulative partial sum.

    The family may be the string "coordinate", a Hermitian operator (its
    spectral projections are used), or an explicit list of projections.
    Partial sums realize the induction that connects any union of family
    members to its complement; the full sum (= I) is trivial and skipped.
    """
    members = _resolve_family(model, family)
    total = sum(p for _, p in members)
    if max_abs(total - np.eye(model.dim)) > 1e-8:
        raise OperatorError("projection family does not resolve the identity")
    results: list[ConnectivityResult] = []
    for name, p in members:
        if int(round(np.trace(p).real)) in (0, model.dim):
            continue
        results.append(connectivity_check(model, p, threshold, label=name))
    running = np.zeros((model.dim, model.dim), dtype=complex)
    for i, (name, p) in enumerate(members[:-1]):
        running = running + p
        if i == 0:
            continue  # identical to the first member's own check
        results.append(
            connectivity_check(model, running, threshold, label=f"partial sum through member {i}")
        )
    counterexample = next((r for r in results if not r.connected), None)
    return ConnectivityScan(
        results=tuple(results),
        all_connected=counterexample is None,
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# Uniqueness
# ---------------------------------------------------------------------------

def uniqueness_check(model: ModelSpec, tol: float = 1e-9) -> UniquenessResult:
    """Uniqueness of the invariant state (Theorem 3) from the kernel that
    `steady_states` solves: `not_unique` above dimension 1, `unique` at 1
    when the solve was exhaustive, else `inconclusive`."""
    report = steady_states(model, tol)
    return UniquenessResult(report.unique, report.null_dimension, report.exhaustive)


# ---------------------------------------------------------------------------
# Subharmonicity
# ---------------------------------------------------------------------------

def subharmonicity_check(model: ModelSpec, p, tol: float = PSD_TOL) -> PsdReport:
    """Check G(P) >= 0, the generator form of a subharmonic projection.

    Support projections of invariant states satisfy this; a generic
    projection normally fails with a negative-eigenvalue witness.
    """
    parr = _validate_projection(p, model.dim, allow_trivial=True)
    gp = hermitian_part(generator_heisenberg(model, parr))
    return psd_check(gp, tol)
