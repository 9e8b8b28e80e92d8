"""Invariant states and their classification.

Computes the stationary states of a model from the null space of the real
Schroedinger-side Liouvillian R (`generator.liouvillian`): by one sparse LU
of R bordered with the trace, which certifies a simple zero eigenvalue
(`bordered-lu`); when it does not, by dense eig up to dim 24 (`dense-eig`)
and by an Arnoldi window above it (`splu-arnoldi`). It classifies them:
faithfulness (full-rank support), subharmonicity of support projections,
the connectivity condition P L'(I-P) L P != 0 linking a projection to its
complement, and a uniqueness test through commutant triviality of the
algebra generated by the Hamiltonian and the couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .generator import (
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
    eigenlevels,
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

NULL_SPACE_DENSE = "dense-eig"
NULL_SPACE_ARNOLDI = "splu-arnoldi"
NULL_SPACE_BORDERED = "bordered-lu"

# When the bordered LU certifies nothing, dense eig of R answers up to this
# dimension: it is exact, where the Arnoldi window can stall or miss copies
# of a repeated null eigenvalue, and takes 0.2-0.3 s at dim 24 but grows as
# dim^6 (scripts/time_null_space.py; numbers in README "Numerical notes").
_DENSE_EIG_DIM = 24
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
# out a second one within tol_abs. `onenormest` gives a lower bound: a margin.
_BORDERED_MARGIN = 1e3
_CONNECTIVITY_THRESHOLD = 1e-9
# Largest commutant constraint matrix, in entries: the 2880 x 576 dense kron
# system that the commutant test used to solve at dim 24 with two couplings.
_COMMUTANT_MAX_ENTRIES = 2880 * 576


@dataclass(frozen=True)
class InvariantStateReport:
    """Stationary set of a model.

    `states` spans the stationary face found; `null_dimension` is the
    kernel dimension of the real Liouvillian before cleanup. A state whose
    cleanup moved it by more than 10x the tolerance is flagged unreliable
    rather than silently accepted. `null_space_method` names the kernel solver
    whose answer is reported (`dense-eig`, `bordered-lu` or `splu-arnoldi`,
    see `_null_space`); `inverse_norm_estimate` certifies a `bordered-lu`
    answer and is None otherwise. `exhaustive` is False when an Arnoldi window
    (only above dim 24) may have missed null vectors, making
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
    """Result of `uniqueness_check`. `span_dimension` is the dimension of
    the *-algebra generated by {H, Lk, Lk'}, None when it was not computed;
    `words_used` is 0, since the commutant is solved without forming words."""

    verdict: str
    commutant_dimension: int | None
    span_dimension: int | None
    words_used: int


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

def _real_span(v: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal real basis of the eigenvectors `v[:, mask]` of a real
    matrix, which span their eigenspace through their real and imaginary
    parts, and its dimension."""
    null = v[:, mask]
    u = np.linalg.svd(np.hstack([null.real, null.imag]), full_matrices=False)[0]
    return u[:, : null.shape[1]], null.shape[1]


def _null_space_dense(m: sps.csr_array, tol_abs: float):
    """Null space basis and dimension by dense eigendecomposition."""
    w, v = np.linalg.eig(m.toarray())
    return _real_span(v, np.abs(w) <= tol_abs)


def _null_space_arnoldi(m: sps.csr_array, tol_abs: float):
    """Null space basis of a real matrix by shift-inverted Arnoldi near zero.

    m - sigma I is factored once by sparse LU (`splu`, CSC) and its solve
    drives ARPACK for the `_NULL_WINDOW` eigenvalues nearest sigma. Krylov
    methods see the copies of a repeated eigenvalue only through rounding,
    so a second run finds the nearest eigenvalue left once the null vectors
    found are deflated. The window is exhaustive when that one lies outside
    the disc |w - sigma| <= sigma + tol_abs, which holds every eigenvalue
    within tol_abs of zero. Raises ArpackNoConvergence when ARPACK does not
    converge, as when the spectrum clusters near sigma.
    """
    n2 = m.shape[0]
    sigma = max(10 * tol_abs, 1e-8)
    lu = spla.splu(sps.csc_array(m - sigma * sps.identity(n2)))
    # a fixed generic start vector keeps repeated runs bit-identical
    v0 = np.random.default_rng(0).standard_normal(n2)
    op = spla.LinearOperator(m.shape, matvec=lu.solve, dtype=float)
    w_inv, v = spla.eigs(op, k=min(_NULL_WINDOW, n2 - 2), which="LM", v0=v0)
    basis, null_dim = _real_span(v, np.abs(sigma + 1.0 / w_inv) <= tol_abs)

    def deflated(x):  # the basis spans an invariant subspace: Schur deflation
        y = lu.solve(x - basis @ (basis.T @ x))
        return y - basis @ (basis.T @ y)

    rest = spla.LinearOperator(m.shape, matvec=deflated, dtype=float)
    w_inv = spla.eigs(rest, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return basis, null_dim, bool(abs(1.0 / w_inv[0]) > sigma + tol_abs)


def _null_space_bordered(m: sps.csr_array):
    """The coordinates x with R x = 0 and trace t'x = 1, from B y = e_last
    by one sparse LU of B (see `_BORDERED_MARGIN`), and the estimate of
    ||B^-1||_1; None when B is exactly singular. `onenormest(t=1)` starts
    from the ones vector: its default draws from numpy's global RNG."""
    n2 = m.shape[0]
    t = (np.arange(n2) % (math.isqrt(n2) + 1) == 0).astype(float)  # diagonal coordinates
    try:
        lu = spla.splu(sps.block_array([[m, t[:, None]], [t[None, :], None]], format="csc"))
    except RuntimeError:  # "Factor is exactly singular"
        return None
    inverse = spla.LinearOperator((n2 + 1,) * 2, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda z: lu.solve(z, trans="T"))
    return lu.solve(np.eye(1, n2 + 1, n2)[0])[:n2], float(spla.onenormest(inverse, t=1))


def _null_space(m: sps.csr_array, tol_abs: float):
    """Orthonormal null space basis and dimension of a real Liouvillian.

    Returns (basis, null_dim, method, exhaustive, inverse_norm_estimate).
    The bordered LU answers when its estimate certifies a simple zero
    eigenvalue; otherwise dense eig, which is exact, up to `_DENSE_EIG_DIM`,
    and shift-inverted Arnoldi above it, whose window that is not exhaustive
    is a lower bound and whose non-convergence raises.
    """
    bordered = _null_space_bordered(m)
    if bordered is not None and bordered[1] <= 1.0 / (_BORDERED_MARGIN * tol_abs):
        x, estimate = bordered
        return x[:, None] / np.linalg.norm(x), 1, NULL_SPACE_BORDERED, True, estimate
    if m.shape[0] <= _DENSE_EIG_DIM**2:
        return (*_null_space_dense(m, tol_abs), NULL_SPACE_DENSE, True, None)
    try:
        vecs, null_dim, exhaustive = _null_space_arnoldi(m, tol_abs)
    except spla.ArpackNoConvergence as exc:
        raise InvariantAnalysisError(
            "shift-inverted Arnoldi did not converge: the Liouvillian spectrum "
            "clusters at the tolerance scale near zero"
        ) from exc
    return vecs, null_dim, NULL_SPACE_ARNOLDI, exhaustive, None


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
    `not_unique` verdict.
    """
    lv = liouvillian(model)
    tol_abs = tol * max(1.0, lv.norm)
    basis, null_dim, method, exhaustive, estimate = _null_space(lv.matrix, tol_abs)
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
# Uniqueness via commutant triviality
# ---------------------------------------------------------------------------

def _commutant(gens: list[np.ndarray], tol: float) -> np.ndarray | None:
    """Basis of the commutant {X : [X, g] = 0 for all g in `gens`} as a
    stack of n x n matrices, or None when its constraint matrix would exceed
    `_COMMUTANT_MAX_ENTRIES` entries.

    `gens[0]` must be Hermitian. In its eigenbasis, with levels merged
    within tol_abs = tol * (largest Frobenius norm of a generator), X is
    block-diagonal, so only in-level entries X_ac are unknown. Each gives
    the column vec(E_ac g - g E_ac) stacked over all rotated generators,
    `gens[0]` included so that merged levels stay constrained. The kernel
    holds the singular values (of the QR triangle) at most tol_abs: a bound
    from the generators, since the largest singular value is itself
    rounding noise when every generator is scalar within the levels.
    """
    n = gens[0].shape[0]
    tol_abs = tol * max(float(np.linalg.norm(g)) for g in gens)
    _, slices, u = eigenlevels(gens[0], tol_abs)
    ia, ic = np.array(
        [(a, c) for i, j in slices for a in range(i, j) for c in range(i, j)]
    ).T
    unknowns = len(ia)
    if len(gens) * n * n * unknowns > _COMMUTANT_MAX_ENTRIES:
        return None
    rot = np.stack([dag(u) @ g @ u for g in gens])
    k = np.arange(unknowns)
    cols = np.zeros((len(gens), n, n, unknowns), dtype=complex)
    cols[:, ia, :, k] = rot[:, ic, :].transpose(1, 0, 2)  # E_ac g: row a is row c of g
    cols[:, :, ic, k] -= rot[:, :, ia]  # g E_ac: column c is column a of g
    r = np.linalg.qr(cols.reshape(-1, unknowns), mode="r")
    _, s, vh = np.linalg.svd(r)
    kernel = vh[s <= tol_abs].conj()
    x = np.zeros((len(kernel), n, n), dtype=complex)
    x[:, ia, ic] = kernel
    return u @ x @ dag(u)


def uniqueness_check(model: ModelSpec, tol: float = 1e-9) -> UniquenessResult:
    """Uniqueness of the invariant state through irreducibility (Theorem 3).

    The commutant of {H, Lk, Lk'} comes from one kernel solve
    (`_commutant`); by von Neumann's double commutant theorem it is trivial
    exactly when these operators generate all n x n matrices, so no words
    are formed (`words_used` is 0). `span_dimension`, the dimension of the
    generated *-algebra, is n^2 or else the dimension of the commutant's
    commutant, solved from two generic Hermitian elements that generate it.

    A nontrivial commutant refutes uniqueness. A trivial one implies it only
    when a faithful invariant state exists (Frigerio 1978), which is not
    tested here: `fixtures/qutrit_branching_decay.json` has commutant 1 and
    a 4-dimensional stationary set. Above the solve's size cap the verdict
    is `inconclusive`, with no dimension.
    """
    n = model.dim
    gens = [model.hamiltonian, *model.couplings, *(dag(l) for l in model.couplings)]
    basis = _commutant(gens, tol)
    if basis is None:
        return UniquenessResult(INCONCLUSIVE, None, None, 0)
    if len(basis) <= 1:  # I always commutes; a tol below rounding can lose it
        return UniquenessResult(UNIQUE, 1, n * n, 0)
    # a fixed generic draw keeps repeated runs bit-identical
    rng = np.random.default_rng(0)
    coef = rng.standard_normal((2, len(basis))) + 1j * rng.standard_normal((2, len(basis)))
    generic = [hermitian_part(np.tensordot(c, basis, axes=1)) for c in coef]
    double = _commutant(generic, tol)
    span_dim = None if double is None else len(double)
    return UniquenessResult(NOT_UNIQUE, len(basis), span_dim, 0)


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
