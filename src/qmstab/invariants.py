"""Invariant states and their classification.

Computes the stationary states of a model from the null space of the real
Schroedinger-side Liouvillian R (`generator.liouvillian`): by one inverse
of R bordered with the trace, which certifies a simple zero eigenvalue
(`bordered-lu`; a sparse LU, or numpy's dense inverse when R is at least
half nonzeros); when it does not, by one dense SVD up to dim 40
(`dense-svd`), and above it by the bordered inverse again, its border
doubled in width until it certifies the whole kernel (`bordered-lu`). Every
answer holds the whole kernel. It classifies them: faithfulness (full-rank
support), subharmonicity of support projections, the connectivity condition
P L'(I-P) L P != 0 linking a projection to its complement, and uniqueness,
read off the same kernel: the invariant state is unique exactly when that
kernel is one-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .generator import (
    _DENSE_FILL,
    MAX_LIOUVILLIAN_ENTRIES,
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

NULL_SPACE_DENSE = "dense-svd"
NULL_SPACE_BORDERED = "bordered-lu"

# When the width-1 bordered LU certifies nothing, one dense SVD of R answers
# up to this dimension: it is exact, also on spectra near-degenerate at the
# tolerance scale, where no border width certifies, and takes 0.12 / 0.56 /
# 1.56 s at dims 24 / 32 / 40, growing as dim^6 (scripts/time_null_space.py;
# 2 CPUs; README "Numerical notes"). Doubling the border width instead took
# 0.75-1.44 s against the SVD's 0.44 s on the dim-32 synthesized model of
# the `certify-n32` recipe.
_DENSE_KERNEL_DIM = 40
# t'R = 0 for the trace functional t, so each eigenvalue lambda != 0 of R is
# one of B = [[R, t], [t', 0]] (its eigenvector has t'v = 0), and a repeated
# or defective zero eigenvalue of R makes B singular: ||B^-1||_1 >= 1/|lambda|
# for every eigenvalue of R but a simple zero, so ||B^-1||_1 < 1/tol_abs rules
# out a second one within tol_abs. A border of k columns absorbs up to k null
# directions, and the same bound certifies that B_k is far from singular. The
# dense path's norm is exact; the sparse path's `onenormest` gives a lower
# bound: a margin.
_BORDERED_MARGIN = 1e3
_CONNECTIVITY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class InvariantStateReport:
    """Stationary set of a model.

    `states` spans the stationary face found; `null_dimension` is the
    kernel dimension of the real Liouvillian before cleanup. A state whose
    cleanup moved it by more than 10x the tolerance is flagged unreliable
    rather than silently accepted. `null_space_method` names the kernel solver
    whose answer is reported (`dense-svd` or `bordered-lu`, see
    `_null_space`); either holds the whole kernel. `inverse_norm_estimate`
    certifies a `bordered-lu` answer and is None otherwise; `notes` names the
    border width when it is above 1.
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


def _null_space_bordered(m: sps.csr_array, k: int, tol_abs: float):
    """Orthonormal null space basis of R from B_k = [[R, U], [U', 0]], with k
    border columns U, and the estimate of ||B_k^-1||_1 that certifies it (see
    `_BORDERED_MARGIN`); None when that estimate does not, or B_k is exactly
    singular. U is the trace functional t, then k - 1 columns drawn from a
    fixed seed and made orthogonal, of t's norm sqrt(dim): B_2k's border
    extends B_k's. From B_k [X; Y] = [0; I_k], R X = -U Y and U'X = I, so a
    unit vector in the span of X c has residual at most dim ||Y c|| / ||c||:
    the basis spans X ker(dim Y), cut at tol_abs as the dense SVD cuts. At
    width 1 the certificate itself rules out a second null direction, and the
    basis is X normalized. B_k is inverted dense when R holds at least
    `_DENSE_FILL` nonzeros (`_bordered_dense`), else factored by one sparse
    LU (`_bordered_sparse`).
    """
    n2 = m.shape[0]
    dim = math.isqrt(n2)
    t = (np.arange(n2) % (dim + 1) == 0).astype(float)  # diagonal coordinates
    u = t[:, None]
    if k > 1:  # drawn row by row, so that B_2k's border extends B_k's
        draws = np.random.default_rng(0).standard_normal((k - 1, n2))
        u = np.linalg.qr(np.column_stack([t, draws.T]))[0] * math.sqrt(dim)
        u[:, 0] = t
    solved = (_bordered_dense if m.nnz >= _DENSE_FILL * n2**2 else _bordered_sparse)(m, u)
    if solved is None or not solved[2] <= 1.0 / (_BORDERED_MARGIN * tol_abs):  # or NaN
        return None
    x, y, estimate = solved
    if k == 1:
        return x / np.linalg.norm(x), estimate
    _, s, vt = np.linalg.svd(dim * y)
    return np.linalg.qr(x @ vt[s <= tol_abs].T)[0], estimate


def _bordered_dense(m: sps.csr_array, u: np.ndarray):
    """B^-1 by numpy's inverse, as (X, Y, ||B^-1||_1). Not by scipy's dense
    LU: alone it is faster, but inside `analyze` its bundled OpenBLAS spins
    beside numpy's, and `analyze` was slower. The explicit inverse gives
    ||B^-1||_1 exactly, its largest column sum, where `_bordered_sparse` has a
    lower bound."""
    n2, k = u.shape
    b = np.zeros((n2 + k,) * 2)
    b[:n2, :n2], b[:n2, n2:], b[n2:, :n2] = m.toarray(), u, u.T
    try:
        inverse = np.linalg.inv(b)
    except np.linalg.LinAlgError:  # exactly singular
        return None
    return inverse[:n2, n2:], inverse[n2:, n2:], float(np.linalg.norm(inverse, 1))


def _bordered_sparse(m: sps.csr_array, u: np.ndarray):
    """(X, Y, estimate of ||B^-1||_1) through one sparse LU (`splu`) and its
    solves. `onenormest(t=1)` starts from the ones vector: its default draws
    from numpy's global RNG. The ones vector can miss a near-null direction
    by orders of magnitude (1.07 against about 1e15 on H = diag(h),
    L = diag(l) at dim 2, whose R holds a rounding-level 2e-16 on a
    population), so the estimate is also at least ||B^-1 r||_1 / ||r||_1 for
    one seeded random r (Dixon, SIAM J. Numer. Anal. 20, 1983). r is drawn
    apart from the border: B^-1 [U c; 0] = [0; c] reveals nothing."""
    import scipy.sparse.linalg as spla  # it loads scipy.linalg: only where used

    n2, k = u.shape
    try:
        lu = spla.splu(sps.block_array([[m, u], [u.T, None]], format="csc"))
    except RuntimeError:  # "Factor is exactly singular"
        return None
    inverse = spla.LinearOperator((n2 + k,) * 2, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda z: lu.solve(z, trans="T"))
    xy = lu.solve(np.eye(n2 + k, k, -n2))
    probe = np.random.default_rng(1).standard_normal(n2 + k)  # not the border's stream
    probed = np.abs(lu.solve(probe)).sum() / np.abs(probe).sum()
    return xy[:n2], xy[n2:], max(float(spla.onenormest(inverse, t=1)), float(probed))


def _null_space(m: sps.csr_array, tol_abs: float):
    """Orthonormal null space basis of a real Liouvillian.

    Returns (basis, method, width, inverse_norm_estimate); the null dimension
    is the basis' column count. The bordered LU answers at width 1 when its
    estimate certifies a simple zero eigenvalue; otherwise one dense SVD,
    which is exact, up to `_DENSE_KERNEL_DIM`. Above it the border width
    doubles, from the least power of two >= 2 and >= R's structural rank
    deficiency, until the bordered LU certifies the kernel (`width`; None for
    the SVD); past a width of dim^2, or a B_k that would store more than
    `MAX_LIOUVILLIAN_ENTRIES` entries, it raises InvariantAnalysisError.
    """
    found = _null_space_bordered(m, 1, tol_abs)
    if found is not None:
        return found[0], NULL_SPACE_BORDERED, 1, found[1]
    n2 = m.shape[0]
    if n2 <= _DENSE_KERNEL_DIM**2:
        return _null_space_dense(m, tol_abs), NULL_SPACE_DENSE, None, None
    from scipy.sparse.csgraph import structural_rank

    # R's structural rank deficiency bounds the null dimension below, and a
    # narrower B_k is structurally singular, on which SuperLU's factorization
    # failed with BLAS errors printed to stderr
    k = 1 << max(1, (n2 - int(structural_rank(m)) - 1).bit_length())
    widths = [1]
    while found is None:
        stored = (n2 + k) ** 2 if m.nnz >= _DENSE_FILL * n2**2 else m.nnz + 2 * n2 * k
        if k > n2 or stored > MAX_LIOUVILLIAN_ENTRIES:
            raise InvariantAnalysisError(
                "the bordered LU certified no Liouvillian kernel at border widths "
                f"{', '.join(map(str, widths))}, and above dim {_DENSE_KERNEL_DIM} "
                "no dense SVD runs"
            )
        widths.append(k)
        found = _null_space_bordered(m, k, tol_abs)
        k *= 2
    return found[0], NULL_SPACE_BORDERED, widths[-1], found[1]


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

    The kernel of R (`generator.liouvillian`) is solved whole, by
    `_null_space`; a kernel that no solver certifies above dim 40 is an
    InvariantAnalysisError. The Hermitian basis T maps its real
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
    basis, method, width, estimate = _null_space(lv.matrix, tol_abs)
    null_dim = basis.shape[1]
    if null_dim == 0:
        raise InvariantAnalysisError(
            "no Liouvillian null vector within tolerance; a trace-preserving "
            "model always has one, so the input or the tolerance is suspect"
        )
    notes = [] if width in (None, 1) else [
        f"bordered LU certified the kernel at border width {width}"
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
    unique = NOT_UNIQUE if null_dim > 1 else UNIQUE

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
    `steady_states` solves whole: `unique` exactly at dimension 1."""
    report = steady_states(model, tol)
    return UniquenessResult(report.unique, report.null_dimension)


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
