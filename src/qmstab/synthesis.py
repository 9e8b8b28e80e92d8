"""Constructive coupling engineering for target Lyapunov operators.

Given a target operator V (and optionally a Hamiltonian), builds coupling
operators that make the generator of V negative semidefinite with a
prescribed block structure: degenerate level pairs contribute nothing
(case A), a non-degenerate pair receives a lowering coupling that drains
the higher eigenspace (case B), and a Hamiltonian cross term between the
pair is cancelled by a compensating diagonal entry of the coupling
(case C). Also solves the ground-coupling problem V = M'M with M a
commutator of V and the coupling, which makes the dissipation functional
of V equal to V itself and thereby drives trajectories onto the ground
space of V.

Synthesis works in the descending eigenbasis of V (higher level coupled
down); results are mapped back to the user's basis and the transformation
is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import ModelSpec, generator_heisenberg
from .lyapunov import (GroundConvergenceReport, LyapunovCertificate, _require_psd_input,
                       _shifted_psd, check_theorem8, strict_certificate)
from .operators import (
    DEGENERACY_TOL,
    PSD_TOL,
    OperatorError,
    Verdict,
    _frozen,
    dag,
    eigenlevels,
    eigh,
    hermitian_part,
    max_abs,
    require_hermitian,
)

CASE_DEGENERATE = "A"
CASE_LOWERING = "B"
CASE_COMPENSATED = "C"


@dataclass(frozen=True)
class SynthesisSpec:
    """Target operator, optional Hamiltonian, and the level pairs to couple.

    `pair_selection` lists (higher, lower) indices into the distinct
    eigenvalues of V in ascending order; each selected pair must have a
    positive gap. When omitted, every adjacent pair is coupled downward.
    `coupling_magnitude` is the complex amplitude l != 0 of each engineered
    lowering term.
    """

    v: np.ndarray
    hamiltonian: np.ndarray | None = None
    coupling_magnitude: complex = 1.0
    pair_selection: tuple[tuple[int, int], ...] | None = None
    compensate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "v", _frozen(require_hermitian(self.v)))
        if self.hamiltonian is not None:
            h = require_hermitian(self.hamiltonian)
            if h.shape != self.v.shape:
                raise OperatorError("Hamiltonian shape does not match the target operator")
            object.__setattr__(self, "hamiltonian", _frozen(h))
        if self.coupling_magnitude == 0:
            raise OperatorError("coupling magnitude l must be nonzero")
        if self.pair_selection is not None:
            object.__setattr__(
                self, "pair_selection", tuple((int(a), int(b)) for a, b in self.pair_selection)
            )


@dataclass(frozen=True)
class SynthesisResult:
    """Engineered couplings together with the resulting generator of V.

    `model` is the assembled model whose G(V) is `generator_matrix`: the
    given Hamiltonian (or zero) with the couplings, or one zero coupling
    when there are none. `factors` holds one exact `(left, right)` pair per
    coupling, L = left @ right'; each coupling is built from its pair by
    that product, as the model reader builds a factored coupling, so a
    saved and reloaded model is bit-identical. `failed` marks results
    whose certificate did not hold; they are returned for inspection,
    never silently accepted.
    """

    v: np.ndarray
    model: ModelSpec
    couplings: tuple[np.ndarray, ...]
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]
    generator_matrix: np.ndarray
    level_values: tuple[float, ...]
    level_slices: tuple[tuple[int, int], ...]
    basis_transform: np.ndarray
    certificate: LyapunovCertificate
    pair_cases: tuple[str, ...]
    failed: bool
    notes: tuple[str, ...] = ()

    @property
    def blocks(self) -> dict:
        """`blocks[(i, j)]`: the (i, j) level block of G(V) in the recorded
        eigenbasis (`basis_transform`, columns in the user's basis)."""
        q = self.basis_transform
        g = _frozen(dag(q) @ self.generator_matrix @ q)
        return {
            (i, j): g[si:ei, sj:ej]
            for i, (si, ei) in enumerate(self.level_slices)
            for j, (sj, ej) in enumerate(self.level_slices)
        }


def synthesize_coupling(spec: SynthesisSpec, tol: float = PSD_TOL) -> SynthesisResult:
    """Build one lowering coupling per selected pair and certify G(V) <= 0.

    Cross-pair interactions are not re-engineered: the assembled model is
    recomputed from scratch and, if the certificate fails, the result is
    flagged failed.
    """
    values, slices, q = eigenlevels(spec.v, DEGENERACY_TOL, descending=True)
    n = spec.v.shape[0]
    n_levels = len(values)
    notes: list[str] = []
    cases: list[str] = []
    factors: list[tuple[np.ndarray, np.ndarray]] = []

    if spec.pair_selection is None:
        # adjacent pairs, each higher level coupled one step down; indices
        # here are positions in the descending-ordered levels
        pairs = [(i, i + 1) for i in range(n_levels - 1)]
    else:
        # user indices refer to ascending distinct eigenvalues, so hi > lo
        # is a positive gap
        for hi, lo in spec.pair_selection:
            if not (0 <= hi < n_levels and 0 <= lo < n_levels):
                raise OperatorError(f"pair ({hi}, {lo}) out of range for {n_levels} levels")
            if hi <= lo:
                raise OperatorError(
                    f"pair ({hi}, {lo}) needs hi > lo: couple a higher level down to a lower one"
                )
        pairs = [(n_levels - 1 - hi, n_levels - 1 - lo) for hi, lo in spec.pair_selection]

    if n_levels == 1:
        notes.append(
            "target operator is fully degenerate; no coupling can act on it and "
            "the whole space is irreducible for this pair (case A)"
        )
        cases.append(CASE_DEGENERATE)

    h_eigen = dag(q) @ spec.hamiltonian @ q if spec.hamiltonian is not None else None

    for hi_pos, lo_pos in pairs:
        label = f"pair ({n_levels - 1 - hi_pos}, {n_levels - 1 - lo_pos})"  # ascending indices
        hs, he = slices[hi_pos]
        ls, le = slices[lo_pos]
        d_hi, d_lo = he - hs, le - ls
        hops = min(d_hi, d_lo)
        l_eigen = np.zeros((n, n), dtype=complex)
        for j in range(hops):
            l_eigen[ls + j, hs + j] = spec.coupling_magnitude
        if d_hi != d_lo:
            notes.append(
                f"{label} has mismatched eigenspace dimensions "
                f"({d_hi} vs {d_lo}); {hops} lowering channel(s) emitted"
            )
        case = CASE_LOWERING
        rows = slice(ls, ls + hops)
        if h_eigen is not None and spec.compensate:
            h_block = h_eigen[ls:le, hs:he]
            if max_abs(h_block) <= tol:
                notes.append(
                    f"{label}: Hamiltonian has no cross term "
                    "between these levels; plain lowering coupling suffices (case B)"
                )
            else:
                # cancel the Hamiltonian cross term between the pair:
                # the off-diagonal generator block is
                #   (1/2)(v_lo - v_hi) L00' L01 + i (v_hi - v_lo) H01,
                # so L00' L01 = 2i H01 removes it; solve X E = 2i H01 for
                # X = L00' by least squares.
                case = CASE_COMPENSATED
                rows = slice(ls, le)
                e_block = l_eigen[ls:le, hs:he]
                x_t, *_ = np.linalg.lstsq(e_block.T, (2j * h_block).T, rcond=None)
                l00_dag = x_t.T
                residual = max_abs(l00_dag @ e_block - 2j * h_block)
                l_eigen[ls:le, ls:le] = dag(l00_dag)
                if residual > 1e-9 * max(1.0, max_abs(h_block)):
                    notes.append(
                        f"{label}: Hamiltonian cross term only "
                        f"partially compensated (residual {residual:.3e})"
                    )
        cases.append(case)
        # only `rows` of l_eigen are nonzero, so q l_eigen q' = left right'
        left = np.ascontiguousarray(q[:, rows])  # the row-major layout the reader gives
        factors.append((_frozen(left), _frozen(q @ dag(l_eigen[rows, :]))))
    couplings = [left @ dag(right) for left, right in factors]

    h_user = spec.hamiltonian if spec.hamiltonian is not None else np.zeros((n, n), complex)
    model = ModelSpec(h_user, couplings or [np.zeros((n, n), dtype=complex)])
    g = hermitian_part(generator_heisenberg(model, spec.v))

    v_psd, shift, shift_notes = _shifted_psd(spec.v, tol)
    notes += shift_notes
    certificate = strict_certificate(g, v_psd, tol, shift)
    failed = certificate.verdict is not Verdict.HOLDS
    if failed:
        notes.append(
            "assembled generator is not negative semidefinite; pairwise synthesis "
            "cannot compensate the remaining interactions, result flagged failed"
        )

    return SynthesisResult(
        v=spec.v,
        model=model,
        couplings=tuple(_frozen(c) for c in couplings),
        factors=tuple(factors),
        generator_matrix=_frozen(g),
        level_values=tuple(float(x) for x in values),
        level_slices=slices,
        basis_transform=_frozen(q),
        certificate=certificate,
        pair_cases=tuple(cases),
        failed=failed,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Ground coupling from a factorization of V
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingFamily:
    """Affine family fixed + sum_j c_j F_j of couplings solving the
    commutation equation; the free directions act inside the positive and
    kernel eigenspaces and leave the commutator unchanged."""

    fixed: np.ndarray
    free_basis: tuple[np.ndarray, ...]

    def member(self, coefficients) -> np.ndarray:
        out = self.fixed.copy()
        for c, f in zip(coefficients, self.free_basis):
            out = out + c * f
        return out


@dataclass(frozen=True)
class GroundCouplingResult:
    verdict: Verdict
    m: np.ndarray | None = None
    family: CouplingFamily | None = None
    default_coupling: np.ndarray | None = None
    factorization_residual: float | None = None
    convergence: GroundConvergenceReport | None = None
    explanation: str = ""


def solve_ground_coupling(v, tol: float = PSD_TOL) -> GroundCouplingResult:
    """Factor V = M'M with M lowering the positive eigenspace into the
    kernel, and solve the commutation equation [L, V] = M for L.

    Supported pattern: V with a single positive level of rank p and a
    kernel of dimension >= p (the two-level case and its block versions).
    The returned default member zeroes all free parameters; its generator
    conditions are certified via the ground-convergence checker with a
    zero Hamiltonian.
    """
    varr = require_hermitian(v)
    n = varr.shape[0]
    _require_psd_input("V", varr, tol)

    if max_abs(varr) <= tol:
        zero = np.zeros((n, n), dtype=complex)
        return GroundCouplingResult(
            verdict=Verdict.HOLDS,
            m=_frozen(zero),
            family=CouplingFamily(fixed=_frozen(zero), free_basis=()),
            default_coupling=_frozen(zero),
            factorization_residual=0.0,
            explanation="V = 0: M = 0 and every coupling solves the equation trivially",
        )

    w, vecs = eigh(varr)
    vscale = max(1.0, float(np.abs(w).max()))
    kernel_mask = w <= tol * vscale
    k = int(kernel_mask.sum())
    pos_vals = w[~kernel_mask]
    if k == 0:
        return GroundCouplingResult(
            verdict=Verdict.INCONCLUSIVE,
            explanation=(
                "V is positive definite: its ground set is empty and no lowering "
                "factorization exists"
            ),
        )
    spread = float(pos_vals.max() - pos_vals.min())
    p = len(pos_vals)
    if spread > DEGENERACY_TOL * vscale or p > k:
        return GroundCouplingResult(
            verdict=Verdict.INCONCLUSIVE,
            explanation=(
                "unsupported pattern: the lowering factorization is implemented for "
                "a single positive level whose rank does not exceed the kernel "
                f"dimension (got {p} positive value(s) with spread {spread:.3g} "
                f"and kernel dimension {k})"
            ),
        )

    val = float(pos_vals.mean())
    pos_vecs = vecs[:, ~kernel_mask]
    ker_vecs = vecs[:, kernel_mask]
    # M = sqrt(v) * (isometry positive -> kernel); then M'M = v P_pos = V.
    m_op = np.zeros((n, n), dtype=complex)
    for j in range(p):
        m_op += np.sqrt(val) * np.outer(ker_vecs[:, j], pos_vecs[:, j].conj())
    residual = max_abs(dag(m_op) @ m_op - varr)

    fixed = m_op / val
    free: list[np.ndarray] = []
    for block in (pos_vecs, ker_vecs):
        for i in range(block.shape[1]):
            for j in range(block.shape[1]):
                free.append(_frozen(np.outer(block[:, i], block[:, j].conj())))
    family = CouplingFamily(fixed=_frozen(fixed), free_basis=tuple(free))
    default = family.fixed

    comm_residual = max_abs((default @ varr - varr @ default) - m_op)
    model = ModelSpec(np.zeros((n, n), dtype=complex), [default])
    convergence = check_theorem8(model, varr, tol)
    verdict = convergence.verdict
    if comm_residual > 1e-9 * vscale:
        verdict = Verdict.FAILS

    return GroundCouplingResult(
        verdict=verdict,
        m=_frozen(m_op),
        family=family,
        default_coupling=default,
        factorization_residual=residual,
        convergence=convergence,
    )


# ---------------------------------------------------------------------------
# Round-trip verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisVerification:
    verdict: Verdict
    max_block_deviation: float
    first_mismatch: tuple[int, int] | None
    certificate: LyapunovCertificate | None


def verify_synthesis(
    result: SynthesisResult, model: ModelSpec, tol: float = 1e-10
) -> SynthesisVerification:
    """Recompute G(V) from scratch for `model` and compare it with the
    recorded generator in the recorded eigenbasis; `first_mismatch` is the
    first level block (row-major) off by more than `tol`. Re-runs the
    certificate when every block matches."""
    g = hermitian_part(generator_heisenberg(model, result.v))
    q = result.basis_transform
    deviation = np.abs(dag(q) @ (g - result.generator_matrix) @ q)
    sizes = [stop - start for start, stop in result.level_slices]
    level = np.repeat(np.arange(len(sizes)), sizes)
    bad = np.argwhere(deviation > tol)
    first = min(((int(level[r]), int(level[c])) for r, c in bad), default=None)
    recorded = result.certificate
    cert = None if first else strict_certificate(g, recorded.v, recorded.tolerance, recorded.shift)
    return SynthesisVerification(
        verdict=Verdict.FAILS if first else cert.verdict,
        max_block_deviation=max_abs(deviation),
        first_mismatch=first,
        certificate=cert,
    )
