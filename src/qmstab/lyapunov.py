"""Operator-inequality certificates for quantum Markov stability.

Checks the Lyapunov conditions G(V) <= 0 and G(V) <= -cV + dI, the tail
projection bound implied by a mean bound on a coercive observable, the
invariance-principle hypothesis pairs (tags t5-t7 plus the relaxed form with
a companion operator) and the ground-set convergence conditions (tag t8 on
the CLI). The weak check also reports the best rate c for its V and d.

All inequalities are certified through `psd_check` at a single relative
tolerance (default 1e-9), overridable per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import ModelSpec, dissipation_functional, generator_heisenberg
from .operators import (
    PSD_TOL,
    EigWitness,
    OperatorError,
    PsdReport,
    SpectralDecomposition,
    Verdict,
    _frozen,
    dag,
    hermitian_part,
    max_abs,
    op_norm,
    psd_check,
    require_hermitian,
)

THEOREM_5 = "t5"
THEOREM_6 = "t6"
THEOREM_7 = "t7"
COROLLARY_1 = "corollary1"


@dataclass(frozen=True)
class LyapunovCertificate:
    """Verdict for one operator inequality, with enough data to re-verify.

    `shift` records the multiple of the identity added to V before
    checking positivity; the generator is unchanged by the shift, so the
    inequality itself is unaffected.
    """

    verdict: Verdict
    v: np.ndarray
    c: float | None = None
    d: float | None = None
    w: np.ndarray | None = None
    u: np.ndarray | None = None
    theorem: str | None = None
    tolerance: float = PSD_TOL
    shift: float = 0.0
    witness: EigWitness | None = None
    metrics: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()


def _require_psd_input(name: str, a: np.ndarray, tol: float) -> None:
    report = psd_check(a, tol)
    if not report.holds:
        raise OperatorError(
            f"{name} must be positive semidefinite "
            f"(min eigenvalue {report.min_eigenvalue:.3e})"
        )


def strict_certificate(
    g: np.ndarray, v: np.ndarray, tol: float, shift: float = 0.0, notes: tuple[str, ...] = ()
) -> LyapunovCertificate:
    """Certificate of G(V) <= 0 for the Hermitian generator matrix `g` of `v`.

    `metrics["generator_max_eigenvalue"]` is the largest eigenvalue of G(V);
    on failure the witness carries it (positive) with its eigenvector, a
    pure state along which the expectation of V initially increases.
    """
    report = psd_check(-g, tol)
    witness = None
    if not report.holds:
        witness = EigWitness(-report.min_eigenvalue, report.witness.vector)
    return LyapunovCertificate(
        verdict=report.verdict,
        v=_frozen(v),
        tolerance=tol,
        shift=shift,
        witness=witness,
        metrics={"generator_max_eigenvalue": -report.min_eigenvalue},
        notes=notes,
    )


def check_lyapunov(model: ModelSpec, v, tol: float = PSD_TOL) -> LyapunovCertificate:
    """Strict Lyapunov condition G(V) <= 0 (`strict_certificate`).

    An indefinite V is shifted by a multiple of I to reach positivity, as in
    `check_lasalle_pair`; G(V) does not change under the shift, so neither
    does the verdict. The shift and a note are recorded on the certificate.
    """
    varr, shift, notes = _shifted_psd(require_hermitian(v), tol)
    return strict_certificate(
        hermitian_part(generator_heisenberg(model, varr)), varr, tol, shift, tuple(notes)
    )


def check_weak_lyapunov(
    model: ModelSpec, v, c: float, d: float, tol: float = PSD_TOL
) -> LyapunovCertificate:
    """Weak (exponential) Lyapunov condition G(V) <= -cV + dI, c > 0, d >= 0.

    V must be PSD and nonzero. An indefinite V is rejected, not shifted:
    V + sI meets the condition with offset d + cs, not d. A zero V meets it
    at every c, so it has no best rate. `metrics["best_c"]` is the largest
    c that holds at this d (`_best_rate`).
    """
    if c <= 0 or d < 0:
        raise OperatorError(f"weak Lyapunov condition needs c > 0 and d >= 0, got c={c}, d={d}")
    varr = require_hermitian(v)
    _require_psd_input("V", varr, tol)
    if not varr.any():
        raise OperatorError("V is the zero operator; the weak condition needs a nonzero V")
    gv = hermitian_part(generator_heisenberg(model, varr))
    slack = -gv - c * varr + d * np.eye(model.dim)
    report = psd_check(slack, tol)
    return LyapunovCertificate(
        verdict=report.verdict,
        v=_frozen(varr),
        c=float(c),
        d=float(d),
        tolerance=tol,
        witness=report.witness,
        metrics={
            "slack_min_eigenvalue": report.min_eigenvalue,
            "best_c": _best_rate(d * np.eye(model.dim) - gv, varr, tol),
        },
    )


def _best_rate(a: np.ndarray, v: np.ndarray, tol: float) -> float | None:
    """sup{c >= 0 : A - cV >= 0} for A = dI - G(V) and a nonzero V >= 0,
    or None when A itself is not PSD.

    The sup is 1/lambda_max of the pencil (V, A). On a singular A it is 0
    when V is nonzero on ker A, and else the pencil restricted to A's
    range: with S = Q_range / sqrt(w_range), 1/lambda_max(S'VS).
    """
    w, q = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] < -tol * scale:
        return None
    in_range = w > tol * scale
    if max_abs(v @ q[:, ~in_range]) > tol * max(1.0, max_abs(v)):
        return 0.0
    s = q[:, in_range] / np.sqrt(w[in_range])
    return 1.0 / float(np.linalg.eigvalsh(dag(s) @ v @ s)[-1])


# ---------------------------------------------------------------------------
# Tightness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBound:
    """Finite-rank projection capturing all but eps of the probability mass.

    Contract: any state with tr(rho V) <= c satisfies tr(rho P) > 1 - eps,
    where P sums the spectral projections below index m.
    """

    verdict: Verdict
    m: int | None
    projection: np.ndarray | None
    threshold: float
    note: str = ""


def tightness_tail_bound(spectral: SpectralDecomposition, c: float, eps: float) -> TailBound:
    """Smallest admissible cut m with v_m >= c/eps, and P = sum_{i<m} P_i.

    The mean bound tr(rho V) <= c is the caller's hypothesis (e.g. from a
    certified weak Lyapunov condition plus the initial mean).
    """
    if eps <= 0:
        raise OperatorError("eps must be positive")
    if c < 0:
        raise OperatorError("mean bound c must be nonnegative")
    w = spectral.eigenvalues
    if float(w[0]) < -PSD_TOL * max(1.0, float(np.abs(w).max())):
        raise OperatorError("tail bound requires a positive semidefinite operator")
    if eps >= 1.0:
        return TailBound(
            verdict=Verdict.HOLDS,
            m=0,
            projection=_frozen(np.zeros((spectral.dim, spectral.dim))),
            threshold=c / eps,
            note="eps >= 1 makes the bound vacuous; minimal projection returned",
        )
    threshold = c / eps
    candidates = np.nonzero((w >= threshold) & (w > 0))[0]
    if candidates.size == 0:
        return TailBound(
            verdict=Verdict.INCONCLUSIVE,
            m=None,
            projection=None,
            threshold=threshold,
            note=(
                f"available spectrum tops out at {w[-1]:.6g} < c/eps = {threshold:.6g}; "
                "enlarge the truncation to certify the tail"
            ),
        )
    m = int(candidates[0])
    p = np.zeros((spectral.dim, spectral.dim), dtype=complex)
    for i in range(m):
        p += spectral.projections[i]
    return TailBound(verdict=Verdict.HOLDS, m=m, projection=_frozen(p), threshold=threshold)


# ---------------------------------------------------------------------------
# LaSalle hypothesis pairs
# ---------------------------------------------------------------------------

def _shifted_psd(v: np.ndarray, tol: float) -> tuple[np.ndarray, float, list[str]]:
    """Return V shifted by a multiple of I if it is not PSD, the shift, and
    a note recording a nonzero shift.

    Shifting V leaves G(V) unchanged, so inequalities on the generator are
    insensitive to it; the shift is recorded on the certificate.
    """
    report = psd_check(v, tol)
    if report.holds:
        return v, 0.0, []
    shift = -report.min_eigenvalue
    note = f"V shifted by {shift:.6g} * I to reach positivity; G(V) is unaffected"
    return v + shift * np.eye(v.shape[0]), shift, [note]


def check_lasalle_pair(
    model: ModelSpec,
    v,
    w,
    theorem: str = THEOREM_5,
    u=None,
    tol: float = PSD_TOL,
) -> LyapunovCertificate:
    """Check one LaSalle hypothesis pair (V, W).

    t5: G(V) <= -W with W >= 0; ||G(W)|| is recorded (always finite here).
    t6: additionally G(W) <= 0.
    t7: G(V) = W for Hermitian W, with G(W) <= 0.
    corollary1: G(V) <= U - W; the integrability of <U(t)> is not certified,
    so a nonzero U makes a holding slack check inconclusive.
    """
    if theorem not in (THEOREM_5, THEOREM_6, THEOREM_7, COROLLARY_1):
        raise OperatorError(f"unknown LaSalle mode {theorem!r}")
    varr, shift, notes = _shifted_psd(require_hermitian(v), tol)
    warr = require_hermitian(w)
    uarr = None
    gv = hermitian_part(generator_heisenberg(model, varr))
    gw = hermitian_part(generator_heisenberg(model, warr))
    metrics: dict = {"generator_w_norm": op_norm(gw)}
    verdict, witness = Verdict.HOLDS, None

    if theorem == THEOREM_7:
        residual = max_abs(gv - warr)
        scale = max(1.0, max_abs(warr))
        metrics["equality_residual"] = residual
        if residual > tol * scale:
            verdict = Verdict.FAILS
            notes.append(f"G(V) = W residual {residual:.3e} exceeds {tol * scale:.3e}")
    else:
        if theorem == COROLLARY_1:
            if u is None:
                raise OperatorError("corollary1 mode needs the companion operator U")
            uarr = require_hermitian(u)
            notes.append(
                "finite integral of <U(t)> is a hypothesis this check cannot certify; "
                "only U = 0 satisfies it by itself"
            )
        _require_psd_input("W", warr, tol)
        if uarr is not None:
            _require_psd_input("U", uarr, tol)
        # the slack of G(V) <= -W (t5, t6) or of G(V) <= U - W (corollary1)
        main = psd_check(-gv - warr if uarr is None else uarr - warr - gv, tol)
        verdict, witness = main.verdict, main.witness
        metrics["slack_min_eigenvalue"] = main.min_eigenvalue
        if uarr is not None and verdict is Verdict.HOLDS and max_abs(uarr) > tol:
            verdict = Verdict.INCONCLUSIVE

    if theorem in (THEOREM_6, THEOREM_7):
        decay = psd_check(-gw, tol)
        metrics["generator_w_max_eigenvalue"] = -decay.min_eigenvalue
        if not decay.holds:
            verdict, witness = Verdict.FAILS, witness or decay.witness
            if theorem == THEOREM_6:
                notes.append("G(W) <= 0 fails")

    return LyapunovCertificate(
        verdict=verdict,
        v=_frozen(varr),
        w=_frozen(warr),
        u=None if uarr is None else _frozen(uarr),
        theorem=theorem,
        tolerance=tol,
        shift=shift,
        witness=witness,
        metrics=metrics,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Ground-set convergence conditions (theorem 8)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundConvergenceReport:
    """Checkable conditions for convergence onto the ground space of V.

    Certifies (a) G(V) <= 0, (b) [G(V), V] = 0, and (c) the spectral
    sufficient condition for the state-quantified positivity of D(V):
    D(V) >= 0 with every null vector of D(V) inside ker V (equivalently,
    D(V) positive definite off ker V). When (c) fails but D(V) >= 0 the
    verdict is inconclusive, since only a sufficient test is available.
    """

    verdict: Verdict
    lyapunov: PsdReport
    commutator_norm: float
    dissipation_psd: PsdReport
    restricted_min_eigenvalue: float | None
    kernel_dim: int
    notes: tuple[str, ...] = ()


def check_theorem8(model: ModelSpec, v, tol: float = PSD_TOL) -> GroundConvergenceReport:
    """Theorem 8's conditions on (model, V); see `GroundConvergenceReport`.

    V must be PSD. An indefinite V is rejected, not shifted: condition (c)
    is stated on ker V, which the shift changes.
    """
    varr = require_hermitian(v)
    _require_psd_input("V", varr, tol)
    n = model.dim
    notes: list[str] = []

    gv = hermitian_part(generator_heisenberg(model, varr))
    lyap = psd_check(-gv, tol)

    comm = gv @ varr - varr @ gv
    comm_scale = max(1.0, op_norm(gv) * op_norm(varr))
    comm_norm = op_norm(comm)
    comm_ok = comm_norm <= tol * comm_scale

    dv = hermitian_part(dissipation_functional(model, varr))
    dv_psd = psd_check(dv, tol)

    w, vecs = np.linalg.eigh(varr)
    vscale = max(1.0, float(np.abs(w).max()))
    kernel_mask = w <= tol * vscale
    kernel_dim = int(kernel_mask.sum())
    q = vecs[:, ~kernel_mask]

    restricted_min = None
    positivity_ok = False
    if q.shape[1] == 0:
        notes.append("V has no positive part; its ground space is everything")
        positivity_ok = True
    else:
        restricted = dag(q) @ dv @ q
        restricted_min = float(np.linalg.eigvalsh(hermitian_part(restricted))[0])
        dscale = max(1.0, op_norm(dv))
        pd_off_kernel = restricted_min > tol * dscale
        # Null vectors of D(V) must lie inside ker V; restriction-PD alone
        # can miss mixed-direction null vectors.
        dw, dvecs = np.linalg.eigh(dv)
        null_vecs = dvecs[:, dw <= tol * dscale]
        leak = max_abs(varr @ null_vecs) if null_vecs.size else 0.0
        kernel_ok = leak <= tol * vscale
        positivity_ok = pd_off_kernel and kernel_ok
        if pd_off_kernel and not kernel_ok:
            notes.append(
                "D(V) has null directions leaking outside ker V; "
                "state-quantified positivity cannot be certified"
            )

    if not lyap.holds:
        verdict = Verdict.FAILS
        notes.append("G(V) <= 0 fails")
    elif not comm_ok:
        verdict = Verdict.FAILS
        notes.append(f"[G(V), V] norm {comm_norm:.3e} exceeds {tol * comm_scale:.3e}")
    elif positivity_ok:
        verdict = Verdict.HOLDS
    elif dv_psd.holds:
        verdict = Verdict.INCONCLUSIVE
        notes.append(
            "D(V) is PSD but not positive definite off ker V; the sufficient "
            "spectral test cannot decide the state-quantified condition"
        )
    else:
        verdict = Verdict.FAILS
        notes.append("D(V) fails positive semidefiniteness (numerical)")

    return GroundConvergenceReport(
        verdict=verdict,
        lyapunov=lyap,
        commutator_norm=comm_norm,
        dissipation_psd=dv_psd,
        restricted_min_eigenvalue=restricted_min,
        kernel_dim=kernel_dim,
        notes=tuple(notes),
    )
