"""Master-equation integration and trajectory diagnostics.

Integrates the state evolution generated by the Schroedinger-side
Liouvillian and provides the trajectory-level diagnostics used by the
invariance analysis: monotone decrease of <V>, the integral of <W> over
the samples, the exponential mean bound, and the worst case of <V> over
all initial states, which probes convergence onto ground sets.

`evolve` and `invariant_set_probe` share one propagator. It builds the
Liouvillian once per call and advances one real coordinate vector
(`generator.liouvillian`) under the generator it is given, on the sectors
where the vector has weight, by Expokit-style Krylov steps (Sidje 1998)
with sparse matvecs. Each step's Arnoldi basis is built from the generator
applied to the vector, so the step length follows accuracy, not stability,
and a stationary state breaks Arnoldi down at once and is kept to the end
of any horizon. `evolve` moves one state under R, and the trace, the sum of
the diagonal coordinates, is renormalized when it drifts. The probe moves
the observable V under R^T, the Heisenberg generator, which preserves the
identity, not the trace, so nothing is renormalized. Vectors are mapped
back through the Hermitian basis, which gives exactly conjugate entries, so
`_checked_state` need not symmetrize.

Time is dimensionless, in units of the model's rate constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .generator import ModelSpec, Superoperator, _check_dim, liouvillian, state_matrix, unvec, vec
from .operators import (
    DensityMatrix,
    IntegrationError,
    OperatorError,
    Verdict,
    require_hermitian,
)

METHOD_KRYLOV = "krylov"

# Relative slack of the pointwise mean bound; <V> counts as monotone while
# no step rises by more than _MONOTONE_SLACK times its largest magnitude.
_MEAN_BOUND_SLACK = 1e-6
_MONOTONE_SLACK = 1e-8


@dataclass(frozen=True)
class StepRecord:
    """What the Krylov propagator did. `accepted` counts steps,
    `rejected_estimate` the rejected step sizes and `n_rhs_evals` the
    matvecs, all exactly; the names stay so that report keys do not change.
    `max_trace_drift` is the largest |tr - 1| seen at a step check, before
    any renormalization; an observable's run checks no trace, so it and
    `renormalizations` read 0. `sectors` counts the sectors of the real
    Liouvillian, `propagated_dim` the real coordinates propagated, and
    `rtol` and `atol` are the tolerances of the local error test."""

    method: str
    accepted: int
    rejected_estimate: int
    n_rhs_evals: int
    renormalizations: int
    max_trace_drift: float
    sectors: int
    propagated_dim: int
    rtol: float
    atol: float


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped state sequence, strictly increasing from t = 0."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    step_controller: StepRecord

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def final_state(self) -> DensityMatrix:
        return self.states[-1]


def evolve(
    model: ModelSpec,
    rho0,
    t_final: float,
    n_points: int = 201,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    trace_tol: float = 1e-11,
    positivity_tol: float = 1e-8,
) -> Trajectory:
    """Integrate the master equation from rho0 over [0, t_final].

    States are sampled on a uniform grid of `n_points` times. `rtol` and
    `atol` set the Krylov steps' local error test, atol + rtol |y|_2 on the
    whole coordinate vector y, so entries far below |y| carry an absolute,
    not a relative, accuracy. The stepper
    renormalizes the trace whenever the drift exceeds `trace_tol` (count and
    largest drift recorded); a sampled state with an eigenvalue below
    -positivity_tol aborts the run with a diagnostic.
    """
    rho = state_matrix(rho0)
    DensityMatrix.from_matrix(rho)  # validate the initial state
    _check_dim(model, rho)
    lv = liouvillian(model)
    times, raw, record = _propagate(
        lv, lv.matrix, vec(rho), t_final, n_points, rtol, atol, trace_tol
    )
    states = tuple(
        _checked_state(t, unvec(v), trace_tol, positivity_tol) for t, v in zip(times, raw)
    )
    return Trajectory(times=times, states=states, step_controller=record)


def _propagate(
    lv: Superoperator, matrix, v: np.ndarray, t_final: float, n_points: int,
    rtol: float = 1e-9, atol: float = 1e-12, trace_tol: float | None = None,
) -> tuple[np.ndarray, np.ndarray, StepRecord]:
    """Evolve `v`, a vectorized operator, under `matrix`: R (`lv.matrix`)
    for states, R^T for observables.

    Returns the uniform grid of `n_points` times in [0, t_final], the samples
    (time, vectorized operator) and the step record. The trace is
    renormalized when it drifts past `trace_tol`; None, for observables,
    checks no trace.
    """
    # past 1/eps times the fastest time scale 1/norm, a step that resolves
    # that scale is below an ulp of t: the Krylov steps would stall at their
    # 10-ulp minimum and raise part way, after the work
    if not (0 < t_final < np.inf and t_final * lv.norm * np.finfo(float).eps <= 1):
        raise OperatorError(f"t_final must be positive and finite, at most 1/eps times "
                            f"1/{lv.norm:.3g}, the fastest time scale; got {float(t_final):g}")
    if n_points < 2:
        raise OperatorError("need at least two sample points")
    if not rtol >= 100 * np.finfo(float).eps:
        raise OperatorError(f"rtol must be at least 100 eps; got {rtol:g}")
    if not atol >= 0:
        raise OperatorError(f"atol must be non-negative; got {atol:g}")
    frame, x = _frame(lv, matrix, v)
    times = np.linspace(0.0, float(t_final), n_points)
    raw, record = _evolve_krylov(frame, x, times, rtol, atol, trace_tol)
    return times, raw, record


@dataclass(frozen=True)
class _Frame:
    """A real generator, R or R^T, on the sectors that an initial vector
    touches. Sectors, the weakly connected components of the nonzeros, are
    the same for R and R^T: weak symmetries that are diagonal in the basis
    (Buca & Prosen, New J. Phys. 14, 073007, 2012).

    `basis` holds the Hermitian basis vectors of the kept coordinates and
    `matrix` the generator on them. The kept diagonal coordinates,
    `trace_rows`, sum to the trace. `sectors` counts the sectors of the
    whole real Liouvillian.
    """

    basis: sps.csr_array
    matrix: sps.csr_array
    trace_rows: np.ndarray
    sectors: int

    def vectors(self, raw: np.ndarray) -> np.ndarray:
        """Map samples (time, coordinate) back to vectorized operators."""
        return (self.basis @ raw.T).T

    def record(self, **counts) -> StepRecord:
        return StepRecord(sectors=self.sectors, propagated_dim=self.matrix.shape[0], **counts)


def _frame(lv: Superoperator, matrix, v: np.ndarray) -> tuple[_Frame, np.ndarray]:
    """The frame of `matrix`, R or R^T, on its sectors where `v` has
    weight, and the coordinates of `v` in it."""
    labels = _sector_labels(matrix)
    x = (lv.basis.conj().T @ v).real
    keep = np.flatnonzero(np.isin(labels, labels[x != 0]))
    n = lv.dim
    diagonal = np.flatnonzero(np.isin(keep, np.arange(n) * (n + 1)))
    sectors = int(np.count_nonzero(labels == np.arange(labels.size)))  # the roots
    frame = _Frame(lv.basis[:, keep], matrix[keep][:, keep], diagonal, sectors)
    return frame, x[keep]


def _sector_labels(matrix: sps.csr_array) -> np.ndarray:
    """The weakly connected components of the stored entries of a square
    CSR (or CSC) matrix: each coordinate labelled by the smallest coordinate
    of its component. Every stored entry hooks the larger of its two root
    labels to the smaller, then pointer jumping takes each label to its
    root, until no entry joins two roots (Shiloach & Vishkin, J. Algorithms
    3, 57 (1982)). A label never exceeds its coordinate, and each round that
    finds such an entry leaves one root fewer, so the loop ends."""
    n = matrix.shape[0]
    rows, cols = np.repeat(np.arange(n), np.diff(matrix.indptr)), matrix.indices
    labels = np.arange(n)
    while True:
        a, b = labels[rows], labels[cols]
        cross = a != b
        if not cross.any():
            return labels
        a, b = a[cross], b[cross]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _checked_state(
    t: float, x: np.ndarray, trace_tol: float, positivity_tol: float
) -> DensityMatrix:
    """Validate one sampled state with one eigendecomposition.

    The state is Hermitian by construction: T maps real coordinates to
    exactly conjugate entries. The lowest eigenvalue is computed again only
    when `from_matrix` rejects the state, to report a positivity violation
    as an `IntegrationError` naming `t`; any other rejection is re-raised.
    """
    try:
        return DensityMatrix.from_matrix(
            x, trace_tol=max(10 * trace_tol, 1e-10), positivity_tol=positivity_tol
        )
    except OperatorError:
        lo = float(np.linalg.eigvalsh(x)[0])
        if lo < -positivity_tol:
            raise IntegrationError(
                f"state at t = {t:.6g} has eigenvalue {lo:.3e} below "
                f"-{positivity_tol:g}; the model or tolerances are suspect"
            ) from None
        raise


# Krylov dimension m, step safety factor and largest step growth; m = 20 and
# 30 timed the same on the osc-n60 vacuum sector, 10 and 40 slower.
_KRYLOV_DIM = 30
_KRYLOV_SAFETY = 0.9
_KRYLOV_GROWTH = 10.0


def _expm_small(a: np.ndarray) -> np.ndarray:
    """e^a for a Hessenberg block, or for each of a stack of them: the
    degree-16 Taylor series of a / 2^s, |a / 2^s|_1 <= 1/2 for the largest
    block, squared s times. `scipy.linalg.expm` would wake scipy's own
    OpenBLAS threads, which slowed osc-n60's `simulate` 1.5x."""
    s = max(0, int(np.log2(max(np.abs(a).sum(axis=-2).max(), 1e-300))) + 2)
    term = result = np.eye(a.shape[-1])
    for k in range(1, 17):
        term = term @ a / (k * 2.0 ** s)
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def _evolve_krylov(frame, x, times, rtol, atol, trace_tol):
    """Krylov exponential steps on `x` with the frame's generator A, from
    times[0] to times[-1]; a trace that drifts past `trace_tol` (unless
    None) is renormalized.

    A step from y = beta u is Expokit's (Sidje, ACM TOMS 24, 130 (1998)) on
    the augmented generator [[A, A u], [0, 0]], whose exponential maps
    beta e, e its extra unit coordinate, to [e^{hA} y - y, beta]. Arnoldi
    from e spans e, A y, A^2 y, ...: the stationary part of y never enters
    the basis, and under R neither does the trace, which a step keeps to
    rounding. Gram-Schmidt is classical, reorthogonalized once. The step
    exponential is that of the (m + 2) augmented Hessenberg matrix; the
    step keeps the m-vector approximation, whose error Expokit's two-term
    estimate bounds, and is accepted when that is at most atol + rtol |y|_2.
    The first step is 1 / |A|_1. A rejected step size reuses the basis, and
    the sample times inside a step are read from it with one batch of
    exponentials. When Arnoldi breaks down the basis spans an invariant
    subspace and the step runs to the end; at a stationary state, |A u|
    within rounding, that happens at once and y is kept. A step below 10
    ulps of t raises `IntegrationError`.
    """
    a = frame.matrix
    n = x.size
    m = min(_KRYLOV_DIM, n + 1)
    norm = float(abs(a).sum(axis=0).max()) if a.nnz else 0.0
    noise = 4 * np.finfo(float).eps * norm
    t, t_end = float(times[0]), float(times[-1])
    y = x
    raw = [y]
    next_idx = 1
    steps = rejected = matvecs = renorm = 0
    drift = 0.0
    basis = np.empty((m, n))  # the basis after e, A u first
    beta = float(np.linalg.norm(y))
    tol = atol + rtol * beta
    h = 1 / norm if norm else t_end - t
    while t < t_end:
        hess = np.zeros((m + 2, m + 2))
        p = a @ (y / beta if beta else y)  # a zero y breaks down at once
        for j in range(m):
            if j:
                p = a @ basis[j - 1]
                v = basis[:j]
                c = v @ p
                p -= c @ v
                c2 = v @ p
                p -= c2 @ v
                hess[1 : j + 1, j] = c + c2
            matvecs += 1
            s = float(np.sqrt(p @ p))
            if s <= noise or j == n:
                size, h = j + 1, t_end - t  # exact over any step
                break
            hess[j + 1, j] = s
            basis[j] = p / s
        else:
            size = m + 2
            hess[m + 1, m] = 1.0
            avnorm = float(np.linalg.norm(a @ basis[m - 1]))
            matvecs += 1
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h = min(max(h, min_step), t_end - t)
        while True:
            f = _expm_small(h * hess[:size, :size])
            err = 0.0
            if size == m + 2:
                phi1 = abs(beta * f[m, 0])
                phi2 = abs(beta * f[m + 1, 0] * avnorm)
                if phi1 > 10 * phi2:
                    err = phi2
                elif phi1 > phi2:
                    err = phi1 * phi2 / (phi1 - phi2)
                else:
                    err = phi1
            if err <= tol:
                break
            h *= _KRYLOV_SAFETY * (tol / err) ** (1 / m)
            rejected += 1
            if not h >= min_step:
                raise IntegrationError(
                    f"step size {h:.3e} fell below its minimum {min_step:.3e} at t = {t:.6g}"
                )
        steps += 1
        cols = min(size, m) - 1
        t_new = t + h if h < t_end - t else t_end
        hits = int(np.searchsorted(times, t_new, side="right"))
        if hits > next_idx:
            g = _expm_small((times[next_idx:hits, None, None] - t) * hess[:size, :size])
            raw.extend(y + beta * (g[:, 1 : cols + 1, 0] @ basis[:cols]))
        next_idx = hits
        y = raw[-1] if times[hits - 1] == t_new else y + beta * (f[1 : cols + 1, 0] @ basis[:cols])
        t = t_new
        h *= min(_KRYLOV_GROWTH, _KRYLOV_SAFETY * (tol / err) ** (1 / m)) if err else _KRYLOV_GROWTH
        if trace_tol is not None:
            tr = float(y[frame.trace_rows].sum())
            drift = max(drift, abs(tr - 1.0))
            if abs(tr - 1.0) > trace_tol:
                y = y / tr
                renorm += 1
        beta = float(np.linalg.norm(y))
        tol = atol + rtol * beta
    record = frame.record(
        method=METHOD_KRYLOV,
        accepted=steps,
        rejected_estimate=rejected,
        n_rhs_evals=matvecs,
        renormalizations=renorm,
        max_trace_drift=drift,
        rtol=rtol,
        atol=atol,
    )
    return frame.vectors(np.stack(raw)), record


def expectation_series(traj: Trajectory, x) -> np.ndarray:
    """Pointwise tr(rho_t X); asserts the imaginary residue is negligible."""
    arr = require_hermitian(x)
    if arr.shape != (traj.dim, traj.dim):
        raise OperatorError("observable dimension does not match the trajectory")
    values = np.array([np.trace(s.matrix @ arr) for s in traj.states])
    residue = float(np.abs(values.imag).max())
    scale = max(1.0, float(np.abs(values.real).max()))
    if residue > 1e-12 * scale:
        raise OperatorError(f"expectation has imaginary residue {residue:.3e}")
    return values.real


@dataclass(frozen=True)
class MeanBoundCheck:
    """Pointwise check of <V(t)> <= exp(-ct) <V(0)> + d/c.

    `max_violation` is the largest excess of <V(t)> over the bound, which is
    rounding noise when the bound holds with equality. `worst_time` is the
    first sampled time whose excess is beyond the slack, the witness of
    `fails`, and None when the bound holds.
    """

    verdict: Verdict
    max_violation: float
    worst_time: float | None
    slack: float


def mean_bound_check(traj: Trajectory, v, c: float, d: float) -> MeanBoundCheck:
    if c <= 0:
        raise OperatorError("mean bound needs c > 0")
    series = expectation_series(traj, v)
    bound = np.exp(-c * traj.times) * series[0] + d / c
    margin = _MEAN_BOUND_SLACK * np.maximum(1.0, np.abs(bound))
    violation = series - bound
    over = np.flatnonzero(violation > margin)
    return MeanBoundCheck(
        verdict=Verdict.FAILS if over.size else Verdict.HOLDS,
        max_violation=float(violation.max()),
        worst_time=float(traj.times[over[0]]) if over.size else None,
        slack=_MEAN_BOUND_SLACK,
    )


@dataclass(frozen=True)
class LaSalleDiagnostics:
    """Sampled evidence for the invariance conclusions, with nothing
    extrapolated past the horizon.

    `w_integral_estimate` is the trapezoidal integral of <W>, clipped at 0,
    over the sampled times only. `v_rise_time` is the first sampled time at
    which <V> has risen by more than `slack` times its largest magnitude
    since the previous sample, the witness that <V> is not monotone, and
    None when it is.
    """

    v_series: np.ndarray
    w_series: np.ndarray
    v_monotone: bool
    v_monotone_max_violation: float
    v_rise_time: float | None
    v_sup: float
    w_integral_estimate: float
    w_final: float
    slack: float


def lasalle_diagnostics(traj: Trajectory, v, w) -> LaSalleDiagnostics:
    """<V> and <W> on the trajectory's samples: whether <V> rises between
    samples, and the integral of <W> up to the last sample."""
    v_series = expectation_series(traj, v)
    w_series = expectation_series(traj, w)
    diffs = np.diff(v_series)
    vscale = max(1.0, float(np.abs(v_series).max()))
    rises = np.flatnonzero(diffs > _MONOTONE_SLACK * vscale)
    return LaSalleDiagnostics(
        v_series=v_series,
        w_series=w_series,
        v_monotone=not rises.size,
        v_monotone_max_violation=float(diffs.max()) if len(diffs) else 0.0,
        v_rise_time=float(traj.times[rises[0] + 1]) if rises.size else None,
        v_sup=float(v_series.max()),
        w_integral_estimate=float(np.trapezoid(np.clip(w_series, 0.0, None), traj.times)),
        w_final=float(w_series[-1]),
        slack=_MONOTONE_SLACK,
    )


@dataclass(frozen=True)
class InvariantSetProbe:
    """The worst case of <V> - lambda_min(V) over every initial state.

    V(t) = e^{tG}(V) is the Heisenberg evolution, sampled on the uniform
    grid of [0, t_final]. Since tr(rho(t) V) = tr(rho V(t)), the largest <V>
    that any initial state reaches at t is lambda_max(V(t)), so
    `worst_case[i]` = lambda_max(V(t_i)) - lambda_min(V) is 0 exactly when
    every state lies in the ground set of V at t_i. `t_below_threshold` is
    the first sampled time where it is at most `threshold`, or None.
    """

    verdict: Verdict
    worst_case: np.ndarray
    worst_final: float
    t_final: float
    t_below_threshold: float | None
    threshold: float
    step_controller: StepRecord


def invariant_set_probe(
    model: ModelSpec,
    v,
    t_final: float = 30.0,
    threshold: float = 1e-5,
    n_points: int = 33,
) -> InvariantSetProbe:
    """Propagate V once under the Heisenberg generator R^T and report the
    worst case over all initial states at `n_points` times.

    The verdict holds when the worst case at t_final is at most `threshold`,
    which must be finite and non-negative.
    """
    if not 0 <= threshold < np.inf:
        raise OperatorError(f"threshold must be finite and non-negative; got {float(threshold):g}")
    varr = require_hermitian(v)
    _check_dim(model, varr)
    if not varr.any():
        raise OperatorError("V is the zero operator; the probe needs a nonzero V")
    lv = liouvillian(model)
    times, raw, record = _propagate(lv, lv.matrix.T.tocsr(), vec(varr), t_final, n_points)
    # each reshaped sample is V(t) transposed, which has V(t)'s spectrum
    spectra = np.linalg.eigvalsh(raw.reshape(-1, model.dim, model.dim))
    worst = spectra[:, -1] - spectra[0, 0]
    below = times[worst <= threshold]
    return InvariantSetProbe(
        verdict=Verdict.HOLDS if worst[-1] <= threshold else Verdict.FAILS,
        worst_case=worst,
        worst_final=float(worst[-1]),
        t_final=float(t_final),
        t_below_threshold=float(below[0]) if below.size else None,
        threshold=threshold,
        step_controller=record,
    )
