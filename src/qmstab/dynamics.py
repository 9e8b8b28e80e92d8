"""Master-equation integration and trajectory diagnostics.

Integrates the state evolution generated by the Schroedinger-side
Liouvillian and provides the trajectory-level diagnostics used by the
invariance analysis: monotone decrease of <V>, integrability and decay of
<W>, the exponential mean bound, and the worst case of <V> over all initial
states, which probes convergence onto ground sets.

`evolve` and `invariant_set_probe` share one propagator. It builds the
Liouvillian once per call and advances one real coordinate vector
(`generator.liouvillian`) under the generator it is given, on the sectors
where the vector has weight. `evolve` moves one state under R, and the
trace, the sum of the diagonal coordinates, is renormalized when it drifts.
The probe moves the observable V under R^T, the Heisenberg generator,
which preserves the identity, not the trace, so nothing is renormalized.
Vectors are mapped back through the Hermitian basis, which gives exactly
conjugate entries, so `_checked_state` need not symmetrize.

- `expm_fixed` computes each active sector's step exponential once per call
  (scaling and squaring) and advances the vector by one block-diagonal
  product per step.
- `rk_adaptive` runs embedded RK45 on the vector with sparse matvecs.

`expm_multiply` (Al-Mohy & Higham 2011) on the active sectors was measured
and rejected: the n = 60 oscillator from the vacuum to t = 20 took
0.63-0.72 s against RK45's 0.41-0.55 s, and 20 states of H = N, L = a at
n = 24 0.36-0.43 s against `expm_fixed`'s 0.08-0.14 s.

Time is dimensionless, in units of the model's rate constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

from .generator import ModelSpec, Superoperator, _check_dim, liouvillian, state_matrix, unvec, vec
from .operators import (
    DensityMatrix,
    IntegrationError,
    OperatorError,
    Verdict,
    require_hermitian,
)

METHOD_EXPM = "expm_fixed"
METHOD_RK = "rk_adaptive"
METHOD_AUTO = "auto"

# Relative slack of the pointwise mean bound; the tail is the final
# _TAIL_FRACTION of the samples; <V> counts as monotone while no step rises
# by more than _MONOTONE_SLACK times its largest magnitude.
_MEAN_BOUND_SLACK = 1e-6
_TAIL_FRACTION = 0.1
_MONOTONE_SLACK = 1e-8


@dataclass(frozen=True)
class StepRecord:
    """What the propagator did. `max_trace_drift` is the largest |tr - 1|
    seen at a step check, before any renormalization; an observable's run
    checks no trace, so it and `renormalizations` read 0. `sectors` counts
    the sectors of the real Liouvillian and `propagated_dim` the real
    coordinates in the sectors that were propagated."""

    method: str
    accepted: int
    rejected_estimate: int
    n_rhs_evals: int
    renormalizations: int
    max_trace_drift: float
    sectors: int
    propagated_dim: int
    dt: float | None = None
    rtol: float | None = None
    atol: float | None = None


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
    method: str = METHOD_AUTO,
    n_points: int = 201,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    trace_tol: float = 1e-11,
    positivity_tol: float = 1e-8,
) -> Trajectory:
    """Integrate the master equation from rho0 over [0, t_final].

    States are sampled on a uniform grid of `n_points` times. The stepper
    renormalizes the trace whenever the drift exceeds `trace_tol` (count and
    largest drift recorded); a sampled state with an eigenvalue below
    -positivity_tol aborts the run with a diagnostic.
    """
    rho = state_matrix(rho0)
    DensityMatrix.from_matrix(rho)  # validate the initial state
    _check_dim(model, rho)
    lv = liouvillian(model)
    times, raw, record = _propagate(
        lv, lv.matrix, vec(rho), t_final, method, n_points, rtol, atol, trace_tol
    )
    states = tuple(
        _checked_state(t, unvec(v), trace_tol, positivity_tol) for t, v in zip(times, raw)
    )
    return Trajectory(times=times, states=states, step_controller=record)


def _propagate(
    lv: Superoperator, matrix, v: np.ndarray, t_final: float, method: str, n_points: int,
    rtol: float = 1e-9, atol: float = 1e-12, trace_tol: float | None = None,
) -> tuple[np.ndarray, np.ndarray, StepRecord]:
    """Evolve `v`, a vectorized operator, under `matrix`: R (`lv.matrix`)
    for states, R^T for observables.

    Returns the uniform grid of `n_points` times in [0, t_final], the samples
    (time, vectorized operator) and the step record. The trace is
    renormalized when it drifts past `trace_tol`; None, for observables,
    checks no trace.
    """
    # past 1/eps times the fastest time scale 1/norm, t_final cannot resolve
    # that scale; far past it expm overflows, and RK45 never finishes
    if not (0 < t_final < np.inf and t_final * lv.norm * np.finfo(float).eps <= 1):
        raise OperatorError(f"t_final must be positive and finite, at most 1/eps times "
                            f"1/{lv.norm:.3g}, the fastest time scale; got {float(t_final):g}")
    if n_points < 2:
        raise OperatorError("need at least two sample points")
    frame, x = _frame(lv, matrix, v)
    if method == METHOD_AUTO:
        method = _auto_method(frame)
    times = np.linspace(0.0, float(t_final), n_points)

    if method == METHOD_EXPM:
        raw, record = _evolve_expm(frame, x, times, trace_tol)
    elif method == METHOD_RK:
        raw, record = _evolve_rk(frame, x, times, rtol, atol, trace_tol)
    else:
        raise OperatorError(f"unknown integration method {method!r}")
    return times, raw, record


@dataclass(frozen=True)
class _Frame:
    """A real generator, R or R^T, on the sectors that an initial vector
    touches; both have the sectors of `Superoperator.sectors`.

    `basis` holds the Hermitian basis vectors of the kept coordinates, sector
    after sector, so `matrix` is block diagonal with one block per `slices`
    entry. The kept diagonal coordinates, `trace_rows`, sum to the trace.
    `sectors` counts the sectors of the whole real Liouvillian.
    """

    basis: sps.csr_array
    matrix: sps.csr_array
    slices: tuple[slice, ...]
    trace_rows: np.ndarray
    sectors: int

    def vectors(self, raw: np.ndarray) -> np.ndarray:
        """Map samples (time, coordinate) back to vectorized operators."""
        return (self.basis @ raw.T).T

    def record(self, **counts) -> StepRecord:
        return StepRecord(sectors=self.sectors, propagated_dim=self.matrix.shape[0], **counts)


def _frame(lv: Superoperator, matrix, v: np.ndarray) -> tuple[_Frame, np.ndarray]:
    """The frame of `matrix`, R or R^T, on the sectors of `lv` where `v`
    has weight, and the coordinates of `v` in it."""
    labels = lv.sectors
    x = (lv.basis.conj().T @ v).real
    keep = np.flatnonzero(np.isin(labels, labels[x != 0]))
    keep = keep[np.argsort(labels[keep], kind="stable")]
    ends = np.cumsum(np.unique(labels[keep], return_counts=True)[1])
    slices = tuple(slice(a, b) for a, b in zip((0, *ends[:-1]), ends))
    n = lv.dim
    diagonal = np.flatnonzero(np.isin(keep, np.arange(n) * (n + 1)))
    frame = _Frame(lv.basis[:, keep], matrix[keep][:, keep], slices, diagonal,
                   int(labels.max()) + 1)
    return frame, x[keep]


# expm pays one dense exponential per active sector of s coordinates, about
# s^3, once per call; RK45 pays per stage one sparse matvec and vector
# updates, about nnz + rows. `auto` takes expm up to one ratio of
# the two. scripts/time_propagators.py (2 CPUs, numpy 2.4, scipy 1.17): on the
# oscillator from the vacuum expm wins up to n = 30 (ratio 2.0e4) and RK45
# from n = 36 (4.1e4), within 1.25x either way between; the probe's one
# observable (ratio <= 440) and dense random models (<= 1.3e3) take expm,
# 2-6x faster.
_EXPM_COST_RATIO = 30_000


def _cost_ratio(frame: _Frame) -> float:
    """expm's cost in `frame`, in units of one RK45 stage."""
    cubes = sum((sl.stop - sl.start) ** 3 for sl in frame.slices)
    return cubes / (frame.matrix.nnz + frame.matrix.shape[0])


def _auto_method(frame: _Frame) -> str:
    """The propagator `auto` picks in `frame`."""
    return METHOD_EXPM if _cost_ratio(frame) <= _EXPM_COST_RATIO else METHOD_RK


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


def _evolve_expm(frame, x, times, trace_tol):
    """Advance `x` by one block-diagonal product per step, with each active
    sector's step exponential computed once; a trace that drifts past
    `trace_tol` (unless None) is renormalized."""
    dt = float(times[1] - times[0])
    blocks = [(sl, sla.expm(frame.matrix[sl, sl].toarray() * dt)) for sl in frame.slices]
    y = x
    raw = [y]
    renorm = 0
    drift = 0.0
    for _ in times[1:]:
        y = np.concatenate([p @ y[sl] for sl, p in blocks])
        if trace_tol is not None:
            tr = float(y[frame.trace_rows].sum())
            drift = max(drift, abs(tr - 1.0))
            if abs(tr - 1.0) > trace_tol:
                y /= tr
                renorm += 1
        raw.append(y)
    record = frame.record(
        method=METHOD_EXPM,
        accepted=len(times) - 1,
        rejected_estimate=0,
        n_rhs_evals=0,
        renormalizations=renorm,
        max_trace_drift=drift,
        dt=dt,
    )
    return frame.vectors(np.stack(raw)), record


def _evolve_rk(frame, x, times, rtol, atol, trace_tol):
    """RK45 on `x` with the frame's generator; a trace that drifts past
    `trace_tol` (unless None) is renormalized."""
    # imported here: scipy.integrate costs every other process ~0.3 s at start-up
    from scipy.integrate import RK45

    m = frame.matrix
    stepper = RK45(lambda t, y: m @ y, 0.0, x, float(times[-1]), rtol=rtol, atol=atol)
    raw = [stepper.y.copy()]
    next_idx = 1
    steps = renorm = 0
    drift = 0.0
    while stepper.status == "running":
        try:
            stepper.step()
        except RuntimeError as exc:
            raise IntegrationError(f"step controller failed: {exc}") from exc
        steps += 1
        dense = stepper.dense_output()
        while next_idx < len(times) and times[next_idx] <= stepper.t + 1e-15:
            raw.append(dense(times[next_idx]))
            next_idx += 1
        if trace_tol is None:
            continue
        tr = float(stepper.y[frame.trace_rows].sum())
        drift = max(drift, abs(tr - 1.0))
        if abs(tr - 1.0) > trace_tol:
            # RK45 reuses f, the derivative at y, as the next step's first
            # stage; the rhs is linear, so f / tr is the derivative at y / tr.
            stepper.y = stepper.y / tr
            stepper.f = stepper.f / tr
            renorm += 1
    if stepper.status == "failed":
        raise IntegrationError("adaptive integration failed before t_final")
    while next_idx < len(times):
        raw.append(stepper.y.copy())
        next_idx += 1
    record = frame.record(
        method=METHOD_RK,
        accepted=steps,
        rejected_estimate=max(steps, (stepper.nfev - 1) // 6) - steps,
        n_rhs_evals=stepper.nfev,
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
    """Pointwise check of <V(t)> <= exp(-ct) <V(0)> + d/c."""

    verdict: Verdict
    max_violation: float
    worst_time: float
    slack: float


def mean_bound_check(traj: Trajectory, v, c: float, d: float) -> MeanBoundCheck:
    if c <= 0:
        raise OperatorError("mean bound needs c > 0")
    series = expectation_series(traj, v)
    bound = np.exp(-c * traj.times) * series[0] + d / c
    margin = _MEAN_BOUND_SLACK * np.maximum(1.0, np.abs(bound))
    violation = series - bound
    worst = int(np.argmax(violation))
    verdict = Verdict.HOLDS if np.all(violation <= margin) else Verdict.FAILS
    return MeanBoundCheck(
        verdict=verdict,
        max_violation=float(violation[worst]),
        worst_time=float(traj.times[worst]),
        slack=_MEAN_BOUND_SLACK,
    )


@dataclass(frozen=True)
class LaSalleDiagnostics:
    """Trajectory-level evidence for the invariance conclusions.

    The final `_TAIL_FRACTION` of the horizon is declared the tail; the
    integral of <W> is a trapezoidal estimate plus an exponential-decay
    extrapolation beyond the horizon. Asymptotic statements only get a
    finite-horizon surrogate here, hence `conclusive` may be False.
    """

    v_series: np.ndarray
    w_series: np.ndarray
    v_monotone: bool
    v_monotone_max_violation: float
    v_sup: float
    v_limit_estimate: float
    w_integral_estimate: float
    w_tail_estimate: float
    w_limit_estimate: float
    w_final: float
    tail_start_index: int
    conclusive: bool
    notes: tuple[str, ...] = ()


def lasalle_diagnostics(traj: Trajectory, v, w) -> LaSalleDiagnostics:
    v_series = expectation_series(traj, v)
    w_series = expectation_series(traj, w)
    n = len(traj.times)
    tail_start = int(np.floor(n * (1.0 - _TAIL_FRACTION)))
    notes: list[str] = []
    conclusive = True
    if n < 20 or n - tail_start < 4:
        conclusive = False
        notes.append("trajectory too short for tail estimation; diagnostics inconclusive")
        tail_start = max(0, n - 2)

    diffs = np.diff(v_series)
    vscale = max(1.0, float(np.abs(v_series).max()))
    v_violation = float(diffs.max()) if len(diffs) else 0.0
    v_monotone = v_violation <= _MONOTONE_SLACK * vscale

    w_clip = np.clip(w_series, 0.0, None)
    w_integral = float(np.trapezoid(w_clip, traj.times))
    w_tail = _tail_integral_estimate(traj.times[tail_start:], w_clip[tail_start:], notes)

    return LaSalleDiagnostics(
        v_series=v_series,
        w_series=w_series,
        v_monotone=v_monotone,
        v_monotone_max_violation=v_violation,
        v_sup=float(v_series.max()),
        v_limit_estimate=float(v_series[tail_start:].mean()),
        w_integral_estimate=w_integral + w_tail,
        w_tail_estimate=w_tail,
        w_limit_estimate=float(w_series[tail_start:].mean()),
        w_final=float(w_series[-1]),
        tail_start_index=tail_start,
        conclusive=conclusive,
        notes=tuple(notes),
    )


def _tail_integral_estimate(t: np.ndarray, w: np.ndarray, notes: list[str]) -> float:
    """Extrapolate the integral beyond the horizon from a fitted
    exponential decay over the tail window; 0 when <W> has already hit the
    noise floor or shows no decay."""
    floor = 1e-14 * max(1.0, float(w.max()) if w.size else 1.0)
    if w.size < 3 or w[-1] <= floor:
        return 0.0
    mask = w > floor
    if mask.sum() < 3:
        return 0.0
    slope, _ = np.polyfit(t[mask], np.log(w[mask]), 1)
    if slope >= 0:
        notes.append("tail of <W> is not decaying; integral extrapolation omitted")
        return 0.0
    return float(w[-1] / (-slope))


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
    method: str = METHOD_AUTO,
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
    times, raw, record = _propagate(lv, lv.matrix.T.tocsr(), vec(varr), t_final, method, n_points)
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
