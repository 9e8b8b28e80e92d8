"""Master-equation integration and trajectory diagnostics.

Integrates the state evolution generated by the Schroedinger-side
Liouvillian, either by repeated application of a precomputed matrix
exponential (`expm_fixed`) or by adaptive embedded Runge-Kutta on the
vectorized state (`rk_adaptive`), and provides the trajectory-level
diagnostics used by the invariance analysis: monotone decrease of <V>,
integrability and decay of <W>, the exponential mean bound, and probing of
convergence onto ground sets.

Time is dimensionless, in units of the model's rate constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.integrate import RK45

from .generator import (
    SCHROEDINGER,
    ModelSpec,
    liouvillian,
    state_matrix,
    unvec,
    vec,
)
from .operators import (
    DensityMatrix,
    OperatorError,
    Verdict,
    hermitian_part,
    random_density,
    require_hermitian,
)

METHOD_EXPM = "expm_fixed"
METHOD_RK = "rk_adaptive"
METHOD_AUTO = "auto"

# expm of the full Liouvillian is exact up to exponential accuracy but
# scales as dim^6; adaptive RK only needs matrix-vector products.
_EXPM_DIM_LIMIT = 30


class IntegrationError(RuntimeError):
    """The integrator could not continue (step underflow or a positivity
    violation beyond tolerance)."""


@dataclass(frozen=True)
class StepRecord:
    method: str
    accepted: int
    rejected_estimate: int
    n_rhs_evals: int
    renormalizations: int
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
    renormalizes the trace whenever the drift exceeds `trace_tol` (count
    recorded); a sampled state with an eigenvalue below -positivity_tol
    aborts the run with a diagnostic.
    """
    if t_final <= 0:
        raise OperatorError("t_final must be positive")
    if n_points < 2:
        raise OperatorError("need at least two sample points")
    rho = state_matrix(rho0)
    DensityMatrix.from_matrix(rho)  # validate the initial state
    if rho.shape != (model.dim, model.dim):
        raise OperatorError("initial state dimension does not match the model")

    if method == METHOD_AUTO:
        method = METHOD_EXPM if model.dim <= _EXPM_DIM_LIMIT else METHOD_RK

    m = liouvillian(model, SCHROEDINGER).matrix
    times = np.linspace(0.0, float(t_final), n_points)

    if method == METHOD_EXPM:
        raw, record = _evolve_expm(m, rho, times, trace_tol)
    elif method == METHOD_RK:
        raw, record = _evolve_rk(m, rho, times, rtol, atol, trace_tol)
    else:
        raise OperatorError(f"unknown integration method {method!r}")

    states = []
    for t, x in zip(times, raw):
        x = hermitian_part(x)
        lo = float(np.linalg.eigvalsh(x)[0])
        if lo < -positivity_tol:
            raise IntegrationError(
                f"state at t = {t:.6g} has eigenvalue {lo:.3e} below "
                f"-{positivity_tol:g}; the model or tolerances are suspect"
            )
        states.append(
            DensityMatrix.from_matrix(x, trace_tol=max(10 * trace_tol, 1e-10),
                                      positivity_tol=positivity_tol)
        )
    return Trajectory(times=times, states=tuple(states), step_controller=record)


def _evolve_expm(m, rho, times, trace_tol):
    dt = float(times[1] - times[0])
    propagator = sla.expm(m.toarray() * dt)
    y = vec(rho).astype(complex)
    raw = [unvec(y).copy()]
    renorm = 0
    for _ in times[1:]:
        y = propagator @ y
        tr = np.trace(unvec(y)).real
        if abs(tr - 1.0) > trace_tol:
            y = y / tr
            renorm += 1
        raw.append(unvec(y).copy())
    record = StepRecord(
        method=METHOD_EXPM,
        accepted=len(times) - 1,
        rejected_estimate=0,
        n_rhs_evals=0,
        renormalizations=renorm,
        dt=dt,
    )
    return raw, record


def _evolve_rk(m, rho, times, rtol, atol, trace_tol):
    t_final = float(times[-1])
    stepper = RK45(
        lambda t, y: m @ y,
        0.0,
        vec(rho).astype(complex),
        t_bound=t_final,
        rtol=rtol,
        atol=atol,
    )
    raw = [unvec(stepper.y).copy()]
    next_idx = 1
    accepted = 0
    renorm = 0
    while stepper.status == "running":
        try:
            stepper.step()
        except RuntimeError as exc:
            raise IntegrationError(f"step controller failed: {exc}") from exc
        accepted += 1
        dense = stepper.dense_output()
        while next_idx < len(times) and times[next_idx] <= stepper.t + 1e-15:
            raw.append(unvec(dense(times[next_idx])).copy())
            next_idx += 1
        tr = np.trace(unvec(stepper.y)).real
        if abs(tr - 1.0) > trace_tol:
            stepper.y = stepper.y / tr
            renorm += 1
    if stepper.status == "failed":
        raise IntegrationError("adaptive integration failed before t_final")
    while next_idx < len(times):
        raw.append(unvec(stepper.y).copy())
        next_idx += 1
    attempts = max(accepted, (stepper.nfev - 1) // 6)
    record = StepRecord(
        method=METHOD_RK,
        accepted=accepted,
        rejected_estimate=attempts - accepted,
        n_rhs_evals=stepper.nfev,
        renormalizations=renorm,
        rtol=rtol,
        atol=atol,
    )
    return raw, record


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


def mean_bound_check(traj: Trajectory, v, c: float, d: float, slack: float = 1e-6) -> MeanBoundCheck:
    if c <= 0:
        raise OperatorError("mean bound needs c > 0")
    series = expectation_series(traj, v)
    bound = np.exp(-c * traj.times) * series[0] + d / c
    margin = slack * np.maximum(1.0, np.abs(bound))
    violation = series - bound
    worst = int(np.argmax(violation))
    verdict = Verdict.HOLDS if np.all(violation <= margin) else Verdict.FAILS
    return MeanBoundCheck(
        verdict=verdict,
        max_violation=float(violation[worst]),
        worst_time=float(traj.times[worst]),
        slack=slack,
    )


@dataclass(frozen=True)
class LaSalleDiagnostics:
    """Trajectory-level evidence for the invariance conclusions.

    The final `tail_fraction` of the horizon is declared the tail; the
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
    bound_check: MeanBoundCheck | None
    tail_start_index: int
    conclusive: bool
    notes: tuple[str, ...] = ()


def lasalle_diagnostics(
    traj: Trajectory,
    v,
    w,
    c: float | None = None,
    d: float | None = None,
    tail_fraction: float = 0.1,
    monotone_slack: float = 1e-8,
) -> LaSalleDiagnostics:
    v_series = expectation_series(traj, v)
    w_series = expectation_series(traj, w)
    n = len(traj.times)
    tail_start = int(np.floor(n * (1.0 - tail_fraction)))
    notes: list[str] = []
    conclusive = True
    if n < 20 or n - tail_start < 4:
        conclusive = False
        notes.append("trajectory too short for tail estimation; diagnostics inconclusive")
        tail_start = max(0, n - 2)

    diffs = np.diff(v_series)
    vscale = max(1.0, float(np.abs(v_series).max()))
    v_violation = float(diffs.max()) if len(diffs) else 0.0
    v_monotone = v_violation <= monotone_slack * vscale

    w_clip = np.clip(w_series, 0.0, None)
    w_integral = float(np.trapezoid(w_clip, traj.times))
    w_tail = _tail_integral_estimate(traj.times[tail_start:], w_clip[tail_start:], notes)

    bound = None
    if c is not None and d is not None:
        bound = mean_bound_check(traj, v, c, d)

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
        bound_check=bound,
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
    """Monte-Carlo probe of convergence onto the ground set of V."""

    verdict: Verdict
    final_values: np.ndarray
    max_final: float
    threshold: float
    samples: int
    t_final: float
    seed: int


def invariant_set_probe(
    model: ModelSpec,
    v,
    samples: int = 20,
    t_final: float = 30.0,
    threshold: float = 1e-5,
    seed: int = 0,
    method: str = METHOD_AUTO,
    n_points: int = 33,
) -> InvariantSetProbe:
    """Integrate from seeded random initial states and report max final <V>."""
    varr = require_hermitian(v)
    rng = np.random.default_rng(seed)
    finals = []
    for _ in range(samples):
        rho0 = random_density(model.dim, rng)
        traj = evolve(model, rho0, t_final, method=method, n_points=n_points)
        finals.append(float(np.trace(traj.final_state.matrix @ varr).real))
    finals = np.array(finals)
    max_final = float(finals.max())
    return InvariantSetProbe(
        verdict=Verdict.HOLDS if max_final <= threshold else Verdict.FAILS,
        final_values=finals,
        max_final=max_final,
        threshold=threshold,
        samples=samples,
        t_final=t_final,
        seed=seed,
    )


def conditioned_state(rho, projector) -> DensityMatrix:
    """Classical post-processing: condition a state on a projector outcome.

    Returns P rho P / tr(P rho P). This is a report transformation, not
    dynamics.
    """
    arr = state_matrix(rho)
    p = require_hermitian(projector)
    out = p @ arr @ p
    tr = float(np.trace(out).real)
    if tr <= 1e-14:
        raise OperatorError("projector outcome has vanishing probability")
    return DensityMatrix.from_matrix(out / tr)
