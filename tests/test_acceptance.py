"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] ... PASS/FAIL` line (run with -s to see
them on success). Criteria 1 and 2 also enforce their runtime budgets.
"""

import json
import time

import numpy as np

from qmstab import (
    ModelSpec,
    Verdict,
    check_lasalle_pair,
    check_lyapunov,
    check_theorem8,
    check_weak_lyapunov,
    connectivity_check,
    dissipation_functional,
    dissipator,
    evolve,
    faithfulness_check,
    generator_heisenberg,
    generator_schroedinger,
    ket_bra,
    liouvillian,
    mean_bound_check,
    number_operator,
    pauli,
    random_density,
    solve_ground_coupling,
    spectral_decompose,
    steady_states,
    tightness_tail_bound,
    uniqueness_check,
)
from qmstab.cli import main as cli_main
from qmstab.generator import unvec, vec
from qmstab.operators import dag, random_matrix
from qmstab.serialize import dumps_canonical

from conftest import FIXTURES, dense_expm_samples, oscillator, random_model


def report(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def test_criterion_1_oscillator_generator_identity():
    t0 = time.perf_counter()
    n = 40
    model = oscillator(n, alpha=1.0, beta=0.5)
    v = number_operator(n)
    g = generator_heisenberg(model, v)
    target = -0.75 * v + 0.25 * np.eye(n)
    interior = slice(0, 38)
    deviation = np.abs(g - target)[interior, interior].max()
    elapsed = time.perf_counter() - t0
    ok = deviation <= 1e-10 and elapsed < 1.0
    report(1, "oscillator generator identity", ok,
           f"(interior deviation {deviation:.2e}, {elapsed:.2f} s)")


def test_criterion_2_oscillator_stationary_mean():
    t0 = time.perf_counter()
    n = 60
    model = oscillator(n, alpha=1.0, beta=0.5)
    num = number_operator(n)
    stat = steady_states(model)
    mean = float(np.trace(stat.states[0].matrix @ num).real)
    vacuum = np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = 1.0
    traj = evolve(model, vacuum, 20.0, n_points=9)
    final = float(np.trace(traj.final_state.matrix @ num).real)
    elapsed = time.perf_counter() - t0
    ok = abs(mean - 1.0 / 3.0) <= 1e-6 and abs(final - mean) <= 1e-5 and elapsed < 30.0
    report(2, "oscillator stationary mean", ok,
           f"(steady {mean:.9f}, integrated {final:.9f}, {elapsed:.1f} s)")


def test_criterion_3_two_level_analysis():
    model = ModelSpec(pauli("z"), [pauli("x")])
    stat = steady_states(model)
    dist = trace_distance(stat.states[0].matrix, np.eye(2) / 2)
    conn = [connectivity_check(model, ket_bra(i, i, 2)) for i in (0, 1)]
    uni = uniqueness_check(model)
    faith = faithfulness_check(stat.states[0])
    ok = (
        dist <= 1e-10
        and all(c.connected and abs(c.value - 1.0) < 1e-12 for c in conn)
        and uni.verdict == "unique"
        and faith.faithful
    )
    report(3, "two-level model", ok,
           f"(trace distance {dist:.2e}, connectivity {[c.value for c in conn]}, "
           f"{uni.verdict}, faithful={faith.faithful})")


def test_criterion_4_two_qubit_model():
    l = 1.0 / np.sqrt(2.0)
    couplings = [l * ket_bra(1, 0, 4), l * ket_bra(3, 1, 4)]
    h = -0.5j * ket_bra(0, 1, 4) + 0.5j * ket_bra(1, 0, 4)
    v = np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex)
    w = np.zeros((4, 4), dtype=complex)
    w[:2, :2] = 0.5

    bare = ModelSpec(np.zeros((4, 4), dtype=complex), couplings)
    g_bare = generator_heisenberg(bare, v)
    dev_bare = np.abs(g_bare - np.diag([-1.0, -1.0, 0.0, 0.0])).max()

    full = ModelSpec(h, couplings)
    g_full = generator_heisenberg(full, v)
    printed = np.zeros((4, 4), dtype=complex)
    printed[:2, :2] = -1.0
    dev_full = np.abs(g_full - printed).max()

    cert = check_lasalle_pair(full, v, w, theorem="t5")

    rng = np.random.default_rng(20260810)
    w_finals, sums = [], []
    for _ in range(10):
        traj = evolve(full, random_density(4, rng), 50.0)
        fin = traj.final_state.matrix
        w_finals.append(float(np.trace(fin @ w).real))
        sums.append(abs(fin[0, 0] + fin[0, 1] + fin[1, 0] + fin[1, 1]))
    ok = (
        dev_bare <= 1e-12
        and dev_full <= 1e-12
        and cert.verdict is Verdict.HOLDS
        and max(w_finals) <= 1e-4
        and max(sums) <= 1e-4
    )
    report(4, "two-qubit model", ok,
           f"(G(V) deviations {dev_bare:.1e}/{dev_full:.1e}, t5 {cert.verdict.value}, "
           f"max <W>(50) {max(w_finals):.2e}, max corner sum {max(sums):.2e})")


def test_criterion_5_qubit_ground_engineering():
    v = np.diag([1.0, 0.0]).astype(complex)
    sol = solve_ground_coupling(v)
    m_ok = np.abs(sol.m - pauli("minus")).max() <= 1e-12
    l_ok = np.abs(sol.default_coupling - pauli("minus")).max() <= 1e-12

    model = ModelSpec(np.zeros((2, 2), dtype=complex), [sol.default_coupling])
    diss = dissipator(model, v)
    diss_ok = np.abs(diss - np.array([[-1.0, 0.0], [0.0, 0.0]])).max() <= 1e-12

    t8 = check_theorem8(model, v)

    traj = evolve(model, np.diag([1.0, 0.0]).astype(complex), 20.0)
    fidelity = float(traj.final_state.matrix[1, 1].real)

    ok = m_ok and l_ok and diss_ok and t8.verdict is Verdict.HOLDS and fidelity >= 1 - 1e-6
    report(5, "qubit ground-state engineering", ok,
           f"(M=sigma_-={m_ok}, L=sigma_-={l_ok}, dissipation block ok={diss_ok}, "
           f"theorem8 {t8.verdict.value}, fidelity {fidelity:.9f})")


def test_criterion_6_tail_bound():
    n = 60
    v = number_operator(n)
    tb = tightness_tail_bound(spectral_decompose(v), c=2.0, eps=0.1)
    m_ok = tb.m == 20
    rng = np.random.default_rng(60)
    vacuum = np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = 1.0
    worst = 1.0
    for _ in range(100):
        raw = random_density(n, rng)
        lam = min(1.0, 2.0 * rng.uniform(0.0, 1.0) / float(np.trace(raw @ v).real))
        rho = lam * raw + (1 - lam) * vacuum
        assert np.trace(rho @ v).real <= 2.0 + 1e-9
        worst = min(worst, float(np.trace(rho @ tb.projection).real))
    ok = m_ok and worst > 0.9
    report(6, "coercive tail bound", ok, f"(m={tb.m}, worst mass {worst:.4f})")


def test_criterion_7_property_suites():
    rng = np.random.default_rng(7)
    failures = []

    # unitality and trace preservation
    for _ in range(20):
        model = random_model(4, rng, n_couplings=2)
        if np.abs(generator_heisenberg(model, np.eye(4))).max() > 1e-12:
            failures.append("G(I) != 0")
        rho = random_density(4, rng)
        if abs(np.trace(generator_schroedinger(model, rho))) > 1e-12:
            failures.append("tr G*(rho) != 0")

    # dissipation functional: PSD and the commutator form, 100 pairs
    for _ in range(100):
        model = random_model(4, rng, n_couplings=2)
        x = random_matrix(4, rng)
        d = dissipation_functional(model, x)
        if np.linalg.eigvalsh((d + dag(d)) / 2)[0] < -1e-10 * max(1, np.abs(d).max()):
            failures.append("D(X) not PSD")
        direct = np.zeros_like(d)
        for lk in model.couplings:
            xl = x @ lk - lk @ x
            direct += dag(xl) @ xl
        if np.abs(d - direct).max() > 1e-10:
            failures.append("D(X) != sum [X,L]'[X,L]")

    # duality
    for _ in range(50):
        model = random_model(4, rng, n_couplings=2)
        x, rho = random_matrix(4, rng), random_density(4, rng)
        lhs = np.trace(generator_heisenberg(model, x) @ rho)
        rhs = np.trace(x @ generator_schroedinger(model, rho))
        if abs(lhs - rhs) > 1e-10:
            failures.append("duality")

    # integrator preservation and cross-validation
    decay = ModelSpec(np.zeros((2, 2), dtype=complex), [pauli("minus")])
    osc = oscillator(16)
    for model in (decay, osc):
        rho0 = random_density(model.dim, rng)
        t_krylov = evolve(model, rho0, 10.0)
        lv = liouvillian(model)
        expm = dense_expm_samples(lv.basis, lv.matrix, vec(rho0), t_krylov.times)
        for s, z in zip(t_krylov.states, expm):
            if trace_distance(s.matrix, unvec(z)) > 1e-7:
                failures.append("krylov vs dense expm disagreement")
                break
        for s in t_krylov.states:
            if abs(np.trace(s.matrix).real - 1) > 1e-10:
                failures.append("trace drift")
                break
            if np.linalg.eigvalsh(s.matrix)[0] < -1e-8:
                failures.append("positivity loss")
                break

    # mean bound on certified fixtures
    v16 = number_operator(16)
    assert check_weak_lyapunov(osc, v16, c=0.75, d=0.25).verdict is Verdict.HOLDS
    vac = np.zeros((16, 16), dtype=complex)
    vac[0, 0] = 1.0
    if mean_bound_check(evolve(osc, vac, 20.0), v16, 0.75, 0.25).verdict is not Verdict.HOLDS:
        failures.append("oscillator mean bound")
    vg = np.diag([1.0, 0.0]).astype(complex)
    assert check_lyapunov(decay, vg).verdict is Verdict.HOLDS
    traj = evolve(decay, np.diag([1.0, 0.0]).astype(complex), 15.0)
    if mean_bound_check(traj, vg, 1.0, 1e-12).verdict is not Verdict.HOLDS:
        failures.append("decay mean bound")

    ok = not failures
    report(7, "property suites", ok, f"({'all invariants hold' if ok else sorted(set(failures))})")


def test_criterion_8_cli_determinism(tmp_path):
    args = [
        "simulate",
        "--model", str(FIXTURES / "qubit_decay.json"),
        "--rho0", str(FIXTURES / "qubit_excited.json"),
        "--t-final", "20",
        "--v", str(FIXTURES / "qubit_V.json"),
        "--seed", "11",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main([*args, "--out", str(out1)])
    code2 = cli_main([*args, "--out", str(out2)])
    r1 = json.load(open(out1 / "report.json"))
    r2 = json.load(open(out2 / "report.json"))
    ts_isolated = set(r1["meta"].keys()) == {"timestamp"} and "timestamp" not in json.dumps(r1["run"])
    r1.pop("meta")
    r2.pop("meta")
    identical = dumps_canonical(r1).encode() == dumps_canonical(r2).encode()
    series_identical = (out1 / "series_v.csv").read_bytes() == (out2 / "series_v.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and ts_isolated and identical and series_identical
    report(8, "CLI determinism", ok,
           f"(exit {code1}/{code2}, report identical={identical}, series identical={series_identical})")
