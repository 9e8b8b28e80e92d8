"""Randomized properties of the sparse Liouvillian, its real form in the
Hermitian basis, the propagator and its null space.

Models are drawn over dims 1-10 with random, zero and near-degenerate
Hamiltonians and couplings; the propagator's frame is also checked on
ladder models, which split into many sectors. Hypothesis runs derandomized with few examples,
so every run checks the same models.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qmstab import (
    InvariantAnalysisError,
    ModelSpec,
    check_weak_lyapunov,
    evolve,
    expectation_series,
    generator_heisenberg,
    generator_schroedinger,
    invariant_set_probe,
    liouvillian,
    random_density,
    random_hermitian,
    random_matrix,
    unvec,
    vec,
)
from qmstab.dynamics import _frame, _sector_labels
from qmstab.invariants import (
    NULL_SPACE_ARNOLDI,
    NULL_SPACE_BORDERED,
    NULL_SPACE_DENSE,
    _null_space,
    _null_space_arnoldi,
    _null_space_dense,
    steady_states,
)
from qmstab.operators import max_abs

from conftest import complex_form, oscillator

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None)
KINDS = ("random", "zero", "near_degenerate")


def _operator(kind, n, rng, hermitian):
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "random":
        return random_hermitian(n, rng) if hermitian else random_matrix(n, rng)
    # spectrum clustered within 1e-7 of 1 in a random eigenbasis
    u, _ = np.linalg.qr(random_matrix(n, rng))
    spectrum = 1.0 + 1e-7 * rng.standard_normal(n)
    if not hermitian:
        spectrum = spectrum * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return u @ np.diag(spectrum) @ u.conj().T


@st.composite
def models(draw, min_dim=1, max_dim=10):
    n = draw(st.integers(min_dim, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = _operator(draw(st.sampled_from(KINDS)), n, rng, hermitian=True)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    return ModelSpec(h, [_operator(k, n, rng, hermitian=False) for k in kinds]), rng


@st.composite
def ladder_models(draw, max_dim=10):
    # a diagonal Hamiltonian and a weighted lowering coupling conserve the
    # coherence order i - j, so the real Liouvillian splits into dim sectors
    n = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lowering = np.diag(rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1), 1)
    return ModelSpec(np.diag(rng.standard_normal(n)), [lowering]), rng


def _tol(*arrays):
    return 1e-10 * max(1.0, *(max_abs(a) for a in arrays))


@SETTINGS
@given(models())
def test_liouvillian_matches_elementwise_generators(drawn):
    # T R T' is the Schroedinger generator and T R^T T' the Heisenberg one
    model, rng = drawn
    x = random_matrix(model.dim, rng)
    lv = liouvillian(model)
    assert sps.issparse(lv.matrix) and lv.matrix.dtype == float
    for real, gen in ((lv.matrix.T, generator_heisenberg), (lv.matrix, generator_schroedinger)):
        expected = gen(model, x)
        got = unvec(complex_form(lv.basis, real) @ vec(x))
        assert np.abs(got - expected).max() <= _tol(expected, x)


@SETTINGS
@given(models())
def test_unital_and_trace_preserving(drawn):
    # I has coordinate 1 on each diagonal coordinate and 0 elsewhere, so R^T
    # annihilating it (unitality of G) says that the rows of R at the
    # diagonal coordinates sum to zero (G* preserves the trace)
    model, _ = drawn
    lv = liouvillian(model)
    identity = (lv.basis.conj().T @ vec(np.eye(model.dim, dtype=complex))).real
    assert np.abs(lv.matrix.T @ identity).max() <= _tol(lv.matrix.data)


@SETTINGS
@given(models())
def test_heisenberg_schroedinger_duality(drawn):
    model, rng = drawn
    rho = random_density(model.dim, rng)
    x = random_matrix(model.dim, rng)
    lhs = np.trace(generator_schroedinger(model, rho) @ x)
    rhs = np.trace(rho @ generator_heisenberg(model, x))
    assert abs(lhs - rhs) <= _tol(generator_heisenberg(model, x), x)


@SETTINGS
@given(models(min_dim=8, max_dim=10))
def test_dense_and_splu_null_spaces_agree(drawn):
    # below the dense limit the window never answers for `_null_space`, so
    # it is called directly: whenever it says it is exhaustive, it holds
    # the whole kernel
    model, _ = drawn
    lv = liouvillian(model)
    tol_abs = 1e-9 * max(1.0, lv.norm)
    real = lv.matrix
    dense = _null_space_dense(real, tol_abs)
    basis, method, exhaustive, estimate = _null_space(real, tol_abs)
    event(method)
    assert (basis.shape[1], exhaustive) == (dense.shape[1], True)
    assert method in (NULL_SPACE_BORDERED, NULL_SPACE_DENSE)
    assert (estimate is not None) == (method == NULL_SPACE_BORDERED)
    if method == NULL_SPACE_BORDERED:
        # the same state of trace 1, in the real coordinates
        diag = np.arange(model.dim) * (model.dim + 1)
        states = [x / x[diag].sum() for x in (basis[:, 0], dense[:, 0])]
        assert max_abs(states[0] - states[1]) <= 1e-10
    try:
        window, window_exhaustive = _null_space_arnoldi(real, tol_abs)
    except InvariantAnalysisError as exc:
        assert isinstance(exc.__cause__, spla.ArpackNoConvergence)
        event("window did not converge")
        return
    event(f"window exhaustive: {window_exhaustive}")
    assert window.shape[1] <= dense.shape[1]
    if window_exhaustive:
        assert window.shape[1] == dense.shape[1]
        # the same span: the window's basis lies in the dense SVD's kernel
        assert max_abs(window - dense @ (dense.T @ window)) <= 1e-6


@settings(derandomize=True, deadline=None, max_examples=5, database=None)
@given(st.integers(10, 60))
def test_oscillator_liouvillian_is_sparse(n):
    m = liouvillian(oscillator(n)).matrix
    assert sps.issparse(m)
    assert m.nnz <= 12 * n * n  # a dense assembly would hold n**4 entries


@SETTINGS
@given(st.one_of(models(), ladder_models()))
def test_real_form_is_a_unitary_change_of_basis_into_sectors(drawn):
    # that T R T' is the complex Liouvillian is checked elementwise in
    # test_liouvillian_matches_elementwise_generators
    # the propagator's frame on the sectors of one basis vector is closed
    # under R and under R^T: no nonzero links a kept coordinate to a dropped
    # one, which is what the Krylov steps on the kept block rely on
    model, rng = drawn
    lv = liouvillian(model)
    t = lv.basis
    assert np.abs((t.conj().T @ t - sps.identity(t.shape[0])).data).max(initial=0.0) <= 1e-15
    start = int(rng.integers(t.shape[0]))
    for matrix in (lv.matrix, lv.matrix.T.tocsr()):
        frame, x = _frame(lv, matrix, t[:, [start]].toarray().ravel())
        keep = np.abs((t.conj().T @ frame.basis).toarray()).argmax(axis=0)
        drop = np.setdiff1d(np.arange(t.shape[0]), keep)
        assert np.allclose(x, keep == start, rtol=0, atol=1e-15)
        assert (frame.matrix != matrix[keep][:, keep]).count_nonzero() == 0
        assert matrix[keep][:, drop].count_nonzero() == matrix[drop][:, keep].count_nonzero() == 0
    event(f"{frame.sectors} sectors")
    event("coordinates dropped" if drop.size else "no coordinate dropped")


def _assert_csgraph_sectors(matrix) -> int:
    """The sector labels of R and R^T partition the coordinates as csgraph's
    weak components do; returns the count."""
    for m in (matrix, matrix.T):
        count, expected = connected_components(m, directed=True, connection="weak")
        labels = _sector_labels(m)
        # a bijection between the two labellings: as many pairs as labels on each side
        pairs = np.unique(np.stack([labels, expected]), axis=1)
        assert pairs.shape[1] == np.unique(labels).size == count
        # each label is the smallest coordinate of its sector
        assert np.array_equal(labels[labels], labels) and np.all(labels <= np.arange(labels.size))
    return count


@SETTINGS
@given(st.one_of(models(), ladder_models()))
def test_sector_labels_are_csgraph_weak_components(drawn):
    model, _ = drawn
    event(f"{_assert_csgraph_sectors(liouvillian(model).matrix)} sectors")


def test_sector_labels_split_dephasing_into_every_coherence():
    # diagonal H and L: each population and each coherence pair is its own sector
    rng = np.random.default_rng(2)
    n = 64
    model = ModelSpec(np.diag(rng.standard_normal(n)),
                      [np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))])
    assert _assert_csgraph_sectors(liouvillian(model).matrix) == n * (n + 1) // 2


@SETTINGS
@given(models())
def test_real_sector_propagators_match_the_complex_expm_loop(drawn):
    # both sides renormalize every step (trace_tol = 0); the Krylov steps
    # run at rtol 1e-11, as the Dormand-Prince loop did, whose error reached
    # 2e-10 on some dim-2 draws at the default 1e-9
    model, rng = drawn
    rho0 = random_density(model.dim, rng)
    times = np.linspace(0.0, 2.0, 5)
    lv = liouvillian(model)
    propagator = sla.expm(complex_form(lv.basis, lv.matrix) * times[1])
    z = vec(rho0)
    expected = [rho0]
    for _ in times[1:]:
        z = propagator @ z
        z = z / np.trace(unvec(z)).real
        expected.append(unvec(z))
    traj = evolve(model, rho0, 2.0, n_points=5, rtol=1e-11, trace_tol=0.0)
    for state, x in zip(traj.states, expected):
        assert np.abs(state.matrix - x).max() <= 1e-10


@SETTINGS
@given(models(max_dim=6))
def test_heisenberg_probe_is_the_worst_case_over_states(drawn):
    # sup over states of tr(rho(t) V) is lambda_max(V(t)): no sampled state
    # exceeds the worst case at any time, and at t_final the state that starts
    # as the top eigenvector of V(t_final), from a dense expm of R^T, reaches it
    model, rng = drawn
    v = random_hermitian(model.dim, rng)
    low = np.linalg.eigvalsh(v)[0]
    probe = invariant_set_probe(model, v, t_final=3.0, n_points=5)
    tol = _tol(v)
    for _ in range(5):
        traj = evolve(model, random_density(model.dim, rng), 3.0, n_points=5)
        assert np.all(expectation_series(traj, v) - low <= probe.worst_case + tol)
    lv = liouvillian(model)
    v_final = unvec(sla.expm(3.0 * complex_form(lv.basis, lv.matrix.T)) @ vec(v))
    top = np.linalg.eigh((v_final + v_final.conj().T) / 2)[1][:, -1]
    traj = evolve(model, np.outer(top, top.conj()), 3.0, n_points=5)
    assert abs(expectation_series(traj, v)[-1] - low - probe.worst_final) <= tol


@SETTINGS
@given(models())
def test_probe_stays_under_the_best_rate_bound(drawn):
    # G(V) <= -cV + dI and a positive unital e^{tG} give
    # V(t) <= e^{-ct} V + (d/c)(1 - e^{-ct}) I; d above lambda_max(G(V))
    # makes dI - G(V) positive definite, so the best c is positive
    model, rng = drawn
    a = random_matrix(model.dim, rng)
    v = a @ a.conj().T
    top = float(np.linalg.eigvalsh(generator_heisenberg(model, v))[-1])
    d = max(0.0, top) + 1.0
    c = check_weak_lyapunov(model, v, c=1.0, d=d).metrics["best_c"]
    assert c > 0
    spectrum = np.linalg.eigvalsh(v)
    probe = invariant_set_probe(model, v, t_final=3.0, n_points=7)
    decay = np.exp(-c * np.linspace(0.0, 3.0, 7))
    bound = decay * spectrum[-1] + (d / c) * (1.0 - decay)
    assert np.all(probe.worst_case + spectrum[0] <= bound * (1.0 + 1e-12))


def test_arnoldi_non_convergence_falls_back_to_dense():
    # near-degenerate H and coupling: all 81 eigenvalues sit at the 1e-8
    # tolerance scale, where shift-invert Arnoldi stalls; below the dense
    # limit the dense SVD answers
    rng = np.random.default_rng(1)
    h = _operator("near_degenerate", 9, rng, hermitian=True)
    model = ModelSpec(h, [_operator("near_degenerate", 9, rng, hermitian=False)])
    lv = liouvillian(model)
    tol_abs = 1e-9 * max(1.0, lv.norm)
    real = lv.matrix
    with pytest.raises(InvariantAnalysisError, match="did not converge") as info:
        _null_space_arnoldi(real, tol_abs)
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)
    basis, method, exhaustive, _ = _null_space(real, tol_abs)
    assert (basis.shape[1], method, exhaustive) == (9, NULL_SPACE_DENSE, True)


def test_near_degenerate_kernel_above_dim_24_takes_the_dense_svd():
    # the same family at dim 26: the Arnoldi window spent 28.6 s in ARPACK
    # there and raised; singular values 28 and 29 lie at 0.09 and 1.08
    # tol_abs, either side of the cut
    rng = np.random.default_rng(1)
    h = _operator("near_degenerate", 26, rng, hermitian=True)
    model = ModelSpec(h, [_operator("near_degenerate", 26, rng, hermitian=False)])
    start = time.perf_counter()
    report = steady_states(model)
    assert time.perf_counter() - start < 2.0
    assert (report.null_space_method, report.exhaustive) == (NULL_SPACE_DENSE, True)
    assert report.null_dimension == 28


def test_window_crowded_near_the_shift_is_not_exhaustive():
    # near-degenerate H without dissipation: eigenvalues -i(e_i - e_j) of
    # size ~1e-8 crowd the shift sigma = 10 tol_abs, so the window of 8 holds
    # fewer null eigenvalues than the 9-dimensional kernel without being full
    rng = np.random.default_rng(1)
    h = _operator("near_degenerate", 9, rng, hermitian=True)
    model = ModelSpec(h, [_operator("zero", 9, rng, hermitian=False)])
    lv = liouvillian(model)
    tol_abs = 1e-9 * max(1.0, lv.norm)
    real = lv.matrix
    window, exhaustive = _null_space_arnoldi(real, tol_abs)
    assert window.shape[1] < 9
    assert not exhaustive
    basis, method, exhaustive, _ = _null_space(real, tol_abs)
    assert (basis.shape[1], method, exhaustive) == (9, NULL_SPACE_DENSE, True)


def test_repeated_null_eigenvalue_missed_by_the_window_is_not_exhaustive():
    # near-degenerate H without dissipation: every |e_i><e_i| is stationary,
    # so 0 is a 9-fold eigenvalue, of which real Arnoldi finds only a few
    # copies (4 here); the rest of the window holds eigenvalues just outside
    # the disc, so only the deflated rerun shows that null vectors were missed
    rng = np.random.default_rng(1117)
    model = ModelSpec(_operator("near_degenerate", 9, rng, hermitian=True), [np.zeros((9, 9))])
    lv = liouvillian(model)
    tol_abs = 1e-9 * max(1.0, lv.norm)
    real = lv.matrix
    window, exhaustive = _null_space_arnoldi(real, tol_abs)
    assert window.shape[1] < 9
    assert not exhaustive
    basis, method, exhaustive, _ = _null_space(real, tol_abs)
    assert (basis.shape[1], method, exhaustive) == (9, NULL_SPACE_DENSE, True)


@SETTINGS
@given(models())
def test_steady_states_lie_in_the_complex_liouvillian_kernel(drawn):
    # reference: dense eig of the complex dim^2 x dim^2 Liouvillian
    model, _ = drawn
    lv = liouvillian(model)
    m = complex_form(lv.basis, lv.matrix)
    tol_abs = 1e-9 * max(1.0, lv.norm)
    null_dim = int((np.abs(np.linalg.eigvals(m)) <= tol_abs).sum())
    report = steady_states(model)
    assert (report.null_dimension, report.exhaustive) == (null_dim, True)
    for state in report.states:
        assert max_abs(m @ vec(state.matrix)) <= 1e-9
    event(f"null dimension {null_dim}, {report.null_space_method}")


def test_kernel_wider_than_the_arnoldi_window_is_found_whole():
    # diagonal H and a diagonal coupling at dim 10: every |i><i| is
    # stationary, so the kernel has 10 directions, more than the window of 8
    n = 10
    model = ModelSpec(np.diag(np.arange(n, dtype=complex)), [np.diag(np.linspace(0.5, 2, n))])
    report = steady_states(model)
    assert report.null_dimension == n
    assert (report.null_space_method, report.exhaustive) == (NULL_SPACE_DENSE, True)
    assert len(report.states) == n
    assert report.unique == "not_unique"
    assert report.notes == ()
