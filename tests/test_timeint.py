import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from wavecell import timeint
from wavecell.assembly import Grid, TensorSystem
from wavecell.basis import BasisSpec
from wavecell.geometry import ImmersedGeometry
from wavecell.linalg import dt_crit, factorize
from wavecell.timeint import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    RunResult,
    cdm_run,
    imex_critical_time_step,
    imex_run,
    newmark_run,
    select_dt,
)


def scalar_system(omega):
    M = sp.csr_matrix(np.array([[1.0]]))
    K = sp.csr_matrix(np.array([[omega * omega]]))
    return M, K, np.zeros(1), sp.identity(1, format="csr")


def bar_system():
    """3-element linear bar with lumped mass, free ends."""
    h = 1.0 / 3.0
    M = sp.diags([h / 2.0, h, h, h / 2.0]).tocsr()
    K1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    K = np.zeros((4, 4))
    for e in range(3):
        K[e:e + 2, e:e + 2] += K1
    return M, sp.csr_matrix(K)


def zero_f(t):
    return 0.0


def step_f(t):
    return 1.0


def step_load_system(omega):
    """Unit-mass oscillator under the step load omega^2: from rest,
    psi(t) = 1 - cos(omega t), a free vibration of amplitude 1 about the
    static deflection 1."""
    M, K, _, obs = scalar_system(omega)
    return M, K, np.array([omega * omega]), obs


def test_all_integrators_conserve_zero():
    M, K = bar_system()
    F = np.zeros(4)
    obs = sp.identity(4, format="csr")
    runs = [
        cdm_run(M, K, F, zero_f, 1e-2, 50, obs_mat=obs),
        newmark_run(M, K, F, zero_f, 1e-2, 50, obs_mat=obs),
        imex_run(M, K, F, zero_f, 1e-2, 50, np.array([1, 2]),
                 np.array([0, 3]), obs_mat=obs),
    ]
    for r in runs:
        assert np.all(r.psi == 0.0)
        assert np.all(r.obs == 0.0)
        assert r.t.shape == (51,)
        assert r.t[-1] == pytest.approx(0.5)


def test_newmark_unconditionally_stable_far_beyond_cfl():
    omega = 100.0
    M, K, F, obs = step_load_system(omega)
    dt = 10.0 / omega  # fifty times the explicit limit
    r = newmark_run(M, K, F, step_f, dt, 1000, obs_mat=obs)
    assert np.abs(r.obs - 1.0).max() <= 1.0 + 1e-9


def test_cdm_stability_dichotomy():
    M, K, F, obs = step_load_system(1.0)  # dt_crit = 2
    r = cdm_run(M, K, F, step_f, 1.99, 10000, obs_mat=obs)
    assert np.abs(r.obs).max() <= 50.0
    with pytest.raises(DivergenceError) as exc:
        cdm_run(M, K, F, step_f, 2.01, 10000, obs_mat=obs)
    assert exc.value.step > 0
    assert exc.value.amplitude > DIVERGENCE_LIMIT


def two_step_cdm(M, K, F_s, f_t, dt, n_t, obs_mat):
    """Reference central difference loop: a fresh vector per operation and
    the load inside the mass solve, psi_new = 2 psi - psi_prev +
    dt^2 M^-1 (f_t(t_k) F_s - K psi)."""
    fac = factorize(M)
    psi = np.zeros(M.shape[0])
    psi_prev = (0.5 * dt * dt) * fac.solve(f_t(0.0) * F_s)
    obs = [obs_mat @ psi]
    for k in range(n_t):
        rhs = f_t(k * dt) * F_s - K @ psi
        psi, psi_prev = 2.0 * psi - psi_prev + (dt * dt) * fac.solve(rhs), psi
        obs.append(obs_mat @ psi)
        amp = float(np.max(np.abs(psi)))
        if not np.isfinite(amp) or amp > DIVERGENCE_LIMIT:
            raise DivergenceError(k + 1, amp)
    return psi, np.stack(obs, axis=1)


def random_diagonal_system(n=10):
    rng = np.random.default_rng(6)
    M = sp.diags(rng.uniform(0.5, 2.0, n)).tocsr()
    A = rng.standard_normal((n, n))
    K = sp.csr_matrix(A @ A.T + n * np.eye(n))
    return M, K, rng.standard_normal(n), sp.identity(n, format="csr")


def consistent_bar_system(n_el=8):
    """Linear bar with the consistent (coupled) mass, free ends."""
    h = 1.0 / n_el
    M = np.zeros((n_el + 1, n_el + 1))
    K = np.zeros((n_el + 1, n_el + 1))
    for e in range(n_el):
        M[e:e + 2, e:e + 2] += h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        K[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    F = np.random.default_rng(2).standard_normal(n_el + 1)
    return (sp.csr_matrix(M), sp.csr_matrix(K), F,
            sp.identity(n_el + 1, format="csr"))


def tensor_system():
    """Boundary-fitted Lagrange p=3, n_e=3, its stiffness an operator."""
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=3, n_e=3),
                      boundary_fitted=True)
    tensor = TensorSystem(grid, rho=1.3, c=0.7)
    n = tensor.n_dof
    F = np.random.default_rng(4).standard_normal(n)
    obs = sp.csr_matrix(np.eye(n)[::37])
    return tensor.mass_matrix(), tensor.stiffness_operator(), F, obs


@pytest.mark.parametrize("system", [random_diagonal_system,
                                    consistent_bar_system, tensor_system])
def test_cdm_matches_two_step_recurrence(system):
    M, K, F, obs = system()
    dt = 0.5 * dt_crit(K, M)
    f = lambda t: np.sin(30.0 * t)
    r = cdm_run(M, K, F, f, dt, 200, obs_mat=obs)
    psi, want = two_step_cdm(M, K, F, f, dt, 200, obs)
    assert np.abs(r.obs - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(r.psi - psi).max() <= 1e-12 * np.abs(psi).max()


def test_tensor_cdm_step_allocates_no_vector():
    # The traced peak of a whole run does not grow with n_t, and within
    # the loop (sampled from f_t, which every step calls once, into a
    # preallocated array) it stays below half an n-vector above its start
    # at step 1: no step allocates a vector.
    M, K, F, obs = tensor_system()
    vector = 8 * M.shape[0]
    dt = 0.5 * dt_crit(K, M)
    state = {"calls": 0, "start": 0}
    growth = np.zeros(201, dtype=np.int64)

    def f(t):
        k = state["calls"]            # 0 before the loop, then step k - 1
        state["calls"] = k + 1
        if k == 2:
            tracemalloc.reset_peak()
            state["start"] = tracemalloc.get_traced_memory()[0]
        elif k > 2:
            growth[k] = tracemalloc.get_traced_memory()[1] - state["start"]
        return np.sin(30.0 * t)

    peaks = {}
    for n_t in (50, 200):
        state["calls"] = 0
        growth[:] = 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cdm_run(M, K, F, f, dt, n_t, obs_mat=obs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert state["calls"] == n_t + 1
        assert growth[3:n_t + 1].max() < vector // 2
        # less the observer history, the one result that grows with n_t
        peaks[n_t] = peak - 8 * obs.shape[0] * (n_t + 1)
    assert abs(peaks[200] - peaks[50]) < vector // 2
    # the set-up: the mass factorization, g and the three loop buffers
    assert peaks[200] <= 8 * vector


@pytest.mark.parametrize("f_t", [step_f, lambda t: np.nan], ids=["step", "nan"])
def test_cdm_divergence_matches_two_step_recurrence(f_t):
    M, K, F, obs = step_load_system(1.0)  # dt_crit = 2
    with pytest.raises(DivergenceError) as want:
        two_step_cdm(M, K, F, f_t, 2.01, 10000, obs)
    with pytest.raises(DivergenceError) as got:
        cdm_run(M, K, F, f_t, 2.01, 10000, obs_mat=obs)
    assert got.value.step == want.value.step
    if np.isfinite(want.value.amplitude):
        assert got.value.amplitude == pytest.approx(want.value.amplitude,
                                                    rel=1e-9)
    else:
        assert not np.isfinite(got.value.amplitude)


@pytest.mark.parametrize("runner", [cdm_run, newmark_run])
def test_second_order_convergence_scalar(runner):
    # 1 - cos(omega t) step response, errors sampled at shared times
    omega, T = 5.0, 2.0
    M, K, F, obs = step_load_system(omega)
    errs = []
    for n_t in (100, 200):
        dt = T / n_t
        r = runner(M, K, F, step_f, dt, n_t, obs_mat=obs)
        stride = n_t // 100
        got = r.obs[0, ::stride]
        exact = 1.0 - np.cos(omega * r.t[::stride])
        errs.append(np.linalg.norm(got - exact))
    assert 3.6 <= errs[0] / errs[1] <= 4.4


def test_cdm_equals_newmark_beta_zero():
    rng = np.random.default_rng(6)
    n = 10
    M = sp.diags(rng.uniform(0.5, 2.0, n)).tocsr()
    A = rng.standard_normal((n, n))
    K = sp.csr_matrix(A @ A.T + n * np.eye(n))
    F = rng.standard_normal(n)
    obs = sp.identity(n, format="csr")
    from wavecell.linalg import dt_crit
    dt = 0.5 * dt_crit(K, M)
    f = lambda t: np.sin(3.0 * t)
    r_cdm = cdm_run(M, K, F, f, dt, 200, obs_mat=obs)
    r_nm = newmark_run(M, K, F, f, dt, 200, obs_mat=obs, beta=0.0, gamma=0.5)
    scale = np.abs(r_cdm.obs).max()
    assert np.abs(r_cdm.obs - r_nm.obs).max() <= 1e-10 * scale


def test_imex_empty_c_equals_cdm():
    M, K = bar_system()
    F = np.array([0.0, 1.0, 0.5, 0.2])
    obs = sp.identity(4, format="csr")
    f = lambda t: np.sin(6.0 * t)
    dt, n_t = 5e-3, 200
    r_imex = imex_run(M, K, F, f, dt, n_t, np.array([], dtype=int),
                      np.arange(4), obs_mat=obs)
    r_cdm = cdm_run(M, K, F, f, dt, n_t, obs_mat=obs)
    assert np.abs(r_imex.obs - r_cdm.obs).max() <= 1e-12
    assert r_imex.fact_dim == 0


def test_imex_empty_d_equals_newmark():
    M, K = bar_system()
    # dense SPD mass so the implicit branch is nontrivial
    M = sp.csr_matrix(M.toarray() + 0.05 * np.ones((4, 4)))
    F = np.array([0.0, 1.0, 0.5, 0.2])
    obs = sp.identity(4, format="csr")
    f = lambda t: np.sin(6.0 * t)
    dt, n_t = 5e-3, 200
    r_imex = imex_run(M, K, F, f, dt, n_t, np.arange(4),
                      np.array([], dtype=int), obs_mat=obs)
    r_nm = newmark_run(M, K, F, f, dt, n_t, obs_mat=obs)
    scale = np.abs(r_nm.obs).max()
    assert np.abs(r_imex.obs - r_nm.obs).max() <= 1e-12 * max(scale, 1.0)
    assert r_imex.fact_dim == 4


def test_imex_second_order_on_split_bar():
    M, K = bar_system()
    F = np.array([0.0, 1.0, 0.5, 0.2])
    obs = sp.identity(4, format="csr")
    f = lambda t: np.sin(6.0 * t)
    T = 1.0
    c_idx, d_idx = np.array([1, 2]), np.array([0, 3])
    ref = newmark_run(M, K, F, f, T / 25600, 25600, obs_mat=obs)
    errs = []
    for n_t in (50, 100, 200):
        r = imex_run(M, K, F, f, T / n_t, n_t, c_idx, d_idx, obs_mat=obs)
        stride = n_t // 50
        ref_stride = 25600 // 50
        d = r.obs[:, ::stride] - ref.obs[:, ::ref_stride]
        errs.append(np.linalg.norm(d))
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_imex_rejects_bad_partitions():
    M, K = bar_system()
    F = np.zeros(4)
    with pytest.raises(ValueError, match="partition"):
        imex_run(M, K, F, zero_f, 1e-3, 3, np.array([1]), np.array([0, 3]))
    # consistent mass couples d rows into c
    M_cons = sp.csr_matrix(np.array(
        [[2.0, 1.0, 0.0, 0.0],
         [1.0, 4.0, 1.0, 0.0],
         [0.0, 1.0, 4.0, 1.0],
         [0.0, 0.0, 1.0, 2.0]]) / 18.0)
    with pytest.raises(ValueError, match="couple"):
        imex_run(M_cons, K, F, zero_f, 1e-3, 3, np.array([1, 2]),
                 np.array([0, 3]))
    # d block itself not diagonal
    with pytest.raises(ValueError, match="not diagonal"):
        imex_run(M_cons, K, F, zero_f, 1e-3, 3, np.array([], dtype=int),
                 np.arange(4))


@pytest.mark.parametrize("run, want", [
    (lambda M, K, F: imex_run(M, K, F, np.sin, 1e-3, 5, np.array([1, 2]),
                              np.array([0, 3])), [2, 2]),
    (lambda M, K, F: newmark_run(M, K, F, np.sin, 1e-3, 5), [2, 4]),
], ids=["imex", "newmark"])
def test_imex_holds_one_factor_at_a_time(monkeypatch, run, want):
    # The mass factor serves only a(0), and for IMEX m_d and the coupling
    # check: it is freed before S is factored, so no two LUs are alive
    # together.  Rows 1 and 2 of this mass couple, so both factors hold an
    # LU: the c block of S for IMEX, all of S for Newmark.
    M, K = bar_system()
    M = M.tolil()
    M[1, 2] = M[2, 1] = 0.01
    F = np.array([0.0, 1.0, 0.5, 0.2])
    factors, lu_dims = [], []

    def tracked(A):
        gc.collect()
        assert all(ref() is None for ref in factors)
        fac = factorize(A)
        factors.append(weakref.ref(fac))
        lu_dims.append(fac.coupled.size)
        return fac

    monkeypatch.setattr(timeint, "factorize", tracked)
    run(M.tocsr(), K, F)
    assert lu_dims == want


def test_imex_critical_time_step_matches_subsystem():
    M, K = bar_system()
    d_idx = np.array([0, 3])
    got = imex_critical_time_step(K, M, d_idx, tol=1e-12)
    # K_dd and M_dd are diagonal here, so the value is analytic
    lam = (K[0, 0] / M[0, 0])
    assert got == pytest.approx(2.0 / np.sqrt(lam), rel=1e-9)
    with pytest.raises(ValueError):
        imex_critical_time_step(K, M, np.array([], dtype=int))


def test_linearity_of_runs():
    M, K = bar_system()
    F1 = np.array([0.2, -0.4, 1.0, 0.3])
    F2 = np.array([0.1, 0.0, -0.2, 0.05])
    obs = sp.identity(4, format="csr")
    f = lambda t: np.cos(2.0 * t)
    for runner in (cdm_run, newmark_run):
        r_1 = runner(M, K, F1, f, 1e-2, 100, obs_mat=obs)
        r_2 = runner(M, K, F2, f, 1e-2, 100, obs_mat=obs)
        r_both = runner(M, K, F1 + F2, f, 1e-2, 100, obs_mat=obs)
        r_scaled = runner(M, K, F1, lambda t: 3.0 * f(t), 1e-2, 100,
                          obs_mat=obs)
        scale = np.abs(r_both.obs).max()
        assert np.abs(r_1.obs + r_2.obs - r_both.obs).max() <= 1e-12 * scale
        assert np.abs(3.0 * r_1.obs - r_scaled.obs).max() <= 1e-12 * scale


def test_select_dt_rules():
    assert select_dt(4.17564e-3, 6.8966e-3) == pytest.approx(3.758076e-3,
                                                             rel=1e-9)
    assert select_dt(1.0) == pytest.approx(0.9)
    assert select_dt(1.0, 0.5) == 0.5
    assert select_dt(1.0, None, safety=0.5) == pytest.approx(0.5)


def test_timings_and_fact_dims_reported():
    M, K = bar_system()
    F = np.array([0.0, 1.0, 0.5, 0.2])
    f = lambda t: np.sin(6.0 * t)
    r_cdm = cdm_run(M, K, F, f, 1e-3, 50)
    assert r_cdm.fact_dim == 0  # diagonal mass: nothing factored
    assert r_cdm.timings.factorization == 0.0
    assert r_cdm.timings.rhs > 0.0
    r_nm = newmark_run(M, K, F, f, 1e-3, 50)
    assert r_nm.fact_dim == 4
    assert r_nm.timings.factorization > 0.0
    r_imex = imex_run(M, K, F, f, 1e-3, 50, np.array([1, 2]),
                      np.array([0, 3]))
    assert r_imex.fact_dim == 2
