"""Time integration of the semi-discrete system M psi'' + K psi = f(t) F_s.

Three schemes:

* ``newmark_run``: the implicit Newmark-beta family (trapezoidal rule for
  beta = 1/4, gamma = 1/2).  The iteration matrix S = M + beta dt^2 K is
  factorized once, after the factor of M has served the initial
  acceleration and been freed.
* ``cdm_run``: the central difference method in two-step displacement
  form, bootstrapped with a Taylor step.  Only M is factorized.  With
  g = dt^2 M^-1 F_s solved once, a step is
  psi_new = 2 psi - psi_prev + f_t(t_k) g - dt^2 M^-1 (K psi), updated in
  place in two swapped buffers, with M^-1 (K psi) solved into a third.
  A separable stiffness (``TensorSystem.stiffness_operator``) writes K psi
  into that buffer too, so on a boundary-fitted grid a step allocates
  no whole vector; a sparse K allocates K psi, and coupled mass rows the
  vectors of their LU solve.
* ``imex_run``: splits the DOFs into an explicitly integrated set ``d``
  (mass rows exactly diagonal, away from cut elements) and an implicitly
  integrated set ``c``.  The d-part advances with the central difference
  method, the c-part with the trapezoidal rule using the already updated
  d values; stability is then governed by the explicit subsystem alone.
  M is factored only for the d-row diagonal, the check that no d row
  couples and the initial acceleration, and that factor is freed before
  S_cc = M_cc + beta dt^2 K_cc is factored: one LU is alive at a time.

How a matrix is structured and solved (diagonal rows by division, the
coupled rest by one sparse factor) is left to :func:`linalg.factorize`.

All runs start from rest (psi = v = 0), share the force model
F(t) = f_t(t) * F_s, record observer samples at every step when an
observer matrix is given, and abort with ``DivergenceError`` when the
solution leaves a generous amplitude bound.
Wall-clock time is accumulated separately for factorization, right hand
side evaluation, and solve/update work.  For ``cdm_run`` the right hand
side is the stiffness product alone; its load term f_t(t_k) g is timed
with the solve and update (``backward_insertion``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .linalg import dt_crit as _dt_crit
from .linalg import factorize

DIVERGENCE_LIMIT = 1.0e12


class DivergenceError(RuntimeError):
    """The solution amplitude exploded (unstable time step)."""

    def __init__(self, step: int, amplitude: float):
        super().__init__(
            f"solution diverged at step {step}: max |psi| = {amplitude:.3e}")
        self.step = step
        self.amplitude = amplitude


@dataclass
class StageTimings:
    """Accumulated wall-clock seconds per solver stage."""

    factorization: float = 0.0
    rhs: float = 0.0
    backward_insertion: float = 0.0


@dataclass
class RunResult:
    method: str
    dt: float
    t: np.ndarray                 # (n_t + 1,) step times
    obs: np.ndarray | None        # (n_obs, n_t + 1) observer samples
    psi: np.ndarray               # final displacement
    timings: StageTimings
    fact_dim: int = 0             # factored dimension (cdm: the LU block)


def select_dt(dt_c: float, dt_max: float | None = None,
              safety: float = 0.9) -> float:
    """Working step: safety factor times the critical step, capped."""
    dt = safety * dt_c
    if dt_max is not None:
        dt = min(dt, dt_max)
    return dt


def imex_critical_time_step(K, M, d_idx, tol: float = 1e-9,
                            seed: int = 0) -> float:
    """Critical step of the explicitly integrated (d) subsystem."""
    d_idx = np.asarray(d_idx)
    if d_idx.shape[0] == 0:
        raise ValueError("explicit subsystem is empty")
    K_dd = K[d_idx][:, d_idx]
    M_dd = M[d_idx][:, d_idx]
    return _dt_crit(K_dd, M_dd, tol=tol, seed=seed)


def _check(psi, step):
    # max |psi| without a temporary; NaN propagates through max and min.
    amp = max(float(psi.max()), -float(psi.min())) if psi.size else 0.0
    if not np.isfinite(amp) or amp > DIVERGENCE_LIMIT:
        raise DivergenceError(step, amp)


class _Recorder:
    def __init__(self, obs_mat, n_t, dt):
        self.obs_mat = obs_mat
        self.t = np.arange(n_t + 1) * dt
        self.obs = (np.empty((obs_mat.shape[0], n_t + 1))
                    if obs_mat is not None else None)

    def record(self, k, psi):
        if self.obs is not None:
            self.obs[:, k] = self.obs_mat @ psi


def newmark_run(M, K, F_s, f_t, dt: float, n_t: int, obs_mat=None,
                beta: float = 0.25, gamma: float = 0.5,
                s_factory=None) -> RunResult:
    """Newmark-beta scheme; beta = 0 recovers the central difference method.

    ``s_factory``, when given, is a zero-argument callable returning a
    factorization of S = M + beta dt^2 K (anything with ``solve``); it lets
    separable grids solve S by mass-preconditioned conjugate gradients,
    and K then only needs to support matrix-vector products.  M is
    factored only for a(0) = M^-1 f_t(0) F_s, and that factor is freed
    before S is built, so the run never holds two LUs.
    """
    n = M.shape[0]
    psi = np.zeros(n)
    v = np.zeros(n)
    timings = StageTimings()
    rec = _Recorder(obs_mat, n_t, dt)

    t0 = time.perf_counter()
    M_fact = factorize(M)
    timings.factorization += time.perf_counter() - t0
    a = M_fact.solve(f_t(0.0) * F_s)
    del M_fact                    # one LU at a time: free M's before S's

    t0 = time.perf_counter()
    S_fact = (s_factory() if s_factory is not None
              else factorize(M + (beta * dt * dt) * K))
    timings.factorization += time.perf_counter() - t0
    rec.record(0, psi)

    for k in range(n_t):
        t_new = (k + 1) * dt
        psi_pred = psi + dt * v + (0.5 * dt * dt * (1.0 - 2.0 * beta)) * a
        v_pred = v + (dt * (1.0 - gamma)) * a
        t0 = time.perf_counter()
        rhs = f_t(t_new) * F_s - K @ psi_pred
        timings.rhs += time.perf_counter() - t0
        t0 = time.perf_counter()
        a = S_fact.solve(rhs)
        psi = psi_pred + (beta * dt * dt) * a
        v = v_pred + (gamma * dt) * a
        timings.backward_insertion += time.perf_counter() - t0
        rec.record(k + 1, psi)
        _check(psi, k + 1)
    return RunResult(method="newmark", dt=dt, t=rec.t, obs=rec.obs,
                     psi=psi, timings=timings,
                     fact_dim=n)


def cdm_run(M, K, F_s, f_t, dt: float, n_t: int, obs_mat=None) -> RunResult:
    """Central difference method in two-step displacement form.

    Every step writes psi_new into the buffer of psi_prev by BLAS axpy and
    in-place numpy operations, and the two buffers swap.  The mass solve
    writes into a third buffer.  K psi is ``K @ psi``, unless K carries a
    ``k_matvec(x, out)`` (the operator of
    :meth:`TensorSystem.stiffness_operator`) that writes it into that
    buffer, to be solved in place: then a step allocates no whole vector.
    """
    n = M.shape[0]
    psi = np.zeros(n)
    timings = StageTimings()
    rec = _Recorder(obs_mat, n_t, dt)

    t0 = time.perf_counter()
    M_fact = factorize(M)
    # Diagonal rows are solved by division; only an LU is a factorization
    # stage worth reporting.
    fact_dim = M_fact.coupled.size
    if fact_dim:
        timings.factorization += time.perf_counter() - t0

    dt2 = dt * dt
    g = dt2 * M_fact.solve(F_s)
    psi_prev = (0.5 * f_t(0.0)) * g
    axpy = get_blas_funcs("axpy", (psi,))
    buf = np.empty(n)
    if hasattr(K, "k_matvec"):
        product = lambda x: K.k_matvec(x, out=buf)
    else:
        product = lambda x: K @ x
    rec.record(0, psi)

    for k in range(n_t):
        t0 = time.perf_counter()
        Kpsi = product(psi)
        timings.rhs += time.perf_counter() - t0
        t0 = time.perf_counter()
        a = M_fact.solve(Kpsi, out=buf)
        np.subtract(psi, psi_prev, out=psi_prev)
        psi_prev += psi
        axpy(g, psi_prev, a=f_t(k * dt))
        axpy(a, psi_prev, a=-dt2)
        psi, psi_prev = psi_prev, psi
        timings.backward_insertion += time.perf_counter() - t0
        rec.record(k + 1, psi)
        _check(psi, k + 1)
    return RunResult(method="cdm", dt=dt, t=rec.t, obs=rec.obs,
                     psi=psi, timings=timings,
                     fact_dim=fact_dim)


def imex_run(M, K, F_s, f_t, dt: float, n_t: int, c_idx, d_idx,
             obs_mat=None, beta: float = 0.25, gamma: float = 0.5) -> RunResult:
    """Implicit-explicit split integration.

    The d-part steps with the central difference method using the full
    state at t_k; the c-part then steps with the Newmark scheme against
    the already updated d values at t_{k+1}.  Requires the d mass rows to
    be exactly diagonal, i.e. solved by division in ``factorize(M)``.
    That factor yields only m_d, this check and a(0) = M^-1 f_t(0) F_s,
    and is freed before S_cc is factored, so the run never holds two LUs.
    Degenerates to ``cdm_run`` when c is empty and to ``newmark_run`` when
    d is empty.
    """
    n = M.shape[0]
    c_idx = np.asarray(c_idx, dtype=np.int64)
    d_idx = np.asarray(d_idx, dtype=np.int64)
    if c_idx.shape[0] + d_idx.shape[0] != n:
        raise ValueError("c and d index sets must partition the DOFs")
    psi = np.zeros(n)
    timings = StageTimings()
    rec = _Recorder(obs_mat, n_t, dt)
    M = M.tocsr()
    K = K.tocsr()

    t0 = time.perf_counter()
    M_fact = factorize(M)
    if np.isin(d_idx, M_fact.coupled).any():
        raise ValueError("d mass rows couple to other DOFs, so the mass is "
                         "not diagonal on the explicit set; the basis/lumping "
                         "choice does not support the implicit-explicit split")
    m_d = M_fact.diag[d_idx]
    timings.factorization += time.perf_counter() - t0
    a = M_fact.solve(f_t(0.0) * F_s)
    del M_fact                    # one LU at a time: free M's before S's

    t0 = time.perf_counter()
    K_c = K[c_idx]
    S_fact = factorize(M[c_idx][:, c_idx] + (beta * dt * dt) * K_c[:, c_idx])
    K_d = K[d_idx]
    timings.factorization += time.perf_counter() - t0

    a_c = a[c_idx]
    psi_prev_d = (0.5 * dt * dt) * a[d_idx]
    F_d = F_s[d_idx]
    F_c = F_s[c_idx]
    psi_c = np.zeros(c_idx.shape[0])
    v_c = np.zeros(c_idx.shape[0])
    rec.record(0, psi)

    for k in range(n_t):
        t_k = k * dt
        t_new = t_k + dt
        t0 = time.perf_counter()
        rhs_d = f_t(t_k) * F_d - K_d @ psi
        timings.rhs += time.perf_counter() - t0
        t0 = time.perf_counter()
        psi_d = psi[d_idx]
        psi[d_idx] = 2.0 * psi_d - psi_prev_d + (dt * dt) * (rhs_d / m_d)
        psi_prev_d = psi_d
        timings.backward_insertion += time.perf_counter() - t0
        psi_c_pred = psi_c + dt * v_c + (0.5 * dt * dt * (1.0 - 2.0 * beta)) * a_c
        v_pred = v_c + (dt * (1.0 - gamma)) * a_c
        psi[c_idx] = psi_c_pred
        t0 = time.perf_counter()
        rhs_c = f_t(t_new) * F_c - K_c @ psi
        timings.rhs += time.perf_counter() - t0
        t0 = time.perf_counter()
        a_c = S_fact.solve(rhs_c)
        psi_c = psi_c_pred + (beta * dt * dt) * a_c
        v_c = v_pred + (gamma * dt) * a_c
        psi[c_idx] = psi_c
        timings.backward_insertion += time.perf_counter() - t0
        rec.record(k + 1, psi)
        _check(psi, k + 1)
    return RunResult(method="imex", dt=dt, t=rec.t, obs=rec.obs,
                     psi=psi, timings=timings,
                     fact_dim=c_idx.shape[0])
