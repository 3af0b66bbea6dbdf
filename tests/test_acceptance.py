"""Acceptance gate: one test per benchmark claim, each printing a PASS line.

Shared discrete systems are session fixtures (the octree caches dominate
set-up cost and several criteria reuse the same operators); every test
times its own computations against the stated wall-clock budget on one
core. Criterion order matches the numbered test names.
"""

import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from wavecell.assembly import ElementIntegralCache, Grid, assemble, ricker
from wavecell.basis import BasisSpec
from wavecell.geometry import ImmersedGeometry
from wavecell.harness import (BenchmarkConfig, dof_count, execute,
                              observer_matrix, prepare, reference_run,
                              relative_error, sample_observers,
                              timing_study, write_study_csv)
from wavecell.linalg import dt_crit, max_gen_eig
from wavecell.stabilization import (StabilizationParams, evs_stabilize,
                                    hrz_lump, row_sum_lump)
from wavecell.timeint import (DivergenceError, cdm_run,
                              imex_critical_time_step, imex_run,
                              newmark_run, select_dt)

L_P = 0.3


def f_t(t):
    return ricker(t, 10.0)


def run_explicit(system, grid, safety=0.9):
    """CDM run at the auto-selected step, returning (result, dt_c, n_t)."""
    dt_c = dt_crit(system.K, system.M, tol=1e-7, seed=0)
    dt = select_dt(dt_c, None, safety)
    n_t = int(np.ceil(1.0 / dt - 1e-12))
    dt = 1.0 / n_t
    result = cdm_run(system.M, system.K, system.F_s, f_t, dt, n_t,
                     obs_mat=observer_matrix(grid))
    return result, dt_c, n_t


@pytest.fixture(scope="session")
def source():
    return BenchmarkConfig(l_p=L_P).source()


@pytest.fixture(scope="session")
def grid13(benchmark_geometry):
    return Grid.build(benchmark_geometry,
                      BasisSpec(family="lagrange", p=3, n_e=13))


@pytest.fixture(scope="session")
def cache13(grid13):
    return ElementIntegralCache(grid13, octree_depth=4)


@pytest.fixture(scope="session")
def sys13_a8(grid13, cache13, source):
    return assemble(grid13, StabilizationParams(alpha=1e-8), source=source,
                    cache=cache13)


@pytest.fixture(scope="session")
def sys13_a12(grid13, cache13, source):
    return assemble(grid13, StabilizationParams(alpha=1e-12), source=source,
                    cache=cache13)


@pytest.fixture(scope="session")
def grid10(benchmark_geometry):
    return Grid.build(benchmark_geometry,
                      BasisSpec(family="lagrange", p=3, n_e=10))


@pytest.fixture(scope="session")
def cache10(grid10):
    return ElementIntegralCache(grid10, octree_depth=4)


@pytest.fixture(scope="session")
def sys10_a8(grid10, cache10, source):
    return assemble(grid10, StabilizationParams(alpha=1e-8), source=source,
                    cache=cache10)


def test_criterion_1_dof_counts(benchmark_geometry):
    exact = [(2, 28, 52353), (3, 13, 22816), (4, 9, 21109), (5, 7, 22706)]
    for p, n_e, expected in exact:
        t0 = time.perf_counter()
        got = dof_count(BasisSpec(family="lagrange", p=p, n_e=n_e),
                        benchmark_geometry)
        elapsed = time.perf_counter() - t0
        assert got == expected, f"lagrange p={p} n_e={n_e}: {got}"
        assert elapsed < 1.0
    spline = [(2, 34, 14130), (3, 32, 14079)]
    spline_got = []
    for p, n_e, expected in spline:
        t0 = time.perf_counter()
        got = dof_count(BasisSpec(family="bspline", p=p, n_e=n_e),
                        benchmark_geometry)
        elapsed = time.perf_counter() - t0
        assert abs(got - expected) <= 0.01 * expected, \
            f"bspline p={p} n_e={n_e}: {got}"
        assert elapsed < 1.0
        spline_got.append(got)
    print(f"\nCRITERION 1 PASS: lagrange counts exact "
          f"{[e for _, _, e in exact]}, bspline {spline_got} within 1% of "
          f"{[e for _, _, e in spline]}")


def test_criterion_2_critical_step_magnitudes(grid13, sys13_a8, sys13_a12):
    t0 = time.perf_counter()
    dtc = dt_crit(sys13_a8.K, sys13_a8.M, tol=1e-7, seed=0)
    elapsed_scm = time.perf_counter() - t0
    assert elapsed_scm <= 120.0
    assert abs(dtc - 3.83e-4) <= 0.20 * 3.83e-4, f"dt_crit={dtc}"

    t0 = time.perf_counter()
    dtd = imex_critical_time_step(sys13_a12.K, sys13_a12.M,
                                  grid13.dofmap.d_idx, tol=1e-7)
    elapsed_imex = time.perf_counter() - t0
    assert elapsed_imex <= 120.0
    assert abs(dtd - 5.85e-3) <= 0.20 * 5.85e-3, f"imex dt_crit={dtd}"
    print(f"\nCRITERION 2 PASS: dt_crit={dtc:.6e} (target 3.83e-4 +-20%, "
          f"{elapsed_scm:.1f}s), imex dt_crit={dtd:.6e} (target 5.85e-3 "
          f"+-20%, {elapsed_imex:.1f}s)")


def test_criterion_3_stability_dichotomy(grid10, sys10_a8):
    t0 = time.perf_counter()
    dtc = dt_crit(sys10_a8.K, sys10_a8.M, tol=1e-7, seed=0)
    obs = observer_matrix(grid10)
    stable = cdm_run(sys10_a8.M, sys10_a8.K, sys10_a8.F_s, f_t,
                     0.99 * dtc, 2000, obs_mat=obs)
    assert np.isfinite(stable.psi).all()
    assert np.isfinite(stable.obs).all()
    with pytest.raises(DivergenceError) as exc:
        cdm_run(sys10_a8.M, sys10_a8.K, sys10_a8.F_s, f_t,
                1.05 * dtc, 2000, obs_mat=obs)
    elapsed = time.perf_counter() - t0
    assert exc.value.step <= 2000
    assert elapsed <= 120.0
    print(f"\nCRITERION 3 PASS: 0.99*dt_crit finite over 2000 steps, "
          f"1.05*dt_crit diverged at step {exc.value.step} ({elapsed:.1f}s)")


def test_criterion_4_imex_stability_independence(grid13, sys13_a12):
    t0 = time.perf_counter()
    dm = grid13.dofmap
    dtd = imex_critical_time_step(sys13_a12.K, sys13_a12.M, dm.d_idx,
                                  tol=1e-7)
    # a Lanczos Ritz value is a Rayleigh quotient, so it bounds lam_max
    # from below and a loose-tolerance run already gives a rigorous upper
    # bound on the global critical step; full convergence on this
    # clustered pencil is not needed to prove the half-step precondition
    lam_lb, _ = max_gen_eig(sys13_a12.K, sys13_a12.M, tol=1e-3, seed=0)
    dt_global_ub = 2.0 / np.sqrt(lam_lb)
    assert dt_global_ub <= 0.5 * dtd, \
        f"global dt_crit bound {dt_global_ub} vs half-step {0.5 * dtd}"

    result = imex_run(sys13_a12.M, sys13_a12.K, sys13_a12.F_s, f_t,
                      0.9 * dtd, 2000, dm.c_idx, dm.d_idx,
                      obs_mat=observer_matrix(grid13))
    elapsed = time.perf_counter() - t0
    assert np.isfinite(result.psi).all()
    assert np.isfinite(result.obs).all()
    assert result.fact_dim == len(dm.c_idx)
    assert elapsed <= 180.0
    print(f"\nCRITERION 4 PASS: global dt_crit <= {dt_global_ub:.3e} <= "
          f"half of explicit-subsystem {dtd:.3e}; 2000 imex steps at "
          f"0.9x stayed finite ({elapsed:.1f}s)")


def test_criterion_5_temporal_convergence_order(benchmark_geometry, source):
    t0 = time.perf_counter()
    bf = dict(family="lagrange", p=4, n_e=6, boundary_fitted=True)
    grid = Grid.build(benchmark_geometry, BasisSpec(family="lagrange", p=4,
                                                    n_e=6),
                      boundary_fitted=True)
    system = assemble(grid, StabilizationParams(alpha=1e-8), source=source)
    dtc = dt_crit(system.K, system.M, tol=1e-7, seed=0)

    slopes = {}
    excluded = {}
    for method in ("cdm", "newmark"):
        ref_cfg = BenchmarkConfig(method=method, n_t=12800, **bf)
        ref_sig = sample_observers(execute(prepare(ref_cfg), ref_cfg),
                                   100, T=1.0)
        errs = {}
        excluded[method] = []
        for n_t in (200, 400, 800, 1600):
            cfg = BenchmarkConfig(method=method, n_t=n_t, **bf)
            try:
                res = execute(prepare(cfg), cfg)
            except DivergenceError:
                # a run may be dropped only when its step provably exceeds
                # the independently measured stability limit
                assert 1.0 / n_t > dtc, \
                    f"{method} diverged below the stability limit {dtc}"
                assert method == "cdm"
                excluded[method].append(n_t)
                continue
            errs[n_t] = relative_error(
                sample_observers(res, 100, T=1.0), ref_sig)
        assert len(errs) >= 3, f"{method}: too few stable points"
        nts = sorted(errs)
        slope = np.polyfit(np.log([1.0 / n for n in nts]),
                           np.log([errs[n] for n in nts]), 1)[0]
        assert 1.8 <= slope <= 2.2, f"{method} slope {slope}"
        slopes[method] = slope
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    note = (f" (cdm n_t={excluded['cdm']} excluded: dt above measured "
            f"dt_crit={dtc:.4e})" if excluded["cdm"] else "")
    print(f"\nCRITERION 5 PASS: slopes cdm={slopes['cdm']:.2f}, "
          f"newmark={slopes['newmark']:.2f} in 2.0+-0.2{note} "
          f"({elapsed:.1f}s)")


def test_criterion_6_spatial_accuracy(benchmark_geometry, source,
                                      grid10, sys10_a8, grid13, sys13_a8):
    t0 = time.perf_counter()
    ref_sig = sample_observers(reference_run(), 10000, T=1.0)
    errors = {}
    for n_e in (6, 10, 13):
        if n_e == 10:
            system, grid = sys10_a8, grid10
        elif n_e == 13:
            system, grid = sys13_a8, grid13
        else:
            grid = Grid.build(benchmark_geometry,
                              BasisSpec(family="lagrange", p=3, n_e=n_e))
            system = assemble(grid, StabilizationParams(alpha=1e-8),
                              source=source,
                              cache=ElementIntegralCache(grid,
                                                         octree_depth=4))
        result, _, _ = run_explicit(system, grid)
        sig = sample_observers(result, 10000, T=1.0)
        errors[n_e] = relative_error(sig, ref_sig)
    elapsed = time.perf_counter() - t0
    assert errors[13] <= 0.05, f"e_ss(n13)={errors[13]}"
    assert errors[6] > errors[10] > errors[13], f"not monotone: {errors}"
    assert elapsed <= 900.0
    print(f"\nCRITERION 6 PASS: e_ss n6={errors[6]:.4f} > "
          f"n10={errors[10]:.4f} > n13={errors[13]:.4f} <= 0.05 "
          f"({elapsed:.1f}s)")


def test_criterion_7_stabilization_monotonicity(grid10, cache10, sys10_a8,
                                                source):
    t0 = time.perf_counter()
    def dtc_for(params):
        system = assemble(grid10, params, source=source, cache=cache10)
        return dt_crit(system.K, system.M, tol=1e-7, seed=0)

    dtc_a = {1e-4: dtc_for(StabilizationParams(alpha=1e-4)),
             1e-8: dt_crit(sys10_a8.K, sys10_a8.M, tol=1e-7, seed=0),
             1e-12: dtc_for(StabilizationParams(alpha=1e-12))}
    assert dtc_a[1e-4] >= 1.05 * dtc_a[1e-8], f"alpha chain: {dtc_a}"
    assert dtc_a[1e-8] >= 1.05 * dtc_a[1e-12], f"alpha chain: {dtc_a}"

    dtc_e = {0.0: dtc_a[1e-12],
             1e-6: dtc_for(StabilizationParams(alpha=1e-12, epsilon=1e-6)),
             1e-4: dtc_for(StabilizationParams(alpha=1e-12, epsilon=1e-4))}
    assert dtc_e[1e-4] >= 1.05 * dtc_e[1e-6], f"epsilon chain: {dtc_e}"
    assert dtc_e[1e-6] >= 1.05 * dtc_e[0.0], f"epsilon chain: {dtc_e}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    print(f"\nCRITERION 7 PASS: dt_crit alpha "
          f"{dtc_a[1e-4]:.3e} > {dtc_a[1e-8]:.3e} > {dtc_a[1e-12]:.3e}; "
          f"epsilon {dtc_e[1e-4]:.3e} > {dtc_e[1e-6]:.3e} > "
          f"{dtc_e[0.0]:.3e}, separations >= 5% ({elapsed:.1f}s)")


def test_criterion_8_oracle_equivalences(benchmark_geometry, source):
    timings = {}

    # explicit Newmark member reproduces central differences
    rng = np.random.default_rng(11)
    A = rng.standard_normal((10, 10))
    M = A @ A.T + 10.0 * np.eye(10)
    B = rng.standard_normal((10, 10))
    K = B @ B.T + 10.0 * np.eye(10)
    F = rng.standard_normal(10)
    lam = scipy.linalg.eigh(K, M, eigvals_only=True)[-1]
    dt = 0.5 * 2.0 / np.sqrt(lam)
    forcing = np.sin
    t0 = time.perf_counter()
    r_cdm = cdm_run(M, K, F, forcing, dt, 200)
    r_nm = newmark_run(M, K, F, forcing, dt, 200, beta=0.0, gamma=0.5)
    assert np.abs(r_nm.psi - r_cdm.psi).max() <= 1e-10
    timings["newmark0=cdm"] = time.perf_counter() - t0

    # imex degenerate splits
    h = 1.0 / 3.0
    Mb = sp.csr_matrix(np.diag([h / 2.0, h, h, h / 2.0]))
    Kb = np.zeros((4, 4))
    K1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    for e in range(3):
        Kb[e:e + 2, e:e + 2] += K1
    Kb = sp.csr_matrix(Kb)
    Fb = np.array([0.0, 1.0, 0.5, 0.2])
    all_idx = np.arange(4)
    none_idx = np.array([], dtype=int)
    t0 = time.perf_counter()
    r_imex = imex_run(Mb, Kb, Fb, forcing, 0.05, 100, none_idx, all_idx)
    r_cdm = cdm_run(Mb, Kb, Fb, forcing, 0.05, 100)
    assert np.abs(r_imex.psi - r_cdm.psi).max() <= 1e-12
    assert r_imex.fact_dim == 0
    r_imex = imex_run(Mb, Kb, Fb, forcing, 0.05, 100, all_idx, none_idx)
    r_nm = newmark_run(Mb, Kb, Fb, forcing, 0.05, 100)
    assert np.abs(r_imex.psi - r_nm.psi).max() <= 1e-12
    assert r_imex.fact_dim == 4
    timings["imex splits"] = time.perf_counter() - t0

    # eigenvalue lift, two by two, bitwise
    t0 = time.perf_counter()
    out = evs_stabilize(np.diag([1.0, 1e-8]),
                        np.array([[2.0, 0.0], [0.0, 1.0]]),
                        1e-2, f_lambda=1e-4)
    assert np.array_equal(out, np.array([[1.0, 0.0],
                                         [0.0, 1e-8 + 1e-2 * 2.0]]))
    timings["evs hand case"] = time.perf_counter() - t0

    # lumping identities
    t0 = time.perf_counter()
    Me = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0 * 0.73
    lumped = hrz_lump(Me, m_e=0.73)
    assert abs(lumped.sum() - 0.73) <= 1e-12 * 0.73
    C = rng.standard_normal((40, 40))
    Ms = C @ C.T + 40.0 * np.eye(40)
    assert np.array_equal(row_sum_lump(Ms), Ms @ np.ones(40))
    timings["lumping"] = time.perf_counter() - t0

    # Lanczos against the dense solver on a small real system
    grid = Grid.build(benchmark_geometry,
                      BasisSpec(family="lagrange", p=1, n_e=4),
                      boundary_fitted=True)
    system = assemble(grid, StabilizationParams(alpha=1e-8), source=source)
    assert system.M.shape[0] <= 200
    t0 = time.perf_counter()
    lam_pi, _ = max_gen_eig(system.K, system.M, tol=1e-12, seed=0)
    lam_dense = scipy.linalg.eigh(system.K.toarray(), system.M.toarray(),
                                  eigvals_only=True)[-1]
    assert abs(lam_pi - lam_dense) <= 1e-8 * lam_dense
    timings["lanczos vs dense"] = time.perf_counter() - t0

    for label, elapsed in timings.items():
        assert elapsed < 1.0, f"{label}: {elapsed:.2f}s"
    print(f"\nCRITERION 8 PASS: newmark(0,1/2)=cdm to 1e-10, imex "
          f"degenerate splits to 1e-12, evs hand case bitwise, lumping "
          f"identities, Lanczos vs dense to 1e-8; all under 1s")


def test_criterion_9_timing_harness_integrity(tmp_path):
    t0 = time.perf_counter()
    cfg_scm = BenchmarkConfig(family="lagrange", p=3, n_e=6, alpha=1e-8,
                              method="cdm")
    cfg_imex = BenchmarkConfig(family="lagrange", p=3, n_e=6, alpha=1e-12,
                               method="imex")
    entries = timing_study([cfg_scm, cfg_imex], repetitions=10)
    labels = ("scm_cdm", "imex")
    for label, entry in zip(labels, entries):
        assert entry["identical"] is True, f"{label}: outputs differ"
        assert len(entry["reports"]) == 10
        path = tmp_path / f"timing_{label}.csv"
        write_study_csv(path, entry["reports"])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 11
        header = lines[0].split(",")
        i_rhs = header.index("t_rhs")
        assert all(float(line.split(",")[i_rhs]) > 0.0 for line in lines[1:])
    scm, imex = entries
    assert imex["fact_dim"] == imex["c_set_size"]
    i_fact = header.index("t_fact")
    imex_lines = (tmp_path / "timing_imex.csv").read_text().strip() \
        .splitlines()[1:]
    assert all(float(line.split(",")[i_fact]) > 0.0 for line in imex_lines)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1200.0
    print(f"\nCRITERION 9 PASS: 10 single-threaded repetitions "
          f"bit-identical for both configurations; imex factorization "
          f"dimension {imex['fact_dim']} == |c-set| "
          f"{imex['c_set_size']}; per-stage CSVs written ({elapsed:.1f}s)")
