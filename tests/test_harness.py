import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from wavecell.assembly import Grid, assemble, ricker
from wavecell.basis import BasisSpec, gll_rule
from wavecell.geometry import ElementClass, ImmersedGeometry
from wavecell.harness import (
    EIG_TOL,
    OBSERVER_LABELS,
    STUDY_COLUMNS,
    BenchmarkConfig,
    BenchmarkReport,
    build_observers,
    dof_count,
    execute,
    observer_matrix,
    prepare,
    reference_run,
    relative_error,
    run_benchmark,
    sample_observers,
    sample_times,
    timing_study,
    write_signals_csv,
    write_study_csv,
)
from wavecell.harness import _result_digest
from wavecell.timeint import cdm_run


def bar_run(n_t=100, dt=0.01):
    h = 1.0 / 3.0
    M = sp.diags([h / 2.0, h, h, h / 2.0]).tocsr()
    K1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    K = np.zeros((4, 4))
    for e in range(3):
        K[e:e + 2, e:e + 2] += K1
    F = np.array([0.0, 1.0, 0.5, 0.2])
    obs = sp.identity(4, format="csr")
    return cdm_run(M, sp.csr_matrix(K), F, lambda t: np.sin(6.0 * t),
                   dt, n_t, obs_mat=obs)


def test_relative_error_hand_cases():
    assert relative_error([[1.0, 0.0]], [[0.0, 1.0]]) == pytest.approx(
        np.sqrt(2.0), rel=1e-12)
    ref = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert relative_error(2.0 * ref, ref) == pytest.approx(1.0, rel=1e-12)
    assert relative_error(ref, ref) == 0.0
    with pytest.raises(ValueError):
        relative_error(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        relative_error(np.ones((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_sample_times_spacing():
    assert np.allclose(sample_times(1.0, 4), [0.25, 0.5, 0.75, 1.0])
    assert sample_times(2.0, 5).shape == (5,)
    assert sample_times(2.0, 5)[0] == pytest.approx(0.4)


def test_sample_observers_exact_stride_is_pure_projection():
    r = bar_run(n_t=100, dt=0.01)
    s10 = sample_observers(r, 10)
    assert np.array_equal(s10, r.obs[:, 10::10])
    s100 = sample_observers(r, 100)
    assert np.array_equal(s100, r.obs[:, 1:])
    # coarser sampling is a subsample of finer sampling, bit for bit
    assert np.array_equal(s10, s100[:, 9::10])


def test_sample_observers_interpolation_fallback():
    r = bar_run(n_t=100, dt=0.01)
    out = sample_observers(r, 7)
    times = sample_times(1.0, 7)
    for i in range(4):
        assert np.array_equal(out[i], np.interp(times, r.t, r.obs[i]))
    # shorter window: falls back to interpolation even when n_t % n_s == 0
    short = sample_observers(r, 10, T=0.5)
    times = sample_times(0.5, 10)
    for i in range(4):
        assert np.array_equal(short[i], np.interp(times, r.t, r.obs[i]))


def test_sample_observers_window_validation():
    r = bar_run(n_t=50, dt=0.01)
    with pytest.raises(ValueError, match="past the end"):
        sample_observers(r, 10, T=1.0)
    blind = cdm_run(sp.identity(2, format="csr"),
                    sp.identity(2, format="csr"),
                    np.zeros(2), lambda t: 0.0, 0.01, 10)
    with pytest.raises(ValueError, match="observer"):
        sample_observers(blind, 5)


def test_config_round_trip():
    cfg = BenchmarkConfig(family="bspline", p=4, n_e=7, alpha=1e-6,
                          epsilon=1e-4, lumping="row_sum", method="imex",
                          dt_max=2e-3, x_local=(0.05, 0.0, 0.0), n_t=321,
                          angles_deg=(10.0, 20.0, 30.0), seed=3)
    assert BenchmarkConfig.from_dict(cfg.to_dict()) == cfg
    text = json.dumps(cfg.to_dict(), indent=2)
    assert BenchmarkConfig.from_json(text) == cfg


def test_default_config_matches_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("unknown keys or sections are rejected:")[1]
    block = block.split("```json\n")[1].split("```")[0]
    # same values in the same key order as the documented default
    assert (json.dumps(json.loads(block), indent=2)
            == json.dumps(BenchmarkConfig().to_dict(), indent=2))


def test_config_rejects_unknown_keys():
    data = BenchmarkConfig().to_dict()
    data["integrator"]["steps"] = 100
    with pytest.raises(ValueError, match="unknown keys"):
        BenchmarkConfig.from_dict(data)
    data = BenchmarkConfig().to_dict()
    data["solver"] = {}
    with pytest.raises(ValueError, match="unknown config sections"):
        BenchmarkConfig.from_dict(data)
    with pytest.raises(ValueError, match="unknown method"):
        BenchmarkConfig(method="rk4")


def test_report_round_trip():
    rep = BenchmarkReport(method="cdm", family="lagrange", p=3, n_e=13,
                          n_dof=22816, dt_crit=3.83e-4, dt=3.4e-4, n_t=2941,
                          error=0.04, t_fact=0.0, t_rhs=1.25, t_binsert=0.8,
                          fact_dim=0)
    assert json.loads(rep.to_json()) == rep.to_dict()
    assert BenchmarkReport(**json.loads(rep.to_json())) == rep


def test_build_observers_layout():
    pts = build_observers(0.3)
    r = 0.15
    assert pts.shape == (11, 3)
    assert len(OBSERVER_LABELS) == 11
    assert np.allclose(pts[0], (-r, 0.0, 0.0))
    assert np.allclose(pts[1], (0.0, 0.0, 0.0))
    assert np.allclose(pts[2], (r, 0.0, 0.0))
    edge = {tuple(p) for p in pts[3:7]}
    assert edge == {(0.0, s1 * r, s2 * r) for s1 in (1, -1) for s2 in (1, -1)}
    corner = {tuple(p) for p in pts[7:]}
    assert corner == {(r, s1 * r, s2 * r) for s1 in (1, -1) for s2 in (1, -1)}
    assert np.abs(pts).max() <= r  # all inside the closed cube


def lagrange_nodes_1d(grid):
    spec = grid.spec
    n1 = spec.n_funcs_1d
    xs = np.empty(n1)
    nodes = gll_rule(spec.p).nodes
    for e in range(spec.n_e):
        lo = grid.origin[0] + e * grid.h
        f0 = spec.element_funcs_1d(e)[0]
        xs[f0:f0 + spec.p + 1] = lo + (nodes + 1.0) / 2.0 * grid.h
    return xs


def test_observer_matrix_reproduces_polynomials_boundary_fitted():
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    grid = Grid.build(geom, BasisSpec(family="lagrange", p=3, n_e=3),
                      boundary_fitted=True)
    xs = lagrange_nodes_1d(grid)
    f = lambda x: x**3 - 2.0 * x**2 + 0.5 * x - 1.0
    g = lambda y: 2.0 * y**3 + y
    hh = lambda z: z**3 - z**2 + 0.3
    psi_lex = (f(xs)[:, None, None] * g(xs)[None, :, None]
               * hh(xs)[None, None, :]).ravel()
    psi = psi_lex[grid.dofmap.lex_of_compact]
    pts = build_observers(0.3)
    want = f(pts[:, 0]) * g(pts[:, 1]) * hh(pts[:, 2])
    got = observer_matrix(grid) @ psi
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_observer_matrix_linear_field_immersed(small_grid):
    # p = 2 nodes are uniformly spaced, which makes the nodal coordinates
    # easy to enumerate
    xs = lagrange_nodes_1d(small_grid)
    u = lambda x, y, z: 0.3 * x + 2.0 * y - z + 0.7
    psi_lex = u(xs[:, None, None], xs[None, :, None],
                xs[None, None, :]).ravel()
    psi = psi_lex[small_grid.dofmap.lex_of_compact]
    pts_global = small_grid.geom.to_global(build_observers(0.3))
    want = u(pts_global[:, 0], pts_global[:, 1], pts_global[:, 2])
    got = observer_matrix(small_grid) @ psi
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def greville_1d(grid):
    """Grid-frame Greville abscissae of the B-spline functions of one
    direction: as coefficients they reproduce the coordinate x."""
    p, n_e = grid.spec.p, grid.spec.n_e
    kn = np.clip(np.arange(-p, n_e + p + 1), 0, n_e)     # open uniform, [0, n_e]
    g = np.array([kn[i + 1:i + p + 1].mean()
                  for i in range(grid.spec.n_funcs_1d)])
    return grid.origin[0] + g * grid.h


def test_observer_matrix_linear_field_immersed_bspline(benchmark_geometry):
    grid = Grid.build(benchmark_geometry,
                      BasisSpec(family="bspline", p=2, n_e=8))
    xs = greville_1d(grid)
    u = lambda x, y, z: 0.3 * x + 2.0 * y - z + 0.7
    psi_lex = u(xs[:, None, None], xs[None, :, None],
                xs[None, None, :]).ravel()
    psi = psi_lex[grid.dofmap.lex_of_compact]
    pts_global = grid.geom.to_global(build_observers(0.3))
    want = u(pts_global[:, 0], pts_global[:, 1], pts_global[:, 2])
    got = observer_matrix(grid) @ psi
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def observer_matrix_loop(grid):
    """Reference observer matrix: one observer and one direction at a
    time, assembled through COO."""
    geom = grid.geom
    pts = build_observers(geom.l_p)
    if not grid.boundary_fitted:
        pts = geom.to_global(pts)
    n_e, h, origin = grid.spec.n_e, grid.h, grid.origin
    kept_lo = origin + grid.kept * h
    rows, cols, vals = [], [], []
    for i, x in enumerate(pts):
        idx = np.clip(np.floor((x - origin) / h).astype(int), 0, n_e - 1)
        if grid.classes[tuple(idx)] == ElementClass.OUTSIDE:
            d = np.linalg.norm(np.clip(x, kept_lo, kept_lo + h) - x, axis=1)
            idx = grid.kept[int(np.argmin(d))]
        lo = origin + idx * h
        xi = np.clip(2.0 * (x - lo) / h - 1.0, -1.0, 1.0)
        V = [grid.spec.eval_element(int(idx[d]), xi[d])[0] for d in range(3)]
        w = (V[0][:, None, None] * V[1][None, :, None]
             * V[2][None, None, :]).ravel()
        dofs = grid.element_dofs(idx)
        rows.extend([i] * dofs.shape[0])
        cols.extend(dofs.tolist())
        vals.extend(w.tolist())
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(pts.shape[0], grid.dofmap.n_dof))


@pytest.mark.parametrize("family, p, n_e, boundary_fitted",
                         [("lagrange", 3, 13, False),
                          ("lagrange", 6, 6, True),
                          ("bspline", 2, 8, False)])
def test_observer_matrix_equals_pointwise_loop(benchmark_geometry, family,
                                               p, n_e, boundary_fitted):
    grid = Grid.build(benchmark_geometry, BasisSpec(family, p, n_e),
                      boundary_fitted=boundary_fitted)
    got, want = observer_matrix(grid), observer_matrix_loop(grid)
    assert got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)


def doctored_grid(base, discard):
    classes = np.array(base.classes, copy=True)
    for ijk in discard:
        classes[ijk] = ElementClass.OUTSIDE
    kept = np.argwhere(classes != ElementClass.OUTSIDE)
    return Grid(geom=base.geom, spec=base.spec,
                boundary_fitted=base.boundary_fitted, origin=base.origin,
                h=base.h, classes=classes, kept=kept)


def test_observer_matrix_clamps_onto_adjacent_kept_element(small_grid):
    # discard the element holding the center observer; the point sits on
    # a corner shared with kept neighbors, so clamping is exact
    center = small_grid.geom.to_global(np.zeros(3))
    idx = tuple(np.floor((center - small_grid.origin) / small_grid.h).astype(int))
    assert small_grid.classes[idx] != ElementClass.OUTSIDE
    grid = doctored_grid(small_grid, [idx])
    xs = lagrange_nodes_1d(grid)
    u = lambda x, y, z: 0.3 * x + 2.0 * y - z + 0.7
    psi_lex = u(xs[:, None, None], xs[None, :, None],
                xs[None, None, :]).ravel()
    psi = psi_lex[grid.dofmap.lex_of_compact]
    got = observer_matrix(grid) @ psi
    want = u(center[0], center[1], center[2])
    assert got[1] == pytest.approx(want, rel=1e-12)


def test_observer_matrix_rejects_distant_observers(small_grid):
    all_ijk = [tuple(int(v) for v in ijk) for ijk in small_grid.kept
               if tuple(ijk) != (0, 0, 0)]
    grid = doctored_grid(small_grid, all_ijk)
    # nothing kept anywhere near the cube: clamping distance is huge
    with pytest.raises(ValueError, match="away"):
        observer_matrix(grid)


def test_dof_count_boundary_fitted():
    geom = ImmersedGeometry.from_angles(0.3, 0.5, (10.0, 10.0, 10.0))
    assert dof_count(BasisSpec(family="lagrange", p=3, n_e=10), geom,
                     boundary_fitted=True) == 29791


def test_prepare_time_step_resolution():
    bf = dict(family="lagrange", p=1, n_e=2, boundary_fitted=True)
    prep = prepare(BenchmarkConfig(method="newmark", **bf))
    assert prep.n_t == 450
    assert prep.dt == pytest.approx(1.0 / 450.0)

    # an explicit dt is rounded down so that the run ends exactly at T
    prep = prepare(BenchmarkConfig(method="cdm", dt=0.03, **bf))
    assert prep.n_t == 34
    assert prep.dt == 1.0 / 34

    prep = prepare(BenchmarkConfig(method="cdm", n_t=100, **bf))
    assert prep.n_t == 100
    assert prep.dt == pytest.approx(0.01)

    prep = prepare(BenchmarkConfig(method="cdm", **bf))
    assert prep.dt_c is not None
    assert prep.dt <= 0.9 * prep.dt_c * (1.0 + 1e-12)
    assert prep.n_t * prep.dt == pytest.approx(1.0)

    # n_e = 7 is the smallest immersed p = 1 grid with a usefully sized
    # explicit subsystem (8 interior functions clear of all cut elements)
    cfg = BenchmarkConfig(method="imex", family="lagrange", p=1, n_e=7,
                          alpha=1e-2, octree_depth=2)
    prep = prepare(cfg)
    assert prep.dt_c > 0.0
    assert prep.dt <= 0.9 * prep.dt_c * (1.0 + 1e-12)


def test_boundary_fitted_observer_symmetry():
    cfg = BenchmarkConfig(family="lagrange", p=2, n_e=4, boundary_fitted=True,
                          method="cdm")
    prep = prepare(cfg)
    res = execute(prep, cfg)
    amp = np.abs(res.obs).max()
    assert amp > 0.0
    edges = res.obs[3:7]
    corners = res.obs[7:11]
    for i in range(1, 4):
        assert np.abs(edges[i] - edges[0]).max() <= 1e-10 * amp
        assert np.abs(corners[i] - corners[0]).max() <= 1e-10 * amp


def test_immersed_rotation_breaks_observer_symmetry():
    cfg = BenchmarkConfig(family="lagrange", p=2, n_e=5, method="cdm",
                          octree_depth=2)
    prep = prepare(cfg)
    res = execute(prep, cfg)
    amp = np.abs(res.obs).max()
    edges = res.obs[3:7]
    spread = max(np.abs(edges[i] - edges[0]).max() for i in range(1, 4))
    assert spread > 1e-8 * amp


def test_run_benchmark_report_fields():
    cfg = BenchmarkConfig(family="lagrange", p=1, n_e=4, alpha=1e-2,
                          octree_depth=2, method="cdm", n_t=40,
                          lumping="row_sum")
    report, result = run_benchmark(cfg)
    assert report.method == "cdm" and report.family == "lagrange"
    assert report.n_dof == result.psi.shape[0]
    assert report.dt_crit is None  # step count was prescribed
    assert report.n_t == 40
    assert report.fact_dim == 0   # lumped diagonal mass
    assert report.t_rhs > 0.0


def test_timing_study_reproducible_and_untimed():
    cfg = BenchmarkConfig(family="lagrange", p=1, n_e=4, alpha=1e-2,
                          octree_depth=2, method="cdm", n_t=40,
                          lumping="row_sum")
    out = timing_study([cfg], repetitions=3)
    assert len(out) == 1
    entry = out[0]
    assert entry["identical"] is True
    assert entry["digest"] is not None
    assert len(entry["reports"]) == 3
    assert entry["fact_dim"] == 0
    assert entry["c_set_size"] > 0
    # timing instrumentation must not change the numbers
    _, result = run_benchmark(cfg)
    assert _result_digest(result) == entry["digest"]


def test_timing_study_warns_iff_blas_unpinned(monkeypatch):
    cfg = BenchmarkConfig(family="lagrange", p=1, n_e=2, alpha=1e-2,
                          octree_depth=1, method="cdm", n_t=5,
                          lumping="row_sum")
    # OpenBLAS reads OPENBLAS_NUM_THREADS first, then OMP_NUM_THREADS.
    for env, warns in (({}, True),
                       ({"OPENBLAS_NUM_THREADS": "4",
                         "OMP_NUM_THREADS": "1"}, True),
                       ({"OPENBLAS_NUM_THREADS": "1"}, False),
                       ({"OMP_NUM_THREADS": "1"}, False)):
        with monkeypatch.context() as m:
            m.delenv("OPENBLAS_NUM_THREADS", raising=False)
            m.delenv("OMP_NUM_THREADS", raising=False)
            for name, value in env.items():
                m.setenv(name, value)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                out = timing_study([cfg], repetitions=1)
        pinned = [w for w in record if "not pinned" in str(w.message)]
        assert len(pinned) == int(warns), env
        assert all(w.category is RuntimeWarning for w in pinned)
        assert out[0]["identical"] is True


def test_signals_csv_round_trip(tmp_path):
    times = np.array([0.1, 0.2, 0.3])
    samples = np.array([[1.0, 2.0, 3.0],
                        [0.5, np.pi, -1e-17]])
    path = tmp_path / "signals.csv"
    write_signals_csv(path, times, samples)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,psi_1,psi_2"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back[:, 0], times)
    assert np.array_equal(back[:, 1:].T, samples)


def test_study_csv_layout(tmp_path):
    rep = BenchmarkReport(method="cdm", family="lagrange", p=3, n_e=10,
                          n_dof=29791, dt_crit=None, dt=1e-3, n_t=1000,
                          error=None, t_fact=0.5, t_rhs=1.0, t_binsert=0.25,
                          fact_dim=0)
    path = tmp_path / "study.csv"
    write_study_csv(path, [rep])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(STUDY_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "cdm"
    assert cells[4] == ""   # no critical step measured
    assert cells[6] == ""   # no error measured
    assert float(cells[5]) == 1e-3
    # every cell is its column's report attribute, floats to the last digit
    rep = dataclasses.replace(rep, dt_crit=np.float64(1.1597e-3),
                              error=0.1 + 0.2, t_fact=np.float64(1) / 3)
    write_study_csv(path, [rep, rep])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[1] == lines[2]
    for name, cell in zip(STUDY_COLUMNS, lines[1].split(","), strict=True):
        v = getattr(rep, name)
        if isinstance(v, float):
            assert cell == repr(float(v)) and float(cell) == v
        else:
            assert cell == str(v)


def test_reference_run_keeps_the_source_position():
    # The reference takes its physics, source position included, from the
    # configuration it is compared with, and is memoized on those values.
    moved = BenchmarkConfig(x_local=(-0.15, 0.05, -0.02), alpha=0.5)
    ref = reference_run(moved, p=2, n_e=2, dt=1e-3)
    default = reference_run(p=2, n_e=2, dt=1e-3)
    assert not np.array_equal(ref.obs, default.obs)
    _, direct = run_benchmark(BenchmarkConfig(
        family="lagrange", p=2, n_e=2, boundary_fitted=True, method="cdm",
        x_local=moved.x_local, dt=1e-3))
    assert np.array_equal(ref.obs, direct.obs)
    assert np.array_equal(ref.psi, direct.psi)
    assert reference_run(BenchmarkConfig(x_local=moved.x_local, n_e=9),
                         p=2, n_e=2, dt=1e-3) is ref


def test_tensor_cdm_matches_sparse_operators():
    # execute() on the separable operators against cdm_run on the sparse M
    # and K of assemble(); and twice on one PreparedSystem to the bit, so
    # the workspace of the stiffness product carries nothing between runs
    cfg = BenchmarkConfig(family="lagrange", p=3, n_e=3, boundary_fitted=True,
                          method="cdm", dt=1e-3)
    prep = prepare(cfg)
    assert prep.tensor is not None
    first = execute(prep, cfg)
    assert _result_digest(execute(prep, cfg)) == _result_digest(first)
    system = assemble(prep.grid, cfg.stabilization(), rho=cfg.rho, c=cfg.c)
    sparse = cdm_run(system.M, system.K, prep.F_s,
                     lambda t: ricker(t, cfg.f_e), prep.dt, prep.n_t,
                     obs_mat=prep.obs_mat)
    for got, want in ((first.obs, sparse.obs), (first.psi, sparse.psi)):
        assert np.abs(want).max() > 0.0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("p", [2, 3])
def test_aligned_immersed_cube_reproduces_fitted_path(p):
    # At zero angles the cube [0.1, 0.4]^3 fills elements 2-7 of the
    # n_e = 10 grid of [0, 0.5]^3: the 216 elements of the fitted n_e = 6
    # grid, with the same lexicographic DOF numbering.  The 91 elements
    # that touch the surface from inside are classified cut, so the mass
    # is compared only on the d rows, away from them.  Largest differences
    # relative to the maximum at depth 2 (p = 2, p = 3): K x 4.6e-16,
    # 6.1e-16; F_s 1.8e-15, 3.0e-15; observer matrix 2.0e-15, 3.7e-15; M
    # diagonal 7.3e-16, 5.6e-16.
    imm = prepare(BenchmarkConfig(p=p, n_e=10, angles_deg=(0.0, 0.0, 0.0),
                                  octree_depth=2, n_t=1))
    fit = prepare(BenchmarkConfig(p=p, n_e=6, boundary_fitted=True, n_t=1))
    assert imm.tensor is None and fit.tensor is not None
    assert imm.grid.n_kept == fit.grid.n_kept == 216
    assert np.count_nonzero(imm.grid.kept_cut) == 91
    d = imm.grid.dofmap.d_idx
    assert d.size == (5 * p) ** 3
    x = np.random.default_rng(0).standard_normal(fit.grid.n_dof)

    def rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel(imm.K @ x, fit.K @ x) <= 2e-15
    assert rel(imm.F_s, fit.F_s) <= 1e-14
    assert rel(imm.obs_mat.toarray(), fit.obs_mat.toarray()) <= 1e-14
    assert rel(imm.M.diagonal()[d], fit.M.diagonal()[d]) <= 2e-15


def test_reference_self_consistency():
    # two overkill boundary-fitted references agree closely at the
    # observers, which pins the reference machinery itself
    ref_a = reference_run(p=6, n_e=6)
    ref_b = reference_run(p=6, n_e=8)
    sig_a = sample_observers(ref_a, 100, T=1.0)
    sig_b = sample_observers(ref_b, 100, T=1.0)
    assert relative_error(sig_a, sig_b) < 1e-3
