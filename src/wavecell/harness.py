"""Benchmark harness: configuration, observers, error metrics, and studies.

The benchmark is a rotated cube excited by a spatial Gaussian on one face
center with a Ricker wavelet in time.  Eleven observer points (source,
center, face, four edge midpoints, four corners, all in the local frame of
the cube) record the solution over one second; accuracy is the mean
relative l2 distance of the observer signals to a boundary-fitted
reference solution, evaluated on an equidistant time grid.

All file outputs are plain CSV (signals and study tables) and JSON
(configuration and per-run reports), so runs are scriptable end to end.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .assembly import (DEFAULT_OCTREE_DEPTH, Grid, SourceSpec, TensorSystem,
                       assemble, ricker, spatial_load)
from .basis import BasisSpec
from .geometry import ElementClass, ImmersedGeometry
from .linalg import dt_crit
from .stabilization import StabilizationParams
from .timeint import (RunResult, cdm_run, imex_critical_time_step, imex_run,
                      newmark_run, select_dt)

OBSERVER_LABELS = ("source", "center", "face",
                   "edge_pp", "edge_pm", "edge_mp", "edge_mm",
                   "corner_pp", "corner_pm", "corner_mp", "corner_mm")

STUDY_COLUMNS = ("method", "p", "n_e", "n_dof", "dt_crit", "dt", "error",
                 "t_fact", "t_rhs", "t_binsert")

EIG_TOL = 1.0e-7

# Sections of the JSON config and the BenchmarkConfig fields each holds, in
# file order; ``seed`` sits at the top level.
CONFIG_SECTIONS = {
    "discretization": ("family", "p", "n_e", "boundary_fitted",
                       "octree_depth"),
    "geometry": ("l_p", "l_e", "angles_deg"),
    "material": ("rho", "c"),
    "source": ("sigma", "f_e", "x_local"),
    "stabilization": ("alpha", "epsilon", "f_lambda", "lumping"),
    "integrator": ("method", "T", "dt", "n_t", "dt_max", "safety", "beta",
                   "gamma"),
}


def build_observers(l_p: float) -> np.ndarray:
    """The 11 observer points in local coordinates, fixed order."""
    r = l_p / 2.0
    pts = [(-r, 0.0, 0.0), (0.0, 0.0, 0.0), (r, 0.0, 0.0)]
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            pts.append((0.0, s1 * r, s2 * r))
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            pts.append((r, s1 * r, s2 * r))
    return np.array(pts)


def observer_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse (11, n_dof) evaluation of the basis at the observer points.

    Observer points falling into an element discarded as a sliver are
    evaluated on the nearest kept element with clamped reference
    coordinates; the clamping distance is required to stay far below the
    element size.
    """
    pts = grid.from_local(build_observers(grid.geom.l_p))
    n_e, h = grid.spec.n_e, grid.h
    idx = np.clip(np.floor((pts - grid.origin) / h).astype(int), 0, n_e - 1)
    kept_lo, kept_hi = grid.element_box(grid.kept)
    for i in np.flatnonzero(grid.classes[tuple(idx.T)] == ElementClass.OUTSIDE):
        d = np.linalg.norm(np.clip(pts[i], kept_lo, kept_hi) - pts[i], axis=1)
        j = int(np.argmin(d))
        if d[j] > 0.05 * h:
            raise ValueError(
                f"observer {OBSERVER_LABELS[i]} is {d[j]:.3e} away from "
                "the nearest kept element")
        idx[i] = grid.kept[j]
    xi = np.clip(2.0 * (pts - grid.element_box(idx)[0]) / h - 1.0, -1.0, 1.0)
    V, _ = grid.spec.eval_element(idx, xi)             # (n_obs, 3, p+1)
    w = (V[:, 0, :, None, None] * V[:, 1, None, :, None]
         * V[:, 2, None, None, :]).reshape(pts.shape[0], -1)
    # One element's DOFs are distinct and ascending, so each row is
    # already in canonical CSR order.
    indptr = np.arange(pts.shape[0] + 1) * w.shape[1]
    return sp.csr_matrix((w.ravel(), grid.element_dofs(idx).ravel(), indptr),
                         shape=(pts.shape[0], grid.dofmap.n_dof))


def sample_times(T: float, n_s: int) -> np.ndarray:
    """n_s equidistant sampling times j T / n_s, j = 1..n_s."""
    return np.arange(1, n_s + 1) * (T / n_s)


def sample_observers(result: RunResult, n_s: int, T: float | None = None) -> np.ndarray:
    """Observer signals at n_s equidistant times.

    When the step count is a multiple of n_s the samples are exact step
    hits (a pure projection of the recorded history); otherwise the
    history is interpolated linearly in time.
    """
    if result.obs is None:
        raise ValueError("run was made without an observer matrix")
    n_t = result.t.shape[0] - 1
    T_run = float(result.t[-1])
    if T is None:
        T = T_run
    exact = (n_t % n_s == 0 if n_t >= n_s else False)
    if exact and abs(T - T_run) <= 1e-12 * max(T_run, 1.0):
        stride = n_t // n_s
        return result.obs[:, stride::stride].copy()
    times = sample_times(T, n_s)
    if times[-1] > T_run * (1.0 + 1e-12):
        raise ValueError("sampling window extends past the end of the run")
    out = np.empty((result.obs.shape[0], n_s))
    for i in range(result.obs.shape[0]):
        out[i] = np.interp(times, result.t, result.obs[i])
    return out


def relative_error(sig, ref) -> float:
    """Mean over observers of ||sig_i - ref_i||_2 / ||ref_i||_2."""
    sig = np.asarray(sig, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if sig.shape != ref.shape:
        raise ValueError("signal matrices must have the same shape")
    norms = np.linalg.norm(ref, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("reference signal with zero norm")
    return float(np.mean(np.linalg.norm(sig - ref, axis=1) / norms))


@dataclass(frozen=True)
class BenchmarkConfig:
    """Complete description of one benchmark run (JSON round-trippable)."""

    family: str = "lagrange"
    p: int = 3
    n_e: int = 13
    boundary_fitted: bool = False
    octree_depth: int = DEFAULT_OCTREE_DEPTH
    l_p: float = 0.3
    l_e: float = 0.5
    angles_deg: tuple = (10.0, 10.0, 10.0)
    rho: float = 1.0
    c: float = 1.0
    sigma: float = 0.01
    f_e: float = 10.0
    x_local: tuple | None = None
    alpha: float = 1.0e-8
    epsilon: float = 0.0
    f_lambda: float = 1.0e-2
    lumping: str = "none"
    method: str = "cdm"
    T: float = 1.0
    dt: float | None = None
    n_t: int | None = None
    dt_max: float | None = None
    safety: float = 0.9
    beta: float = 0.25
    gamma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("cdm", "newmark", "imex"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("T", "dt", "dt_max", "safety"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.n_t is not None and not self.n_t >= 1:
            raise ValueError(f"n_t must be at least 1, got {self.n_t!r}")

    def geometry(self) -> ImmersedGeometry:
        return ImmersedGeometry.from_angles(self.l_p, self.l_e,
                                            self.angles_deg)

    def basis_spec(self) -> BasisSpec:
        return BasisSpec(family=self.family, p=self.p, n_e=self.n_e)

    def stabilization(self) -> StabilizationParams:
        return StabilizationParams(alpha=self.alpha, epsilon=self.epsilon,
                                   f_lambda=self.f_lambda,
                                   lumping=self.lumping)

    def source(self) -> SourceSpec:
        x = self.x_local
        if x is None:
            x = (-self.l_p / 2.0, 0.0, 0.0)
        return SourceSpec(x_local=tuple(x), sigma=self.sigma)

    def to_dict(self) -> dict:
        def plain(value):      # JSON has lists, not tuples
            return list(value) if isinstance(value, tuple) else value

        out = {section: {key: plain(getattr(self, key)) for key in keys}
               for section, keys in CONFIG_SECTIONS.items()}
        out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkConfig":
        kw = {}
        for section, keys in CONFIG_SECTIONS.items():
            sub = data.get(section, {})
            unknown = set(sub) - set(keys)
            if unknown:
                raise ValueError(f"unknown keys in {section!r}: {sorted(unknown)}")
            for key in keys:
                if key in sub:
                    kw[key] = sub[key]
        if "seed" in data:
            kw["seed"] = data["seed"]
        unknown = set(data) - set(CONFIG_SECTIONS) - {"seed"}
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        for key in ("angles_deg", "x_local"):
            if kw.get(key) is not None:
                kw[key] = tuple(kw[key])
        return cls(**kw)

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkConfig":
        return cls.from_dict(json.loads(text))


@dataclass
class BenchmarkReport:
    """Per-run summary written next to the signal CSV."""

    method: str
    family: str
    p: int
    n_e: int
    n_dof: int
    dt_crit: float | None
    dt: float
    n_t: int
    error: float | None
    t_fact: float
    t_rhs: float
    t_binsert: float
    fact_dim: int

    @classmethod
    def from_run(cls, cfg: BenchmarkConfig, prep: "PreparedSystem",
                 result: RunResult) -> "BenchmarkReport":
        """Report of one executed run; studies fill in ``error``."""
        return cls(
            method=cfg.method, family=cfg.family, p=cfg.p, n_e=cfg.n_e,
            n_dof=prep.grid.n_dof, dt_crit=prep.dt_c, dt=prep.dt,
            n_t=prep.n_t, error=None, t_fact=result.timings.factorization,
            t_rhs=result.timings.rhs,
            t_binsert=result.timings.backward_insertion,
            fact_dim=result.fact_dim)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def dof_count(spec: BasisSpec, geom: ImmersedGeometry,
              boundary_fitted: bool = False) -> int:
    """Number of DOFs after discarding unsupported functions."""
    return Grid.build(geom, spec, boundary_fitted=boundary_fitted).n_dof


@dataclass
class PreparedSystem:
    """Assembled operators plus the resolved time step for one config."""

    grid: Grid
    M: object
    K: object
    F_s: np.ndarray
    obs_mat: sp.csr_matrix
    tensor: TensorSystem | None
    dt_c: float | None
    dt: float
    n_t: int


def prepare(cfg: BenchmarkConfig) -> PreparedSystem:
    """Build the grid and operators and resolve the time step for a config."""
    geom = cfg.geometry()
    spec = cfg.basis_spec()
    grid = Grid.build(geom, spec, boundary_fitted=cfg.boundary_fitted)
    stab = cfg.stabilization()
    source = cfg.source()
    tensor = None
    if (cfg.boundary_fitted and cfg.family == "lagrange"
            and stab.lumping == "none" and cfg.method in ("cdm", "newmark")):
        # Fully uncut tensor grid: use separable operators.
        tensor = TensorSystem(grid, rho=cfg.rho, c=cfg.c)
        M = tensor.mass_matrix()
        K = tensor.stiffness_operator()
        F_s = spatial_load(grid, source, alpha=stab.alpha, rho=cfg.rho,
                           octree_depth=cfg.octree_depth)
    else:
        system = assemble(grid, stab, rho=cfg.rho, c=cfg.c, source=source,
                          octree_depth=cfg.octree_depth)
        M, K, F_s = system.M, system.K, system.F_s
    obs_mat = observer_matrix(grid)

    # Every branch resolves n_t, so that dt = T / n_t ends the run at T.
    dt_c = None
    if cfg.dt is None and cfg.n_t is not None:
        n_t = int(cfg.n_t)
    else:
        if cfg.dt is not None:
            dt_target = float(cfg.dt)
        elif cfg.method == "imex":
            dt_c = imex_critical_time_step(K, M, grid.dofmap.d_idx,
                                           tol=EIG_TOL, seed=cfg.seed)
            dt_target = select_dt(dt_c, cfg.dt_max, cfg.safety)
        elif cfg.method == "newmark":
            # Unconditionally stable: the step is accuracy-driven.
            dt_target = cfg.dt_max if cfg.dt_max is not None else cfg.T / 450.0
        else:
            dt_c = dt_crit(K, M, tol=EIG_TOL, seed=cfg.seed)
            dt_target = select_dt(dt_c, cfg.dt_max, cfg.safety)
        n_t = int(np.ceil(cfg.T / dt_target - 1e-12))
    dt = cfg.T / n_t
    return PreparedSystem(grid=grid, M=M, K=K, F_s=F_s, obs_mat=obs_mat,
                          tensor=tensor, dt_c=dt_c, dt=dt, n_t=n_t)


def execute(prep: PreparedSystem, cfg: BenchmarkConfig) -> RunResult:
    """Run the configured integrator on a prepared system."""
    def f_t(t):
        return ricker(t, cfg.f_e)

    if cfg.method == "cdm":
        return cdm_run(prep.M, prep.K, prep.F_s, f_t, prep.dt, prep.n_t,
                       obs_mat=prep.obs_mat)
    if cfg.method == "newmark":
        s_factory = None
        if prep.tensor is not None:
            s_factory = lambda: prep.tensor.newmark_factorization(cfg.beta,
                                                                  prep.dt)
        return newmark_run(prep.M, prep.K, prep.F_s, f_t, prep.dt, prep.n_t,
                           obs_mat=prep.obs_mat, beta=cfg.beta,
                           gamma=cfg.gamma, s_factory=s_factory)
    return imex_run(prep.M, prep.K, prep.F_s, f_t, prep.dt, prep.n_t,
                    prep.grid.dofmap.c_idx, prep.grid.dofmap.d_idx,
                    obs_mat=prep.obs_mat, beta=cfg.beta, gamma=cfg.gamma)


def run_benchmark(cfg: BenchmarkConfig):
    """Prepare and run one configuration.

    Returns
    -------
    report : BenchmarkReport
    result : RunResult
    """
    prep = prepare(cfg)
    result = execute(prep, cfg)
    return BenchmarkReport.from_run(cfg, prep, result), result


@lru_cache(maxsize=4)
def _reference_cached(cfg: BenchmarkConfig) -> RunResult:
    return run_benchmark(cfg)[1]


def reference_run(base: BenchmarkConfig | None = None, p: int = 6,
                  n_e: int = 6, dt: float = 1.0e-4) -> RunResult:
    """Boundary-fitted reference solution (diagonal-mass explicit run).

    The physics (T, l_p, f_e, sigma, rho, c and the source position) comes
    from ``base``, by default ``BenchmarkConfig()``.  Results are memoized
    per reference configuration; the observer history is shared, so
    callers must not mutate it.
    """
    base = BenchmarkConfig() if base is None else base
    return _reference_cached(BenchmarkConfig(
        family="lagrange", p=p, n_e=n_e, boundary_fitted=True, method="cdm",
        l_p=base.l_p, f_e=base.f_e, sigma=base.sigma, rho=base.rho,
        c=base.c, x_local=base.source().x_local, T=base.T, dt=dt))


def convergence_study(base: BenchmarkConfig, n_e_values, n_s: int = 10000):
    """Error vs refinement against the boundary-fitted reference
    ``reference_run(base)``.

    Returns one BenchmarkReport per n_e with the error field filled.
    """
    ref_sig = sample_observers(reference_run(base), n_s, T=base.T)
    reports = []
    for n_e in n_e_values:
        cfg = replace(base, n_e=int(n_e))
        report, result = run_benchmark(cfg)
        sig = sample_observers(result, n_s, T=cfg.T)
        report.error = relative_error(sig, ref_sig)
        reports.append(report)
    return reports


def _result_digest(result: RunResult) -> str:
    hasher = hashlib.sha256()
    hasher.update(result.psi.tobytes())
    if result.obs is not None:
        hasher.update(result.obs.tobytes())
    return hasher.hexdigest()


def timing_study(configs, repetitions: int = 10):
    """Repeated single-threaded runs with per-stage wall-clock times.

    Operators are assembled once per configuration; the repetitions rerun
    only factorization and time stepping.  Returns a list of dicts, one
    per configuration, with the per-repetition reports, the digest of the
    numerical output, and whether all repetitions were bit-identical.
    BLAS threads are pinned by the environment before numpy loads; the
    study warns, and runs anyway, unless ``OPENBLAS_NUM_THREADS``, or
    failing that ``OMP_NUM_THREADS``, is 1.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS",
                      os.environ.get("OMP_NUM_THREADS")) != "1":
        warnings.warn("OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) is not 1: "
                      "BLAS threads are not pinned, timings may use more "
                      "than one thread", RuntimeWarning, stacklevel=2)
    out = []
    for cfg in configs:
        prep = prepare(cfg)
        reps = []
        digests = set()
        for _ in range(repetitions):
            result = execute(prep, cfg)
            digests.add(_result_digest(result))
            reps.append(BenchmarkReport.from_run(cfg, prep, result))
        out.append({
            "reports": reps,
            "identical": len(digests) == 1,
            "digest": digests.pop() if len(digests) == 1 else None,
            "fact_dim": reps[-1].fact_dim,
            "c_set_size": int(prep.grid.dofmap.c_idx.shape[0]),
        })
    return out


def write_signals_csv(path, times, samples):
    """Signal table: header t, psi_1..psi_11; one row per sampling time."""
    samples = np.asarray(samples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"psi_{i + 1}" for i in range(samples.shape[0])])
        for j, t in enumerate(np.asarray(times)):
            writer.writerow([repr(float(t))]
                            + [repr(float(v)) for v in samples[:, j]])


def write_study_csv(path, reports):
    """Study table with one row per report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_COLUMNS)
        for r in reports:
            cells = (getattr(r, name) for name in STUDY_COLUMNS)
            writer.writerow("" if v is None else (
                repr(float(v)) if isinstance(v, float) else v) for v in cells)
