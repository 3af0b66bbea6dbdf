"""Immersed-boundary spectral and B-spline solvers for the scalar wave
equation, with explicit, implicit, and implicit-explicit time stepping and
a reproducible accuracy/timing benchmark."""

from .assembly import (DiscreteSystem, ElementIntegralCache, Grid,
                       SourceSpec, TensorSystem, assemble, ricker,
                       spatial_load)
from .basis import BasisSpec, gl_rule, gll_rule
from .geometry import ElementClass, ImmersedGeometry
from .harness import (BenchmarkConfig, BenchmarkReport, build_observers,
                      convergence_study, dof_count, observer_matrix,
                      reference_run, relative_error, run_benchmark,
                      sample_observers, timing_study)
from .linalg import IndefiniteMatrixError, dt_crit, factorize, max_gen_eig
from .stabilization import (StabilizationParams, evs_stabilize, hrz_lump,
                            row_sum_lump)
from .timeint import (DivergenceError, RunResult, StageTimings, cdm_run,
                      imex_critical_time_step, imex_run, newmark_run,
                      select_dt)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec", "BenchmarkConfig", "BenchmarkReport",
    "DiscreteSystem", "DivergenceError", "ElementClass",
    "ElementIntegralCache", "Grid", "ImmersedGeometry",
    "IndefiniteMatrixError", "RunResult", "SourceSpec",
    "StabilizationParams", "StageTimings", "TensorSystem", "assemble",
    "build_observers", "cdm_run", "convergence_study",
    "dof_count", "dt_crit", "evs_stabilize", "factorize", "gl_rule",
    "gll_rule", "hrz_lump", "imex_critical_time_step", "imex_run",
    "max_gen_eig", "newmark_run", "observer_matrix",
    "reference_run", "relative_error", "ricker", "row_sum_lump",
    "run_benchmark", "sample_observers", "select_dt",
    "spatial_load", "timing_study",
]
