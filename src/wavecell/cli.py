"""Command line interface.

Subcommands: run, reference, dtcrit, dofs, converge, timing,
export-matrices.  Configuration comes from a JSON file (``--config``) plus
a handful of override flags; outputs are CSV/JSON/MatrixMarket files in
the ``--out`` directory.

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(divergence, indefinite factorization, eigensolver breakdown).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import scipy.io
from numpy.linalg import LinAlgError

from .assembly import Grid, assemble
from .harness import (BenchmarkConfig, convergence_study, dof_count, prepare,
                      reference_run, run_benchmark, timing_study,
                      write_signals_csv, write_study_csv)
from .linalg import IndefiniteMatrixError
from .timeint import DivergenceError

_OVERRIDES = ("family", "p", "n_e", "method", "alpha", "epsilon", "lumping",
              "dt", "n_t", "boundary_fitted")


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON configuration file")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None,
                        help="eigensolver start-vector seed")
    parser.add_argument("--family", choices=("lagrange", "bspline"))
    parser.add_argument("--p", type=int)
    parser.add_argument("--n-e", dest="n_e", type=int)
    parser.add_argument("--method", choices=("cdm", "newmark", "imex"))
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--lumping", choices=("none", "row_sum", "hrz"))
    parser.add_argument("--dt", type=float)
    parser.add_argument("--n-t", dest="n_t", type=int)
    parser.add_argument("--boundary-fitted", dest="boundary_fitted",
                        action="store_true", default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wavecell",
        description="Immersed-boundary wave equation benchmark solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation")
    p_ref = sub.add_parser("reference", help="boundary-fitted reference run")
    p_dtc = sub.add_parser("dtcrit", help="print the critical time step")
    p_dof = sub.add_parser("dofs", help="print the DOF count")
    p_con = sub.add_parser("converge", help="error vs refinement study")
    p_tim = sub.add_parser("timing", help="repeated timed runs")
    p_exp = sub.add_parser("export-matrices",
                           help="write M, K, F in MatrixMarket format")
    for p in (p_run, p_ref, p_dtc, p_dof, p_con, p_tim, p_exp):
        _add_common(p)
    p_con.add_argument("--n-e-values", default="6,10,13",
                       help="comma separated element counts")
    p_con.add_argument("--n-s", dest="n_s", type=int, default=10000,
                       help="number of sampling times for the error")
    p_tim.add_argument("--repetitions", type=int, default=10)
    p_ref.add_argument("--ref-p", type=int, default=6)
    p_ref.add_argument("--ref-n-e", type=int, default=6)
    p_ref.add_argument("--ref-dt", type=float, default=1.0e-4)
    return parser


def _load_config(args) -> BenchmarkConfig:
    if args.config is not None:
        cfg = BenchmarkConfig.from_json(Path(args.config).read_text())
    else:
        cfg = BenchmarkConfig()
    updates = {}
    for name in _OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if args.seed is not None:
        updates["seed"] = args.seed
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def _cmd_run(cfg, args) -> int:
    out = args.out
    report, result = run_benchmark(cfg)
    write_signals_csv(out / "signals.csv", result.t, result.obs)
    (out / "report.json").write_text(report.to_json())
    print(f"{cfg.method} p={cfg.p} n_e={cfg.n_e}: n_dof={report.n_dof} "
          f"dt={report.dt:.6e} steps={report.n_t}")
    print(f"wrote {out / 'signals.csv'} and {out / 'report.json'}")
    return 0


def _cmd_reference(cfg, args) -> int:
    out = args.out
    result = reference_run(cfg, p=args.ref_p, n_e=args.ref_n_e,
                           dt=args.ref_dt)
    write_signals_csv(out / "reference_signals.csv", result.t, result.obs)
    print(f"wrote {out / 'reference_signals.csv'}")
    return 0


def _cmd_dtcrit(cfg, args) -> int:
    method = cfg.method if cfg.method == "imex" else "cdm"
    probe = replace(cfg, dt=None, n_t=None, dt_max=None, method=method)
    prep = prepare(probe)
    print(repr(float(prep.dt_c)))
    return 0


def _cmd_dofs(cfg, args) -> int:
    print(dof_count(cfg.basis_spec(), cfg.geometry(),
                    boundary_fitted=cfg.boundary_fitted))
    return 0


def _cmd_converge(cfg, args) -> int:
    out = args.out
    n_e_values = [int(v) for v in args.n_e_values.split(",") if v.strip()]
    reports = convergence_study(cfg, n_e_values, n_s=args.n_s)
    write_study_csv(out / "convergence.csv", reports)
    for r in reports:
        print(f"n_e={r.n_e}: n_dof={r.n_dof} error={r.error:.4e}")
    print(f"wrote {out / 'convergence.csv'}")
    return 0


def _cmd_timing(cfg, args) -> int:
    out = args.out
    study = timing_study([cfg], repetitions=args.repetitions)[0]
    write_study_csv(out / "timing.csv", study["reports"])
    print(f"factorization dimension: {study['fact_dim']}")
    print(f"bit-identical repetitions: {study['identical']}")
    print(f"wrote {out / 'timing.csv'}")
    if not study["identical"]:
        print("numerical failure: repetitions differ", file=sys.stderr)
        return 2
    return 0


def _cmd_export(cfg, args) -> int:
    out = args.out
    grid = Grid.build(cfg.geometry(), cfg.basis_spec(),
                      boundary_fitted=cfg.boundary_fitted)
    system = assemble(grid, cfg.stabilization(), rho=cfg.rho, c=cfg.c,
                      source=cfg.source(), octree_depth=cfg.octree_depth)
    scipy.io.mmwrite(str(out / "M.mtx"), system.M, symmetry="symmetric")
    scipy.io.mmwrite(str(out / "K.mtx"), system.K, symmetry="symmetric")
    scipy.io.mmwrite(str(out / "F.mtx"), system.F_s.reshape(-1, 1))
    print(f"wrote M.mtx, K.mtx, F.mtx to {out}")
    return 0


# Subcommands that write files into ``--out``.
_WRITES = ("run", "reference", "converge", "timing", "export-matrices")

_COMMANDS = {
    "run": _cmd_run,
    "reference": _cmd_reference,
    "dtcrit": _cmd_dtcrit,
    "dofs": _cmd_dofs,
    "converge": _cmd_converge,
    "timing": _cmd_timing,
    "export-matrices": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    try:
        cfg = _load_config(args)
        if args.command in _WRITES:
            args.out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, TypeError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](cfg, args)
    except (DivergenceError, IndefiniteMatrixError, LinAlgError,
            RuntimeError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
