import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse.linalg as spla

from wavecell.assembly import Grid, assemble
from wavecell.cli import main
from wavecell.harness import BenchmarkConfig

TINY = dict(family="lagrange", p=1, n_e=4, alpha=1e-2, octree_depth=2,
            method="cdm", lumping="row_sum")


def write_config(tmp_path, **kwargs):
    cfg = BenchmarkConfig(**kwargs)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_dofs_prints_default_count(capsys):
    assert main(["dofs"]) == 0
    assert capsys.readouterr().out.strip() == "22816"


def test_dofs_boundary_fitted_override(capsys):
    assert main(["dofs", "--p", "3", "--n-e", "10", "--boundary-fitted"]) == 0
    assert capsys.readouterr().out.strip() == "29791"


def test_run_writes_report_and_signals(tmp_path, capsys):
    cfg_path = write_config(tmp_path, n_t=40, **TINY)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "n_dof" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["n_t"] == 40
    assert report["method"] == "cdm"
    lines = (out / "signals.csv").read_text().strip().splitlines()
    assert lines[0] == "t," + ",".join(f"psi_{i}" for i in range(1, 12))
    assert len(lines) == 42  # header + initial state + 40 steps


def test_run_flag_overrides_config(tmp_path):
    # config says p = 2 but the flag wins
    cfg_path = write_config(tmp_path, **{**TINY, "p": 2, "n_t": 20})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--p", "1",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["p"] == 1


def test_run_unstable_step_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dt=0.2, T=10.0, **TINY)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_unconverged_tensor_solve_exits_2(tmp_path, capsys, monkeypatch):
    # The tensor CG solve raises LinAlgError, a ValueError subclass: it is
    # still a numerical failure, not a configuration error.
    monkeypatch.setattr(spla, "cg", lambda A, b, **kwargs: (b, 1000))
    cfg_path = write_config(tmp_path, family="lagrange", p=1, n_e=2,
                            boundary_fitted=True, method="newmark", n_t=5)
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "did not converge (info=1000)" in err


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_config_section_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"solver": {"tol": 1e-6}}))
    assert main(["dofs", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cube_outside_extended_domain_exits_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path, angles_deg=(0.0, 45.0, 45.0), n_t=5,
                            **TINY)
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "sticks out" in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["dofs", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_out_that_is_a_file_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", "--n-t", "5", "--out", str(taken / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_dtcrit_prints_positive_float(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **TINY)
    assert main(["dtcrit", "--config", str(cfg_path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.0947, rel=0.05)


def test_dtcrit_seed_is_reproducible(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **TINY)
    assert main(["dtcrit", "--config", str(cfg_path), "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["dtcrit", "--config", str(cfg_path), "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_export_matrices_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **TINY)
    out = tmp_path / "out"
    assert main(["export-matrices", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = BenchmarkConfig(**TINY)
    grid = Grid.build(cfg.geometry(), cfg.basis_spec())
    system = assemble(grid, cfg.stabilization(), rho=cfg.rho, c=cfg.c,
                      source=cfg.source(), octree_depth=cfg.octree_depth)
    M = scipy.io.mmread(str(out / "M.mtx")).tocsr()
    K = scipy.io.mmread(str(out / "K.mtx")).tocsr()
    F = np.asarray(scipy.io.mmread(str(out / "F.mtx"))).ravel()
    n = system.M.shape[0]
    assert M.shape == (n, n) and K.shape == (n, n) and F.shape == (n,)
    assert abs(M - system.M).max() <= 1e-14 * abs(system.M).max()
    assert abs(K - system.K).max() <= 1e-14 * abs(system.K).max()
    assert np.abs(F - system.F_s).max() <= 1e-14 * np.abs(system.F_s).max()


def test_reference_command_writes_signals(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reference", "--ref-p", "2", "--ref-n-e", "2",
                 "--ref-dt", "0.01", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "reference_signals.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,psi_1")
    assert len(lines) == 102  # header + initial state + 100 steps


def test_converge_command_writes_study(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **TINY)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg_path), "--out", str(out),
                 "--n-e-values", "4,5", "--n-s", "50"]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    errors = [float(line.split(",")[6]) for line in lines[1:]]
    assert all(e > 0.0 for e in errors)


def test_timing_command_writes_study(tmp_path, capsys):
    cfg_path = write_config(tmp_path, n_t=30, **TINY)
    out = tmp_path / "out"
    assert main(["timing", "--config", str(cfg_path), "--out", str(out),
                 "--repetitions", "2"]) == 0
    assert "bit-identical repetitions: True" in capsys.readouterr().out
    lines = (out / "timing.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per repetition
