"""Self-test of the benchmark on a tiny immersed system (p=2, n_e=4).

It runs in seconds: every named metric is emitted with a valid name and a
unit, the correctness checks run and count failures, the traced pipeline
reproduces ``harness.prepare`` bit for bit, and the runner refuses to run
without the program's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wavebench

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Cut, inside and outside elements, eigenvalue stabilization, the power
# iteration and the mass solve, in about a second per repetition.
TINY = wavebench.Workload(
    name="tiny-p2n4",
    config=dict(p=2, n_e=4, octree_depth=2, alpha=1e-8, epsilon=1e-4,
                method="cdm"),
    expect=dict(n_dof=681, dt_crit=7.331050430147276e-3,
                obs_error=1.0170295015222452))


@pytest.fixture(scope="module")
def reference():
    return wavebench.load_reference()


@pytest.fixture(scope="module")
def untraced(reference):
    return wavebench.run_workload(TINY, 0, 0.0, False, reference, min_reps=2)


@pytest.fixture(scope="module")
def traced(reference):
    return wavebench.run_workload(TINY, 0, 0.0, True, reference, min_reps=1)


def _check_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in metrics.items():
        assert NAME.match(name), name
        assert UNIT.match(metric["unit"]), metric
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


def test_end_to_end_metrics_and_checks(untraced):
    _check_metrics(untraced["metrics"], BENCHMARK["end_to_end"])
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == 2
    for checks in untraced["checks"]:
        assert set(checks) == {"signals_finite", "n_dof", "dt_crit",
                               "obs_error"}
    assert untraced["bit_identical"]
    for name in ("time_to_solution_s", "setup_s", "solve_s", "step_ms",
                 "obs_error", "peak_rss_mb"):
        assert untraced["metrics"][name]["value"] > 0.0


def test_per_layer_metrics_and_spans(traced):
    _check_metrics(traced["metrics"], BENCHMARK["per_layer"])
    assert traced["correct"]
    assert all(c["trace_matches_prepare"] for c in traced["checks"])
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert m["stabilization.evs_blocks"] == m["geometry.n_cut"] > 0
    assert m["linalg.power_iters"] > 0
    assert m["assembly.n_dof"] == 681
    assert m["assembly.pointwise_points"] == m["geometry.pointwise_leaves"] * 27
    spans = traced["spans"]
    names = {s["name"] for s in spans}
    assert {"harness.prepare", "harness.execute", "geometry.grid",
            "assembly.cache", "assembly.assemble", "stabilization.evs",
            "assembly.load", "harness.observer_matrix", "linalg.dtcrit",
            "linalg.factorize"} <= names
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_self_times_cover_the_root_spans():
    tr = wavebench.Tracer()
    with tr.span("root"):
        with tr.span("child"):
            pass
        with tr.span("child"):
            pass
    st = tr.self_times(0)
    root = tr.spans[0][2] - tr.spans[0][1]
    assert st["root"] + st["child"] == pytest.approx(root, rel=1e-12)


def test_failed_check_is_counted(reference):
    wrong = wavebench.Workload(name="wrong", config=TINY.config,
                               expect=dict(n_dof=682))
    res = wavebench.run_workload(wrong, 0, 0.0, False, reference, min_reps=1)
    assert res["attempted"] == 1 and res["failed"] == 1
    assert not res["correct"]
    assert res["checks"] == [{"signals_finite": True, "n_dof": False}]


def test_benchmark_file_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        wavebench.WORKLOADS)
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(e2e) == set(wavebench.END_TO_END)
    assert set(m["name"] for m in BENCHMARK["per_layer"]) == set(
        wavebench.PER_LAYER)
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0.0 < m["bound"] <= 0.25 for m in e2e.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference-p6n6",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
