"""wavecell benchmark: one workload per call, one JSON result line last.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload immersed-cdm-p3n6 --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and writes its spans).  ``--workload all`` runs
every workload, each in its own process, and prints them together.
Details of every run (environment, per-repetition samples, checks,
digests, spans) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _workload_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=_workload_names() + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in _workload_names():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for key, metric in res["metrics"].items():
            metrics[f"{name}.{key}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    # BLAS reads its thread count once, when numpy loads it.
    pinned_before_numpy = "numpy" not in sys.modules
    for var in PINNED:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "wavecell" / "__init__.py").is_file():
        print(f"error: no wavecell sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import wavecell
    if Path(wavecell.__file__).resolve().parent != (src / "wavecell").resolve():
        print(f"error: imported wavecell from {wavecell.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import wavebench

    env = wavebench.environment(pinned_before_numpy)
    workload = wavebench.WORKLOADS[args.workload]
    reference = wavebench.load_reference()
    res = wavebench.run_workload(workload, args.seed, args.seconds,
                                 bool(args.trace), reference)
    res["env"] = env
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(res, indent=1))

    for name, metric in res.get("metrics", {}).items():
        print(f"{args.workload:24s} {name:28s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:24s} {'runs_failed':28s} "
          f"{res['failed'] / res['attempted']:14.6g} share")
    print(json.dumps({"workload": args.workload,
                      "bit_identical": res["bit_identical"],
                      "digests": res["digests"], "errors": res["errors"],
                      "checks_failed": sorted({k for c in res["checks"]
                                               for k, ok in c.items()
                                               if not ok}),
                      "env": env, "details": str(out_file.relative_to(ROOT))}))
    if "metrics" not in res:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
