"""Benchmark of the pspt reranker and its training pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload rerank_prefix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A single workload prints a report (every metric with its unit and sample
count) followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs every workload, untraced and traced, each in its own
process. See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / ".out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("rerank_prefix", "rerank_longdoc", "train_pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_threads_in_effect():
    """Thread count OpenBLAS reports, when numpy's bundled OpenBLAS is found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _format_value(v: float) -> str:
    return f"{v:.6g}" if abs(v) < 1e6 else f"{v:.6e}"


def print_report(name: str, seed: int, trace: bool, outcome, env: dict) -> None:
    mode = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(f"# workload {name}  seed {seed}  {mode}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# info {json.dumps(outcome.info, sort_keys=True)}")
    print(f"{'metric':36} {'value':>14} {'unit':10} {'samples':>8}  result-line name")
    for metric_name, m in outcome.metrics.items():
        print(f"{metric_name:36} {_format_value(m.value):>14} {m.unit:10} {m.samples:>8}  "
              f"{m.alias or '(report only)'}")
    print(f"# attempted {outcome.attempted}  failed {outcome.failed}")
    for note in outcome.notes:
        print(f"# FAILED: {note}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import pspt

    if Path(pspt.__file__).resolve().parent != SRC / "pspt":
        print(f"error: imported pspt from {pspt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        outcome, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{args.workload}.spans.npz")
    print_report(args.workload, args.seed, bool(args.trace), outcome, environment())
    metrics = {m.alias: {"value": m.value, "unit": m.unit}
               for m in outcome.metrics.values() if m.alias}
    result = {"correct": outcome.failed == 0 and outcome.attempted > 0,
              "attempted": max(1, outcome.attempted), "failed": outcome.failed,
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"error: {name} (trace {trace}) exited with {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
            print()
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{run}/{k}": v for run, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pspt" / "__init__.py").is_file():
        print(f"error: {SRC / 'pspt'} not found; run from a pspt checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    for var in BLAS_ENV:  # before anything imports numpy
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
