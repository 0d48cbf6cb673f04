"""Smoke test of the benchmark itself, at a tiny model and corpus size.

Every workload runs untraced and traced, passes its correctness checks,
reports exactly the metrics BENCHMARK.json names and leaves pspt unpatched.
Run with: PYTHONPATH=src python -m pytest -q perfbench/test_bench_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import pspt.scoring  # noqa: E402
import pspt.tensor  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "rerank_prefix": dict(dim=16, n_layers=1, n_questions=120, n_bridge_words=8, n_train=110,
                          soft_prompt_len=8),
    "rerank_longdoc": dict(dim=16, n_layers=1, n_questions=120, n_bridge_words=8, n_train=110,
                           filler_tokens_min=20, filler_tokens_max=40),
    "train_pipeline": dict(dim=16, n_layers=1, n_questions=120, n_bridge_words=8, n_train=100,
                           pack_len=30, n_sequences=20, pretrain_steps=2, instances=24,
                           soft_prompt_len=8),
}


def _declared(kind: str) -> set[str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_at_tiny_size(name, trace, tmp_path):
    spec = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    outcome, tracer = workloads.run(name, seed=3, seconds=0.2, trace=trace,
                                    work_dir=str(tmp_path), spec=spec)
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted > 0
    sent = {m.alias for m in outcome.metrics.values() if m.alias}
    assert sent == _declared("per_layer" if trace else "end_to_end")
    assert all(m.value == m.value for m in outcome.metrics.values())  # no NaN
    assert (tracer is not None) == trace
    assert not hasattr(pspt.tensor.matmul, "__wrapped__")
    assert not hasattr(pspt.scoring.rerank_with_scores, "__wrapped__")
    if trace:
        ops = outcome.metrics["tensor.ops_per_candidate"].value
        assert ops == int(ops) > 0  # an exact count


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero with no result."""
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rerank_prefix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
