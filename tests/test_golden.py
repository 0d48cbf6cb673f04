"""Golden outputs: the synthetic corpus and its BM25 run, and the dim-16
CLI pipeline that trains and reranks on it.

Synthetic half. For each case in CASES (a seed and a filler-token range),
`python -m pspt.synth data.jsonl --seed S --train-split train.jsonl
--eval-split eval.jsonl --bm25-run bm25.run` runs with its defaults
otherwise (400 questions, train size 320, k 10). The filler range, which
the command line does not set, is swapped into the `SynthConfig` that
command builds. The hashed bytes are:

- `data.jsonl`, `train.jsonl`, `eval.jsonl` and `bm25.run`: each file's
  bytes exactly as the command wrote them;
- `vocab`: `Vocabulary.from_texts(dataset.texts()).tokens` of the dataset
  that `data.jsonl` holds, each token followed by "\\n", encoded as UTF-8.

Each is the lowercase hex SHA-256 of those bytes, stored in
`golden_digests.json` beside this file under "<case>/<name>". None of
these bytes goes through BLAS, so they do not depend on the machine.

Pipeline half. PIPELINE_COMMANDS run, each as its own process, in an
empty directory with one BLAS thread: `python -m pspt.synth` at seed 21
with splits and a BM25 run; `init-model` on the whole dataset with
PIPELINE_CONFIG (seed 21, dim 16, 1 layer, 2 heads, `max_seq_len` 96, 20
pretraining steps, a 6-row soft prompt, 2 epochs); `pretrain --steps 5`
and `train` on the train split; `rerank` of the BM25 run with each of
SCORERS; and `eval` of the four runs against BM25. The "pipeline" entry
of the golden file holds:

- "environment": numpy's version, the "blas" entry of
  `np.show_config(mode="dicts")["Build Dependencies"]` without its
  "... directory" keys (paths of the wheel's build, not of its bits) and
  the "found" entry of its "SIMD Extensions" (OpenBLAS picks its kernels
  by the CPU it runs on);
- "digests": the SHA-256 of `model.ckpt`, `pspt.ckpt`,
  `train_log.jsonl`, the three rerank runs and `report.json`, and
  `MicroLM.checksum()` of the model;
- "first_query": the ranked (passage id, score) list of the smallest
  query id under each scorer, as the run files give it;
- "best_dev_loss": the least `dev_loss` of the training log.

These bytes go through BLAS, whose rounding may differ on another CPU or
BLAS build. So the digests are compared only where the environment equals
the recorded one (otherwise a warning says they were not). The rankings
are always compared exactly, and the scores and the dev loss always
within 1e-4, absolute or relative (`pytest.approx(rel=1e-4, abs=1e-4)`).

A change that alters these bytes on purpose regenerates the whole file
with

    PYTHONPATH=src python tests/test_golden.py --write

and gives the old and the new values, with the reason, in CHANGES.md.
Without `--write` the script prints each entry that differs from the file.

The same pipeline, run with the BLAS thread variables removed from its
environment, must write the same bytes: importing `pspt` pins BLAS to one
thread unless the user set one of those variables.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pspt
from pspt import synth
from pspt.checkpoint import load_model
from pspt.evaluation import load_dataset, read_run_file
from pspt.model import Vocabulary

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
# (seed, filler_tokens_min, filler_tokens_max); (3, 8) is SynthConfig's default
CASES = [(0, 3, 8), (1, 3, 8), (0, 80, 200), (1, 80, 200)]
FILES = ("data.jsonl", "train.jsonl", "eval.jsonl", "bm25.run")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(pspt.__file__).resolve().parents[1]
PIPELINE_CONFIG = {
    "seed": 21,
    "model": {"dim": 16, "n_layers": 1, "n_heads": 2, "max_seq_len": 96, "pretrain_steps": 20},
    "adapter": {"soft_prompt_len": 6},
    "scoring": {"upr_example_question": "w1 w2", "upr_example_passage": "w3 w4"},
    "train": {"epochs": 2},
    "paths": {"dataset": "data.jsonl", "output_dir": "out"},
}
SCORERS = ("pspt", "upr", "upr_inst")
CLI = ("pspt.cli", "--config", "config.json")
PIPELINE_COMMANDS = [
    ("pspt.synth", "data.jsonl", "--seed", "21", "--train-split", "train.jsonl",
     "--eval-split", "eval.jsonl", "--bm25-run", "bm25.run"),
    (*CLI, "init-model"),
    (*CLI, "pretrain", "--dataset", "train.jsonl", "--steps", "5"),
    (*CLI, "train", "--dataset", "train.jsonl"),
    *[(*CLI, "rerank", "--run-in", "bm25.run", "--run-out", f"out/{s}.run", "--scorer", s)
      for s in SCORERS],
    (*CLI, "eval", "--run", "bm25.run", *[a for s in SCORERS for a in ("--run", f"out/{s}.run")],
     "--baseline-tag", "bm25"),
]
PIPELINE_FILES = ("model.ckpt", "pspt.ckpt", "train_log.jsonl",
                  *[f"{s}.run" for s in SCORERS], "report.json")
ONE_THREAD = {var: "1" for var in BLAS_THREAD_VARS}


def case_name(seed: int, lo: int, hi: int) -> str:
    return f"seed{seed}_filler{lo}-{hi}"


def case_digests(seed: int, lo: int, hi: int) -> dict[str, str]:
    """SHA-256 of each output of one case, by name (see the module docstring)."""
    config = functools.partial(synth.SynthConfig, filler_tokens_min=lo, filler_tokens_max=hi)
    with (tempfile.TemporaryDirectory() as tmp, mock.patch.object(synth, "SynthConfig", config),
          contextlib.redirect_stdout(io.StringIO())):
        paths = {name: Path(tmp, name) for name in FILES}
        code = synth.main([str(paths["data.jsonl"]), "--seed", str(seed),
                           "--train-split", str(paths["train.jsonl"]),
                           "--eval-split", str(paths["eval.jsonl"]),
                           "--bm25-run", str(paths["bm25.run"])])
        if code != 0:
            raise RuntimeError(f"python -m pspt.synth exited {code}")
        blobs = {name: path.read_bytes() for name, path in paths.items()}
        tokens = Vocabulary.from_texts(load_dataset(paths["data.jsonl"]).texts()).tokens
    blobs["vocab"] = "".join(tok + "\n" for tok in tokens).encode("utf-8")
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def all_digests() -> dict[str, str]:
    return {f"{case_name(*case)}/{name}": digest
            for case in CASES for name, digest in case_digests(*case).items()}


def run_pipeline(work: Path, blas_env: dict[str, str]) -> Path:
    """Run PIPELINE_COMMANDS in the empty directory `work`, each in a process
    whose environment has none of BLAS_THREAD_VARS but those in `blas_env`.
    Returns the output directory."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=str(SRC))
    (work / "config.json").write_text(json.dumps(PIPELINE_CONFIG), encoding="utf-8")
    for args in PIPELINE_COMMANDS:
        done = subprocess.run([sys.executable, "-m", *args], cwd=work, env=env,
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"python -m {' '.join(args)} exited {done.returncode}: "
                               f"{done.stderr}")
    return work / "out"


def pipeline_digests(out: Path) -> dict[str, str]:
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PIPELINE_FILES}
    digests["model_checksum"] = load_model(out / "model.ckpt").checksum()
    return digests


def blas_environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = {key: value for key, value in config["Build Dependencies"]["blas"].items()
            if not key.endswith("directory")}
    return {"numpy": np.__version__, "blas": blas,
            "simd_found": config["SIMD Extensions"]["found"]}


def pipeline_record(out: Path) -> dict:
    """The "pipeline" entry of the golden file (see the module docstring)."""
    first_query = {}
    for scorer in SCORERS:
        run = read_run_file(out / f"{scorer}.run")
        first_query[scorer] = [[e.passage_id, e.score] for e in run.queries[min(run.queries)]]
    log = [json.loads(line)
           for line in (out / "train_log.jsonl").read_text(encoding="utf-8").splitlines()]
    return {"environment": blas_environment(), "digests": pipeline_digests(out),
            "first_query": first_query,
            "best_dev_loss": min(rec["dev_loss"] for rec in log if "dev_loss" in rec)}


@pytest.fixture(scope="module")
def pinned_pipeline(tmp_path_factory) -> Path:
    return run_pipeline(tmp_path_factory.mktemp("pinned"), ONE_THREAD)


@pytest.mark.parametrize("case", CASES, ids=[case_name(*c) for c in CASES])
def test_synth_outputs_match_golden_digests(case):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    prefix = case_name(*case) + "/"
    expected = {key[len(prefix):]: value for key, value in golden.items()
                if key.startswith(prefix)}
    assert case_digests(*case) == expected


def test_pipeline_outputs_match_golden_record(pinned_pipeline):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["pipeline"]
    record = pipeline_record(pinned_pipeline)
    for scorer, expected in golden["first_query"].items():
        got = record["first_query"][scorer]
        assert [pid for pid, _ in got] == [pid for pid, _ in expected], scorer
        assert [s for _, s in got] == pytest.approx([s for _, s in expected],
                                                    rel=1e-4, abs=1e-4), scorer
    assert record["best_dev_loss"] == pytest.approx(golden["best_dev_loss"], rel=1e-4, abs=1e-4)
    if record["environment"] == golden["environment"]:
        assert record["digests"] == golden["digests"]
    else:
        warnings.warn("numpy or BLAS differs from the golden record's, so the pipeline's "
                      "digests were not compared")


def test_unset_blas_thread_variables_give_the_pinned_bytes(pinned_pipeline, tmp_path):
    """With no BLAS variable set, a multi-threaded BLAS would round its sums
    by the machine's core count; the package pins one thread instead."""
    assert pipeline_digests(run_pipeline(tmp_path, {})) == pipeline_digests(pinned_pipeline)


@pytest.mark.parametrize("given", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "3"}])
def test_import_pins_one_thread_unless_a_variable_is_set(given):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(given, PYTHONPATH=str(SRC))
    code = f"import os, pspt; print([os.environ.get(v) for v in {BLAS_THREAD_VARS}])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    expected = [given.get(v) for v in BLAS_THREAD_VARS] if given else ["1", "1", "1"]
    assert done.stdout == f"{expected}\n"


def flatten(entries: dict) -> dict:
    """The golden file's entries, each part of the pipeline record under
    "pipeline/<part>" or, for a dict, "pipeline/<part>/<key>"."""
    flat = {key: value for key, value in entries.items() if key != "pipeline"}
    for part, value in entries.get("pipeline", {}).items():
        if isinstance(value, dict):
            flat.update({f"pipeline/{part}/{key}": v for key, v in value.items()})
        else:
            flat[f"pipeline/{part}"] = value
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check or rewrite " + GOLDEN_PATH.name)
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        current = {**all_digests(), "pipeline": pipeline_record(run_pipeline(Path(tmp),
                                                                             ONE_THREAD))}
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
        print(f"wrote {len(current) - 1} digests and the pipeline record to {GOLDEN_PATH}")
        return 0
    golden = flatten(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")))
    current = flatten(current)
    differ = sorted(k for k in current.keys() | golden.keys() if current.get(k) != golden.get(k))
    for key in differ:
        print(f"{key}: file {golden.get(key)} now {current.get(key)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
