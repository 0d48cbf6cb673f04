"""Golden digests of the synthetic corpus and its BM25 run.

For each case in CASES (a seed and a filler-token range),
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

A change that alters these bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and gives the old and the new digests, with the reason, in CHANGES.md.
Without `--write` the script prints each digest that differs from the file.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from pspt import synth
from pspt.evaluation import load_dataset
from pspt.model import Vocabulary

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
# (seed, filler_tokens_min, filler_tokens_max); (3, 8) is SynthConfig's default
CASES = [(0, 3, 8), (1, 3, 8), (0, 80, 200), (1, 80, 200)]
FILES = ("data.jsonl", "train.jsonl", "eval.jsonl", "bm25.run")


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


@pytest.mark.parametrize("case", CASES, ids=[case_name(*c) for c in CASES])
def test_synth_outputs_match_golden_digests(case):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    prefix = case_name(*case) + "/"
    expected = {key[len(prefix):]: value for key, value in golden.items()
                if key.startswith(prefix)}
    assert case_digests(*case) == expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check or rewrite " + GOLDEN_PATH.name)
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    digests = all_digests()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    differ = sorted(k for k in digests.keys() | golden.keys() if digests.get(k) != golden.get(k))
    for key in differ:
        print(f"{key}: file {golden.get(key)} now {digests.get(key)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
