"""Property: on malformed input the CLI ends in a documented exit code.

Each case replaces one field of a valid config, dataset record or JSON
run record with a drawn JSON value, or flips one byte of an adapter
checkpoint or cuts it short, and runs the command that reads it. `pspt.cli.main` must
return 0, 1, 2 or 3 and never raise; where it returns 0, each file the
command wrote reads back with that file's own consumer. A checkpoint with
any byte flipped, or cut short anywhere, fails its checksum or an earlier
check: exit 2.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspt.adapter import check_params_fit, load_params
from pspt.checkpoint import load_model
from pspt.cli import DEFAULTS, load_config, main
from pspt.evaluation import bm25_run, read_run_file, save_dataset, write_run_file
from pspt.synth import SynthConfig, build_synthetic_dataset

EXIT_CODES = (0, 1, 2, 3)

# one of: null, bool, 0, a negative int, 1.5, a string, a list or an object
json_values = st.one_of(
    st.none(), st.booleans(), st.just(0), st.integers(max_value=-1), st.just(1.5),
    st.text(max_size=6), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)

fuzz = settings(database=None, deadline=None, max_examples=150)

BASE_CONFIG = {
    "seed": 2,
    "model": {"dim": 8, "n_layers": 1, "n_heads": 2, "max_seq_len": 64},
    "adapter": {"soft_prompt_len": 4},
    "train": {"epochs": 1, "train_sample_size": 4, "batch_size": 2, "in_batch_negatives": 1},
    "scoring": {"upr_example_question": "w1 w2", "upr_example_passage": "w3 w4"},
    "paths": {"dataset": "data.jsonl", "output_dir": "out"},
}

# the command that reads each config section; "seed" and "paths" are
# read by every command
SECTION_COMMAND = {
    "model": ["init-model"],
    "adapter": ["train"],
    "train": ["train"],
    "scoring": ["rerank", "--run-in", "bm25.run", "--run-out", "o.run", "--scorer", "upr_inst"],
    "eval": ["eval", "--run", "bm25.run"],
}
# each top-level key, and each key of each section
CONFIG_FIELDS = [(key,) for key in DEFAULTS] + [
    (section, key) for section, value in DEFAULTS.items() if isinstance(value, dict)
    for key in value]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny dataset, BM25 run, model and adapter, returned as their bytes.
    The module runs inside a temporary directory, so relative paths in
    mutated configs stay there."""
    root = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        dataset = build_synthetic_dataset(
            SynthConfig(n_questions=24, n_topics=4, n_bridge_words=2, seed=4))
        save_dataset(dataset, "data.jsonl")
        write_run_file(bm25_run(dataset, k=3), "bm25.run")
        Path("config.json").write_text(json.dumps(BASE_CONFIG))
        assert main(["--config", "config.json", "init-model"]) == 0
        assert main(["--config", "config.json", "train"]) == 0
        yield {name: Path(name).read_bytes()
               for name in ("config.json", "data.jsonl", "bm25.run", "out/model.ckpt",
                            "out/pspt.ckpt")}


def run_cli(*args) -> int:
    code = main(["--config", "config.json", *args])
    assert code in EXIT_CODES
    if code == 0:
        read_back(args)
    return code


def read_back(args) -> None:
    """Read each file the command `args` wrote, with that file's consumer."""
    config = load_config("config.json")
    out = Path(config["paths"]["output_dir"])
    model_path = out / config["paths"]["model_checkpoint"]
    if args[0] == "init-model":
        load_model(model_path)
    elif args[0] == "train":
        check_params_fit(load_params(out / config["paths"]["params_checkpoint"]),
                         load_model(model_path))
        for line in (out / config["paths"]["train_log"]).read_text().splitlines():
            json.loads(line)
    elif args[0] == "rerank":
        read_run_file(args[args.index("--run-out") + 1])
    elif args[0] == "eval":
        with open(out / "report.json", encoding="utf-8") as f:
            json.load(f)


@fuzz
@given(field=st.sampled_from(CONFIG_FIELDS), value=json_values,
       fallback=st.sampled_from(list(SECTION_COMMAND.values())))
def test_mutated_config(workspace, field, value, fallback):
    config = json.loads(json.dumps(BASE_CONFIG))
    node = config
    for key in field[:-1]:
        node = node.setdefault(key, {})
    node[field[-1]] = value
    Path("config.json").write_text(json.dumps(config))
    try:
        run_cli(*SECTION_COMMAND.get(field[0], fallback))
    finally:  # the run may have rewritten the model or adapter
        for name, raw in workspace.items():
            Path(name).write_bytes(raw)


def _mutate_line(path, out, mutate):
    lines = Path(path).read_text().splitlines()
    Path(out).write_text("\n".join([mutate(lines[0])] + lines[1:]) + "\n")


@fuzz
@given(field=st.sampled_from(["question_id", "question_text", "passages", "passage_id",
                              "text", "relevant"]),
       value=json_values, command=st.sampled_from(["eval", "rerank"]))
def test_mutated_dataset_record(workspace, field, value, command):
    def mutate(line):
        record = json.loads(line)
        owner = record if field in record else record["passages"][0]
        owner[field] = value
        return json.dumps(record)

    _mutate_line("data.jsonl", "bad.jsonl", mutate)
    extra = ["--run", "bm25.run"] if command == "eval" else [
        "--run-in", "bm25.run", "--run-out", "o.run", "--scorer", "upr"]
    run_cli(command, "--dataset", "bad.jsonl", *extra)


@fuzz
@given(field=st.sampled_from(["query_id", "passage_id", "rank", "score", "tag"]),
       value=json_values)
def test_mutated_json_run_record(workspace, field, value):
    def mutate(line):
        qid, _, pid, rank, score, tag = line.split()
        record = {"query_id": qid, "passage_id": pid, "rank": int(rank),
                  "score": float(score), "tag": tag}
        record[field] = value
        return json.dumps(record)

    _mutate_line("bm25.run", "bad.run", mutate)
    run_cli("eval", "--run", "bad.run")


@fuzz
@given(data=st.data(), truncate=st.booleans())
def test_corrupted_adapter_checkpoint(workspace, data, truncate):
    raw = Path("out/pspt.ckpt").read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1))
    if truncate:
        bad = raw[:at]
    else:
        bad = bytearray(raw)
        bad[at] ^= data.draw(st.integers(1, 255))
    Path("bad.ckpt").write_bytes(bytes(bad))
    code = run_cli("rerank", "--run-in", "bm25.run", "--run-out", "o.run", "--scorer", "pspt",
                   "--params", "bad.ckpt")
    assert code == 2
