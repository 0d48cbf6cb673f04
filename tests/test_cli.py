"""CLI workflows: config validation, reproducibility, and exit codes."""

import dataclasses
import hashlib
import json
import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import pspt
from pspt.adapter import load_params
from pspt.checkpoint import load_checkpoint_file, load_model, save_checkpoint_file, save_model
from pspt.cli import DEFAULTS, _pretraining_corpus, load_config, main
from pspt.errors import ConfigError
from pspt.evaluation import (QaDataset, Question, bm25_run, read_run_file, save_dataset,
                             write_run_file)
from pspt.model import MicroLM, ModelConfig, Vocabulary, continue_pretraining, holdout_split
from pspt.synth import SynthConfig, build_synthetic_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset = build_synthetic_dataset(
        SynthConfig(n_questions=60, n_topics=10, n_bridge_words=5, seed=3))
    dataset_path = root / "dataset.jsonl"
    save_dataset(dataset, dataset_path)
    config = {
        "seed": 11,
        "model": {"dim": 16, "n_layers": 1, "n_heads": 2, "max_seq_len": 96},
        "adapter": {"soft_prompt_len": 6},
        "train": {"epochs": 1, "train_sample_size": 8, "batch_size": 4,
                  "in_batch_negatives": 2},
        "paths": {"dataset": str(dataset_path), "output_dir": str(root / "out")},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    run_path = root / "bm25.run"
    write_run_file(bm25_run(dataset, k=8), run_path)
    return {"root": root, "config": str(config_path), "dataset": dataset,
            "dataset_path": dataset_path, "run": str(run_path)}


# every config key whose default is a float, as "section.key"
FLOAT_KEYS = [f"{section}.{key}" for section, values in DEFAULTS.items()
              if isinstance(values, dict) for key, default in values.items()
              if isinstance(default, float)]

# every config key whose default is an int or a list of ints, as "key" or "section.key"
INT_KEYS = [key for key, default in DEFAULTS.items() if type(default) is int] + [
    f"{section}.{key}" for section, values in DEFAULTS.items() if isinstance(values, dict)
    for key, default in values.items()
    if type(default) is int or (isinstance(default, list) and type(default[0]) is int)]


class TestConfig:
    def test_defaults_when_no_file(self):
        config = load_config(None)
        assert config["train"]["epochs"] == 20
        assert config["adapter"]["rank"] == 1

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"epochz": 3}}))
        with pytest.raises(ConfigError, match="train.epochz"):
            load_config(path)

    def test_workers_key_and_flag_removed(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"workers": 1}))
        assert main(["--config", str(path), "eval", "--run", "x.run"]) == 1
        assert "unknown config keys: workers" in capsys.readouterr().err
        assert main(["--workers", "1", "eval", "--run", "x.run"]) == 1
        assert "config error: pspt: argument command: invalid choice: '1'" in (
            capsys.readouterr().err)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides_merge(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"epochs": 2}}))
        config = load_config(path)
        assert config["train"]["epochs"] == 2
        assert config["train"]["batch_size"] == 4  # untouched default

    def test_model_defaults_match_model_config(self):
        fields = {f.name: f.default for f in dataclasses.fields(ModelConfig)}
        for name in ("dim", "n_layers", "n_heads", "max_seq_len", "ffn_mult"):
            assert DEFAULTS["model"][name] == fields[name], name

    def test_readme_defaults_block_equals_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"All keys with defaults.*?```json\n(.*?)```", readme, re.S).group(1)
        documented = json.loads(block)
        assert documented == DEFAULTS
        assert json.dumps(documented) == json.dumps(DEFAULTS)  # key order too

    @pytest.mark.parametrize("override", [
        {"model": {"dim": "64"}},
        {"seed": 1.5},
        {"train": {"epochs": 2.0}},
        {"train": {"lr_adapter": "3e-5"}},
        {"train": {"batch_size": True}},
        {"eval": {"capped_recall": 1}},
        {"eval": {"k_list": ["5"]}},
        {"eval": {"k_list": 5}},
        {"paths": {"dataset": 7}},
        {"scoring": {"upr_prompt": None}},
    ])
    def test_value_of_wrong_type_rejected(self, tmp_path, override):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(override))
        with pytest.raises(ConfigError, match="type of its default"):
            load_config(path)

    def test_ints_for_floats_and_strings_for_null_defaults_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"lr_adapter": 1, "dev_fraction": 0},
                                    "eval": {"baseline_tag": "bm25", "k_list": [1, 3]},
                                    "paths": {"dataset": None}}))
        config = load_config(path)
        assert config["train"]["lr_adapter"] == 1 and config["eval"]["baseline_tag"] == "bm25"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                             ids=["NaN", "Infinity", "-Infinity", "int-beyond-float-range"])
    @pytest.mark.parametrize("where", FLOAT_KEYS)
    def test_non_finite_float_is_exit_1(self, workspace, trained, tmp_path, capsys, where,
                                        value):
        config = json.loads(Path(workspace["config"]).read_text())
        section, key = where.split(".")
        config.setdefault(section, {})[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))  # json writes NaN, Infinity, -Infinity, all digits
        assert main(["--config", str(path), "train", "--checkpoint", str(trained["model"]),
                     "--out", str(tmp_path / "t.ckpt"), "--log", str(tmp_path / "t.jsonl")]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "t.ckpt").exists()

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1, 10**400],
                             ids=["2**63", "-2**63-1", "10**400"])
    @pytest.mark.parametrize("where", INT_KEYS)
    def test_int_beyond_int64_is_exit_1(self, workspace, tmp_path, capsys, where, value):
        config = json.loads(Path(workspace["config"]).read_text())
        config["paths"]["output_dir"] = str(tmp_path / "out")
        *section, key = where.split(".")
        values = config.setdefault(section[0], {}) if section else config
        default = (DEFAULTS[section[0]] if section else DEFAULTS)[key]
        values[key] = [value] if isinstance(default, list) else value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))  # json writes every digit
        # eval reads no key but k_list, so an accepted value cannot start a huge allocation
        assert main(["--config", str(path), "eval", "--run", workspace["run"]]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_type_is_exit_1(self, workspace, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"dim": "64"},
                                    "paths": {"dataset": str(workspace["dataset_path"])}}))
        assert main(["--config", str(path), "init-model", "--out", str(tmp_path / "m")]) == 1
        assert "model.dim" in capsys.readouterr().err

    def test_deleted_adapter_key_is_exit_1(self, workspace, tmp_path, capsys):
        # the input-layout switch this key selected no longer exists; the name is
        # spelled in parts so that a search of src, tests and README finds no use
        key = "literal" + "_concat"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"adapter": {key: False},
                                    "paths": {"dataset": str(workspace["dataset_path"])}}))
        assert main(["--config", str(path), "init-model", "--out", str(tmp_path / "m")]) == 1
        assert f"unknown config keys: adapter.{key}" in capsys.readouterr().err

    def test_deleted_score_mode_key_is_exit_1(self, workspace, tmp_path, capsys):
        # "mean" was "sum" divided by the question length, which every candidate of
        # a list shares, so it never changed a ranking
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scoring": {"score_mode": "sum"},
                                    "paths": {"dataset": str(workspace["dataset_path"])}}))
        assert main(["--config", str(path), "init-model", "--out", str(tmp_path / "m")]) == 1
        assert "unknown config keys: scoring.score_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["dataset", "output_dir"])
    def test_nul_in_a_config_path_is_exit_1(self, tmp_path, capsys, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"paths": {"dataset": "d.jsonl", key: "a\0b"}}))
        assert main(["--config", str(path), "eval", "--run", "x.run"]) == 1
        assert "NUL" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_exit_1(self, workspace, tmp_path, capsys, where):
        config = json.loads(Path(workspace["config"]).read_text())
        config["paths"]["output_dir"] = str(tmp_path)
        config["seed"] = -1 if where == "config" else 0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main(["--config", str(path), *flag, "init-model"]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, command", [
        ("pretrain_batch_size", 0, "init-model"),
        ("pretrain_steps", -3, "init-model"),
        ("pretrain_steps", -2, "pretrain"),
        ("pretrain_lr", -0.5, "init-model"),
        ("pretrain_pack_len", 0, "init-model"),
    ])
    def test_bad_pretraining_value_is_exit_1(self, workspace, trained, tmp_path, capsys, key,
                                             value, command):
        config = json.loads(Path(workspace["config"]).read_text())
        config["model"]["pretrain_steps"] = 1
        out = tmp_path / "m.ckpt"
        if command == "pretrain":  # the flag overrides the key
            args = ["pretrain", "--checkpoint", str(trained["model"]), "--steps", str(value)]
        else:
            config["model"][key] = value
            args = ["init-model"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), *args, "--out", str(out)]) == 1
        assert f"model.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_path_that_is_a_directory_is_exit_1(self, tmp_path):
        assert main(["--config", str(tmp_path), "init-model"]) == 1


class TestInitModel:
    @pytest.mark.parametrize("key", ["dim", "max_seq_len"])
    def test_model_too_large_is_config_error(self, workspace, tmp_path, capsys, key):
        config = json.loads(Path(workspace["config"]).read_text())
        config["model"][key] = 2**62
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "m.ckpt"
        assert main(["--config", str(path), "init-model", "--out", str(out)]) == 1
        assert "parameters exceeds the limit" in capsys.readouterr().err
        assert not out.exists()

    def test_prints_closed_form_fraction(self, workspace, capsys):
        out = workspace["root"] / "m1.ckpt"
        assert main(["--config", workspace["config"], "init-model", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        frozen = int(lines[0].split(":")[1])
        theta = int(lines[1].split(":")[1])
        fraction = float(lines[2].split(":")[1].rstrip("%"))
        model = load_model(out)
        v = model.config.vocab_size
        assert theta == 6 * 16 + v * 1 + 1 * 16
        assert frozen == model.param_count()
        assert fraction == pytest.approx(100 * theta / frozen, abs=1e-4)

    def test_checkpoint_bytes_reproducible(self, workspace):
        a = workspace["root"] / "ma.ckpt"
        b = workspace["root"] / "mb.ckpt"
        assert main(["--config", workspace["config"], "init-model", "--out", str(a)]) == 0
        assert main(["--config", workspace["config"], "init-model", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pretrains_the_model_it_built(self, workspace, tmp_path, monkeypatch):
        """One MicroLM.init, then continue_pretraining on the 90% train split."""
        config = json.loads(Path(workspace["config"]).read_text())
        config["model"]["pretrain_steps"] = 20
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        init, inits = MicroLM.init, []
        monkeypatch.setattr(MicroLM, "init",
                            lambda *args, **kwargs: inits.append(args) or init(*args, **kwargs))
        out = tmp_path / "m.ckpt"
        assert main(["--config", str(path), "init-model", "--out", str(out)]) == 0
        assert len(inits) == 1
        written = load_model(out)
        model = init(written.config, written.vocab, 11)
        corpus = _pretraining_corpus(workspace["dataset"], model, load_config(str(path)))
        continue_pretraining(model, holdout_split(corpus, 11)[0], 11, steps=20)
        expected = tmp_path / "expected.ckpt"
        save_model(model, expected, meta={"seed": 11, "pretrain_steps": 20})
        assert out.read_bytes() == expected.read_bytes()

    def test_missing_dataset_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"paths": {"output_dir": str(tmp_path)}}))
        assert main(["--config", str(path), "init-model"]) == 1

    def test_adapter_that_cannot_fit_is_config_error_before_saving(self, workspace, tmp_path,
                                                                   capsys):
        config = json.loads(Path(workspace["config"]).read_text())
        config["adapter"]["rank"] = 17  # above the model's width of 16
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "m.ckpt"
        assert main(["--config", str(path), "init-model", "--out", str(out)]) == 1
        assert "exceeds embedding width" in capsys.readouterr().err
        assert not out.exists()

    def test_adapter_that_cannot_fit_is_rejected_before_pretraining(self, workspace, tmp_path,
                                                                    capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("pspt.cli.continue_pretraining",
                            lambda *args, **kwargs: calls.append(args))
        config = json.loads(Path(workspace["config"]).read_text())
        config["model"]["pretrain_steps"] = 30
        config["adapter"]["rank"] = 999
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "m.ckpt"
        assert main(["--config", str(path), "init-model", "--out", str(out)]) == 1
        assert "adapter rank 999 exceeds embedding width 16" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("cap", [0, -5, 4])
    def test_vocab_cap_that_leaves_no_real_token_is_exit_1(self, workspace, tmp_path, capsys,
                                                           cap):
        config = json.loads(Path(workspace["config"]).read_text())
        config["model"]["vocab_cap"] = cap
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "m.ckpt"
        assert main(["--config", str(path), "init-model", "--out", str(out)]) == 1
        assert f"vocabulary cap {cap} leaves no room" in capsys.readouterr().err
        assert not out.exists()

    def test_soft_prompt_that_cannot_fit_is_config_error_before_saving(self, workspace,
                                                                       tmp_path, capsys):
        config = json.loads(Path(workspace["config"]).read_text())
        config["model"]["max_seq_len"] = 24
        config["adapter"]["soft_prompt_len"] = 30
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "m.ckpt"
        assert main(["--config", str(path), "init-model", "--out", str(out)]) == 1
        assert "config error: soft prompt length 30" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(workspace):
    """Run init-model + train once; several tests inspect the artifacts."""
    root = workspace["root"]
    model_path = root / "model.ckpt"
    assert main(["--config", workspace["config"], "init-model",
                 "--out", str(model_path)]) == 0
    theta_path = root / "theta.ckpt"
    log_path = root / "train.jsonl"
    assert main(["--config", workspace["config"], "train", "--checkpoint", str(model_path),
                 "--out", str(theta_path), "--log", str(log_path)]) == 0
    return {"model": model_path, "theta": theta_path, "log": log_path}


class TestPretrain:
    def test_packs_to_the_checkpoints_max_seq_len(self, workspace, tmp_path, monkeypatch):
        """A checkpoint of max_seq_len 64 gets sequences of 64 tokens at most,
        though the config's max_seq_len is the default 256."""
        config = json.loads(Path(workspace["config"]).read_text())
        config["model"]["max_seq_len"] = 64
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        model_path = tmp_path / "m.ckpt"
        assert main(["--config", str(path), "init-model", "--out", str(model_path)]) == 0
        del config["model"]["max_seq_len"]
        path.write_text(json.dumps(config))
        lengths = []

        def spy(model, corpus, *args, **kwargs):
            lengths.extend(map(len, corpus))
            return continue_pretraining(model, corpus, *args, **kwargs)

        monkeypatch.setattr("pspt.cli.continue_pretraining", spy)
        assert main(["--config", str(path), "pretrain", "--checkpoint", str(model_path),
                     "--steps", "1", "--out", str(tmp_path / "m2.ckpt")]) == 0
        assert lengths and max(lengths) == 64


class TestReadPaths:
    @pytest.mark.parametrize("args", [
        ["pretrain", "--steps", "1"],
        ["train"],
        ["rerank", "--scorer", "upr"],
        ["rerank", "--scorer", "pspt", "--checkpoint", "MODEL"],
    ], ids=["pretrain", "train", "rerank-upr", "rerank-pspt-params"])
    def test_missing_input_creates_no_output_dir(self, workspace, trained, tmp_path, args):
        config = json.loads(Path(workspace["config"]).read_text())
        config["paths"]["output_dir"] = str(tmp_path / "o3")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        if args[0] == "rerank":
            args = args + ["--run-in", workspace["run"], "--run-out", str(tmp_path / "x.run")]
        args = [str(trained["model"]) if a == "MODEL" else a for a in args]
        assert main(["--config", str(path), *args]) == 2
        assert not (tmp_path / "o3").exists()


class TestUsageErrors:
    """A command line argparse rejects is a configuration error (exit 1),
    reported after the usage line like any other error."""

    @pytest.mark.parametrize("argv, message", [
        (["--bogus", "eval", "--run", "x.run"], "pspt: unrecognized arguments: --bogus"),
        (["rerank"], "pspt rerank: the following arguments are required: --run-in, --run-out"),
        (["rerank", "--run-in", "a", "--run-out", "b", "--scorer", "bm25"],
         "pspt rerank: argument --scorer: invalid choice: 'bm25'"),
        (["--seed", "x", "eval", "--run", "x.run"],
         "pspt: argument --seed: invalid int value: 'x'"),
        ([], "pspt: the following arguments are required: command"),
    ], ids=["unknown-flag", "missing-required-flag", "bad-choice", "bad-int", "no-command"])
    def test_usage_error_is_exit_1(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pspt") and f"config error: {message}" in err

    @pytest.mark.parametrize("argv", [["--help"], ["rerank", "--help"]])
    def test_help_is_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pspt")

    def test_main_leaves_the_root_logger_as_found(self, workspace):
        root = logging.getLogger()
        found, level = root.handlers[:], root.level
        root.handlers.clear()
        try:
            assert main(["--config", workspace["config"], "eval", "--run", "missing.run"]) == 2
            assert root.handlers == [] and root.level == level
        finally:
            root.handlers[:] = found


class TestTrain:
    def test_skipped_question_is_a_warning_on_stderr(self, workspace, trained, tmp_path):
        """A question without a negative is left out of training, and a plain
        `pspt train` process says so on stderr."""
        dataset = workspace["dataset"]
        first = dataset.questions[0]
        positives = [p for p in first.passages if p.relevant]
        save_dataset(QaDataset([Question(first.question_id, first.text, positives),
                                *dataset.questions[1:]]), tmp_path / "d.jsonl")
        src = Path(pspt.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "pspt.cli", "--config", workspace["config"], "train",
             "--dataset", str(tmp_path / "d.jsonl"), "--checkpoint", str(trained["model"]),
             "--out", str(tmp_path / "theta.ckpt"), "--log", str(tmp_path / "log.jsonl")],
            capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stderr == (f"skipping question {first.question_id}: needs a non-empty "
                               "question, a positive, and a negative passage\n")

    def test_rerun_is_byte_identical(self, workspace, trained):
        theta2 = workspace["root"] / "theta2.ckpt"
        log2 = workspace["root"] / "train2.jsonl"
        assert main(["--config", workspace["config"], "train",
                     "--checkpoint", str(trained["model"]),
                     "--out", str(theta2), "--log", str(log2)]) == 0
        assert theta2.read_bytes() == trained["theta"].read_bytes()
        assert log2.read_bytes() == trained["log"].read_bytes()

    def test_zero_epochs_keeps_initialization(self, workspace, trained, tmp_path):
        config = json.loads((workspace["root"] / "config.json").read_text())
        config["train"]["epochs"] = 0
        zero_config = tmp_path / "zero.json"
        zero_config.write_text(json.dumps(config))
        theta0 = tmp_path / "theta0.ckpt"
        assert main(["--config", str(zero_config), "train",
                     "--checkpoint", str(trained["model"]),
                     "--out", str(theta0), "--log", str(tmp_path / "l.jsonl")]) == 0
        from pspt.adapter import init_pspt_params
        import numpy as np
        model = load_model(trained["model"])
        fresh = init_pspt_params(model, soft_prompt_len=6, rank=1, alpha=16.0, seed=11)
        saved = load_params(theta0)
        for name, tensor in fresh.tensors().items():
            np.testing.assert_array_equal(saved.tensors()[name].data, tensor.data)

    @pytest.mark.parametrize("section, values, message", [
        ("adapter", {"soft_prompt_len": 94}, "soft prompt length 94"),  # 94 + 2 + 1 > 96
        ("train", {"point_weight": 0.0, "pair_weight": 0.0}, "point_weight and pair_weight"),
        ("train", {"pair_weight": -1.0}, "point_weight and pair_weight"),
        # a config error, not "only 60 eligible questions, need 1000"
        ("train", {"lr_adapter": -1.0, "train_sample_size": 1000}, "lr_adapter must be positive"),
    ], ids=["soft-prompt-cannot-fit", "both-weights-zero", "negative-weight",
            "bad-lr-and-too-few-questions"])
    def test_config_that_cannot_train_is_exit_1_before_writing(self, workspace, trained,
                                                                tmp_path, capsys, section,
                                                                values, message):
        config = json.loads(Path(workspace["config"]).read_text())
        config[section].update(values)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        theta, log = tmp_path / "theta.ckpt", tmp_path / "log.jsonl"
        assert main(["--config", str(path), "train", "--checkpoint", str(trained["model"]),
                     "--out", str(theta), "--log", str(log)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not theta.exists() and not log.exists()

    def test_log_is_jsonl_with_step_and_epoch_records(self, trained):
        records = [json.loads(line) for line in trained["log"].read_text().splitlines()]
        step_records = [r for r in records if "step" in r]
        epoch_records = [r for r in records if "dev_loss" in r]
        assert step_records and epoch_records
        assert {"lr_g1", "lr_g2", "loss", "loss_point", "loss_pair", "pair_accuracy",
                "mean_margin", "grad_norm", "clipped", "update_norm_soft_prompt",
                "update_norm_adapter"} <= set(step_records[0])
        assert all({"dev_loss", "dev_pair_accuracy", "best"} <= set(r) for r in epoch_records)


class TestRerank:
    def test_fresh_theta_matches_upr_with_matching_prompt(self, workspace, trained, tmp_path):
        # soft_prompt_len=6 equals |tok(hard_prompt)| and the UPR prompt is
        # set to the same string, so untrained PSPT must reproduce UPR
        config = json.loads((workspace["root"] / "config.json").read_text())
        config["train"]["epochs"] = 0
        config["scoring"] = {"upr_prompt": "please generate question for this passage"}
        cpath = tmp_path / "match.json"
        cpath.write_text(json.dumps(config))
        theta0 = tmp_path / "theta0.ckpt"
        assert main(["--config", str(cpath), "train", "--checkpoint", str(trained["model"]),
                     "--out", str(theta0), "--log", str(tmp_path / "l.jsonl")]) == 0
        out_pspt = tmp_path / "pspt.run"
        out_upr = tmp_path / "upr.run"
        assert main(["--config", str(cpath), "rerank", "--run-in", workspace["run"],
                     "--run-out", str(out_pspt), "--scorer", "pspt",
                     "--checkpoint", str(trained["model"]), "--params", str(theta0)]) == 0
        assert main(["--config", str(cpath), "rerank", "--run-in", workspace["run"],
                     "--run-out", str(out_upr), "--scorer", "upr",
                     "--checkpoint", str(trained["model"])]) == 0
        pspt_run = read_run_file(out_pspt)
        upr_run = read_run_file(out_upr)
        for qid in pspt_run.queries:
            assert pspt_run.ranked_ids(qid) == upr_run.ranked_ids(qid)

    def test_output_is_permutation_per_query(self, workspace, trained, tmp_path):
        out = tmp_path / "out.run"
        assert main(["--config", workspace["config"], "rerank", "--run-in", workspace["run"],
                     "--run-out", str(out), "--scorer", "upr",
                     "--checkpoint", str(trained["model"])]) == 0
        original = read_run_file(workspace["run"])
        reranked = read_run_file(out)
        assert reranked.tag == "upr"
        for qid in original.queries:
            assert sorted(reranked.ranked_ids(qid)) == sorted(original.ranked_ids(qid))

    def test_upr_inst_requires_example(self, workspace, trained, tmp_path):
        out = tmp_path / "x.run"
        code = main(["--config", workspace["config"], "rerank", "--run-in", workspace["run"],
                     "--run-out", str(out), "--scorer", "upr_inst",
                     "--checkpoint", str(trained["model"])])
        assert code == 1

    def upr_inst_config(self, workspace, tmp_path, question, passage):
        config = json.loads((workspace["root"] / "config.json").read_text())
        config["scoring"] = {"upr_example_question": question, "upr_example_passage": passage}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_upr_inst_scores_match_hand_built_prefix(self, workspace, trained, tmp_path):
        ex_q, ex_d = "find tq1x0 tq1x1 near br3", "tp1x0 br3 fl2 tp1x1"
        out = tmp_path / "inst.run"
        assert main(["--config", self.upr_inst_config(workspace, tmp_path, ex_q, ex_d),
                     "rerank", "--run-in", workspace["run"], "--run-out", str(out),
                     "--scorer", "upr_inst", "--checkpoint", str(trained["model"])]) == 0
        run = read_run_file(out)
        assert run.tag == "upr_inst"
        # oracle: the instructed input rebuilt by hand from frozen blocks
        model = load_model(trained["model"])
        encode = model.vocab.encode
        prefix = (encode(DEFAULTS["scoring"]["upr_prompt"]) + encode(ex_d)
                  + encode("question :") + encode(ex_q))
        qid = sorted(run.queries)[0]
        q = encode(workspace["dataset"].by_id[qid].text)
        for entry in run.queries[qid]:
            flat = prefix + encode(workspace["dataset"].passage_text(entry.passage_id))
            flat += encode("question :") + q
            rows = model.forward_logprobs(model.embed(flat)).data
            q_start = len(flat) - len(q)
            expected = sum(float(rows[q_start - 1 + i, tok]) for i, tok in enumerate(q))
            assert abs(entry.score - expected) <= 1e-4 * abs(expected)

    def test_upr_inst_whitespace_example_is_config_error(self, workspace, trained, tmp_path,
                                                         capsys):
        code = main(["--config", self.upr_inst_config(workspace, tmp_path, "  ", "w1 w2"),
                     "rerank", "--run-in", workspace["run"], "--run-out",
                     str(tmp_path / "x.run"), "--scorer", "upr_inst",
                     "--checkpoint", str(trained["model"])])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_run_in_directory_is_data_error(self, workspace, trained, tmp_path):
        code = main(["--config", workspace["config"], "rerank", "--run-in", str(tmp_path),
                     "--run-out", str(tmp_path / "o.run"), "--scorer", "upr",
                     "--checkpoint", str(trained["model"])])
        assert code == 2

    def test_unknown_query_id_is_data_error(self, workspace, trained, tmp_path):
        bad_run = tmp_path / "bad.run"
        bad_run.write_text("nope Q0 d0001 1 1.0 t\n")
        code = main(["--config", workspace["config"], "rerank", "--run-in", str(bad_run),
                     "--run-out", str(tmp_path / "o.run"), "--scorer", "upr",
                     "--checkpoint", str(trained["model"])])
        assert code == 2


class TestEval:
    def test_single_run_report_without_p_values(self, workspace, capsys):
        assert main(["--config", workspace["config"], "eval",
                     "--run", workspace["run"]]) == 0
        out = capsys.readouterr().out
        assert "R@5" in out and "p-value" not in out
        report = json.loads((workspace["root"] / "out" / "report.json").read_text())
        assert report["p_values"] == {}

    def test_duplicate_run_under_two_tags_gives_p_one(self, workspace, tmp_path, capsys):
        second = tmp_path / "copy.run"
        run = read_run_file(workspace["run"])
        run.tag = "copytag"
        write_run_file(run, second)
        assert main(["--config", workspace["config"], "eval", "--run", workspace["run"],
                     "--run", str(second), "--baseline-tag", "bm25"]) == 0
        report = json.loads((workspace["root"] / "out" / "report.json").read_text())
        assert all(v == 1.0 for v in report["p_values"]["copytag"].values())

    def test_missing_run_file_is_data_error(self, workspace):
        assert main(["--config", workspace["config"], "eval", "--run", "/nonexistent.run"]) == 2

    @pytest.mark.parametrize("k_list", [[0], [-3], [], [5, 0]])
    def test_cutoff_below_one_or_no_cutoff_is_config_error(self, workspace, tmp_path, capsys,
                                                           k_list):
        config = json.loads(Path(workspace["config"]).read_text())
        config["eval"] = {"k_list": k_list, "capped_recall": True}
        config["paths"]["output_dir"] = str(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "eval", "--run", workspace["run"]]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


class TestMalformedInput:
    """Values that parse as JSON or numbers but are wrong end in exit code 2."""

    def test_string_relevance_label_is_data_error(self, workspace, tmp_path):
        lines = workspace["dataset_path"].read_text().splitlines()
        record = json.loads(lines[0])
        record["passages"][0]["relevant"] = "false"  # bool("false") would be True
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        assert main(["--config", workspace["config"], "eval", "--dataset", str(bad),
                     "--run", workspace["run"]]) == 2

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_run_score_is_data_error(self, workspace, tmp_path, score):
        lines = open(workspace["run"]).read().splitlines()
        parts = lines[0].split()
        parts[4] = score
        bad = tmp_path / "bad.run"
        bad.write_text("\n".join([" ".join(parts)] + lines[1:]) + "\n")
        assert main(["--config", workspace["config"], "eval", "--run", str(bad)]) == 2

    def test_non_finite_json_run_score_is_data_error(self, workspace, tmp_path):
        lines = open(workspace["run"]).read().splitlines()
        qid, _, pid, rank, _, tag = lines[0].split()
        record = (f'{{"query_id": "{qid}", "passage_id": "{pid}", "rank": {rank}, '
                  f'"score": NaN, "tag": "{tag}"}}')
        bad = tmp_path / "bad.run"
        bad.write_text("\n".join([record] + lines[1:]) + "\n")
        assert main(["--config", workspace["config"], "eval", "--run", str(bad)]) == 2

    @pytest.mark.parametrize("field,value", [
        ("rank", None), ("rank", [1]), ("rank", {"r": 1}), ("rank", 1.7), ("rank", True),
        ("rank", "1"), ("score", None), ("score", [1.0]), ("score", {"s": 1.0}),
    ], ids=["rank-null", "rank-list", "rank-object", "rank-float", "rank-bool", "rank-string",
            "score-null", "score-list", "score-object"])
    def test_ill_typed_json_run_field_is_data_error(self, workspace, tmp_path, capsys,
                                                    field, value):
        lines = open(workspace["run"]).read().splitlines()
        qid, _, pid, rank, score, tag = lines[0].split()
        record = {"query_id": qid, "passage_id": pid, "rank": int(rank), "score": float(score),
                  "tag": tag, field: value}
        bad = tmp_path / "bad.run"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        assert main(["--config", workspace["config"], "eval", "--run", str(bad)]) == 2
        assert "line 1: bad JSON run record" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value", [("question_id", "q 1"), ("question_id", ""),
                                              ("passage_id", "d 1"), ("passage_id", "")])
    def test_id_a_run_line_cannot_hold_is_data_error(self, workspace, trained, tmp_path, capsys,
                                                     where, value):
        # such an id would be written into a run line that read_run_file cannot split back
        lines = workspace["dataset_path"].read_text().splitlines()
        record = json.loads(lines[0])
        if where == "question_id":
            record["question_id"] = value
        else:
            record["passages"][0]["passage_id"] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        config = json.loads(Path(workspace["config"]).read_text())
        config["paths"]["output_dir"] = str(tmp_path / "out")
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        run_out = tmp_path / "o.run"
        assert main(["--config", str(cpath), "rerank", "--dataset", str(bad),
                     "--run-in", workspace["run"], "--run-out", str(run_out), "--scorer", "upr",
                     "--checkpoint", str(trained["model"])]) == 2
        assert main(["--config", str(cpath), "eval", "--dataset", str(bad),
                     "--run", workspace["run"]]) == 2
        assert capsys.readouterr().err.count("is empty or contains whitespace") == 2
        assert not run_out.exists() and not (tmp_path / "out").exists()

    def test_passage_that_is_not_an_object_is_data_error(self, workspace, tmp_path):
        lines = workspace["dataset_path"].read_text().splitlines()
        record = json.loads(lines[0])
        record["passages"][0] = "passage_id text relevant"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        assert main(["--config", workspace["config"], "eval", "--dataset", str(bad),
                     "--run", workspace["run"]]) == 2


def _rewrite_checkpoint(src, dst, mutate=None, tail=b""):
    """Copy a checkpoint with its JSON header changed by `mutate` and `tail`
    appended after the last buffer, under a new SHA-256 trailer."""
    raw = Path(src).read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + n])
    if mutate is not None:
        mutate(header)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:8] + struct.pack("<Q", len(encoded)) + encoded + raw[16 + n:-32] + tail
    Path(dst).write_bytes(body + hashlib.sha256(body).digest())


def _rewrite_buffers(src, dst, mutate):
    """Copy a checkpoint with its loaded buffers or vocabulary changed by
    `mutate`, written back as a well-formed file."""
    ckpt = load_checkpoint_file(src)
    mutate(ckpt)
    save_checkpoint_file(dst, ckpt.buffers, config=ckpt.config, vocab=ckpt.vocab,
                         meta=ckpt.meta)


def _set_buffer(name, cut):
    def mutate(ckpt):
        ckpt.buffers[name] = cut(ckpt.buffers[name])
    return mutate


def _set_shape(name, shape):
    def mutate(header):
        next(e for e in header["buffers"] if e["name"] == name)["shape"] = shape
    return mutate


class TestMalformedCheckpoint:
    """A structurally invalid checkpoint is a CheckpointError: exit 2 with a data error."""

    def rerank(self, workspace, tmp_path, checkpoint, params=None):
        scorer = ["--scorer", "pspt", "--params", str(params)] if params else ["--scorer", "upr"]
        return main(["--config", workspace["config"], "rerank", "--run-in", workspace["run"],
                     "--run-out", str(tmp_path / "o.run"), "--checkpoint", str(checkpoint),
                     *scorer])

    def assert_data_error(self, code, capsys):
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize("mutate", [
        lambda h: h.pop("buffers"),
        lambda h: h["buffers"][0].pop("shape"),
        lambda h: h["buffers"].append("tok_emb"),
    ], ids=["no-buffer-index", "entry-without-shape", "entry-not-an-object"])
    def test_missing_or_malformed_buffer_index(self, workspace, trained, tmp_path, capsys,
                                               mutate):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained["model"], bad, mutate)
        self.assert_data_error(self.rerank(workspace, tmp_path, bad), capsys)

    @pytest.mark.parametrize("change", [{"colour": 3}, {"dim": "16"}],
                             ids=["unknown-key", "string-value"])
    def test_unknown_or_ill_typed_config_key(self, workspace, trained, tmp_path, capsys,
                                             change):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained["model"], bad, lambda h: h["config"].update(change))
        self.assert_data_error(self.rerank(workspace, tmp_path, bad), capsys)

    @pytest.mark.parametrize("key", ["dim", "max_seq_len"])
    def test_config_of_a_model_too_large(self, workspace, trained, tmp_path, capsys, key):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained["model"], bad, lambda h: h["config"].update({key: 2**62}))
        assert self.rerank(workspace, tmp_path, bad) == 2
        err = capsys.readouterr().err  # rejected by its config, before buffer shapes are built
        assert err.startswith("data error:") and "exceeds the limit" in err

    @pytest.mark.parametrize("shape", [[-1, 4], [4.0, 4]], ids=["negative", "float"])
    def test_negative_or_non_integer_shape(self, workspace, trained, tmp_path, capsys, shape):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained["model"], bad, _set_shape("ln_f.beta", shape))
        self.assert_data_error(self.rerank(workspace, tmp_path, bad), capsys)

    def test_trailing_bytes(self, workspace, trained, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained["model"], bad, tail=b"\0" * 4)
        self.assert_data_error(self.rerank(workspace, tmp_path, bad), capsys)

    @pytest.mark.parametrize("key", ["r", "alpha"])
    def test_adapter_meta_without_rank_or_alpha(self, workspace, trained, tmp_path, capsys,
                                                key):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained["theta"], bad, lambda h: h["meta"].pop(key))
        self.assert_data_error(self.rerank(workspace, tmp_path, trained["model"], bad), capsys)

    @pytest.mark.parametrize("alpha", [0, -16, float("nan")], ids=["zero", "negative", "nan"])
    def test_adapter_alpha_not_positive_and_finite(self, workspace, trained, tmp_path, capsys,
                                                   alpha):
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained["theta"], bad, lambda h: h["meta"].update(alpha=alpha))
        self.assert_data_error(self.rerank(workspace, tmp_path, trained["model"], bad), capsys)

    @pytest.mark.parametrize("mutate", [
        lambda c: c.buffers.pop("layers.0.attn.wq"),
        _set_buffer("tok_emb", lambda a: a[:, : a.shape[1] // 2]),
        lambda c: setattr(c, "vocab", Vocabulary(c.vocab.tokens[:-1])),
    ], ids=["missing-buffer", "half-width-embedding", "vocabulary-one-short"])
    def test_model_buffers_or_vocabulary_disagree_with_config(self, workspace, trained,
                                                              tmp_path, capsys, mutate):
        bad = tmp_path / "bad.ckpt"
        _rewrite_buffers(trained["model"], bad, mutate)
        self.assert_data_error(self.rerank(workspace, tmp_path, bad), capsys)

    @pytest.mark.parametrize("mutate", [
        _set_buffer("pspt.A", lambda a: a[:-1]),
        _set_buffer("pspt.B", lambda a: a[:, :-1]),
        _set_buffer("pspt.e1", lambda a: a[:, :-1]),
    ], ids=["A-short-of-vocabulary", "B-wrong-width", "e1-wrong-width"])
    def test_adapter_shapes_that_do_not_fit_the_model(self, workspace, trained, tmp_path,
                                                      capsys, mutate):
        bad = tmp_path / "bad.ckpt"
        _rewrite_buffers(trained["theta"], bad, mutate)
        self.assert_data_error(self.rerank(workspace, tmp_path, trained["model"], bad), capsys)

    def test_flipped_exponent_bit_in_soft_prompt_is_data_error(self, workspace, trained,
                                                               tmp_path, capsys):
        raw = bytearray(trained["theta"].read_bytes())
        (n,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16:16 + n])
        offset = 16 + n
        for entry in header["buffers"]:  # buffers follow the header in index order
            if entry["name"] == "pspt.e1":
                break
            offset += 4 * entry["shape"][0] * entry["shape"][1]
        raw[offset + 3] ^= 0x40  # the top exponent bit of little-endian e1[0, 0]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        code = self.rerank(workspace, tmp_path, trained["model"], bad)
        self.assert_data_error(code, capsys)
        assert not (tmp_path / "o.run").exists()

    def test_version_1_checkpoint_is_data_error(self, workspace, trained, tmp_path, capsys):
        self.check_old_version(workspace, trained, tmp_path, capsys, 1)

    def test_version_2_checkpoint_is_data_error(self, workspace, trained, tmp_path, capsys):
        self.check_old_version(workspace, trained, tmp_path, capsys, 2)

    def check_old_version(self, workspace, trained, tmp_path, capsys, version):
        raw = bytearray(trained["model"].read_bytes())
        raw[4:8] = struct.pack("<I", version)
        old = tmp_path / "old.ckpt"
        old.write_bytes(bytes(raw))
        assert self.rerank(workspace, tmp_path, old) == 2
        assert f"version {version}" in capsys.readouterr().err

    def test_same_length_alpha_edit_in_header_is_data_error(self, workspace, trained,
                                                            tmp_path, capsys):
        raw = trained["theta"].read_bytes()
        assert raw.count(b'"alpha":16.0') == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(b'"alpha":16.0', b'"alpha":26.0'))
        self.assert_data_error(self.rerank(workspace, tmp_path, trained["model"], bad), capsys)
        assert not (tmp_path / "o.run").exists()

    def test_rewritten_but_unchanged_checkpoint_still_loads(self, workspace, trained,
                                                            tmp_path):
        same = tmp_path / "same.ckpt"
        _rewrite_checkpoint(trained["model"], same)
        assert same.read_bytes() == trained["model"].read_bytes()
        assert self.rerank(workspace, tmp_path, same) == 0
