"""CLI workflows: config validation, reproducibility, and exit codes."""

import dataclasses
import hashlib
import json
import re
import struct
from pathlib import Path

import pytest

from pspt.adapter import load_params
from pspt.checkpoint import load_checkpoint_file, load_model, save_checkpoint_file
from pspt.cli import DEFAULTS, load_config, main
from pspt.errors import ConfigError
from pspt.evaluation import read_run_file, save_dataset, write_run_file, bm25_run
from pspt.model import ModelConfig, Vocabulary
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


class TestTrain:
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

    def test_log_is_jsonl_with_step_and_epoch_records(self, trained):
        records = [json.loads(line) for line in trained["log"].read_text().splitlines()]
        step_records = [r for r in records if "step" in r]
        epoch_records = [r for r in records if "dev_loss" in r]
        assert step_records and epoch_records
        assert {"lr_g1", "lr_g2", "loss", "loss_point", "loss_pair", "grad_norm",
                "clipped"} <= set(step_records[0])


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

    def test_worker_count_does_not_change_bytes(self, workspace, trained, tmp_path):
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}.run"
            assert main(["--config", workspace["config"], "--workers", workers,
                         "rerank", "--run-in", workspace["run"], "--run-out", str(out),
                         "--scorer", "upr", "--checkpoint", str(trained["model"])]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
