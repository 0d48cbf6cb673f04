"""CLI workflows: config validation, reproducibility, and exit codes."""

import dataclasses
import json

import pytest

from pspt.adapter import load_params
from pspt.checkpoint import load_model
from pspt.cli import DEFAULTS, load_config, main
from pspt.errors import ConfigError
from pspt.evaluation import read_run_file, save_dataset, write_run_file, bm25_run
from pspt.model import ModelConfig
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


class TestInitModel:
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
        assert {"lr_g1", "lr_g2", "loss", "loss_point", "loss_pair"} <= set(step_records[0])


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
