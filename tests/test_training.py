"""Instance building, in-batch expansion, losses, and the training loop."""

import json

import numpy as np
import pytest

from pspt import tensor as T
from pspt.adapter import init_pspt_params, passage_embedding
from pspt.errors import ConfigError, ContractError, DataError, NumericError
from pspt.evaluation import Passage, QaDataset, Question
from pspt.model import MicroLM, ModelConfig, Vocabulary
from pspt.optim import trainable
from pspt.scoring import score_pspt
from pspt.training import (
    _batch_loss,
    _dev_loss,
    TrainConfig,
    TrainingInstance,
    build_instances,
    expand_in_batch,
    loss_pair,
    loss_point,
    loss_total,
    train,
    write_train_log,
)


def toy_dataset(n_questions=8, n_negatives=3):
    questions = []
    for i in range(n_questions):
        passages = [Passage(f"pos{i}", f"w{i} w{i + 1} w{i + 2}", True)]
        for j in range(n_negatives):
            other = i + j + 1
            passages.append(Passage(f"neg{i}_{j}", f"w{other} w{other + 1}", False))
        questions.append(Question(f"q{i}", f"w{i} w{i + 4}", passages))
    return QaDataset(questions)


def make_instance(i, j):
    return TrainingInstance(f"q{i}", [4 + i, 5 + i], f"p{i}", [6 + i, 7 + i],
                            f"n{j}", [8 + j, 9 + j])


@pytest.fixture
def params(demo_model):
    return init_pspt_params(demo_model, soft_prompt_len=6, rank=1, alpha=16.0, seed=9)


class TestBuildInstances:
    def test_single_eligible_question(self, demo_model):
        ds = toy_dataset(n_questions=1, n_negatives=2)
        out = build_instances(ds, seed=0, sample_size=1, vocab=demo_model.vocab)
        assert len(out) == 1
        assert out[0].question_id == "q0"
        assert out[0].positive_id != out[0].negative_id

    def test_same_seed_reproduces_list(self, demo_model):
        ds = toy_dataset()
        a = build_instances(ds, seed=4, sample_size=6, vocab=demo_model.vocab)
        b = build_instances(ds, seed=4, sample_size=6, vocab=demo_model.vocab)
        assert a == b

    def test_sampling_without_replacement(self, demo_model):
        ds = toy_dataset(n_questions=8)
        out = build_instances(ds, seed=1, sample_size=6, vocab=demo_model.vocab)
        assert len({inst.question_id for inst in out}) == 6

    def test_question_without_negatives_skipped(self, demo_model, caplog):
        questions = [
            Question("qa", "w1", [Passage("p1", "w1", True), Passage("p2", "w2", False)]),
            Question("qb", "w2", [Passage("p3", "w3", True)]),  # no negative
        ]
        with caplog.at_level("WARNING"):
            out = build_instances(QaDataset(questions), seed=0, sample_size=1,
                                  vocab=demo_model.vocab)
        assert [i.question_id for i in out] == ["qa"]
        assert "qb" in caplog.text

    def test_too_few_eligible_raises(self, demo_model):
        ds = toy_dataset(n_questions=3)
        with pytest.raises(DataError):
            build_instances(ds, seed=0, sample_size=5, vocab=demo_model.vocab)


class TestExpandInBatch:
    def test_m_one_keeps_original_pairs(self):
        batch = [make_instance(i, i) for i in range(4)]
        pairs = expand_in_batch(batch, 1)
        assert len(pairs) == 4
        for inst, pair in zip(batch, pairs):
            assert pair.negative_id == inst.negative_id

    def test_batch_four_m_four_gives_sixteen(self):
        batch = [make_instance(i, i) for i in range(4)]
        pairs = expand_in_batch(batch, 4)
        assert len(pairs) == 16
        per_question = {}
        for p in pairs:
            per_question.setdefault(p.question_id, []).append(p.negative_id)
        assert all(len(v) == 4 for v in per_question.values())

    def test_own_positive_never_used_as_negative(self):
        # make everyone's positive id collide with a neighbor's negative pool
        batch = [TrainingInstance(f"q{i}", [4], f"shared{i}", [5],
                                  f"n{i}", [6]) for i in range(4)]
        for m in (1, 2, 3, 4):
            for pair in expand_in_batch(batch, m):
                assert pair.negative_id != pair.positive_id

    def test_no_duplicate_negative_ids_per_question(self):
        batch = [make_instance(i, i) for i in range(4)]
        for p_list in (expand_in_batch(batch, 3), expand_in_batch(batch, 4)):
            seen = {}
            for p in p_list:
                seen.setdefault(p.question_id, set())
                assert p.negative_id not in seen[p.question_id]
                seen[p.question_id].add(p.negative_id)


class TestLosses:
    def test_uniform_model_point_loss(self):
        vocab = Vocabulary([f"w{i}" for i in range(96)])
        config = ModelConfig(vocab_size=100, dim=16, n_layers=1, n_heads=2, max_seq_len=64)
        model = MicroLM.init(config, vocab, seed=0)
        model.params["tok_emb"].data[:] = 0.0
        params = init_pspt_params(model, hard_prompt="w0", soft_prompt_len=4, seed=1)
        value = loss_point([5, 6, 7], [8, 9], params, model).item()
        np.testing.assert_allclose(value, 3 * np.log(100), atol=1e-4)  # 13.8155

    def test_point_loss_is_negated_score(self, demo_model, params):
        q, d = [10, 11, 12], [20, 21]
        lp = loss_point(q, d, params, demo_model).item()
        assert lp == -score_pspt(q, d, params, demo_model)
        assert lp >= 0

    def test_pair_loss_zero_for_identical_passages(self, demo_model, params):
        assert loss_pair([10, 11], [20, 21], [20, 21], params, demo_model).item() == 0.0

    def test_pair_loss_matches_score_margin(self, demo_model, params):
        rng = T.make_rng(8)
        params.adapter.B.data = rng.normal(0, 0.05, params.adapter.B.shape).astype(np.float32)
        q, dp, dn = [10, 11, 12], [20, 21], [22, 23, 24]
        s_pos = score_pspt(q, dp, params, demo_model)
        s_neg = score_pspt(q, dn, params, demo_model)
        got = loss_pair(q, dp, dn, params, demo_model).item()
        np.testing.assert_allclose(got, max(0.0, s_neg - s_pos), rtol=1e-6)

    def test_pair_loss_non_negative_on_random_fixtures(self, demo_model, params):
        rng = T.make_rng(12)
        for _ in range(10):
            q = [int(i) for i in rng.integers(4, 40, size=3)]
            dp = [int(i) for i in rng.integers(4, 40, size=4)]
            dn = [int(i) for i in rng.integers(4, 40, size=4)]
            assert loss_pair(q, dp, dn, params, demo_model).item() >= 0.0

    def test_total_is_sum_of_components(self, demo_model, params):
        q, dp, dn = [10, 11], [20, 21], [22, 23]
        point = loss_point(q, dp, params, demo_model).item()
        pair = loss_pair(q, dp, dn, params, demo_model).item()
        total = loss_total(q, dp, dn, params, demo_model).item()
        np.testing.assert_allclose(total, point + pair, rtol=1e-6)

    def test_total_gradient_matches_finite_differences(self, demo_model):
        model64 = demo_model.astype(np.float64)
        params64 = init_pspt_params(model64, soft_prompt_len=3, rank=1, alpha=16.0, seed=2).astype(np.float64)
        rng = T.make_rng(21)
        params64.soft_prompt.e1.data += rng.normal(0, 0.05, params64.soft_prompt.e1.shape)
        params64.adapter.A.data = rng.normal(0, 0.05, params64.adapter.A.shape)
        params64.adapter.B.data = rng.normal(0, 0.05, params64.adapter.B.shape)
        q, dp, dn = [10, 11], [20, 21], [22]
        arrays = [params64.soft_prompt.e1.data, params64.adapter.A.data, params64.adapter.B.data]

        def objective(arrs):
            return loss_total(q, dp, dn, params64, model64).item()

        fd = T.finite_diff_grad(objective, arrays, eps=1e-5)
        with trainable(params64.tensors().values()):
            T.backward(loss_total(q, dp, dn, params64, model64))
            for tensor, grad in zip(params64.tensors().values(), fd):
                denom = np.maximum(np.maximum(np.abs(tensor.grad), np.abs(grad)), 1e-6)
                assert np.max(np.abs(tensor.grad - grad) / denom) < 1e-4


class TestBatchLoss:
    """The training loss scores a whole batch, every question with its
    positive and negatives, in one packed forward."""

    def setup(self, demo_model, dtype=np.float64, question_lengths=(2, 2, 2), negatives=(3, 3, 3)):
        model = demo_model.astype(dtype)
        params = init_pspt_params(model, soft_prompt_len=3, rank=1, alpha=16.0,
                                  seed=2).astype(dtype)
        rng = T.make_rng(71)
        params.soft_prompt.e1.data += rng.normal(0, 0.05, params.soft_prompt.e1.shape)
        params.adapter.A.data = rng.normal(0, 0.05, params.adapter.A.shape)
        params.adapter.B.data = rng.normal(0, 0.05, params.adapter.B.shape)
        batch = [TrainingInstance(f"q{i}", [10 + i, 11, 12, 13, 14][:n], f"p{i}",
                                  [20 + i, 21, 22 + i][: 2 + i % 2], f"n{i}", [30 + 2 * i])
                 for i, n in enumerate(question_lengths)]
        pairs = expand_in_batch(batch, max(negatives))
        # keep the first negatives[i] pairs of question i
        groups = [[p for p in pairs if p.question_id == inst.question_id][:n]
                  for inst, n in zip(batch, negatives)]
        return model, params, [p for group in groups for p in group]

    def test_equals_mean_of_per_pair_losses(self, demo_model):
        self.check_mean_of_per_pair_losses(*self.setup(demo_model))

    def test_mixed_question_lengths_equal_mean_of_per_pair_losses(self, demo_model):
        self.check_mean_of_per_pair_losses(*self.setup(demo_model, question_lengths=(2, 5, 3)))

    def test_unequal_negative_counts_equal_mean_of_per_pair_losses(self, demo_model):
        self.check_mean_of_per_pair_losses(*self.setup(demo_model, negatives=(1, 2, 3)))

    def check_mean_of_per_pair_losses(self, model, params, pairs):
        total, point, pair = _batch_loss(pairs, params, model, TrainConfig(pair_weight=0.5))
        points = [loss_point(p.question, p.positive, params, model).item() for p in pairs]
        hinges = [loss_pair(p.question, p.positive, p.negative, params, model).item()
                  for p in pairs]
        np.testing.assert_allclose(point.item(), np.mean(points), rtol=1e-12)
        np.testing.assert_allclose(pair.item(), np.mean(hinges), rtol=1e-12)
        np.testing.assert_allclose(total.item(), np.mean(points) + 0.5 * np.mean(hinges),
                                   rtol=1e-12)

    def test_one_forward_per_batch(self, demo_model):
        model, params, pairs = self.setup(demo_model, question_lengths=(2, 5, 3))
        calls = []
        forward = model.forward_logprobs
        model.forward_logprobs = lambda *a, **k: calls.append(a[0].data) or forward(*a, **k)
        _batch_loss(pairs, params, model, TrainConfig())
        assert len(calls) == 1
        # each distinct passage's adapted rows appear once in that forward, though
        # in-batch negatives repeat every positive under other questions
        x = calls[0]
        for d in {tuple(d) for p in pairs for d in (p.positive, p.negative)}:
            rows = passage_embedding(list(d), params, model).data
            hits = [i for i in range(len(x) - len(d) + 1) if np.array_equal(x[i:i + len(d)], rows)]
            assert len(hits) == 1, d

    def test_gradient_matches_finite_differences(self, demo_model):
        self.check_gradient(*self.setup(demo_model))

    def test_mixed_question_lengths_gradient_matches_finite_differences(self, demo_model):
        self.check_gradient(*self.setup(demo_model, question_lengths=(4, 2, 3)))

    def test_unequal_negative_counts_gradient_matches_finite_differences(self, demo_model):
        self.check_gradient(*self.setup(demo_model, negatives=(1, 2, 3)))

    def check_gradient(self, model, params, pairs):
        config = TrainConfig(point_weight=0.7, pair_weight=1.3)
        arrays = [params.soft_prompt.e1.data, params.adapter.A.data, params.adapter.B.data]
        # at eps 1e-5 one coordinate of A straddles a ReLU kink of the frozen FFN,
        # which finite_diff_grad must detect and re-check at a smaller step
        fd = T.finite_diff_grad(lambda _: _batch_loss(pairs, params, model, config)[0].item(),
                                arrays, eps=1e-5)
        with trainable(params.tensors().values()):
            T.backward(_batch_loss(pairs, params, model, config)[0])
            for tensor, grad in zip(params.tensors().values(), fd):
                denom = np.maximum(np.maximum(np.abs(tensor.grad), np.abs(grad)), 1e-6)
                assert np.max(np.abs(tensor.grad - grad) / denom) < 1e-4


class TestDevLoss:
    def test_equals_mean_of_loss_total_over_several_forwards(self, demo_model):
        model = demo_model.astype(np.float64)
        params = init_pspt_params(model, soft_prompt_len=3, seed=2).astype(np.float64)
        rng = T.make_rng(81)
        params.adapter.B.data = rng.normal(0, 0.05, params.adapter.B.shape)

        def ids(n):
            return [int(t) for t in rng.integers(8, 40, size=n)]

        instances = [TrainingInstance(f"q{i}", ids(2 + i % 4), f"p{i}", ids(30), f"n{i}", ids(25))
                     for i in range(12)]
        config = TrainConfig(point_weight=0.7, pair_weight=1.3)
        calls = []
        forward = model.forward_logprobs
        model.forward_logprobs = lambda *a, **k: calls.append(1) or forward(*a, **k)
        got = _dev_loss(instances, params, model, config)
        assert 1 < len(calls) < len(instances)  # more than one MAX_PACKED_ROWS group
        expected = np.mean([loss_total(i.question, i.positive, i.negative, params, model,
                                       0.7, 1.3).item() for i in instances])
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def overfit_setup(demo_model, n=12):
    rng = T.make_rng(61)
    instances = []
    for i in range(n):
        q = [int(x) for x in rng.integers(8, 40, size=3)]
        pos = q + [int(rng.integers(8, 40))]  # positive passage shares question tokens
        neg = [int(x) for x in rng.integers(8, 40, size=4)]
        instances.append(TrainingInstance(f"q{i}", q, f"p{i}", pos, f"n{i}", neg))
    return instances


class TestTrain:
    def quick_config(self, **overrides):
        defaults = dict(batch_size=4, in_batch_negatives=2, epochs=3, seed=5,
                        train_sample_size=12, early_stop_patience=2)
        defaults.update(overrides)
        return TrainConfig(**defaults)

    def test_zero_epochs_returns_unchanged_params(self, demo_model, params):
        before = {k: t.data.copy() for k, t in params.tensors().items()}
        result = train(self.quick_config(epochs=0), overfit_setup(demo_model), demo_model, params)
        for name, tensor in result.params.tensors().items():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_deterministic_given_seed(self, demo_model):
        outs = []
        for _ in range(2):
            params = init_pspt_params(demo_model, soft_prompt_len=6, seed=9)
            result = train(self.quick_config(), overfit_setup(demo_model), demo_model, params)
            outs.append(result)
        for name in ("pspt.e1", "pspt.A", "pspt.B"):
            np.testing.assert_array_equal(outs[0].params.tensors()[name].data,
                                          outs[1].params.tensors()[name].data)
        assert outs[0].log == outs[1].log

    def test_log_records_gradient_norm_and_clipping_reproducibly(self, demo_model, tmp_path):
        config = self.quick_config(epochs=2, grad_clip=0.5)
        logs = []
        for run in range(2):
            params = init_pspt_params(demo_model, soft_prompt_len=6, seed=9)
            result = train(config, overfit_setup(demo_model), demo_model, params)
            write_train_log(result.log, tmp_path / f"log{run}.jsonl")
            logs.append((tmp_path / f"log{run}.jsonl").read_bytes())
        assert logs[0] == logs[1]
        steps = [json.loads(line) for line in logs[0].splitlines() if b'"step"' in line]
        assert steps and all(r["grad_norm"] > 0 for r in steps)
        assert all(r["clipped"] == (r["grad_norm"] > config.grad_clip) for r in steps)
        assert {r["clipped"] for r in steps} == {True, False}

    def test_dev_loss_improves_on_overfit_task(self, demo_model, params):
        result = train(self.quick_config(epochs=6), overfit_setup(demo_model), demo_model, params)
        epoch_records = [r for r in result.log if "dev_loss" in r]
        assert epoch_records[0]["epoch"] == 0
        assert result.best_dev_loss < epoch_records[0]["dev_loss"]

    def test_model_untouched_by_training(self, demo_model, params):
        before = demo_model.checksum()
        train(self.quick_config(), overfit_setup(demo_model), demo_model, params)
        assert demo_model.checksum() == before

    def test_only_theta_changes(self, demo_model, params):
        theta_before = {k: t.data.copy() for k, t in params.tensors().items()}
        model_before = {k: t.data.copy() for k, t in demo_model.params.items()}
        train(self.quick_config(epochs=1), overfit_setup(demo_model), demo_model, params)
        assert any(not np.array_equal(params.tensors()[k].data, theta_before[k])
                   for k in theta_before)
        for name, data in model_before.items():
            np.testing.assert_array_equal(demo_model.params[name].data, data)

    @staticmethod
    def assert_frozen(tensors):
        assert all(not t.requires_grad and t.grad is None for t in tensors)

    def test_everything_frozen_after_training(self, demo_model, params):
        result = train(self.quick_config(epochs=1), overfit_setup(demo_model), demo_model, params)
        self.assert_frozen(params.tensors().values())
        self.assert_frozen(result.params.tensors().values())
        self.assert_frozen(demo_model.params.values())

    def test_everything_frozen_after_a_failing_step(self, demo_model, params):
        params.soft_prompt.e1.data[:] = np.nan
        with pytest.raises(NumericError):
            train(self.quick_config(dev_fraction=0.0), overfit_setup(demo_model), demo_model,
                  params)
        self.assert_frozen(params.tensors().values())
        self.assert_frozen(demo_model.params.values())

    def test_learning_rates_decay_linearly(self, demo_model, params):
        config = self.quick_config(epochs=2)
        result = train(config, overfit_setup(demo_model), demo_model, params)
        steps = [r for r in result.log if "step" in r]
        total = len(steps)
        for rec in steps:
            expected = config.lr_soft_prompt * (1 - rec["step"] / total)
            np.testing.assert_allclose(rec["lr_g1"], expected, rtol=1e-12)
            assert rec["lr_g2"] == pytest.approx(config.lr_adapter * (1 - rec["step"] / total))
        assert steps[-1]["lr_g1"] > 0

    def test_early_stopping_returns_best_snapshot(self, demo_model, params):
        # huge LR destroys the loss after the first epochs; best snapshot must win
        config = self.quick_config(epochs=8, lr_soft_prompt=2.0, lr_adapter=0.5,
                                   early_stop_patience=2)
        result = train(config, overfit_setup(demo_model), demo_model, params)
        dev_records = [r for r in result.log if "dev_loss" in r]
        best = min(r["dev_loss"] for r in dev_records)
        assert result.best_dev_loss == best
        stopped_early = len(dev_records) - 1 < config.epochs
        worse_later = dev_records[-1]["dev_loss"] > result.best_dev_loss
        assert stopped_early or worse_later or result.best_epoch == dev_records[-1]["epoch"]

    def test_validation_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(in_batch_negatives=9, batch_size=4).validate()

    def test_instance_invariants(self):
        with pytest.raises(ContractError):
            TrainingInstance("q", [], "p", [1], "n", [2])
        with pytest.raises(ContractError):
            TrainingInstance("q", [1], "p", [1], "p", [2])
