"""Soft prompt, low-rank adapter, and input assembly behavior."""

import numpy as np
import pytest

from pspt import tensor as T
from pspt.adapter import (
    assemble_input,
    init_adapter,
    init_pspt_params,
    init_soft_prompt,
    load_params,
    passage_embedding,
    save_params,
)
from pspt.errors import ConfigError, ContractError, SequenceLengthError
from pspt.model import MicroLM, ModelConfig, Vocabulary


@pytest.fixture
def params(demo_model):
    return init_pspt_params(demo_model, soft_prompt_len=6, rank=1, alpha=16.0, seed=9)


class TestSoftPromptInit:
    def test_cycled_rows(self, demo_model):
        ids = demo_model.vocab.encode("please generate question")
        assert len(ids) == 3
        sp = init_soft_prompt("please generate question", 5, demo_model)
        table = demo_model.params["tok_emb"].data
        expected = [table[ids[0]], table[ids[1]], table[ids[2]], table[ids[0]], table[ids[1]]]
        np.testing.assert_array_equal(sp.e1.data, np.stack(expected))

    def test_exact_length_equals_embedding(self, demo_model):
        text = "please generate question for this passage"
        ids = demo_model.vocab.encode(text)
        sp = init_soft_prompt(text, len(ids), demo_model)
        np.testing.assert_array_equal(sp.e1.data, demo_model.embed(ids).data)

    def test_copy_semantics(self, demo_model):
        sp = init_soft_prompt("please", 2, demo_model)
        before = demo_model.params["tok_emb"].data.copy()
        sp.e1.data[:] = 123.0
        np.testing.assert_array_equal(demo_model.params["tok_emb"].data, before)

    def test_empty_hard_prompt_rejected(self, demo_model):
        with pytest.raises(ConfigError):
            init_soft_prompt("   ", 4, demo_model)

    def test_trainable(self, demo_model):
        assert init_soft_prompt("please", 3, demo_model).e1.requires_grad


class TestAdapterInit:
    def test_product_is_zero_at_init(self):
        ad = init_adapter(vocab_size=20, rank=2, dim=8, alpha=16.0, seed=1)
        np.testing.assert_array_equal(ad.A.data @ ad.B.data, np.zeros((20, 8)))

    def test_same_seed_reproduces_a(self):
        a1 = init_adapter(20, 1, 8, 16.0, seed=7).A.data
        a2 = init_adapter(20, 1, 8, 16.0, seed=7).A.data
        np.testing.assert_array_equal(a1, a2)

    def test_scaling_factor(self):
        assert init_adapter(20, 1, 8, 16.0, seed=0).scaling == 16.0

    def test_rank_exceeding_width_rejected(self):
        with pytest.raises(ConfigError):
            init_adapter(20, 9, 8, 16.0, seed=0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            init_adapter(20, 1, 8, 0.0, seed=0)


class TestPassageEmbedding:
    def test_fresh_adapter_is_identity(self, demo_model, params):
        ids = demo_model.vocab.encode("w1 w2 w3")
        e2 = passage_embedding(ids, params, demo_model)
        e4 = demo_model.embed(ids)
        np.testing.assert_array_equal(e2.data, e4.data)  # B = 0 makes e3 exactly zero

    def test_empty_passage(self, demo_model, params):
        assert passage_embedding([], params, demo_model).shape == (0, 32)

    def test_single_token_direct_arithmetic(self, demo_model, params):
        # pick nonzero A, B and recompute the formula scalar by scalar
        rng = T.make_rng(77)
        params.adapter.A.data = rng.normal(0, 0.1, params.adapter.A.shape).astype(np.float32)
        params.adapter.B.data = rng.normal(0, 0.1, params.adapter.B.shape).astype(np.float32)
        tok = demo_model.vocab.id_of("w5")
        got = passage_embedding([tok], params, demo_model).data[0]
        a_row = params.adapter.A.data[tok].astype(np.float64)
        b = params.adapter.B.data.astype(np.float64)
        expected = (a_row @ b) * params.adapter.scaling + demo_model.params["tok_emb"].data[tok]
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_differentiable_wrt_adapter(self, demo_model, params):
        params.adapter.B.data += 0.01  # nonzero so A receives gradient
        out = passage_embedding([5, 6], params, demo_model)
        T.backward(T.tsum(out))
        assert params.adapter.A.grad is not None
        assert params.adapter.B.grad is not None


class TestAssembleInput:
    def test_block_arithmetic(self):
        # l_s=50, |d|=20, |sep|=2, |q|=5 gives L=77 with 5 target positions
        vocab = Vocabulary(["question", ":", "please"] + [f"t{i}" for i in range(30)])
        config = ModelConfig(vocab_size=len(vocab), dim=16, n_heads=2, n_layers=1, max_seq_len=128)
        model = MicroLM.init(config, vocab, seed=3)
        params = init_pspt_params(model, hard_prompt="please", soft_prompt_len=50, seed=3)
        d = [vocab.id_of(f"t{i % 30}") for i in range(20)]
        q = [vocab.id_of(f"t{i}") for i in range(5)]
        asm = assemble_input(params, d, q, model)
        assert asm.embeddings.shape[0] == 77
        assert len(asm.target_positions) == 5

    def test_single_question_token_targets_last_sep_position(self, demo_model, params):
        sep_len = len(demo_model.vocab.encode("question :"))
        asm = assemble_input(params, [10, 11], [12], demo_model)
        last_sep_position = params.soft_prompt.length + 2 + sep_len - 1
        assert asm.target_positions == [last_sep_position]

    def test_target_alignment_exhaustive(self, demo_model, params):
        rng = T.make_rng(55)
        table = demo_model.params["tok_emb"].data
        for _ in range(25):
            d = [int(i) for i in rng.integers(4, len(demo_model.vocab), size=rng.integers(0, 10))]
            q = [int(i) for i in rng.integers(4, len(demo_model.vocab), size=rng.integers(1, 8))]
            asm = assemble_input(params, d, q, demo_model)
            for i, pos in enumerate(asm.target_positions):
                # the position holding q_i's embedding is immediately after pos
                np.testing.assert_array_equal(asm.embeddings.data[pos + 1], table[q[i]])
            assert asm.target_ids == q

    def test_empty_question_rejected(self, demo_model, params):
        with pytest.raises(ContractError):
            assemble_input(params, [4, 5], [], demo_model)

    def test_passage_truncated_from_right(self, demo_model, params):
        max_len = demo_model.config.max_seq_len
        sep_len = len(demo_model.vocab.encode("question :"))
        budget = max_len - params.soft_prompt.length - sep_len - 1
        d = [4 + (i % 40) for i in range(budget + 10)]
        asm = assemble_input(params, d, [5], demo_model)
        assert asm.embeddings.shape[0] == max_len
        kept = asm.embeddings.data[params.soft_prompt.length:params.soft_prompt.length + budget]
        np.testing.assert_array_equal(kept, demo_model.embed(d[:budget]).data)

    def test_overlong_question_rejected(self, demo_model, params):
        q = [4] * demo_model.config.max_seq_len
        with pytest.raises(SequenceLengthError):
            assemble_input(params, [5], q, demo_model)

    def test_literal_concat_doubles_passage_block(self, demo_model, params):
        d = [10, 11, 12]
        q = [13, 14]
        plain = assemble_input(params, d, q, demo_model)
        doubled = assemble_input(params, d, q, demo_model, literal_concat=True)
        assert doubled.embeddings.shape[0] == plain.embeddings.shape[0] + len(d)
        # second copy is the raw frozen embeddings
        ls = params.soft_prompt.length
        np.testing.assert_array_equal(
            doubled.embeddings.data[ls + len(d):ls + 2 * len(d)],
            demo_model.embed(d).data,
        )


class TestThetaExclusivity:
    def test_backward_reaches_only_theta(self, demo_model, params):
        from pspt.scoring import question_loglik

        params.adapter.B.data += 0.01
        loglik = T.tsum(question_loglik([12, 13], [[10, 11]], params, demo_model))
        T.backward(T.neg(loglik))
        assert params.soft_prompt.e1.grad is not None
        assert params.adapter.A.grad is not None
        assert params.adapter.B.grad is not None
        assert all(p.grad is None for p in demo_model.params.values())


class TestParamsPersistence:
    def test_roundtrip(self, demo_model, params, tmp_path):
        rng = T.make_rng(31)
        params.adapter.B.data = rng.normal(size=params.adapter.B.shape).astype(np.float32)
        path = tmp_path / "theta.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(loaded.tensors()[name].data, tensor.data)
            assert loaded.tensors()[name].requires_grad
        assert loaded.adapter.alpha == params.adapter.alpha
        assert loaded.soft_prompt.init_text == params.soft_prompt.init_text

    def test_copy_is_independent(self, params):
        dup = params.copy()
        dup.soft_prompt.e1.data[:] = 0.0
        assert not np.array_equal(dup.soft_prompt.e1.data, params.soft_prompt.e1.data)
