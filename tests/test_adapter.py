"""Soft prompt, low-rank adapter, and input assembly behavior."""

import numpy as np
import pytest

from pspt import tensor as T
from pspt.adapter import (
    SEPARATOR_ROWS,
    SEPARATOR_TEXT,
    assemble_input,
    assemble_segments,
    init_adapter,
    init_pspt_params,
    init_soft_prompt,
    load_params,
    passage_embedding,
    save_params,
)
from pspt.checkpoint import load_checkpoint_file, save_checkpoint_file
from pspt.errors import CheckpointError, ConfigError, ContractError, SequenceLengthError
from pspt.model import MicroLM, ModelConfig, Vocabulary
from pspt.optim import trainable


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

    def test_length_must_leave_room_for_separator_and_one_question_token(self, demo_model):
        longest = demo_model.config.max_seq_len - SEPARATOR_ROWS - 1
        assert init_soft_prompt("please", longest, demo_model).e1.shape[0] == longest
        with pytest.raises(ConfigError, match="no room"):
            init_soft_prompt("please", longest + 1, demo_model)

    def test_trainable(self, demo_model):
        assert not init_soft_prompt("please", 3, demo_model).e1.requires_grad


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
        with trainable(params.tensors().values()):
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


class TestAssembleSegments:
    """The prefix is root segment 0; each distinct kept passage is one
    [passage; separator] segment that continues it, and each pair's
    question is a segment that continues its passage's."""

    PREFIX_IDS = [30, 31, 32, 33, 34]  # a 5-row prefix

    def test_distinct_passages_give_a_passage_and_a_question_segment_per_pair(self, demo_model):
        sep = demo_model.vocab.encode(SEPARATOR_TEXT)
        q = [10, 11, 12]
        passages = [[20, 21], [], [22, 23, 24, 25], [26]]
        packed = assemble_segments(demo_model, [(d, q) for d in passages], demo_model.embed,
                                   demo_model.embed(self.PREFIX_IDS))
        assert packed.lengths == [5] + [n for d in passages for n in (len(d) + len(sep), len(q))]
        assert packed.parents == [-1] + [p for i in range(len(passages)) for p in (0, 2 * i + 1)]
        flat = self.PREFIX_IDS + [t for d in passages for t in d + sep + q]
        np.testing.assert_array_equal(packed.embeddings.data, demo_model.embed(flat).data)
        ends = np.cumsum(packed.lengths)[2::2]  # the question segments' ends
        assert packed.target_positions == [r for e in ends for r in range(e - 4, e - 1)]
        assert packed.target_ids == q * len(passages)

    def test_shared_passage_is_one_segment_its_questions_continue(self, demo_model):
        sep = demo_model.vocab.encode(SEPARATOR_TEXT)
        d, e = [20, 21, 22], [23]
        pairs = [(d, [10, 11]), (e, [12]), (d, [13, 14, 15]), (d, [16])]
        embedded = []

        def embed(ids):
            embedded.append(list(ids))
            return demo_model.embed(ids)

        packed = assemble_segments(demo_model, pairs, embed, demo_model.embed(self.PREFIX_IDS))
        assert embedded == [d + e]  # each distinct passage once
        assert packed.lengths == [5, 3 + len(sep), 2, 1 + len(sep), 1, 3, 1]
        assert packed.parents == [-1, 0, 1, 0, 3, 1, 1]
        flat = self.PREFIX_IDS + d + sep + [10, 11] + e + sep + [12] + [13, 14, 15] + [16]
        np.testing.assert_array_equal(packed.embeddings.data, demo_model.embed(flat).data)
        # a question's first target is its passage's last separator row
        last_sep = 5 + 3 + len(sep) - 1
        assert packed.target_positions == [last_sep, 10, 14, last_sep, 16, 17, last_sep]
        assert packed.target_ids == [10, 11, 12, 13, 14, 15, 16]

    def test_passages_are_shared_only_if_equal_after_truncation(self, demo_model):
        room = demo_model.config.max_seq_len - 5  # rows after a 5-row prefix
        d = [4 + i % 40 for i in range(room)]
        # questions of 1 and 2 tokens keep different prefixes of d; the two 2-token ones share
        pairs = [(d, [10]), (d, [11, 12]), (d, [13, 14])]
        packed = assemble_segments(demo_model, pairs, demo_model.embed,
                                   demo_model.embed(self.PREFIX_IDS))
        assert packed.parents == [-1, 0, 1, 0, 3, 3]
        assert packed.lengths == [5, room - 1, 1, room - 2, 2, 2]  # every chain fills max_seq_len


class TestThetaExclusivity:
    def test_backward_reaches_only_theta(self, demo_model, params):
        from pspt.scoring import question_loglik

        params.adapter.B.data += 0.01
        with trainable(params.tensors().values()):
            loglik = T.tsum(question_loglik([[12, 13]], [[10, 11]], params, demo_model))
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
            assert not loaded.tensors()[name].requires_grad
        assert loaded.adapter.alpha == params.adapter.alpha
        assert loaded.soft_prompt.init_text == params.soft_prompt.init_text

    @pytest.mark.parametrize("r", [2, 0.5, True], ids=["2", "0.5", "true"])
    def test_meta_rank_other_than_the_width_of_A_rejected(self, params, tmp_path, r):
        # 2 would load with the adapter scaled by alpha/2, 0.5 as rank 0
        path = tmp_path / "theta.ckpt"
        save_params(params, path)
        ckpt = load_checkpoint_file(path)
        save_checkpoint_file(path, ckpt.buffers, meta={**ckpt.meta, "r": r})
        with pytest.raises(CheckpointError, match="adapter meta 'r'"):
            load_params(path)

    @pytest.mark.parametrize("field, value", [("alpha", True), ("alpha", "16"), ("alpha", " 1_6 "),
                                              ("hard_prompt", 5), ("hard_prompt", None)],
                             ids=["alpha-true", "alpha-string", "alpha-underscored-string",
                                  "hard-prompt-number", "hard-prompt-null"])
    def test_meta_alpha_not_a_number_or_hard_prompt_not_a_string_rejected(self, params, tmp_path,
                                                                         field, value):
        # true would load as alpha 1.0 and "16" as 16.0; 5 and null as the soft prompt's text
        path = tmp_path / "theta.ckpt"
        save_params(params, path)
        ckpt = load_checkpoint_file(path)
        save_checkpoint_file(path, ckpt.buffers, meta={**ckpt.meta, field: value})
        with pytest.raises(CheckpointError, match=f"adapter meta '{field}'"):
            load_params(path)

    def test_copy_is_independent(self, params):
        dup = params.astype(params.soft_prompt.e1.dtype)
        dup.soft_prompt.e1.data[:] = 0.0
        assert not np.array_equal(dup.soft_prompt.e1.data, params.soft_prompt.e1.data)
