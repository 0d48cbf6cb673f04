"""Tokenizer, micro LM forward pass, pretraining, and checkpoint round trips."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspt import tensor as T
from pspt.adapter import init_pspt_params
from pspt.checkpoint import (
    atomic_open,
    load_checkpoint_file,
    load_model,
    save_checkpoint_file,
    save_model,
)
from pspt.evaluation import RetrievalRun, RunEntry, write_run_file
from pspt.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    SequenceLengthError,
    ShapeError,
    VocabularyError,
)
from pspt.model import (
    MAX_PARAMETERS,
    UNK_ID,
    MicroLM,
    ModelConfig,
    Vocabulary,
    _mean_sequence_nll,
    continue_pretraining,
    holdout_split,
    param_shapes,
    tokenize_text,
)
from pspt.optim import trainable
from pspt.scoring import question_loglik, score_pspt
from pspt.training import write_train_log


@pytest.fixture(scope="module")
def tiny_model():
    vocab = Vocabulary([f"w{i}" for i in range(28)])
    config = ModelConfig(vocab_size=len(vocab), dim=32, n_layers=2, n_heads=4, max_seq_len=16)
    return MicroLM.init(config, vocab, seed=5)


class TestTokenizer:
    def test_empty_text(self):
        assert tokenize_text("") == []

    def test_words_and_punctuation(self):
        vocab = Vocabulary(["the", "cat", "sat", "."])
        assert vocab.encode("The cat sat.") == [
            vocab.id_of("the"),
            vocab.id_of("cat"),
            vocab.id_of("sat"),
            vocab.id_of("."),
        ]

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary(["the"])
        assert vocab.encode("zzzunknownzzz") == [UNK_ID]

    def test_from_texts_ranked_by_frequency_then_lexicographic(self):
        vocab = Vocabulary.from_texts(["b b a a c"], cap=7)
        assert vocab.tokens == ["a", "b", "c"]

    def test_cap_respected(self):
        vocab = Vocabulary.from_texts(["a b c d e f"], cap=6)
        assert len(vocab) == 6

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ConfigError):
            Vocabulary(["x", "x"])


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, dim=30, n_heads=4)

    def test_vocab_floor(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=3)

    @pytest.mark.parametrize("fields", [{}, {"dim": 12, "n_heads": 3, "ffn_mult": 1},
                                        {"n_layers": 3, "max_seq_len": 7}])
    def test_param_count_sums_param_shapes(self, fields):
        config = ModelConfig(vocab_size=40, **fields)
        assert config.param_count == sum(int(np.prod(s)) for s in param_shapes(config).values())

    def test_param_shapes_keep_the_init_draw_order(self):
        assert list(param_shapes(ModelConfig(vocab_size=8, n_layers=1))) == [
            "tok_emb", "pos_emb",
            "layers.0.ln1.gamma", "layers.0.ln1.beta",
            "layers.0.attn.wq", "layers.0.attn.wk", "layers.0.attn.wv", "layers.0.attn.wo",
            "layers.0.ln2.gamma", "layers.0.ln2.beta",
            "layers.0.ffn.w1", "layers.0.ffn.b1", "layers.0.ffn.w2", "layers.0.ffn.b2",
            "ln_f.gamma", "ln_f.beta"]

    def test_more_than_max_parameters_rejected(self):
        base = ModelConfig(vocab_size=4).param_count
        largest = 4 + (MAX_PARAMETERS - base) // 128  # each token adds one row of dim 128
        assert ModelConfig(vocab_size=largest).param_count <= MAX_PARAMETERS
        with pytest.raises(ConfigError, match="exceeds the limit"):
            ModelConfig(vocab_size=largest + 1)


class TestEmbed:
    def test_empty_ids(self, tiny_model):
        out = tiny_model.embed([])
        assert out.shape == (0, 32)

    def test_repeated_id_gives_identical_rows(self, tiny_model):
        out = tiny_model.embed([5, 5])
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_rows_match_direct_table_lookup(self, tiny_model):
        ids = [3, 7, 0, 27]
        out = tiny_model.embed(ids)
        table = tiny_model.params["tok_emb"].data
        for row, i in zip(out.data, ids):
            np.testing.assert_array_equal(row, table[i])

    def test_out_of_range_id_rejected(self, tiny_model):
        with pytest.raises(VocabularyError):
            tiny_model.embed([len(tiny_model.vocab)])

    def test_output_not_trainable(self, tiny_model):
        assert tiny_model.embed([1, 2]).requires_grad is False

    def test_out_of_range_message_names_the_first_bad_id(self, tiny_model):
        with pytest.raises(VocabularyError, match="token id -1 outside vocabulary of size 32"):
            tiny_model.embed([3, -1, 99])

    def test_integer_arrays_of_any_width_accepted(self, tiny_model):
        for dtype in (np.int32, np.int64, np.uint8):
            np.testing.assert_array_equal(tiny_model.embed(np.array([3, 7], dtype=dtype)).data,
                                          tiny_model.embed([3, 7]).data)

    # a float must not be truncated to an id (5.9 to 5), nor a bool or a 0-d array read
    # as an int, also among ints, where numpy turns the list into int64
    @pytest.mark.parametrize("ids", [[5.9, 6.2], [[5.9, 6.2]], [True, False, True], [[1, 2], [3]],
                                     [[1, 2], [3, 4]], ["5"], 5, [True, 5], [5, 6, False],
                                     [np.True_, 5], (7, np.bool_(0)), [np.array(True), 5],
                                     [5, np.array(6)], [np.array([5]), 6]],
                             ids=["floats", "nested-floats", "bools", "ragged", "two-axes",
                                  "strings", "scalar", "bool-first", "bool-last", "numpy-bool",
                                  "bool-in-tuple", "0-d-bool-array", "0-d-int-array",
                                  "1-d-array-element"])
    def test_non_integer_ids_rejected(self, tiny_model, ids):
        with pytest.raises(VocabularyError, match="one axis of integers"):
            tiny_model.embed(ids)

    def test_numpy_integer_scalars_accepted(self, tiny_model):
        ids = [np.int32(3), np.int64(7), 0, np.uint8(27)]
        np.testing.assert_array_equal(tiny_model.embed(ids).data,
                                      tiny_model.embed([3, 7, 0, 27]).data)


def reference_forward(model, x):
    """Independent plain-numpy reimplementation of the forward pass."""
    cfg = model.config
    p = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    L = x.shape[0]
    h = x.astype(np.float64) + p["pos_emb"][:L]

    def ln(v, gamma, beta, eps=1e-5):
        out = np.empty_like(v)
        for i in range(v.shape[0]):
            mu = v[i].mean()
            var = v[i].var()
            out[i] = (v[i] - mu) / np.sqrt(var + eps) * gamma + beta
        return out

    dh = cfg.dim // cfg.n_heads
    for li in range(cfg.n_layers):
        pre = f"layers.{li}."
        a = ln(h, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
        q, k, v = a @ p[pre + "attn.wq"], a @ p[pre + "attn.wk"], a @ p[pre + "attn.wv"]
        merged = np.zeros_like(h)
        for j in range(cfg.n_heads):
            qj, kj, vj = (m[:, j * dh:(j + 1) * dh] for m in (q, k, v))
            for t in range(L):
                scores = np.array([qj[t] @ kj[s] / np.sqrt(dh) for s in range(t + 1)])
                w = np.exp(scores - scores.max())
                w /= w.sum()
                merged[t, j * dh:(j + 1) * dh] = sum(w[s] * vj[s] for s in range(t + 1))
        h = h + merged @ p[pre + "attn.wo"]
        a2 = ln(h, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
        h = h + np.maximum(a2 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"], 0.0) @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
    hf = ln(h, p["ln_f.gamma"], p["ln_f.beta"])
    logits = hf @ p["tok_emb"].T
    out = np.empty_like(logits)
    for i in range(L):
        row = logits[i] - logits[i].max()
        out[i] = row - np.log(np.exp(row).sum())
    return out


class TestForward:
    def test_matches_independent_reimplementation(self, tiny_model):
        rng = T.make_rng(99)
        x = rng.normal(0, 0.5, size=(6, 32)).astype(np.float32)
        got = tiny_model.forward_logprobs(T.Tensor(x)).data
        want = reference_forward(tiny_model, x)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_causality_perturbation(self, tiny_model):
        rng = T.make_rng(101)
        x = rng.normal(0, 0.5, size=(8, 32)).astype(np.float32)
        base = tiny_model.forward_logprobs(T.Tensor(x)).data
        for t in (3, 6):
            x2 = x.copy()
            x2[t] += 1.0
            moved = tiny_model.forward_logprobs(T.Tensor(x2)).data
            np.testing.assert_array_equal(moved[:t], base[:t])
            assert not np.array_equal(moved[t:], base[t:])

    def test_rows_are_log_distributions(self, tiny_model):
        rng = T.make_rng(103)
        x = rng.normal(size=(5, 32)).astype(np.float32)
        out = tiny_model.forward_logprobs(T.Tensor(x)).data.astype(np.float64)
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-5)

    def test_over_length_rejected(self, tiny_model):
        x = T.Tensor(np.zeros((17, 32), dtype=np.float32))
        with pytest.raises(SequenceLengthError):
            tiny_model.forward_logprobs(x)


class TestPackedForward:
    """Segments packed row-wise after a prefix segment that they continue
    equal full sequences."""

    def sequences(self, dtype, seed=111):
        rng = T.make_rng(seed)
        prefix = rng.normal(0, 0.5, size=(4, 32)).astype(dtype)
        segments = [rng.normal(0, 0.5, size=(n, 32)).astype(dtype) for n in (3, 7, 1, 5)]
        return prefix, segments

    def packed(self, model, prefix, segments, rows=None):
        """The segments' rows (or `rows`, counted from the first segment)
        with the prefix as root segment 0 and every segment continuing it."""
        x = T.Tensor(np.concatenate([prefix, *segments]))
        lengths = [len(prefix)] + [len(s) for s in segments]
        picked = np.arange(len(prefix), x.shape[0]) if rows is None else len(prefix) + rows
        return model.forward_logprobs(x, lengths, [-1] + [0] * len(segments), picked).data

    def test_prefix_split_equals_full_sequence(self, tiny_model):
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            model = tiny_model.astype(dtype)
            prefix, segments = self.sequences(dtype)
            full = np.concatenate([prefix, segments[1]])
            want = model.forward_logprobs(T.Tensor(full)).data[len(prefix):]
            got = self.packed(model, prefix, [segments[1]])
            np.testing.assert_allclose(got, want, atol=tol, rtol=0)

    def test_packed_segments_match_naive_per_head_reference(self, tiny_model):
        """float64 against the per-head, per-position numpy loop above."""
        model = tiny_model.astype(np.float64)
        prefix, segments = self.sequences(np.float64)
        got = self.packed(model, prefix, segments)
        start = 0
        for seg in segments:
            want = reference_forward(model, np.concatenate([prefix, seg]))[len(prefix):]
            np.testing.assert_allclose(got[start:start + len(seg)], want, atol=1e-10, rtol=0)
            start += len(seg)

    def test_segments_do_not_see_each_other(self, tiny_model):
        prefix, segments = self.sequences(np.float32)
        base = self.packed(tiny_model, prefix, segments)
        moved = [s.copy() for s in segments]
        moved[1] += 1.0
        out = self.packed(tiny_model, prefix, moved)
        np.testing.assert_array_equal(out[:3], base[:3])
        np.testing.assert_array_equal(out[10:], base[10:])
        assert not np.array_equal(out[3:10], base[3:10])

    def test_row_grid_selects_and_shapes_output(self, tiny_model):
        prefix, segments = self.sequences(np.float32)
        everything = self.packed(tiny_model, prefix, segments)
        rows = np.array([[0, 2], [5, 9], [10, 15]])
        got = self.packed(tiny_model, prefix, segments, rows)
        assert got.shape == (3, 2, tiny_model.config.vocab_size)
        np.testing.assert_allclose(got, everything[rows], atol=1e-6)

    def test_bad_lengths_and_over_length_rejected(self, tiny_model):
        prefix, segments = self.sequences(np.float32)
        x = T.Tensor(np.concatenate([prefix, *segments]))
        with pytest.raises(ShapeError):
            tiny_model.forward_logprobs(x, [4, 3, 7, 1, 4], [-1, 0, 0, 0, 0])
        long = T.Tensor(np.concatenate([prefix, np.zeros((13, 32), dtype=np.float32)]))
        with pytest.raises(SequenceLengthError):  # 4 prefix rows + 13 > max_seq_len 16
            tiny_model.forward_logprobs(long, [4, 13], [-1, 0])

    # the prefix, segments of 3, 7, 1 and 5 rows, and one more root of 6 rows:
    # 3 continues the prefix, 7 continues 3, 1 continues 7, 5 the prefix
    PARENTS = [-1, 0, 1, 2, 0, -1]

    def test_continued_segments_match_naive_reference_of_their_chains(self, tiny_model):
        """A segment that continues others equals the end of the full
        sequence of its ancestors and itself, and a root's positions start
        at 0 (float64)."""
        model = tiny_model.astype(np.float64)
        prefix, segments = self.sequences(np.float64)
        segments = [prefix, *segments, T.make_rng(112).normal(0, 0.5, size=(6, 32))]
        x = T.Tensor(np.concatenate(segments))
        got = model.forward_logprobs(x, [len(s) for s in segments], self.PARENTS).data
        starts = np.cumsum([0] + [len(s) for s in segments])
        for i, seg in enumerate(segments):
            chain, a = [seg], self.PARENTS[i]
            while a >= 0:
                chain.insert(0, segments[a])
                a = self.PARENTS[a]
            want = reference_forward(model, np.concatenate(chain))[-len(seg):]
            np.testing.assert_allclose(got[starts[i]:starts[i + 1]], want, atol=1e-10, rtol=0)

    def test_bad_parents_and_over_long_chain_rejected(self, tiny_model):
        prefix, segments = self.sequences(np.float32)
        x = T.Tensor(np.concatenate([prefix, *segments]))
        lengths = [4, 3, 7, 1, 5]
        for parents in ([-1, 0, 1, 2], [-1, 0, 2, 1, 1], [-1, 0, 1, 4, 1], [-1, -2, 0, 0, 0]):
            with pytest.raises(ShapeError):
                tiny_model.forward_logprobs(x, lengths, parents)
        # every segment fits alone after the 4 prefix rows; the chain 4 + 7 + 1 + 5 rows
        # is longer than max_seq_len 16
        with pytest.raises(SequenceLengthError, match="sequence length 17"):
            tiny_model.forward_logprobs(x, lengths, [-1, 0, 0, 2, 3])


    ROWS = {"1-D": [0, 4, 9, 14, 20, 25], "unsorted": [14, 3, 3, 25, 0],
            "2-D-padded": [[4, 5, 6, 6], [14, 15, 15, 15], [20, 21, 22, 23]],
            "empty": np.zeros(0, dtype=np.int64), "roots-unqueried": [7, 8, 9, 10, 11]}

    @pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
    def test_rows_equal_full_forward_gathered(self, tiny_model, rows):
        """The last layer computed for the requested rows only equals every
        row's distributions taken at them (float64)."""
        model = tiny_model.astype(np.float64)
        prefix, segments = self.sequences(np.float64)
        segments = [prefix, *segments, T.make_rng(112).normal(0, 0.5, size=(6, 32))]
        x = T.Tensor(np.concatenate(segments))
        lengths = [len(s) for s in segments]
        full = model.forward_logprobs(x, lengths, self.PARENTS).data
        got = model.forward_logprobs(x, lengths, self.PARENTS, rows).data
        assert got.shape == np.shape(rows) + (model.config.vocab_size,)
        np.testing.assert_allclose(got, full[np.asarray(rows, dtype=np.int64)], atol=1e-10, rtol=0)

    @pytest.mark.parametrize("rows", [[-1], [7], [[0, 1], [2]], [0.5], 2],
                             ids=["negative", "past-the-end", "ragged", "float", "scalar"])
    def test_bad_rows_rejected(self, tiny_model, rows):
        x = T.Tensor(np.zeros((4, 32), dtype=np.float32))
        with pytest.raises(ShapeError, match="rows"):
            tiny_model.forward_logprobs(x, rows=rows)

    def test_empty_rows_give_no_distributions(self, tiny_model):
        x = T.Tensor(np.zeros((4, 32), dtype=np.float32))
        assert tiny_model.forward_logprobs(x, rows=[]).shape == (0, tiny_model.config.vocab_size)


@st.composite
def packed_trees(draw):
    """Segments of 1-3 rows, each a root or continuing an earlier segment
    on a chain of at most 4 segments; and the rows to read: None (every
    row) or 1-12 drawn rows, repeated and unsorted, of one or two axes,
    drawn from the non-root segments alone if asked (unqueried roots)."""
    lengths, parents, depth = [], [], []
    for j in range(draw(st.integers(1, 8))):
        lengths.append(draw(st.integers(1, 3)))
        parents.append(draw(st.sampled_from([i for i in range(j) if depth[i] < 4] + [-1])))
        depth.append(1 if parents[j] < 0 else depth[parents[j]] + 1)
    starts = np.cumsum([0, *lengths])
    rows = None
    if draw(st.booleans()):
        skip_roots = draw(st.booleans()) and max(parents) >= 0
        pool = [r for j, p in enumerate(parents) if p >= 0 or not skip_roots
                for r in range(starts[j], starts[j + 1])]
        rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
        if draw(st.booleans()):
            rows = rows.reshape(-1, draw(st.sampled_from(
                [d for d in range(1, rows.size + 1) if rows.size % d == 0])))
    return lengths, parents, rows, draw(st.integers(0, 2**16))


def chain_rows(lengths, parents, j):
    """Rows of segment j's chain: each ancestor's, root first, then its own."""
    starts = np.cumsum([0, *lengths])
    chain = []
    while j >= 0:
        chain[:0] = range(starts[j], starts[j + 1])
        j = parents[j]
    return np.array(chain)


oracle = settings(database=None, deadline=None, derandomize=True, max_examples=100)


class TestRandomTreeOracle:
    """The packed forward, with its shared segments, last layer on read
    rows only and attention per group, equals each segment's chain run
    alone, forward and backward, on random trees and rows (float64)."""

    @oracle
    @given(case=packed_trees())
    def test_forward_equals_reference_over_each_chain(self, tiny_model, case):
        lengths, parents, rows, seed = case
        model = tiny_model.astype(np.float64)
        x = T.make_rng(seed).normal(0, 0.5, size=(sum(lengths), 32))
        want = np.concatenate([
            reference_forward(model, x[chain_rows(lengths, parents, j)])[-n:]
            for j, n in enumerate(lengths)])
        got = model.forward_logprobs(T.Tensor(x), lengths, parents, rows).data
        np.testing.assert_allclose(got, want if rows is None else want[rows], atol=1e-10, rtol=0)

    @oracle
    @given(case=packed_trees())
    def test_backward_equals_gradient_over_unpacked_chains(self, tiny_model, case):
        lengths, parents, rows, seed = case
        rng = T.make_rng(seed)
        x = rng.normal(0, 0.5, size=(sum(lengths), 32))
        packed, unpacked = tiny_model.astype(np.float64), tiny_model.astype(np.float64)
        with trainable(packed.params.values()), trainable(unpacked.params.values()):
            x_packed = T.Tensor(x, requires_grad=True)
            out = packed.forward_logprobs(x_packed, lengths, parents, rows)
            w = rng.normal(size=out.shape)
            T.backward(T.tsum(T.mul(out, w)))

            # the same functional, each read row taken from its segment's chain run alone
            x_unpacked = T.Tensor(x, requires_grad=True)
            read = np.arange(len(x)) if rows is None else rows.reshape(-1)
            w = w.reshape(read.size, -1)
            segment = np.repeat(np.arange(len(lengths)), lengths)[read]
            loss = T.Tensor(0.0, dtype=np.float64)
            for j in np.unique(segment):
                chain = chain_rows(lengths, parents, j)
                mine = np.flatnonzero(segment == j)
                logprobs = unpacked.forward_logprobs(T.gather_rows(x_unpacked, chain))
                picked = T.gather_rows(logprobs, np.searchsorted(chain, read[mine]))
                loss = T.add(loss, T.tsum(T.mul(picked, w[mine])))
            T.backward(loss)

            np.testing.assert_allclose(x_packed.grad, x_unpacked.grad, atol=1e-10, rtol=0)
            for name, p in packed.params.items():
                np.testing.assert_allclose(p.grad, unpacked.params[name].grad, atol=1e-10,
                                           rtol=0, err_msg=name)


class TestPrecision:
    """float32 is the working precision end to end; float64 only on request."""

    def test_float32_model_stays_float32(self, tiny_model):
        x = T.Tensor(T.make_rng(105).normal(size=(6, 32)).astype(np.float32))
        assert tiny_model.forward_logprobs(x).dtype == np.float32

    def test_float32_scores_stay_float32(self, tiny_model):
        params = init_pspt_params(tiny_model, hard_prompt="w0 w1", soft_prompt_len=4, seed=2)
        q, d = [5, 6, 7], [8, 9, 10, 11]
        assert question_loglik([q], [d], params, tiny_model).dtype == np.float32
        value = score_pspt(q, d, params, tiny_model)
        assert float(np.float32(value)) == value  # a float32 sum, not a float64 one

    def test_float64_model_stays_float64(self, tiny_model):
        model64 = tiny_model.astype(np.float64)
        x = T.Tensor(T.make_rng(107).normal(size=(6, 32)))
        assert model64.forward_logprobs(x).dtype == np.float64


def toy_corpus(vocab, n_sentences=50):
    rng = T.make_rng(7, 7)
    seqs = []
    for _ in range(n_sentences):
        length = int(rng.integers(4, 9))
        start = int(rng.integers(4, len(vocab) - length))
        seqs.append(list(range(start, start + length)))  # runs are predictable
    return seqs


def pretrain(corpus, config, vocab, seed, steps, **options):
    """A model as `pspt init-model` pretrains it: MicroLM.init, then
    continue_pretraining on the 90% train split of the corpus."""
    model = MicroLM.init(config, vocab, seed)
    continue_pretraining(model, holdout_split(corpus, seed)[0], seed, steps, **options)
    return model


class TestPretraining:
    def test_zero_steps_leaves_init_untouched(self, tiny_model):
        corpus = toy_corpus(tiny_model.vocab)
        fresh = pretrain(corpus, tiny_model.config, tiny_model.vocab, seed=5, steps=0)
        assert fresh.checksum() == MicroLM.init(tiny_model.config, tiny_model.vocab, 5).checksum()

    def test_heldout_cross_entropy_decreases(self, tiny_model):
        corpus = toy_corpus(tiny_model.vocab)
        cfg = tiny_model.config
        init = MicroLM.init(cfg, tiny_model.vocab, seed=11)
        trained = pretrain(corpus, cfg, tiny_model.vocab, seed=11, steps=300, batch_size=4)
        _, dev = holdout_split(corpus, seed=11)
        assert _mean_sequence_nll(trained, dev).item() < _mean_sequence_nll(init, dev).item()

    def test_deterministic_given_seed(self, tiny_model):
        corpus = toy_corpus(tiny_model.vocab)
        a = pretrain(corpus, tiny_model.config, tiny_model.vocab, seed=3, steps=20, batch_size=2)
        b = pretrain(corpus, tiny_model.config, tiny_model.vocab, seed=3, steps=20, batch_size=2)
        assert a.checksum() == b.checksum()

    def test_model_frozen_after_pretraining(self, tiny_model):
        corpus = toy_corpus(tiny_model.vocab)
        trained = pretrain(corpus, tiny_model.config, tiny_model.vocab, seed=3, steps=5, batch_size=2)
        assert all(not p.requires_grad for p in trained.params.values())
        assert all(p.grad is None for p in trained.params.values())

    def test_empty_corpus_rejected(self, tiny_model):
        with pytest.raises(DataError):
            pretrain([], tiny_model.config, tiny_model.vocab, seed=0, steps=1)

    @pytest.mark.parametrize("options", [{"batch_size": 0}, {"lr": float("nan")}, {"lr": 0.0},
                                         {"steps": -1}],
                             ids=["batch-size-0", "lr-NaN", "lr-0", "steps-negative"])
    def test_bad_option_is_config_error(self, tiny_model, options):
        model = MicroLM.init(tiny_model.config, tiny_model.vocab, seed=0)
        checksum = model.checksum()
        with pytest.raises(ConfigError, match="pretraining needs steps >= 0"):
            continue_pretraining(model, toy_corpus(tiny_model.vocab), seed=0,
                                 **{"steps": 2, **options})
        assert model.checksum() == checksum

    @pytest.mark.parametrize("options, got", [
        ({"steps": -1}, "-1, 8 and 0.001"),
        ({"steps": 0, "batch_size": 0}, "0, 0 and 0.001"),
        ({"steps": 0, "lr": float("nan")}, "0, 8 and nan"),
    ], ids=["steps-negative", "batch-size-0-at-0-steps", "lr-NaN-at-0-steps"])
    def test_pretrain_bad_option_is_config_error(self, tiny_model, options, got):
        with pytest.raises(ConfigError, match=re.escape(
                f"pretraining needs steps >= 0, batch_size >= 1 and lr > 0, got {got}")):
            pretrain(toy_corpus(tiny_model.vocab), tiny_model.config,
                     tiny_model.vocab, seed=0, **options)

    def test_sequence_longer_than_max_seq_len_is_rejected_not_cut(self, tiny_model):
        model = MicroLM.init(tiny_model.config, tiny_model.vocab, seed=0)
        checksum = model.checksum()
        too_long = list(range(4, 4 + tiny_model.config.max_seq_len + 1))
        with pytest.raises(SequenceLengthError, match="exceeds max_seq_len 16"):
            continue_pretraining(model, [too_long], seed=0, steps=1)
        assert model.checksum() == checksum


class TestAtomicWrites:
    """A write that fails partway leaves the old file as it was and no
    temporary file behind; one that succeeds replaces the file whole."""

    OLD = b"old contents\n"

    def failing_writes(self):
        def direct(path):
            with atomic_open(path, "wb") as f:
                f.write(b"new")
                raise RuntimeError("disk gone")

        def run_file(path):  # the second entry's score cannot be formatted
            entries = [RunEntry("d1", 1, 0.5), RunEntry("d2", 2, "high")]
            write_run_file(RetrievalRun("t", {"q1": entries}), path)

        def train_log(path):  # the second record cannot be serialized
            write_train_log([{"step": 0}, {"step": object()}], path)

        return {"direct": direct, "run_file": run_file, "train_log": train_log}

    @pytest.mark.parametrize("site", ["direct", "run_file", "train_log"])
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, site):
        path = tmp_path / "out"
        path.write_bytes(self.OLD)
        with pytest.raises((RuntimeError, ValueError, TypeError)):
            self.failing_writes()[site](path)
        assert path.read_bytes() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_successful_write_replaces_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(self.OLD)
        with atomic_open(path, "w", encoding="utf-8") as f:
            f.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_symlink_keeps_pointing_at_its_replaced_target(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(self.OLD)
        link.symlink_to(target.name)
        with atomic_open(link, "wb") as f:
            f.write(b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path, meta={"note": "fixture"})
        loaded = load_model(path)
        assert loaded.checksum() == tiny_model.checksum()
        assert loaded.vocab.tokens == tiny_model.vocab.tokens
        assert loaded.config == tiny_model.config

    def test_corrupted_magic(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_model(path)

    def test_version_mismatch_reported(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_model(path)

    def test_version_1_rejected_by_name(self, tiny_model, tmp_path):
        self.check_rejected_by_name(tiny_model, tmp_path, 1)

    def test_version_2_rejected_by_name(self, tiny_model, tmp_path):
        self.check_rejected_by_name(tiny_model, tmp_path, 2)

    def check_rejected_by_name(self, tiny_model, tmp_path, version):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_model(path)

    @pytest.mark.parametrize("where", [0, -1], ids=["first-buffer-byte", "last-byte"])
    def test_flipped_buffer_byte_fails_checksum(self, tiny_model, tmp_path, where):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path)
        raw = bytearray(path.read_bytes())
        (n,) = struct.unpack_from("<Q", raw, 8)
        raw[16 + n if where == 0 else where] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_model(path)

    def test_same_length_header_edit_fails_checksum(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path, meta={"note": "fixture"})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"note":"fixture"', b'"note":"fiXture"'))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_model(path)

    def test_digest_is_a_trailer_over_every_byte_before_it(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path)
        raw = path.read_bytes()
        assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()
        (n,) = struct.unpack_from("<Q", raw, 8)
        assert b"sha256" not in raw[16:16 + n]

    def test_truncation_names_buffer(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(path)

    def test_buffer_only_checkpoint(self, tmp_path):
        path = tmp_path / "theta.ckpt"
        buf = np.arange(6, dtype=np.float32).reshape(2, 3)
        save_checkpoint_file(path, {"pspt.e1": buf}, meta={"l_s": 2})
        ckpt = load_checkpoint_file(path)
        np.testing.assert_array_equal(ckpt.buffers["pspt.e1"], buf)
        assert ckpt.meta == {"l_s": 2}
        assert ckpt.config is None and ckpt.vocab is None


class TestFrozenInvariant:
    def test_checksum_insensitive_to_forward_passes(self, tiny_model):
        before = tiny_model.checksum()
        x = T.Tensor(np.zeros((4, 32), dtype=np.float32))
        tiny_model.forward_logprobs(x)
        assert tiny_model.checksum() == before

    def test_all_params_frozen_at_init(self, tiny_model):
        assert all(not p.requires_grad for p in tiny_model.params.values())
