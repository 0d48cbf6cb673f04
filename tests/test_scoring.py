"""Question-likelihood scores, UPR baselines, and reranking."""

import numpy as np
import pytest

from pspt import scoring
from pspt import tensor as T
from pspt.adapter import assemble_input, init_pspt_params, load_params, save_params
from pspt.errors import ConfigError, ContractError, InputError
from pspt.model import MicroLM, ModelConfig, Vocabulary
from pspt.optim import trainable
from pspt.scoring import (
    DEFAULT_UPR_PROMPT,
    Candidate,
    hard_prompt_loglik,
    make_pspt_scorer,
    make_upr_scorer,
    question_loglik,
    rerank,
    rerank_with_scores,
    score_pspt,
    score_upr,
)


@pytest.fixture(scope="module")
def uniform_model():
    """Zeroed embedding table makes every output row exactly uniform."""
    vocab = Vocabulary([f"w{i}" for i in range(96)])  # |V| = 100 with reserved ids
    config = ModelConfig(vocab_size=100, dim=16, n_layers=1, n_heads=2, max_seq_len=64)
    model = MicroLM.init(config, vocab, seed=0)
    model.params["tok_emb"].data[:] = 0.0
    return model


@pytest.fixture
def params(demo_model):
    return init_pspt_params(demo_model, soft_prompt_len=6, rank=1, alpha=16.0, seed=9)


def instructed_prompt(example_passage, example_question):
    """UPR-Inst's prompt: the UPR prompt, then one example passage and question."""
    return f"{DEFAULT_UPR_PROMPT} {example_passage} question : {example_question}"


def candidates(n):
    return [Candidate(f"d{i}", f"passage w{i}", i + 1, float(n - i)) for i in range(n)]


class TestScorePspt:
    def test_uniform_model_value(self, uniform_model):
        params = init_pspt_params(uniform_model, hard_prompt="w0", soft_prompt_len=4, seed=1)
        got = score_pspt([5, 6, 7], [8, 9], params, uniform_model)
        np.testing.assert_allclose(got, 3 * np.log(1 / 100), atol=1e-4)

    def test_fresh_adapter_matches_hard_prompt_score(self, demo_model):
        text = "please generate question for this passage"
        ids = demo_model.vocab.encode(text)
        params = init_pspt_params(demo_model, hard_prompt=text, soft_prompt_len=len(ids), seed=2)
        q = demo_model.vocab.encode("w1 w2 w3")
        d = demo_model.vocab.encode("w7 w8 w9 w10")
        pspt = score_pspt(q, d, params, demo_model)
        upr = score_upr(q, d, demo_model, prompt_text=text)
        assert abs(pspt - upr) < 1e-5

    def test_matches_per_token_gather_oracle(self, demo_model, params):
        rng = T.make_rng(3)
        params.adapter.A.data = rng.normal(0, 0.1, params.adapter.A.shape).astype(np.float32)
        params.adapter.B.data = rng.normal(0, 0.1, params.adapter.B.shape).astype(np.float32)
        q = [10, 11, 12]
        d = [20, 21]
        asm = assemble_input(params, d, q, demo_model)
        rows = demo_model.forward_logprobs(asm.embeddings).data
        expected = sum(rows[pos, tok] for pos, tok in zip(asm.target_positions, asm.target_ids))
        got = score_pspt(q, d, params, demo_model)
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_mean_mode_divides_by_question_length(self, demo_model, params):
        q, d = "w10 w11 w12 w13", "w20 w21"
        s_sum = make_pspt_scorer(demo_model, params, mode="sum")(q, d)
        s_mean = make_pspt_scorer(demo_model, params, mode="mean")(q, d)
        np.testing.assert_allclose(s_mean, s_sum / 4, rtol=1e-7)

    def test_sum_scores_non_positive(self, demo_model, params):
        rng = T.make_rng(15)
        for _ in range(10):
            q = [int(i) for i in rng.integers(4, 40, size=rng.integers(1, 6))]
            d = [int(i) for i in rng.integers(4, 40, size=rng.integers(0, 8))]
            assert score_pspt(q, d, params, demo_model) <= 0

    def test_empty_question_rejected(self, demo_model, params):
        with pytest.raises(ContractError):
            score_pspt([], [4], params, demo_model)

    def test_bad_mode_rejected(self, demo_model, params):
        with pytest.raises(ConfigError):
            make_pspt_scorer(demo_model, params, mode="median")


class TestScoreUpr:
    def test_uniform_model_independent_of_prompt(self, uniform_model):
        for prompt in ("w0", "w1 w2 w3"):
            got = score_upr([5, 6, 7], [8], uniform_model, prompt_text=prompt)
            np.testing.assert_allclose(got, 3 * np.log(1 / 100), atol=1e-4)

    def test_instructed_variant_differs_and_matches_oracle(self, demo_model):
        q = demo_model.vocab.encode("w1 w2")
        d = demo_model.vocab.encode("w7 w8")
        plain = score_upr(q, d, demo_model)
        inst = score_upr(q, d, demo_model, prompt_text=instructed_prompt("w9 w10", "w3 w4"))
        assert plain != inst
        # oracle: rebuild the instructed input by hand from frozen blocks
        ex_q = demo_model.vocab.encode("w3 w4")
        ex_d = demo_model.vocab.encode("w9 w10")
        sep = demo_model.vocab.encode("question :")
        prompt = demo_model.vocab.encode("Please generate question for this passage:")
        blocks = [prompt, ex_d, sep, ex_q, d, sep, q]
        flat = [tok for block in blocks for tok in block]
        rows = demo_model.forward_logprobs(demo_model.embed(flat)).data
        q_start = len(flat) - len(q)
        expected = sum(rows[q_start - 1 + i, tok] for i, tok in enumerate(q))
        np.testing.assert_allclose(inst, expected, rtol=1e-6)

    def test_empty_prompt_rejected(self, demo_model):
        with pytest.raises(ConfigError):
            score_upr([4], [5], demo_model, prompt_text="  ")


class TestBatchedScoring:
    """One call over a passage list equals each passage scored alone."""

    def passages(self):
        rng = T.make_rng(43)
        return [[int(i) for i in rng.integers(8, 50, size=n)] for n in (0, 1, 5, 12, 3, 30)]

    def check(self, loglik, dtype):
        q = [10, 11, 12]
        together = loglik([q] * len(self.passages()), self.passages()).data
        alone = np.array([loglik([q], [d]).data[0] for d in self.passages()])
        assert together.dtype == dtype and together.shape == (len(self.passages()),)
        if dtype == np.float64:
            np.testing.assert_allclose(together, alone, rtol=0, atol=1e-10)
        else:
            assert np.all(np.abs(together - alone) <= 1e-5 * np.abs(alone) + 1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pspt_list_equals_alone(self, demo_model, params, dtype):
        model, theta = demo_model.astype(dtype), params.astype(dtype)
        theta.adapter.B.data = T.make_rng(44).normal(0, 0.1, theta.adapter.B.shape).astype(dtype)
        self.check(lambda q, ds: question_loglik(q, ds, theta, model), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("example", [None, ("w22 w23 w24", "w20 w21")])
    def test_upr_list_equals_alone(self, demo_model, dtype, example):
        model = demo_model.astype(dtype)
        prompt = DEFAULT_UPR_PROMPT if example is None else instructed_prompt(*example)
        self.check(lambda q, ds: hard_prompt_loglik(q, ds, model, prompt), dtype)

    def test_scorer_score_many_matches_call(self, demo_model, params):
        texts = ["w1 w2 w3", "w4", "w5 w6 w7 w8 w9 w10 w11", "w12 w13"]
        for scorer in (make_upr_scorer(demo_model), make_pspt_scorer(demo_model, params),
                       make_upr_scorer(demo_model, mode="mean")):
            many = scorer.score_many("w1 w2", texts)
            one = [scorer("w1 w2", t) for t in texts]
            np.testing.assert_allclose(many, one, rtol=1e-5, atol=1e-6)

    def test_small_row_budget_splits_the_list_without_changing_scores(
            self, demo_model, params, monkeypatch):
        texts = [" ".join(f"w{i + j}" for j in range(6)) for i in range(7)]
        # a segment is 6 passage + 2 separator + 2 question rows; the budget
        # fits two segments per forward
        segment_rows = 6 + 2 + 2
        for scorer, name, fn in (
                (make_upr_scorer(demo_model), "hard_prompt_loglik", hard_prompt_loglik),
                (make_pspt_scorer(demo_model, params), "question_loglik", question_loglik)):
            whole = scorer.score_many("w1 w2", texts)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(scoring, "MAX_PACKED_ROWS", 2 * segment_rows + 1)
                patch.setattr(scoring, name,
                              lambda q, ds, *a: calls.append(len(ds)) or fn(q, ds, *a))
                np.testing.assert_allclose(scorer.score_many("w1 w2", texts), whole, rtol=1e-5)
            assert calls == [2, 2, 2, 1], name

    def test_passages_must_be_id_lists(self, demo_model, params):
        with pytest.raises(ContractError):
            question_loglik([[10]], [], params, demo_model)
        with pytest.raises(ContractError):
            question_loglik([[10]] * 2, [20, 21], params, demo_model)


class PairsEqualAlone:
    """One packed call over the (passage, question) pairs of `pairs()`
    equals each pair scored alone, within a relative bound: GEMM blocking
    may differ with the padded question width."""

    def check(self, loglik, dtype, tol):
        passages, questions = self.pairs()
        together = loglik(questions, passages).data
        alone = np.array([loglik([q], [d]).data[0] for d, q in zip(passages, questions)])
        assert together.dtype == dtype and together.shape == alone.shape
        assert np.all(np.abs(together - alone) <= tol * np.maximum(1.0, np.abs(alone)))

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_pspt_pairs_equal_alone(self, demo_model, params, dtype, tol):
        model, theta = demo_model.astype(dtype), params.astype(dtype)
        theta.adapter.B.data = T.make_rng(48).normal(0, 0.1, theta.adapter.B.shape).astype(dtype)
        self.check(lambda q, ds: question_loglik(q, ds, theta, model), dtype, tol)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_hard_prompt_pairs_equal_alone(self, demo_model, dtype, tol):
        model = demo_model.astype(dtype)
        self.check(lambda q, ds: hard_prompt_loglik(q, ds, model, DEFAULT_UPR_PROMPT), dtype, tol)


class TestMultiQuestionPacking(PairsEqualAlone):
    """Passages under different questions."""

    def pairs(self):
        rng = T.make_rng(47)
        passages = [[int(i) for i in rng.integers(8, 50, size=m)] for m in (0, 3, 12, 5, 1, 20)]
        questions = [[int(i) for i in rng.integers(8, 50, size=n)] for n in (2, 5, 3, 4, 2, 5)]
        return passages, questions

    def test_question_count_must_match_passages(self, demo_model, params):
        with pytest.raises(ValueError):
            question_loglik([[10, 11], [12]], [[20], [21], [22]], params, demo_model)


class TestSharedPassagePacking(PairsEqualAlone):
    """Pairs that repeat passages under questions of different lengths: a
    repeated passage is encoded once, as a segment that those questions
    continue."""

    def pairs(self):
        rng = T.make_rng(49)
        distinct = [[int(i) for i in rng.integers(8, 50, size=m)] for m in (6, 0, 11, 3)]
        # passage 0 under three questions, passages 1 and 2 under two each, passage 3 once
        which, lengths = [0, 2, 0, 1, 3, 0, 2, 1], [2, 4, 5, 3, 2, 3, 1, 2]
        questions = [[int(i) for i in rng.integers(8, 50, size=n)] for n in lengths]
        return [distinct[i] for i in which], questions

    def test_each_distinct_passage_is_encoded_once(self, demo_model, params, monkeypatch):
        passages, questions = self.pairs()
        embedded, rows = [], []
        embed, forward = scoring.adapter.passage_embedding, demo_model.forward_logprobs
        monkeypatch.setattr(scoring.adapter, "passage_embedding",
                            lambda ids, *a: embedded.append(list(ids)) or embed(ids, *a))
        monkeypatch.setattr(demo_model, "forward_logprobs",
                            lambda x, *a: rows.append(x.shape[0]) or forward(x, *a))
        question_loglik(questions, passages, params, demo_model)
        distinct = list(dict.fromkeys(map(tuple, passages)))
        assert embedded == [[t for d in distinct for t in d]]
        # one forward: the prompt, each distinct passage and a separator once, then every question
        sep = len(demo_model.vocab.encode(scoring.adapter.SEPARATOR_TEXT))
        assert rows == [params.soft_prompt.length + sum(len(d) + sep for d in distinct)
                        + sum(map(len, questions))]


class TestSharedPassageNearMaxSeqLen(PairsEqualAlone):
    """A repeated passage too long to keep whole: questions of different
    lengths keep different prefixes of it, which are not shared, and
    questions of one length share the prefix they keep."""

    def pairs(self):
        rng = T.make_rng(53)
        long = [[int(i) for i in rng.integers(8, 50, size=m)] for m in (95, 90)]
        which, lengths = [0, 0, 1, 0, 1, 0], [3, 7, 2, 3, 5, 1]
        questions = [[int(i) for i in rng.integers(8, 50, size=n)] for n in lengths]
        return [long[i] for i in which], questions


class TestRerank:
    def test_single_candidate_unchanged(self, demo_model):
        cands = candidates(1)
        out = rerank("w1", cands, lambda q, d: -1.0)
        assert out == cands

    def test_equal_scores_keep_retriever_order(self):
        cands = candidates(5)
        out = rerank("w1", cands, lambda q, d: -3.5)
        assert [c.passage_id for c in out] == [c.passage_id for c in cands]

    def test_distinct_scores_match_sort_oracle(self):
        cands = candidates(5)
        values = {"d0": -4.0, "d1": -1.0, "d2": -9.0, "d3": -0.5, "d4": -2.0}
        out = rerank("w1", cands, lambda q, d: values[d.split()[1].replace("w", "d")])

        def oracle(cs):
            return [c for c, _ in sorted(((c, values[c.passage_id]) for c in cs),
                                         key=lambda p: (-p[1], p[0].retriever_rank))]

        assert out == oracle(cands)

    def test_output_is_permutation(self):
        cands = candidates(7)
        out = rerank("w1", cands, lambda q, d: float(hash(d) % 13))
        assert sorted(c.passage_id for c in out) == sorted(c.passage_id for c in cands)

    def test_constant_shift_preserves_permutation(self):
        cands = candidates(6)
        base = {c.passage_id: -float(i * i % 7) for i, c in enumerate(cands)}

        def scorer_at(shift):
            return lambda q, d: base[d.split()[1].replace("w", "d")] + shift

        assert rerank("w1", cands, scorer_at(0.0)) == rerank("w1", cands, scorer_at(5.0))

    def test_duplicate_id_rejected(self):
        cands = candidates(3) + [Candidate("d1", "dup", 9, 0.0)]
        with pytest.raises(InputError):
            rerank("w1", cands, lambda q, d: 0.0)

    def test_empty_list_rejected(self):
        with pytest.raises(InputError):
            rerank("w1", [], lambda q, d: 0.0)

    def test_list_scorer_gets_the_whole_list_in_one_call(self):
        class ListOnly:
            calls = []

            def score_many(self, question, texts):
                self.calls.append(list(texts))
                return [-float(len(t)) for t in texts]

            def __call__(self, question, text):
                raise AssertionError("scored one candidate at a time")

        scorer = ListOnly()
        out = rerank_with_scores("w1", candidates(4), scorer)
        assert scorer.calls == [[c.text for c in candidates(4)]]
        assert [s for _, s in out] == sorted((-float(len(c.text)) for c in candidates(4)),
                                             reverse=True)

    def test_deterministic_given_same_inputs(self, demo_model):
        scorer = make_upr_scorer(demo_model)
        cands = [Candidate(f"d{i}", f"w{i} w{i + 3}", i + 1, 0.0) for i in range(5)]
        assert rerank("w1 w2", cands, scorer) == rerank("w1 w2", cands, scorer)


class TestGraphFreeScoring:
    """Parameters are frozen unless `trainable` unfreezes them, so scoring
    with loaded parameters records no backward graph."""

    QUESTIONS, PASSAGES = [[12, 13, 14]] * 3, [[10, 11], [15], [16, 17, 18, 19]]

    @pytest.fixture
    def loaded(self, params, tmp_path):
        params.adapter.B.data = T.make_rng(83).normal(0, 0.05, params.adapter.B.shape).astype(np.float32)
        save_params(params, tmp_path / "theta.ckpt")
        return load_params(tmp_path / "theta.ckpt")

    def test_loaded_params_score_without_graph(self, demo_model, loaded):
        scores = question_loglik(self.QUESTIONS, self.PASSAGES, loaded, demo_model)
        assert not scores.requires_grad
        assert scores._parents == () and scores._backward is None

    def test_scores_bitwise_equal_to_those_inside_trainable(self, demo_model, loaded):
        free = question_loglik(self.QUESTIONS, self.PASSAGES, loaded, demo_model)
        with trainable(loaded.tensors().values()):
            graphed = question_loglik(self.QUESTIONS, self.PASSAGES, loaded, demo_model)
            assert graphed.requires_grad
        assert free.data.dtype == graphed.data.dtype
        assert free.data.tobytes() == graphed.data.tobytes()
