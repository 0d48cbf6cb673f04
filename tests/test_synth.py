"""Synthetic dataset builder invariants."""

import pytest

from pspt.errors import ConfigError
from pspt.evaluation import save_dataset, load_dataset
from pspt.model import Vocabulary, tokenize_text
from pspt.synth import (
    SynthConfig,
    build_synthetic_dataset,
    main,
    pack_sequences,
    pretraining_texts,
    split_dataset,
)


@pytest.fixture(scope="module")
def dataset():
    return build_synthetic_dataset(SynthConfig(n_questions=120, n_topics=12,
                                               n_bridge_words=8, seed=5))


class TestBuilder:
    def test_question_count(self, dataset):
        assert len(dataset.questions) == 120

    def test_deterministic(self, dataset, tmp_path):
        again = build_synthetic_dataset(SynthConfig(n_questions=120, n_topics=12,
                                                    n_bridge_words=8, seed=5))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(dataset, a)
        save_dataset(again, b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, dataset):
        other = build_synthetic_dataset(SynthConfig(n_questions=120, n_topics=12,
                                                    n_bridge_words=8, seed=6))
        assert any(q1.text != q2.text or q1.passages != q2.passages
                   for q1, q2 in zip(dataset.questions, other.questions))

    def test_exactly_one_relevant_per_question(self, dataset):
        for q in dataset.questions:
            assert sum(p.relevant for p in q.passages) == 1
            assert len(q.passages) == 14

    def test_positive_shares_a_content_token_with_question(self, dataset):
        for q in dataset.questions:
            positive = next(p for p in q.passages if p.relevant)
            shared = set(tokenize_text(q.text)) & set(tokenize_text(positive.text))
            assert shared, q.question_id

    def test_negatives_are_other_questions_positives(self, dataset):
        positive_of = {q.question_id: next(p for p in q.passages if p.relevant).passage_id
                       for q in dataset.questions}
        all_positive_ids = set(positive_of.values())
        for q in dataset.questions:
            for p in q.passages:
                if not p.relevant:
                    assert p.passage_id in all_positive_ids
                    assert p.passage_id != positive_of[q.question_id]

    def test_roundtrips_through_jsonl(self, dataset, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(dataset)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            build_synthetic_dataset(SynthConfig(n_questions=20, n_bridge_words=30))


class TestSplit:
    def test_partition(self, dataset):
        train, rest = split_dataset(dataset, 90)
        assert len(train) == 90 and len(rest) == 30
        assert not set(q.question_id for q in train.questions) & set(
            q.question_id for q in rest.questions)

    def test_bad_split_point(self, dataset):
        with pytest.raises(ConfigError):
            split_dataset(dataset, 0)
        with pytest.raises(ConfigError):
            split_dataset(dataset, 120)


class TestPacking:
    def test_sequences_have_target_length(self, dataset):
        vocab = Vocabulary.from_texts(dataset.texts())
        units = [vocab.encode(t) for t in pretraining_texts(dataset)]
        packed = pack_sequences(units, target_len=64, seed=1, n_sequences=20)
        assert len(packed) == 20
        assert all(len(s) == 64 for s in packed)

    def test_packing_deterministic(self, dataset):
        vocab = Vocabulary.from_texts(dataset.texts())
        units = [vocab.encode(t) for t in pretraining_texts(dataset)]
        assert pack_sequences(units, 50, seed=2) == pack_sequences(units, 50, seed=2)

    def test_pretraining_texts_cover_positives(self, dataset):
        texts = pretraining_texts(dataset)
        assert len(texts) == len(dataset.questions)
        assert all("question :" in t for t in texts)


class TestMain:
    """`python -m pspt.synth` ends in the pspt CLI's exit codes, not a traceback."""

    def test_unreachable_config_is_exit_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "d.jsonl"), "--questions", "120"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_1_is_exit_1_before_writing(self, tmp_path, capsys, k):
        out = tmp_path / "d.jsonl"
        assert main([str(out), "--bm25-run", str(tmp_path / "b.run"), "--k", k]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_exit_2(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("data error:")
