"""Synthetic dataset builder invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspt import tensor as T
from pspt.errors import ConfigError, DataError
from pspt.evaluation import Passage, QaDataset, Question, save_dataset, load_dataset
from pspt.model import Vocabulary, tokenize_text
from pspt.synth import (
    CONFUSER_MAX,
    CONFUSER_MIN,
    N_FILLER_WORDS,
    PASSAGE_WORDS_PER_TOPIC,
    POOL_SIZE,
    QUESTION_WORDS_PER_TOPIC,
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

    @pytest.mark.parametrize("fields", [
        dict(n_topics=0), dict(n_topics=-1), dict(n_bridge_words=0), dict(n_bridge_words=-2),
        dict(n_bridge_words=1),
        dict(filler_tokens_min=5, filler_tokens_max=4), dict(filler_tokens_min=-1), dict(seed=-1),
    ], ids=["no-topics", "negative-topics", "no-bridges", "negative-bridges", "one-bridge",
            "filler-min-above-max", "negative-filler-min", "negative-seed"])
    def test_out_of_range_field_rejected(self, fields):
        # 120 questions over 8 bridges is valid, so each case fails on its own field;
        # one bridge word leaves no question an other-bridge negative
        with pytest.raises(ConfigError):
            build_synthetic_dataset(SynthConfig(**{"n_questions": 120, "n_bridge_words": 8,
                                                   **fields}))

    def test_empty_and_single_width_filler_ranges_accepted(self):
        for width in (0, 3):
            config = SynthConfig(n_questions=120, n_bridge_words=8, filler_tokens_min=width,
                                 filler_tokens_max=width)
            assert len(build_synthetic_dataset(config).questions) == 120


def reference_build(config: SynthConfig) -> QaDataset:
    """The builder as it was written first: each question scans every
    question for its other-bridge negatives and makes its own Passages."""
    rng = T.make_rng(config.seed, 40)
    topics = [([f"tp{k}x{j}" for j in range(PASSAGE_WORDS_PER_TOPIC)],
               [f"tq{k}x{j}" for j in range(QUESTION_WORDS_PER_TOPIC)])
              for k in range(config.n_topics)]
    bridges = [f"br{i}" for i in range(config.n_bridge_words)]
    fillers = [f"fl{i}" for i in range(N_FILLER_WORDS)]
    bridge_of = [bridges[i % config.n_bridge_words] for i in range(config.n_questions)]
    rng.shuffle(bridge_of)
    id_perm = rng.permutation(config.n_questions)
    question_texts, positive_texts, positive_ids = [], [], []
    for i in range(config.n_questions):
        passage_words, question_words = topics[i % config.n_topics]
        bridge = bridge_of[i]
        question_texts.append("find " + " ".join(question_words) + f" near {bridge}")
        n_fill = int(rng.integers(config.filler_tokens_min, config.filler_tokens_max + 1))
        body = list(passage_words) + [bridge]
        body += [fillers[int(j)] for j in rng.integers(0, N_FILLER_WORDS, size=n_fill)]
        rng.shuffle(body)
        positive_texts.append(" ".join(body))
        positive_ids.append(f"d{int(id_perm[i]):04d}")
    questions = []
    for i in range(config.n_questions):
        same_bridge = [j for j in range(config.n_questions)
                       if j != i and bridge_of[j] == bridge_of[i]]
        n_confusers = min(int(rng.integers(CONFUSER_MIN, CONFUSER_MAX + 1)), len(same_bridge))
        confusers = [same_bridge[int(j)] for j in
                     rng.choice(len(same_bridge), size=n_confusers, replace=False)]
        others = [j for j in range(config.n_questions)
                  if j != i and bridge_of[j] != bridge_of[i]]
        rest = [others[int(j)] for j in
                rng.choice(len(others), size=POOL_SIZE - 1 - n_confusers, replace=False)]
        passages = [Passage(positive_ids[i], positive_texts[i], True)]
        passages += [Passage(positive_ids[j], positive_texts[j], False)
                     for j in confusers + rest]
        questions.append(Question(f"q{i:04d}", question_texts[i], passages))
    return QaDataset(questions)


@st.composite
def synth_configs(draw):
    n_bridge_words = draw(st.integers(2, 5))
    low = draw(st.integers(0, 6))
    return SynthConfig(
        # more than CONFUSER_MAX questions per bridge word, as SynthConfig requires
        n_questions=draw(st.integers((CONFUSER_MAX + 1) * n_bridge_words,
                                     (CONFUSER_MAX + 1) * n_bridge_words + 30)),
        n_topics=draw(st.integers(1, 12)), n_bridge_words=n_bridge_words,
        filler_tokens_min=low, filler_tokens_max=low + draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 2**16)))


@settings(database=None, deadline=None, max_examples=40)
@given(synth_configs())
def test_builder_equals_the_per_question_scan(config):
    assert build_synthetic_dataset(config).questions == reference_build(config).questions


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
        n = max(1, len(units))
        assert pack_sequences(units, 50, seed=2, n_sequences=n) == pack_sequences(
            units, 50, seed=2, n_sequences=n)

    @pytest.mark.parametrize("units", [[], [[]], [[], []]])
    def test_no_token_to_pack_is_data_error(self, units):
        with pytest.raises(DataError, match="no unit to pack holds a token"):
            pack_sequences(units, 5, seed=0, n_sequences=max(1, len(units)))

    def test_target_len_below_1_is_config_error(self):
        with pytest.raises(ConfigError, match="target_len must be at least 1, got 0"):
            pack_sequences([[4, 5]], target_len=0, seed=0, n_sequences=1)

    def test_n_sequences_below_1_is_config_error(self):
        with pytest.raises(ConfigError, match="n_sequences must be at least 1, got 0"):
            pack_sequences([[4, 5]], target_len=5, seed=0, n_sequences=0)

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

    def test_negative_seed_is_exit_1_before_writing(self, tmp_path, capsys):
        assert main([str(tmp_path / "d.jsonl"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: seed must be non-negative")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", ["0", "400"])
    def test_train_size_outside_the_dataset_is_exit_1_before_writing(self, tmp_path, capsys,
                                                                      size):
        out = tmp_path / "d.jsonl"
        assert main([str(out), "--train-split", str(tmp_path / "t.jsonl"),
                     "--train-size", size]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["d.jsonl", "--bogus"], "unrecognized arguments: --bogus"),
        (["d.jsonl", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        ([], "the following arguments are required: out"),
    ], ids=["unknown-flag", "bad-int", "no-out"])
    def test_usage_error_is_exit_1_before_writing(self, tmp_path, capsys, monkeypatch, argv,
                                                   message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m pspt.synth")
        assert f"config error: python -m pspt.synth: {message}" in err
        assert list(tmp_path.iterdir()) == []

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: python -m pspt.synth")

    def test_unwritable_output_is_exit_2(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("data error:")
