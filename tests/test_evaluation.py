"""Dataset loading, BM25, ranking metrics, t-test, and report assembly."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspt import tensor as T
from pspt.errors import ContractError, DataError, InputError, ParseError
from pspt.evaluation import (
    Bm25Index,
    Passage,
    QaDataset,
    Question,
    RetrievalRun,
    RunEntry,
    bm25_run,
    evaluate,
    hit_at_k,
    load_dataset,
    paired_t_test,
    read_run_file,
    recall_at_k,
    save_dataset,
    student_t_two_sided_p,
    write_run_file,
)
from pspt.model import tokenize_text


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def make_record(qid, text, passages):
    return json.dumps({
        "question_id": qid,
        "question_text": text,
        "passages": [{"passage_id": p, "text": t, "relevant": r} for p, t, r in passages],
    })


class TestLoadDataset:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_single_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [make_record("q1", "what is it", [("p1", "it is this", True)])])
        ds = load_dataset(path)
        assert len(ds) == 1
        assert ds.by_id["q1"].passages[0].relevant

    def test_duplicate_passage_id_named(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [make_record("q1", "x", [("p1", "a", True), ("p1", "b", False)])])
        with pytest.raises(ParseError, match="p1"):
            load_dataset(path)

    def test_missing_field_reports_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        ok = make_record("q1", "x", [("p1", "a", True)])
        write_lines(path, [ok, json.dumps({"question_id": "q2", "passages": []})])
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("qid, pid", [("q 1", "p1"), ("", "p1"), ("q1", "p 1"),
                                          ("q1", ""), ("q1", "p\t1"), ("q1\u3000", "p1")])
    def test_id_a_run_line_cannot_hold_rejected(self, tmp_path, qid, pid):
        path = tmp_path / "d.jsonl"
        write_lines(path, [make_record("q0", "x", [("p0", "a", True)]),
                           make_record(qid, "x", [(pid, "a", True)])])
        with pytest.raises(ParseError, match="line 2: .* is empty or contains whitespace"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("question_id", None), ("question_id", True), ("question_id", 1.5),
        ("passage_id", None), ("passage_id", True), ("passage_id", ["p1"]),
        ("question_text", None), ("question_text", 3), ("text", None), ("text", ["a"])])
    def test_non_string_value_rejected_not_stringified(self, tmp_path, field, value):
        record = json.loads(make_record("q1", "x", [("p1", "a", True)]))
        (record["passages"][0] if field in ("passage_id", "text") else record)[field] = value
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps(record)])
        with pytest.raises(ParseError, match=f"line 1: .*{field}"):
            load_dataset(path)

    def test_integer_ids_read_as_their_digits(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"question_id": 7, "question_text": "x", "passages": [
            {"passage_id": 12, "text": "a", "relevant": True}]})])
        ds = load_dataset(path)
        assert ds.by_id["7"].passages[0].passage_id == "12"

    def test_passage_id_naming_two_texts_is_data_error(self):
        """rerank looks a passage up by id, so an id must name the text that
        BM25 retrieved and training saw under every question."""
        shared = Passage("x", "alpha beta", True)
        assert QaDataset([Question("q1", "a", [shared]),
                          Question("q2", "b", [shared])]).passage_text("x") == "alpha beta"
        with pytest.raises(DataError, match="passage id 'x' names two texts: question 'q2'"):
            QaDataset([Question("q1", "a", [shared]),
                       Question("q2", "b", [Passage("x", "totally different text", False)])])

    def test_roundtrip_through_save(self, tmp_path):
        ds = QaDataset([Question("q1", "hello", [Passage("p1", "world", True)])])
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again.by_id["q1"].text == "hello"


class TestBm25:
    # scores frozen from an independent hand computation of the formula
    # idf = ln(1 + (N - df + 0.5)/(df + 0.5)),
    # w = idf * tf (k1+1) / (tf + k1 (1 - b + b dl/avgdl)) with k1=0.9, b=0.4
    FIXTURE = {
        "d1": "the cat sat on the mat",
        "d2": "a dog barked at the cat",
        "d3": "cats and dogs play",
        "d4": "the mat was red",
        "d5": "blue green yellow",
    }
    EXPECTED = {
        "d1": 2.9661841459469938,
        "d2": 0.8277365604146564,
        "d3": 0.0,
        "d4": 0.8976533041380905,
        "d5": 0.0,
    }

    def test_fixture_scores_match_hand_computation(self):
        index = Bm25Index(self.FIXTURE.items())
        q = ["cat", "on", "mat"]
        for pid, expected in self.EXPECTED.items():
            assert abs(index.score(q, pid) - expected) < 1e-6

    def test_no_shared_terms_gives_zero_scores_in_id_order(self):
        index = Bm25Index([("b", "alpha beta"), ("a", "gamma delta"), ("c", "epsilon")])
        entries = index.top_k("zeta eta", 3)
        assert [e.passage_id for e in entries] == ["a", "b", "c"]
        assert all(e.score == 0.0 for e in entries)

    def test_single_passage_pool(self):
        index = Bm25Index([("only", "some text here")])
        entries = index.top_k("text", 5)
        assert entries == [RunEntry("only", 1, entries[0].score)]

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            Bm25Index([])

    def test_retrieve_over_question_pool(self):
        ds = QaDataset([
            Question("q1", "cat on mat", [
                Passage(pid, text, pid == "d1") for pid, text in self.FIXTURE.items()
            ])
        ])
        entries = bm25_run(ds, 3).queries["q1"]
        assert [e.passage_id for e in entries] == ["d1", "d4", "d2"]
        assert [e.rank for e in entries] == [1, 2, 3]


def reference_bm25_run(dataset: QaDataset, k: int) -> dict[str, list[tuple[str, int, str]]]:
    """Brute-force BM25: each pool tokenizes its passages itself, counts
    document frequency over every term and counts tf with list.count.
    Entries are (passage id, rank, score as float.hex())."""
    k1, b = Bm25Index.k1, Bm25Index.b
    out = {}
    for q in dataset.questions:
        docs = {p.passage_id: tokenize_text(p.text) for p in q.passages}
        n_docs = len(docs)
        avgdl = sum(len(t) for t in docs.values()) / n_docs
        df: dict[str, int] = {}
        for toks in docs.values():
            for term in set(toks):
                df[term] = df.get(term, 0) + 1
        q_tokens = tokenize_text(q.text)
        scored = []
        for pid, toks in docs.items():
            norm = k1 * (1.0 - b + b * len(toks) / avgdl) if avgdl > 0 else k1
            total = 0.0
            for term in q_tokens:
                tf = toks.count(term)
                if tf == 0:
                    continue
                idf = math.log(1.0 + (n_docs - df.get(term, 0) + 0.5) / (df.get(term, 0) + 0.5))
                total += idf * tf * (k1 + 1.0) / (tf + norm)
            scored.append((pid, total))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        out[q.question_id] = [(pid, rank, score.hex())
                              for rank, (pid, score) in enumerate(scored[:k], 1)]
    return out


# passage words, repeated tokens and punctuation; "zz" and "?" appear only in questions,
# and "" or "  " passages tokenize to nothing
PASSAGE_PIECES = ["a", "b", "Cat", "cat", "x1", "a a", ",", "!!", "b.", "", "  "]
QUESTION_PIECES = ["a", "cat", "x1", "b", ",", "zz", "?", "a a"]


@st.composite
def bm25_datasets(draw):
    texts = draw(st.lists(st.lists(st.sampled_from(PASSAGE_PIECES), max_size=8)
                          .map(" ".join), min_size=1, max_size=7))
    questions = []
    for i in range(draw(st.integers(1, 5))):
        pool = draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, unique=True))
        if 0 not in pool:
            pool.append(0)  # passage p0 sits in every pool
        text = " ".join(draw(st.lists(st.sampled_from(QUESTION_PIECES), max_size=6)))
        questions.append(Question(f"q{i}", text, [Passage(f"p{j}", texts[j], j == pool[0])
                                                  for j in pool]))
    return QaDataset(questions)


@settings(database=None, deadline=None, max_examples=150)
@given(bm25_datasets(), st.integers(1, 8))
def test_bm25_run_equals_brute_force_bitwise(dataset, k):
    run = bm25_run(dataset, k)
    assert {qid: [(e.passage_id, e.rank, e.score.hex()) for e in entries]
            for qid, entries in run.queries.items()} == reference_bm25_run(dataset, k)


class TestRecallAndHit:
    def test_recall_definition(self):
        assert recall_at_k(["d2", "d1", "d5"], {"d1", "d3"}, 3) == 0.5

    def test_recall_all_found(self):
        assert recall_at_k(["d1", "d3", "d5"], {"d1", "d3"}, 3) == 1.0

    def test_capped_variant(self):
        assert recall_at_k(["d1"], {"d1", "d2", "d3"}, 1, capped=True) == 1.0
        assert recall_at_k(["d1"], {"d1", "d2", "d3"}, 1) == pytest.approx(1 / 3)

    def test_hit_definition(self):
        assert hit_at_k(["d2", "d1", "d5"], {"d1", "d3"}, 3) == 1
        assert hit_at_k(["d2", "d1", "d5"], {"d9"}, 3) == 0

    def test_zero_relevant_rejected(self):
        with pytest.raises(ContractError):
            recall_at_k(["d1"], set(), 1)
        with pytest.raises(ContractError):
            hit_at_k(["d1"], set(), 1)

    def test_matches_brute_force_enumeration(self):
        rng = T.make_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ranking = [f"p{i}" for i in rng.permutation(n)]
            relevant = {f"p{i}" for i in range(n) if rng.random() < 0.4}
            if not relevant:
                relevant = {ranking[int(rng.integers(0, n))]}
            k = int(rng.integers(1, n + 2))
            hits = 0
            found = 0
            for pid in ranking[:k]:
                for r in relevant:
                    if pid == r:
                        hits += 1
                        found = 1
            assert recall_at_k(ranking, relevant, k) == hits / len(relevant)
            assert hit_at_k(ranking, relevant, k) == found

    def test_invariant_under_id_relabeling(self):
        rng = T.make_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            ranking = [f"p{i}" for i in rng.permutation(n)]
            relevant = {ranking[int(rng.integers(0, n))], ranking[0]}
            k = int(rng.integers(1, n + 1))
            relabel = {pid: f"x{pid}y" for pid in ranking}
            assert recall_at_k(ranking, relevant, k) == recall_at_k(
                [relabel[p] for p in ranking], {relabel[p] for p in relevant}, k)
            assert hit_at_k(ranking, relevant, k) == hit_at_k(
                [relabel[p] for p in ranking], {relabel[p] for p in relevant}, k)

    def test_monotone_in_k(self):
        rng = T.make_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            ranking = [f"p{i}" for i in rng.permutation(n)]
            relevant = {ranking[int(rng.integers(0, n))]}
            prev_r, prev_h = 0.0, 0
            for k in range(1, n + 1):
                r = recall_at_k(ranking, relevant, k)
                h = hit_at_k(ranking, relevant, k)
                assert r >= prev_r and h >= prev_h
                prev_r, prev_h = r, h


def t_pdf(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def two_sided_p_by_integration(t, df):
    lo, hi, n = abs(t), abs(t) + 60.0, 20001
    xs = np.linspace(lo, hi, n)
    ys = np.array([t_pdf(x, df) for x in xs])
    h = (hi - lo) / (n - 1)
    return 2 * (h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


class TestPairedTTest:
    # 20-pair fixture; p frozen from an independent Simpson integration
    # of the t density (t = 4.6549113, df = 19)
    FIX_A = [0.7055, 0.4286, 0.4857, 0.7797, 0.8975, 0.3853, 0.3472, 0.4085, 0.5158,
             0.4018, 0.6533, 0.6701, 0.3632, 0.6394, 0.3028, 0.5791, 0.8854, 0.7797,
             0.6581, 0.4952]
    FIX_B = [0.6203, 0.4626, 0.4724, 0.7315, 0.8909, 0.3579, 0.3183, 0.3476, 0.4974,
             0.3482, 0.6105, 0.6089, 0.312, 0.5165, 0.296, 0.4791, 0.8655, 0.7876,
             0.5575, 0.4772]
    FIX_P = 0.00017263560665052637

    def test_identical_vectors_give_p_one(self):
        assert paired_t_test([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 1.0

    def test_constant_nonzero_difference_gives_p_zero(self):
        assert paired_t_test([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_twenty_pair_fixture(self):
        assert abs(paired_t_test(self.FIX_A, self.FIX_B) - self.FIX_P) < 1e-4

    def test_matches_numeric_integration_over_range(self):
        for t, df in [(0.3, 4), (1.1, 9), (2.7, 19), (3.3, 30), (0.0, 7), (2.5, 78), (0.7, 79),
                      (1.96, 3609)]:
            assert abs(student_t_two_sided_p(t, df) - two_sided_p_by_integration(t, df)) < 1e-6

    @pytest.mark.parametrize("t", [0.0, 0.4, -1.0, 2.5, 12.0, 150.0])
    def test_closed_forms_for_one_and_two_degrees_of_freedom(self, t):
        # the integration window [t, t + 60] misses ~1e-2 of tail mass at df 1 and 2
        assert student_t_two_sided_p(t, 1) == pytest.approx(1 - 2 * math.atan(abs(t)) / math.pi,
                                                            abs=1e-14)
        assert student_t_two_sided_p(t, 2) == pytest.approx(1 - abs(t) / math.sqrt(2 + t * t),
                                                            abs=1e-14)

    def test_degrees_of_freedom_below_one_rejected(self):
        with pytest.raises(ContractError):
            student_t_two_sided_p(1.0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            paired_t_test([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # a NaN or infinite difference must not read as p = 0.0, maximally significant
        with pytest.raises(InputError, match="finite"):
            paired_t_test([1.0, bad, 0.5], [0.0, 0.2, 0.1])
        with pytest.raises(InputError, match="finite"):
            paired_t_test([0.0, 0.2, 0.1], [1.0, bad, 0.5])

    def test_nan_t_rejected(self):
        with pytest.raises(ContractError):
            student_t_two_sided_p(math.nan, 5)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_t_gives_p_zero(self, t):
        assert student_t_two_sided_p(t, 5) == 0.0


def three_query_dataset():
    return QaDataset([
        Question("q1", "one", [Passage("a", "a", True), Passage("b", "b", False),
                               Passage("c", "c", False)]),
        Question("q2", "two", [Passage("a2", "a", True), Passage("b2", "b", True),
                               Passage("c2", "c", False)]),
        Question("q3", "three", [Passage("x", "x", False), Passage("y", "y", False),
                                 Passage("z", "z", True)]),
    ])


def run_from(tag, rankings):
    return RetrievalRun(tag, {
        qid: [RunEntry(pid, i + 1, float(len(pids) - i)) for i, pid in enumerate(pids)]
        for qid, pids in rankings.items()
    })


class TestEvaluate:
    def test_relevant_first_ordering_scores_one(self):
        ds = three_query_dataset()
        run = run_from("ideal", {"q1": ["a", "b", "c"], "q2": ["a2", "b2", "c2"],
                                 "q3": ["z", "x", "y"]})
        report = evaluate([run], ds, k_list=[2])
        assert report.runs[0].macro["H@2"] == 1.0
        assert report.runs[0].macro["R@2"] == 1.0

    def test_macro_means_hand_computed(self):
        ds = three_query_dataset()
        run = run_from("mixed", {"q1": ["a", "b", "c"], "q2": ["c2", "a2", "b2"],
                                 "q3": ["x", "y", "z"]})
        report = evaluate([run], ds, k_list=[2])
        # per query R@2: 1, 1/2, 0 -> mean 0.5 ; H@2: 1, 1, 0 -> 2/3
        assert report.runs[0].macro["R@2"] == pytest.approx(0.5)
        assert report.runs[0].macro["H@2"] == pytest.approx(2 / 3)

    def test_identical_runs_give_p_one(self):
        ds = three_query_dataset()
        ranks = {"q1": ["a", "b"], "q2": ["a2", "b2"], "q3": ["z", "y"]}
        report = evaluate([run_from("x", ranks), run_from("y", ranks)], ds,
                          k_list=[2], baseline_tag="x")
        assert report.p_values["y"]["R@2"] == 1.0
        assert report.p_values["y"]["H@2"] == 1.0

    def test_unknown_query_id_named(self):
        ds = three_query_dataset()
        run = run_from("bad", {"q9": ["a"]})
        with pytest.raises(InputError, match="q9"):
            evaluate([run], ds, k_list=[1])

    def test_unknown_passage_id_named(self):
        ds = three_query_dataset()
        run = run_from("bad", {"q1": ["nope"]})
        with pytest.raises(InputError, match="nope"):
            evaluate([run], ds, k_list=[1])

    def test_query_without_relevant_judgments_excluded(self):
        ds = QaDataset([
            Question("q1", "one", [Passage("a", "a", True), Passage("b", "b", False)]),
            Question("q2", "two", [Passage("c", "c", False), Passage("d", "d", False)]),
        ])
        run = run_from("r", {"q1": ["a", "b"], "q2": ["c", "d"]})
        report = evaluate([run], ds, k_list=[1])
        assert report.runs[0].skipped == ["q2"]
        assert report.runs[0].macro["H@1"] == 1.0

    def test_query_order_does_not_change_macro(self):
        ds = three_query_dataset()
        fwd = run_from("f", {"q1": ["a", "b"], "q2": ["c2", "a2"], "q3": ["z", "x"]})
        rev = RetrievalRun("f", dict(reversed(list(fwd.queries.items()))))
        a = evaluate([fwd], ds, k_list=[1, 2]).runs[0].macro
        b = evaluate([rev], ds, k_list=[1, 2]).runs[0].macro
        assert a == b

    def test_table_renders_all_metrics(self):
        ds = three_query_dataset()
        run = run_from("demo", {"q1": ["a", "b"], "q2": ["a2", "b2"], "q3": ["x", "z"]})
        report = evaluate([run], ds, k_list=[1, 2])
        table = report.format_table()
        for name in ("R@1", "H@1", "R@2", "H@2", "demo"):
            assert name in table


class TestRunFiles:
    def test_trec_roundtrip(self, tmp_path):
        run = run_from("mytag", {"q1": ["a", "b"], "q2": ["c", "d"]})
        path = tmp_path / "run.txt"
        write_run_file(run, path)
        again = read_run_file(path)
        assert again.tag == "mytag"
        assert again.ranked_ids("q1") == ["a", "b"]

    def test_trec_writes_six_columns(self, tmp_path):
        run = run_from("t", {"q1": ["a"]})
        path = tmp_path / "run.txt"
        write_run_file(run, path)
        parts = path.read_text().strip().split()
        assert len(parts) == 6 and parts[1] == "Q0"

    def test_jsonl_run_accepted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [json.dumps({"query_id": "q1", "passage_id": p, "rank": i + 1,
                             "score": 1.0 - i, "tag": "jr"}) for i, p in enumerate(["a", "b"])]
        write_lines(path, lines)
        run = read_run_file(path)
        assert run.tag == "jr" and run.ranked_ids("q1") == ["a", "b"]

    @pytest.mark.parametrize("field, value", [("query_id", "q 1"), ("query_id", ""),
                                              ("passage_id", "a b"), ("passage_id", "")])
    def test_jsonl_id_a_trec_line_cannot_hold_rejected(self, tmp_path, field, value):
        path = tmp_path / "run.jsonl"
        record = {"query_id": "q1", "passage_id": "a", "rank": 1, "score": 1.0, field: value}
        write_lines(path, [json.dumps(record)])
        with pytest.raises(ParseError, match="line 1: .* is empty or contains whitespace"):
            read_run_file(path)

    @pytest.mark.parametrize("field, value", [
        ("query_id", None), ("query_id", True), ("passage_id", False), ("passage_id", 1.5),
        ("score", True), ("tag", ["x"]), ("tag", None), ("tag", 3), ("tag", "a b"), ("tag", "")])
    def test_jsonl_value_of_the_wrong_type_rejected_not_stringified(self, tmp_path, field, value):
        path = tmp_path / "run.jsonl"
        record = {"query_id": "q1", "passage_id": "a", "rank": 1, "score": 1.0, "tag": "t",
                  field: value}
        write_lines(path, [json.dumps(record)])
        with pytest.raises(ParseError, match=f"line 1: .*{field}"):
            read_run_file(path)

    def test_jsonl_numeric_string_score_and_integer_ids_accepted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_lines(path, [json.dumps({"query_id": 1, "passage_id": 2, "rank": 1,
                                       "score": "0.5"})])
        run = read_run_file(path)
        assert run.tag == "run" and run.queries["1"] == [RunEntry("2", 1, 0.5)]

    @pytest.mark.parametrize("rank, score", [
        ("\u0661", "2.5"), ("0_2", "1.5"), ("+1", "1.5"), ("1", "1_5"), ("1", "\u0662.5"),
        ("1", "\uff11.5"),
    ], ids=["arabic-indic-rank", "underscore-rank", "signed-rank", "underscore-score",
            "arabic-indic-score", "fullwidth-score"])
    def test_trec_rank_or_score_not_an_ascii_numeral_rejected(self, tmp_path, rank, score):
        path = tmp_path / "run.txt"
        write_lines(path, [f"q1 Q0 d1 {rank} {score} run"])
        with pytest.raises(ParseError, match="line 1: bad rank/score"):
            read_run_file(path)

    @pytest.mark.parametrize("score", ['"1_5"', '"\u0661"', '"\u0661.5"', '" 0.5"',
                                       "1" + "0" * 400],
                             ids=["underscore", "arabic-indic", "arabic-indic-decimal",
                                  "leading-space", "int-beyond-float"])
    def test_jsonl_score_not_an_ascii_numeral_or_float_rejected(self, tmp_path, score):
        path = tmp_path / "run.jsonl"
        write_lines(path, ['{"query_id": "q1", "passage_id": "a", "rank": 1, "score": '
                           + score + "}"])
        with pytest.raises(ParseError, match="line 1: "):
            read_run_file(path)

    def test_ascii_decimal_and_exponent_scores_read(self, tmp_path):
        path = tmp_path / "run.txt"
        scores = ["-1.5e-3", "+2", "3.", ".25", "1E2", "007"]
        write_lines(path, [f"q1 Q0 d{i} {i + 1} {s} t" for i, s in enumerate(scores)])
        assert [e.score for e in read_run_file(path).queries["q1"]] == list(map(float, scores))

    def test_bm25_run_reads_back_as_written(self, tmp_path):
        run = bm25_run(three_query_dataset(), 2)
        path = tmp_path / "bm25.run"
        write_run_file(run, path)
        again = read_run_file(path)
        assert again.tag == run.tag
        assert again.queries == {qid: [e._replace(score=float(f"{e.score:.6f}")) for e in entries]
                                 for qid, entries in run.queries.items()}

    def test_non_contiguous_ranks_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        write_lines(path, ["q1 Q0 a 1 0.5 t", "q1 Q0 b 3 0.4 t"])
        with pytest.raises(InputError):
            read_run_file(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "run.txt"
        write_lines(path, ["q1 Q0 a 1 0.5 t", "garbage line"])
        with pytest.raises(ParseError, match="line 2"):
            read_run_file(path)
