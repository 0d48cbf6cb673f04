"""Dataset and run-file ingestion, toy BM25 retrieval, ranking metrics,
paired significance testing, and report generation.

Run files use the TREC six-column convention
(`query_id ignored passage_id rank score tag`); JSON-lines files with the
same fields are accepted as an alternative input format.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .checkpoint import atomic_open
from .errors import ConfigError, ContractError, DataError, InputError, ParseError
from .model import tokenize_text

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# Datasets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Passage:
    passage_id: str
    text: str
    relevant: bool


@dataclass
class Question:
    question_id: str
    text: str
    passages: list[Passage]


@dataclass
class QaDataset:
    questions: list[Question]

    def __post_init__(self):
        self.by_id = {q.question_id: q for q in self.questions}
        self._passage_texts: dict[str, str] = {}
        for q in self.questions:
            for p in q.passages:
                self._passage_texts.setdefault(p.passage_id, p.text)

    def __len__(self) -> int:
        return len(self.questions)

    def passage_text(self, passage_id: str) -> str:
        try:
            return self._passage_texts[passage_id]
        except KeyError:
            raise InputError(f"unknown passage id {passage_id!r}") from None

    def has_passage(self, passage_id: str) -> bool:
        return passage_id in self._passage_texts

    def relevant_ids(self, question_id: str) -> set[str]:
        return {p.passage_id for p in self.by_id[question_id].passages if p.relevant}

    def texts(self) -> list[str]:
        return [q.text for q in self.questions] + list(self._passage_texts.values())


def _parse_question_record(line_no: int, rec) -> Question:
    if not isinstance(rec, dict):
        raise ParseError(line_no, "record is not a JSON object")
    for fld in ("question_id", "question_text", "passages"):
        if fld not in rec:
            raise ParseError(line_no, f"missing required field {fld!r}")
    passages = []
    seen = set()
    if not isinstance(rec["passages"], list) or not rec["passages"]:
        raise ParseError(line_no, "passages must be a non-empty list")
    for p in rec["passages"]:
        if not isinstance(p, dict):
            raise ParseError(line_no, f"passage {p!r} is not a JSON object")
        for fld in ("passage_id", "text", "relevant"):
            if fld not in p:
                raise ParseError(line_no, f"passage missing required field {fld!r}")
        pid = str(p["passage_id"])
        if pid in seen:
            raise ParseError(line_no, f"duplicate passage_id {pid!r}")
        seen.add(pid)
        if not isinstance(p["relevant"], bool):
            raise ParseError(line_no, f"passage {pid!r}: relevant must be true or false, "
                                      f"got {p['relevant']!r}")
        passages.append(Passage(pid, str(p["text"]), p["relevant"]))
    return Question(str(rec["question_id"]), str(rec["question_text"]), passages)


def load_dataset(path) -> QaDataset:
    """Read a JSON-lines QA dataset, validating ids line by line."""
    questions = []
    seen_qids = set()
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                rec = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON: {exc.msg}") from exc
            q = _parse_question_record(line_no, rec)
            if q.question_id in seen_qids:
                raise ParseError(line_no, f"duplicate question_id {q.question_id!r}")
            seen_qids.add(q.question_id)
            questions.append(q)
    if not questions:
        raise DataError(f"no question records found in {path}")
    return QaDataset(questions)


def save_dataset(dataset: QaDataset, path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        for q in dataset.questions:
            rec = {
                "question_id": q.question_id,
                "question_text": q.text,
                "passages": [
                    {"passage_id": p.passage_id, "text": p.text, "relevant": p.relevant}
                    for p in q.passages
                ],
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Retrieval runs
# --------------------------------------------------------------------------

class RunEntry(NamedTuple):
    passage_id: str
    rank: int
    score: float


@dataclass
class RetrievalRun:
    tag: str
    queries: dict[str, list[RunEntry]] = field(default_factory=dict)

    def __post_init__(self):
        for qid, entries in self.queries.items():
            self.queries[qid] = sorted(entries, key=lambda e: e.rank)
            ranks = [e.rank for e in self.queries[qid]]
            if ranks != list(range(1, len(ranks) + 1)):
                raise InputError(f"run {self.tag!r}, query {qid!r}: ranks not contiguous from 1")
            pids = [e.passage_id for e in self.queries[qid]]
            if len(set(pids)) != len(pids):
                raise InputError(f"run {self.tag!r}, query {qid!r}: duplicate passage ids")

    def ranked_ids(self, qid: str) -> list[str]:
        return [e.passage_id for e in self.queries[qid]]


def read_run_file(path) -> RetrievalRun:
    """Parse a TREC-style or JSON-lines run file; the first line's tag names the run."""
    grouped: dict[str, list[RunEntry]] = {}
    file_tag = None
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("{"):
                try:
                    rec = json.loads(stripped)
                    qid, rank = str(rec["query_id"]), rec["rank"]
                    if not isinstance(rank, int) or isinstance(rank, bool):
                        raise ValueError(f"rank {rank!r} is not an integer")
                    entry = RunEntry(str(rec["passage_id"]), rank, float(rec["score"]))
                    line_tag = str(rec.get("tag", "run"))
                except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                    raise ParseError(line_no, f"bad JSON run record: {exc}") from exc
            else:
                parts = stripped.split()
                if len(parts) != 6:
                    raise ParseError(line_no, f"expected 6 whitespace-separated columns, got {len(parts)}")
                qid = parts[0]
                try:
                    entry = RunEntry(parts[2], int(parts[3]), float(parts[4]))
                except ValueError as exc:
                    raise ParseError(line_no, f"bad rank/score: {exc}") from exc
                line_tag = parts[5]
            if not math.isfinite(entry.score):
                raise ParseError(line_no, f"score {entry.score!r} is not a finite number")
            if file_tag is None:
                file_tag = line_tag
            grouped.setdefault(qid, []).append(entry)
    if not grouped:
        raise DataError(f"no run entries found in {path}")
    return RetrievalRun(file_tag or "run", grouped)


def write_run_file(run: RetrievalRun, path) -> None:
    """Write TREC six-column lines, UTF-8, LF endings, queries sorted."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        for qid in sorted(run.queries):
            for e in run.queries[qid]:
                f.write(f"{qid} Q0 {e.passage_id} {e.rank} {e.score:.6f} {run.tag}\n")


# --------------------------------------------------------------------------
# Toy BM25 retrieval
# --------------------------------------------------------------------------

class Bm25Index:
    """Okapi BM25 over a small in-memory passage pool."""

    k1, b = 0.9, 0.4

    def __init__(self, docs: Iterable[tuple[str, str]]):
        self.doc_tokens: dict[str, list[str]] = {pid: tokenize_text(text) for pid, text in docs}
        if not self.doc_tokens:
            raise DataError("BM25 index over an empty passage pool")
        self.n_docs = len(self.doc_tokens)
        self.avgdl = sum(len(t) for t in self.doc_tokens.values()) / self.n_docs
        self.df: dict[str, int] = {}
        for toks in self.doc_tokens.values():
            for term in set(toks):
                self.df[term] = self.df.get(term, 0) + 1

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def score(self, query_tokens: list[str], passage_id: str) -> float:
        toks = self.doc_tokens[passage_id]
        dl = len(toks)
        norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl) if self.avgdl > 0 else self.k1
        total = 0.0
        for term in query_tokens:
            tf = toks.count(term)
            if tf == 0:
                continue
            total += self.idf(term) * tf * (self.k1 + 1.0) / (tf + norm)
        return total

    def top_k(self, query_text: str, k: int) -> list[RunEntry]:
        if k < 1:
            raise ContractError("k must be at least 1")
        q_tokens = tokenize_text(query_text)
        scored = sorted(
            ((pid, self.score(q_tokens, pid)) for pid in self.doc_tokens),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return [RunEntry(pid, rank, score) for rank, (pid, score) in enumerate(scored[:k], 1)]


def bm25_retrieve(dataset: QaDataset, question_id: str, k: int) -> list[RunEntry]:
    """Top-k BM25 entries over the question's own passage pool."""
    question = dataset.by_id[question_id]
    return Bm25Index((p.passage_id, p.text) for p in question.passages).top_k(question.text, k)


def bm25_run(dataset: QaDataset, k: int) -> RetrievalRun:
    """Run tagged "bm25": each question's own pool, ranked by BM25."""
    return RetrievalRun("bm25", {q.question_id: bm25_retrieve(dataset, q.question_id, k)
                                 for q in dataset.questions})


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def recall_at_k(ranked_ids, relevant_ids, k: int, capped: bool = False) -> float:
    """Fraction of the relevant set found in the top k.

    The default denominator is |relevant|; capped=True uses
    min(|relevant|, k) instead.
    """
    relevant = set(relevant_ids)
    if not relevant:
        raise ContractError("recall_at_k needs at least one relevant passage")
    hits = sum(1 for pid in list(ranked_ids)[:k] if pid in relevant)
    denom = min(len(relevant), k) if capped else len(relevant)
    return hits / denom


def hit_at_k(ranked_ids, relevant_ids, k: int) -> int:
    relevant = set(relevant_ids)
    if not relevant:
        raise ContractError("hit_at_k needs at least one relevant passage")
    return int(any(pid in relevant for pid in list(ranked_ids)[:k]))


# --------------------------------------------------------------------------
# Paired t-test
# --------------------------------------------------------------------------

def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the incomplete beta continued fraction
    max_iter, eps, tiny = 300, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ContractError("degrees of freedom must be at least 1")
    x = df / (df + t * t)
    return min(1.0, max(0.0, regularized_incomplete_beta(df / 2.0, 0.5, x)))


def paired_t_test(per_query_a, per_query_b) -> float:
    """Two-sided p-value of the paired t statistic on aligned vectors.

    Zero-variance conventions: identical vectors give p = 1.0; a constant
    nonzero difference gives p = 0.0.
    """
    a = np.asarray(per_query_a, dtype=np.float64)
    b = np.asarray(per_query_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"paired vectors must align: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise InputError("paired_t_test needs at least 2 aligned values")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    t = mean / (sd / math.sqrt(n))
    return student_t_two_sided_p(t, n - 1)


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

@dataclass
class RunMetrics:
    tag: str
    macro: dict[str, float]
    per_query: dict[str, dict[str, float]]
    skipped: list[str]


@dataclass
class MetricReport:
    k_list: list[int]
    runs: list[RunMetrics]
    baseline_tag: str | None
    p_values: dict[str, dict[str, float]]

    def metric_names(self) -> list[str]:
        return [f"{m}@{k}" for k in self.k_list for m in ("R", "H")]

    def to_json_dict(self) -> dict:
        return {
            "k_list": self.k_list,
            "baseline_tag": self.baseline_tag,
            "runs": [
                {
                    "tag": r.tag,
                    "macro": r.macro,
                    "per_query": r.per_query,
                    "skipped_queries": r.skipped,
                    "evaluated_queries": len(r.per_query),
                }
                for r in self.runs
            ],
            "p_values": self.p_values,
        }

    def format_table(self) -> str:
        names = self.metric_names()
        width = max(12, max((len(r.tag) for r in self.runs), default=0) + 2)
        lines = ["run".ljust(width) + "".join(n.rjust(9) for n in names)]
        for r in self.runs:
            cells = "".join(f"{100 * r.macro[n]:9.2f}" for n in names)
            lines.append(r.tag.ljust(width) + cells)
        if self.baseline_tag is not None and self.p_values:
            lines.append("")
            lines.append(f"paired t-test p-values vs {self.baseline_tag}:")
            for tag, vals in self.p_values.items():
                cells = "  ".join(f"{n}={vals[n]:.4f}" for n in names if n in vals)
                lines.append(f"  {tag}: {cells}")
        skipped = {r.tag: len(r.skipped) for r in self.runs if r.skipped}
        if skipped:
            lines.append("")
            lines.append(f"queries without relevant judgments (excluded): {skipped}")
        return "\n".join(lines)


def evaluate(runs: list[RetrievalRun], dataset: QaDataset, k_list: list[int],
             baseline_tag: str | None = None, capped_recall: bool = False) -> MetricReport:
    """Macro R@k / H@k per run plus paired t-tests against a baseline run."""
    if not runs:
        raise InputError("no runs to evaluate")
    tags = [r.tag for r in runs]
    if len(set(tags)) != len(tags):
        raise InputError(f"duplicate run tags: {tags}")
    if baseline_tag is not None and baseline_tag not in tags:
        raise InputError(f"baseline tag {baseline_tag!r} not among runs {tags}")
    if not k_list or min(k_list) < 1:
        raise ConfigError(f"k_list must be a non-empty list of cutoffs >= 1, got {k_list}")

    names = [f"{m}@{k}" for k in k_list for m in ("R", "H")]
    results: list[RunMetrics] = []
    for run in runs:
        per_query: dict[str, dict[str, float]] = {}
        skipped: list[str] = []
        for qid in sorted(run.queries):
            if qid not in dataset.by_id:
                raise InputError(f"run {run.tag!r} references unknown query id {qid!r}")
            for entry in run.queries[qid]:
                if not dataset.has_passage(entry.passage_id):
                    raise InputError(
                        f"run {run.tag!r} references unknown passage id {entry.passage_id!r}")
            relevant = dataset.relevant_ids(qid)
            if not relevant:
                skipped.append(qid)
                logger.info("query %s has no relevant passages; excluded from macro averages", qid)
                continue
            ranked = run.ranked_ids(qid)
            row = {}
            for k in k_list:
                row[f"R@{k}"] = recall_at_k(ranked, relevant, k, capped=capped_recall)
                row[f"H@{k}"] = float(hit_at_k(ranked, relevant, k))
            per_query[qid] = row
        if not per_query:
            raise DataError(f"run {run.tag!r} has no evaluable queries")
        macro = {n: float(np.mean([row[n] for row in per_query.values()])) for n in names}
        results.append(RunMetrics(run.tag, macro, per_query, skipped))

    p_values: dict[str, dict[str, float]] = {}
    if baseline_tag is not None:
        base = next(r for r in results if r.tag == baseline_tag)
        for r in results:
            if r.tag == baseline_tag:
                continue
            shared = sorted(set(r.per_query) & set(base.per_query))
            if len(shared) < 2:
                continue
            p_values[r.tag] = {
                n: paired_t_test([r.per_query[q][n] for q in shared],
                                 [base.per_query[q][n] for q in shared])
                for n in names
            }
    return MetricReport(list(k_list), results, baseline_tag, p_values)
