"""Dataset and run-file ingestion, toy BM25 retrieval, ranking metrics,
paired significance testing, and report generation.

Run files use the TREC six-column convention
(`query_id ignored passage_id rank score tag`); JSON-lines files with the
same fields are accepted as an alternative input format.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checkpoint import atomic_open
from .errors import ConfigError, ContractError, DataError, InputError, ParseError
from .model import tokenize_text


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
                if self._passage_texts.setdefault(p.passage_id, p.text) != p.text:
                    raise DataError(f"passage id {p.passage_id!r} names two texts: question "
                                    f"{q.question_id!r} gives it another")

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


def _checked_id(line_no: int, kind: str, value) -> str:
    """`value`, a JSON string or integer (not a bool), as an id that a run
    file's whitespace-separated line can hold."""
    text = str(value)
    if isinstance(value, bool) or not isinstance(value, (str, int)) or text.split() != [text]:
        raise ParseError(line_no, f"{kind} {value!r} is not a string or an integer, "
                                  "or is empty or contains whitespace")
    return text


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
        pid = _checked_id(line_no, "passage_id", p["passage_id"])
        if pid in seen:
            raise ParseError(line_no, f"duplicate passage_id {pid!r}")
        seen.add(pid)
        if not isinstance(p["relevant"], bool):
            raise ParseError(line_no, f"passage {pid!r}: relevant must be true or false, "
                                      f"got {p['relevant']!r}")
        if not isinstance(p["text"], str):
            raise ParseError(line_no, f"passage {pid!r}: text must be a string, got {p['text']!r}")
        passages.append(Passage(pid, p["text"], p["relevant"]))
    if not isinstance(rec["question_text"], str):
        raise ParseError(line_no, f"question_text must be a string, got {rec['question_text']!r}")
    return Question(_checked_id(line_no, "question_id", rec["question_id"]),
                    rec["question_text"], passages)


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


_SCORE_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _score(text: str) -> float:
    """`text` as a float if it is an ASCII decimal or exponent literal; float()
    alone also reads "_", digits of other scripts, "inf" and "nan"."""
    if not _SCORE_RE.fullmatch(text):
        raise ValueError(f"score {text!r} is not an ASCII decimal or exponent literal")
    return float(text)


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
                    qid, rank = _checked_id(line_no, "query_id", rec["query_id"]), rec["rank"]
                    if not isinstance(rank, int) or isinstance(rank, bool):
                        raise ValueError(f"rank {rank!r} is not an integer")
                    # a JSON number's str() is such a literal; a bool's, null's or list's is not
                    entry = RunEntry(_checked_id(line_no, "passage_id", rec["passage_id"]), rank,
                                     _score(str(rec["score"])))
                    line_tag = rec.get("tag", "run")
                    if not isinstance(line_tag, str) or line_tag.split() != [line_tag]:
                        raise ValueError(f"tag {line_tag!r} is not a string without whitespace")
                except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                    raise ParseError(line_no, f"bad JSON run record: {exc}") from exc
            else:
                parts = stripped.split()
                if len(parts) != 6:
                    raise ParseError(line_no, f"expected 6 whitespace-separated columns, got {len(parts)}")
                qid = parts[0]
                try:
                    if not (parts[3].isascii() and parts[3].isdigit()):
                        raise ValueError(f"rank {parts[3]!r} is not ASCII digits")
                    entry = RunEntry(parts[2], int(parts[3]), _score(parts[4]))
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

# Okapi BM25's term-frequency saturation and document-length normalization
BM25_K1, BM25_B = 0.9, 0.4


def bm25_run(dataset: QaDataset, k: int) -> RetrievalRun:
    """Run tagged "bm25": each question's own pool, ranked by Okapi BM25.

    Each question and each distinct passage is tokenized once. A passage
    keeps its length and the counts of the terms that the questions of its
    pools hold, which are the only terms its pools score.
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    queries = [tokenize_text(q.text) for q in dataset.questions]
    wanted: dict[str, set[str]] = {}
    for q, query in zip(dataset.questions, queries):
        for p in q.passages:
            wanted.setdefault(p.passage_id, set()).update(query)
    stats: dict[str, tuple[int, dict[str, int]]] = {}
    for pid, terms in wanted.items():
        tokens = tokenize_text(dataset.passage_text(pid))
        counts = Counter(tokens)
        stats[pid] = len(tokens), {term: counts[term] for term in terms if term in counts}
    return RetrievalRun("bm25", {
        q.question_id: _bm25_top_k(query, {p.passage_id: stats[p.passage_id]
                                           for p in q.passages}, k)
        for q, query in zip(dataset.questions, queries)})


def _bm25_top_k(query: list[str], pool: dict[str, tuple[int, dict[str, int]]],
                k: int) -> list[RunEntry]:
    """The k best passages of `pool`, each given as (length, term counts) by
    id, for the query's tokens; equal scores rank by passage id. A term
    missing from every count reads as absent from the pool, and each term
    that a count holds gets its idf once."""
    if not pool:
        raise DataError("BM25 over an empty passage pool")
    avgdl = sum(dl for dl, _ in pool.values()) / len(pool)
    df = Counter(term for _, counts in pool.values() for term in counts)
    idf = {term: math.log(1.0 + (len(pool) - n + 0.5) / (n + 0.5)) for term, n in df.items()}
    scored = []
    for pid, (dl, counts) in pool.items():
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl) if avgdl > 0 else BM25_K1
        total = 0.0
        for term in query:
            tf = counts.get(term, 0)
            if tf:
                total += idf[term] * tf * (BM25_K1 + 1.0) / (tf + norm)
        scored.append((pid, total))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [RunEntry(pid, rank, score) for rank, (pid, score) in enumerate(scored[:k], 1)]


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

def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with an integer df >= 1.

    Sums the exact finite series of Abramowitz & Stegun 26.7.3 (odd df)
    and 26.7.4 (even df) for P(|T| < |t|) in theta = atan(|t| / sqrt(df)),
    with df // 2 terms. The result is 1 minus that sum, so a p below
    about 1e-15 reads 0.0, as does an infinite t. A NaN t is a ContractError.
    """
    if df < 1:
        raise ContractError("degrees of freedom must be at least 1")
    if math.isnan(t):
        raise ContractError("t statistic is NaN")
    theta = math.atan(abs(t) / math.sqrt(df))
    cos, odd = math.cos(theta), df % 2
    term, series = (cos if odd else 1.0), 0.0
    for k in range(df // 2):
        series += term
        term *= cos * cos * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    inside = math.sin(theta) * series
    if odd:
        inside = 2.0 / math.pi * (theta + inside)
    return min(1.0, max(0.0, 1.0 - inside))


def paired_t_test(per_query_a, per_query_b) -> float:
    """Two-sided p-value of the paired t statistic on aligned vectors.

    Zero-variance conventions: identical vectors give p = 1.0; a constant
    nonzero difference gives p = 0.0. A non-finite value is an InputError.
    """
    a = np.asarray(per_query_a, dtype=np.float64)
    b = np.asarray(per_query_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"paired vectors must align: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("paired vectors must hold finite values")
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


def _metric_names(k_list: list[int]) -> list[str]:
    """R@k and H@k for each cutoff, in report order."""
    return [f"{m}@{k}" for k in k_list for m in ("R", "H")]


@dataclass
class MetricReport:
    k_list: list[int]
    runs: list[RunMetrics]
    baseline_tag: str | None
    p_values: dict[str, dict[str, float]]

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
        names = _metric_names(self.k_list)
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
    if not k_list or min(k_list) < 1 or len(set(k_list)) != len(k_list):
        raise ConfigError(f"k_list must be a non-empty list of distinct cutoffs >= 1, got {k_list}")

    names = _metric_names(k_list)
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
