"""Question log-likelihood scoring and candidate-list reranking.

The score of a passage is the (teacher-forced) log-likelihood of the
question tokens given the assembled prompt, passage, and separator.
PSPT scoring uses the trainable soft prompt and adapted passage
embeddings; the UPR baselines use hard prompt token embeddings and the
frozen passage embeddings only.

A question's candidates are scored together: the prompt (soft or hard)
is the shared prefix of one packed forward, computed once, and each
passage is a segment after it that sees the prefix but no other passage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
# assemble_blocks and assemble_input are not used here; perfbench's tracer
# wraps them under these names
from .adapter import (  # noqa: F401
    SEPARATOR_TEXT,
    AssembledInput,
    PsptParams,
    assemble_blocks,
    assemble_input,
    assemble_segments,
    pspt_passage_blocks,
)
from .errors import ConfigError, ContractError, InputError
from .model import MicroLM
from .tensor import Tensor

DEFAULT_UPR_PROMPT = "Please generate question for this passage:"

Scorer = Callable[[str, str], float]

# Rows per packed forward in ListScorer.score_many. A forward holds a few
# activation arrays of its full row count at once, so this bounds scoring
# memory on long passages: ten passages of ~150 tokens (1767 rows) peak at
# 4.7 MB of arrays in one forward and 2.1 MB in 512-row slices at dim 64.
# Short-passage lists fit in one forward.
MAX_PACKED_ROWS = 512


@dataclass(frozen=True)
class Score:
    value: float
    mode: str


@dataclass(frozen=True)
class Candidate:
    passage_id: str
    text: str
    retriever_rank: int
    retriever_score: float


def _check_mode(mode: str) -> None:
    if mode not in ("sum", "mean"):
        raise ConfigError(f"score mode must be 'sum' or 'mean', got {mode!r}")


def _packed_loglik(model: MicroLM, prefix: Tensor, packed: AssembledInput) -> Tensor:
    """Question log-likelihood of every packed segment after the shared
    prefix, from one forward; all segments end in the same question."""
    shape = (len(packed.lengths), -1)
    rows = np.reshape(packed.target_positions, shape)
    logprobs = model.forward_logprobs(packed.embeddings, packed.lengths, prefix, rows)
    flat = T.reshape(logprobs, (rows.size, model.config.vocab_size))
    picked = T.take_entries(flat, np.arange(rows.size).reshape(shape),
                            np.reshape(packed.target_ids, shape))
    return T.tsum(picked, axis=1)


def _check_passages(passages) -> None:
    if not passages:
        raise ContractError("scoring needs at least one passage")
    if not all(isinstance(d, (list, tuple, np.ndarray)) for d in passages):
        raise ContractError("passages must be a list of token-id lists")


def question_loglik(question_ids, passages, params: PsptParams, model: MicroLM,
                    literal_concat: bool = False) -> Tensor:
    """Differentiable sum of question-token log-probs under the PSPT input,
    one entry per passage; the soft prompt is computed once for all."""
    _check_passages(passages)
    packed = assemble_segments(model, passages, question_ids,
                               pspt_passage_blocks(params, model, literal_concat),
                               rows_per_passage_token=2 if literal_concat else 1,
                               prefix_rows=params.soft_prompt.length)
    return _packed_loglik(model, params.soft_prompt.e1, packed)


def hard_prompt_loglik(question_ids, passages, model: MicroLM, prompt_text: str,
                       example: tuple[list[int], list[int]] | None = None) -> Tensor:
    """Log-likelihood under a hard prompt, one entry per passage; optional
    in-context (q*, d*) pair. The prompt is computed once for all passages."""
    _check_passages(passages)
    prefix_ids = model.vocab.encode(prompt_text)
    if not prefix_ids:
        raise ConfigError(f"prompt text {prompt_text!r} tokenizes to nothing")
    if example is not None:
        ex_q, ex_d = example
        if not ex_q or not ex_d:
            raise ContractError("in-context example needs non-empty question and passage")
        prefix_ids = prefix_ids + list(ex_d) + model.vocab.encode(SEPARATOR_TEXT) + list(ex_q)
    packed = assemble_segments(model, passages, question_ids, lambda ids: [model.embed(ids)],
                               prefix_rows=len(prefix_ids))
    return _packed_loglik(model, model.embed(prefix_ids), packed)


def _scores(sums: Tensor, question_ids, mode: str) -> list[float]:
    div = len(question_ids) if mode == "mean" else 1
    return [float(s) / div for s in sums.data]


def score_pspt(question_ids, passage_ids, params: PsptParams, model: MicroLM,
               mode: str = "sum", literal_concat: bool = False) -> Score:
    _check_mode(mode)
    sums = question_loglik(question_ids, [passage_ids], params, model, literal_concat)
    return Score(_scores(sums, question_ids, mode)[0], mode)


def score_upr(question_ids, passage_ids, model: MicroLM,
              prompt_text: str = DEFAULT_UPR_PROMPT, mode: str = "sum",
              example: tuple[list[int], list[int]] | None = None) -> Score:
    _check_mode(mode)
    sums = hard_prompt_loglik(question_ids, [passage_ids], model, prompt_text, example)
    return Score(_scores(sums, question_ids, mode)[0], mode)


def _groups(passages: list[list[int]], rows: list[int], max_rows: int) -> list[list[list[int]]]:
    """Consecutive runs of passages whose segments, of `rows[i]` rows for
    passage i, total at most max_rows rows (one segment may exceed it alone)."""
    groups: list[list[list[int]]] = []
    total = max_rows
    for d, n in zip(passages, rows):
        if total + n > max_rows:
            groups.append([])
            total = 0
        groups[-1].append(d)
        total += n
    return groups


class ListScorer:
    """A `(question, passage) -> score` callable whose `score_many` scores a
    candidate list with one packed forward per MAX_PACKED_ROWS rows,
    encoding the question once. A passage token takes
    `rows_per_passage_token` rows of its segment."""

    def __init__(self, model: MicroLM, mode: str, loglik, rows_per_passage_token: int = 1):
        _check_mode(mode)
        self.model, self.mode, self._loglik = model, mode, loglik
        self._rows_per_token = rows_per_passage_token
        self._separator_rows = len(model.vocab.encode(SEPARATOR_TEXT))

    def score_many(self, question_text: str, passage_texts: list[str]) -> list[float]:
        q = self.model.vocab.encode(question_text)
        passages = [self.model.vocab.encode(t) for t in passage_texts]
        tail = self._separator_rows + len(q)
        rows = [self._rows_per_token * len(d) + tail for d in passages]
        return [score for group in _groups(passages, rows, MAX_PACKED_ROWS)
                for score in _scores(self._loglik(q, group), q, self.mode)]

    def __call__(self, question_text: str, passage_text: str) -> float:
        return self.score_many(question_text, [passage_text])[0]


def make_pspt_scorer(model: MicroLM, params: PsptParams, mode: str = "sum",
                     literal_concat: bool = False) -> ListScorer:
    return ListScorer(model, mode, lambda q, ds: question_loglik(q, ds, params, model,
                                                                 literal_concat),
                      rows_per_passage_token=2 if literal_concat else 1)


def make_upr_scorer(model: MicroLM, prompt_text: str = DEFAULT_UPR_PROMPT,
                    mode: str = "sum",
                    example_texts: tuple[str, str] | None = None) -> ListScorer:
    example = None
    if example_texts is not None:
        example = (model.vocab.encode(example_texts[0]), model.vocab.encode(example_texts[1]))
    return ListScorer(model, mode, lambda q, ds: hard_prompt_loglik(q, ds, model, prompt_text,
                                                                    example))


def _validate_candidates(candidates: list[Candidate]) -> None:
    if not candidates:
        raise InputError("candidate list is empty")
    seen = set()
    for c in candidates:
        if c.passage_id in seen:
            raise InputError(f"duplicate passage_id {c.passage_id!r} in candidate list")
        seen.add(c.passage_id)


def rerank_with_scores(question_text: str, candidates: list[Candidate], scorer: Scorer,
                       workers: int = 1) -> list[tuple[Candidate, float]]:
    """Score every candidate once and sort by score descending.

    Ties keep retriever order. A scorer with `score_many` scores the whole
    list in one call; plain `(question, passage) -> score` callables are
    called per candidate. `workers` is accepted for compatibility and has
    no effect.
    """
    _validate_candidates(candidates)
    texts = [c.text for c in candidates]
    score_many = getattr(scorer, "score_many", None)
    if score_many is not None:
        scores = score_many(question_text, texts)
    else:
        scores = [scorer(question_text, t) for t in texts]
    order = sorted(range(len(candidates)),
                   key=lambda i: (-scores[i], candidates[i].retriever_rank))
    return [(candidates[i], scores[i]) for i in order]


def rerank(question_text: str, candidates: list[Candidate], scorer: Scorer,
           workers: int = 1) -> list[Candidate]:
    """Permutation of the input candidates, best PSPT/UPR score first."""
    return [c for c, _ in rerank_with_scores(question_text, candidates, scorer, workers)]
