"""Question log-likelihood scoring and candidate-list reranking.

The score of a passage is the (teacher-forced) log-likelihood of the
question tokens after a prefix, the passage, and a separator. PSPT and
the UPR baselines score through one primitive: PSPT passes the trainable
soft prompt and adapted passage embeddings, UPR a hard prompt's token
embeddings and the frozen passage embeddings. UPR-Inst is UPR whose
prompt text ends with one in-context example passage and question.
A score is the summed log-likelihood; `ListScorer` applies the score
mode ("sum" or "mean" over question tokens).

A question's candidates are scored together: the prefix is shared by
one packed forward and computed once, and each passage is a segment
after it that sees the prefix but no other passage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import adapter
from . import tensor as T
# assemble_blocks and assemble_input are not used here; perfbench's tracer
# wraps them under these names
from .adapter import (  # noqa: F401
    SEPARATOR_TEXT,
    PsptParams,
    assemble_blocks,
    assemble_input,
    assemble_segments,
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
class Candidate:
    passage_id: str
    text: str
    retriever_rank: int
    retriever_score: float


def _packed_loglik(model: MicroLM, prefix: Tensor, question_ids, passages,
                   embed_passages) -> Tensor:
    """Question log-likelihood after `prefix` and each passage, one entry per
    passage, from one packed forward in which the prefix is computed once.
    `embed_passages` maps passage ids to one input row per id."""
    if not passages:
        raise ContractError("scoring needs at least one passage")
    if not all(isinstance(d, (list, tuple, np.ndarray)) for d in passages):
        raise ContractError("passages must be a list of token-id lists")
    packed = assemble_segments(model, passages, question_ids, embed_passages,
                               prefix_rows=prefix.shape[0])
    shape = (len(packed.lengths), -1)
    rows = np.reshape(packed.target_positions, shape)
    logprobs = model.forward_logprobs(packed.embeddings, packed.lengths, prefix, rows)
    flat = T.reshape(logprobs, (rows.size, model.config.vocab_size))
    picked = T.take_entries(flat, np.arange(rows.size).reshape(shape),
                            np.reshape(packed.target_ids, shape))
    return T.tsum(picked, axis=1)


def question_loglik(question_ids, passages, params: PsptParams, model: MicroLM) -> Tensor:
    """Differentiable sum of question-token log-probs after the soft prompt
    and each adapted passage, one entry per passage."""
    # passage_embedding is looked up on its module per call, where perfbench's tracer wraps it
    return _packed_loglik(model, params.soft_prompt.e1, question_ids, passages,
                          lambda ids: adapter.passage_embedding(ids, params, model))


def hard_prompt_loglik(question_ids, passages, model: MicroLM, prompt_text: str) -> Tensor:
    """Log-likelihood after a hard prompt and each frozen passage, one entry
    per passage."""
    prefix_ids = model.vocab.encode(prompt_text)
    if not prefix_ids:
        raise ConfigError(f"prompt text {prompt_text!r} tokenizes to nothing")
    return _packed_loglik(model, model.embed(prefix_ids), question_ids, passages, model.embed)


def score_pspt(question_ids, passage_ids, params: PsptParams, model: MicroLM) -> float:
    return float(question_loglik(question_ids, [passage_ids], params, model).data[0])


def score_upr(question_ids, passage_ids, model: MicroLM,
              prompt_text: str = DEFAULT_UPR_PROMPT) -> float:
    return float(hard_prompt_loglik(question_ids, [passage_ids], model, prompt_text).data[0])


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
    encoding the question once."""

    def __init__(self, model: MicroLM, mode: str, loglik):
        if mode not in ("sum", "mean"):
            raise ConfigError(f"score mode must be 'sum' or 'mean', got {mode!r}")
        self.model, self.mode, self._loglik = model, mode, loglik
        self._separator_rows = len(model.vocab.encode(SEPARATOR_TEXT))

    def score_many(self, question_text: str, passage_texts: list[str]) -> list[float]:
        q = self.model.vocab.encode(question_text)
        passages = [self.model.vocab.encode(t) for t in passage_texts]
        rows = [len(d) + self._separator_rows + len(q) for d in passages]
        div = len(q) if self.mode == "mean" else 1
        return [float(s) / div for group in _groups(passages, rows, MAX_PACKED_ROWS)
                for s in self._loglik(q, group).data]

    def __call__(self, question_text: str, passage_text: str) -> float:
        return self.score_many(question_text, [passage_text])[0]


def make_pspt_scorer(model: MicroLM, params: PsptParams, mode: str = "sum") -> ListScorer:
    return ListScorer(model, mode, lambda q, ds: question_loglik(q, ds, params, model))


def make_upr_scorer(model: MicroLM, prompt_text: str = DEFAULT_UPR_PROMPT,
                    mode: str = "sum") -> ListScorer:
    return ListScorer(model, mode, lambda q, ds: hard_prompt_loglik(q, ds, model, prompt_text))


def _validate_candidates(candidates: list[Candidate]) -> None:
    if not candidates:
        raise InputError("candidate list is empty")
    seen = set()
    for c in candidates:
        if c.passage_id in seen:
            raise InputError(f"duplicate passage_id {c.passage_id!r} in candidate list")
        seen.add(c.passage_id)


def rerank_with_scores(question_text: str, candidates: list[Candidate],
                       scorer: Scorer) -> list[tuple[Candidate, float]]:
    """Score every candidate once and sort by score descending.

    Ties keep retriever order. A scorer with `score_many` scores the whole
    list in one call; plain `(question, passage) -> score` callables are
    called per candidate.
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


def rerank(question_text: str, candidates: list[Candidate], scorer: Scorer) -> list[Candidate]:
    """Permutation of the input candidates, best PSPT/UPR score first."""
    return [c for c, _ in rerank_with_scores(question_text, candidates, scorer)]
