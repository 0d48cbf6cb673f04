"""Question log-likelihood scoring and candidate-list reranking.

The score of a passage is the (teacher-forced) log-likelihood of the
question tokens after a prefix, the passage, and a separator. PSPT and
the UPR baselines score through one primitive: PSPT passes the trainable
soft prompt and adapted passage embeddings, UPR a hard prompt's token
embeddings and the frozen passage embeddings. UPR-Inst is UPR whose
prompt text ends with one in-context example passage and question.
A score is the summed log-likelihood; `ListScorer` applies the score
mode ("sum" or "mean" over question tokens).

Pairs are scored together, one question per passage: the prefix is the
root segment of one packed forward, computed once, and each (passage,
question) pair is a segment that continues it, seeing the prefix but no
other pair. A passage that several pairs of the forward use is computed
once too, as a segment that their question segments continue. A
candidate list repeats one question and no passage; a training step or
dev group packs many questions, and a training step repeats each
positive as the other questions' negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import adapter
from . import tensor as T
from .adapter import SEPARATOR_ROWS, PsptParams, assemble_segments
# not used here; perfbench's tracer wraps them under these names
from .adapter import assemble_blocks, assemble_input  # noqa: F401
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
    """Log-likelihood of each passage's question after `prefix` and the
    passage, one entry per passage, from one packed forward in which the
    prefix is the root segment, computed once. `question_ids` holds one
    question per passage; `embed_passages` maps passage ids to one input
    row per id."""
    if not passages:
        raise ContractError("scoring needs at least one passage")
    if not all(isinstance(d, (list, tuple, np.ndarray)) for d in passages):
        raise ContractError("passages must be a list of token-id lists")
    packed = assemble_segments(model, list(zip(passages, question_ids, strict=True)),
                               embed_passages, prefix)
    # each passage's targets, padded with its last one to the longest question and masked out
    mask = np.arange(max(map(len, question_ids))) < np.array([[len(q)] for q in question_ids])
    picks = np.cumsum(mask).reshape(mask.shape) - 1
    rows = np.asarray(packed.target_positions)[picks]
    logprobs = model.forward_logprobs(packed.embeddings, packed.lengths, packed.parents, rows)
    flat = T.reshape(logprobs, (rows.size, model.config.vocab_size))
    picked = T.take_entries(flat, np.arange(rows.size).reshape(rows.shape),
                            np.asarray(packed.target_ids)[picks])
    return T.tsum(T.mul(picked, mask.astype(model.dtype)), axis=1)


def question_loglik(question_ids, passages, params: PsptParams, model: MicroLM) -> Tensor:
    """Differentiable sum of each passage's question-token log-probs after
    the soft prompt and the adapted passage, one entry per passage;
    `question_ids` holds one question per passage."""
    # passage_embedding is looked up on its module per call, where perfbench's tracer wraps it
    return _packed_loglik(model, params.soft_prompt.e1, question_ids, passages,
                          lambda ids: adapter.passage_embedding(ids, params, model))


def hard_prompt_loglik(question_ids, passages, model: MicroLM, prompt_text: str) -> Tensor:
    """Log-likelihood of each passage's question after a hard prompt and
    the frozen passage, one entry per passage."""
    prefix_ids = model.vocab.encode(prompt_text)
    if not prefix_ids:
        raise ConfigError(f"prompt text {prompt_text!r} tokenizes to nothing")
    return _packed_loglik(model, model.embed(prefix_ids), question_ids, passages, model.embed)


def score_pspt(question_ids, passage_ids, params: PsptParams, model: MicroLM) -> float:
    return float(question_loglik([question_ids], [passage_ids], params, model).data[0])


def score_upr(question_ids, passage_ids, model: MicroLM,
              prompt_text: str = DEFAULT_UPR_PROMPT) -> float:
    return float(hard_prompt_loglik([question_ids], [passage_ids], model, prompt_text).data[0])


def _groups(items: list, rows: list[int], max_rows: int) -> list[list]:
    """Consecutive runs of items whose segments, of `rows[i]` rows for item
    i, total at most max_rows rows (one item may exceed it alone)."""
    groups: list[list] = []
    total = max_rows
    for d, n in zip(items, rows):
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

    def score_many(self, question_text: str, passage_texts: list[str]) -> list[float]:
        q = self.model.vocab.encode(question_text)
        passages = [self.model.vocab.encode(t) for t in passage_texts]
        rows = [len(d) + SEPARATOR_ROWS + len(q) for d in passages]
        div = len(q) if self.mode == "mean" else 1
        return [float(s) / div for group in _groups(passages, rows, MAX_PACKED_ROWS)
                for s in self._loglik([q] * len(group), group).data]

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
