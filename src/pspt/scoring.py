"""Question log-likelihood scoring and candidate-list reranking.

The score of a passage is the (teacher-forced) log-likelihood of the
question tokens after a prefix, the passage, and a separator. PSPT and
the UPR baselines score through one primitive: PSPT passes the trainable
soft prompt and adapted passage embeddings, UPR a hard prompt's token
embeddings and the frozen passage embeddings. UPR-Inst is UPR whose
prompt text ends with one in-context example passage and question.
A score is the summed log-likelihood. Reranking takes its scores from
one `score_many` call per candidate list.

Pairs are scored together, one question per passage, in packed forwards
of at most about MAX_PACKED_ROWS rows, cut here for candidate lists,
training steps and dev passes alike: the prefix is the root segment of
each forward, computed once, and each distinct passage is a [passage;
separator] segment that continues it, seeing the prefix but no other
passage. Each pair's question is a segment that continues its passage,
so a passage that several pairs of the forward use is computed once too.
A candidate list repeats one question and no passage; a training step or
dev pass packs many questions, and a training step repeats each positive
as the other questions' negative.

Only the rows that predict question tokens are read: the model's last
layer runs past its keys and values for those rows alone, and only they
are projected to the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Rows per packed forward of every scoring call, counting passage, separator
# and question rows per pair. A forward holds a few activation arrays of
# its full row count at once, so this bounds scoring memory: ten UPR-scored
# passages of ~150 tokens (1632 rows) peak at 5.1 MB of numpy allocations
# (tracemalloc) in one forward and 2.0 MB in 512-row slices at dim 64 with
# 2 layers. Short-passage lists and small training steps fit in one forward.
MAX_PACKED_ROWS = 512


@dataclass(frozen=True)
class Candidate:
    passage_id: str
    text: str
    retriever_rank: int
    retriever_score: float


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


def _packed_loglik(model: MicroLM, prefix: Tensor, question_ids, passages,
                   embed_passages) -> Tensor:
    """Log-likelihood of each passage's question after `prefix` and the
    passage, one entry per passage, from one packed forward per
    MAX_PACKED_ROWS rows of consecutive pairs, in which the prefix is the
    root segment, computed once. `question_ids` holds one question per
    passage; `embed_passages` maps passage ids to one input row per id."""
    if not passages or len(question_ids) != len(passages) or not all(
            isinstance(s, (list, tuple, np.ndarray)) for s in [*passages, *question_ids]):
        raise ContractError("scoring needs at least one passage and one question per passage, "
                            "each a list of token ids")
    pairs = list(zip(passages, question_ids))
    sizes = [len(d) + SEPARATOR_ROWS + len(q) for d, q in pairs]
    scores = []
    for group in _groups(pairs, sizes, MAX_PACKED_ROWS):
        packed = assemble_segments(model, group, embed_passages, prefix)
        # each pair's targets, padded with its last one to the longest question and masked out
        mask = np.arange(max(len(q) for _, q in group)) < np.array([[len(q)] for _, q in group])
        picks = np.cumsum(mask).reshape(mask.shape) - 1
        rows = np.asarray(packed.target_positions)[picks]
        logprobs = model.forward_logprobs(packed.embeddings, packed.lengths, packed.parents, rows)
        flat = T.reshape(logprobs, (rows.size, model.config.vocab_size))
        picked = T.take_entries(flat, np.arange(rows.size).reshape(rows.shape),
                                np.asarray(packed.target_ids)[picks])
        scores.append(T.tsum(T.mul(picked, mask.astype(model.dtype)), axis=1))
    return T.concat_rows(scores)


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


class ListScorer:
    """Scores a candidate list with one `score_many` call of the scoring
    primitive, encoding the question once. Calling it scores one passage;
    perfbench's float64 correctness gate does."""

    def __init__(self, model: MicroLM, loglik):
        self.model, self._loglik = model, loglik

    def score_many(self, question_text: str, passage_texts: list[str]) -> list[float]:
        q = self.model.vocab.encode(question_text)
        passages = [self.model.vocab.encode(t) for t in passage_texts]
        return [float(s) for s in self._loglik([q] * len(passages), passages).data]

    def __call__(self, question_text: str, passage_text: str) -> float:
        return self.score_many(question_text, [passage_text])[0]


def make_pspt_scorer(model: MicroLM, params: PsptParams) -> ListScorer:
    return ListScorer(model, lambda q, ds: question_loglik(q, ds, params, model))


def make_upr_scorer(model: MicroLM, prompt_text: str = DEFAULT_UPR_PROMPT) -> ListScorer:
    return ListScorer(model, lambda q, ds: hard_prompt_loglik(q, ds, model, prompt_text))


def _validate_candidates(candidates: list[Candidate]) -> None:
    if not candidates:
        raise InputError("candidate list is empty")
    seen = set()
    for c in candidates:
        if c.passage_id in seen:
            raise InputError(f"duplicate passage_id {c.passage_id!r} in candidate list")
        seen.add(c.passage_id)


def rerank_with_scores(question_text: str, candidates: list[Candidate],
                       scorer: ListScorer) -> list[tuple[Candidate, float]]:
    """Score the candidate list with one `scorer.score_many` call and sort
    by score descending. Ties keep retriever order."""
    _validate_candidates(candidates)
    scores = scorer.score_many(question_text, [c.text for c in candidates])
    order = sorted(range(len(candidates)),
                   key=lambda i: (-scores[i], candidates[i].retriever_rank))
    return [(candidates[i], scores[i]) for i in order]
