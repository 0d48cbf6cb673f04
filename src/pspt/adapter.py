"""Trainable parameters: task soft prompt plus low-rank passage adapter.

Like every parameter they are created frozen; training unfreezes them one
step at a time with `pspt.optim.trainable`. The soft prompt is
initialized from the frozen embeddings of a hard prompt string, cycled to
the configured length. The adapter factors a full vocab-by-dim embedding
delta into A (vocab x rank, Gaussian init) and B (rank x dim, zero init),
scaled by alpha/rank, so a fresh adapter contributes exactly nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint_file, save_checkpoint_file
from .errors import CheckpointError, ConfigError, ContractError, SequenceLengthError
from .model import MicroLM, tokenize_text
from .tensor import Tensor

DEFAULT_HARD_PROMPT = "please generate question for this passage"
SEPARATOR_TEXT = "question :"
# encode() maps each token to one id, so this is the separator's row count
SEPARATOR_ROWS = len(tokenize_text(SEPARATOR_TEXT))


@dataclass
class SoftPrompt:
    e1: Tensor
    init_text: str

    @property
    def length(self) -> int:
        return self.e1.shape[0]


@dataclass
class LowRankAdapter:
    A: Tensor
    B: Tensor
    rank: int
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"adapter alpha must be positive and finite, got {self.alpha}")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


@dataclass
class PsptParams:
    soft_prompt: SoftPrompt
    adapter: LowRankAdapter

    def tensors(self) -> dict[str, Tensor]:
        return {
            "pspt.e1": self.soft_prompt.e1,
            "pspt.A": self.adapter.A,
            "pspt.B": self.adapter.B,
        }

    def astype(self, dtype) -> "PsptParams":
        sp = SoftPrompt(self.soft_prompt.e1.astype(dtype), self.soft_prompt.init_text)
        ad = LowRankAdapter(self.adapter.A.astype(dtype), self.adapter.B.astype(dtype),
                            self.adapter.rank, self.adapter.alpha)
        return PsptParams(sp, ad)


def init_soft_prompt(text: str, length: int, model: MicroLM) -> SoftPrompt:
    """Soft prompt rows are the hard prompt's token embeddings, cycled."""
    if length < 1:
        raise ConfigError("soft prompt length must be at least 1")
    ids = model.vocab.encode(text)
    if not ids:
        raise ConfigError(f"hard prompt {text!r} tokenizes to nothing")
    table = model.params["tok_emb"].data
    rows = np.stack([table[ids[i % len(ids)]] for i in range(length)]).copy()
    return SoftPrompt(Tensor(rows), text)


def init_adapter(vocab_size: int, rank: int, dim: int, alpha: float, seed: int) -> LowRankAdapter:
    if rank < 1:
        raise ConfigError("adapter rank must be at least 1")
    if rank > dim:
        raise ConfigError(f"adapter rank {rank} exceeds embedding width {dim}")
    rng = T.make_rng(seed, 3)
    a = rng.normal(0.0, 0.02, size=(vocab_size, rank)).astype(np.float32)
    b = np.zeros((rank, dim), dtype=np.float32)
    return LowRankAdapter(Tensor(a), Tensor(b), rank, float(alpha))


def init_pspt_params(model: MicroLM, hard_prompt: str = DEFAULT_HARD_PROMPT,
                     soft_prompt_len: int = 50, rank: int = 1, alpha: float = 16.0,
                     seed: int = 0) -> PsptParams:
    soft = init_soft_prompt(hard_prompt, soft_prompt_len, model)
    adapter = init_adapter(model.config.vocab_size, rank, model.config.dim, alpha, seed)
    return PsptParams(soft, adapter)


def check_params_fit(params: PsptParams, model: MicroLM) -> None:
    """Raise CheckpointError unless loaded params fit the model: e1 is
    [l_s >= 1, dim], A is [vocab, r] and B is [r, dim], with r >= 1."""
    dim, vocab, r = model.config.dim, model.config.vocab_size, params.adapter.rank
    e1, a, b = params.soft_prompt.e1, params.adapter.A, params.adapter.B
    if not (r >= 1 and a.shape == (vocab, r) and b.shape == (r, dim)
            and e1.ndim == 2 and e1.shape[0] >= 1 and e1.shape[1] == dim):
        raise CheckpointError(
            f"adapter shapes e1 {e1.shape}, A {a.shape}, B {b.shape} (r={r}) do not fit "
            f"a model of vocabulary {vocab} and width {dim}")


def passage_embedding(passage_ids, params: PsptParams, model: MicroLM) -> Tensor:
    """Adapted passage embeddings: gather(A)[d] @ B * (alpha/rank) + frozen rows."""
    ids = model.validate_ids(passage_ids)
    e4 = model.embed(ids)
    e3 = T.matmul(T.gather_rows(params.adapter.A, ids), params.adapter.B)
    return T.add(T.mul(e3, params.adapter.scaling), e4)


@dataclass
class AssembledInput:
    embeddings: Tensor
    target_positions: list[int]  # rows of `embeddings` that predict each target
    target_ids: list[int]
    lengths: list[int]  # rows per segment, in order; they sum to the row count
    parents: list[int]  # the earlier segment each segment continues, or -1 for a root


def assemble_segments(model: MicroLM, pairs, embed_passages, prefix: Tensor) -> AssembledInput:
    """Pack `prefix` and the (passage_ids, question_ids) pairs row-wise
    into segments: the prefix is segment 0, the root that every passage
    segment continues.

    A passage is truncated from the right so that prefix, passage,
    separator and its pair's question fit max_seq_len; questions are never
    truncated. A kept passage that one pair uses is one [passage;
    separator; question] segment. A kept passage that several pairs use
    is one [passage; separator] segment, and each of those pairs' questions
    is a segment that continues it, so the passage is encoded once.
    `embed_passages` maps the ids of the distinct kept passages,
    concatenated, to one row per id, so the tensor work is done once for
    the whole list.
    """
    n_pre = prefix.shape[0]
    sep_ids = model.vocab.encode(SEPARATOR_TEXT)
    kept = []
    for d, q in pairs:
        q = model.validate_ids(q)
        if not q:
            raise ContractError("question must contain at least one token")
        budget = model.config.max_seq_len - n_pre - SEPARATOR_ROWS - len(q)
        if budget < 0:
            raise SequenceLengthError(
                f"prompt ({n_pre}) + separator ({SEPARATOR_ROWS}) + "
                f"question ({len(q)}) exceed max_seq_len {model.config.max_seq_len}")
        kept.append((tuple(d)[:budget], q))
    uses = Counter(d for d, _ in kept)  # the distinct kept passages, in order of first use
    first = dict(zip(uses, accumulate(map(len, uses), initial=n_pre)))  # first rows in the table
    rows = embed_passages([t for d in uses for t in d])
    index, lengths, parents = list(range(n_pre)), [n_pre], [-1]
    tail_ids, targets = [], []
    shared = {}  # a shared passage's segment and the row of its last separator token

    def segment(passage_rows, tail, parent):
        at = n_pre + rows.shape[0] + len(tail_ids)
        index.extend([*passage_rows, *range(at, at + len(tail))])
        tail_ids.extend(tail)
        lengths.append(len(passage_rows) + len(tail))
        parents.append(parent)

    for d, q in kept:
        own = range(first[d], first[d] + len(d))
        if uses[d] == 1:
            segment(own, sep_ids + q, 0)
            last = len(index) - len(q) - 1
        else:
            if d not in shared:
                segment(own, sep_ids, 0)
                shared[d] = (len(lengths) - 1, len(index) - 1)
            parent, last = shared[d]
            segment(range(0), q, parent)
        targets += [last, *range(len(index) - len(q), len(index) - 1)]
    table = T.concat_rows([prefix, rows, model.embed(tail_ids)])  # prefix, passages, tails
    return AssembledInput(T.gather_rows(table, index), targets,
                          [t for _, q in kept for t in q], lengths, parents)


def assemble_blocks(model: MicroLM, prefix_blocks, passage_ids, question_ids,
                    embed_passages) -> AssembledInput:
    """One full sequence: the prefix blocks as one segment, then the
    passage's segment from assemble_segments."""
    return assemble_segments(model, [(passage_ids, question_ids)], embed_passages,
                             T.concat_rows(prefix_blocks))


def assemble_input(params: PsptParams, passage_ids, question_ids,
                   model: MicroLM) -> AssembledInput:
    """Model input for PSPT scoring: [e1; adapted passage; sep; question]."""
    return assemble_blocks(model, [params.soft_prompt.e1], passage_ids, question_ids,
                           lambda ids: passage_embedding(ids, params, model))


def save_params(params: PsptParams, path) -> None:
    meta = {
        "l_s": params.soft_prompt.length,
        "r": params.adapter.rank,
        "alpha": params.adapter.alpha,
        "hard_prompt": params.soft_prompt.init_text,
    }
    buffers = {name: t.data for name, t in params.tensors().items()}
    save_checkpoint_file(path, buffers, meta=meta)


def load_params(path) -> PsptParams:
    ckpt = load_checkpoint_file(path)
    for name in ("pspt.e1", "pspt.A", "pspt.B"):
        if name not in ckpt.buffers:
            raise CheckpointError(f"missing adapter buffer {name!r}")
    try:
        rank, alpha = int(ckpt.meta["r"]), float(ckpt.meta["alpha"])
    except (KeyError, TypeError, ValueError):
        raise CheckpointError("adapter checkpoint meta needs numeric 'r' and 'alpha'") from None
    soft = SoftPrompt(Tensor(ckpt.buffers["pspt.e1"]),
                      ckpt.meta.get("hard_prompt", DEFAULT_HARD_PROMPT))
    try:
        adapter = LowRankAdapter(Tensor(ckpt.buffers["pspt.A"]), Tensor(ckpt.buffers["pspt.B"]),
                                 rank, alpha)
    except ConfigError as exc:
        raise CheckpointError(f"invalid adapter meta: {exc}") from None
    return PsptParams(soft, adapter)
