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
import sys
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
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"adapter alpha must be positive and finite, got {self.alpha}")

    @property
    def rank(self) -> int:
        return self.A.shape[1]

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
                            self.adapter.alpha)
        return PsptParams(sp, ad)


def init_soft_prompt(text: str, length: int, model: MicroLM) -> SoftPrompt:
    """Soft prompt rows are the hard prompt's token embeddings, cycled."""
    if length < 1:
        raise ConfigError("soft prompt length must be at least 1")
    if length + SEPARATOR_ROWS + 1 > model.config.max_seq_len:
        raise ConfigError(f"soft prompt length {length} leaves no room for the separator "
                          f"({SEPARATOR_ROWS}) and a question in max_seq_len "
                          f"{model.config.max_seq_len}")
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
    return LowRankAdapter(Tensor(a), Tensor(b), float(alpha))


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
    e4 = model.embed(passage_ids)  # checks the ids that index A too
    e3 = T.matmul(T.gather_rows(params.adapter.A, passage_ids), params.adapter.B)
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
    truncated. Each distinct kept passage is one [passage; separator]
    segment, placed at its first use, and each pair's question is a
    segment that continues its passage's, so a passage that several pairs
    use is encoded once. `embed_passages` maps the ids of the distinct kept
    passages, concatenated, to one row per id, so the tensor work is done
    once for the whole list; it gets them cut from the checked index array.
    """
    n_pre = prefix.shape[0]
    sep_ids = model.vocab.encode(SEPARATOR_TEXT)
    kept = []
    for d, q in pairs:
        q = list(q)
        if not q:
            raise ContractError("question must contain at least one token")
        budget = model.config.max_seq_len - n_pre - SEPARATOR_ROWS - len(q)
        if budget < 0:
            raise SequenceLengthError(
                f"prompt ({n_pre}) + separator ({SEPARATOR_ROWS}) + "
                f"question ({len(q)}) exceed max_seq_len {model.config.max_seq_len}")
        kept.append((tuple(d)[:budget], q))
    # check every kept id before equal passages merge: (True, 5) == (1, 5) would hide a bool
    ids = model.check_ids([t for d, _ in kept for t in d])
    distinct = list(dict.fromkeys(d for d, _ in kept))  # in order of first use
    first = dict(zip(distinct, accumulate(map(len, distinct), initial=n_pre)))  # rows in the table
    # each distinct passage's slice of `ids` (equal passages have equal checked ids)
    at = dict(zip((d for d, _ in kept), accumulate((len(d) for d, _ in kept), initial=0)))
    rows = embed_passages(np.concatenate([ids[:0], *(ids[at[d]:at[d] + len(d)] for d in distinct)]))
    index, lengths, parents = list(range(n_pre)), [n_pre], [-1]
    tail_ids, targets = [], []
    segments = {}  # each passage's segment and the row of its last separator token

    def segment(passage_rows, tail, parent):
        at = n_pre + rows.shape[0] + len(tail_ids)
        index.extend([*passage_rows, *range(at, at + len(tail))])
        tail_ids.extend(tail)
        lengths.append(len(passage_rows) + len(tail))
        parents.append(parent)

    for d, q in kept:
        if d not in segments:
            segment(range(first[d], first[d] + len(d)), sep_ids, 0)
            segments[d] = (len(lengths) - 1, len(index) - 1)
        parent, last = segments[d]
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
    a, b, r = ckpt.buffers["pspt.A"], ckpt.buffers["pspt.B"], ckpt.meta.get("r")
    if not (type(r) is int and r >= 1 and a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0] == r):
        raise CheckpointError(f"adapter meta 'r' {r!r} is not an integer >= 1 equal to "
                              f"A's columns and B's rows (A {a.shape}, B {b.shape})")
    hard_prompt, alpha = ckpt.meta.get("hard_prompt", DEFAULT_HARD_PROMPT), ckpt.meta.get("alpha")
    if type(hard_prompt) is not str:
        raise CheckpointError(f"adapter meta 'hard_prompt' {hard_prompt!r} is not a string")
    if not (type(alpha) in (int, float) and 0 < alpha <= sys.float_info.max):  # not a bool
        raise CheckpointError(f"adapter meta 'alpha' {alpha!r} is not a positive, finite number")
    return PsptParams(SoftPrompt(Tensor(ckpt.buffers["pspt.e1"]), hard_prompt),
                      LowRankAdapter(Tensor(a), Tensor(b), float(alpha)))
