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
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint_file, save_checkpoint_file
from .errors import CheckpointError, ConfigError, ContractError, SequenceLengthError
from .model import MicroLM
from .tensor import Tensor

DEFAULT_HARD_PROMPT = "please generate question for this passage"
SEPARATOR_TEXT = "question :"


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


def assemble_segments(model: MicroLM, passages, question_ids, embed_passages,
                      prefix_rows: int = 0) -> AssembledInput:
    """Pack one [passage rows; separator; question] segment per passage,
    row-wise, each to follow a shared prefix of `prefix_rows` rows.

    `embed_passages` maps the kept ids of all passages, concatenated, to
    one row per id, so the tensor work is done once for the whole list.
    Passages are truncated from the right so that prefix and segment fit
    max_seq_len; questions are never truncated.
    """
    question_ids = model.validate_ids(question_ids)
    if not question_ids:
        raise ContractError("question must contain at least one token")
    tail_ids = model.vocab.encode(SEPARATOR_TEXT) + question_ids
    budget = model.config.max_seq_len - prefix_rows - len(tail_ids)
    if budget < 0:
        raise SequenceLengthError(
            f"prompt ({prefix_rows}) + separator ({len(tail_ids) - len(question_ids)}) + "
            f"question ({len(question_ids)}) exceed max_seq_len {model.config.max_seq_len}"
        )
    kept = [list(d)[:budget] for d in passages]
    n_kept = sum(len(d) for d in kept)
    rows = embed_passages([t for d in kept for t in d])
    table = T.concat_rows([rows, model.embed(tail_ids)])  # passage rows, then the tail
    tail = range(n_kept, n_kept + len(tail_ids))
    index, lengths, targets = [], [], []
    first = 0  # this passage's first row in the table
    for d in kept:
        seg_start = len(index)
        index.extend(range(first, first + len(d)))
        index.extend(tail)
        first += len(d)
        lengths.append(len(index) - seg_start)
        targets.extend(range(len(index) - len(question_ids) - 1, len(index) - 1))
    return AssembledInput(T.gather_rows(table, index), targets, question_ids * len(kept), lengths)


def assemble_blocks(model: MicroLM, prefix_blocks, passage_ids, question_ids,
                    embed_passages) -> AssembledInput:
    """One full sequence: the prefix blocks, then the passage's segment from
    assemble_segments; positions count from the start of the prefix."""
    n_pre = sum(b.shape[0] for b in prefix_blocks)
    seg = assemble_segments(model, [passage_ids], question_ids, embed_passages,
                            prefix_rows=n_pre)
    x = T.concat_rows([*prefix_blocks, seg.embeddings])
    return AssembledInput(x, [n_pre + r for r in seg.target_positions], seg.target_ids,
                          [x.shape[0]])


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
