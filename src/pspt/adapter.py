"""Trainable parameters: task soft prompt plus low-rank passage adapter.

These are the only tensors in the system with requires_grad=True. The
soft prompt is initialized from the frozen embeddings of a hard prompt
string, cycled to the configured length. The adapter factors a full
vocab-by-dim embedding delta into A (vocab x rank, Gaussian init) and
B (rank x dim, zero init), scaled by alpha/rank, so a fresh adapter
contributes exactly nothing.
"""

from __future__ import annotations

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

    def count(self) -> int:
        return sum(t.size for t in self.tensors().values())

    def copy(self) -> "PsptParams":
        sp = SoftPrompt(Tensor(self.soft_prompt.e1.data.copy(), requires_grad=True),
                        self.soft_prompt.init_text)
        ad = LowRankAdapter(Tensor(self.adapter.A.data.copy(), requires_grad=True),
                            Tensor(self.adapter.B.data.copy(), requires_grad=True),
                            self.adapter.rank, self.adapter.alpha)
        return PsptParams(sp, ad)

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
    return SoftPrompt(Tensor(rows, requires_grad=True), text)


def init_adapter(vocab_size: int, rank: int, dim: int, alpha: float, seed: int) -> LowRankAdapter:
    if rank < 1:
        raise ConfigError("adapter rank must be at least 1")
    if rank > dim:
        raise ConfigError(f"adapter rank {rank} exceeds embedding width {dim}")
    if alpha <= 0:
        raise ConfigError("adapter alpha must be positive")
    rng = T.make_rng(seed, 3)
    a = rng.normal(0.0, 0.02, size=(vocab_size, rank)).astype(np.float32)
    b = np.zeros((rank, dim), dtype=np.float32)
    return LowRankAdapter(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True), rank, float(alpha))


def init_pspt_params(model: MicroLM, hard_prompt: str = DEFAULT_HARD_PROMPT,
                     soft_prompt_len: int = 50, rank: int = 1, alpha: float = 16.0,
                     seed: int = 0) -> PsptParams:
    soft = init_soft_prompt(hard_prompt, soft_prompt_len, model)
    adapter = init_adapter(model.config.vocab_size, rank, model.config.dim, alpha, seed)
    return PsptParams(soft, adapter)


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


def assemble_segments(model: MicroLM, passages, question_ids, passage_blocks_fn,
                      rows_per_passage_token: int = 1, prefix_rows: int = 0) -> AssembledInput:
    """Pack one [passage block; separator; question] segment per passage,
    row-wise, each to follow a shared prefix of `prefix_rows` rows.

    `passage_blocks_fn` maps the kept ids of all passages, concatenated,
    to `rows_per_passage_token` tensors with one row per id; a passage's
    block is its rows from each tensor in turn. The tensor work is done
    once for the whole list. Passages are truncated from the right so
    that prefix and segment fit max_seq_len; questions are never
    truncated.
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
    kept = [list(d)[: budget // rows_per_passage_token] for d in passages]
    n_kept = sum(len(d) for d in kept)
    blocks = passage_blocks_fn([t for d in kept for t in d])
    table = T.concat_rows([*blocks, model.embed(tail_ids)])  # block rows, then the tail
    tail = range(rows_per_passage_token * n_kept, rows_per_passage_token * n_kept + len(tail_ids))
    index, lengths, targets = [], [], []
    first = 0  # this passage's first row within each block
    for d in kept:
        seg_start = len(index)
        for b in range(rows_per_passage_token):
            index.extend(range(b * n_kept + first, b * n_kept + first + len(d)))
        index.extend(tail)
        first += len(d)
        lengths.append(len(index) - seg_start)
        targets.extend(range(len(index) - len(question_ids) - 1, len(index) - 1))
    return AssembledInput(T.gather_rows(table, index), targets, question_ids * len(kept), lengths)


def assemble_blocks(model: MicroLM, prefix_blocks, passage_ids, question_ids,
                    passage_blocks_fn, rows_per_passage_token: int = 1) -> AssembledInput:
    """One full sequence: the prefix blocks, then the passage's segment from
    assemble_segments; positions count from the start of the prefix."""
    n_pre = sum(b.shape[0] for b in prefix_blocks)
    seg = assemble_segments(model, [passage_ids], question_ids, passage_blocks_fn,
                            rows_per_passage_token, prefix_rows=n_pre)
    x = T.concat_rows([*prefix_blocks, seg.embeddings])
    return AssembledInput(x, [n_pre + r for r in seg.target_positions], seg.target_ids,
                          [x.shape[0]])


def pspt_passage_blocks(params: PsptParams, model: MicroLM, literal_concat: bool = False):
    """The passage_blocks_fn of PSPT: adapted passage rows, then with
    literal_concat the raw frozen rows as a second block."""
    def blocks(ids):
        adapted = passage_embedding(ids, params, model)
        return [adapted, model.embed(ids)] if literal_concat else [adapted]

    return blocks


def assemble_input(params: PsptParams, passage_ids, question_ids, model: MicroLM,
                   literal_concat: bool = False) -> AssembledInput:
    """Model input for PSPT scoring: [e1; adapted passage; sep; question].

    With literal_concat the raw frozen passage embeddings are appended
    after the adapted ones as a separate block.
    """
    return assemble_blocks(model, [params.soft_prompt.e1], passage_ids, question_ids,
                           pspt_passage_blocks(params, model, literal_concat),
                           rows_per_passage_token=2 if literal_concat else 1)


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
    soft = SoftPrompt(Tensor(ckpt.buffers["pspt.e1"], requires_grad=True),
                      ckpt.meta.get("hard_prompt", DEFAULT_HARD_PROMPT))
    adapter = LowRankAdapter(Tensor(ckpt.buffers["pspt.A"], requires_grad=True),
                             Tensor(ckpt.buffers["pspt.B"], requires_grad=True),
                             int(ckpt.meta["r"]), float(ckpt.meta["alpha"]))
    return PsptParams(soft, adapter)
