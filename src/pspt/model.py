"""Frozen micro decoder-only causal language model and its tokenizer.

The model accepts input *embeddings* rather than token ids so that learned
prompt vectors can be injected ahead of real tokens. All parameters are
created frozen; only pretraining temporarily unfreezes them.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    ConfigError,
    DataError,
    SequenceLengthError,
    ShapeError,
    VocabularyError,
)
from .optim import Adam, clip_global_norm, trainable
from .tensor import Tensor

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")
MAX_PARAMETERS = 2**31  # 8 GiB of float32

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split into alphanumeric runs and single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bijection between token strings and contiguous ids; ids 0-3 reserved."""

    def __init__(self, tokens: list[str]):
        seen = set()
        for tok in tokens:
            if tok in seen or tok in RESERVED_TOKENS:
                raise ConfigError(f"duplicate or reserved vocabulary token: {tok!r}")
            seen.add(tok)
        self.tokens = list(tokens)
        self._id_of = {tok: i + len(RESERVED_TOKENS) for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(RESERVED_TOKENS) + len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._id_of.get(token, UNK_ID)

    def encode(self, text: str) -> list[int]:
        return [self.id_of(tok) for tok in tokenize_text(text)]

    @classmethod
    def from_texts(cls, texts, cap: int = 2048) -> "Vocabulary":
        """Frequency-ranked vocabulary of `cap` tokens at most, the reserved
        ones included; ties broken lexicographically."""
        if cap <= len(RESERVED_TOKENS):
            raise ConfigError(f"vocabulary cap {cap} leaves no room beside the "
                              f"{len(RESERVED_TOKENS)} reserved tokens")
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(tokenize_text(text))
        ranked = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(ranked[: cap - len(RESERVED_TOKENS)])


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    dim: int = 128
    n_layers: int = 4
    n_heads: int = 4
    max_seq_len: int = 256
    ffn_mult: int = 4

    def __post_init__(self):
        for name in ("vocab_size", "dim", "n_layers", "n_heads", "max_seq_len", "ffn_mult"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.dim % self.n_heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < len(RESERVED_TOKENS):
            raise ConfigError(f"vocab_size must be at least {len(RESERVED_TOKENS)}")
        if self.param_count > MAX_PARAMETERS:
            raise ConfigError(f"model of {self.param_count} parameters exceeds the limit of "
                              f"{MAX_PARAMETERS}")

    @property
    def param_count(self) -> int:
        """The sizes of param_shapes summed, in time independent of n_layers."""
        head, layer, tail = _shape_table(self)
        return (sum(map(math.prod, [*head.values(), *tail.values()]))
                + self.n_layers * sum(map(math.prod, layer.values())))


def _shape_table(config: ModelConfig) -> tuple[dict, dict, dict]:
    """The parameter shapes before the layers, of each layer (names
    relative to it) and after the layers, each in MicroLM.init's order."""
    dim, ffn = config.dim, config.ffn_mult * config.dim
    layer = {"ln1.gamma": (dim,), "ln1.beta": (dim,),
             **{"attn." + w: (dim, dim) for w in ("wq", "wk", "wv", "wo")},
             "ln2.gamma": (dim,), "ln2.beta": (dim,), "ffn.w1": (dim, ffn), "ffn.b1": (ffn,),
             "ffn.w2": (ffn, dim), "ffn.b2": (dim,)}
    return ({"tok_emb": (config.vocab_size, dim), "pos_emb": (config.max_seq_len, dim)}, layer,
            {"ln_f.gamma": (dim,), "ln_f.beta": (dim,)})


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every model parameter, in the order MicroLM.init
    creates them."""
    head, layer, tail = _shape_table(config)
    return {**head, **{f"layers.{i}.{name}": shape for i in range(config.n_layers)
                       for name, shape in layer.items()}, **tail}


class MicroLM:
    """Decoder-only transformer with tied input/output embeddings, kept frozen."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, params: dict[str, Tensor]):
        if len(vocab) != config.vocab_size:
            raise ConfigError(
                f"vocabulary size {len(vocab)} does not match config vocab_size {config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocabulary, seed: int) -> "MicroLM":
        """Matrices ~ N(0, 0.02²), drawn in param_shapes order; layer-norm
        gains 1, biases and layer-norm shifts 0."""
        rng = T.make_rng(seed, 0)
        params: dict[str, Tensor] = {}
        for name, shape in param_shapes(config).items():
            if len(shape) == 2:
                data = rng.normal(0.0, 0.02, size=shape)
            else:
                data = np.full(shape, 1.0 if name.endswith("gamma") else 0.0)
            params[name] = Tensor(data.astype(np.float32))
        return cls(config, vocab, params)

    @property
    def dtype(self):
        return self.params["tok_emb"].dtype

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def checksum(self) -> str:
        """SHA-256 over all parameter buffers; changes iff any buffer changes."""
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()

    def astype(self, dtype) -> "MicroLM":
        params = {name: p.astype(dtype) for name, p in self.params.items()}
        return MicroLM(self.config, self.vocab, params)

    def embed(self, ids) -> Tensor:
        """Rows of the frozen embedding table; never trainable."""
        return T.gather_rows(self.params["tok_emb"], self.check_ids(ids))

    def check_ids(self, ids) -> np.ndarray:
        """The one check of token ids, returning them as an index array:
        anything but an integer array or a list of ints and numpy integer
        scalars, all in the vocabulary, is a VocabularyError."""
        try:
            idx = np.asarray(ids)
        except ValueError:  # a ragged nesting; no axes, so the check below rejects it
            idx = np.asarray(None)
        if (idx.ndim != 1 or idx.size and not np.issubdtype(idx.dtype, np.integer)
                # numpy reads bools and 0-d arrays among ints as ints
                or not isinstance(ids, np.ndarray)
                and not all(t is not bool and issubclass(t, (int, np.integer))
                            for t in set(map(type, ids)))):
            raise VocabularyError(f"token ids must be one axis of integers, not {ids!r:.60}")
        bad = (idx < 0) | (idx >= self.config.vocab_size)
        if bad.any():
            raise VocabularyError(
                f"token id {idx[bad][0]} outside vocabulary of size {self.config.vocab_size}")
        return idx

    def forward_logprobs(self, x: Tensor, lengths=None, parents=None, rows=None) -> Tensor:
        """Next-token log-distributions, causally masked, for packed segments.

        `x` stacks one or more segments row-wise; `lengths` gives their row
        counts (default: all of `x` is one segment). Segment i continues
        segment parents[i], an earlier one, or is a root if that is -1 (the
        default for every segment); a shared prompt is a root that the
        segments after it continue. A segment's rows attend to its chain
        (each ancestor, root first) and to their own earlier rows, never to
        another segment, and their positions count on from the end of that
        chain, from 0 for a root. Each segment runs through each layer once
        per call, however many segments continue it. Returns the
        distributions of the rows of `x` indexed by `rows` (default: every
        row), shaped like `rows` plus a vocabulary axis; `rows` may repeat
        a row and be in any order. The last layer computes keys and values
        from every row but everything after them only for the distinct
        rows asked for. Each leading index of a `rows` of two axes or more
        is projected to the vocabulary separately.

        Accepts embeddings rather than ids so callers can splice in soft
        prompts and adapted passage vectors.
        """
        cfg, p = self.config, self.params
        if x.ndim != 2 or x.shape[1] != cfg.dim:
            raise ShapeError(f"expected input of shape [L, {cfg.dim}], got {x.shape}")
        lengths = [x.shape[0]] if lengths is None else [int(n) for n in lengths]
        parents = [-1] * len(lengths) if parents is None else [int(j) for j in parents]
        T.check_tree(lengths, parents, x.shape[0])
        starts: list[int] = []  # each segment's first position: where its chain ends
        for j in parents:
            starts.append(0 if j < 0 else starts[j] + lengths[j])
        longest = max(s + n for s, n in zip(starts, lengths))
        if longest > cfg.max_seq_len:
            raise SequenceLengthError(f"sequence length {longest} exceeds "
                                      f"max_seq_len {cfg.max_seq_len}")
        queried = None  # the rows the last layer runs past its keys and values: all, or these
        if rows is not None:
            picked = _checked_rows(rows, x.shape[0])
            queried, inverse = np.unique(picked.reshape(-1), return_inverse=True)
        positions = [s + t for s, n in zip(starts, lengths) for t in range(n)]
        h = T.add(x, T.gather_rows(p["pos_emb"], positions))
        for i in range(cfg.n_layers):
            # sublayers are methods so that their temporaries die on return
            pre, q_rows = f"layers.{i}.", queried if i == cfg.n_layers - 1 else None
            h = T.add(h if q_rows is None else T.gather_rows(h, q_rows),
                      self._attention(h, pre, lengths, parents, q_rows))
            h = T.add(h, self._feed_forward(h, pre))
        if rows is not None:
            h = T.gather_rows(h, inverse)
            if picked.ndim != 1:
                h = T.reshape(h, picked.shape + (cfg.dim,))
        hf = T.layer_norm(h, p["ln_f.gamma"], p["ln_f.beta"])
        logits = T.matmul(hf, T.transpose(p["tok_emb"]))
        return T.log_softmax_rows(logits)

    def _attention(self, h: Tensor, pre: str, sizes: list[int], parents: list[int],
                   q_rows=None) -> Tensor:
        """Multi-head self-attention with heads batched on a leading axis,
        for the rows `q_rows` (sorted and unique; default: every row)."""
        p = self.params
        dim = h.shape[1]
        heads = self.config.n_heads
        dh = dim // heads
        # a scalar of the model's dtype: a float64 scalar would promote the
        # attention scores, and everything downstream, to float64
        scale = self.dtype.type(1.0 / np.sqrt(dh))
        a = T.layer_norm(h, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])

        def project(a, name):  # [rows, dim] -> [heads, rows, dh]
            t = T.matmul(a, p[pre + "attn." + name])
            return T.permute(T.reshape(t, (a.shape[0], heads, dh)), (1, 0, 2))

        k, v = project(a, "wk"), project(a, "wv")
        q = project(a if q_rows is None else T.gather_rows(a, q_rows), "wq")
        att = T.block_attention(q, k, v, sizes, parents, scale, q_rows)
        merged = T.reshape(T.permute(att, (1, 0, 2)), (q.shape[1], dim))
        return T.matmul(merged, p[pre + "attn.wo"])

    def _feed_forward(self, h: Tensor, pre: str) -> Tensor:
        p = self.params
        a = T.layer_norm(h, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
        f = T.relu(T.add(T.matmul(a, p[pre + "ffn.w1"]), p[pre + "ffn.b1"]))
        return T.add(T.matmul(f, p[pre + "ffn.w2"]), p[pre + "ffn.b2"])


def _checked_rows(rows, n_rows: int) -> np.ndarray:
    """`rows` as an int64 array of one axis or more whose entries index n_rows rows."""
    try:
        picked = np.asarray(rows)
    except ValueError:  # ragged nested lists
        raise ShapeError("rows must be a rectangular array of row indices") from None
    if picked.size == 0:
        picked = picked.astype(np.int64)
    if picked.ndim < 1 or picked.dtype.kind not in "iu":
        raise ShapeError(f"rows must be an integer array of one axis or more, got "
                         f"{picked.dtype} of shape {picked.shape}")
    if picked.size and not (0 <= picked.min() and picked.max() < n_rows):
        raise ShapeError(f"rows {picked.min()}..{picked.max()} outside the {n_rows} input rows")
    return picked.astype(np.int64)


def _mean_sequence_nll(model: MicroLM, seqs: list[list[int]]) -> Tensor:
    """Mean over sequences of each one's mean teacher-forced next-token
    negative log-likelihood, with every sequence in one packed forward."""
    inputs = [tok for s in seqs for tok in [BOS_ID] + s[:-1]]
    targets = [tok for s in seqs for tok in s]
    weights = np.concatenate([np.full(len(s), -1.0 / (len(s) * len(seqs))) for s in seqs])
    logprobs = model.forward_logprobs(model.embed(inputs), lengths=[len(s) for s in seqs])
    picked = T.take_entries(logprobs, range(len(targets)), targets)
    return T.tsum(T.mul(picked, weights.astype(model.dtype)))


def dev_count(n: int, fraction: float) -> int:
    """How many of n items a dev split at `fraction` holds: none if n < 2 or
    fraction is 0, else int(n * fraction) kept within 1..n-1."""
    return min(max(1, int(n * fraction)), n - 1) if n > 1 and fraction > 0 else 0


def holdout_split(corpus: list[list[int]], seed: int):
    """Deterministic train/dev split of a token-sequence corpus, 10% dev."""
    order = T.make_rng(seed, 1).permutation(len(corpus))
    dev_idx = set(order[:dev_count(len(corpus), 0.1)].tolist())
    train = [corpus[i] for i in range(len(corpus)) if i not in dev_idx]
    dev = [corpus[i] for i in sorted(dev_idx)]
    return train, dev


def continue_pretraining(model: MicroLM, corpus: list[list[int]], seed: int, steps: int,
                         batch_size: int = 8, lr: float = 1e-3) -> None:
    """Run further LM training steps in place; the model is frozen between steps.
    The options and the corpus are checked at 0 steps too; a step that draws
    a sequence longer than max_seq_len raises SequenceLengthError."""
    if not (steps >= 0 and batch_size >= 1 and lr > 0):  # so NaN fails too
        raise ConfigError(f"pretraining needs steps >= 0, batch_size >= 1 and lr > 0, "
                          f"got {steps}, {batch_size} and {lr}")
    seqs = [s for s in corpus if s]
    if not seqs:
        raise DataError("pretraining corpus is empty")
    rng = T.make_rng(seed, 2)
    tensors = list(model.params.values())
    opt = Adam([(tensors, lr)])
    for _ in range(steps):
        idx = rng.integers(0, len(seqs), size=batch_size)
        with trainable(tensors):
            T.backward(_mean_sequence_nll(model, [seqs[int(i)] for i in idx]))
            clip_global_norm(tensors, 1.0)
            opt.step()
