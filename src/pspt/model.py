"""Frozen micro decoder-only causal language model and its tokenizer.

The model accepts input *embeddings* rather than token ids so that learned
prompt vectors can be injected ahead of real tokens. All parameters are
created frozen; only pretraining temporarily unfreezes them.
"""

from __future__ import annotations

import hashlib
import re
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
        """Frequency-ranked vocabulary; ties broken lexicographically."""
        counts: dict[str, int] = {}
        for text in texts:
            for tok in tokenize_text(text):
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(ranked[: max(0, cap - len(RESERVED_TOKENS))])


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
        dim, ffn = self.dim, self.ffn_mult * self.dim
        per_layer = 4 * dim * dim + 2 * dim * ffn + 5 * dim + ffn
        return (self.vocab_size + self.max_seq_len + 2) * dim + self.n_layers * per_layer


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every model parameter, in the order MicroLM.init
    creates them."""
    dim, ffn = config.dim, config.ffn_mult * config.dim
    shapes = {"tok_emb": (config.vocab_size, dim), "pos_emb": (config.max_seq_len, dim)}
    for i in range(config.n_layers):
        p = f"layers.{i}."
        shapes.update({p + "ln1.gamma": (dim,), p + "ln1.beta": (dim,),
                       **{p + "attn." + w: (dim, dim) for w in ("wq", "wk", "wv", "wo")},
                       p + "ln2.gamma": (dim,), p + "ln2.beta": (dim,),
                       p + "ffn.w1": (dim, ffn), p + "ffn.b1": (ffn,),
                       p + "ffn.w2": (ffn, dim), p + "ffn.b2": (dim,)})
    shapes.update({"ln_f.gamma": (dim,), "ln_f.beta": (dim,)})
    return shapes


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

    def validate_ids(self, ids) -> list[int]:
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < self.config.vocab_size:
                raise VocabularyError(f"token id {i} outside vocabulary of size {self.config.vocab_size}")
            out.append(i)
        return out

    def embed(self, ids) -> Tensor:
        """Rows of the frozen embedding table; never trainable."""
        ids = self.validate_ids(ids)
        if not ids:
            return Tensor(np.zeros((0, self.config.dim), dtype=self.dtype))
        return T.gather_rows(self.params["tok_emb"], ids)

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
        row), shaped like `rows` plus a vocabulary axis. Each leading index
        of a 2-D `rows` is projected to the vocabulary separately, so a
        row's result does not depend on how many other rows are asked for
        alongside it.

        Accepts embeddings rather than ids so callers can splice in soft
        prompts and adapted passage vectors.
        """
        cfg, p = self.config, self.params
        if x.ndim != 2 or x.shape[1] != cfg.dim:
            raise ShapeError(f"expected input of shape [L, {cfg.dim}], got {x.shape}")
        lengths = [x.shape[0]] if lengths is None else [int(n) for n in lengths]
        parents = [-1] * len(lengths) if parents is None else [int(j) for j in parents]
        if (not lengths or min(lengths) < 1 or sum(lengths) != x.shape[0]
                or len(parents) != len(lengths)):
            raise ShapeError(f"segment lengths {lengths} (parents {parents}) do not partition "
                             f"{x.shape[0]} input rows")
        starts: list[int] = []  # each segment's first position: where its chain ends
        for i, j in enumerate(parents):
            if not -1 <= j < i:
                raise ShapeError(f"segment {i}'s parent {j} is neither -1 nor an earlier segment")
            starts.append(0 if j < 0 else starts[j] + lengths[j])
        longest = max(s + n for s, n in zip(starts, lengths))
        if longest > cfg.max_seq_len:
            raise SequenceLengthError(f"sequence length {longest} exceeds "
                                      f"max_seq_len {cfg.max_seq_len}")
        positions = [s + t for s, n in zip(starts, lengths) for t in range(n)]
        h = T.add(x, T.gather_rows(p["pos_emb"], positions))
        for i in range(cfg.n_layers):
            # sublayers are methods so that their temporaries die on return
            h = T.add(h, self._attention(h, f"layers.{i}.", lengths, parents))
            h = T.add(h, self._feed_forward(h, f"layers.{i}."))
        if rows is not None:
            picked = np.asarray(rows, dtype=np.int64)
            h = T.gather_rows(h, picked.reshape(-1))
            if picked.ndim != 1:
                h = T.reshape(h, picked.shape + (cfg.dim,))
        hf = T.layer_norm(h, p["ln_f.gamma"], p["ln_f.beta"])
        logits = T.matmul(hf, T.transpose(p["tok_emb"]))
        return T.log_softmax_rows(logits)

    def _attention(self, h: Tensor, pre: str, sizes: list[int], parents: list[int]) -> Tensor:
        """Multi-head self-attention with heads batched on a leading axis."""
        p = self.params
        n_rows, dim = h.shape
        heads = self.config.n_heads
        dh = dim // heads
        # a scalar of the model's dtype: a float64 scalar would promote the
        # attention scores, and everything downstream, to float64
        scale = self.dtype.type(1.0 / np.sqrt(dh))
        a = T.layer_norm(h, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])

        def project(name):  # [rows, dim] -> [heads, rows, dh]
            t = T.matmul(a, p[pre + "attn." + name])
            return T.permute(T.reshape(t, (n_rows, heads, dh)), (1, 0, 2))

        att = T.block_attention(project("wq"), project("wk"), project("wv"), sizes, parents, scale)
        merged = T.reshape(T.permute(att, (1, 0, 2)), (n_rows, dim))
        return T.matmul(merged, p[pre + "attn.wo"])

    def _feed_forward(self, h: Tensor, pre: str) -> Tensor:
        p = self.params
        a = T.layer_norm(h, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
        f = T.relu(T.add(T.matmul(a, p[pre + "ffn.w1"]), p[pre + "ffn.b1"]))
        return T.add(T.matmul(f, p[pre + "ffn.w2"]), p[pre + "ffn.b2"])


def _mean_sequence_nll(model: MicroLM, seqs: list[list[int]]) -> Tensor:
    """Mean over sequences of each one's mean teacher-forced next-token
    negative log-likelihood, with every sequence in one packed forward."""
    seqs = [s[: model.config.max_seq_len] for s in seqs]
    inputs = [tok for s in seqs for tok in [BOS_ID] + s[:-1]]
    targets = [tok for s in seqs for tok in s]
    weights = np.concatenate([np.full(len(s), -1.0 / (len(s) * len(seqs))) for s in seqs])
    logprobs = model.forward_logprobs(model.embed(inputs), lengths=[len(s) for s in seqs])
    picked = T.take_entries(logprobs, range(len(targets)), targets)
    return T.tsum(T.mul(picked, weights.astype(model.dtype)))


def sequence_cross_entropy(model: MicroLM, corpus: list[list[int]]) -> float:
    """Mean per-token next-token cross-entropy over a list of id sequences."""
    seqs = [s for s in corpus if s]
    if not seqs:
        raise DataError("cross-entropy over an empty corpus")
    return float(np.mean([_mean_sequence_nll(model, [s]).item() for s in seqs]))


def holdout_split(corpus: list[list[int]], seed: int):
    """Deterministic train/dev split of a token-sequence corpus, 10% dev."""
    order = T.make_rng(seed, 1).permutation(len(corpus))
    n_dev = min(max(1, int(len(corpus) * 0.1)), len(corpus) - 1) if len(corpus) > 1 else 0
    dev_idx = set(order[:n_dev].tolist())
    train = [corpus[i] for i in range(len(corpus)) if i not in dev_idx]
    dev = [corpus[i] for i in sorted(dev_idx)]
    return train, dev


def continue_pretraining(model: MicroLM, corpus: list[list[int]], seed: int, steps: int,
                         batch_size: int = 8, lr: float = 1e-3) -> None:
    """Run further LM training steps in place; the model is frozen between steps."""
    seqs = [s for s in corpus if s]
    if not seqs:
        raise DataError("pretraining corpus is empty")
    rng = T.make_rng(seed, 2)
    tensors = list(model.params.values())
    opt = Adam([(tensors, lr)])
    for _ in range(steps):
        idx = rng.integers(0, len(seqs), size=batch_size)
        with trainable(tensors):
            # the graph outlives opt.step(): freed before it, glibc re-faults the heap
            mean_loss = _mean_sequence_nll(model, [seqs[int(i)] for i in idx])
            T.backward(mean_loss)
            clip_global_norm(tensors, 1.0)
            opt.step()


def pretrain_micro_lm(corpus: list[list[int]], config: ModelConfig, vocab: Vocabulary,
                      seed: int, steps: int, **options) -> MicroLM:
    """Initialize a model and fit it on the corpus train split, frozen on return.
    `options` are continue_pretraining's `batch_size` and `lr`."""
    if not [s for s in corpus if s]:
        raise DataError("pretraining corpus is empty")
    model = MicroLM.init(config, vocab, seed)
    if steps > 0:
        train, _ = holdout_split(corpus, seed)
        continue_pretraining(model, train, seed, steps, **options)
    return model
