"""Dense float tensors with reverse-mode automatic differentiation.

Deliberately small: matmul over leading batch axes, softmaxes and layer
norm over the last axis, reshape / permute, gathers and concatenation
are everything a micro decoder-only transformer needs, with attention
heads batched along a leading axis. float32 is the working precision;
passing float64 arrays switches the whole downstream graph to float64
for the finite-difference gradient checks of tests/gradcheck.py.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def make_rng(*key: int) -> np.random.Generator:
    """Deterministic counter-based generator keyed by one or more integers."""
    return np.random.Generator(np.random.Philox(list(key)))


class Tensor:
    """A dense float array, plus the graph node that produced it if any.

    Leaves created with requires_grad=False never receive a gradient
    buffer. Results of operations require grad iff any input does; such a
    result holds a `_Node`, and the graph is made of nodes, not tensors: a
    node keeps only the arrays its op's backward reads, so a result that
    no backward reads is freed with its tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise ContractError("wrap raw array data, not another Tensor")
        # numpy scalars (0-d op results) must keep their dtype like arrays do
        keep = isinstance(data, (np.ndarray, np.generic))
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif not (keep and arr.dtype in _FLOAT_DTYPES):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def astype(self, dtype) -> "Tensor":
        """New frozen leaf holding a converted copy of the data."""
        return Tensor(self.data.astype(dtype))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """An op result's graph edge and no result data: its gradient while
    `backward` passes it on, the nodes of the op's inputs, the op's backward
    closure (which holds the arrays it reads) and the result's shape and dtype."""

    __slots__ = ("grad", "parents", "backward", "shape", "dtype")

    def __init__(self, parents: tuple[_Node, ...], backward: Callable[[np.ndarray], None],
                 data: np.ndarray):
        self.grad: np.ndarray | None = None
        self.parents, self.backward = parents, backward
        self.shape, self.dtype = data.shape, data.dtype


def _as_tensor(x, dtype=None) -> Tensor:
    """Tensors pass through; other values become constants (of `dtype`, if given)."""
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _target(t: Tensor) -> _Node | Tensor | None:
    """Where t's gradient goes: its node, t itself if it is a leaf that
    takes a gradient, or None. Backward closures hold this, not t; it has
    t's shape and dtype."""
    return t._node or (t if t.requires_grad else None)


def _accumulate(t: Tensor | _Node, g: np.ndarray) -> None:
    """Add g into the gradient of t, a leaf, an op result (its node) or a
    node; the first g is stored as given, not copied.

    So a gradient may be a view of, or the same array as, another tensor's
    gradient or a backward intermediate. That is sound because nothing
    writes into a gradient array: this function and clip_global_norm bind
    a new one, and Adam only reads it. Keep it so.
    """
    if isinstance(t, Tensor):
        t = _target(t)
    if t is None:
        return
    if t.grad is None:
        g = np.asarray(g)
        t.grad = g if g.dtype == t.dtype else g.astype(t.dtype)
    else:
        t.grad = t.grad + g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap an op's result, with a node if any parent takes a gradient. The
    graph keeps each op's saved arrays, not its result: `backward` holds what
    it reads (the parents' `_target`s, saved arrays), never a parent itself."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node for p in parents if p._node), backward, out.data)
    return out


def _cross(a: Tensor, b: Tensor):
    """Targets of a and b, and their data as a product's backward reads
    it: a's data only if b takes a gradient, and b's only if a does."""
    ta, tb = _target(a), _target(b)
    return ta, tb, (None if tb is None else a.data), (None if ta is None else b.data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    targets = [_target(a), _target(b)]

    def backward(g):
        for t in targets:
            if t is not None:
                _accumulate(t, _unbroadcast(g, t.shape))

    return _make(a.data + b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    ta = _target(a)

    def backward(g):
        _accumulate(ta, -g)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    ta, tb, a_data, b_data = _cross(a, b)

    def backward(g):
        if ta is not None:
            _accumulate(ta, _unbroadcast(g * b_data, ta.shape))
        if tb is not None:
            _accumulate(tb, _unbroadcast(g * a_data, tb.shape))

    return _make(a.data * b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading (batch) axes broadcast.

    dA = g @ Bᵀ and dB = Aᵀ @ g, each summed over the batch axes its
    operand was broadcast along.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of 2 or more axes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul batch axes do not broadcast: {a.shape} vs {b.shape}") from None
    ta, tb, a_data, b_data = _cross(a, b)

    def backward(g):
        if ta is not None:
            _accumulate(ta, _unbroadcast(g @ np.swapaxes(b_data, -1, -2), ta.shape))
        if tb is not None:
            _accumulate(tb, _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, tb.shape))

    return _make(a.data @ b.data, (a, b), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    ta = _target(a)

    def backward(g):
        _accumulate(ta, g.reshape(ta.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder axes (a view, like numpy's transpose)."""
    ta, inverse = _target(a), np.argsort(axes)

    def backward(g):
        _accumulate(ta, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose expects 2 or more axes, got {a.shape}")
    return permute(a, (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2))


def relu(a: Tensor) -> Tensor:
    ta, mask = _target(a), a.data > 0

    def backward(g):
        _accumulate(ta, g * mask)

    return _make(a.data * mask, (a,), backward)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Log softmax over the last axis, stabilized by max subtraction."""
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"log_softmax_rows expects a non-empty last axis, got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("log_softmax_rows received non-finite input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data, tx = shifted - log_z, _target(x)

    def backward(g):
        _accumulate(tx, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis; tolerates large negative masking values."""
    if x.ndim < 1:
        raise ShapeError(f"softmax_rows expects at least one axis, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data, tx = e / e.sum(axis=-1, keepdims=True), _target(x)

    def backward(g):
        _accumulate(tx, out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)))

    return _make(out_data, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"layer_norm expects a last axis of width > 0, got {x.shape}")
    d = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gamma.data + beta.data
    tx, t_gamma, t_beta, gamma_data = _target(x), _target(gamma), _target(beta), gamma.data

    def backward(g):
        if t_gamma is not None:
            _accumulate(t_gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        if t_beta is not None:
            _accumulate(t_beta, g.reshape(-1, d).sum(axis=0))
        if tx is not None:
            dxhat = g * gamma_data
            _accumulate(tx, inv / d * (
                d * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
            ))

    return _make(out_data, (x, gamma, beta), backward)


def block_attention(q: Tensor, k: Tensor, v: Tensor, sizes: Sequence[int],
                    parents: Sequence[int], scale: float = 1.0, q_rows=None) -> Tensor:
    """Causal softmax attention, softmax(q kᵀ · scale) v, inside a tree of
    row blocks, for the key rows that `q` holds.

    k and v are [..., R, d]: leading axes (attention heads) are batched
    and the R rows on axis -2 are cut into consecutive blocks of `sizes`.
    Block j continues block parents[j], an earlier block, or no block if
    it is -1. A row attends to every row of its block's ancestor chain and
    to its own block's rows up to itself. A shared prefix is block 0 with
    every other block's parent 0; a block shared by several continuations
    is computed once, for all of them.

    The work is done once per group of blocks, not once per block: a root
    block is a group, and so is each child of a root together with all of
    its descendants (a shared passage and the questions that continue it,
    wherever their rows lie). A group's queried rows get one score matrix
    whose columns are the root's rows followed by the group's own rows in
    row order, with an additive mask (0 or -1e9) on the own columns: row r
    sees row c iff c's block is r's block or one of its ancestors and
    c <= r. Masked weights underflow to exactly 0. A chain, a group whose
    every block after its first continues the block just before it (a
    root, or a passage and its one question), is masked causally over its
    rows, so its result is the same as attending them as one block.

    q is [..., Q, d] and holds the query side of the key rows `q_rows`,
    sorted and unique (default: all R rows); the result is shaped like q.
    A group none of whose rows is queried costs nothing, and an unqueried
    block still serves the blocks that continue it.
    """
    if (q.ndim < 2 or q.ndim != k.ndim or k.shape != v.shape
            or q.shape[:-2] + q.shape[-1:] != k.shape[:-2] + k.shape[-1:]):
        raise ShapeError(f"block_attention needs equal k, v shapes and q of their leading and "
                         f"last axes, got {q.shape}, {k.shape}, {v.shape}")
    n_keys = k.shape[-2]
    check_tree(sizes, parents, n_keys)
    q_rows = np.arange(n_keys) if q_rows is None else np.asarray(q_rows, dtype=np.int64)
    if (q_rows.shape != (q.shape[-2],) or (q_rows.size and (q_rows[0] < 0 or q_rows[-1] >= n_keys))
            or np.any(np.diff(q_rows) <= 0)):
        raise ShapeError(f"query rows must be {q.shape[-2]} sorted, unique rows in "
                         f"[0, {n_keys}), got shape {q_rows.shape}")
    out = np.empty_like(q.data)
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    saved = []
    for mine, keys, n_root, mask in _attention_groups(sizes, parents, q_rows, q.dtype.type):
        kc = np.concatenate([k.data[..., s, :] for s in keys], axis=-2)
        vc = np.concatenate([v.data[..., s, :] for s in keys], axis=-2)
        # scores become the attention weights in place: one [..., queries, keys] array per group
        w = q.data[..., mine, :] @ np.swapaxes(kc, -1, -2)
        w *= scale
        w[..., n_root:] += mask
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        out[..., mine, :] = w @ vc
        if keep:  # inference keeps one group's temporaries at a time
            saved.append((mine, keys, kc, vc, w))
    targets = [_target(q), _target(k), _target(v)]
    q_data = None if targets[1] is None else q.data  # only dk reads q

    def backward(g):
        dq, dk, dv = (None if t is None else np.zeros(t.shape, t.dtype) for t in targets)
        for mine, keys, kc, vc, w in saved:
            g_mine = g[..., mine, :]
            dw = g_mine @ np.swapaxes(vc, -1, -2)
            ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * scale
            if dq is not None:
                dq[..., mine, :] = ds @ kc
            if dk is not None:
                _add_rows(dk, keys, np.swapaxes(ds, -1, -2) @ q_data[..., mine, :])
            if dv is not None:
                _add_rows(dv, keys, np.swapaxes(w, -1, -2) @ g_mine)
        for t, d in zip(targets, (dq, dk, dv)):
            _accumulate(t, d)

    return _make(out, (q, k, v), backward)


def check_tree(sizes: Sequence[int], parents: Sequence[int], n_rows: int) -> None:
    """Raise ShapeError unless blocks of `sizes` rows, each at least one,
    partition n_rows rows and each block's parent is -1 or an earlier block."""
    if (sum(sizes) != n_rows or min(sizes, default=0) < 1 or len(parents) != len(sizes)
            or any(not -1 <= p < j for j, p in enumerate(parents))):
        raise ShapeError(f"block sizes {list(sizes)} with parents {list(parents)} do not "
                         f"partition {n_rows} rows into a tree")


def _attention_groups(sizes: Sequence[int], parents: Sequence[int], q_rows: np.ndarray, dtype):
    """Yield block_attention's groups that hold a queried row, in order of
    their first block: the group's q rows (a slice for a chain, an index
    array otherwise), its key spans (the root's rows, then the group's),
    the root's row count, and the additive mask of its queried rows over
    its own columns. A chain's rows are one span, so its mask is a slice
    of one causal triangle shared by the call: read it, never write into it."""
    starts = np.cumsum([0, *sizes]).tolist()
    held = np.searchsorted(q_rows, starts).tolist()  # block j's queries: q rows held[j]:held[j + 1]
    members: dict[int, list[int]] = {}  # each group's first block -> its blocks, in order
    head: list[int] = []
    for j, p in enumerate(parents):
        head.append(j if p < 0 or parents[p] < 0 else head[p])
        members.setdefault(head[j], []).append(j)
    spans = {first: starts[blocks[-1] + 1] - starts[first] for first, blocks in members.items()
             if all(parents[j] == j - 1 for j in blocks[1:])}  # each chain's row count
    hide, show = dtype(-1e9), dtype(0)
    wide = np.arange(max(spans.values(), default=0))
    triangle = np.where(wide > wide[:, None], hide, show)  # a chain's causal mask, sliced below
    for first, blocks in members.items():
        queried = [j for j in blocks if held[j] < held[j + 1]]
        if not queried:
            continue
        root = parents[first]
        keys = [slice(starts[root], starts[root + 1])] if root >= 0 else []
        n_root = sizes[root] if root >= 0 else 0
        if first in spans:  # the chain's rows see the root and the span up to themselves
            lo, n = starts[first], spans[first]
            mine = slice(held[first], held[blocks[-1] + 1])
            mask = triangle[:n, :n] if mine.stop - mine.start == n else triangle[q_rows[mine] - lo, :n]
            yield mine, keys + [slice(lo, lo + n)], n_root, mask
            continue
        own = [slice(starts[j], starts[j + 1]) for j in blocks]
        mine = np.concatenate([np.arange(held[j], held[j + 1]) for j in queried])
        cols = np.concatenate([np.arange(s.start, s.stop) for s in own])
        hidden = cols > q_rows[mine, None]  # hides every later block, too
        # and a row cannot see an earlier block of the group that is not on its chain
        row_at = list(accumulate((held[j + 1] - held[j] for j in blocks), initial=0))
        col_at = list(accumulate((sizes[j] for j in blocks), initial=0))
        chains: dict[int, set[int]] = {}
        for a, j in enumerate(blocks):
            chains[j] = chains.get(parents[j], set()) | {j}
            for b, i in enumerate(blocks[:a]):
                if i not in chains[j]:
                    hidden[row_at[a]:row_at[a + 1], col_at[b]:col_at[b + 1]] = True
        yield mine, keys + own, n_root, np.where(hidden, hide, show)


def _add_rows(dst: np.ndarray, spans: list[slice], src: np.ndarray) -> None:
    """Add consecutive row blocks of src into the row spans of dst (axis -2)."""
    at = 0
    for s in spans:
        n = s.stop - s.start
        dst[..., s, :] += src[..., at:at + n, :]
        at += n


def _index(a: Tensor, key) -> Tensor:
    """a.data[key] for an index of integer arrays (and slices); backward
    scatter-adds the gradient into zeros, so a repeated index sums."""
    ta = _target(a)

    def backward(g):
        ga = np.zeros(ta.shape, ta.dtype)
        np.add.at(ga, key, g)
        _accumulate(ta, ga)

    return _make(a.data[key], (a,), backward)


def _concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along axis 0 or 1; backward hands each part its slice
    of the gradient."""
    name = ("concat_rows", "concat_cols")[axis]
    if not parts:
        raise ContractError(f"{name} needs at least one part")
    shapes = [p.shape for p in parts]
    if min(map(len, shapes)) <= axis or len({s[:axis] + s[axis + 1:] for s in shapes}) != 1:
        raise ShapeError(f"{name} shape mismatch: {shapes}")
    offsets = list(accumulate((s[axis] for s in shapes), initial=0))
    targets = [_target(p) for p in parts]

    def backward(g):
        for t, lo, hi in zip(targets, offsets[:-1], offsets[1:]):
            _accumulate(t, g[(slice(None),) * axis + (slice(lo, hi),)])

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def gather_rows(a: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of a 2-D tensor; backward scatter-adds into them."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {a.shape}")
    return _index(a, np.asarray(ids, dtype=np.int64))


def take_entries(x: Tensor, rows, cols) -> Tensor:
    """x[rows, cols] for integer index arrays of one shape; the result has that shape."""
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if r.shape != c.shape:
        raise ShapeError(f"take_entries index lengths disagree: {r.shape} vs {c.shape}")
    return _index(x, (r, c))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors along axis 0; backward splits the gradient."""
    return _concat(parts, 0)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    return _concat(parts, 1)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of a 2-D tensor, as a copy."""
    if a.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {a.shape}")
    return _index(a, (slice(None), np.arange(*slice(start, stop).indices(a.shape[1]))))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of all entries as a scalar tensor, or over one axis."""
    ta = _target(a)

    def backward(g):
        _accumulate(ta, np.broadcast_to(g if axis is None else np.expand_dims(g, axis), ta.shape))

    return _make(np.asarray(a.data.sum(axis=axis), dtype=a.data.dtype), (a,), backward)


def backward(loss: Tensor) -> None:
    """Add the loss's gradient into every leaf it depends on.

    Walks the loss's graph of nodes in reverse topological order, each
    node once. A node hands its gradient to its op's backward and drops
    it, so each buffer is freed once used: after the call only leaves hold
    a grad, and a second call on the same graph adds the same gradients
    again. The graph keeps each op's saved arrays, not its result, so an
    activation that no backward reads is freed when the forward drops it.
    Tensors created with requires_grad=False are left untouched.
    """
    if loss.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    _accumulate(loss, np.ones_like(loss.data))
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(loss._node, False)] if loss._node else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    for node in reversed(order):
        if node.grad is not None:
            g, node.grad = node.grad, None
            node.backward(g)
