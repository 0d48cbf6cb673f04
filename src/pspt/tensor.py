"""Dense float tensors with reverse-mode automatic differentiation.

Deliberately small: matmul over leading batch axes, softmaxes and layer
norm over the last axis, reshape / permute, gathers and concatenation
are everything a micro decoder-only transformer needs, with attention
heads batched along a leading axis. float32 is the working precision;
passing float64 arrays switches the whole downstream graph to float64
for gradient verification.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def make_rng(*key: int) -> np.random.Generator:
    """Deterministic counter-based generator keyed by one or more integers."""
    return np.random.Generator(np.random.Philox(list(key)))


class Tensor:
    """A dense float array plus the graph edge that produced it.

    Leaves created with requires_grad=False never receive a gradient
    buffer. Results of operations require grad iff any input does.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

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
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

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


def _as_tensor(x, dtype=None) -> Tensor:
    """Tensors pass through; other values become constants (of `dtype`, if given)."""
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad = t.grad + g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


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
    out_data = a.data + b.data

    def backward(g):
        for t in (a, b):
            if t.requires_grad:
                _accumulate(t, _unbroadcast(g, t.shape))

    return _make(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


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
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out_data, (a, b), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder axes (a view, like numpy's transpose)."""
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose expects 2 or more axes, got {a.shape}")
    return permute(a, (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Log softmax over the last axis, stabilized by max subtraction."""
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"log_softmax_rows expects a non-empty last axis, got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("log_softmax_rows received non-finite input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - log_z

    def backward(g):
        _accumulate(x, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis; tolerates large negative masking values."""
    if x.ndim < 1:
        raise ShapeError(f"softmax_rows expects at least one axis, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        _accumulate(x, out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)))

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

    def backward(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            _accumulate(x, inv / d * (
                d * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
            ))

    return _make(out_data, (x, gamma, beta), backward)


def block_attention(q: Tensor, k: Tensor, v: Tensor, sizes: Sequence[int],
                    parents: Sequence[int], scale: float = 1.0) -> Tensor:
    """Causal softmax attention, softmax(q kᵀ · scale) v, inside a tree of
    row blocks.

    q, k and v are [..., R, d]: leading axes (attention heads) are batched
    and the R rows on axis -2 are cut into consecutive blocks of `sizes`.
    Block j continues block parents[j], an earlier block, or no block if
    it is -1. A row attends to every row of its block's ancestor chain and
    to its own block's rows up to itself. A shared prefix is block 0 with
    every other block's parent 0; a block shared by several continuations
    is computed once, for all of them.
    """
    if not q.shape == k.shape == v.shape or q.ndim < 2:
        raise ShapeError(f"block_attention needs equal q, k, v shapes, got {q.shape}, {k.shape}, {v.shape}")
    if (sum(sizes) != q.shape[-2] or min(sizes, default=0) < 1 or len(parents) != len(sizes)
            or any(not -1 <= p < j for j, p in enumerate(parents))):
        raise ShapeError(f"block sizes {list(sizes)} with parents {list(parents)} do not "
                         f"partition {q.shape[-2]} rows into a tree")
    causal = np.triu(np.full((max(sizes), max(sizes)), -1e9, dtype=q.dtype), k=1)
    out = np.empty_like(q.data)
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    saved = []
    chains: list[list[slice]] = []  # each block's key spans: its ancestors, root first, then itself
    lo = 0
    for n, parent in zip(sizes, parents):
        own = slice(lo, lo + n)
        keys = (chains[parent] if parent >= 0 else []) + [own]
        chains.append(keys)
        kc = np.concatenate([k.data[..., s, :] for s in keys], axis=-2)
        vc = np.concatenate([v.data[..., s, :] for s in keys], axis=-2)
        # scores become the attention weights in place: one [..., n, keys] array per block
        w = q.data[..., own, :] @ np.swapaxes(kc, -1, -2)
        w *= scale
        w[..., kc.shape[-2] - n:] += causal[:n, :n]
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        out[..., own, :] = w @ vc
        if keep:  # inference keeps one block's temporaries at a time
            saved.append((own, keys, kc, vc, w))
        lo += n

    def backward(g):
        dq, dk, dv = (np.zeros_like(t.data) if t.requires_grad else None for t in (q, k, v))
        for own, keys, kc, vc, w in saved:
            g_own = g[..., own, :]
            dw = g_own @ np.swapaxes(vc, -1, -2)
            ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * scale
            if dq is not None:
                dq[..., own, :] = ds @ kc
            if dk is not None:
                _add_rows(dk, keys, np.swapaxes(ds, -1, -2) @ q.data[..., own, :])
            if dv is not None:
                _add_rows(dv, keys, np.swapaxes(w, -1, -2) @ g_own)
        for t, d in ((q, dq), (k, dk), (v, dv)):
            if d is not None:
                _accumulate(t, d)

    return _make(out, (q, k, v), backward)


def _add_rows(dst: np.ndarray, spans: list[slice], src: np.ndarray) -> None:
    """Add consecutive row blocks of src into the row spans of dst (axis -2)."""
    at = 0
    for s in spans:
        n = s.stop - s.start
        dst[..., s, :] += src[..., at:at + n, :]
        at += n


def gather_rows(a: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of a 2-D tensor; backward scatter-adds into them."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {a.shape}")
    idx = np.asarray(ids, dtype=np.int64)

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            _accumulate(a, ga)

    return _make(a.data[idx], (a,), backward)


def take_entries(x: Tensor, rows, cols) -> Tensor:
    """x[rows, cols] for integer index arrays of one shape; the result has that shape."""
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if r.shape != c.shape:
        raise ShapeError(f"take_entries index lengths disagree: {r.shape} vs {c.shape}")

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (r, c), g)
            _accumulate(x, gx)

    return _make(x.data[r, c], (x,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors along axis 0; backward splits the gradient."""
    if not parts:
        raise ContractError("concat_rows needs at least one part")
    if min(p.ndim for p in parts) < 1 or len({p.shape[1:] for p in parts}) != 1:
        raise ShapeError(f"concat_rows shape mismatch: {[p.shape for p in parts]}")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols needs at least one part")
    sizes = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[:, lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {a.shape}")

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[:, start:stop] = g
            _accumulate(a, ga)

    return _make(a.data[:, start:stop].copy(), (a,), backward)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of all entries as a scalar tensor, or over one axis."""
    if axis is None:
        def backward(g):
            _accumulate(a, np.broadcast_to(g, a.shape).astype(a.data.dtype))

        return _make(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), backward)

    def backward_axis(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return _make(a.data.sum(axis=axis), (a,), backward_axis)


def backward(loss: Tensor) -> None:
    """Fill gradient buffers of everything the scalar loss depends on.

    Visits the graph in reverse topological order exactly once. Tensors
    created with requires_grad=False are left untouched.
    """
    if loss.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def finite_diff_grad(
    f: Callable[[Sequence[np.ndarray]], float],
    params: Sequence[np.ndarray],
    eps: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient estimate, one coordinate at a time.

    Perturbs the given arrays in place (restoring them afterwards), so f
    may simply close over `params`. Use float64 arrays for tight checks.

    A kink of f (a ReLU's, say) closer than the step to a coordinate's
    value biases its central difference by up to half the gap between the
    one-sided differences. Where that gap exceeds 1e-4 of their size (the
    gradient checks' relative tolerance) plus f's rounding noise, the
    coordinate is estimated again at a tenth of the step, down to eps / 100.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ContractError(f"finite_diff_grad eps {eps} outside [1e-6, 1e-3]")

    def value() -> float:
        out = float(f(params))
        if not np.isfinite(out):
            raise NumericError("finite_diff_grad: objective returned a non-finite value")
        return out

    f0 = value()
    grads = []
    for p in params:
        g = np.zeros(p.shape, dtype=np.float64)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            for step in (eps, eps / 10, eps / 100):
                flat_p[i] = orig + step
                f_plus = value()
                flat_p[i] = orig - step
                f_minus = value()
                flat_p[i] = orig
                gap = abs(f_plus - 2.0 * f0 + f_minus)  # one-sided differences' gap * step
                noise = 64 * np.finfo(np.float64).eps * max(abs(f0), abs(f_plus), abs(f_minus))
                if gap <= 1e-4 * (abs(f_plus - f0) + abs(f0 - f_minus)) + noise:
                    break
            flat_g[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads
