"""Adam with parameter groups, global gradient clipping, and `trainable`."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .tensor import Tensor


@contextmanager
def trainable(tensors):
    """Let `tensors` take gradients inside the block; on exit, also by an
    exception, they are frozen again and their gradients dropped."""
    tensors = list(tensors)
    for t in tensors:
        t.requires_grad = True
    try:
        yield
    finally:
        for t in tensors:
            t.requires_grad = False
            t.grad = None


def clip_global_norm(tensors: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = total ** 0.5
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for t in tensors:
            if t.grad is not None:
                t.grad = t.grad * np.asarray(scale, dtype=t.grad.dtype)
    return norm


class Adam:
    """Adaptive moment estimation over one or more (tensors, lr) groups.

    step(lr_scale) applies lr_group * lr_scale, so a linear-decay schedule
    is just a shrinking scale factor.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, groups: list[tuple[list[Tensor], float]]):
        self.groups = [(list(tensors), float(lr)) for tensors, lr in groups]
        self.t = 0
        self._m = {}
        self._v = {}
        for tensors, _ in self.groups:
            for p in tensors:
                self._m[id(p)] = np.zeros_like(p.data)
                self._v[id(p)] = np.zeros_like(p.data)

    def step(self, lr_scale: float = 1.0) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for tensors, lr in self.groups:
            lr_t = lr * lr_scale
            for p in tensors:
                if p.grad is None:
                    continue
                # in place, but p.grad (maybe shared) is only read and p.data is rebound
                g, m, v = p.grad, self._m[id(p)], self._v[id(p)]
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * (g * g)
                update = np.divide(v, bias2)
                np.add(np.sqrt(update, out=update), self.eps, out=update)
                np.divide(m / bias1, update, out=update)
                update *= np.asarray(lr_t, dtype=p.data.dtype)
                p.data = p.data - update
