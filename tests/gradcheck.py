"""Gradient-check helpers shared by the test modules: a central-difference
gradient estimate and the relative error the checks bound.

Run the objective on float64 arrays (`MicroLM.astype`, `PsptParams.astype`)
for the tight tolerances the checks use.
"""

from typing import Callable, Sequence

import numpy as np

from pspt.errors import ContractError, NumericError


def max_rel_err(a, b) -> float:
    """Largest entry of |a - b| / max(|a|, |b|, 1e-6)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


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
    Smooth curvature also opens the gap, most of all beside a small
    gradient, but it does not bias the central difference, and smaller
    steps only add rounding error. So where the gap shrinks about 100-fold
    at a tenth of the step, as f''·step² does (a kink's shrinks about
    10-fold, or vanishes once the step no longer reaches it), and the two
    estimates agree to 1% of the larger step's gap per step, the larger
    step's estimate is kept.
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
            last = None  # the previous step's gap and estimate
            for step in (eps, eps / 10, eps / 100):
                flat_p[i] = orig + step
                f_plus = value()
                flat_p[i] = orig - step
                f_minus = value()
                flat_p[i] = orig
                gap = abs(f_plus - 2.0 * f0 + f_minus)  # one-sided differences' gap * step
                noise = 64 * np.finfo(np.float64).eps * max(abs(f0), abs(f_plus), abs(f_minus))
                estimate = (f_plus - f_minus) / (2.0 * step)
                if (last is not None and abs(100 * gap - last[0]) <= last[0] / 2 + 100 * noise
                        and abs(last[1] - estimate) <= (1e-3 * last[0] + noise) / step):
                    estimate = last[1]  # curvature: the larger step was unbiased
                    break
                if gap <= 1e-4 * (abs(f_plus - f0) + abs(f0 - f_minus)) + noise:
                    break
                last = gap, estimate
            flat_g[i] = estimate
        grads.append(g)
    return grads
