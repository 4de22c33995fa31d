"""Adam optimizer over plain numpy parameter lists."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9  # decay of the first-moment (mean) estimate
BETA2 = 0.999  # decay of the second-moment (uncentred variance) estimate
EPS = 1e-8  # added to the root of the second moment


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> list[np.ndarray]:
    """One bias-corrected Adam update; returns new parameter arrays.

    The moment buffers in `state` are updated in place; the input
    parameter arrays are left untouched.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must be parallel lists")
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(f"param/grad shape mismatch at index {i}")
        m, v = state.m[i], state.v[i]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        step = m / bias1  # lr * m_hat / (sqrt(v_hat) + eps), in place
        step *= lr
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        out.append(p - step)
    return out
