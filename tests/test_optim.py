"""Adam updates and the latent-weight clipping contract."""

import numpy as np
import pytest

from bingcn.optim import AdamState, adam_step
from bingcn.train import Model, ModelConfig


def test_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.0, -2.0]), np.ones((2, 2))]
    state = AdamState.for_params(params)
    out = adam_step(params, [np.zeros(2), np.zeros((2, 2))], state, lr=0.1)
    for before, after in zip(params, out):
        assert np.array_equal(before, after)


def test_first_step_is_signed_lr():
    for g in (0.3, -4.0, 1e-3):
        params = [np.array([0.0])]
        state = AdamState.for_params(params)
        out = adam_step(params, [np.array([g])], state, lr=0.01)
        expected = -0.01 * g / (abs(g) + 1e-8)
        assert out[0][0] == pytest.approx(expected, rel=1e-9)
        assert out[0][0] == pytest.approx(-0.01 * np.sign(g), rel=1e-4)


def test_decreases_quadratic_loss():
    params = [np.array([5.0])]
    state = AdamState.for_params(params)
    for _ in range(2000):
        grad = [2.0 * params[0]]
        params = adam_step(params, grad, state, lr=0.05)
    assert abs(params[0][0]) < 1e-2


def test_shape_mismatch_rejected():
    params = [np.zeros(3)]
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_step(params, [np.zeros(4)], state, lr=0.1)
    with pytest.raises(ValueError):
        adam_step(params, [np.zeros(3), np.zeros(3)], state, lr=0.1)


def test_moments_accumulate_across_steps():
    params = [np.array([0.0])]
    state = AdamState.for_params(params)
    adam_step(params, [np.array([1.0])], state, lr=0.1)
    assert state.step == 1
    assert state.m[0][0] == pytest.approx(0.1)
    assert state.v[0][0] == pytest.approx(0.001)


def test_latent_weights_clipped_after_update():
    config = ModelConfig(widths=[3, 2], model="bigcn", seed=0)
    model = Model(config, np.random.default_rng(0))
    model.update([np.array([[1.2, -3.0], [0.5, 0.99], [-1.0, 1.0]])])
    w = model.weights[0]
    assert w.max() <= 1.0 and w.min() >= -1.0
    assert w[0, 0] == 1.0 and w[0, 1] == -1.0 and w[1, 0] == 0.5
