"""The ``Model.backward(..., input_grad=False)`` contract.

Training never reads the gradient w.r.t. the model input, so
``loss_and_grad`` stops the backward pass at the first trainable layer
and that layer skips its own input gradient.  These tests pin that the
parameter gradients are bitwise those of a full pass, that the call
returns ``None``, and that the callers who do want the input gradient
(``Model.backward()`` by default, the inversion attack) still get it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.audio import build_audio_m5
from repro.models.fcnn import build_fcnn
from repro.models.resnet import build_resnet_small
from repro.nn.activations import ReLU
from repro.nn.layers import Dense, Dropout, Flatten
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.privacy.attacks.inversion import invert_class


def _fcnn(rng):
    return build_fcnn(20, 4, rng, hidden=(16, 12)), (20,)


def _resnet(rng):
    return build_resnet_small((3, 8, 8), 4, rng, channels=4,
                              num_blocks=1), (3, 8, 8)


def _audio(rng):
    return build_audio_m5((1, 256), 4, rng, widths=(4, 8)), (1, 256)


def _paramless_front(rng):
    """First layers carry no params: they are skipped, not run."""
    model = Model([Flatten(), Dropout(0.2), Dense(12, 8, rng), ReLU(),
                   Dense(8, 4, rng)], rng=rng)
    return model, (3, 4)


BUILDERS = {"fcnn": _fcnn, "resnet": _resnet, "audio": _audio,
            "paramless_front": _paramless_front}


def _batch(shape, rng, n=6):
    return rng.standard_normal((n, *shape)), rng.integers(0, 4, n)


def _grads_after(model, x, y, *, input_grad):
    loss = SoftmaxCrossEntropy()
    # the same seeded forward (Dropout draws its mask here) each time
    model.attach_rng(np.random.default_rng(7))
    loss.forward(model.forward(x, training=True), y)
    returned = model.backward(loss.backward(), input_grad=input_grad)
    return model.grad_vector.copy(), returned


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_param_grads_bitwise_equal_full_pass(name, rng):
    model, shape = BUILDERS[name](rng)
    x, y = _batch(shape, rng)
    full, dx = _grads_after(model, x, y, input_grad=True)
    model.grad_vector.fill(np.nan)
    partial, none = _grads_after(model, x, y, input_grad=False)
    assert dx is not None and dx.shape == x.shape
    assert none is None
    assert partial.tobytes() == full.tobytes()
    assert model.grads_ready


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_loss_and_grad_matches_full_backward(name, rng):
    model, shape = BUILDERS[name](rng)
    x, y = _batch(shape, rng)
    full, _ = _grads_after(model, x, y, input_grad=True)
    model.attach_rng(np.random.default_rng(7))
    model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    assert model.grad_vector.tobytes() == full.tobytes()


def test_first_trainable_layer_skips_input_gradient(rng):
    """The skipped matmul also skips its arena buffer."""
    model, shape = _fcnn(rng)
    x, y = _batch(shape, rng)
    model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    first = model.layers[0]
    ws = model.workspace
    roles = {key[1] for key in ws.keys()
             if key[0] == ws.owner_index(first)}
    assert roles == {"out"}
    assert first.skips_input_grad
    assert first._x is None  # the batch cache is released as before
    model.backward(model.forward(x, training=True) * 0.0)
    assert "dx" in {key[1] for key in ws.keys()
                    if key[0] == ws.owner_index(first)}


def test_default_backward_returns_input_gradient(rng):
    model, shape = _fcnn(rng)
    x, y = _batch(shape, rng)
    loss = SoftmaxCrossEntropy()
    loss.forward(model.forward(x, training=True), y)
    upstream = loss.backward()
    dx = model.backward(upstream.copy())
    # the same chain walked layer by layer, by hand
    model.forward(x, training=True)
    grad = upstream.copy()
    for layer in reversed(model.layers):
        grad = layer.backward(grad)
    np.testing.assert_array_equal(dx, grad)


def test_invert_class_unchanged(rng):
    """The inversion attack still descends the full input gradient."""
    model, shape = _fcnn(rng)
    got = invert_class(model, 2, shape, rng=np.random.default_rng(3),
                       steps=5)
    # reference: the attack's loop with the backward walked by hand
    x = np.random.default_rng(3).standard_normal((1, *shape)) * 0.1
    loss = SoftmaxCrossEntropy()
    for _ in range(5):
        loss.forward(model.forward(x, training=False), np.array([2]))
        grad = loss.backward()
        for layer in reversed(model.layers):
            grad = layer.backward(grad)
        x = x - 0.5 * (grad + 1e-3 * x)
    assert got.tobytes() == x[0].tobytes()


def test_backward_plan_stops_at_first_trainable_layer(rng):
    model, _ = _paramless_front(rng)
    flatten, dropout, first, relu, last = model.layers
    assert model.backward_plan() == [
        (last, {}), (relu, {}), (first, {}), (dropout, {}),
        (flatten, {})]
    assert model.backward_plan(input_grad=False) == [
        (last, {}), (relu, {}), (first, {"input_grad": False})]
    assert Model([ReLU()]).backward_plan(input_grad=False) == []
