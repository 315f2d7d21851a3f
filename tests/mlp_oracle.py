"""Reference forward/backward passes for the tests: the cached
pre-activation route.

The package runs bias, ReLU and dropout in place, caches only each layer's
input, and gates the backward pass with the layer outputs. This module is
the straightforward route those results are compared against: every layer
keeps its pre-activation and a float64 dropout mask (0 or 1 / (1 - p)),
and the backward pass multiplies by the mask and by pre > 0. Both routes
draw the same uniforms in the same order, so they agree bit for bit.

``adam_step`` is the textbook Adam update, each term a fresh array; the
package's in-place step runs the same operations in the same order.
"""

import numpy as np

from orthoreg.net import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def forward(params, x, dropout_p=0.0, seed=0, train_mode=False):
    """(H, logits, cache) of the MLP; ``x`` dense or scipy sparse."""
    rng = np.random.default_rng(seed)
    activation = x
    layers = []
    for i in range(params.n_layers - 1):
        pre = activation @ params.layer_weights[i] + params.layer_biases[i]
        post = np.maximum(pre, 0.0)
        mask = None
        if train_mode and dropout_p > 0.0:
            mask = (rng.random(post.shape) >= dropout_p) / (1.0 - dropout_p)
            post = post * mask
        layers.append({"input": activation, "pre": pre, "mask": mask})
        activation = post
    h = activation
    logits = h @ params.layer_weights[-1] + params.layer_biases[-1]
    return h, logits, {"layers": layers, "h": h}


def backward(params, cache, grad_logits, external_grad_h=None):
    """(weight grads, bias grads, grad_h) for ``forward``."""
    h = cache["h"]
    weight_grads = [None] * params.n_layers
    bias_grads = [None] * params.n_layers
    weight_grads[-1] = h.T @ grad_logits
    bias_grads[-1] = grad_logits.sum(axis=0)
    grad_h = grad_logits @ params.layer_weights[-1].T
    if external_grad_h is not None:
        grad_h = grad_h + external_grad_h
    grad_act = grad_h
    for i in reversed(range(params.n_layers - 1)):
        layer = cache["layers"][i]
        g = grad_act
        if layer["mask"] is not None:
            g = g * layer["mask"]
        g = g * (layer["pre"] > 0.0)
        weight_grads[i] = layer["input"].T @ g
        bias_grads[i] = g.sum(axis=0)
        if i > 0:
            grad_act = g @ params.layer_weights[i].T
    return weight_grads, bias_grads, grad_h


def gcn_forward(op, weights, biases, x, dropout_p=0.0, seed=0, train_mode=False):
    """(logits, cache) of the graph convolution; dropout on each layer's
    input."""
    rng = np.random.default_rng(seed)
    act = x
    cache = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        inp = act
        mask = None
        if train_mode and dropout_p > 0.0:
            mask = (rng.random(inp.shape) >= dropout_p) / (1.0 - dropout_p)
            inp = inp * mask
        pre = op.matrix @ (inp @ w) + b
        cache.append({"input": inp, "mask": mask, "pre": pre})
        act = np.maximum(pre, 0.0) if i < len(weights) - 1 else pre
    return act, cache


def gcn_backward(op, weights, cache, grad_logits, weight_decay=0.0):
    """(weight grads, bias grads) for ``gcn_forward``, with the L2 term on
    layer 0's weight gradient."""
    grad_ws, grad_bs = [None] * len(weights), [None] * len(weights)
    g = grad_logits
    for i in reversed(range(len(weights))):
        layer = cache[i]
        if i < len(weights) - 1:
            g = g * (layer["pre"] > 0.0)
        back = op.matrix.T @ g
        grad_ws[i] = layer["input"].T @ back
        grad_bs[i] = g.sum(axis=0)
        if weight_decay > 0.0 and i == 0:
            grad_ws[i] = grad_ws[i] + weight_decay * weights[i]
        if i > 0:
            g = back @ weights[i].T
            if layer["mask"] is not None:
                g = g * layer["mask"]
    return grad_ws, grad_bs


def adam_step(params, grads, state):
    """One Adam step on ``params`` and the moments in ``state``, as
    orthoreg.net.adam_step takes them."""
    state.step += 1
    t = state.step
    arrays = params.layer_weights + params.layer_biases
    gradients = grads.weight_grads + grads.bias_grads
    n_w = len(params.layer_weights)
    for i, (a, g) in enumerate(zip(arrays, gradients)):
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if state.weight_decay > 0.0 and i < n_w:
            update = update + state.weight_decay * a
        a -= state.lr * update
