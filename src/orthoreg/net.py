"""MLP encoder + linear classifier with hand-derived backpropagation,
masked cross-entropy, and Adam.

The network is a stack of ReLU layers (the encoder) followed by one linear
classifier layer. The penultimate activation is the node embedding matrix
H; ``backward`` accepts an extra gradient to inject at H so regularizers
defined on embeddings can flow into all parameters through the same chain
rule. Dropout uses the inverted-scaling convention and is active only in
train mode, with masks drawn deterministically from an explicit seed.

The input may be a dense array or a scipy sparse matrix; only the first
layer's products see it, and both formats share the same arithmetic from
the first activation on.

Each encoder layer computes its output in place on the array its product
allocates: bias, ReLU, then the dropout keep mask and the 1 / (1 - p)
scale. The forward cache holds only what the weight gradients read: every
encoder layer's input, H, and the dropout scale (None without dropout).
No pre-activation or dropout mask is kept, because a unit passed the
gradient exactly when its output is positive (ReLU open and unit kept),
and that output is already cached as the next layer's input or as H; the
backward pass gates with it and then applies the scale. The gradients are
bit-identical to gating with the pre-activation and a float mask.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EmptyMask, MissingFile, ParseError, ShapeMismatch
from .tensor import as_matrix


@dataclass
class MlpParams:
    """Layer weights/biases; all layers but the last form the encoder."""

    layer_weights: list
    layer_biases: list
    dims: list
    activation: str = "relu"

    @property
    def n_layers(self) -> int:
        return len(self.layer_weights)

    def copy(self) -> "MlpParams":
        return MlpParams(
            layer_weights=[w.copy() for w in self.layer_weights],
            layer_biases=[b.copy() for b in self.layer_biases],
            dims=list(self.dims),
            activation=self.activation,
        )

    def flat_arrays(self):
        """(name, array) pairs in a stable order."""
        out = []
        for i, (w, b) in enumerate(zip(self.layer_weights, self.layer_biases)):
            out.append((f"W{i}", w))
            out.append((f"b{i}", b))
        return out


def init_mlp(dims, seed: int = 0) -> MlpParams:
    """Uniform Glorot-style initialization, deterministic per seed."""
    if len(dims) < 2:
        raise ShapeMismatch("dims needs at least [in, out]")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(layer_weights=weights, layer_biases=biases, dims=list(dims))


def forward(
    params: MlpParams,
    x,
    dropout_p: float = 0.0,
    seed: int = 0,
    train_mode: bool = False,
):
    """Run the network; returns (H, logits, cache) where H is the
    penultimate activation (the embedding the classifier consumes, with its
    dropout already applied in train mode). ``x`` is a dense array or a
    scipy sparse matrix; a sparse one is checked for finiteness on its
    stored entries only."""
    if sp.issparse(x):
        if x.ndim != 2:
            raise ShapeMismatch(f"x must be 2-D, got ndim={x.ndim}")
        if not np.all(np.isfinite(x.data)):
            raise ShapeMismatch("x contains non-finite entries")
    else:
        x = as_matrix(x, "x")
    if x.shape[1] != params.dims[0]:
        raise ShapeMismatch(
            f"input has {x.shape[1]} features, network expects {params.dims[0]}"
        )
    rng = np.random.default_rng(seed)
    scale = 1.0 / (1.0 - dropout_p) if train_mode and dropout_p > 0.0 else None
    inputs = []
    activation = x
    for w, b in zip(params.layer_weights[:-1], params.layer_biases[:-1]):
        inputs.append(activation)
        post = activation @ w
        post += b
        np.maximum(post, 0.0, out=post)
        if scale is not None:
            post *= rng.random(post.shape) >= dropout_p
            post *= scale
        activation = post
    h = activation
    logits = h @ params.layer_weights[-1] + params.layer_biases[-1]
    cache = {"inputs": inputs, "h": h, "scale": scale}
    return h, logits, cache


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels, mask):
    """Mean negative log-likelihood over ``mask`` plus the logits gradient
    (zero outside the mask); row-max stabilized."""
    logits = as_matrix(logits, "logits")
    idx = np.asarray(mask, dtype=np.int64).ravel()
    if idx.size == 0:
        raise EmptyMask("cross_entropy needs a non-empty index set")
    labels = np.asarray(labels, dtype=np.int64)
    y = labels[idx]
    if y.min() < 0 or y.max() >= logits.shape[1]:
        raise ShapeMismatch("mask selects a node without a valid label")
    sub = logits[idx]
    z = sub - sub.max(axis=1, keepdims=True)
    # one exp serves the log-normalizer and the softmax
    probs = np.exp(z)
    norm = probs.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(norm[:, 0]) - z[np.arange(idx.size), y]))
    probs /= norm
    probs[np.arange(idx.size), y] -= 1.0
    grad = np.zeros_like(logits)
    grad[idx] = probs / idx.size
    return loss, grad


@dataclass
class GradientBundle:
    """Per-parameter gradients mirroring MlpParams, plus the total gradient
    that reached the embedding layer."""

    weight_grads: list
    bias_grads: list
    grad_h: np.ndarray


def backward(
    params: MlpParams, cache, grad_logits, external_grad_h=None
) -> GradientBundle:
    """Exact gradients of (supervised loss + <external_grad_h, H>) w.r.t.
    every parameter; ``external_grad_h`` is injected at the embedding layer
    and propagated down the encoder. The gradient with respect to the input
    features is not formed."""
    grad_logits = as_matrix(grad_logits, "grad_logits")
    h = cache["h"]
    weight_grads = [None] * params.n_layers
    bias_grads = [None] * params.n_layers

    weight_grads[-1] = h.T @ grad_logits
    bias_grads[-1] = grad_logits.sum(axis=0)
    grad_h = grad_logits @ params.layer_weights[-1].T
    if external_grad_h is not None:
        external_grad_h = as_matrix(external_grad_h, "external_grad_h")
        if external_grad_h.shape != h.shape:
            raise ShapeMismatch(
                f"external_grad_h shape {external_grad_h.shape} != H shape {h.shape}"
            )
        grad_h += external_grad_h

    # a unit passed the gradient exactly when its output is positive (ReLU
    # open and, under dropout, kept); each output is the next layer's input
    inputs, scale = cache["inputs"], cache["scale"]
    outputs = inputs[1:] + [h]
    grad_act = grad_h
    for i in reversed(range(params.n_layers - 1)):
        g = grad_act * (outputs[i] > 0.0)
        if scale is not None:
            g *= scale
        weight_grads[i] = inputs[i].T @ g
        bias_grads[i] = g.sum(axis=0)
        if i > 0:
            grad_act = g @ params.layer_weights[i].T

    return GradientBundle(
        weight_grads=weight_grads, bias_grads=bias_grads, grad_h=grad_h
    )


# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers and step count for Adam."""

    first_moment: list
    second_moment: list
    step: int = 0
    lr: float = 1e-2
    weight_decay: float = 0.0


def adam_init(params: MlpParams, lr: float = 1e-2, weight_decay: float = 0.0) -> AdamState:
    zeros = lambda arrs: [np.zeros_like(a) for a in arrs]
    return AdamState(
        first_moment=zeros(params.layer_weights) + zeros(params.layer_biases),
        second_moment=zeros(params.layer_weights) + zeros(params.layer_biases),
        step=0,
        lr=lr,
        weight_decay=weight_decay,
    )


def adam_step(params: MlpParams, grads: GradientBundle, state: AdamState):
    """Standard Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) with bias correction
    and decoupled weight decay (applied to weights only); updates
    params/state in place and returns them.

    Per array, the step allocates one scratch buffer and the update: every
    other operation runs in place, in the order of the textbook formula
    (tests/mlp_oracle.py), so the parameters and moments are bit-identical
    to it."""
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    arrays = params.layer_weights + params.layer_biases
    gradients = grads.weight_grads + grads.bias_grads
    n_w = len(params.layer_weights)
    for i, (a, g) in enumerate(zip(arrays, gradients)):
        m = state.first_moment[i]
        v = state.second_moment[i]
        scratch = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += scratch
        np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
        scratch *= g
        v *= ADAM_BETA2
        v += scratch
        # scratch becomes the denominator sqrt(v / c2) + eps
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        update = m / c1
        update /= scratch
        if state.weight_decay > 0.0 and i < n_w:
            np.multiply(a, state.weight_decay, out=scratch)
            update += scratch
        update *= state.lr
        a -= update
    return params, state


CHECKPOINT_VERSION = 1


def save_checkpoint(params: MlpParams, path) -> None:
    """Write named parameter arrays plus dims/activation/version into one
    .npz file."""
    payload = {name: arr for name, arr in params.flat_arrays()}
    payload["dims"] = np.asarray(params.dims, dtype=np.int64)
    payload["activation"] = np.asarray([params.activation])
    payload["version"] = np.asarray([CHECKPOINT_VERSION], dtype=np.int64)
    np.savez(path, **payload)


def load_checkpoint(path) -> MlpParams:
    """The parameters saved by save_checkpoint. A missing file, a file that
    is not an .npz archive, a missing or contradicting array and a
    non-finite parameter each raise a package error naming the file (and
    the array)."""
    if not os.path.isfile(path):
        raise MissingFile(f"checkpoint not found: {path}")
    try:
        blob = np.load(path)
    except (ValueError, OSError, EOFError, zipfile.BadZipFile):
        blob = None  # not a numpy file, or a truncated one
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ParseError(f"{path}: not an .npz checkpoint archive")
    with blob:
        def read(name):
            if name not in blob:
                raise ParseError(f"{path}: checkpoint has no array {name!r}")
            return blob[name]

        version = read("version")
        if version.shape != (1,) or int(version[0]) != CHECKPOINT_VERSION:
            raise ShapeMismatch(f"{path}: unsupported checkpoint version {version.tolist()}")
        dims = [int(d) for d in read("dims")]
        if len(dims) < 2:
            raise ShapeMismatch(f"{path}: dims {dims} give no layer")
        activation = str(blob["activation"][0]) if "activation" in blob else "relu"
        if activation != "relu":
            raise ShapeMismatch(f"{path}: activation {activation!r} is not relu, "
                                "the only one forward applies")
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            for name, shape, arrays in ((f"W{i}", (fan_in, fan_out), weights),
                                        (f"b{i}", (fan_out,), biases)):
                arr = read(name)
                if arr.shape != shape:
                    raise ShapeMismatch(f"{path}: {name} has shape {arr.shape} "
                                        f"but dims {dims} give {shape}")
                arr = arr.astype(np.float64)
                if not np.all(np.isfinite(arr)):
                    raise ShapeMismatch(f"{path}: {name} contains non-finite values")
                arrays.append(arr)
    return MlpParams(layer_weights=weights, layer_biases=biases, dims=dims,
                     activation=activation)
