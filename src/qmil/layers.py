"""Fully convolutional instance classifier with hand-derived backward passes.

The model is a stack of valid (no padding) strided convolutions with relu
between them and a final 1x1 convolution producing one logit channel per
class of every task. Applied to an image it yields a spatial grid whose
cells are the instances; each cell's receptive field lies fully inside the
image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import LOG_EPS, check_finite

MISSING = -1

# Desk-scale default trunk: downsample 4, receptive field 9. A 64x64 input
# yields a 14x14 instance grid.
DEFAULT_TRUNK = ((5, 2, 3, 8), (3, 2, 8, 16))

# Images arrive in [0, 1]; the conv stack sees them centered. Uncentered
# all-positive inputs condition the first layer badly enough to stall SGD.
INPUT_SHIFT = 0.5


@dataclass
class ConvLayer:
    """Valid convolution parameters: kernel (kh, kw, c_in, c_out) and bias."""

    kernel: np.ndarray
    bias: np.ndarray
    stride: int


def _patch_view(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only strided view of all kernel-sized input patches."""
    H, W, C = x.shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    s0, s1, s2 = x.strides
    shape = (oh, ow, kh, kw, C)
    strides = (s0 * stride, s1 * stride, s0, s1, s2)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Valid cross-correlation plus bias; output side = (in - k)//stride + 1."""
    kh, kw, c_in, _ = layer.kernel.shape
    H, W, C = x.shape
    if C != c_in:
        raise ValueError(f"input has {C} channels, kernel expects {c_in}")
    if H < kh or W < kw:
        raise ValueError(f"input {H}x{W} smaller than kernel {kh}x{kw}")
    patches = _patch_view(x, kh, kw, layer.stride)
    out = np.tensordot(patches, layer.kernel, axes=3) + layer.bias
    return out


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray,
                    input_grad: bool = True):
    """Exact gradients of conv2d_forward: (input, kernel, bias).

    With input_grad=False the input gradient, the larger half of the work,
    is skipped and returned as None; the first layer needs no gradient
    with respect to the image.
    """
    kh, kw, c_in, c_out = layer.kernel.shape
    stride = layer.stride
    oh = (x.shape[0] - kh) // stride + 1
    ow = (x.shape[1] - kw) // stride + 1
    if grad_out.shape != (oh, ow, c_out):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match output {(oh, ow, c_out)}"
        )
    patches = _patch_view(x, kh, kw, stride)
    grad_bias = grad_out.sum(axis=(0, 1))
    grad_kernel = np.tensordot(patches, grad_out, axes=([0, 1], [0, 1]))
    if not input_grad:
        return None, grad_kernel, grad_bias
    # (oh, ow, kh, kw, c_in); scatter back onto the input with slice adds
    grad_patches = np.tensordot(grad_out, layer.kernel, axes=([2], [3]))
    grad_input = np.zeros_like(x)
    for di in range(kh):
        for dj in range(kw):
            grad_input[
                di : di + stride * oh : stride, dj : dj + stride * ow : stride
            ] += grad_patches[:, :, di, dj]
    return grad_input, grad_kernel, grad_bias


def instance_softmax(logits: np.ndarray) -> np.ndarray:
    """Exp-normalize the last axis at every location, max-subtracted."""
    if logits.shape[-1] < 2:
        raise ValueError("softmax needs at least two classes")
    check_finite(logits, "instance_softmax input")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def instance_softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given softmax outputs and their gradient."""
    inner = (grad_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def masked_cross_entropy(bag_probs, labels, task_weights=None):
    """Multi-task cross entropy that skips missing labels.

    bag_probs is one probability vector per task; labels is one class index
    per task with MISSING marking absent labels. Missing tasks contribute
    exactly zero loss and zero gradient. Returns (loss, per-task gradients).
    """
    if task_weights is None:
        task_weights = [1.0] * len(bag_probs)
    if not (len(bag_probs) == len(labels) == len(task_weights)):
        raise ValueError("bag_probs, labels and task_weights must align")
    loss = 0.0
    grads = []
    for probs, label, weight in zip(bag_probs, labels, task_weights):
        grad = np.zeros_like(probs)
        if label != MISSING:
            if not 0 <= label < probs.shape[0]:
                raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
            if abs(float(probs.sum()) - 1.0) > 1e-4:
                raise ValueError(f"probabilities sum to {float(probs.sum()):.6f}, not 1")
            p = max(float(probs[label]), LOG_EPS)
            loss -= weight * np.log(p)
            if probs[label] > LOG_EPS:
                grad[label] = -weight / p
        grads.append(grad)
    return float(loss), grads


class FcnModel:
    """Conv/relu stack ending in a 1x1 conv with one channel per task class.

    task_class_counts gives the class count of every task; the final layer
    has sum(task_class_counts) output channels, sliced per task downstream.
    """

    def __init__(self, task_class_counts, trunk=DEFAULT_TRUNK, dtype=np.float32):
        self.task_class_counts = [int(c) for c in task_class_counts]
        if any(c < 2 for c in self.task_class_counts):
            raise ValueError("every task needs at least two classes")
        total = sum(self.task_class_counts)
        specs = [tuple(s) for s in trunk] + [(1, 1, trunk[-1][3], total)]
        self.layers = []
        for k, stride, c_in, c_out in specs:
            kernel = np.zeros((k, k, c_in, c_out), dtype=dtype)
            bias = np.zeros(c_out, dtype=dtype)
            self.layers.append(ConvLayer(kernel, bias, stride))

    @property
    def num_classes(self) -> int:
        return sum(self.task_class_counts)

    @property
    def downsample(self) -> int:
        d = 1
        for layer in self.layers:
            d *= layer.stride
        return d

    @property
    def receptive_field(self) -> int:
        r, jump = 1, 1
        for layer in self.layers:
            r += (layer.kernel.shape[0] - 1) * jump
            jump *= layer.stride
        return r

    def grid_side(self, side: int) -> int:
        """Output grid side for a square input of the given side."""
        for layer in self.layers:
            k = layer.kernel.shape[0]
            if side < k:
                raise ValueError(f"input side {side} too small for the receptive field")
            side = (side - k) // layer.stride + 1
        return side

    def task_slices(self):
        slices, start = [], 0
        for count in self.task_class_counts:
            slices.append(slice(start, start + count))
            start += count
        return slices

    def parameters(self):
        """Flat parameter list (kernel, bias per layer); mutated by the optimizer."""
        params = []
        for layer in self.layers:
            params.extend((layer.kernel, layer.bias))
        return params

    def forward(self, image: np.ndarray):
        """Return (logits grid, cache); relu between convs, none after the last."""
        x = image - INPUT_SHIFT
        inputs, preacts = [], []
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            inputs.append(x)
            x = conv2d_forward(x, layer)
            if i < last:
                preacts.append(x)
                x = np.maximum(x, 0)
        return x, (inputs, preacts)

    def backward(self, cache, grad_logits: np.ndarray):
        """Gradients w.r.t. every parameter, in parameters() order.

        Backpropagation stops at the first layer's weights: nothing trains
        the image, so its gradient is never computed.
        """
        inputs, preacts = cache
        grad = grad_logits
        param_grads = [None] * (2 * len(self.layers))
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                grad = grad * (preacts[i] > 0)
            grad, gk, gb = conv2d_backward(inputs[i], self.layers[i], grad, input_grad=i > 0)
            param_grads[2 * i] = gk
            param_grads[2 * i + 1] = gb
        return param_grads

    def astype(self, dtype) -> "FcnModel":
        """Copy of the model with parameters cast (float64 gradient checking)."""
        trunk = [
            (l.kernel.shape[0], l.stride, l.kernel.shape[2], l.kernel.shape[3])
            for l in self.layers[:-1]
        ]
        clone = FcnModel(self.task_class_counts, trunk=trunk, dtype=dtype)
        for dst, src in zip(clone.layers, self.layers):
            dst.kernel[...] = src.kernel
            dst.bias[...] = src.bias
        return clone


def init_params(model: FcnModel, seed: int) -> FcnModel:
    """Fill kernels with zero-mean uniform draws, bound sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        kh, kw, c_in, c_out = layer.kernel.shape
        fan_in = kh * kw * c_in
        fan_out = kh * kw * c_out
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        layer.kernel[...] = rng.uniform(-bound, bound, size=layer.kernel.shape)
        layer.bias[...] = 0.0
    return model


def sgd_step(params, grads, lr: float, momentum: float, velocities) -> None:
    """In-place SGD with momentum: v <- momentum*v + g; p <- p - lr*v.

    lr = 0 is allowed as a frozen step (velocities still update).
    """
    if lr < 0:
        raise ValueError("learning rate must not be negative")
    if not 0 <= momentum < 1:
        raise ValueError("momentum must lie in [0, 1)")
    for p, g, v in zip(params, grads, velocities, strict=True):
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, velocity {v.shape}")
        v *= momentum
        v += g
        p -= lr * v
