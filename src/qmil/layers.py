"""Fully convolutional instance classifier with hand-derived backward passes.

The model is a stack of valid (no padding) strided convolutions with relu
between them and a final 1x1 convolution producing one logit channel per
class of every task. Applied to an image it yields a spatial grid whose
cells are the instances; each cell's receptive field lies fully inside the
image.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class ConvLayer:
    """Valid convolution parameters: kernel (kh, kw, c_in, c_out) and bias.

    Frozen: in a model the arrays are views into its flat parameter buffer,
    so they are updated in place and never rebound.
    """

    kernel: np.ndarray
    bias: np.ndarray
    stride: int


def flat_views(shapes, dtype=np.float32):
    """One zeroed 1-D buffer and a view into it per shape, laid out in order.

    Writing through a view writes the buffer, so a parameter group can be
    updated and checked as one array. Returns (buffer, views).
    """
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.zeros(sum(sizes), dtype=dtype)
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return flat, views


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
    """Valid cross-correlation plus bias; output side = (in - k)//stride + 1.

    One np.dot of the (oh*ow, kh*kw*c_in) patch matrix and the
    (kh*kw*c_in, c_out) kernel matrix: the C-contiguous operands that
    np.tensordot(patches, kernel, axes=3) builds, without tensordot's
    per-call Python work. The operand layout is fixed because it decides
    which BLAS kernel runs and so the rounding: this layout reproduces the
    recorded loss history bit for bit, while passing a transposed view
    (such as cols.T) changed the layer-0 kernel gradient in its last bits.
    """
    kh, kw, c_in, c_out = layer.kernel.shape
    H, W, C = x.shape
    if C != c_in:
        raise ValueError(f"input has {C} channels, kernel expects {c_in}")
    if H < kh or W < kw:
        raise ValueError(f"input {H}x{W} smaller than kernel {kh}x{kw}")
    patches = _patch_view(x, kh, kw, layer.stride)
    oh, ow = patches.shape[:2]
    cols = patches.reshape(oh * ow, kh * kw * c_in)
    out = np.dot(cols, layer.kernel.reshape(kh * kw * c_in, c_out))
    return out.reshape(oh, ow, c_out) + layer.bias


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray,
                    input_grad: bool = True):
    """Exact gradients of conv2d_forward: (input, kernel, bias).

    With input_grad=False the input gradient, the larger half of the work,
    is skipped and returned as None; the first layer needs no gradient
    with respect to the image.

    Both products are single np.dot calls on the C-contiguous 2-D operands
    np.tensordot would build (see conv2d_forward): (K, P) patches times
    (P, c_out) output gradient for the kernel, and (P, c_out) output
    gradient times (c_out, K) kernel for the patches, with P = oh*ow and
    K = kh*kw*c_in. The fixed layout keeps the gradients bit-identical to
    the recorded loss history.
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
    K, P = kh * kw * c_in, oh * ow
    grad_rows = grad_out.reshape(P, c_out)
    cols_t = patches.transpose(2, 3, 4, 0, 1).reshape(K, P)
    grad_kernel = np.dot(cols_t, grad_rows).reshape(kh, kw, c_in, c_out)
    if not input_grad:
        return None, grad_kernel, grad_bias
    # (oh, ow, kh, kw, c_in); scatter back onto the input with slice adds
    kernel_t = layer.kernel.transpose(3, 0, 1, 2).reshape(c_out, K)
    grad_patches = np.dot(grad_rows, kernel_t).reshape(oh, ow, kh, kw, c_in)
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
    Every kernel and bias is a view into the one flat buffer self.flat,
    laid out as kernel then bias per layer, the order of backward().
    """

    def __init__(self, task_class_counts, trunk=DEFAULT_TRUNK, dtype=np.float32):
        self.task_class_counts = [int(c) for c in task_class_counts]
        if any(c < 2 for c in self.task_class_counts):
            raise ValueError("every task needs at least two classes")
        total = sum(self.task_class_counts)
        specs = [tuple(s) for s in trunk] + [(1, 1, trunk[-1][3], total)]
        shapes = [
            shape for k, _, c_in, c_out in specs for shape in ((k, k, c_in, c_out), (c_out,))
        ]
        self.flat, views = flat_views(shapes, dtype)
        self.layers = [
            ConvLayer(views[2 * i], views[2 * i + 1], stride)
            for i, (_, stride, _, _) in enumerate(specs)
        ]

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
        """Gradients w.r.t. every parameter: kernel then bias per layer.

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
        clone.flat[...] = self.flat
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


def sgd_step(param, grad, lr: float, momentum: float, velocity) -> None:
    """In-place SGD with momentum: v <- momentum*v + g; p <- p - lr*v.

    Callers pass one flat buffer per parameter group (the model's or the
    heads' parameters, their gradient and their velocity), so a step is
    three array operations however many layers the group holds. The update
    is elementwise, so it gives the same bits as stepping every array of
    the group separately. lr = 0 is allowed as a frozen step (the velocity
    still updates).
    """
    if lr < 0:
        raise ValueError("learning rate must not be negative")
    if not 0 <= momentum < 1:
        raise ValueError("momentum must lie in [0, 1)")
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, velocity {velocity.shape}"
        )
    velocity *= momentum
    velocity += grad
    param -= lr * velocity
