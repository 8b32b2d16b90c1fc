"""Fully convolutional instance classifier with hand-derived backward passes.

The model is a stack of valid (no padding) strided convolutions with relu
between them and a final 1x1 convolution producing one logit channel per
class of every task. Applied to an image it yields a spatial grid whose
cells are the instances; each cell's receptive field lies fully inside the
image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .tensor import check_finite

MISSING = -1
LOG_EPS = 1e-12  # masked_cross_entropy clamps probabilities here before the log

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
    """Read-only strided view of all kernel-sized input patches.

    The view is built with the ndarray constructor over x's buffer rather
    than np.lib.stride_tricks.as_strided, whose Python-level set-up cost
    ~7-12 us a call against ~1.5 us (2-core x86-64, numpy 2.4), and a
    training step makes six. The constructor needs a contiguous buffer, so
    any other input is copied first; the patches read the same values
    either way.
    """
    if not x.flags.c_contiguous:
        x = np.ascontiguousarray(x)
    H, W, C = x.shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    s0, s1, s2 = x.strides
    strides = (s0 * stride, s1 * stride, s0, s1, s2)
    view = np.ndarray((oh, ow, kh, kw, C), x.dtype, x, 0, strides)
    view.flags.writeable = False
    return view


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Valid cross-correlation plus bias; output side = (in - k)//stride + 1.

    One np.dot of the (oh*ow, kh*kw*c_in) patch matrix and the
    (kh*kw*c_in, c_out) kernel matrix: the C-contiguous operands that
    np.tensordot(patches, kernel, axes=3) builds, without tensordot's
    per-call Python work. The operand layout is fixed because it decides
    which BLAS kernel runs and so the rounding: this layout reproduces the
    recorded loss history bit for bit, while passing a transposed view
    (such as cols.T) changed the layer-0 kernel gradient in its last bits.

    A 1x1 kernel at stride 1 (the model's last layer) has the input's
    pixels as its patches, so x.reshape(P, c_in) is the patch matrix itself
    and no patch view is built.
    """
    kernel = layer.kernel
    kh, kw, c_in, c_out = kernel.shape
    H, W, C = x.shape
    if C != c_in:
        raise ValueError(f"input has {C} channels, kernel expects {c_in}")
    if H < kh or W < kw:
        raise ValueError(f"input {H}x{W} smaller than kernel {kh}x{kw}")
    if kh == kw == 1 and layer.stride == 1:
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        out = np.dot(x.reshape(H * W, C), kernel.reshape(C, c_out)).reshape(H, W, c_out)
    else:
        patches = _patch_view(x, kh, kw, layer.stride)
        oh, ow = patches.shape[:2]
        cols = patches.reshape(oh * ow, kh * kw * c_in)
        out = np.dot(cols, kernel.reshape(kh * kw * c_in, c_out)).reshape(oh, ow, c_out)
    out += layer.bias
    return out


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

    The patch gradients are scattered back onto the input by one np.add.at
    over them in (kernel row, kernel column, ...) order, so every input
    element adds its contributions in the order of one slice add per
    kernel offset, starting from zero: the same bits as that loop, for a
    call instead of kh*kw.

    A 1x1 kernel at stride 1 takes neither the patch view nor the scatter.
    Its (K, P) patch operand is x.reshape(P, c_in).T, the same transposed
    view the patch path hands to np.dot; a C-contiguous copy of it would
    run another BLAS kernel, and did change the kernel gradient's last bits
    on grids of 8x8 and more. Every input element receives exactly one
    patch gradient v, so the scatter from zero computes 0.0 + v, and
    v + 0.0 gives the same bits, turning -0.0 into +0.0 as the scatter does.
    """
    kernel = layer.kernel
    kh, kw, c_in, c_out = kernel.shape
    stride = layer.stride
    oh = (x.shape[0] - kh) // stride + 1
    ow = (x.shape[1] - kw) // stride + 1
    if grad_out.shape != (oh, ow, c_out):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match output {(oh, ow, c_out)}"
        )
    grad_bias = np.add.reduce(grad_out, axis=(0, 1))  # ndarray.sum without its wrapper
    K, P = kh * kw * c_in, oh * ow
    grad_rows = grad_out.reshape(P, c_out)
    if kh == kw == 1 and stride == 1:
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        grad_kernel = np.dot(x.reshape(P, c_in).T, grad_rows).reshape(kernel.shape)
        if not input_grad:
            return None, grad_kernel, grad_bias
        grad_input = np.dot(grad_rows, kernel.reshape(c_in, c_out).T)
        grad_input += 0.0
        return grad_input.reshape(x.shape).astype(x.dtype, copy=False), grad_kernel, grad_bias
    patches = _patch_view(x, kh, kw, stride)
    cols_t = patches.transpose(2, 3, 4, 0, 1).reshape(K, P)
    grad_kernel = np.dot(cols_t, grad_rows).reshape(kh, kw, c_in, c_out)
    if not input_grad:
        return None, grad_kernel, grad_bias
    kernel_t = kernel.transpose(3, 0, 1, 2).reshape(c_out, K)
    grad_patches = np.dot(grad_rows, kernel_t).reshape(oh, ow, kh, kw, c_in)
    # C order whatever x's layout, so that reshape(-1) below is a view
    grad_input = np.zeros(x.shape, dtype=x.dtype)
    np.add.at(
        grad_input.reshape(-1),
        _scatter_index(x.shape, kh, kw, stride),
        grad_patches.transpose(2, 3, 0, 1, 4).reshape(-1),
    )
    return grad_input, grad_kernel, grad_bias


@lru_cache(maxsize=32)
def _scatter_index(shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only flat input index of every patch element, in (kh, kw, oh, ow, c) order."""
    H, W, C = shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    rows = np.arange(kh)[:, None, None, None, None] + stride * np.arange(oh)[:, None, None]
    cols = np.arange(kw)[:, None, None, None] + stride * np.arange(ow)[:, None]
    index = ((rows * W + cols) * C + np.arange(C)).reshape(-1)
    index.flags.writeable = False
    return index


def channel_slices(counts):
    """Consecutive slices of a channel axis, one per count."""
    slices, start = [], 0
    for count in counts:
        slices.append(slice(start, start + count))
        start += count
    return slices


# numpy adds up a last axis shorter than this one term after another, and
# a longer one pairwise
_SEQUENTIAL_SUM_LIMIT = 8


@lru_cache(maxsize=32)
def _channel_blocks(counts: tuple) -> tuple:
    """Runs of equally sized consecutive channel groups: (slice, count) each.

    Raises ValueError if a group has fewer than two channels.
    """
    if min(counts) < 2:
        raise ValueError("softmax needs at least two classes")
    blocks, start, i = [], 0, 0
    while i < len(counts):
        j = i
        while j < len(counts) and counts[j] == counts[i]:
            j += 1
        stop = start + (j - i) * counts[i]
        blocks.append((slice(start, stop), counts[i]))
        start, i = stop, j
    return tuple(blocks)


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of each row of a 2-D array in the order numpy's last-axis sum adds.

    Below _SEQUENTIAL_SUM_LIMIT the columns are added one after another, a
    call per column for all rows, where a reduction along the short last
    axis takes a call per row.
    """
    count = terms.shape[-1]
    if count >= _SEQUENTIAL_SUM_LIMIT:
        return np.add.reduce(np.ascontiguousarray(terms), axis=-1)
    total = terms[:, 0] + terms[:, 1]
    for k in range(2, count):
        total += terms[:, k]
    return total


def _row_softmax(x: np.ndarray) -> np.ndarray:
    """exp(x - x.max(-1)); e / e.sum(-1) for every row of a 2-D array, as a new array.

    Every operation runs on whole columns: the max is exact in any order,
    and a column at a time keeps numpy's inner loop along the rows, where
    broadcasting a row's max or sum would loop over the few columns
    (70 against 46 us on 7688 two-class rows, 2-core x86-64, numpy 2.4).
    """
    count = x.shape[1]
    peak = np.maximum(x[:, 0], x[:, 1])
    for k in range(2, count):
        np.maximum(peak, x[:, k], out=peak)
    e = np.empty(x.shape, dtype=x.dtype)
    for k in range(count):
        np.subtract(x[:, k], peak, out=e[:, k])
    np.exp(e, out=e)
    total = _row_sum(e)
    for k in range(count):
        np.divide(e[:, k], total, out=e[:, k])
    return e


def _row_diff(grad: np.ndarray, products: np.ndarray) -> np.ndarray:
    """grad - products.sum(-1) for every row of two 2-D arrays, a column at a time."""
    inner = _row_sum(products)
    diff = np.empty(grad.shape, dtype=products.dtype)
    for k in range(grad.shape[1]):
        np.subtract(grad[:, k], inner, out=diff[:, k])
    return diff


def _per_group(fn, blocks, *rows) -> np.ndarray:
    """fn applied to every channel group of (locations, channels) arrays.

    Each array is viewed with one group per row, (-1, count), one run of
    equally sized groups at a time, and fn's rows are put back in channel
    order. With a single group size the views and the result are reshapes
    of whole arrays, with no copy.
    """
    if len(blocks) == 1:
        count = blocks[0][1]
        return fn(*[r.reshape(-1, count) for r in rows]).reshape(rows[0].shape)
    out = None
    for sl, count in blocks:
        part = fn(*[r[:, sl].reshape(-1, count) for r in rows])
        if out is None:
            out = np.empty(rows[0].shape, dtype=part.dtype)
        out[:, sl] = part.reshape(rows[0].shape[0], -1)
    return out


def instance_softmax(logits: np.ndarray, class_counts=None) -> np.ndarray:
    """Exp-normalize every task's channels of the last axis, max-subtracted.

    class_counts splits the last axis into consecutive channel groups, one
    softmax each (default: one group spanning the axis). The result equals
    the per-group formula e = exp(x - x.max(-1)); e / e.sum(-1) bit for
    bit. Groups are the rows of a (locations * groups, count) matrix, one
    per run of equally sized groups (a single matrix for two-class tasks),
    so every group's max and sum take one call per channel, where a
    reduction along the short last axis takes a call per location. The
    channels are added in the order numpy's last-axis sum adds them, which
    holds for fewer than 8 channels; larger groups keep numpy's pairwise
    sum.

    A 1-D input with the default single group, a quantile head's logits,
    takes the formula directly, with the generic checks reduced to a length
    test and check_finite, and np.add.reduce for ndarray.sum without its
    wrapper. The max is read at x.argmax(), a plain C method, where a ufunc
    reduction costs ~1.5 us on a few values: both give the largest value,
    and where they could differ, in the sign of a zero maximum, x - max is
    still +-0 or x itself, so the exp gives the same bits.
    """
    if class_counts is None and logits.ndim == 1:
        if logits.shape[0] < 2:
            raise ValueError("softmax needs at least two classes")
        check_finite(logits, "instance_softmax input")
        e = logits - logits[logits.argmax()]
        np.exp(e, out=e)
        e /= np.add.reduce(e)
        return e
    channels = logits.shape[-1]
    counts = (channels,) if class_counts is None else tuple(class_counts)
    blocks = _channel_blocks(counts)
    if blocks[-1][0].stop != channels:
        raise ValueError(f"class counts {list(counts)} do not split {channels} channels")
    check_finite(logits, "instance_softmax input")
    e = _per_group(_row_softmax, blocks, logits.reshape(-1, channels))
    return e.reshape(logits.shape)


def instance_softmax_backward(probs: np.ndarray, grad_probs: np.ndarray,
                              class_counts=None) -> np.ndarray:
    """Gradient w.r.t. logits given softmax outputs and their gradient.

    class_counts splits the last axis into the channel groups of
    instance_softmax (default: one group). The result equals the
    per-group formula probs * (grad - (grad * probs).sum(-1)) bit for bit:
    groups are rows, as in instance_softmax, a group's sum adds its
    channels in numpy's last-axis order, and groups of 8 or more channels
    keep numpy's pairwise sum. One group takes the formula directly, with
    np.add.reduce for ndarray.sum.
    """
    if class_counts is None or len(class_counts) == 1:
        inner = np.add.reduce(grad_probs * probs, axis=-1, keepdims=True)
        return probs * (grad_probs - inner)
    channels = probs.shape[-1]
    grad_rows = grad_probs.reshape(-1, channels)
    products = grad_rows * probs.reshape(-1, channels)
    diff = _per_group(_row_diff, _channel_blocks(tuple(class_counts)), grad_rows, products)
    return probs * diff.reshape(probs.shape)


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
        grad = np.zeros(probs.shape, probs.dtype)
        if label != MISSING:
            if not 0 <= label < probs.shape[0]:
                raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
            total = float(np.add.reduce(probs, axis=None))  # probs.sum(), once, unwrapped
            if abs(total - 1.0) > 1e-4:
                raise ValueError(f"probabilities sum to {total:.6f}, not 1")
            value = probs[label]
            p = max(float(value), LOG_EPS)
            loss -= weight * np.log(p)
            if value > LOG_EPS:
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
        # the layers are fixed at construction, so their geometry is too
        self.downsample = math.prod(stride for _, stride, _, _ in specs)
        r, jump = 1, 1
        for k, stride, _, _ in specs:
            r += (k - 1) * jump
            jump *= stride
        self.receptive_field = r
        self._task_slices = tuple(channel_slices(self.task_class_counts))

    def grid_side(self, side: int) -> int:
        """Output grid side for a square input of the given side.

        Valid convolutions compose: per layer the side becomes
        (side - k) // stride + 1, and the stack's side is
        (side - receptive_field) // downsample + 1. Every layer's input
        covers its kernel exactly when side >= receptive_field.
        """
        if side < self.receptive_field:
            raise ValueError(f"input side {side} too small for the receptive field")
        return (side - self.receptive_field) // self.downsample + 1

    def task_slices(self):
        return self._task_slices

    def forward(self, image: np.ndarray):
        """Return (logits grid, cache); relu between convs, none after the last.

        The cache is every layer's input. relu runs in place, so layer i's
        relu mask is recovered in backward from layer i + 1's input: relu(x)
        > 0 exactly where x > 0, nan included.
        """
        x = image - INPUT_SHIFT
        inputs = []
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            inputs.append(x)
            x = conv2d_forward(x, layer)
            if i < last:
                np.maximum(x, 0, out=x)
        return x, inputs

    def backward(self, cache, grad_logits: np.ndarray):
        """Gradients w.r.t. every parameter: kernel then bias per layer.

        Backpropagation stops at the first layer's weights: nothing trains
        the image, so its gradient is never computed.
        """
        inputs = cache
        grad = grad_logits
        param_grads = [None] * (2 * len(self.layers))
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                # the relu mask, in place: grad is conv2d_backward's fresh array
                grad = np.multiply(grad, inputs[i + 1] > 0, out=grad)
            grad, gk, gb = conv2d_backward(inputs[i], self.layers[i], grad, input_grad=i > 0)
            param_grads[2 * i] = gk
            param_grads[2 * i + 1] = gb
        return param_grads


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


@dataclass
class ParamGroup:
    """Parameters that one sgd_step call updates, in one flat buffer.

    params is the buffer that the model's or the heads' arrays are views
    into, laid out in the order of shapes; velocity and grad share its
    layout, and every step refills grad with set_grad. The group steps at
    the epoch's learning rate times lr_scale.
    """

    name: str
    params: np.ndarray
    shapes: list
    lr_scale: float = 1.0
    velocity: np.ndarray = field(init=False)
    grad: np.ndarray = field(init=False)
    grad_views: list = field(init=False)

    def __post_init__(self):
        self.velocity = np.zeros_like(self.params)
        self.grad, self.grad_views = flat_views(self.shapes, self.params.dtype)
        if self.grad.shape != self.params.shape:
            raise ValueError(
                f"{self.name}: shapes hold {self.grad.size} values, params {self.params.size}"
            )

    def set_grad(self, arrays) -> None:
        """Copy one gradient per parameter array into grad, each of its exact shape.

        Assigning through one view per array took ~1.5 us for the trunk's
        six arrays where np.concatenate into grad took ~4 us (2-core x86-64,
        numpy 2.4); either writes the same values in the same layout.
        """
        if len(arrays) != len(self.grad_views):
            raise ValueError(f"{self.name}: {len(arrays)} gradients for "
                             f"{len(self.grad_views)} parameter arrays")
        for view, array in zip(self.grad_views, arrays):
            if array.shape != view.shape:
                raise ValueError(f"{self.name}: gradient of shape {array.shape} for "
                                 f"a parameter of shape {view.shape}")
            view[...] = array
