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
from functools import cached_property, lru_cache

import numpy as np

from .tensor import check_finite

MISSING = -1
LOG_EPS = 1e-12  # masked_cross_entropy clamps probabilities here before the log

# Desk-scale default trunk: downsample 4, receptive field 9. A 64x64 input
# yields a 14x14 instance grid.
DEFAULT_TRUNK = ((5, 2, 3, 8), (3, 2, 8, 16))

# Images arrive as uint8, a byte v standing for v / 255 in [0, 1]; the conv
# stack sees them centered. Uncentered all-positive inputs condition the
# first layer badly enough to stall SGD.
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


class ConvBuffers:
    """The arrays one conv layer reads and writes at one input shape.

    Planned for one layer over its input array, `input`, a (B, H, W, c_in)
    batch that must be C-contiguous (else ValueError). Every pass runs the
    whole batch at once: its patch matrix stacks the patches of every
    input, so each product is one np.dot. conv2d_forward and
    conv2d_backward given these buffers read that very array with that
    very layer and refuse any other, so a caller writes each new input
    into `input`, as Workspace does. Built once:

    - patches, the read-only (B, oh, ow, kh) view over input of every
      patch's kernel rows, each row's kw*c_in contiguous input values one
      item of a V(kw*c_in*itemsize) void dtype. It is built with the
      ndarray constructor over input's buffer rather than
      np.lib.stride_tricks.as_strided, whose Python-level set-up costs
      ~7-12 us a call against ~1.5 us (2-core x86-64, numpy 2.4);
    - cols, the (P, K) patch matrix, and out, the (B, oh, ow, c_out)
      output, which every conv2d_forward fills, with a row of ow*c_out
      into which it copies the bias once per output column;
    - grad_kernel and grad_bias, the gradient arrays passed (such as a
      ParamGroup's grad_views): C-contiguous, of the kernel's and bias's
      shapes and of the output's dtype, else ValueError;
    - on the first conv2d_backward (so never in buffers that only run
      forward): a ones vector of length P for the bias gradient and, with
      input_grad, for the dtype of its grad_out, the patch gradients and
      grad_input, the scatter target that every call zeroes.

    P = B*oh*ow and K = kh*kw*c_in. The arrays a call returns are these
    buffers, so the next call overwrites them. cols lives from one forward
    to the backward after it: conv2d_backward reads the patch matrix the
    last conv2d_forward wrote into these buffers, and refuses to run before
    the first.
    """

    def __init__(self, x: np.ndarray, layer: ConvLayer, grad_kernel: np.ndarray,
                 grad_bias: np.ndarray, input_grad: bool):
        kernel = layer.kernel
        kh, kw, c_in, c_out = kernel.shape
        if x.ndim != 4:
            raise ValueError(f"conv input must be a (batch, height, width, channels) array, "
                             f"got shape {x.shape}")
        B, H, W, C = x.shape
        if C != c_in:
            raise ValueError(f"input has {C} channels, kernel expects {c_in}")
        if H < kh or W < kw:
            raise ValueError(f"input {H}x{W} smaller than kernel {kh}x{kw}")
        if not x.flags.c_contiguous:
            raise ValueError("conv buffers need a C-contiguous input array")
        self.layer = layer
        self.input = x
        stride = layer.stride
        oh, ow = (H - kh) // stride + 1, (W - kw) // stride + 1
        P, K = B * oh * ow, kh * kw * c_in
        self.out = np.empty((B, oh, ow, c_out), np.result_type(x.dtype, kernel.dtype))
        for grad, shape in ((grad_kernel, kernel.shape), (grad_bias, (c_out,))):
            if grad.shape != shape or grad.dtype != self.out.dtype or not grad.flags.c_contiguous:
                raise ValueError(f"a {grad.dtype} array of shape {grad.shape} cannot receive "
                                 f"the {self.out.dtype} gradient of shape {shape}")
        self.out_rows = self.out.reshape(P, c_out)
        # the bias at every output column, refreshed by each forward: added
        # to the (B*oh, ow*c_out) rows of out, its inner loop is ow*c_out
        # long instead of c_out
        self._bias_row = np.empty(ow * c_out, self.out.dtype)
        self._out_wide_rows = self.out.reshape(B * oh, ow * c_out)
        self.grad_kernel, self.grad_bias = grad_kernel, grad_bias
        self._grad_kernel_rows = grad_kernel.reshape(K, c_out)
        row = np.dtype(f"V{kw * c_in * x.itemsize}")
        sb, s0, s1, _ = x.strides
        self.patches = np.ndarray((B, oh, ow, kh), row, x, 0, (sb, s0 * stride, s1 * stride, s0))
        self.patches.flags.writeable = False
        self.cols = np.empty((P, K), x.dtype)
        self._cols_rows = self.cols.view(row).reshape(self.patches.shape)
        self._filled = False  # set by the first conv2d_forward
        self.input_grad = input_grad
        self._ones = self.grad_input = None  # planned by the first backward

    def check(self, x: np.ndarray, layer: ConvLayer) -> None:
        """ValueError unless x is input and layer the layer these buffers serve."""
        if x is not self.input or layer is not self.layer:
            raise ValueError("conv buffers were planned for another input array or layer")

    def _plan_backward(self, grad_dtype) -> None:
        """Allocate the backward arrays, in the dtypes np.dot gives."""
        P, K = self.cols.shape
        self._ones = np.ones(P, self.cols.dtype)
        if not self.input_grad:
            return
        self._grad_patches = np.empty((P, K), np.result_type(grad_dtype, self.layer.kernel.dtype))
        self.grad_input = np.empty(self.input.shape, self.input.dtype)
        self._grad_input_flat = self.grad_input.reshape(-1)
        kh, kw = self.layer.kernel.shape[:2]
        self._scatter_index = _scatter_index(self.input.shape, kh, kw, self.layer.stride)


def conv2d_forward(x: np.ndarray, layer: ConvLayer, buffers: ConvBuffers):
    """Valid cross-correlation plus bias of every input of the batch x.

    The output side is (in - k)//stride + 1. buffers are the layer's
    ConvBuffers planned over x (its input, patch view, patch matrix and
    output). The result is buffers.out, which the next forward call with
    the same buffers overwrites, so a caller may keep it until then. The
    patch matrix it writes stays in buffers.cols for conv2d_backward.

    One np.dot of the (B*oh*ow, kh*kw*c_in) patch matrix, copied from the
    patch view into buffers.cols a kernel row at a time (the same bytes as
    a copy value by value: 17 against 24 us for layer 0 of a 64 px image,
    2-core x86-64, numpy 2.4), and the (kh*kw*c_in, c_out) kernel
    matrix: the C-contiguous operands that np.tensordot of the (B, oh, ow,
    kh, kw, c_in) patches and the kernel over 3 axes builds, without
    tensordot's per-call Python work, so the output equals tensordot's bit
    for bit. The bias, copied to every column of one output row, is then
    added to each of the B*oh rows.
    """
    buffers.check(x, layer)
    buffers._cols_rows[...] = buffers.patches
    kernel = layer.kernel
    np.dot(buffers.cols, kernel.reshape(-1, kernel.shape[3]), out=buffers.out_rows)
    buffers._filled = True
    row = buffers._bias_row
    np.copyto(row.reshape(-1, kernel.shape[3]), layer.bias)
    buffers._out_wide_rows += row
    return buffers.out


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray,
                    buffers: ConvBuffers):
    """Exact gradients of conv2d_forward: (input, kernel, bias).

    buffers are the layer's ConvBuffers planned over x, as for
    conv2d_forward, which hold the backward arrays too. The backward reads
    the patch matrix the last conv2d_forward wrote into these buffers, so
    it differentiates that forward pass as long as x is unchanged since;
    buffers that no forward has filled raise ValueError. Buffers planned
    without input_grad skip the input gradient, the larger half of the
    work, and return None for it; the first layer needs no gradient with
    respect to the image. The gradients returned are buffers.grad_input,
    .grad_kernel and .grad_bias (the latter two the arrays the buffers were
    planned with, such as a ParamGroup's grad_views). The next backward
    call with the same buffers overwrites them and a forward call does
    not, so a caller may keep them until that backward call. The input
    gradient is cast to x's dtype where the gradient's differs.

    With P = B*oh*ow and K = kh*kw*c_in, each gradient is one np.dot: the
    (K, P) transposed view of the patch matrix times the (P, c_out) output
    gradient for the kernel, a ones vector times the output gradient for
    the bias, and the output gradient times the kernel matrix's (c_out, K)
    transposed view for the patches. The kernel and bias gradients are thus
    sums over the whole batch. np.add.at scatters the patch gradients onto
    the input in their own (B, oh, ow, kh, kw, c_in) order, from zero.
    """
    buffers.check(x, layer)
    if not buffers._filled:
        raise ValueError("conv2d_backward needs the patch matrix of a conv2d_forward "
                         "in these buffers, and none has run")
    if grad_out.shape != buffers.out.shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match output {buffers.out.shape}"
        )
    if buffers._ones is None:
        buffers._plan_backward(grad_out.dtype)
    grad_rows = grad_out.reshape(buffers.out_rows.shape)
    grad_bias = np.dot(buffers._ones, grad_rows, out=buffers.grad_bias)
    np.dot(buffers.cols.T, grad_rows, out=buffers._grad_kernel_rows)
    if not buffers.input_grad:
        return None, buffers.grad_kernel, grad_bias
    grad_patches = buffers._grad_patches
    kernel = layer.kernel
    np.dot(grad_rows, kernel.reshape(-1, kernel.shape[3]).T, out=grad_patches)
    grad_input = buffers.grad_input
    grad_input.fill(0)
    np.add.at(buffers._grad_input_flat, buffers._scatter_index, grad_patches.reshape(-1))
    return grad_input, buffers.grad_kernel, grad_bias


@lru_cache(maxsize=32)
def _scatter_index(shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only flat input index of every patch element, in (B, oh, ow, kh, kw, c) order.

    Input b's index is the first input's offset by b*H*W*C.
    """
    B, H, W, C = shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    rows = stride * np.arange(oh)[:, None, None, None] + np.arange(kh)[:, None]
    cols = stride * np.arange(ow)[:, None, None] + np.arange(kw)
    one = (((rows * W + cols) * C)[..., None] + np.arange(C)).reshape(-1)
    index = (H * W * C * np.arange(B)[:, None] + one).reshape(-1)
    index.flags.writeable = False
    return index


class TaskLayout:
    """How a last axis of channels splits into tasks, one softmax over each task's classes.

    counts lists every task's class count in channel order: at least one
    task, each of at least 2 classes (else ValueError). The layout holds
    channels, their sum; slices, each task's slice of the channel axis;
    starts, the read-only int64 first channel of every task; and indicator,
    the read-only float32 (channels, tasks) 0/1 matrix whose column t is 1
    on task t's channels, built on first use, so that a layout of a count
    read from a file allocates nothing of its size.
    """

    def __init__(self, counts):
        self.counts = tuple(int(c) for c in counts)
        if not self.counts or min(self.counts) < 2:
            raise ValueError(f"class counts {list(self.counts)} must list at least one task, "
                             "each of at least 2 classes")
        self.channels = sum(self.counts)
        self.starts = np.cumsum((0, *self.counts[:-1]))
        self.starts.flags.writeable = False
        self.slices = tuple(slice(start, start + count)
                            for start, count in zip(self.starts.tolist(), self.counts))
        self._one_size = len(set(self.counts)) == 1

    @cached_property
    def indicator(self) -> np.ndarray:
        matrix = np.zeros((self.channels, len(self.counts)), np.float32)
        for t, sl in enumerate(self.slices):
            matrix[sl, t] = 1
        matrix.flags.writeable = False
        return matrix

    def groups(self, a: np.ndarray) -> list:
        """Every task's channel group of a channels-last array as (count, n) views.

        a's last axis must hold the layout's channels (else ValueError). Row
        k of a view is channel k of its group and column j one occurrence of
        the group. When every group has one size the result is one view, its
        columns every location's groups in order; else it is one view per
        task, its columns the locations. The views of a C-contiguous array
        share its memory: writing them writes a.
        """
        if a.shape[-1] != self.channels:
            raise ValueError(f"class counts {list(self.counts)} do not split "
                             f"{a.shape[-1]} channels")
        if self._one_size:
            return [a.reshape(-1, self.counts[0]).T]
        rows = a.reshape(-1, self.channels)
        return [rows[:, sl].T for sl in self.slices]


def group_sum(group: np.ndarray) -> np.ndarray:
    """The (n,) sum of a (count, n) channel group, its channels added one after another.

    Below 8 channels that is the order of numpy's last-axis sum, but for its
    +0.0 identity, which changes only a sum of -0.0.
    """
    total = group[0] + group[1]
    for k in range(2, len(group)):
        total += group[k]
    return total


def instance_softmax(logits: np.ndarray, tasks: TaskLayout) -> np.ndarray:
    """Exp-normalize every task's channels of the last axis, max-subtracted.

    The TaskLayout tasks splits the last axis into consecutive channel
    groups, one softmax each: e = exp(x - x.max(-1)); e / e.sum(-1) bit for
    bit, the sum taken by group_sum. Each of the layout's group views of the
    logits is read, and its view of the result written, a channel (row) at
    a time, where a broadcast max or sum would loop over a group's few
    channels: on 7688 two-class groups 36 us against 79 us (2-core x86-64,
    numpy 2.4).
    """
    groups = tasks.groups(logits)
    check_finite(logits, "instance_softmax input")
    out = np.empty(logits.shape, logits.dtype)
    for x, y in zip(groups, tasks.groups(out)):
        peak = np.maximum(x[0], x[1])
        for k in range(2, len(x)):
            np.maximum(peak, x[k], out=peak)
        # C-contiguous: np.subtract would give e x's strides, and the exp
        # and sum would read it strided (2.3x slower at 256 px)
        e = np.empty(x.shape, x.dtype)
        np.subtract(x, peak, out=e)
        np.exp(e, out=e)
        np.divide(e, group_sum(e), out=y)
    return out


def instance_softmax_backward(probs: np.ndarray, grad_probs: np.ndarray,
                              tasks: TaskLayout) -> np.ndarray:
    """Gradient w.r.t. logits given softmax outputs and their gradient, of one shape.

    tasks splits the last axis into the channel groups of instance_softmax.
    The result is probs * (grad - (grad * probs).sum(-1)) bit for bit, the
    sum taken by group_sum and added to +0.0, as numpy's is. Each group's
    difference is written a channel at a time into the layout's group view
    of the products, once they are summed.
    """
    out = np.multiply(grad_probs, probs, order="C")  # group views, not copies
    for grad, prod in zip(tasks.groups(grad_probs), tasks.groups(out)):
        inner = group_sum(prod)
        inner += 0.0
        for k in range(len(grad)):
            np.subtract(grad[k], inner, out=prod[k])
    out *= probs
    return out


def check_labels(labels, class_counts, row: str = ""):
    """The MISSING mask of an (S, tasks) integer label array, once every label is in range.

    class_counts is any sequence of class counts, such as a dataset file
    declares. Raises ValueError, naming both shapes, unless labels is 2-D
    with one column per class count; then at the first label, in row order,
    that is neither MISSING nor in [0, count): "label l of task t out of
    range for c classes", prefixed with "<row> s: " when row names what a
    row is.
    """
    labels = np.asarray(labels)
    counts = np.asarray(class_counts)
    if labels.ndim != 2 or labels.shape[1:] != counts.shape:
        raise ValueError(f"labels of shape {labels.shape} need one column per class count, "
                         f"and the class counts have shape {counts.shape}")
    missing = labels == MISSING
    outside = ~missing & ((labels < 0) | (labels >= counts))
    if outside.any():
        s, t = np.argwhere(outside)[0]
        where = f"{row} {s}: " if row else ""
        raise ValueError(f"{where}label {labels[s, t]} of task {t} out of range for "
                         f"{counts[t]} classes")
    return missing


def loss_tables(labels, tasks: TaskLayout, task_weights, batch: int):
    """masked_cross_entropy's (positions, weights) tables of S bags run in steps of batch bags.

    labels is an (S, tasks) integer array, a class index per task and
    MISSING where absent; bag s is row s % batch of its step's (B, C)
    bag_probs, C = tasks.channels. Both tables are (S, tasks): positions
    holds the flat index in that bag_probs of each label, row * C + the
    task's first channel + label (the task's first channel where MISSING),
    and weights the task's weight in float64, -0.0 where MISSING. Tables
    that do not align raise ValueError, as does a label check_labels
    rejects.
    """
    labels = np.asarray(labels)
    num_tasks = len(tasks.counts)
    if labels.ndim != 2 or labels.shape[1] != num_tasks or len(task_weights) != num_tasks:
        raise ValueError(f"labels of shape {labels.shape}, {num_tasks} class counts and "
                         f"{len(task_weights)} task weights do not align")
    missing = check_labels(labels, tasks.counts)
    rows = np.arange(len(labels)) % batch * tasks.channels
    positions = rows[:, None] + tasks.starts + np.where(missing, 0, labels)
    weights = np.where(missing, -0.0, np.asarray(task_weights, dtype=np.float64))
    return positions, weights


def masked_cross_entropy(bag_probs, positions, weights, tasks: TaskLayout):
    """Multi-task cross entropy of a batch of bags that skips missing labels.

    bag_probs is the (B, C) probabilities of B bags over every task's
    classes, split into tasks by the TaskLayout tasks, as forward_bag gives
    them; every task's row must sum to 1 within 1e-4 (else ValueError).
    positions and weights are the bags' (B, tasks) rows of loss_tables.
    Returns (the (B,) float64 loss of every bag, the (B, C) gradient w.r.t.
    bag_probs in its dtype).

    With p a label's probability, in float64 and clamped to at least
    LOG_EPS, and w its task's weight, a bag's loss adds its tasks' terms in
    task order, (0.0 - w0 * log p0) - w1 * log p1 ..., and the gradient at
    a label is -w / p, and 0 where the probability is at most LOG_EPS.
    MISSING's weight -0.0 adds exactly nothing to the loss and leaves +0.0
    in the gradient, as a skipped label does. The work is a fixed number of
    array calls whatever B.
    """
    num_bags = len(bag_probs)
    if (bag_probs.shape != (num_bags, tasks.channels)
            or positions.shape != (num_bags, len(tasks.counts))
            or weights.shape != positions.shape):
        raise ValueError(f"bag predictions of shape {bag_probs.shape} for class counts "
                         f"{list(tasks.counts)}, label tables of shapes {positions.shape} and "
                         f"{weights.shape}")
    # every task's row sums in one matrix product, their extremes read at
    # argmin and argmax, which index the first nan when there is one
    sums = bag_probs @ tasks.indicator
    low, high = sums.item(sums.argmin()), sums.item(sums.argmax())
    if not (low >= 1 - 1e-4 and high <= 1 + 1e-4):
        total = low if abs(low - 1) > abs(high - 1) else high
        raise ValueError(f"probabilities sum to {total:.6f}, not 1")
    p = np.maximum(bag_probs.take(positions), LOG_EPS, dtype=np.float64)
    loss = np.subtract.reduce(weights * np.log(p), axis=1, initial=0.0)
    grad = np.zeros(bag_probs.shape, bag_probs.dtype)
    grad.put(positions, np.where(p > LOG_EPS, -weights / p, 0.0))
    return loss, grad


def conv_layout(task_class_counts, trunk=DEFAULT_TRUNK) -> list:
    """The shape of every FcnModel parameter: kernel then bias per layer.

    The layers are trunk's (kernel side, stride, c_in, c_out) and a 1x1
    conv with one output channel per class of every task.
    """
    specs = [tuple(s) for s in trunk] + [(1, 1, trunk[-1][3], sum(task_class_counts))]
    return [shape for k, _, c_in, c_out in specs for shape in ((k, k, c_in, c_out), (c_out,))]


class FcnModel:
    """Conv/relu stack ending in a 1x1 conv with one channel per task class.

    task_class_counts gives the class count of every task, and tasks is
    their TaskLayout, built once: the final layer has tasks.channels output
    channels, split per task downstream. The model computes in dtype. trunk
    lists the (kernel side, stride, c_in, c_out) of every layer but the
    1x1. Its kernels and biases are the views of its ParamGroup params,
    laid out by conv_layout; backward() writes grad.
    """

    def __init__(self, task_class_counts, trunk=DEFAULT_TRUNK, dtype=np.float32):
        self.tasks = TaskLayout(task_class_counts)
        self.dtype = np.dtype(dtype)
        self.trunk = [tuple(s) for s in trunk]
        self.params = ParamGroup("trunk", conv_layout(self.tasks.counts, trunk), dtype=dtype)
        views = self.params.views
        strides = [stride for _, stride, _, _ in trunk] + [1]
        self.layers = [ConvLayer(views[2 * i], views[2 * i + 1], stride)
                       for i, stride in enumerate(strides)]
        # the layers are fixed at construction, so their geometry is too
        self.downsample = math.prod(strides)
        r, jump = 1, 1
        for layer in self.layers:
            r += (layer.kernel.shape[0] - 1) * jump
            jump *= layer.stride
        self.receptive_field = r

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

    def forward(self, images: np.ndarray, workspace: Workspace) -> np.ndarray:
        """Return the (B, h, w, channels) logits grids of a batch of B images.

        images is a (B, H, W, 3) uint8 array, such as the trainer's batch of
        flipped crops or evaluation's bag.image[None]; any other dtype
        raises ValueError, so a [0, 1] float image is never scaled by 255
        silently. relu runs between convs, none after the last. workspace
        is a Workspace planned for the batch's shape (else ValueError). It
        holds every layer's input, which backward reads, and its output;
        the logits grids are the last layer's output.
        The next forward with the same workspace overwrites all of them, so
        a caller may keep the logits only until then, and what it derives
        from them with fresh arrays (the softmax) for good. The batch is
        scaled and centered into the model's dtype, in which every layer
        computes, as pixel * (1/255) - INPUT_SHIFT: one multiply and one
        subtract over the whole batch.

        relu runs in place, so layer i's relu mask is recovered in backward
        from layer i + 1's input: relu(x) > 0 exactly where x > 0, nan
        included.
        """
        convs = workspace.convs
        x = convs[0].input
        if images.dtype != np.uint8:
            raise ValueError(f"images must be uint8, got {images.dtype}")
        if images.shape != x.shape:
            raise ValueError(f"workspace planned for a {workspace.image_shape} batch, "
                             f"got images of shape {images.shape}")
        np.multiply(images, self.dtype.type(1 / 255), out=x)
        np.subtract(x, INPUT_SHIFT, out=x)
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = conv2d_forward(x, layer, convs[i])
            if i < last:
                np.maximum(x, 0, out=x)
        return x

    def backward(self, cache: Workspace, grad_logits: np.ndarray) -> None:
        """Write the gradient w.r.t. every parameter into self.params.grad.

        cache is the workspace of the forward pass being differentiated,
        before any other forward pass uses it. Its buffers write each
        layer's kernel and bias gradients, summed over the batch, into
        their grad_views, which the next backward overwrites.

        Backpropagation stops at the first layer's weights: nothing trains
        the image, so its gradient is never computed.
        """
        convs = cache.convs
        grad = grad_logits
        last = len(self.layers) - 1
        for i in range(last, -1, -1):
            if i < last:
                # the relu mask, in place: grad is a buffer of the layer above
                mask = np.greater(convs[i + 1].input, 0, out=cache.relu_masks[i])
                grad = np.multiply(grad, mask, out=grad)
            grad, _, _ = conv2d_backward(convs[i].input, self.layers[i], grad, convs[i])


class Workspace:
    """The arrays of FcnModel forward and backward passes at one batch shape.

    image_shape is the (B, H, W, channels) shape of the batches it serves.
    convs holds one ConvBuffers per layer, each layer's input being the
    previous layer's out; layer 0's input, in the model's dtype, receives
    the scaled images minus INPUT_SHIFT. relu_masks[i] receives where layer
    i + 1's input is positive, in backward. The layers' gradient arrays are
    the model's params.grad_views; every layer plans its backward arrays in
    the first backward pass, so a workspace that only runs forward passes
    holds none. Each layer keeps its own patch matrix, which backward reads
    as the last forward left it (see ConvBuffers).

    A workspace serves one pass at a time: each forward overwrites what the
    previous one left, backward included. Threads need one each, and only
    one may run a backward pass of a model, whose gradients are one array.
    """

    def __init__(self, model: FcnModel, image_shape):
        self.image_shape = tuple(image_shape)
        x = np.empty(self.image_shape, model.dtype)  # image / 255 - INPUT_SHIFT
        grads = model.params.grad_views
        self.convs = []
        for i, layer in enumerate(model.layers):
            buffers = ConvBuffers(x, layer, grads[2 * i], grads[2 * i + 1], i > 0)
            self.convs.append(buffers)
            x = buffers.out
        self.relu_masks = [np.empty(b.input.shape, dtype=bool) for b in self.convs[1:]]


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


class ParamGroup:
    """Parameters that one sgd_step call updates, and the one owner of their arrays.

    layout lists the shape of every array, in order. The group allocates
    params, one zeroed flat buffer with a view per array (views), and grad
    (with grad_views) and velocity in its layout. A model or head reads the
    views and its backward pass writes the grad_views, so a step copies
    nothing. The group steps at the epoch's learning rate times lr_scale.
    """

    def __init__(self, name: str, layout, lr_scale: float = 1.0, dtype=np.float32):
        self.name = name
        self.lr_scale = lr_scale
        self.params, self.views = flat_views(layout, dtype)
        self.grad, self.grad_views = flat_views(layout, dtype)
        self.velocity = np.zeros_like(self.params)
