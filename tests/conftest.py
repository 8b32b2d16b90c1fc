"""Shared helpers for the test suite: finite differences, grid builders and the
buffers that the package's passes run in, planned fresh for one call."""

import os

# BLAS runs on one thread, as under the CLI, from before numpy loads: the
# CLI sets these when it is imported, which test_cli.py does at collection,
# so the suite pins them from the start. A value set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from qmil.aggregate import InstanceGrid, foreground
from qmil.layers import ConvBuffers, TaskLayout, Workspace, conv2d_backward, conv2d_forward
from qmil.trainer import downscaled_instances, forward_bag

FD_STEP = 1e-5


def central_difference(fn, x, step=FD_STEP):
    """Central finite-difference gradient of a scalar function at x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = fn(x)
        flat[i] = orig - step
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * step)
    return grad


def random_image(rng, side):
    """A (side, side, 3) uint8 image of uniform random pixels, as the models read."""
    return rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8)


def separated_values(rng, n, low=0.05, high=0.95, jitter=None):
    """Random values with guaranteed pairwise gaps, safe for sort-based FD."""
    base = np.linspace(low, high, n)
    if jitter is None:
        jitter = (high - low) / max(n - 1, 1) / 8.0
    values = base + rng.uniform(-jitter, jitter, size=n)
    return rng.permutation(values)


def instance_grid(probs, mask, grid_shape):
    """InstanceGrid of one bag, its (h, w) instances laid out as grid_shape, with its
    foreground index: what task_grids builds for a batch of one, one task spanning
    every column."""
    return batch_grid(probs, mask, (1, *grid_shape))


def batch_grid(probs, mask, grid_shape, class_counts=None):
    """InstanceGrid of the (B, h, w) bags of grid_shape, stacked in probs and mask, of
    tasks of class_counts (default one task over every column)."""
    mask = np.asarray(mask, dtype=bool)
    tasks = TaskLayout((probs.shape[1],) if class_counts is None else class_counts)
    return InstanceGrid(probs, mask, tuple(grid_shape), *foreground(mask, grid_shape[0]),
                        tasks)


def instances(masks):
    """forward_bag's instances of (B, h, w) 0/1 instance masks: the boolean masks,
    their foreground runs and no plan."""
    masks = np.asarray(masks, dtype=bool)
    return (masks, *foreground(masks.reshape(-1), len(masks)), None)


def random_grid(rng, shape, num_classes, min_foreground=1, separated=False):
    """instance_grid with random per-instance values and a random mask.

    With separated=True every class column has well-separated values so that
    small perturbations cannot reorder the sort (tie-free for FD checks).
    """
    h, w = shape
    n = h * w
    mask = rng.uniform(size=n) < 0.7
    while mask.sum() < min_foreground:
        mask[rng.integers(n)] = True
    if separated:
        probs = np.stack(
            [separated_values(rng, n) for _ in range(num_classes)], axis=1
        )
    else:
        raw = rng.uniform(0.05, 1.0, size=(n, num_classes))
        probs = raw / raw.sum(axis=1, keepdims=True)
    return instance_grid(probs.astype(np.float64), mask, (h, w))


def conv_buffers(x, layer, input_grad=True):
    """ConvBuffers over the (B, H, W, C) batch x with fresh gradient arrays of the
    output's dtype."""
    dtype = np.result_type(x.dtype, layer.kernel.dtype)
    return ConvBuffers(x, layer, np.empty(layer.kernel.shape, dtype),
                       np.empty(layer.kernel.shape[3], dtype), input_grad)


def conv_forward(x, layer):
    """conv2d_forward of one (H, W, C) input, a batch of one, in fresh buffers: an
    output array of its own."""
    batch = np.ascontiguousarray(x[None])
    return conv2d_forward(batch, layer, conv_buffers(batch, layer))[0]


def conv_backward(x, layer, grad_out, input_grad=True):
    """conv2d_backward of one (H, W, C) input, a batch of one, in fresh buffers that
    conv2d_forward filled first: gradient arrays of its own, the input gradient
    (H, W, C) or None."""
    batch = np.ascontiguousarray(x[None])
    buffers = conv_buffers(batch, layer, input_grad)
    conv2d_forward(batch, layer, buffers)
    grad_input, grad_kernel, grad_bias = conv2d_backward(batch, layer, grad_out[None], buffers)
    return (None if grad_input is None else grad_input[0]), grad_kernel, grad_bias


def model_forward(model, image):
    """(logits, workspace) of model.forward in a fresh workspace planned for a batch
    of the one image; the logits are the batch's, (1, h, w, channels)."""
    workspace = Workspace(model, (1, *image.shape))
    return model.forward(image[None], workspace), workspace


def bag_forward(model, aggregator, heads, image, mask):
    """forward_bag of one image and its pixel mask, a batch of one, in a fresh workspace."""
    return forward_bag(model, aggregator, heads, image[None],
                       downscaled_instances(mask[None], model), Workspace(model, (1, *image.shape)))
