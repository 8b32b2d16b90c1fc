"""Shared helpers for the test suite: finite differences, grid builders and the
buffers that the package's passes run in, planned fresh for one call."""

import numpy as np

from qmil.aggregate import InstanceGrid, quantile_pool
from qmil.layers import ConvBuffers, Workspace, conv2d_backward, conv2d_forward
from qmil.trainer import forward_bag

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


def instance_grid(probs, mask, grid_shape, num_quantiles=None):
    """InstanceGrid with its foreground index and, given num_quantiles, its pooled
    quantiles: what task_grids builds for one task."""
    mask = np.asarray(mask)
    grid = InstanceGrid(probs, mask, grid_shape, np.flatnonzero(mask))
    if num_quantiles is not None:
        grid.pooled = quantile_pool(grid, num_quantiles)
    return grid


def random_grid(rng, shape, num_classes, min_foreground=1, separated=False,
                num_quantiles=None):
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
    return instance_grid(probs.astype(np.float64), mask, (h, w), num_quantiles)


def conv_buffers(x, layer, input_grad=True):
    """ConvBuffers over x with fresh gradient arrays of the output's dtype, no scratch."""
    dtype = np.result_type(x.dtype, layer.kernel.dtype)
    return ConvBuffers(x, layer, np.empty(layer.kernel.shape, dtype),
                       np.empty(layer.kernel.shape[3], dtype), input_grad, None)


def conv_forward(x, layer):
    """conv2d_forward in fresh buffers: an output array of its own."""
    return conv2d_forward(x, layer, conv_buffers(x, layer))


def conv_backward(x, layer, grad_out, input_grad=True):
    """conv2d_backward in fresh buffers: gradient arrays of its own."""
    return conv2d_backward(x, layer, grad_out, conv_buffers(x, layer, input_grad))


def model_forward(model, image):
    """(logits, workspace) of model.forward in a fresh workspace planned for image."""
    workspace = Workspace(model, image.shape)
    return model.forward(image, workspace), workspace


def bag_forward(model, aggregator, heads, image, mask):
    """forward_bag in a fresh workspace planned for image."""
    return forward_bag(model, aggregator, heads, image, mask, Workspace(model, image.shape))
