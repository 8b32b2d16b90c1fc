"""MI augmentation: foreground-constrained random crops and dihedral flips.

Crops are sampled by rejection until at least 75% of their pixels are
foreground; the image is never resized, so the instance size stays constant
across crop sizes. The crop-count schedule keeps the sampled pixel budget
roughly equal to one whole image per epoch. The crop size, resample budget
and which flips to draw are TrainConfig fields, which TrainConfig checks.

A training step runs a batch of crops_per_step(crop, side) =
max(1, floor(side^2 / crop^2)) crops, so a step never holds more pixels
than one whole image; the trainer sums their gradients and divides the sum
by the square root of the batch's crop count. A batch of one, as at the
whole image or any crop above side / sqrt(2), is one crop per SGD step.

An epoch of training (trainer.train_epoch) runs this pipeline, in order:

1. the shuffle: crop_count slots per bag, permuted;
2. the flips: every crop's (mirror, quarter turns), in one draw;
3. the crop offsets: below the whole image, every crop's offset in one
   sample_crops call, each crop testing at most max_resample_attempts
   candidates in the epoch's window_counts; the whole image draws none;
4. the instance masks: crop_instance_masks builds every crop's instance
   grid as evaluation builds a whole image's, by downscale_mask of the
   crop's flipped mask, and the trainer takes their foreground runs, the
   aggregator's pooling plan of every step (Aggregator.plans: for
   quantile pooling each instance's sort-key bits and each crop's quantile
   ranks, aggregate.quantile_plans) and the loss's label
   tables (layers.loss_tables) in the same order;
5. the pixel cut: the same pass cuts every crop's pixels, flipped, into
   one (S, c, c, 3) uint8 array in schedule order, copying whole 3-byte
   pixels (pixel_view). The cut holds crop_count * c^2 >= W^2 pixels a
   bag, so at least one copy of every training image, for the epoch;
6. the step slices: each step then takes its batch as one C-contiguous
   slice of the cut (extract_crop), which the model scales and centers in
   one pass, its crops' slices of the masks, runs and label tables, and
   its pooling plan.

Steps 1-5 run before the epoch's first step, so a step makes no draw,
mask, plan or copy of its own. No bag is written.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .aggregate import downscale_mask, window_sums

# candidates per crop and draw: all 4 miss for ~3 crops in 10^5 at crop 16 on
# the 64 px disk mask, where 7.3% of the windows miss 75% foreground
CANDIDATES = 4


# window_counts and crop_instance_masks read this many mask pixels at a
# time, so that no temporary spans an epoch's masks: 16 masks of 64 px.
# Against 2**15, the masks of an epoch of 400 whole 64 px images took 4.3
# against 6.0 ms and window_counts at crop 16 on 100 of them 1.18 against
# 1.11 ms (2-core x86-64, one BLAS thread)
_CHUNK_PIXELS = 1 << 16


def window_counts(masks, size: int) -> np.ndarray:
    """The (N, K, K) foreground counts of every size x size window of N 0/1 masks of side W.

    K = W - size + 1, and the counts are in the least unsigned type that
    holds size^2: aggregate.window_sums' exact counts at stride 1, a chunk
    of _CHUNK_PIXELS pixels of masks at a time.
    """
    side = masks[0].shape[0]
    k = side - size + 1
    table = np.empty((len(masks), k, k), dtype=np.min_scalar_type(size * size))
    chunk = max(1, _CHUNK_PIXELS // (side * side))
    for lo in range(0, len(masks), chunk):
        batch = np.array(masks[lo : lo + chunk], dtype=np.float32)
        table[lo : lo + chunk] = window_sums(batch, size, 1)
    return table


def crop_instance_masks(masks, bags, rows, cols, flips, size: int, model, images):
    """The epoch's one cut of S flipped size x size crops: (grids, pixels).

    Crop s is the window of masks[bags[s]] and images[bags[s]] whose
    top-left pixel is (rows[s], cols[s]), flipped by apply_dihedral with
    flips[s] = (mirror, quarter turns), an (S, 2) int array. grids holds
    the (S, g, g) uint8 instance grids, g = model.grid_side(size), each
    downscale_mask's of the flipped crop's mask. pixels holds the (S,
    size, size, 3) uint8 flipped crops of the bags' (W, W, 3) uint8
    images, in schedule order, so that a step's batch of crops is one
    slice of it. A window out of its image's bounds raises ValueError
    naming the crop.

    The masks and images are read _CHUNK_PIXELS mask pixels at a time,
    never stacked whole: the crops of a chunk are cut in one gather per
    array, ordered by flip so that each flip is one view of its run; the
    masks are downscaled in one call and the pixels copied, flipped, into
    their crops' places.
    """
    bags, rows, cols = np.asarray(bags), np.asarray(rows), np.asarray(cols)
    side, g = masks[0].shape[0], model.grid_side(size)
    outside = np.flatnonzero((np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) > side - size))
    if outside.size:
        s = outside[0]
        raise ValueError(f"crop {s} of {size} px at ({rows[s]}, {cols[s]}) out of bounds "
                         f"for image {side}x{side}")
    chunk = max(1, _CHUNK_PIXELS // (side * side))
    flip = 4 * flips[:, 0] + flips[:, 1]
    # the crops of each chunk of masks, flip by flip
    key = bags // chunk * 8 + flip
    order = key.argsort()
    key = key[order]
    grids = np.empty((bags.size, g, g), dtype=np.uint8)
    pixels = np.empty((bags.size, size, size, 3), dtype=np.uint8)
    cut = pixel_view(pixels)  # whole 3-byte pixels, copied once into each crop's place
    for lo in range(0, len(masks), chunk):
        at = order[slice(*key.searchsorted([8 * lo // chunk, 8 * lo // chunk + 8]))]
        if not at.size:
            continue
        kinds = flip[at].searchsorted(range(9))  # where each flip's crops start
        runs = [slice(a, b) for a, b in zip(kinds, kinds[1:])]
        where = (bags[at] - lo, rows[at], cols[at], size, runs)
        flipped = _flipped_crops(np.array(masks[lo : lo + chunk]), *where)
        grids[at] = downscale_mask(np.concatenate(flipped, axis=2).transpose(2, 0, 1), model)
        flipped = _flipped_crops(pixel_view(np.array(images[lo : lo + chunk])), *where)
        for run, crop in zip(runs, flipped):
            cut[at[run]] = crop.transpose(2, 0, 1)
    return grids, pixels


def _flipped_crops(stack, bags, rows, cols, size: int, runs) -> list:
    """Each flip's run of crops of a stack of images, flipped, as (size, size, n) views.

    Crop i is the window of stack[bags[i]] at (rows[i], cols[i]), all cut
    in one gather; runs[k] is the run of crops of flip k = 4 * mirror +
    quarter turns.
    """
    windows = sliding_window_view(stack, (size, size), axis=(1, 2))
    crops = windows[bags, rows, cols].transpose(1, 2, 0)
    return [apply_dihedral(crops[..., run], k >= 4, k % 4) for k, run in enumerate(runs)]


def sample_crops(counts: np.ndarray, bags, size: int, max_attempts: int,
                 rng: np.random.Generator):
    """(row list, column list, fallback flags) of a size x size crop per mask in bags.

    counts is the masks' window_counts and bags the index of each crop's
    mask, such as an epoch's whole shuffled schedule, which the trainer
    draws in one call. Each round draws CANDIDATES offsets
    per crop still drawing, rng.integers(0, W - size + 1, (2, crops, k)),
    and a crop takes its first with >= 75% foreground: uniform over the
    valid offsets, as rejection sampling is. A crop whose max_attempts (at
    least 1) candidates all miss takes the first of largest count, flagged.
    """
    bags = np.asarray(bags)
    least = -(-3 * size * size // 4)  # the fewest foreground pixels of a valid crop
    offsets = np.zeros((2, bags.size), dtype=np.int64)
    best = np.full(bags.size, -1)
    todo, spent = np.arange(bags.size), 0
    while todo.size and spent < max_attempts:
        k = min(CANDIDATES, max_attempts - spent)
        drawn = rng.integers(0, counts.shape[1], (2, todo.size, k))
        # valid counts read least: argmax picks the first valid, else first largest
        seen = np.minimum(counts[bags[todo, None], drawn[0], drawn[1]], least)
        n, pick = np.arange(todo.size), seen.argmax(axis=1)
        seen = seen[n, pick]
        keep = seen > best[todo]  # valid, or more than any count before
        offsets[:, todo[keep]], best[todo[keep]] = drawn[:, n, pick][:, keep], seen[keep]
        todo, spent = todo[seen < least], spent + k
    return *offsets.tolist(), best < least


def crop_count(crop_size: int, full_size: int) -> int:
    """Crops per image per epoch: ceil(full^2 / crop^2), 1 for the whole image.

    At crop_size == full_size the whole image is used and MI augmentation is
    disabled (the trainer skips crop sampling entirely in that case).
    """
    if crop_size <= 0 or crop_size > full_size:
        raise ValueError(f"crop size {crop_size} outside (0, {full_size}]")
    if crop_size == full_size:
        return 1
    return -(-(full_size * full_size) // (crop_size * crop_size))


def crops_per_step(crop_size: int, full_size: int) -> int:
    """Crops in one SGD step: max(1, floor(full^2 / crop^2)), at most one image's pixels.

    crop_size must lie in (0, full_size], which crop_count checks.
    """
    return max(1, (full_size * full_size) // (crop_size * crop_size))


def apply_dihedral(a: np.ndarray, mirror: bool, quarter_turns: int) -> np.ndarray:
    """Horizontal mirror then k*90-degree rotation of a square array's first two axes.

    A pure pixel permutation, no interpolation. With n = side - 1 and
    k = quarter_turns % 4, the rotation of a (mirrored) input a is
    counterclockwise, as np.rot90(a, k):

    - k = 0: out[i, j] = a[i, j]
    - k = 1: out[i, j] = a[j, n - i]
    - k = 2: out[i, j] = a[n - i, n - j]
    - k = 3: out[i, j] = a[n - j, i]

    and the mirror before it is a[i, j] = input[i, n - j]. The result is a
    slice and swapaxes view of the input, never a copy.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("dihedral transforms require square inputs")
    k = quarter_turns % 4
    if mirror:
        a = a[:, ::-1]
    if k == 1:
        a = a[:, ::-1].swapaxes(0, 1)
    elif k == 2:
        a = a[::-1, ::-1]
    elif k == 3:
        a = a.swapaxes(0, 1)[:, ::-1]
    return a


def pixel_view(images: np.ndarray) -> np.ndarray:
    """A (..., 3) uint8 array as a (...) view of 3-byte pixels.

    A flip of it, copied, moves whole pixels where the (..., 3) array runs
    an inner loop over its 3 channels: 20-22 against 37-45 us for a 64 px
    image under each of the 6 flips that reverse or transpose its columns
    (2-core x86-64, numpy 2.4). ValueError unless images is uint8 with 3
    contiguous channels.
    """
    if images.dtype != np.uint8 or images.shape[-1:] != (3,):
        raise ValueError(f"images must be uint8 with 3 channels, got {images.dtype} "
                         f"of shape {images.shape}")
    return images.view("V3")[..., 0]


def extract_crop(crops, start: int, stop: int):
    """The crops of one SGD step: crops[start:stop] of an epoch's crops in schedule order.

    crops is crop_instance_masks' cut, and the step's crops are one
    C-contiguous (n, c, c, 3) uint8 slice of it, flipped, which the model
    reads as it is. A training step makes exactly one call, so perfbench's
    tracer opens each step's span on it.
    """
    return crops[start:stop]
