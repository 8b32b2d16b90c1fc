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

An epoch draws its shuffle, all flips in one call, then below the whole
image every crop offset of the epoch in one call (sample_crops), before
its first step, each crop testing at most max_resample_attempts
candidates in the epoch's window_counts. The whole image draws no
offset. Then crop_instance_masks builds every crop's instance mask,
still before the first step, as evaluation builds a whole image's: by
downscale_mask of the crop's flipped mask. A training step makes no draw
and no mask of its own.

A crop and its flips are views of the bag's image, which the trainer
reads as 3-byte pixels (pixel_view, made once per epoch): a training step
copies each crop's flipped view once, whole pixels at a time, into its
one C-contiguous uint8 batch, which the model scales and centers in one
pass, and writes to no bag.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .aggregate import _window_band, downscale_mask

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
    holds size^2. Each mask's counts are band @ mask @ band.T with
    downscale_mask's band matrix at stride 1, in exact float32 (partial
    sums are integers below 2**24), a chunk of _CHUNK_PIXELS pixels of
    masks at a time.
    """
    side = masks[0].shape[0]
    k = side - size + 1
    band = _window_band(k, side, size, 1)
    table = np.empty((len(masks), k, k), dtype=np.min_scalar_type(size * size))
    chunk = max(1, _CHUNK_PIXELS // (side * side))
    for lo in range(0, len(masks), chunk):
        batch = np.array(masks[lo : lo + chunk], dtype=np.float32)
        rows = np.dot(batch.reshape(-1, side), band.T).reshape(len(batch), side, k)
        table[lo : lo + chunk] = np.matmul(band, rows)
    return table


def crop_instance_masks(masks, bags, rows, cols, flips, size: int, model) -> np.ndarray:
    """The (S, g, g) uint8 instance grids of S flipped size x size crops.

    Crop s is the window of masks[bags[s]] whose top-left pixel is
    (rows[s], cols[s]), flipped by apply_dihedral with flips[s] = (mirror,
    quarter turns), an (S, 2) int array; g is model.grid_side(size). Each
    grid is downscale_mask's of the flipped crop's mask. The masks are
    read _CHUNK_PIXELS pixels at a time, never stacked whole: the crops of
    a chunk's masks are cut in one gather, ordered by flip so that each
    flip is one view of its run, and downscaled in one call.
    """
    bags, rows, cols = np.asarray(bags), np.asarray(rows), np.asarray(cols)
    side, g = masks[0].shape[0], model.grid_side(size)
    chunk = max(1, _CHUNK_PIXELS // (side * side))
    flip = 4 * flips[:, 0] + flips[:, 1]
    # the crops of each chunk of masks, flip by flip
    key = bags // chunk * 8 + flip
    order = key.argsort()
    key = key[order]
    grids = np.empty((bags.size, g, g), dtype=np.uint8)
    for lo in range(0, len(masks), chunk):
        at = order[slice(*key.searchsorted([8 * lo // chunk, 8 * lo // chunk + 8]))]
        if at.size:
            windows = sliding_window_view(np.array(masks[lo : lo + chunk]), (size, size),
                                          axis=(1, 2))
            crops = windows[bags[at] - lo, rows[at], cols[at]].transpose(1, 2, 0)
            kinds = flip[at].searchsorted(range(9))  # where each flip's crops start
            flipped = [apply_dihedral(crops[..., a:b], k >= 4, k % 4)
                       for k, (a, b) in enumerate(zip(kinds, kinds[1:]))]
            grids[at] = downscale_mask(np.concatenate(flipped, axis=2).transpose(2, 0, 1), model)
    return grids


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


def extract_crop(images, rows, cols, size: int) -> list:
    """Pixel-exact size x size subwindows of a step's images; never resampled.

    images, rows and cols align: crop i is the window of images[i] whose
    top-left pixel is (rows[i], cols[i]). An image's first two axes are its
    rows and columns, as in an (H, W, 3) image or its (H, W) pixel_view.
    Returns a list of views of the images, not copies. A window out of its
    image's bounds raises ValueError.
    """
    crops = []
    for image, r, c in zip(images, rows, cols, strict=True):
        H, W = image.shape[:2]
        if r < 0 or c < 0 or r + size > H or c + size > W:
            raise ValueError(f"crop of {size} px at ({r}, {c}) out of bounds for image {H}x{W}")
        crops.append(image[r : r + size, c : c + size])
    return crops
