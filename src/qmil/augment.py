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
offset. A training step makes no draw of its own.

A crop and its flips are views of the bag's image and mask: a training
step copies each once, when the model centers the image into its
workspace and when downscale_mask casts the step's masks, and writes to
neither.
"""

from __future__ import annotations

import numpy as np

from .aggregate import _window_band

# candidates per crop and draw: all 4 miss for ~3 crops in 10^5 at crop 16 on
# the 64 px disk mask, where 7.3% of the windows miss 75% foreground
CANDIDATES = 4


def window_counts(masks, size: int) -> np.ndarray:
    """The (N, W - size + 1, W - size + 1) foreground counts of every size x size
    window of N 0/1 masks of side W, in the least unsigned type that holds size^2.

    Each mask's counts are band @ mask @ band.T with downscale_mask's band
    matrix at stride 1, in exact float32 (partial sums are integers below
    2**24), one mask at a time so that no temporary spans the batch.
    """
    side = masks[0].shape[0]
    band = _window_band(side - size + 1, side, size, 1)
    table = np.empty((len(masks), len(band), len(band)), dtype=np.min_scalar_type(size * size))
    for mask, counts in zip(masks, table):
        counts[...] = band @ mask.astype(np.float32) @ band.T
    return table


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


def apply_dihedral(image: np.ndarray, mask: np.ndarray, mirror: bool, quarter_turns: int):
    """Horizontal mirror then k*90-degree rotation, identically on image and mask.

    Pure pixel permutations, no interpolation; inputs must be square. With
    n = side - 1 and k = quarter_turns % 4, the rotation of a (mirrored)
    input a is counterclockwise, as np.rot90(a, k):

    - k = 0: out[i, j] = a[i, j]
    - k = 1: out[i, j] = a[j, n - i]
    - k = 2: out[i, j] = a[n - i, n - j]
    - k = 3: out[i, j] = a[n - j, i]

    and the mirror before it is a[i, j] = input[i, n - j]. The results are
    slice and swapaxes views of the inputs, never copies.
    """
    if image.shape[0] != image.shape[1] or mask.shape[0] != mask.shape[1]:
        raise ValueError("dihedral transforms require square inputs")
    k = quarter_turns % 4

    def transform(a: np.ndarray) -> np.ndarray:
        if mirror:
            a = a[:, ::-1]
        if k == 1:
            a = a[:, ::-1].swapaxes(0, 1)
        elif k == 2:
            a = a[::-1, ::-1]
        elif k == 3:
            a = a.swapaxes(0, 1)[:, ::-1]
        return a

    return transform(image), transform(mask)


def extract_crop(images, masks, rows, cols, size: int):
    """Pixel-exact size x size subwindows of a step's crops; never resampled.

    images, masks, rows and cols align: crop i is the window of images[i]
    and masks[i] whose top-left pixel is (rows[i], cols[i]). Returns (image
    crops, mask crops), lists of views of the inputs, not copies. A window
    out of its image's bounds raises ValueError.
    """
    image_crops, mask_crops = [], []
    for image, mask, r, c in zip(images, masks, rows, cols, strict=True):
        H, W = mask.shape
        if r < 0 or c < 0 or r + size > H or c + size > W:
            raise ValueError(f"crop of {size} px at ({r}, {c}) out of bounds for image {H}x{W}")
        image_crops.append(image[r : r + size, c : c + size])
        mask_crops.append(mask[r : r + size, c : c + size])
    return image_crops, mask_crops
