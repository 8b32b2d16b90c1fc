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

A crop and its flips are views of the bag's image and mask: a training
step copies each once, when the model centers the image into its
workspace and when downscale_mask casts the step's masks, and writes to
neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CropSpec:
    """Square crop at (row, col); fallback marks a best-effort crop that
    missed the foreground threshold after the resample budget ran out."""

    row: int
    col: int
    size: int
    fallback: bool = False


def sample_crop(mask: np.ndarray, size: int, max_attempts: int,
                rng: np.random.Generator) -> CropSpec:
    """Rejection-sample a size x size crop position with >= 75% foreground pixels.

    Positions are uniform over all valid top-left offsets. If the budget of
    max_attempts (at least 1) is exhausted the best candidate seen is
    returned with the fallback flag raised.

    Each candidate window's foreground pixels are counted directly. Training
    masks are mostly foreground, so about one window is tried per crop
    (1.08 on the 64 px disk mask at crop 16), and counting it takes ~1.5
    us where a prefix-sum table of the whole mask, built on every call,
    took ~40 us (2-core x86-64, numpy 2.4).
    """
    H, W = mask.shape
    if size > H or size > W:
        raise ValueError(f"crop size {size} exceeds image {H}x{W}")
    best = None
    best_count = -1
    for _ in range(max_attempts):
        row = int(rng.integers(0, H - size + 1))
        col = int(rng.integers(0, W - size + 1))
        count = np.count_nonzero(mask[row : row + size, col : col + size])
        if 4 * count >= 3 * size * size:
            return CropSpec(row, col, size)
        if count > best_count:
            best, best_count = (row, col), count
    return CropSpec(best[0], best[1], size, fallback=True)


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


def extract_crop(images, masks, specs):
    """Pixel-exact square subwindows of a step's crops; never resampled.

    images, masks and specs align: crop i is specs[i] of images[i] and
    masks[i]. Returns (image crops, mask crops), lists of views of the
    inputs, not copies. A spec out of its image's bounds raises ValueError.
    """
    image_crops, mask_crops = [], []
    for image, mask, spec in zip(images, masks, specs, strict=True):
        H, W = mask.shape
        r, c, s = spec.row, spec.col, spec.size
        if r < 0 or c < 0 or r + s > H or c + s > W:
            raise ValueError(f"crop {spec} out of bounds for image {H}x{W}")
        image_crops.append(image[r : r + s, c : c + s])
        mask_crops.append(mask[r : r + s, c : c + s])
    return image_crops, mask_crops
