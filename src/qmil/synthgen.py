"""Synthetic heterogeneous-bag generator.

Bags are disk-masked mosaics of small texture tiles; each tile's class is
drawn from the recipe's mixture, and task labels are pure functions of the
realized tile-class mixture (argmax of proportions, or a threshold on one
class's proportion). Bags in the same group share the tile-class multiset
in a shuffled layout, so group members always agree on labels.

Each group draws only from its own seeded streams, and the tables that
groups share are read-only, so generate_dataset renders the groups of large
images on a pool of threads (see pool) and yields the bytes of a
sequential pass.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import pool
from .layers import MISSING
from .tensor import read_block, read_tensor, write_header, write_tensor

_SPLIT_TAG = 0x5B11


@dataclass(frozen=True)
class TextureClass:
    """Parameters of one visually distinct local texture."""

    base_color: tuple
    spot_density: float  # expected spots per pixel
    spot_radius: int
    noise_amplitude: float

    def __post_init__(self):
        if len(self.base_color) != 3:
            raise ValueError(f"base_color must have 3 channels, got {self.base_color}")
        for name in ("spot_density", "noise_amplitude"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also false for nan
                raise ValueError(f"{name} must be finite and not negative, got {value}")
        if self.spot_radius < 0:
            raise ValueError(f"spot_radius must not be negative, got {self.spot_radius}")


@dataclass(frozen=True)
class LabelRule:
    """How one task's label derives from the tile-class mixture."""

    kind: str  # "argmax" or "threshold"
    class_index: int = 1
    threshold: float = 0.3

    def __post_init__(self):
        if self.kind not in ("argmax", "threshold"):
            raise ValueError(f"unknown label rule kind {self.kind!r}")

    def num_classes(self, num_textures: int) -> int:
        return num_textures if self.kind == "argmax" else 2

    def __call__(self, mixture) -> int:
        if self.kind == "argmax":
            return int(np.argmax(mixture))
        return int(mixture[self.class_index] > self.threshold)


@dataclass(frozen=True)
class BagRecipe:
    image_size: int
    textures: tuple
    mixture: tuple
    tasks: tuple
    missing_prob: tuple = ()
    group_size: int = 1
    tile_size: int = 8
    noise_jitter: tuple = (1.0, 1.0)  # per-bag multiplier range on noise amplitude

    def __post_init__(self):
        for name in ("image_size", "tile_size", "group_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if len(self.mixture) != len(self.textures):
            raise ValueError("mixture length must match texture count")
        if abs(sum(self.mixture) - 1.0) > 1e-6:
            raise ValueError("mixture must sum to 1")
        if self.missing_prob and len(self.missing_prob) != len(self.tasks):
            raise ValueError("missing_prob must have one entry per task")
        if not all(0 <= p <= 1 for p in self.missing_prob):
            raise ValueError(f"missing_prob must lie in [0, 1], got {self.missing_prob}")
        jitter = self.noise_jitter
        if np.shape(jitter) != (2,) or not 0 <= jitter[0] <= jitter[1] < math.inf:
            raise ValueError(
                f"noise_jitter must be a finite pair with 0 <= low <= high, got {jitter}"
            )
        for rule in self.tasks:
            if rule.kind == "threshold" and not 0 <= rule.class_index < len(self.textures):
                raise ValueError(
                    f"tasks: threshold class_index {rule.class_index} is not one of "
                    f"the {len(self.textures)} textures"
                )

    def task_class_counts(self):
        return [rule.num_classes(len(self.textures)) for rule in self.tasks]


@dataclass
class Bag:
    """One image with its foreground mask, per-task labels and ground truth."""

    image: np.ndarray  # (W, W, 3) uint8, pixel value v standing for v / 255
    mask: np.ndarray  # (W, W) uint8
    labels: tuple  # per task; MISSING marks an absent label
    group_id: int
    true_mixture: np.ndarray  # realized tile-class proportions


def disk_mask(size: int, radius_fraction: float = 0.5) -> np.ndarray:
    """Centered disk foreground mask (covers ~pi/4 of the image at 0.5)."""
    center = (size - 1) / 2.0
    yy, xx = np.ogrid[:size, :size]
    rr = (yy - center) ** 2 + (xx - center) ** 2
    return (rr <= (radius_fraction * size) ** 2).astype(np.uint8)


@lru_cache(maxsize=None)
def _disk_floor(size: int):
    """disk_mask(size) and a (size, size, 3) float32 floor, 1 outside the disk and 0 in it.

    Clipping an image to [floor, 1] paints the background white.
    """
    mask = disk_mask(size)
    floor = np.repeat(1.0 - mask, 3).reshape(size, size, 3).astype(np.float32)
    mask.flags.writeable = floor.flags.writeable = False
    return mask, floor


def labels_from_mixture(mixture, tasks) -> tuple:
    return tuple(rule(mixture) for rule in tasks)


@lru_cache(maxsize=None)
def _texture_table(textures, tile: int):
    """Per-texture arrays for _render_tiles: densities, colours, amplitudes, spot tables.

    spots[0][k, h, y] lists the rows that a spot of texture k centred on row
    y covers in a tile of height h, one per pixel of its disk, clipped onto
    the tile; spots[1] lists the columns likewise. A disk with fewer pixels
    than the largest repeats its centre, which only paints that pixel again.
    """
    disks = []
    for tex in textures:
        span = np.arange(-tex.spot_radius, tex.spot_radius + 1)
        dy, dx = np.meshgrid(span, span, indexing="ij")
        keep = dy * dy + dx * dx <= tex.spot_radius ** 2
        disks.append((dy[keep], dx[keep]))
    offsets = np.zeros((2, len(textures), 1, 1, max(len(dy) for dy, _ in disks)), dtype=np.intp)
    for k, (dy, dx) in enumerate(disks):
        offsets[:, k, 0, 0, :len(dy)] = dy, dx
    last = np.maximum(np.arange(tile + 1) - 1, 0)[:, None, None]
    table = (
        np.array([tex.spot_density for tex in textures]),
        np.array([tex.base_color for tex in textures], dtype=np.float32),
        np.array([tex.noise_amplitude for tex in textures], dtype=np.float32),
        np.clip(np.arange(tile)[:, None] + offsets, 0, last),
    )
    for arr in table:
        arr.flags.writeable = False
    return table


def _render_tiles(size, tile, tile_classes, textures, jitter, rng, floor) -> np.ndarray:
    """Render a (size, size, 3) float32 mosaic of texture tiles, clipped to [floor, 1].

    Tiles are laid out row-major from the top-left corner; edge tiles are
    cut to the image. Each image makes three RNG calls, whatever its tile
    count, in this order:

    - ``poisson(lam)`` for the spot count of every tile, where lam holds
      each tile's ``spot_density * h * w`` (h x w the tile's size within
      the image);
    - ``integers(0, high)`` with high of shape (2, n): the height and width
      of the tile of each of the n spots, in tile order, for the row and
      column of its centre within its tile;
    - ``random((th * tile, tw * tile, 3), dtype=float32)`` for the noise of
      the whole (th, tw) grid of tiles, the overhang past the image included
      and then dropped. A pixel is its colour plus ``(2 u - 1) * amp`` (to
      float32 rounding), amp being ``noise_amplitude * jitter`` of its tile's
      texture.

    A spot paints the disk of its texture's radius around its centre in the
    texture's spot colour, half its base colour, clipped to its own tile.
    Spots of one tile share a colour, and no spot paints another tile, so
    overlapping spots may be painted in any order.
    """
    th, tw = tile_classes.shape
    density, colors, amps, spots = _texture_table(textures, tile)
    origins = np.arange(max(th, tw)) * tile
    extents = np.minimum(tile, size - origins)
    counts = rng.poisson(density[tile_classes] * np.outer(extents[:th], extents[:tw]))
    spot_tile = np.repeat(np.arange(th * tw), counts.reshape(-1))
    a, b = np.divmod(spot_tile, tw)
    h, w = extents[a], extents[b]
    ys, xs = rng.integers(0, np.stack([h, w]))

    amps = amps * np.float32(jitter)
    # colour minus amp: adding 2 amp u then gives colour + (2 u - 1) amp
    low = colors - amps[:, None]
    spot_low = colors * np.float32(0.5) - amps[:, None]
    image = np.empty((th, tile, tw * tile * 3), dtype=np.float32)
    image[:] = low[tile_classes].repeat(tile, axis=1).reshape(th, 1, -1)
    pixels = image.reshape(th * tile, tw * tile, 3)
    k = tile_classes.reshape(-1)[spot_tile]
    rows = spots[0][k, h, ys] + origins[a, None]
    cols = spots[1][k, w, xs] + origins[b, None]
    pixels[rows, cols] = spot_low[k, None]

    noise = rng.random(pixels.shape, dtype=np.float32).reshape(th, tile, tw, 3 * tile)
    noise *= (2 * amps)[tile_classes][:, None, :, None]
    image += noise.reshape(image.shape)
    out = pixels[:size, :size]
    np.maximum(out, floor, out=out)
    np.minimum(out, 1.0, out=out)
    return np.ascontiguousarray(out)  # a copy only when tiles overhang the image


def generate_group(recipe: BagRecipe, seed: int, group_id: int = 0):
    """Generate one group of bags sharing a tile multiset and labels.

    Each image is rendered in float32 and quantised once to uint8 as
    rint(255 * x).
    """
    size, tile = recipe.image_size, recipe.tile_size
    th = -(-size // tile)
    group_rng = np.random.default_rng([seed, 0])
    layout = group_rng.choice(len(recipe.textures), size=(th, th), p=recipe.mixture)
    counts = np.bincount(layout.reshape(-1), minlength=len(recipe.textures))
    true_mixture = (counts / counts.sum()).astype(np.float32)
    labels = list(labels_from_mixture(true_mixture, recipe.tasks))
    for t, p_missing in enumerate(recipe.missing_prob):
        if group_rng.random() < p_missing:
            labels[t] = MISSING
    labels = tuple(labels)
    mask, floor = _disk_floor(size)

    bags = []
    for member in range(recipe.group_size):
        rng = np.random.default_rng([seed, 1 + member])
        member_layout = layout
        if member > 0:
            member_layout = rng.permutation(layout.reshape(-1)).reshape(th, th)
        jitter = rng.uniform(*recipe.noise_jitter)
        image = _render_tiles(size, tile, member_layout, recipe.textures, jitter, rng, floor)
        np.rint(np.multiply(image, 255, out=image), out=image)
        bags.append(
            Bag(
                image=image.astype(np.uint8),
                mask=mask.copy(),
                labels=labels,
                group_id=group_id,
                true_mixture=true_mixture.copy(),
            )
        )
    return bags


def generate_dataset(recipe_counts, seed: int):
    """Generate groups for every (recipe, count) pair and split 50/50 by group.

    Returns (train_bags, test_bags, task_class_counts). Groups are never
    split across train and test. At least one group must be asked for.
    Each group's seed derives from seed and its id, the groups' order in
    recipe_counts. When the images have at least pool.PARALLEL_MIN_PIXELS
    pixels, the groups render through pool.ordered_map on usable CPUs
    divided by the BLAS threads; the bags, their order and the split are
    those of a sequential pass, byte for byte.
    """
    num_groups = sum(count for _, count in recipe_counts)
    if num_groups < 1:
        raise ValueError(f"a dataset needs at least one group, got {num_groups}")
    recipes = [r for r, _ in recipe_counts]
    counts = {tuple(r.task_class_counts()) for r in recipes}
    if len(counts) != 1:
        raise ValueError("all recipes in a dataset must share the same tasks")
    sizes = {r.image_size for r in recipes}
    if len(sizes) != 1:
        raise ValueError("all recipes in a dataset must share the image size")

    jobs = []  # (recipe, group seed, group id), in group order
    for recipe, count in recipe_counts:
        for _ in range(count):
            gid = len(jobs)
            group_seed = int(np.random.SeedSequence([seed, gid]).generate_state(1)[0])
            jobs.append((recipe, group_seed, gid))
    # generate_group is looked up when a group runs, so a wrapper set on the
    # module sees every call
    groups = pool.ordered_map(lambda job: generate_group(*job), jobs, sizes.pop() ** 2)

    split_rng = np.random.default_rng([seed, _SPLIT_TAG])
    order = split_rng.permutation(len(groups))
    n_train = (len(groups) + 1) // 2
    train = [bag for g in order[:n_train] for bag in groups[g]]
    test = [bag for g in order[n_train:] for bag in groups[g]]
    return train, test, recipes[0].task_class_counts()


# --- dataset file format: the "dataset" layout in the tensor module docstring


def save_bags(path, bags, task_class_counts) -> None:
    for index, bag in enumerate(bags):
        if bag.image.dtype != np.uint8:  # a cast would truncate a [0, 1] float image
            raise ValueError(f"bag {index}: image dtype {bag.image.dtype} is not uint8")
    with open(path, "wb") as fh:
        write_header(fh, "dataset")
        fh.write(struct.pack("<II", len(bags), len(task_class_counts)))
        fh.write(struct.pack(f"<{len(task_class_counts)}I", *task_class_counts))
        for bag in bags:
            fh.write(struct.pack("<I", bag.group_id))
            fh.write(struct.pack(f"<{len(bag.labels)}i", *bag.labels))
            write_tensor(fh, bag.true_mixture)
            write_tensor(fh, bag.image, np.uint8)
            write_tensor(fh, bag.mask, np.uint8)


def _check_bag(index, labels, task_class_counts, mixture_shape, true_mixture, image, mask):
    """Reject a loaded bag whose labels, mixture, image or mask no dataset could hold."""
    for t, (label, count) in enumerate(zip(labels, task_class_counts)):
        if label != MISSING and not 0 <= label < count:
            raise ValueError(
                f"bag {index}: labels[{t}] is {label}, outside [{MISSING}, {count})"
            )
    if true_mixture.shape != mixture_shape:
        raise ValueError(
            f"bag {index}: true_mixture shape {true_mixture.shape} is not {mixture_shape}"
        )
    if image.ndim != 3 or image.shape[0] != image.shape[1] or image.shape[2] != 3:
        raise ValueError(f"bag {index}: image shape {image.shape} is not (W, W, 3)")
    if mask.shape != image.shape[:2]:
        raise ValueError(
            f"bag {index}: mask shape {mask.shape} does not match the image's {image.shape[:2]}"
        )
    # the largest value at one argmax, without a boolean temporary
    if mask.size and mask.flat[mask.argmax()] > 1:
        raise ValueError(f"bag {index}: mask holds values other than 0 and 1")


def load_bags(path):
    """Read a dataset file in one call; the bags' arrays are writable views into it."""
    block = read_block(path, "dataset")
    n_bags, n_tasks = block.unpack("<II", "dataset header")
    task_class_counts = list(block.unpack(f"<{n_tasks}I", "class counts"))
    bags = []
    for index in range(n_bags):
        (group_id,) = block.unpack("<I", "group id")
        labels = block.unpack(f"<{n_tasks}i", "labels")
        true_mixture = read_tensor(block)
        image = read_tensor(block, np.uint8)
        mask = read_tensor(block, np.uint8)
        # every mixture is 1-D and as long as the first bag's
        mixture_shape = bags[0].true_mixture.shape if bags else (true_mixture.size,)
        _check_bag(index, labels, task_class_counts, mixture_shape, true_mixture, image, mask)
        bags.append(Bag(image, mask, labels, group_id, true_mixture))
    if block.left:
        raise ValueError(
            f"trailing bytes at byte {block.offset}: the header declares {n_bags} bags"
        )
    return bags, task_class_counts


# --- default desk-scale recipes --------------------------------------------

DEFAULT_TEXTURES = (
    TextureClass(base_color=(0.86, 0.55, 0.58), spot_density=0.012, spot_radius=1,
                 noise_amplitude=0.08),
    TextureClass(base_color=(0.52, 0.62, 0.86), spot_density=0.012, spot_radius=1,
                 noise_amplitude=0.08),
    TextureClass(base_color=(0.58, 0.84, 0.55), spot_density=0.012, spot_radius=1,
                 noise_amplitude=0.08),
)


def default_tasks(threshold: float):
    """Two tasks: dominant texture class, and class-1 proportion > threshold."""
    return (LabelRule("argmax"), LabelRule("threshold", class_index=1, threshold=threshold))


def _spread_counts(total: int, bins: int):
    base, extra = divmod(total, bins)
    return [base + (1 if i < extra else 0) for i in range(bins)]


def _mixture_for(num_textures: int, p1: float):
    rest = (1.0 - p1) / (num_textures - 1)
    mix = [rest] * num_textures
    mix[1] = p1
    return tuple(mix)


def recipe_family(kind: str, num_groups, *, image_size=64, num_textures=2, threshold=0.3,
                  group_size=1, missing_prob=0.0, tile_size=8, noise_jitter=(0.3, 2.2)):
    """(recipe, group count) pairs of num_groups groups spread over a family's mixtures.

    kind is a config's dataset_kind: "heterogeneous" sweeps the class-1
    proportion across bags, and "homogeneous" is the control family of pure
    (one-hot mixture) bags. Mixtures that get no group are left out.
    """
    if kind not in ("heterogeneous", "homogeneous"):
        raise ValueError(f"unknown dataset_kind {kind!r}")
    # the threshold task reads class 1, so a family needs at least two textures
    if not 2 <= num_textures <= len(DEFAULT_TEXTURES):
        raise ValueError(
            f"num_textures must lie in [2, {len(DEFAULT_TEXTURES)}], got {num_textures}"
        )
    if kind == "homogeneous":
        mixtures = [tuple(float(i == k) for i in range(num_textures))
                    for k in range(num_textures)]
    else:
        # broad sweep plus a denser band around the threshold, where the label
        # is hardest to call from a pooled summary
        levels = np.concatenate([
            np.linspace(0.05, 0.95, 13),
            np.linspace(threshold - 0.12, threshold + 0.12, 7),
        ])
        mixtures = [_mixture_for(num_textures, float(p1)) for p1 in levels]
    tasks = default_tasks(threshold)
    missing = (missing_prob,) * len(tasks) if missing_prob else ()
    textures = DEFAULT_TEXTURES[:num_textures]
    pairs = []
    for mixture, count in zip(mixtures, _spread_counts(num_groups, len(mixtures))):
        if count == 0:
            continue
        recipe = BagRecipe(
            image_size=image_size,
            textures=textures,
            mixture=mixture,
            tasks=tasks,
            missing_prob=missing,
            group_size=group_size,
            tile_size=tile_size,
            noise_jitter=noise_jitter,
        )
        pairs.append((recipe, count))
    return pairs


def heterogeneous_recipes(num_groups, **settings):
    """The default family: recipe_family("heterogeneous", num_groups, **settings)."""
    return recipe_family("heterogeneous", num_groups, **settings)
