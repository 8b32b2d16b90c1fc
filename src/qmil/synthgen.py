"""Synthetic heterogeneous-bag generator.

Bags are disk-masked mosaics of small texture tiles; each tile's class is
drawn from the recipe's mixture, and task labels are pure functions of the
realized tile-class mixture (argmax of proportions, or a threshold on one
class's proportion). Bags in the same group share the tile-class multiset
in a shuffled layout, so group members always agree on labels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layers import MISSING
from .tensor import read_exact, read_tensor, write_tensor

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
        low, high = self.noise_jitter
        if not 0 <= low <= high < math.inf:
            raise ValueError(
                f"noise_jitter must be finite with 0 <= low <= high, got {self.noise_jitter}"
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

    image: np.ndarray  # (W, W, 3) float32 in [0, 1]
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


def labels_from_mixture(mixture, tasks) -> tuple:
    return tuple(rule(mixture) for rule in tasks)


@lru_cache(maxsize=None)
def _spot_table(h: int, w: int, radius: int):
    """Clipped pixel rows and columns of a disk spot centred anywhere in an h x w tile.

    Returns ``(rows, cols)`` of shapes ``(h, k)`` and ``(w, k)``, one column per
    pixel of the disk: the spot centred at ``(y, x)`` covers
    ``block[rows[y], cols[x]]``. Offsets past the tile edge are clipped onto it.
    """
    span = np.arange(-radius, radius + 1)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    keep = dy * dy + dx * dx <= radius * radius
    rows = np.clip(np.arange(h)[:, None] + dy[keep], 0, h - 1)
    cols = np.clip(np.arange(w)[:, None] + dx[keep], 0, w - 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _render_tiles(size, tile, tile_classes, textures, jitter, rng) -> np.ndarray:
    """Render a (size, size, 3) float64 mosaic of texture tiles, clipped to [0, 1].

    Tiles are visited row by row; edge tiles are cut to the image. Each tile
    makes the same RNG calls, in the same order, with the same arguments:
    ``poisson(spot_density * h * w)`` for its spot count n; if n > 0,
    ``integers(0, h, n)`` and ``integers(0, w, n)`` for the spot centres (one
    ``integers(0, h, (2, n))`` when h == w, which draws the same values); then
    ``uniform(-amp, amp, (h, w, 3))`` for its noise. Everything else (base
    colours, spot footprints) is computed outside the loop, so the output
    depends only on those draws. All spots of a tile share one colour, so
    overlapping spots may be painted in any order.
    """
    colors = np.array([tex.base_color for tex in textures], dtype=np.float64)
    spot_colors = colors * 0.5
    amps = [tex.noise_amplitude * jitter for tex in textures]
    th, tw = tile_classes.shape
    # the last row and column of tiles may overhang the image; paint whole
    # tiles, then cut the overhang off
    padded = np.empty((th, tile, tw, tile, 3))
    padded[:] = colors[tile_classes][:, None, :, None, :]
    image = padded.reshape(th * tile, tw * tile, 3)[:size, :size]
    for a, row_classes in enumerate(tile_classes.tolist()):
        r0 = a * tile
        h = min(tile, size - r0)
        for b, k in enumerate(row_classes):
            tex = textures[k]
            c0 = b * tile
            w = min(tile, size - c0)
            block = image[r0:r0 + h, c0:c0 + w]
            n_spots = rng.poisson(tex.spot_density * h * w)
            if n_spots:
                rows, cols = _spot_table(h, w, tex.spot_radius)
                if h == w:  # draws the same values as the two calls below
                    ys, xs = rng.integers(0, h, size=(2, n_spots))
                else:
                    ys = rng.integers(0, h, size=n_spots)
                    xs = rng.integers(0, w, size=n_spots)
                block[rows[ys], cols[xs]] = spot_colors[k]
            block += rng.uniform(-amps[k], amps[k], size=block.shape)
    return np.clip(image, 0.0, 1.0)  # a contiguous copy without the overhang


def generate_group(recipe: BagRecipe, seed: int, group_id: int = 0):
    """Generate one group of bags sharing a tile multiset and labels."""
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
    mask = disk_mask(size)

    bags = []
    for member in range(recipe.group_size):
        rng = np.random.default_rng([seed, 1 + member])
        member_layout = layout
        if member > 0:
            member_layout = rng.permutation(layout.reshape(-1)).reshape(th, th)
        jitter = rng.uniform(*recipe.noise_jitter)
        image = _render_tiles(size, tile, member_layout, recipe.textures, jitter, rng)
        image[mask == 0] = 1.0  # background outside the disk is white
        bags.append(
            Bag(
                image=image.astype(np.float32),
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

    groups = []
    gid = 0
    for recipe, count in recipe_counts:
        for _ in range(count):
            group_seed = int(np.random.SeedSequence([seed, gid]).generate_state(1)[0])
            groups.append(generate_group(recipe, group_seed, group_id=gid))
            gid += 1

    split_rng = np.random.default_rng([seed, _SPLIT_TAG])
    order = split_rng.permutation(len(groups))
    n_train = (len(groups) + 1) // 2
    train = [bag for g in order[:n_train] for bag in groups[g]]
    test = [bag for g in order[n_train:] for bag in groups[g]]
    return train, test, recipes[0].task_class_counts()


# --- dataset file format ---------------------------------------------------
#
# Header: u32 bag count, u32 task count, then one u32 class count per task.
# Per bag: u32 group id, one i32 label per task (-1 = missing), then the
# true mixture, image and mask as binary tensor records.


def save_bags(path, bags, task_class_counts) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", len(bags), len(task_class_counts)))
        fh.write(struct.pack(f"<{len(task_class_counts)}I", *task_class_counts))
        for bag in bags:
            fh.write(struct.pack("<I", bag.group_id))
            fh.write(struct.pack(f"<{len(bag.labels)}i", *bag.labels))
            write_tensor(fh, bag.true_mixture)
            write_tensor(fh, bag.image)
            write_tensor(fh, bag.mask.astype(np.float32))


def _check_bag(index, labels, task_class_counts, image, mask) -> None:
    """Reject a loaded bag whose labels, image or mask no dataset could hold."""
    for t, (label, count) in enumerate(zip(labels, task_class_counts)):
        if label != MISSING and not 0 <= label < count:
            raise ValueError(
                f"bag {index}: labels[{t}] is {label}, outside [{MISSING}, {count})"
            )
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"bag {index}: image shape {image.shape} is not (H, W, 3)")
    if mask.shape != image.shape[:2]:
        raise ValueError(
            f"bag {index}: mask shape {mask.shape} does not match the image's {image.shape[:2]}"
        )
    if not ((mask == 0) | (mask == 1)).all():  # also rejects nan
        raise ValueError(f"bag {index}: mask holds values other than 0 and 1")


def load_bags(path):
    with open(path, "rb") as fh:
        n_bags, n_tasks = struct.unpack("<II", read_exact(fh, 8, "dataset header"))
        task_class_counts = list(
            struct.unpack(f"<{n_tasks}I", read_exact(fh, 4 * n_tasks, "class counts"))
        )
        bags = []
        for index in range(n_bags):
            (group_id,) = struct.unpack("<I", read_exact(fh, 4, "group id"))
            labels = struct.unpack(f"<{n_tasks}i", read_exact(fh, 4 * n_tasks, "labels"))
            true_mixture = read_tensor(fh)
            image = read_tensor(fh)
            mask = read_tensor(fh)
            _check_bag(index, labels, task_class_counts, image, mask)
            bags.append(Bag(image, mask.astype(np.uint8), labels, group_id, true_mixture))
        if fh.read(1):
            raise ValueError(
                f"trailing bytes at byte {fh.tell() - 1}: the header declares {n_bags} bags"
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
