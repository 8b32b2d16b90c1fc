"""Instance-prediction heatmaps, heterogeneity reports and McNemar's test."""

from __future__ import annotations

import csv
import math

import numpy as np

from .aggregate import InstanceGrid
from .layers import MISSING

# Distinguishable class colors (RGB bytes).
DEFAULT_PALETTE = (
    (220, 50, 47),
    (38, 139, 210),
    (133, 153, 0),
    (181, 137, 0),
    (211, 54, 130),
    (42, 161, 152),
)
DEFAULT_OPACITY = 0.6


def render_heatmap(image: np.ndarray, grid: InstanceGrid, downsample: int,
                   receptive_field: int, palette=DEFAULT_PALETTE,
                   opacity: float = DEFAULT_OPACITY) -> np.ndarray:
    """Paint each foreground instance's argmax class over the input image.

    Each grid cell paints the central downsample x downsample block of its
    receptive field (overlapping receptive fields make per-pixel attribution
    ambiguous; center blocks are unambiguous). Background cells are left
    unpainted. Returns a uint8 raster the size of the input image.
    """
    if grid.num_classes > len(palette):
        raise ValueError(f"palette has {len(palette)} colors for {grid.num_classes} classes")
    raster = np.clip(np.asarray(image, dtype=np.float64) * 255.0, 0, 255)
    h, w = grid.grid_shape
    classes = grid.probs.argmax(axis=1).reshape(h, w)
    mask = grid.mask.reshape(h, w)
    offset = (receptive_field - downsample) // 2
    colors = np.asarray(palette, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            r0 = i * downsample + offset
            c0 = j * downsample + offset
            block = raster[r0 : r0 + downsample, c0 : c0 + downsample]
            block[:] = (1.0 - opacity) * block + opacity * colors[classes[i, j]]
    return np.round(raster).astype(np.uint8)


def write_ppm(path, raster: np.ndarray) -> None:
    """Write an RGB byte raster as a binary PPM (P6) image."""
    if raster.ndim != 3 or raster.shape[2] != 3 or raster.dtype != np.uint8:
        raise ValueError("expected an (H, W, 3) uint8 raster")
    height, width = raster.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def heterogeneity_proportions(grids) -> np.ndarray:
    """Per-bag fraction of foreground instances predicted for each class."""
    rows = []
    for grid in grids:
        fg = grid.fg_idx
        classes = grid.probs[fg].argmax(axis=1)
        counts = np.bincount(classes, minlength=grid.num_classes)
        rows.append(counts / counts.sum())
    if not rows:
        raise ValueError("no instance grids supplied")
    return np.asarray(rows)


def write_heterogeneity_csv(path, proportions: np.ndarray, labels=None,
                            true_mixtures=None) -> None:
    num_classes = proportions.shape[1]
    header = ["bag"] + [f"predicted_class{c}" for c in range(num_classes)]
    if labels is not None:
        header.append("label")
    if true_mixtures is not None:
        header += [f"true_class{c}" for c in range(np.asarray(true_mixtures).shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(proportions):
            out = [i] + [f"{v:.6f}" for v in row]
            if labels is not None:
                out.append(int(labels[i]))
            if true_mixtures is not None:
                out += [f"{v:.6f}" for v in true_mixtures[i]]
            writer.writerow(out)


def chi_square_1df_survival(statistic: float) -> float:
    """Upper tail of the chi-square distribution with one degree of freedom."""
    return math.erfc(math.sqrt(statistic / 2.0))


def mcnemar(preds_a, preds_b, labels, exact: bool = False):
    """McNemar's paired test on the discordant classification outcomes.

    Entries with MISSING labels are skipped. The default is the continuity
    corrected chi-square form (|b-c|-1)^2/(b+c) with a 1-df tail p-value;
    exact=True uses the two-sided binomial form instead (statistic min(b, c)),
    preferable for small discordant counts. b + c == 0 yields p = 1.
    """
    preds_a = np.asarray(preds_a)
    preds_b = np.asarray(preds_b)
    labels = np.asarray(labels)
    if not (preds_a.shape == preds_b.shape == labels.shape):
        raise ValueError(
            f"length mismatch: {preds_a.shape}, {preds_b.shape}, {labels.shape}"
        )
    keep = labels != MISSING
    correct_a = preds_a[keep] == labels[keep]
    correct_b = preds_b[keep] == labels[keep]
    b = int(np.count_nonzero(correct_a & ~correct_b))
    c = int(np.count_nonzero(~correct_a & correct_b))
    n = b + c
    if n == 0:
        return 0.0, 1.0
    if exact:
        k = min(b, c)
        tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n
        return float(k), min(1.0, 2.0 * tail)
    statistic = (abs(b - c) - 1) ** 2 / n
    return float(statistic), chi_square_1df_survival(statistic)


def emit_accuracy_plot_data(path, table) -> None:
    """Write a crop-size accuracy table as CSV, one row per (size, task)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["crop_size", "task", "accuracy"])
        for size in sorted(table):
            for task, acc in enumerate(table[size]):
                writer.writerow([size, task, f"{acc:.6f}"])

