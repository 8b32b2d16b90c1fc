import math

import numpy as np
import pytest

from qmil.aggregate import InstanceGrid
from qmil.evalviz import (
    DEFAULT_OPACITY,
    DEFAULT_PALETTE,
    chi_square_1df_survival,
    emit_accuracy_plot_data,
    heterogeneity_proportions,
    mcnemar,
    render_heatmap,
    write_ppm,
)
from qmil.layers import MISSING


def _grid_from_classes(classes, num_classes, mask=None):
    """Grid whose argmax per cell is the given class map."""
    classes = np.asarray(classes)
    h, w = classes.shape
    probs = np.full((h * w, num_classes), 0.1 / (num_classes - 1))
    probs[np.arange(h * w), classes.reshape(-1)] = 0.9
    if mask is None:
        mask = np.ones(h * w, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
    return InstanceGrid(probs, mask, (h, w))


def _expected_block(image_block, color, opacity=DEFAULT_OPACITY):
    raw = (1.0 - opacity) * image_block * 255.0 + opacity * np.asarray(color)
    return np.round(raw).astype(np.uint8)


class TestRenderHeatmap:
    downsample = 4
    receptive_field = 9

    def _image(self, side=20):
        return np.full((side, side, 3), 0.5)

    def test_uniform_predictions_single_color(self):
        grid = _grid_from_classes(np.zeros((3, 3), dtype=int), 2)
        raster = render_heatmap(self._image(), grid, self.downsample, self.receptive_field)
        offset = (self.receptive_field - self.downsample) // 2
        expected = _expected_block(np.full((4, 4, 3), 0.5), DEFAULT_PALETTE[0])
        for i in range(3):
            for j in range(3):
                r0, c0 = i * 4 + offset, j * 4 + offset
                np.testing.assert_array_equal(raster[r0 : r0 + 4, c0 : c0 + 4], expected)

    def test_one_differing_cell_changes_one_block(self):
        base = np.zeros((3, 3), dtype=int)
        changed = base.copy()
        changed[1, 2] = 1
        a = render_heatmap(self._image(), _grid_from_classes(base, 2),
                           self.downsample, self.receptive_field)
        b = render_heatmap(self._image(), _grid_from_classes(changed, 2),
                           self.downsample, self.receptive_field)
        diff = np.argwhere((a != b).any(axis=2))
        offset = (self.receptive_field - self.downsample) // 2
        rows = {r for r, _ in diff}
        cols = {c for _, c in diff}
        assert rows == set(range(1 * 4 + offset, 1 * 4 + offset + 4))
        assert cols == set(range(2 * 4 + offset, 2 * 4 + offset + 4))

    def test_blocks_match_per_cell_argmax_oracle(self):
        rng = np.random.default_rng(0)
        classes = rng.integers(0, 3, size=(3, 3))
        grid = _grid_from_classes(classes, 3)
        image = rng.uniform(size=(20, 20, 3))
        raster = render_heatmap(image, grid, self.downsample, self.receptive_field)
        offset = (self.receptive_field - self.downsample) // 2
        for i in range(3):
            for j in range(3):
                r0, c0 = i * 4 + offset, j * 4 + offset
                expected = _expected_block(
                    image[r0 : r0 + 4, c0 : c0 + 4], DEFAULT_PALETTE[classes[i, j]]
                )
                np.testing.assert_array_equal(raster[r0 : r0 + 4, c0 : c0 + 4], expected)

    def test_background_left_unpainted(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 0] = False
        grid = _grid_from_classes(np.zeros((3, 3), dtype=int), 2, mask)
        image = self._image()
        raster = render_heatmap(image, grid, self.downsample, self.receptive_field)
        offset = (self.receptive_field - self.downsample) // 2
        original = np.round(image * 255).astype(np.uint8)
        np.testing.assert_array_equal(
            raster[offset : offset + 4, offset : offset + 4],
            original[offset : offset + 4, offset : offset + 4],
        )

    def test_depends_only_on_argmax(self):
        h = w = 2
        strong = np.full((h * w, 2), 0.01)
        strong[:, 1] = 0.99
        weak = np.full((h * w, 2), 0.45)
        weak[:, 1] = 0.55
        mask = np.ones(h * w, dtype=bool)
        image = self._image(16)
        a = render_heatmap(image, InstanceGrid(strong, mask, (h, w)), 4, 9)
        b = render_heatmap(image, InstanceGrid(weak, mask, (h, w)), 4, 9)
        np.testing.assert_array_equal(a, b)

    def test_raster_shape_matches_image(self):
        grid = _grid_from_classes(np.zeros((2, 2), dtype=int), 2)
        raster = render_heatmap(self._image(17), grid, 4, 9)
        assert raster.shape == (17, 17, 3)
        assert raster.dtype == np.uint8

    def test_palette_too_small(self):
        grid = _grid_from_classes(np.zeros((2, 2), dtype=int), 4)
        with pytest.raises(ValueError, match="palette"):
            render_heatmap(self._image(), grid, 4, 9, palette=((0, 0, 0),))


class TestPpm:
    def test_file_layout(self, tmp_path):
        raster = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, raster)
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert data[len(b"P6\n3 2\n255\n"):] == raster.tobytes()

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3)))


class TestHeterogeneity:
    def test_all_one_class(self):
        grid = _grid_from_classes(np.zeros((3, 3), dtype=int), 2)
        props = heterogeneity_proportions([grid])
        np.testing.assert_allclose(props, [[1.0, 0.0]])

    def test_even_split(self):
        classes = np.array([[0, 1], [1, 0]])
        props = heterogeneity_proportions([_grid_from_classes(classes, 2)])
        np.testing.assert_allclose(props, [[0.5, 0.5]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        grids = [
            _grid_from_classes(rng.integers(0, 3, size=(4, 4)), 3) for _ in range(5)
        ]
        props = heterogeneity_proportions(grids)
        np.testing.assert_allclose(props.sum(axis=1), 1.0, atol=1e-6)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        grid = _grid_from_classes(rng.integers(0, 2, size=(4, 4)), 2)
        perm = rng.permutation(16)
        shuffled = InstanceGrid(grid.probs[perm], grid.mask[perm], grid.grid_shape)
        np.testing.assert_allclose(
            heterogeneity_proportions([shuffled]), heterogeneity_proportions([grid])
        )

    def test_only_foreground_counted(self):
        classes = np.array([[0, 1], [1, 1]])
        mask = np.array([[1, 0], [0, 1]])
        props = heterogeneity_proportions([_grid_from_classes(classes, 2, mask)])
        np.testing.assert_allclose(props, [[0.5, 0.5]])


class TestMcnemar:
    def test_identical_predictions(self):
        labels = [0, 1, 0, 1]
        stat, p = mcnemar([0, 1, 1, 1], [0, 1, 1, 1], labels)
        assert (stat, p) == (0.0, 1.0)

    def test_fifteen_zero_discordance(self):
        n = 40
        labels = np.zeros(n, dtype=int)
        preds_a = np.zeros(n, dtype=int)  # always right
        preds_b = np.zeros(n, dtype=int)
        preds_b[:15] = 1  # wrong on 15
        stat, p = mcnemar(preds_a, preds_b, labels)
        np.testing.assert_allclose(stat, 14.0**2 / 15.0)
        assert p < 1e-3

    def test_balanced_discordance(self):
        labels = np.zeros(10, dtype=int)
        preds_a = np.zeros(10, dtype=int)
        preds_b = np.zeros(10, dtype=int)
        preds_a[:5] = 1  # a wrong, b right -> c = 5
        preds_b[5:] = 1  # b wrong, a right -> b = 5
        stat, p = mcnemar(preds_a, preds_b, labels)
        np.testing.assert_allclose(stat, 0.1)
        np.testing.assert_allclose(p, 0.75, atol=0.01)

    def test_symmetric_p_value(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=50)
        a = rng.integers(0, 2, size=50)
        b = rng.integers(0, 2, size=50)
        _, p_ab = mcnemar(a, b, labels)
        _, p_ba = mcnemar(b, a, labels)
        np.testing.assert_allclose(p_ab, p_ba)

    def test_missing_labels_skipped(self):
        labels = [0, MISSING, 0]
        stat, p = mcnemar([0, 1, 1], [0, 0, 0], labels)
        # only entries 0 and 2 count: b=0, c=1
        np.testing.assert_allclose(stat, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mcnemar([0, 1], [0], [0, 1])

    def test_exact_variant_small_counts(self):
        labels = np.zeros(6, dtype=int)
        a = np.zeros(6, dtype=int)
        b = np.array([1, 1, 1, 0, 0, 0])  # b=3, c=0
        stat, p = mcnemar(a, b, labels, exact=True)
        assert stat == 0.0  # min(b, c)
        np.testing.assert_allclose(p, 2 * (0.5**3), atol=1e-12)

    def test_survival_matches_quadrature_oracle(self):
        for s in (0.1, 1.0, 3.84, 10.0, 13.07):
            u = np.linspace(np.sqrt(s), np.sqrt(s) + 40.0, 400_001)
            density = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * u * u)
            expected = np.trapezoid(density, u)
            np.testing.assert_allclose(chi_square_1df_survival(s), expected, atol=1e-6)


class TestAccuracyPlotData:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "plot.csv"
        emit_accuracy_plot_data(path, {})
        assert path.read_text().strip() == "crop_size,task,accuracy"

    def test_single_cell(self, tmp_path):
        path = tmp_path / "plot.csv"
        emit_accuracy_plot_data(path, {64: [0.9375]})
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "64,0,0.937500"

    def test_round_trip(self, tmp_path):
        table = {11: [0.55, 0.6], 32: [0.8, 0.75], 64: [0.9, 0.95]}
        path = tmp_path / "plot.csv"
        emit_accuracy_plot_data(path, table)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "crop_size,task,accuracy"
        parsed = {}
        for line in lines[1:]:
            size, task, acc = line.split(",")
            parsed.setdefault(int(size), []).insert(int(task), float(acc))
        assert parsed == table
