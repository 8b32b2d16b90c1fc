import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from qmil.augment import (
    _CHUNK_PIXELS,
    CANDIDATES,
    apply_dihedral,
    crop_count,
    crop_instance_masks,
    crops_per_step,
    extract_crop,
    sample_crops,
    window_counts,
)
from qmil.layers import FcnModel
from qmil.synthgen import disk_mask


def _window_sums(mask, size):
    """Reference: every size x size window's foreground pixels, summed one by one."""
    side = mask.shape[0] - size + 1
    return np.array([[int(mask[i : i + size, j : j + size].sum()) for j in range(side)]
                     for i in range(side)])


def _reference_sample_crops(counts, bags, size, max_attempts, rng):
    """Reference: sample_crops with each candidate of a round tested one at a time.

    A round draws (2, crops still drawing, k) offsets, k = min(CANDIDATES,
    attempts left); each crop takes its first candidate of >= 75%
    foreground, else keeps the first of largest count it has seen.
    """
    crops = [{"best": -1, "at": None, "done": False} for _ in bags]
    spent = 0
    while spent < max_attempts and not all(crop["done"] for crop in crops):
        todo = [i for i, crop in enumerate(crops) if not crop["done"]]
        k = min(CANDIDATES, max_attempts - spent)
        rows, cols = rng.integers(0, counts.shape[1], (2, len(todo), k))
        for n, i in enumerate(todo):
            for r, c in zip(rows[n].tolist(), cols[n].tolist()):
                count = int(counts[bags[i], r, c])
                if 4 * count >= 3 * size * size:
                    crops[i].update(at=(r, c), done=True)
                    break
                if count > crops[i]["best"]:
                    crops[i].update(best=count, at=(r, c))
        spent += k
    return [(*crop["at"], not crop["done"]) for crop in crops]


def _reference_instance_masks(masks, bags, rows, cols, flips, crop, model):
    """Reference: each crop flipped with np.fliplr and np.rot90, then each
    cell's r x r window summed, the >= half rule and the first-largest fallback."""
    r, d = model.receptive_field, model.downsample
    grids = []
    for b, i, j, (mirror, turns) in zip(bags, rows, cols, flips.tolist(), strict=True):
        window = masks[b][i : i + crop, j : j + crop]
        window = np.rot90(np.fliplr(window) if mirror else window, turns)
        counts = sliding_window_view(window, (r, r))[::d, ::d].sum(axis=(2, 3))
        grid = (2 * counts >= r * r).astype(np.uint8)
        if not grid.any():
            grid[np.unravel_index(np.argmax(counts), counts.shape)] = 1
        grids.append(grid)
    return np.array(grids)


def _reference_cut(images, bags, rows, cols, flips, crop):
    """Reference: each crop cut by plain slicing and flipped with np.fliplr and np.rot90."""
    crops = []
    for b, i, j, (mirror, turns) in zip(bags, rows, cols, flips.tolist(), strict=True):
        window = images[b][i : i + crop, j : j + crop]
        crops.append(np.rot90(np.fliplr(window) if mirror else window, turns))
    return np.array(crops)


def _crops(rows, cols, fallback):
    return list(zip(rows, cols, fallback.tolist()))


class TestWindowCounts:
    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 24), data=st.data(),
           density=st.sampled_from([0.0, 0.3, 0.8, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_every_window_counts_its_foreground_pixels(self, side, data, density, seed):
        size = data.draw(st.integers(1, side))
        rng = np.random.default_rng(seed)
        masks = (rng.uniform(size=(3, side, side)) < density).astype(np.uint8)
        table = window_counts(masks, size)
        assert table.shape == (3, side - size + 1, side - size + 1)
        assert np.iinfo(table.dtype).max >= size * size
        for mask, counts in zip(masks, table, strict=True):
            np.testing.assert_array_equal(counts, _window_sums(mask, size))

    def test_a_table_of_several_chunks_counts_every_window(self):
        # masks of 32 px that span a chunk of the product and part of a second
        rng = np.random.default_rng(4)
        count = _CHUNK_PIXELS // (32 * 32) + 10
        masks = (rng.uniform(size=(count, 32, 32)) < 0.6).astype(np.uint8)
        whole = window_counts(list(masks), 9)
        for mask, counts in zip(masks[::13], whole[::13]):
            np.testing.assert_array_equal(counts, _window_sums(mask, 9))

    def test_bench_sized_table_is_uint16(self):
        table = window_counts([disk_mask(64)] * 3, 16)
        assert table.dtype == np.uint16 and table.shape == (3, 49, 49)
        # the sampler's redraw estimate: 7.3% of these windows miss 75%
        assert 0.07 < np.mean(4 * table[0].astype(int) < 3 * 16 * 16) < 0.075


# (side, crop), for the default trunk's r = 9 and d = 4: crop 16 on 64 px
# (16 crops a step), crop 24 on 32 px (one crop a step, above 32 / sqrt(2))
# and the whole 32 px image, each with (crop - r) mod d = 3; the paper's
# crop-11 cell on 64 px, a 1 x 1 grid at offset 2; crop 21 on 32 px, offset 0
INSTANCE_MASK_CASES = [(64, 16), (32, 24), (32, 32), (64, 11), (32, 21)]


class TestInstanceMasks:
    @pytest.mark.parametrize("side, crop", INSTANCE_MASK_CASES)
    @settings(max_examples=25, deadline=None)
    @given(densities=st.lists(st.sampled_from([0.0, 0.003, 0.02, 0.2, 0.5, 0.8, 1.0]),
                              min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_every_flipped_crop_mask_matches_a_brute_force_count(self, side, crop, densities,
                                                                 seed):
        # sparse masks leave no cell at half foreground, so their crops fall
        # back to their first cell of largest count; empty ones to cell 0
        rng = np.random.default_rng(seed)
        model = FcnModel([2, 2])
        # a chunk of masks and part of a second, each read by some crop
        count = _CHUNK_PIXELS // (side * side) + 3
        masks = [(rng.uniform(size=(side, side)) < densities[i % len(densities)])
                 .astype(np.uint8) for i in range(count)]
        bags = rng.permutation(np.arange(2 * count) % count)
        rows, cols = rng.integers(0, side - crop + 1, (2, 2 * count)).tolist()
        flips = np.column_stack([np.arange(2 * count) // 4 % 2, np.arange(2 * count) % 4])
        images = [np.zeros((side, side, 3), dtype=np.uint8)] * count
        got, _ = crop_instance_masks(masks, bags, rows, cols, flips, crop, model, images)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(
            got, _reference_instance_masks(masks, bags, rows, cols, flips, crop, model))

    @pytest.mark.parametrize("side, crop", INSTANCE_MASK_CASES)
    def test_a_crop_without_foreground_falls_back_to_its_first_best_cell(self, side, crop):
        model = FcnModel([2, 2])
        mask = np.zeros((side, side), dtype=np.uint8)
        mask[side - 2, side - 3] = 1  # one pixel, seen by a corner's cells or by none
        image = np.zeros((side, side, 3), dtype=np.uint8)
        for flip in range(8):
            flips = np.array([[flip // 4, flip % 4]])
            got, _ = crop_instance_masks([mask], [0], [side - crop], [side - crop], flips, crop,
                                         model, [image])
            want = _reference_instance_masks([mask], [0], [side - crop], [side - crop], flips,
                                             crop, model)
            assert got.sum() == 1
            np.testing.assert_array_equal(got, want)

    def test_a_chunk_of_masks_that_no_crop_reads_is_skipped(self):
        model = FcnModel([2, 2])
        count = 2 * (_CHUNK_PIXELS // (32 * 32)) + 1  # two chunks and a third
        masks = [np.zeros((32, 32), dtype=np.uint8)] * count
        masks[-1] = np.ones((32, 32), dtype=np.uint8)
        bags = [0, count - 1, count - 1]  # none of the second chunk
        flips = np.array([[0, 0], [1, 3], [0, 2]])
        images = [np.full((32, 32, 3), i, dtype=np.uint8) for i in range(count)]
        got, pixels = crop_instance_masks(masks, bags, [3, 0, 5], [1, 2, 0], flips, 24, model,
                                          images)
        np.testing.assert_array_equal(
            got, _reference_instance_masks(masks, bags, [3, 0, 5], [1, 2, 0], flips, 24, model))
        np.testing.assert_array_equal(
            pixels, _reference_cut(images, bags, [3, 0, 5], [1, 2, 0], flips, 24))


class TestCut:
    @pytest.mark.parametrize("side, crop", INSTANCE_MASK_CASES)
    def test_every_flipped_crop_matches_a_brute_force_cut(self, side, crop):
        rng = np.random.default_rng(side * crop)
        model = FcnModel([2, 2])
        # a chunk of masks and part of a second, each read by two crops under
        # each of the 8 flips in turn
        count = _CHUNK_PIXELS // (side * side) + 3
        masks = [(rng.uniform(size=(side, side)) < 0.6).astype(np.uint8) for _ in range(count)]
        images = [rng.integers(0, 256, (side, side, 3), dtype=np.uint8) for _ in range(count)]
        bags = rng.permutation(np.arange(2 * count) % count)
        rows, cols = rng.integers(0, side - crop + 1, (2, 2 * count)).tolist()
        flips = np.column_stack([np.arange(2 * count) // 4 % 2, np.arange(2 * count) % 4])
        grids, pixels = crop_instance_masks(masks, bags, rows, cols, flips, crop, model, images)
        assert pixels.dtype == np.uint8 and pixels.flags.c_contiguous
        np.testing.assert_array_equal(pixels, _reference_cut(images, bags, rows, cols, flips, crop))
        # the pixels change no mask
        np.testing.assert_array_equal(
            grids, _reference_instance_masks(masks, bags, rows, cols, flips, crop, model))

    def test_each_step_reads_its_slice_of_the_cut(self):
        # 37 crops of 16 px on 64 px, steps of 16: the last step holds 5
        rng = np.random.default_rng(5)
        masks = [np.ones((64, 64), dtype=np.uint8)] * 3
        images = [rng.integers(0, 256, (64, 64, 3), dtype=np.uint8) for _ in range(3)]
        bags = rng.integers(0, 3, 37)
        rows, cols = rng.integers(0, 49, (2, 37))
        flips = np.column_stack([rng.integers(0, 2, 37), rng.integers(0, 4, 37)])
        _, pixels = crop_instance_masks(masks, bags, rows, cols, flips, 16, FcnModel([2, 2]),
                                        images)
        want = _reference_cut(images, bags, rows, cols, flips, 16)
        batch = crops_per_step(16, 64)
        steps = [extract_crop(pixels, start, start + batch) for start in range(0, 37, batch)]
        assert [len(step) for step in steps] == [16, 16, 5]
        for start, step in zip(range(0, 37, batch), steps):
            assert step.flags.c_contiguous and np.shares_memory(step, pixels)
            np.testing.assert_array_equal(step, want[start : start + batch])

    @pytest.mark.parametrize("row, col", [(-1, 0), (0, -3), (49, 0), (0, 49), (60, 60)])
    def test_an_offset_out_of_bounds_raises_naming_the_crop(self, row, col):
        masks = [np.ones((64, 64), dtype=np.uint8)] * 2
        images = [np.zeros((64, 64, 3), dtype=np.uint8)] * 2
        flips = np.zeros((3, 2), dtype=np.int64)
        with pytest.raises(ValueError, match=rf"^crop 2 of 16 px at \({row}, {col}\) out of "
                                             r"bounds for image 64x64$"):
            crop_instance_masks(masks, [0, 1, 1], [0, 48, row], [48, 0, col], flips, 16,
                                FcnModel([2, 2]), images)


class TestSampleCrops:
    def test_every_window_is_three_quarters_foreground_or_flagged(self):
        rng = np.random.default_rng(3)
        masks = np.stack([disk_mask(64), (rng.uniform(size=(64, 64)) < 0.72).astype(np.uint8)])
        table = window_counts(masks, 24)
        bags = rng.integers(0, 2, 500)
        rows, cols, fallback = sample_crops(table, bags, 24, 3, rng)
        assert fallback.any() and not fallback.all()  # the random mask makes both
        for b, r, c, flagged in zip(bags, rows, cols, fallback, strict=True):
            window = masks[b, r : r + 24, c : c + 24]
            assert flagged or window.sum() >= 0.75 * 24 * 24

    @pytest.mark.parametrize("attempts", [1, 2, 3, 4, 5, 9, 100])
    def test_no_valid_window_spends_every_attempt_on_the_first_best(self, attempts):
        # a diagonal stripe: no 8 px window reaches 75%, and the counts vary
        mask = np.zeros((20, 20), dtype=np.uint8)
        for i in range(20):
            mask[i, max(0, i - 3) : i + 4] = 1
        table = window_counts([mask], 8)
        assert 4 * table.max() < 3 * 64
        bags = [0, 0, 0]
        rng, replay = np.random.default_rng(attempts), np.random.default_rng(attempts)
        rows, cols, fallback = sample_crops(table, bags, 8, attempts, rng)
        assert fallback.all()
        # the candidates of every round, crop by crop, in draw order
        drawn = [[] for _ in bags]
        for spent in range(0, attempts, CANDIDATES):
            k = min(CANDIDATES, attempts - spent)
            for crop, r, c in zip(drawn, *replay.integers(0, 13, (2, len(bags), k))):
                crop += zip(r.tolist(), c.tolist())
        assert rng.bit_generator.state == replay.bit_generator.state  # no more, no fewer
        for crop, r, c in zip(drawn, rows, cols, strict=True):
            assert len(crop) == attempts
            seen = [table[0, i, j] for i, j in crop]
            assert (r, c) == crop[int(np.argmax(seen))]  # the first of the largest count
            if attempts == 1:
                assert (r, c) == crop[0]

    def test_offsets_are_uniform_over_the_valid_ones(self):
        # 32 of the 49 offsets of a 4 px crop are valid; 200 draws each
        mask = np.ones((10, 10), dtype=np.uint8)
        mask[2:5, 3:7] = 0
        mask[7:, :2] = 0
        table = window_counts([mask], 4)
        valid = 4 * table[0].astype(int) >= 3 * 16
        assert valid.sum() == 32
        crops = 200 * 32
        rows, cols, fallback = sample_crops(table, np.zeros(crops, dtype=int), 4, 100,
                                            np.random.default_rng(17))
        assert not fallback.any()
        observed = np.zeros((7, 7))
        np.add.at(observed, (rows, cols), 1)
        assert observed[~valid].sum() == 0
        statistic = ((observed[valid] - 200) ** 2 / 200).sum()
        assert statistic < 61.098  # chi-square with 31 degrees of freedom at p = 0.001

    def test_same_rng_state_gives_the_same_crops(self):
        table = window_counts([disk_mask(64), np.eye(64, dtype=np.uint8)], 20)
        bags = [0, 1, 1, 0, 1]
        runs = [_crops(*sample_crops(table, bags, 20, 6, rng))
                for rng in (np.random.default_rng(7), np.random.default_rng(7))]
        assert runs[0] == runs[1]
        assert any(flagged for *_, flagged in runs[0])

    @settings(max_examples=80, deadline=None)
    @given(
        side=st.integers(4, 30),
        data=st.data(),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.6, 0.8, 1.0]),
        attempts=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_candidates_tested_one_at_a_time(self, side, data, density, attempts,
                                                    seed):
        size = data.draw(st.integers(1, side))
        mask_rng = np.random.default_rng(seed)
        masks = (mask_rng.uniform(size=(3, side, side)) < density).astype(np.uint8)
        bags = mask_rng.integers(0, 3, data.draw(st.integers(1, 9)))
        table = window_counts(masks, size)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _crops(*sample_crops(table, bags, size, attempts, got_rng))
        want = _reference_sample_crops(table, bags, size, attempts, want_rng)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestCropCount:
    def test_paper_schedule_value(self):
        assert crop_count(500, 3500) == 49

    def test_whole_image(self):
        assert crop_count(3500, 3500) == 1
        assert crop_count(64, 64) == 1

    def test_desk_scale_arithmetic(self):
        assert crop_count(48, 64) == 2  # ceil(4096/2304)

    def test_pixel_budget_at_least_whole_image(self):
        for full in (64, 100, 3500):
            for w in range(9, full + 1, 7):
                assert crop_count(w, full) * w * w >= full * full

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), full=st.integers(2, 4000))
    def test_pixel_budget_is_the_fewest_crops_covering_the_image(self, data, full):
        c = data.draw(st.integers(1, full - 1))
        count = crop_count(c, full)
        assert count * c * c >= full * full
        assert (count - 1) * c * c < full * full

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            crop_count(100, 64)
        with pytest.raises(ValueError):
            crop_count(0, 64)


DIHEDRAL = [(mirror, turns) for mirror in (False, True) for turns in range(4)]


def _dihedral_image(side):
    """Distinct pixel values, so equal outputs mean equal permutations."""
    return np.arange(side * side * 3, dtype=np.float64).reshape(side, side, 3)


class TestDihedral:
    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(2, 9), a=st.sampled_from(DIHEDRAL), b=st.sampled_from(DIHEDRAL))
    def test_composition_is_one_of_the_eight(self, side, a, b):
        image = _dihedral_image(side)
        composed = apply_dihedral(apply_dihedral(image, *a), *b)
        matches = [c for c in DIHEDRAL if np.array_equal(apply_dihedral(image, *c), composed)]
        assert len(matches) == 1

    @settings(max_examples=30, deadline=None)
    @given(side=st.integers(2, 9), a=st.sampled_from(DIHEDRAL))
    def test_every_transform_has_an_inverse(self, side, a):
        image = _dihedral_image(side)
        inverses = [b for b in DIHEDRAL
                    if np.array_equal(apply_dihedral(apply_dihedral(image, *a), *b), image)]
        assert len(inverses) == 1

    def test_identity(self):
        rng = np.random.default_rng(5)
        image = rng.uniform(size=(8, 8, 3))
        mask = (rng.uniform(size=(8, 8)) > 0.5).astype(np.uint8)
        np.testing.assert_array_equal(apply_dihedral(image, mirror=False, quarter_turns=0),
                                      image)
        np.testing.assert_array_equal(apply_dihedral(mask, False, 0), mask)

    def test_half_turn_twice_is_identity(self):
        rng = np.random.default_rng(6)
        image = rng.uniform(size=(6, 6, 3))
        mask = np.eye(6, dtype=np.uint8)
        for a in (image, mask):
            np.testing.assert_array_equal(apply_dihedral(apply_dihedral(a, False, 2), False, 2), a)

    def test_quarter_turn_has_order_four(self):
        rng = np.random.default_rng(7)
        image = rng.uniform(size=(5, 5, 3))
        img = image
        for _ in range(4):
            img = apply_dihedral(img, False, 1)
        np.testing.assert_array_equal(img, image)

    def test_mirror_is_involution(self):
        rng = np.random.default_rng(8)
        image = rng.uniform(size=(4, 4, 3))
        np.testing.assert_array_equal(apply_dihedral(apply_dihedral(image, True, 0), True, 0),
                                      image)

    def test_foreground_fraction_invariant(self):
        rng = np.random.default_rng(9)
        mask = (rng.uniform(size=(12, 12)) > 0.6).astype(np.uint8)
        for mirror in (False, True):
            for k in range(4):
                out = apply_dihedral(mask, mirror, k)
                assert np.count_nonzero(out) == np.count_nonzero(mask)

    @pytest.mark.parametrize("turns", range(-4, 8))
    @pytest.mark.parametrize("mirror", [False, True])
    def test_matches_flip_and_rot90(self, mirror, turns):
        image = _dihedral_image(7)
        mask = (image[..., 1] % 3 == 0).astype(np.uint8)
        for original in (image, mask):
            out = apply_dihedral(original, mirror, turns)
            want = np.flip(original, axis=1) if mirror else original
            want = np.rot90(want, turns % 4)
            np.testing.assert_array_equal(out, want)
            assert np.shares_memory(out, original)  # a view, not a copy

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            apply_dihedral(np.zeros((4, 5, 3)), False, 1)
