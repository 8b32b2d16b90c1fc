import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmil.augment import (
    AugmentConfig,
    CropSpec,
    apply_dihedral,
    crop_count,
    extract_crop,
    sample_crop,
)
from qmil.synthgen import disk_mask


class TestSampleCrop:
    def test_all_foreground_accepts_first_draw(self):
        mask = np.ones((40, 40), dtype=np.uint8)
        cfg = AugmentConfig(crop_size=16)
        rng = np.random.default_rng(0)
        spec = sample_crop(mask, cfg, rng)
        probe = np.random.default_rng(0)
        assert (spec.row, spec.col) == (
            int(probe.integers(0, 25)), int(probe.integers(0, 25))
        )
        assert not spec.fallback

    def test_whole_image_crop_single_candidate(self):
        mask = np.ones((20, 20), dtype=np.uint8)
        cfg = AugmentConfig(crop_size=20)
        spec = sample_crop(mask, cfg, np.random.default_rng(1))
        assert (spec.row, spec.col, spec.size) == (0, 0, 20)
        assert not spec.fallback

    def test_whole_image_below_threshold_raises_fallback_flag(self):
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[:10] = 1  # 50% foreground < 75%
        cfg = AugmentConfig(crop_size=20, max_resample_attempts=5)
        spec = sample_crop(mask, cfg, np.random.default_rng(2))
        assert spec.fallback
        assert (spec.row, spec.col) == (0, 0)

    def test_disk_mask_crops_verified_by_pixel_count(self):
        mask = disk_mask(64)
        cfg = AugmentConfig(crop_size=24)
        rng = np.random.default_rng(3)
        for _ in range(500):
            spec = sample_crop(mask, cfg, rng)
            if spec.fallback:
                continue
            window = mask[spec.row : spec.row + 24, spec.col : spec.col + 24]
            assert window.sum() >= 0.75 * 24 * 24

    def test_crop_larger_than_image(self):
        with pytest.raises(ValueError, match="exceeds"):
            sample_crop(np.ones((10, 10)), AugmentConfig(crop_size=12), np.random.default_rng(0))

    def test_same_seed_reproduces_sequence(self):
        mask = disk_mask(64)
        cfg = AugmentConfig(crop_size=20)
        a = [sample_crop(mask, cfg, np.random.default_rng(4)) for _ in range(1)]
        seq1 = []
        rng = np.random.default_rng(7)
        for _ in range(20):
            seq1.append(sample_crop(mask, cfg, rng))
        rng = np.random.default_rng(7)
        seq2 = [sample_crop(mask, cfg, rng) for _ in range(20)]
        assert seq1 == seq2


def _integral_sample_crop(mask, cfg, rng):
    """Reference: the prefix-sum version of sample_crop, one table per call."""
    H, W = mask.shape
    size = cfg.crop_size
    padded = np.zeros((H + 1, W + 1), dtype=np.int64)
    padded[1:, 1:] = mask
    padded = padded.cumsum(axis=0).cumsum(axis=1)
    best, best_count = None, -1
    for _ in range(cfg.max_resample_attempts):
        row = int(rng.integers(0, H - size + 1))
        col = int(rng.integers(0, W - size + 1))
        count = int(
            padded[row + size, col + size] - padded[row, col + size]
            - padded[row + size, col] + padded[row, col]
        )
        if 4 * count >= 3 * size * size:
            return CropSpec(row, col, size)
        if count > best_count:
            best, best_count = (row, col), count
    return CropSpec(best[0], best[1], size, fallback=True)


class TestSampleCropMatchesIntegralImage:
    @settings(max_examples=80, deadline=None)
    @given(
        side=st.integers(4, 40),
        crop=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.6, 0.8, 1.0]),
        attempts=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_specs_and_rng_state(self, side, crop, density, attempts, seed):
        crop = min(crop, side)
        mask_rng = np.random.default_rng(seed)
        mask = (mask_rng.uniform(size=(side, side + 3)) < density).astype(np.uint8)
        cfg = AugmentConfig(crop_size=crop, max_resample_attempts=attempts)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [sample_crop(mask, cfg, got_rng) for _ in range(6)]
        want = [_integral_sample_crop(mask, cfg, want_rng) for _ in range(6)]
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_sparse_masks_reach_the_fallback(self):
        # the property above covers fallback crops only if they happen
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[3, 4] = mask[15, 15] = 1
        cfg = AugmentConfig(crop_size=8, max_resample_attempts=5)
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        spec = sample_crop(mask, cfg, rng)
        assert spec.fallback
        assert spec == _integral_sample_crop(mask, cfg, ref_rng)


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
        mask = np.zeros((side, side), dtype=np.uint8)
        composed, _ = apply_dihedral(*apply_dihedral(image, mask, *a), *b)
        matches = [
            c for c in DIHEDRAL if np.array_equal(apply_dihedral(image, mask, *c)[0], composed)
        ]
        assert len(matches) == 1

    @settings(max_examples=30, deadline=None)
    @given(side=st.integers(2, 9), a=st.sampled_from(DIHEDRAL))
    def test_every_transform_has_an_inverse(self, side, a):
        image = _dihedral_image(side)
        mask = (image[..., 0] % 2).astype(np.uint8)
        inverses = [
            b for b in DIHEDRAL
            if all(
                np.array_equal(out, original)
                for out, original in zip(apply_dihedral(*apply_dihedral(image, mask, *a), *b),
                                         (image, mask))
            )
        ]
        assert len(inverses) == 1

    def test_identity(self):
        rng = np.random.default_rng(5)
        image = rng.uniform(size=(8, 8, 3))
        mask = (rng.uniform(size=(8, 8)) > 0.5).astype(np.uint8)
        out_img, out_mask = apply_dihedral(image, mask, mirror=False, quarter_turns=0)
        np.testing.assert_array_equal(out_img, image)
        np.testing.assert_array_equal(out_mask, mask)

    def test_half_turn_twice_is_identity(self):
        rng = np.random.default_rng(6)
        image = rng.uniform(size=(6, 6, 3))
        mask = np.eye(6, dtype=np.uint8)
        once = apply_dihedral(image, mask, False, 2)
        twice = apply_dihedral(*once, False, 2)
        np.testing.assert_array_equal(twice[0], image)
        np.testing.assert_array_equal(twice[1], mask)

    def test_quarter_turn_has_order_four(self):
        rng = np.random.default_rng(7)
        image = rng.uniform(size=(5, 5, 3))
        mask = (rng.uniform(size=(5, 5)) > 0.5).astype(np.uint8)
        img, msk = image, mask
        for _ in range(4):
            img, msk = apply_dihedral(img, msk, False, 1)
        np.testing.assert_array_equal(img, image)
        np.testing.assert_array_equal(msk, mask)

    def test_mirror_is_involution(self):
        rng = np.random.default_rng(8)
        image = rng.uniform(size=(4, 4, 3))
        mask = np.ones((4, 4), dtype=np.uint8)
        once = apply_dihedral(image, mask, True, 0)
        twice = apply_dihedral(*once, True, 0)
        np.testing.assert_array_equal(twice[0], image)

    def test_foreground_fraction_invariant(self):
        rng = np.random.default_rng(9)
        mask = (rng.uniform(size=(12, 12)) > 0.6).astype(np.uint8)
        image = rng.uniform(size=(12, 12, 3))
        for mirror in (False, True):
            for k in range(4):
                _, out = apply_dihedral(image, mask, mirror, k)
                assert np.count_nonzero(out) == np.count_nonzero(mask)

    @pytest.mark.parametrize("turns", range(-4, 8))
    @pytest.mark.parametrize("mirror", [False, True])
    def test_matches_flip_and_rot90(self, mirror, turns):
        image = _dihedral_image(7)
        mask = (image[..., 1] % 3 == 0).astype(np.uint8)
        got = apply_dihedral(image, mask, mirror, turns)
        for out, original in zip(got, (image, mask)):
            want = np.flip(original, axis=1) if mirror else original
            want = np.rot90(want, turns % 4)
            np.testing.assert_array_equal(out, want)
            assert out.flags.c_contiguous

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            apply_dihedral(np.zeros((4, 5, 3)), np.zeros((4, 5)), False, 1)


class TestExtractCrop:
    def test_full_image_identity(self):
        rng = np.random.default_rng(10)
        image = rng.uniform(size=(6, 6, 3))
        mask = np.ones((6, 6), dtype=np.uint8)
        img, msk = extract_crop(image, mask, CropSpec(0, 0, 6))
        np.testing.assert_array_equal(img, image)
        np.testing.assert_array_equal(msk, mask)

    def test_single_pixel(self):
        rng = np.random.default_rng(11)
        image = rng.uniform(size=(5, 5, 3))
        mask = np.arange(25).reshape(5, 5)
        img, msk = extract_crop(image, mask, CropSpec(2, 3, 1))
        np.testing.assert_array_equal(img[0, 0], image[2, 3])
        assert msk[0, 0] == mask[2, 3]

    def test_matches_naive_copy(self):
        rng = np.random.default_rng(12)
        image = rng.uniform(size=(9, 9, 3))
        mask = (rng.uniform(size=(9, 9)) > 0.5).astype(np.uint8)
        spec = CropSpec(2, 4, 4)
        img, msk = extract_crop(image, mask, spec)
        for i in range(4):
            for j in range(4):
                np.testing.assert_array_equal(img[i, j], image[spec.row + i, spec.col + j])
                assert msk[i, j] == mask[spec.row + i, spec.col + j]

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            extract_crop(np.zeros((5, 5, 3)), np.zeros((5, 5)), CropSpec(3, 3, 4))

    def test_returns_copies(self):
        image = np.zeros((4, 4, 3))
        mask = np.zeros((4, 4))
        img, _ = extract_crop(image, mask, CropSpec(0, 0, 2))
        img[...] = 1.0
        assert not image.any()
