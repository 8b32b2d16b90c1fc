import struct
from dataclasses import replace

import numpy as np
import pytest

from qmil.layers import MISSING
from qmil.synthgen import (
    BagRecipe,
    LabelRule,
    default_tasks,
    disk_mask,
    generate_dataset,
    generate_group,
    heterogeneous_recipes,
    homogeneous_recipes,
    labels_from_mixture,
    load_bags,
    save_bags,
    DEFAULT_TEXTURES,
)


def _recipe(mixture, **kwargs):
    defaults = dict(
        image_size=64,
        textures=DEFAULT_TEXTURES[: len(mixture)],
        mixture=mixture,
        tasks=default_tasks(0.3),
    )
    defaults.update(kwargs)
    return BagRecipe(**defaults)


def generate_bag(recipe, seed):
    """One bag: the first member of a group of one."""
    return generate_group(replace(recipe, group_size=1), seed)[0]


class TestGenerateBag:
    def test_pure_mixture(self):
        bag = generate_bag(_recipe((1.0, 0.0)), seed=0)
        np.testing.assert_array_equal(bag.true_mixture, [1.0, 0.0])
        assert bag.labels == (0, 0)

    def test_half_mixture_concentrates(self):
        bag = generate_bag(_recipe((0.5, 0.5), image_size=128), seed=1)
        assert abs(bag.true_mixture[1] - 0.5) < 0.1  # 256 tiles, ~3 sigma

    def test_same_seed_bit_identical(self):
        a = generate_bag(_recipe((0.4, 0.6)), seed=2)
        b = generate_bag(_recipe((0.4, 0.6)), seed=2)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert a.labels == b.labels

    def test_background_is_white(self):
        bag = generate_bag(_recipe((0.5, 0.5)), seed=3)
        assert (bag.image[bag.mask == 0] == 1.0).all()

    def test_disk_covers_at_least_half(self):
        bag = generate_bag(_recipe((0.5, 0.5)), seed=4)
        assert bag.mask.mean() >= 0.5

    def test_labels_follow_rules(self):
        mixture = (0.6, 0.4)
        rule_argmax, rule_threshold = default_tasks(0.3)
        assert rule_argmax(mixture) == 0
        assert rule_threshold(mixture) == 1
        assert labels_from_mixture(mixture, default_tasks(0.3)) == (0, 1)

    def test_image_range_and_dtype(self):
        bag = generate_bag(_recipe((0.5, 0.5)), seed=5)
        assert bag.image.dtype == np.float32
        assert bag.image.min() >= 0.0 and bag.image.max() <= 1.0


class TestGenerateGroup:
    def test_members_share_mixture_and_labels(self):
        recipe = _recipe((0.3, 0.7), group_size=3)
        bags = generate_group(recipe, seed=6, group_id=9)
        assert len(bags) == 3
        for bag in bags:
            np.testing.assert_array_equal(bag.true_mixture, bags[0].true_mixture)
            assert bag.labels == bags[0].labels
            assert bag.group_id == 9

    def test_members_differ_in_layout(self):
        recipe = _recipe((0.5, 0.5), group_size=2)
        bags = generate_group(recipe, seed=7)
        assert (bags[0].image != bags[1].image).any()

    def test_labels_recomputable_from_true_mixture(self):
        recipe = _recipe((0.35, 0.65), group_size=2)
        for seed in range(20):
            for bag in generate_group(recipe, seed=seed):
                if MISSING not in bag.labels:
                    assert bag.labels == labels_from_mixture(bag.true_mixture, recipe.tasks)


class TestGenerateDataset:
    def test_even_split_by_group(self):
        pairs = [(_recipe((0.5, 0.5)), 10)]
        train, test, counts = generate_dataset(pairs, seed=0)
        assert len(train) == 5 and len(test) == 5
        assert counts == [2, 2]

    def test_groups_never_split(self):
        pairs = [(_recipe((0.5, 0.5), group_size=3), 8)]
        train, test, _ = generate_dataset(pairs, seed=1)
        train_groups = {b.group_id for b in train}
        test_groups = {b.group_id for b in test}
        assert not train_groups & test_groups
        assert train_groups | test_groups == set(range(8))
        for bags, expect in ((train, 4 * 3), (test, 4 * 3)):
            assert len(bags) == expect

    def test_label_marginals_match_rules(self):
        pairs = [(_recipe((0.5, 0.5)), 6), (_recipe((0.1, 0.9)), 6)]
        train, test, _ = generate_dataset(pairs, seed=2)
        for bag in train + test:
            assert bag.labels == labels_from_mixture(bag.true_mixture, default_tasks(0.3))

    def test_missing_rate_within_three_sigma(self):
        rate = 0.2
        recipe = _recipe((0.5, 0.5), missing_prob=(rate, rate))
        train, test, _ = generate_dataset([(recipe, 1000)], seed=3)
        bags = train + test
        observed = np.mean([b.labels[0] == MISSING for b in bags])
        sigma = np.sqrt(rate * (1 - rate) / len(bags))
        assert abs(observed - rate) < 3 * sigma

    def test_mixed_tasks_rejected(self):
        a = _recipe((0.5, 0.5))
        b = _recipe((0.5, 0.5), tasks=(LabelRule("argmax"),))
        with pytest.raises(ValueError, match="same tasks"):
            generate_dataset([(a, 2), (b, 2)], seed=1)


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        recipe = _recipe((0.4, 0.6), missing_prob=(0.5, 0.0))
        train, test, counts = generate_dataset([(recipe, 8)], seed=4)
        path = tmp_path / "train.bags"
        save_bags(path, train, counts)
        loaded, loaded_counts = load_bags(path)
        assert loaded_counts == counts
        assert len(loaded) == len(train)
        for a, b in zip(loaded, train):
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.mask, b.mask)
            np.testing.assert_array_equal(a.true_mixture, b.true_mixture)
            assert tuple(a.labels) == tuple(b.labels)
            assert a.group_id == b.group_id

    # header: 8 bytes, 2 class counts: 8, then per bag group id and 2 labels
    @pytest.mark.parametrize("cut,field,offset", [
        (5, "dataset header", 0),
        (12, "class counts", 8),
        (18, "group id", 16),
        (24, "labels", 20),
    ])
    def test_truncated_file_names_field_and_offset(self, tmp_path, cut, field, offset):
        bag = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        path = tmp_path / "train.bags"
        save_bags(path, [bag], [2, 2])
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"truncated {field} at byte {offset}:"):
            load_bags(path)

    def test_task_count_beyond_file_size_rejected_before_reading(self, tmp_path):
        # a corrupt task count would otherwise ask read() for 16 GiB
        path = tmp_path / "train.bags"
        path.write_bytes(struct.pack("<II", 1, 2**32 - 1) + bytes(64))
        with pytest.raises(ValueError, match="truncated class counts at byte 8: .* 64 left"):
            load_bags(path)

    @pytest.mark.parametrize("change,message", [
        (dict(labels=(0, 2)), r"bag 1: labels\[1\] is 2, outside \[-1, 2\)"),
        (dict(labels=(-2, 0)), r"bag 1: labels\[0\] is -2"),
        (dict(mask=np.full((16, 16), np.nan)), "bag 1: mask holds values other than 0 and 1"),
        (dict(mask=np.full((16, 16), 2.0)), "bag 1: mask holds values other than 0 and 1"),
        (dict(mask=np.ones((16, 8))), r"bag 1: mask shape \(16, 8\) does not match"),
        (dict(image=np.ones((16, 16, 4))), r"bag 1: image shape \(16, 16, 4\)"),
    ])
    def test_corrupt_bag_names_index_and_field(self, tmp_path, change, message):
        good = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        bad = replace(good, **change)
        path = tmp_path / "train.bags"
        save_bags(path, [good, bad], [2, 2])
        with pytest.raises(ValueError, match=message):
            load_bags(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        bag = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        path = tmp_path / "train.bags"
        save_bags(path, [bag], [2, 2])
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match=f"trailing bytes at byte {end}: .* 1 bags"):
            load_bags(path)


class TestRecipeFamilies:
    def test_heterogeneous_counts_sum(self):
        pairs = heterogeneous_recipes(800)
        assert sum(c for _, c in pairs) == 800

    def test_homogeneous_mixtures_are_pure(self):
        for recipe, _ in homogeneous_recipes(10, num_textures=3):
            assert sorted(recipe.mixture) == [0.0, 0.0, 1.0]

    def test_recipe_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _recipe((0.5, 0.6))
        with pytest.raises(ValueError, match="length"):
            BagRecipe(64, DEFAULT_TEXTURES[:2], (1.0,), default_tasks())
        bad = [
            (lambda: heterogeneous_recipes(4, num_textures=1), "num_textures"),
            (lambda: heterogeneous_recipes(4, num_textures=4), "num_textures"),
            (lambda: homogeneous_recipes(4, num_textures=1), "num_textures"),
            (lambda: BagRecipe(64, DEFAULT_TEXTURES[:1], (1.0,), default_tasks()),
             "tasks: threshold class_index 1"),
            (lambda: _recipe((0.5, 0.5), tile_size=0), "tile_size"),
            (lambda: _recipe((0.5, 0.5), image_size=0), "image_size"),
            (lambda: _recipe((0.5, 0.5), group_size=0), "group_size"),
            (lambda: _recipe((0.5, 0.5), missing_prob=(1.5, 0.0)), "missing_prob"),
            (lambda: _recipe((0.5, 0.5), noise_jitter=(2.0, 1.0)), "noise_jitter"),
            (lambda: LabelRule("median"), "label rule kind"),
            (lambda: replace(DEFAULT_TEXTURES[0], spot_radius=-1), "spot_radius"),
            (lambda: replace(DEFAULT_TEXTURES[0], spot_density=float("nan")),
             "spot_density"),
            (lambda: replace(DEFAULT_TEXTURES[0], noise_amplitude=-0.1), "noise_amplitude"),
            (lambda: replace(DEFAULT_TEXTURES[0], base_color=(0.5, 0.5)), "base_color"),
        ]
        for build, field in bad:
            with pytest.raises(ValueError, match=field):
                build()


def test_disk_mask_geometry():
    mask = disk_mask(64)
    assert mask.shape == (64, 64)
    assert 0.5 <= mask.mean() <= 0.85
    # centered: symmetric under half turn
    np.testing.assert_array_equal(mask, np.rot90(mask, 2))
