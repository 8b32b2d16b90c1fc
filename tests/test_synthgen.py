import hashlib
import io
import struct
from dataclasses import replace

import numpy as np
import pytest

from qmil.layers import MISSING
from qmil.synthgen import (
    _render_tiles,
    BagRecipe,
    LabelRule,
    default_tasks,
    disk_mask,
    generate_dataset,
    generate_group,
    heterogeneous_recipes,
    labels_from_mixture,
    load_bags,
    recipe_family,
    save_bags,
    DEFAULT_TEXTURES,
)
from qmil.tensor import write_tensor
from qmil.trainer import TrainConfig, evaluate, init_state
from test_synthgen_bytes import CASES, DENSE_TEXTURES, SEEDS


def _recipe(mixture, **kwargs):
    defaults = dict(
        image_size=64,
        textures=DEFAULT_TEXTURES[: len(mixture)],
        mixture=mixture,
        tasks=default_tasks(0.3),
    )
    defaults.update(kwargs)
    return BagRecipe(**defaults)


HEADER = b"QMILBAGS" + struct.pack("<I", 3)  # dataset magic and format version


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
        assert (bag.image[bag.mask == 0] == 255).all()

    def test_disk_covers_at_least_half(self):
        bag = generate_bag(_recipe((0.5, 0.5)), seed=4)
        assert bag.mask.mean() >= 0.5

    def test_labels_follow_rules(self):
        mixture = (0.6, 0.4)
        rule_argmax, rule_threshold = default_tasks(0.3)
        assert rule_argmax(mixture) == 0
        assert rule_threshold(mixture) == 1
        assert labels_from_mixture(mixture, default_tasks(0.3)) == (0, 1)

    def test_image_is_the_rendered_image_quantised_once(self):
        recipe = _recipe((0.5, 0.5))
        bag = generate_bag(recipe, seed=5)
        assert bag.image.dtype == np.uint8 and bag.image.shape == (64, 64, 3)
        # the member's render, replayed from its stream: rint(255 * x)
        rng = np.random.default_rng([5, 1])
        jitter = rng.uniform(*recipe.noise_jitter)
        layout = np.random.default_rng([5, 0]).choice(2, size=(8, 8), p=recipe.mixture)
        floor = np.repeat(1.0 - disk_mask(64), 3).reshape(64, 64, 3).astype(np.float32)
        rendered = _render_tiles(64, 8, layout, recipe.textures, jitter, rng, floor)
        np.testing.assert_array_equal(bag.image, np.rint(255 * rendered))
        assert 0 < bag.image.min() and bag.image.max() == 255


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

    # magic: 8 bytes, version: 4, header: 8, 2 class counts: 8, then per bag
    # group id and 2 labels
    @pytest.mark.parametrize("cut,field,offset", [
        (5, "dataset magic", 0),
        (10, "dataset format version", 8),
        (17, "dataset header", 12),
        (24, "class counts", 20),
        (30, "group id", 28),
        (36, "labels", 32),
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
        path.write_bytes(HEADER + struct.pack("<II", 1, 2**32 - 1) + bytes(64))
        with pytest.raises(ValueError, match="truncated class counts at byte 20: .* 64 left"):
            load_bags(path)

    @pytest.mark.parametrize("start,message", [
        # a version 1 file starts with its u32 bag and task counts
        (struct.pack("<II", 1, 2), r"found b'\\x01\\x00.*' where the magic b'QMILBAGS' belongs"),
        (b"QMILBAGZ", "found b'QMILBAGZ' where the magic"),
        (b"QMILBAGS" + struct.pack("<I", 1), "format version 1 is not the version 3"),
        (b"QMILBAGS" + struct.pack("<I", 4), "format version 4 is not the version 3"),
    ])
    def test_unknown_magic_or_version_names_what_was_found(self, tmp_path, start, message):
        bag = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        path = tmp_path / "train.bags"
        save_bags(path, [bag], [2, 2])
        path.write_bytes(start + path.read_bytes()[len(start):])
        with pytest.raises(ValueError, match=message):
            load_bags(path)

    def test_mask_is_stored_as_one_byte_per_pixel(self, tmp_path):
        bag = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        path = tmp_path / "train.bags"
        save_bags(path, [bag], [2, 2])
        mask_record = b"MIU1" + struct.pack("<3I", 2, 16, 16) + bag.mask.tobytes()
        assert path.read_bytes().endswith(mask_record)
        (loaded,), _ = load_bags(path)
        assert loaded.mask.dtype == np.uint8 and loaded.mask.flags.writeable
        assert loaded.image.flags.writeable

    def test_image_is_stored_as_one_byte_per_channel(self, tmp_path):
        bag = generate_bag(_recipe((0.5, 0.5), image_size=256), seed=0)
        path = tmp_path / "train.bags"
        save_bags(path, [bag], [2, 2])
        image_record = b"MIU1" + struct.pack("<4I", 3, 256, 256, 3) + bag.image.tobytes()
        mask_record = b"MIU1" + struct.pack("<3I", 2, 256, 256) + bag.mask.tobytes()
        assert path.read_bytes().endswith(image_record + mask_record)
        # magic, version, counts, class counts; group id, labels, the mixture,
        # image and mask records: each record a magic, a rank and its dims
        header = 8 + 4 + 8 + 2 * 4
        bag_bytes = 4 + 2 * 4 + (12 + 2 * 4) + (20 + 256 * 256 * 3) + (16 + 256 * 256)
        assert path.stat().st_size == header + bag_bytes
        (loaded,), _ = load_bags(path)
        assert loaded.image.dtype == np.uint8
        np.testing.assert_array_equal(loaded.image, bag.image)

    def test_version_2_file_is_refused_by_its_version(self, tmp_path):
        # format version 2 held the image as a float32 record in [0, 1]
        bag = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        buf = io.BytesIO()
        buf.write(b"QMILBAGS" + struct.pack("<5I", 2, 1, 2, 2, 2))
        buf.write(struct.pack("<I2i", bag.group_id, *bag.labels))
        write_tensor(buf, bag.true_mixture)
        write_tensor(buf, bag.image / 255)
        write_tensor(buf, bag.mask, np.uint8)
        path = tmp_path / "train.bags"
        path.write_bytes(buf.getvalue())
        with pytest.raises(ValueError, match="^dataset format version 2 is not the version 3 "
                           "this reader reads; files of format version 1 or 2 must be "
                           "regenerated$"):
            load_bags(path)

    def test_float_image_is_refused_before_writing(self, tmp_path):
        good = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        bad = replace(good, image=good.image / 255)
        path = tmp_path / "train.bags"
        with pytest.raises(ValueError, match="bag 1: image dtype float64 is not uint8"):
            save_bags(path, [good, bad], [2, 2])
        assert not path.exists()

    @pytest.mark.parametrize("change,message", [
        (dict(labels=(0, 2)), r"bag 1: labels\[1\] is 2, outside \[-1, 2\)"),
        (dict(labels=(-2, 0)), r"bag 1: labels\[0\] is -2"),
        (dict(mask=np.full((16, 16), 255)), "bag 1: mask holds values other than 0 and 1"),
        (dict(mask=np.full((16, 16), 2)), "bag 1: mask holds values other than 0 and 1"),
        (dict(mask=np.ones((16, 8))), r"bag 1: mask shape \(16, 8\) does not match"),
        (dict(image=np.ones((16, 16, 4), np.uint8)), r"bag 1: image shape \(16, 16, 4\)"),
        # a crop of a non-square image would train on its left square only
        (dict(image=np.ones((16, 24, 3), np.uint8), mask=np.ones((16, 24), np.uint8)),
         r"bag 1: image shape \(16, 24, 3\) is not \(W, W, 3\)"),
        (dict(true_mixture=np.ones((2, 1))), r"bag 1: true_mixture shape \(2, 1\) is not \(2,\)"),
    ])
    def test_corrupt_bag_names_index_and_field(self, tmp_path, change, message):
        good = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        bad = replace(good, **change)
        path = tmp_path / "train.bags"
        save_bags(path, [good, bad], [2, 2])
        with pytest.raises(ValueError, match=message):
            load_bags(path)

    def test_odd_size_round_trip_evaluates_bit_identically(self, tmp_path):
        # 243-byte image and 81-byte mask records, with edge tiles cut to the image
        recipe = _recipe((0.5, 0.5), image_size=9, tile_size=4)
        bags, _, counts = generate_dataset([(recipe, 6)], seed=2)
        path = tmp_path / "odd.bags"
        save_bags(path, bags, counts)
        loaded, _ = load_bags(path)
        for a, b in zip(loaded, bags, strict=True):
            for got, want in ((a.image, b.image), (a.mask, b.mask),
                              (a.true_mixture, b.true_mixture)):
                assert got.flags.writeable and got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        cfg = TrainConfig(aggregator="quantile", num_quantiles=3)
        state = init_state(counts, cfg)
        want = evaluate(state, bags, cfg).bag_probs
        got = evaluate(state, loaded, cfg).bag_probs
        assert len(got) == len(want) == len(bags)
        assert all(np.array_equal(p, q) for g, w in zip(got, want) for p, q in zip(g, w))

    def test_trailing_bytes_rejected(self, tmp_path):
        bag = generate_bag(_recipe((0.5, 0.5), image_size=16), seed=0)
        path = tmp_path / "train.bags"
        save_bags(path, [bag], [2, 2])
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match=f"trailing bytes at byte {end}: .* 1 bags"):
            load_bags(path)


class RecordingRng:
    """A Generator that records the name and a copy of the result of every call made on it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.copy(out)))
            return out

        return record


class TestRenderTiles:
    """The renderer's streams: three RNG calls per image, spots drawn and kept in their tile.

    A checkerboard of the two dense textures gives every tile neighbours of
    the other texture, whose colours differ from its own, so a spot painted
    across a tile edge shows. Sides 30 and 65 leave edge tiles cut short.
    """

    JITTER = 1.3
    GEOMETRIES = [(30, 5), (30, 8), (65, 5), (65, 8)]

    @staticmethod
    def _checkerboard(size, tile):
        n = -(-size // tile)
        return np.indices((n, n)).sum(axis=0) % 2

    def _render(self, size, tile, seed, textures=DENSE_TEXTURES):
        rng = RecordingRng(seed)
        layout = self._checkerboard(size, tile)
        image = _render_tiles(size, tile, layout, textures, self.JITTER, rng, 0.0)
        return image, rng.calls

    @staticmethod
    def _extents(size, tile):
        """Height (and width) of each row (and column) of tiles within the image."""
        return np.minimum(tile, size - np.arange(-(-size // tile)) * tile)

    @pytest.mark.parametrize("size,tile", GEOMETRIES)
    def test_three_rng_calls_whatever_the_tile_count(self, size, tile):
        image, calls = self._render(size, tile, seed=0)
        assert [name for name, _ in calls] == ["poisson", "integers", "random"]
        assert image.shape == (size, size, 3) and image.dtype == np.float32

    @pytest.mark.parametrize("size,tile", GEOMETRIES)
    def test_spot_count_per_tile_within_three_sigma(self, size, tile):
        layout = self._checkerboard(size, tile)
        area = np.outer(self._extents(size, tile), self._extents(size, tile))
        for k, tex in enumerate(DENSE_TEXTURES):
            drawn, expected = 0, 0.0
            for seed in range(20):
                _, calls = self._render(size, tile, seed)
                counts = calls[0][1]
                drawn += counts[layout == k].sum()
                expected += (tex.spot_density * area[layout == k]).sum()
            assert abs(drawn - expected) < 3 * np.sqrt(expected), (k, drawn, expected)

    @pytest.mark.parametrize("size,tile", GEOMETRIES)
    def test_spot_centres_lie_in_their_tile(self, size, tile):
        extents = self._extents(size, tile)
        n = len(extents)
        _, calls = self._render(size, tile, seed=1)
        counts, (ys, xs) = calls[0][1], calls[1][1]
        rows, cols = np.divmod(np.repeat(np.arange(n * n), counts.reshape(-1)), n)
        assert len(ys) == counts.sum()
        assert (ys >= 0).all() and (ys < extents[rows]).all()
        assert (xs >= 0).all() and (xs < extents[cols]).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size,tile", GEOMETRIES)
    def test_pixels_stay_in_their_tile_and_noise_band(self, size, tile, seed):
        # without noise the same draws paint the same spots: each pixel is
        # its own tile's base or spot colour, never a neighbour's
        quiet = tuple(replace(tex, noise_amplitude=0.0) for tex in DENSE_TEXTURES)
        plain, _ = self._render(size, tile, seed, quiet)
        image, calls = self._render(size, tile, seed)
        layout = self._checkerboard(size, tile)
        classes = layout.repeat(tile, axis=0).repeat(tile, axis=1)[:size, :size]
        base = np.array([tex.base_color for tex in DENSE_TEXTURES], dtype=np.float32)[classes]
        spot = base * np.float32(0.5)
        is_base = (plain == base).all(axis=2)
        is_spot = (plain == spot).all(axis=2)
        assert (is_base | is_spot).all()
        for k in range(len(DENSE_TEXTURES)):
            assert is_spot[classes == k].any() and is_base[classes == k].any()
        amp = np.array([tex.noise_amplitude for tex in DENSE_TEXTURES])[classes] * self.JITTER
        colour = np.where(is_spot[:, :, None], spot, base)
        low = np.clip(colour - amp[:, :, None], 0.0, 1.0) - 1e-6
        high = np.clip(colour + amp[:, :, None], 0.0, 1.0) + 1e-6
        assert ((low <= image) & (image <= high)).all()
        # the noise of each pixel is (2 u - 1) amp, u its value of the one draw
        u = calls[2][1][:size, :size]
        expected = np.clip(colour + (2 * u - 1) * amp[:, :, None], 0.0, 1.0)
        np.testing.assert_allclose(image, expected, rtol=0, atol=1e-6)


def _field_digest(train, test) -> str:
    """sha256 of the labels, true mixtures, masks and group order of each split."""
    h = hashlib.sha256()
    for split, bags in (("train", train), ("test", test)):
        h.update(split.encode())
        for bag in bags:
            h.update(np.asarray([bag.group_id, *bag.labels], dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(bag.true_mixture, dtype=np.float32).tobytes())
            h.update(np.ascontiguousarray(bag.mask, dtype=np.uint8).tobytes())
    return h.hexdigest()


# _field_digest of the tests/test_synthgen_bytes.py cases, recorded with the
# per-tile renderer these streams replaced: only pixel values may change
FIELD_DIGESTS = {
    "het-32-tile5-seed0": "9b0c5ffdfca06881e2e739487057c628a7e8d2314f266766145e846eba336dde",
    "het-32-tile5-seed7": "0098378640fd76cbdcb9a5459f5de20d1e03ae49be2cb82192612f4ee0471977",
    "het-30-tile8-seed0": "d3634f9a5d9529fe0e6d8f73470f6cf8512a69c291687656d7071c890589b58c",
    "het-30-tile8-seed7": "55377c9bc1e5da36f6eefac39b8426792b63b779112511d88acb1bc0d4978999",
    "het-65-tile8-seed0": "e3ac5ed2bfdf7977741f383087f2ae5032a23f6c87c7e5995b1ca4f3f524eb22",
    "het-65-tile8-seed7": "315b58781438f1dc0ba5df932c95694f52d7f3bdca64b99c6f05506fad008924",
    "dense-32-tile5-seed0": "04314045a7983beffe639d0ebc5c32598e59b4a704d660f48cfc40c8cefa229e",
    "dense-32-tile5-seed7": "cdcd20a6461b9d5c13a15cc55fd3cf897bac074d09381dbd8c997994c0dd24bb",
    "dense-30-tile8-seed0": "98b3edce0a6fff564130dbb83cc97af408d75e68241bc5ae64707e4a602fc85a",
    "dense-30-tile8-seed7": "629f695356ca860ef21ffe61f192f47968e4600dcfbecac1f9ceb4262c9bbcea",
    "dense-65-tile5-seed0": "db30ee8195bcc2df8e6de6b6db24afef6df90173f1de9957bf42a05a9379fd61",
    "dense-65-tile5-seed7": "274dacea30e479a4e98a5d4abc62a519e6520c64a1646cf2c1dd3a91c79ac35e",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_everything_but_pixels_matches_the_per_tile_renderer(case, seed):
    family, image_size, tile_size = CASES[case]
    train, test, _ = generate_dataset(family(image_size, tile_size), seed=seed)
    assert _field_digest(train, test) == FIELD_DIGESTS[f"{case}-seed{seed}"]


class TestRecipeFamilies:
    def test_heterogeneous_counts_sum(self):
        pairs = heterogeneous_recipes(800)
        assert sum(c for _, c in pairs) == 800

    def test_homogeneous_family_is_pinned(self):
        pairs = recipe_family("homogeneous", 10, num_textures=3)
        assert [count for _, count in pairs] == [4, 3, 3]
        mixtures = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        assert [recipe for recipe, _ in pairs] == [
            BagRecipe(image_size=64, textures=DEFAULT_TEXTURES, mixture=mixture,
                      tasks=default_tasks(0.3), missing_prob=(), group_size=1, tile_size=8,
                      noise_jitter=(0.3, 2.2))
            for mixture in mixtures
        ]

    @pytest.mark.parametrize("kind", ["heterogeneous", "homogeneous"])
    def test_settings_reach_every_recipe(self, kind):
        settings = dict(image_size=20, num_textures=3, threshold=0.4, group_size=2,
                        missing_prob=0.25, tile_size=5, noise_jitter=(0.5, 1.5))
        pairs = recipe_family(kind, 30, **settings)
        assert sum(count for _, count in pairs) == 30
        for recipe, _ in pairs:
            assert (recipe.image_size, recipe.group_size, recipe.tile_size) == (20, 2, 5)
            assert recipe.textures == DEFAULT_TEXTURES
            assert recipe.tasks == default_tasks(0.4)
            assert recipe.missing_prob == (0.25, 0.25)
            assert recipe.noise_jitter == (0.5, 1.5)

    def test_mixtures_without_groups_are_left_out(self):
        assert [count for _, count in recipe_family("homogeneous", 2, num_textures=3)] == [1, 1]
        assert [count for _, count in heterogeneous_recipes(5)] == [1] * 5

    def test_recipe_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _recipe((0.5, 0.6))
        with pytest.raises(ValueError, match="length"):
            BagRecipe(64, DEFAULT_TEXTURES[:2], (1.0,), default_tasks(0.3))
        bad = [
            (lambda: heterogeneous_recipes(4, num_textures=1), "num_textures"),
            (lambda: heterogeneous_recipes(4, num_textures=4), "num_textures"),
            (lambda: recipe_family("homogeneous", 4, num_textures=1), "num_textures"),
            (lambda: BagRecipe(64, DEFAULT_TEXTURES[:1], (1.0,), default_tasks(0.3)),
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

    @pytest.mark.parametrize("jitter", [(0.3,), 0.3, (), (0.3, 1.0, 2.0)], ids=str)
    def test_noise_jitter_must_be_a_pair(self, jitter):
        # a config line "noise_jitter = 0.3" gives (0.3,), which once failed
        # to unpack instead of naming the setting
        with pytest.raises(ValueError, match="noise_jitter must be a finite pair"):
            _recipe((0.5, 0.5), noise_jitter=jitter)
        if isinstance(jitter, tuple):
            with pytest.raises(ValueError, match="noise_jitter must be a finite pair"):
                heterogeneous_recipes(4, noise_jitter=jitter)


def test_disk_mask_geometry():
    mask = disk_mask(64)
    assert mask.shape == (64, 64)
    assert 0.5 <= mask.mean() <= 0.85
    # centered: symmetric under half turn
    np.testing.assert_array_equal(mask, np.rot90(mask, 2))
