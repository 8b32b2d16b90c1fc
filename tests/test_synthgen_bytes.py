"""Byte-identity gate for the synthetic generator.

A change to how ``synthgen`` renders its images (vectorising the tile loop,
say) must leave every generated dataset unchanged to the byte. This file
pins the sha256 of the ``save_bags`` output for cases that reach every
rendering branch: edge tiles narrower than the tile size (sides 30, 32 and
65 with tiles of 5 and 8), three textures, permuted group layouts, missing
labels, spotless and wide spots, and spots dense enough to overlap and to
be clipped at tile edges.

The bytes depend on the streams of numpy's ``Generator`` (PCG64 with
``poisson``, ``integers`` and ``uniform``); recorded with numpy 2.4 on
x86-64. Regenerate them, at a commit whose generator is known good, only
when a change alters the generated data on purpose:

    PYTHONPATH=src python tests/test_synthgen_bytes.py
"""

import hashlib
import json
import pathlib

import pytest

from qmil.synthgen import (
    BagRecipe,
    TextureClass,
    default_tasks,
    generate_dataset,
    heterogeneous_recipes,
    save_bags,
)

FIXTURE = pathlib.Path(__file__).parent / "data" / "synthgen_bytes.json"

# spotless, and wide spots dense enough to overlap and hit the tile edges
DENSE_TEXTURES = (
    TextureClass(base_color=(0.9, 0.2, 0.4), spot_density=0.15, spot_radius=0,
                 noise_amplitude=0.05),
    TextureClass(base_color=(0.1, 0.7, 0.8), spot_density=0.2, spot_radius=2,
                 noise_amplitude=0.3),
)


def _heterogeneous(image_size, tile_size):
    return heterogeneous_recipes(6, image_size=image_size, num_textures=3, group_size=2,
                                 missing_prob=0.3, tile_size=tile_size)


def _dense(image_size, tile_size):
    recipe = BagRecipe(image_size=image_size, textures=DENSE_TEXTURES, mixture=(0.4, 0.6),
                       tasks=default_tasks(), missing_prob=(0.2, 0.2), group_size=2,
                       tile_size=tile_size, noise_jitter=(0.5, 1.5))
    return [(recipe, 3)]


CASES = {
    "het-32-tile5": (_heterogeneous, 32, 5),
    "het-30-tile8": (_heterogeneous, 30, 8),
    "het-65-tile8": (_heterogeneous, 65, 8),
    "dense-32-tile5": (_dense, 32, 5),
    "dense-30-tile8": (_dense, 30, 8),
    "dense-65-tile5": (_dense, 65, 5),
}
SEEDS = (0, 7)


def _digests(tmp_dir, case, seed):
    """sha256 of the train and test dataset files of one case."""
    family, image_size, tile_size = CASES[case]
    train, test, counts = generate_dataset(family(image_size, tile_size), seed=seed)
    out = {}
    for split, bags in (("train", train), ("test", test)):
        path = pathlib.Path(tmp_dir) / f"{split}.bags"
        save_bags(path, bags, counts)
        out[split] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_dataset_bytes_match_recorded(recorded, tmp_path, case, seed):
    assert _digests(tmp_path, case, seed) == recorded[f"{case}-seed{seed}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        values = {f"{case}-seed{seed}": _digests(tmp, case, seed)
                  for case in CASES for seed in SEEDS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {len(values)} cases to {FIXTURE}")
