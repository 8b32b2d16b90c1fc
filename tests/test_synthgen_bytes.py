"""Byte-identity gate for the synthetic generator.

A change to how ``synthgen`` renders its images or writes its dataset files
(a faster spot painter, say) must leave every generated dataset unchanged to
the byte. This file pins the sha256 of the ``save_bags`` output for cases
that reach every rendering branch: edge tiles narrower than the tile size
(sides 30, 32, 65 and 197 with tiles of 5 and 8), three textures, permuted group
layouts, missing labels, spotless and wide spots, and spots dense enough to
overlap and to be clipped at tile edges. The 197 px cases also run with two
worker threads forced, so the bytes that ``generate_dataset`` renders on its
pool of threads are pinned too.

The bytes depend on the streams of numpy's ``Generator`` (PCG64). Each
image makes three calls, whatever its tile count: one ``poisson`` over the
expected spot count of every tile, one ``integers`` with per-spot bounds for
every spot centre, and one float32 ``random`` for the whole image's noise
(see ``synthgen._render_tiles``). Recorded with numpy 2.4 on x86-64.

Record them, at a commit whose generator is known good, with

    PYTHONPATH=src python tests/test_synthgen_bytes.py

The script records only the cases the file does not hold yet and never
rewrites a recorded one. A change that alters the generated data on purpose
deletes the entries it invalidates first, then records them again.
"""

import hashlib
import json
import pathlib

import pytest

from qmil import pool
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
                       tasks=default_tasks(0.3), missing_prob=(0.2, 0.2), group_size=2,
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
# large images, whose groups generate_dataset may render on several threads;
# recorded after the per-tile renderer was gone, so kept out of CASES, which
# tests/test_synthgen.py checks against that renderer's digests
LARGE_CASES = {
    "het-197-tile8": (_heterogeneous, 197, 8),
    "dense-197-tile8": (_dense, 197, 8),
}
ALL_CASES = {**CASES, **LARGE_CASES}
SEEDS = (0, 7)


def _digests(tmp_dir, case, seed):
    """sha256 of the train and test dataset files of one case."""
    family, image_size, tile_size = ALL_CASES[case]
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
@pytest.mark.parametrize("case", list(ALL_CASES))
def test_dataset_bytes_match_recorded(recorded, tmp_path, case, seed):
    assert _digests(tmp_path, case, seed) == recorded[f"{case}-seed{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(LARGE_CASES))
def test_large_dataset_bytes_match_recorded_through_the_pool(recorded, tmp_path, monkeypatch,
                                                             case, seed):
    # the worker count depends on the environment's CPUs and BLAS threads
    monkeypatch.setattr(pool, "workers", lambda: 2)
    assert _digests(tmp_path, case, seed) == recorded[f"{case}-seed{seed}"]


if __name__ == "__main__":
    import tempfile

    values = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    missing = [(case, seed) for case in ALL_CASES for seed in SEEDS
               if f"{case}-seed{seed}" not in values]
    with tempfile.TemporaryDirectory() as tmp:
        for case, seed in missing:
            values[f"{case}-seed{seed}"] = _digests(tmp, case, seed)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"recorded {len(missing)} new cases in {FIXTURE}, kept {len(values) - len(missing)}")
