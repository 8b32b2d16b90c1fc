"""The thread policy of whole-image work: the worker count, the ordered map,
and dataset generation on a pool of threads."""

import math
import os
import sys
import threading

import pytest

from qmil import pool, synthgen
from qmil.synthgen import generate_dataset, heterogeneous_recipes

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("env, expected", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "4"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "1.5"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({}, 1),
])
def test_workers_divide_the_usable_cpus_by_the_blas_threads(monkeypatch, env, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert pool.workers() == expected


def test_workers_count_every_cpu_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert pool.workers() == 2


def test_ordered_map_raises_the_first_failure_in_item_order(monkeypatch):
    monkeypatch.setattr(pool, "workers", lambda: 2)
    later_failed = threading.Event()

    def fn(item):
        if item == 2:  # fails first in time
            later_failed.set()
            raise ValueError("item 2")
        if item == 1:
            later_failed.wait(timeout=30)
            raise ValueError("item 1")
        return item

    threads_before = set(threading.enumerate())
    with pytest.raises(ValueError, match="^item 1$"):
        pool.ordered_map(fn, range(4), pool.PARALLEL_MIN_PIXELS)
    assert set(threading.enumerate()) == threads_before


def _recipes(image_size):
    return heterogeneous_recipes(8, image_size=image_size, group_size=2)


@pytest.fixture
def group_threads(monkeypatch):
    """Two workers forced (the count depends on the environment's CPUs and
    BLAS threads) and the threads that ran each generate_group call. Each
    pool thread's first group waits until two threads run one, since the pool
    starts a second thread only while the first is busy."""
    monkeypatch.setattr(pool, "workers", lambda: 2)
    ran_on = []
    started, waited = threading.Barrier(2, timeout=30), {threading.get_ident()}
    generate_group = synthgen.generate_group

    def spy(*args, **kwargs):
        thread = threading.get_ident()
        if thread not in waited:
            waited.add(thread)
            started.wait()
        ran_on.append(thread)
        return generate_group(*args, **kwargs)

    monkeypatch.setattr(synthgen, "generate_group", spy)
    return ran_on


def test_groups_of_large_images_run_on_the_pool(group_threads):
    side = math.isqrt(pool.PARALLEL_MIN_PIXELS - 1) + 1
    threads_before = set(threading.enumerate())
    generate_dataset(_recipes(side), seed=5)
    assert len(group_threads) == 8
    assert len(set(group_threads)) >= 2
    assert threading.get_ident() not in group_threads
    assert set(threading.enumerate()) == threads_before


def test_groups_of_small_images_run_on_the_calling_thread(group_threads):
    side = math.isqrt(pool.PARALLEL_MIN_PIXELS - 1)
    generate_dataset(_recipes(side), seed=5)
    assert group_threads == [threading.get_ident()] * 8


def _bag_bytes(bags):
    return [(bag.image.tobytes(), bag.mask.tobytes(), bag.labels, bag.group_id,
             bag.true_mixture.tobytes()) for bag in bags]


@pytest.mark.parametrize("workers", [2, 4])
def test_pooled_generation_matches_one_worker_byte_for_byte(monkeypatch, workers):
    # more threads than cores, switching often, and the shared lazily filled
    # tables empty, so the threads fill them while others read them
    recipes = _recipes(math.isqrt(pool.PARALLEL_MIN_PIXELS - 1) + 1)
    monkeypatch.setattr(pool, "workers", lambda: workers)
    synthgen._texture_table.cache_clear()
    synthgen._disk_floor.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = generate_dataset(recipes, seed=9)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(pool, "workers", lambda: 1)
    sequential = generate_dataset(recipes, seed=9)
    assert pooled[2] == sequential[2]
    for got, want in zip(pooled[:2], sequential[:2], strict=True):
        assert got and _bag_bytes(got) == _bag_bytes(want)
