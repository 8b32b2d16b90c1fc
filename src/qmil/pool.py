"""The one thread policy of whole-image work: dataset generation and evaluation.

Work on large images runs its items (the groups generate_dataset renders,
the chunks of bags evaluate pools) on a pool of threads, where their numpy
calls release the interpreter lock. Each item reads only its own state and
shared read-only tables, so the results are those of a sequential pass, in
item order. threads() is the one rule for how many threads a run takes:
ordered_map runs on that many, and evaluate caps its chunks by it so that
every thread gets a chunk.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# items run on several threads only when each has at least this many
# pixels; smaller items hand off to the pool more often than a second core
# saves (measured from 96 to 256 px sides, evaluation and generation alike,
# 2-core x86-64)
PARALLEL_MIN_PIXELS = 160 * 160


def workers() -> int:
    """Threads that can run items at once without oversubscribing the cores.

    Usable CPUs divided by the BLAS threads the environment sets
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS; a value that is not a
    positive integer is skipped). With neither set, BLAS already runs on
    every core, so one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas_threads = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if blas_threads >= 1:
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:  # no affinity call outside Linux
                cpus = os.cpu_count() or 1
            return max(1, cpus // blas_threads)
    return 1


def threads(count: int, pixels: int) -> int:
    """Threads a run of count items takes, pixels its smallest item's pixel count.

    min(workers(), count) when pixels is at least PARALLEL_MIN_PIXELS,
    else 1.
    """
    return min(workers(), count) if pixels >= PARALLEL_MIN_PIXELS else 1


def ordered_map(fn, items, pixels: int) -> list:
    """[fn(item) for item in items], on threads(len(items), pixels) threads.

    items is a sequence, and pixels its smallest item's pixel count: below
    PARALLEL_MIN_PIXELS, or with one worker, the items run on the calling
    thread. Either way the results come in item order, the first failure in
    item order is raised, and no thread outlives the call.
    """
    count = threads(len(items), pixels)
    if count <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(count) as executor:
        # map yields in item order and cancels what is queued once an item fails
        return list(executor.map(fn, items))
