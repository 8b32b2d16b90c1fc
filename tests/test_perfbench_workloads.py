"""The benchmark's workloads still run on the package's call surface.

perfbench/workloads.py drives the public qmil API the CLI uses (init_state,
train, evaluate, save_bags, load_bags, FcnModel). A change to one of those
signatures would otherwise fail only when the benchmark runs; this test runs
every workload once, untraced, at the sizes of perfbench/selftest.py, and
writes its dataset files under a temporary directory.
"""

import dataclasses
import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The workloads module and the selftest's tiny size overrides, imported as the
    benchmark imports them: with perfbench/ on sys.path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        tiny = importlib.import_module("selftest").TINY
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, tiny


@pytest.mark.parametrize("name", ["train_crop16_quantile", "train_full64_mean",
                                  "eval_256_quantile"])
def test_workload_runs_and_reports_its_end_to_end_metrics(bench, tmp_path, name):
    workloads, tiny = bench
    w = dataclasses.replace(workloads.WORKLOADS[name], **tiny[name])
    metrics, checks, _ = workloads.run(w, 7, 0.1, False, str(tmp_path))
    assert checks.failed == 0, checks.messages
    assert set(metrics) == {"setup_s", "wall_ref", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())
