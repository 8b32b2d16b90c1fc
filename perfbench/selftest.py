"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the run passes its
output checks, that the result holds exactly the metrics BENCHMARK.json
names with their units, and that the report prints every end-to-end metric
that applies. In the written trace every span must lie inside its parent
and no child self time may exceed its parent span. Finally the entry point
must refuse to run, without a result, where there are no qmil sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {
    "train_crop16_quantile": dict(num_groups=4, epochs=1),
    "train_full64_mean": dict(num_groups=4, epochs=1),
    "eval_256_quantile": dict(num_groups=2, image_size=96),
}


def check_trace(path: Path) -> None:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, "trace is empty"
    child = [0] * len(spans)
    for s in spans:
        assert s["end_ns"] >= s["start_ns"], f"span {s} ends before it starts"
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            assert p < s["id"], f"span {s} precedes its parent"
            assert parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"], (
                f"span {s} lies outside its parent {parent}"
            )
            child[p] += s["end_ns"] - s["start_ns"]
    for s, c in zip(spans, child):
        assert c <= s["end_ns"] - s["start_ns"], f"children of {s} exceed it"


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in Path(__file__).parent.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_crop16_quantile",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout, (
        f"run without sources exited {proc.returncode}: {proc.stdout!r}"
    )


def main() -> int:
    assert run.prepare_imports(), "no qmil sources in this checkout"
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name, w in workloads.WORKLOADS.items():
        tiny = dataclasses.replace(w, **TINY[name])
        for trace in (0, 1):
            metrics, checks, lines = workloads.run(tiny, 7, 0.1, bool(trace), str(run.OUT_DIR))
            assert checks.failed == 0, (name, checks.messages)
            units = {k: u for k, (_, u) in metrics.items()}
            assert units == expected[trace], (name, trace, set(units) ^ set(expected[trace]))
            assert all(isinstance(v, (int, float)) for v, _ in metrics.values())
            printed = {line.split()[0] for line in lines}
            applies = set(workloads.END_TO_END_UNITS) | {"acc_task0", "acc_task1", "error_rate"}
            applies |= {"train_crops_per_s", "final_loss"} if w.crop_size else {"load_mb_per_s"}
            assert applies <= printed, (name, applies - printed)
            if trace:
                check_trace(run.OUT_DIR / f"trace-{name}-seed7.jsonl")
            print(f"ok {name} trace={trace}")
    check_bare_directory()
    print("ok run.py refuses a directory without qmil sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
