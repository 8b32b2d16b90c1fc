"""The benchmark's workloads: set-up, the timed cycles and the output checks.

Every workload drives the public qmil API the CLI uses. Set-up (dataset
generation, init_state and one warm-up pass) runs several times and is
reported as a median. The timed phase then repeats one deterministic cycle,
the unit of work a user of the experiment waits for, until the time budget
is spent; each cycle is bracketed by a fixed reference work (see Reference). With tracing on, untraced and traced cycles alternate, so
the per-layer numbers and the tracing overhead come from the same run.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from qmil import augment, layers, synthgen, trainer

import tracer as tracing

# Set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# are spent, so that a short set-up still gets a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPEATS = 15
PROB_SUM_TOL = 1e-4
_HEAD_STREAM_TAG = 0x4EAD


@dataclass(frozen=True)
class Workload:
    name: str
    image_size: int
    num_groups: int
    group_size: int
    aggregator: str
    crop_size: int  # 0: evaluation only, no training
    epochs: int  # per cycle
    reference_iterations: int  # about 0.2 s of reference work on a 2-core sandbox

    @property
    def side(self) -> int:
        """Side of the images the model sees: the crop, or the whole image."""
        return self.crop_size or self.image_size


WORKLOADS = {
    w.name: w
    for w in (
        # Many tiny SGD steps: per-step Python work (crop sampling, mask
        # downscaling, quantile pooling, SGD) outweighs the convs.
        Workload("train_crop16_quantile", image_size=64, num_groups=200, group_size=1,
                 aggregator="quantile", crop_size=16, epochs=2, reference_iterations=500),
        # Whole 64 px images with mean pooling: conv-heavy steps that never
        # sample a crop or run quantile pooling.
        Workload("train_full64_mean", image_size=64, num_groups=800, group_size=1,
                 aggregator="mean", crop_size=64, epochs=4, reference_iterations=150),
        # Forward-only evaluation of 256 px bags read back from a dataset
        # file: tensor I/O and pooling over ~3000 instances per bag.
        Workload("eval_256_quantile", image_size=256, num_groups=50, group_size=2,
                 aggregator="quantile", crop_size=0, epochs=0, reference_iterations=60),
    )
}

# End-to-end metrics the benchmark gates on; every workload reports them.
# wall_ref is the cycle's wall time over the time of the reference work
# that brackets it (see Reference).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ratio",
    "peak_rss_mb": "MB",
}
# Printed by the workloads they apply to, not gated.
REPORT_UNITS = {
    "wall_s": "s",
    "ref_s": "s",
    "eval_bags_per_s": "bags/s",
    "train_crops_per_s": "crops/s",
    "load_mb_per_s": "MB/s",
    "acc_task0": "fraction",
    "acc_task1": "fraction",
    "final_loss": "nats",
    "error_rate": "fraction",
}


class _NoTrace:
    """Stands in for the tracer in untraced phases."""

    def span(self, _name):
        return nullcontext()


NO_TRACE = _NoTrace()


# --- digests and checks --------------------------------------------------


def sha256_of(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def dataset_digest(bags) -> str:
    def fields():
        for bag in bags:
            yield np.asarray([bag.group_id, *bag.labels], dtype=np.int64)
            yield bag.true_mixture
            yield bag.image
            yield bag.mask
    return sha256_of(fields())


def probs_digest(result) -> str:
    return sha256_of(p for bag in result.bag_probs for p in bag)


def loss_digest(history) -> str:
    return sha256_of([np.asarray(history, dtype=np.float64)])


def bags_equal(a, b) -> bool:
    return (
        a.group_id == b.group_id
        and tuple(a.labels) == tuple(b.labels)
        and a.image.dtype == b.image.dtype and np.array_equal(a.image, b.image)
        and a.mask.dtype == b.mask.dtype and np.array_equal(a.mask, b.mask)
        and np.array_equal(a.true_mixture, b.true_mixture)
    )


class Checks:
    """Counts attempted and failed operations and names each failed check.

    Operations are SGD steps, evaluated bags and bags read back from the
    dataset file.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.messages.append(what)

    def eval_result(self, result, num_bags: int) -> None:
        """Probability vectors sum to 1; accuracy matches the group predictions."""
        bad = sum(
            1 for bag in result.bag_probs
            if any(not np.isfinite(p).all() or abs(float(p.sum()) - 1.0) > PROB_SUM_TOL
                   for p in bag)
        )
        if len(result.bag_probs) != num_bags:
            self.fail(f"evaluate returned {len(result.bag_probs)} of {num_bags} bags")
        if bad:
            self.fail(f"{bad} bag probability vectors do not sum to 1", bad)
        for t, acc in enumerate(result.task_accuracies):
            labels = result.group_labels[:, t]
            known = labels != layers.MISSING
            total = int(known.sum())
            correct = int((result.group_preds[known, t] == labels[known]).sum())
            expect = correct / total if total else float("nan")
            if not (acc == expect or (math.isnan(acc) and math.isnan(expect))):
                self.fail(f"task {t} accuracy {acc} != {expect} from group predictions")


# --- set-up ------------------------------------------------------------------


@dataclass
class Prepared:
    cfg: trainer.TrainConfig
    task_class_counts: list
    train_bags: list
    eval_bags: list  # the test split, or every bag for evaluation workloads
    state: trainer.TrainState | None = None  # evaluation-only model
    path: str | None = None  # dataset file read back by each cycle

    def steps_per_epoch(self) -> int:
        return sum(
            augment.crop_count(self.cfg.crop_size, bag.image.shape[0])
            for bag in self.train_bags
        )


def setup(w: Workload, seed: int, path: str, tr) -> Prepared:
    """Everything before the first timed cycle, including the warm-up pass."""
    recipes = synthgen.heterogeneous_recipes(
        w.num_groups, image_size=w.image_size, group_size=w.group_size
    )
    with tr.span("synthgen.generate_dataset"):
        train_bags, test_bags, counts = synthgen.generate_dataset(recipes, seed)
    if w.crop_size:
        cfg = trainer.TrainConfig(crop_size=w.crop_size, epochs=w.epochs,
                                  aggregator=w.aggregator, seed=seed)
        warm = trainer.init_state(counts, cfg)
        trainer.train_epoch(warm, train_bags[:1], cfg)  # warm-up steps
        with tr.span(tracing.EVALUATE):
            trainer.evaluate(warm, test_bags, cfg)  # warm-up pass
        return Prepared(cfg, counts, train_bags, test_bags)
    bags = train_bags + test_bags
    with tr.span("synthgen.save_bags"):
        synthgen.save_bags(path, bags, counts)
    cfg = trainer.TrainConfig(aggregator=w.aggregator, seed=seed)
    state = trainer.init_state(counts, cfg)
    # A zero head makes every bag prediction uniform; seeded head weights make
    # the predictions, and their digest, depend on every layer below.
    rng = np.random.default_rng([seed, _HEAD_STREAM_TAG])
    for head in state.heads:
        head.weights[...] = rng.normal(0.0, 1.0, size=head.weights.shape)
    with tr.span(tracing.EVALUATE):
        trainer.evaluate(state, bags, cfg)  # warm-up pass
    return Prepared(cfg, counts, [], bags, state=state, path=path)


# --- reference work ------------------------------------------------------
#
# On a shared machine the speed of unchanged code drifts by up to 1.6x over
# minutes. Between the segments of every timed cycle runs a fixed piece of
# numpy work that uses no qmil code, and the gated timing divides each
# segment by it. The reference repeats the model's first two convs (strided
# tensordots with a relu; for training workloads also their backward pass,
# with the same slice-add scatter), a mask integral image and a stable
# argsort of one class column, at the side the workload feeds the model, so
# it slows down with the workload when neighbours contend for the core.


def _patches(x, k: int, stride: int):
    s0, s1, s2 = x.strides
    out = (x.shape[0] - k) // stride + 1
    return np.lib.stride_tricks.as_strided(
        x, shape=(out, out, k, k, x.shape[2]), strides=(stride * s0, stride * s1, s0, s1, s2)
    )


def _conv_backward(x, kernel, stride: int, grad_out):
    k = kernel.shape[0]
    n = grad_out.shape[0]
    grad_kernel = np.tensordot(_patches(x, k, stride), grad_out, axes=([0, 1], [0, 1]))
    grad_patches = np.tensordot(grad_out, kernel, axes=([2], [3]))
    grad_x = np.zeros_like(x)
    for di in range(k):
        for dj in range(k):
            grad_x[di : di + stride * n : stride, dj : dj + stride * n : stride] += (
                grad_patches[:, :, di, dj]
            )
    return grad_x, grad_kernel


class Reference:
    def __init__(self, side: int, iterations: int, backward: bool):
        rng = np.random.default_rng(0)
        self.iterations = iterations
        self.backward = backward
        self.image = rng.random((side, side, 3), dtype=np.float32)
        self.kernels = (rng.random((5, 5, 3, 8), dtype=np.float32),
                        rng.random((3, 3, 8, 16), dtype=np.float32))
        self.mask = (rng.random((side, side)) < 0.7).astype(np.uint8)
        grid = ((side - 5) // 2 + 1 - 3) // 2 + 1
        self.column = rng.random(grid * grid, dtype=np.float32)

    def seconds(self) -> float:
        side = self.mask.shape[0]
        k0, k1 = self.kernels
        total = 0.0
        t = perf_counter()
        for _ in range(self.iterations):
            pre = np.tensordot(_patches(self.image, 5, 2), k0, axes=3)
            hidden = np.maximum(pre, 0)
            out = np.tensordot(_patches(hidden, 3, 2), k1, axes=3)
            if self.backward:
                grad_hidden, _ = _conv_backward(hidden, k1, 2, out)
                grad_x, _ = _conv_backward(self.image, k0, 2, grad_hidden * (pre > 0))
                total += float(grad_x[0, 0, 0])
            padded = np.zeros((side + 1, side + 1), dtype=np.int64)
            np.cumsum(np.cumsum(self.mask, axis=0), axis=1, out=padded[1:, 1:])
            order = np.argsort(self.column, kind="stable")
            total += float(out[0, 0, 0]) + int(padded[-1, -1]) + int(order[0])
        elapsed = perf_counter() - t
        if not np.isfinite(total):
            raise FloatingPointError("reference work produced non-finite values")
        return elapsed


# --- timed cycles --------------------------------------------------------


class Clock:
    """Times the segments of a cycle, with the reference work between them.

    Each segment (an epoch, an evaluate pass, a load plus a pass) is divided
    by the mean time of the reference runs just before and just after it.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.ref_before = reference.seconds()
        self.tr = NO_TRACE
        self.segments = []
        self.start = 0.0

    def begin(self, tr) -> None:
        self.tr, self.segments, self.start = tr, [], perf_counter()

    def lap(self) -> float:
        seconds = perf_counter() - self.start
        with self.tr.span("bench.reference"):
            ref = self.reference.seconds()
        self.segments.append((seconds, (self.ref_before + ref) / 2))
        self.ref_before = ref
        self.start = perf_counter()
        return seconds


@dataclass
class Cycle:
    segments: list  # (seconds, reference seconds) per segment
    eval_s: float
    epoch_s: list
    load_s: float
    result: trainer.EvalResult
    loss_history: list
    loaded: list  # bags read back from the dataset file

    @property
    def wall_s(self) -> float:
        return sum(s for s, _ in self.segments)

    @property
    def wall_ref(self) -> float:
        return sum(s / ref for s, ref in self.segments)


def run_cycle(w: Workload, p: Prepared, tr, clock: Clock) -> Cycle:
    """One cycle: training plus an evaluate pass, or a load plus a pass."""
    clock.begin(tr)
    epoch_s, load_s, history, loaded = [], 0.0, [], []
    if w.crop_size:
        state = trainer.init_state(p.task_class_counts, p.cfg)
        with tr.span("trainer.train"):
            trainer.train(state, p.train_bags, p.cfg,
                          log=lambda _msg: epoch_s.append(clock.lap()))
        history = list(state.loss_history)
        bags = p.eval_bags
    else:
        state = p.state
        t = perf_counter()
        with tr.span("synthgen.load_bags"):
            loaded, _ = synthgen.load_bags(p.path)
        load_s = perf_counter() - t
        bags = loaded
    t = perf_counter()
    with tr.span(tracing.EVALUATE):
        result = trainer.evaluate(state, bags, p.cfg)
    eval_s = perf_counter() - t
    clock.lap()
    return Cycle(clock.segments, eval_s, epoch_s, load_s, result, history, loaded)


def check_cycle(w: Workload, p: Prepared, c: Cycle, checks: Checks, first) -> None:
    """Output checks of one cycle; first is the first cycle that completed."""
    n = len(p.eval_bags)
    checks.attempted += n
    checks.eval_result(c.result, n)
    if w.crop_size:
        steps = w.epochs * p.steps_per_epoch()
        checks.attempted += steps
        if len(c.loss_history) != w.epochs or not all(map(math.isfinite, c.loss_history)):
            checks.fail("missing or non-finite epoch loss", steps)
        elif first is not None and c.loss_history != first.loss_history:
            checks.fail("loss history differs between identical cycles")
    else:
        checks.attempted += n
        bad = n - sum(bags_equal(a, b) for a, b in zip(p.eval_bags, c.loaded))
        if bad:
            checks.fail(f"{bad} bags differ after save_bags/load_bags", bad)
    if first is not None and probs_digest(c.result) != probs_digest(first.result):
        checks.fail("bag probabilities differ between identical cycles")


def planned_ops(w: Workload, p: Prepared) -> int:
    n = len(p.eval_bags)
    return n + (w.epochs * p.steps_per_epoch() if w.crop_size else n)


# --- the run -------------------------------------------------------------


@contextmanager
def _traced(tr, root: str, conv_index: dict):
    """Install the layer wrappers for one phase, under a root span."""
    tracing.install(tr, conv_index)
    try:
        with tr.span(root):
            yield tr
    finally:
        tr.uninstall()


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: str):
    """Run one workload; returns (metrics {name: (value, unit)}, checks, report lines)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{w.name}-seed{seed}-{os.getpid()}.bags")
    tr = tracing.Tracer() if trace else None
    conv_index = {
        layer.kernel.shape: i for i, layer in enumerate(layers.FcnModel([2, 2]).layers)
    }
    checks = Checks()
    setup_s, digests, plain, traced = [], [], [], []
    try:
        while len(setup_s) < SETUP_MAX_REPEATS and (
            len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS
        ):
            prepared = None  # release the previous repeat's dataset first
            # the second repeat is traced: the first pays one-off warm-up costs
            phase = (_traced(tr, "bench.setup", conv_index)
                     if tr is not None and len(setup_s) == 1 else nullcontext(NO_TRACE))
            t = perf_counter()
            with phase as spans:
                prepared = setup(w, seed, path, spans)
            setup_s.append(perf_counter() - t)
            digests.append(dataset_digest(prepared.train_bags + prepared.eval_bags))
        if len(set(digests)) != 1:
            checks.fail("dataset differs between identical set-ups")
        file_digest = file_mb = None
        if prepared.path:
            with open(prepared.path, "rb") as fh:
                data = fh.read()
            file_digest, file_mb = hashlib.sha256(data).hexdigest(), len(data) / 1e6
            del data

        first, done = None, 0
        start = perf_counter()
        clock = Clock(Reference(w.side, w.reference_iterations, backward=bool(w.crop_size)))
        while True:
            use_trace = tr is not None and len(plain) > len(traced)
            phase = (_traced(tr, "bench.cycle", conv_index)
                     if use_trace else nullcontext(NO_TRACE))
            try:
                with phase as spans:
                    cycle = run_cycle(w, prepared, spans, clock)
            except Exception:  # a failed cycle is counted and the run goes on
                traceback.print_exc()
                checks.attempted += planned_ops(w, prepared)
                checks.fail("cycle raised", planned_ops(w, prepared))
            else:
                check_cycle(w, prepared, cycle, checks, first)
                cycle.loaded = []
                if first is None:
                    first = cycle
                else:
                    cycle.result = None  # identical to first.result, checked above
                (traced if use_trace else plain).append(cycle)
            done += 1
            elapsed = perf_counter() - start
            complete = plain and (tr is None or traced)
            if (complete and elapsed + elapsed / done > seconds) or (
                checks.failed and elapsed > seconds
            ):
                break
    finally:
        if os.path.exists(path):
            os.remove(path)

    if not plain or (tr is not None and not traced):
        return {}, checks, ["no complete cycle"]
    values = _values(w, prepared, setup_s, plain, first, checks, file_mb)
    lines = [f"{k} {values[k]:.6g} {u}"
             for k, u in {**END_TO_END_UNITS, **REPORT_UNITS}.items() if k in values]
    lines.append(f"cycles {len(plain)} untraced, {len(traced)} traced")
    lines.append(f"digest dataset {digests[0]}")
    if file_digest:
        lines.append(f"digest dataset_file {file_digest}")
    if w.crop_size:
        lines.append(f"digest loss_history {loss_digest(first.loss_history)}")
    lines.append(f"digest bag_probs {probs_digest(first.result)}")
    if tr is None:
        return {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}, checks, lines

    overhead = (np.median([c.wall_ref for c in traced])
                / np.median([c.wall_ref for c in plain]) - 1.0)
    per_layer = tracing.per_layer_metrics(tr, float(overhead))
    trace_path = os.path.join(out_dir, f"trace-{w.name}-seed{seed}.jsonl")
    tr.write(trace_path)
    lines.append(f"trace {len(tr.spans)} spans written to {trace_path}")
    if tr.absent:
        lines.append("absent, reported as 0: " + ", ".join(tr.absent))
    units = tracing.per_layer_units()
    return {k: (per_layer[k], u) for k, u in units.items()}, checks, lines


def _values(w, p, setup_s, cycles, first, checks, file_mb) -> dict:
    n = len(p.eval_bags)
    values = {
        "setup_s": float(np.median(setup_s)),
        "wall_ref": float(np.median([c.wall_ref for c in cycles])),
        "wall_s": float(np.median([c.wall_s for c in cycles])),
        "ref_s": float(np.median([ref for c in cycles for _, ref in c.segments])),
        "eval_bags_per_s": float(np.median([n / c.eval_s for c in cycles])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_task0": float(first.result.task_accuracies[0]),
        "acc_task1": float(first.result.task_accuracies[1]),
        "error_rate": checks.failed / max(checks.attempted, 1),
    }
    if w.crop_size:
        steps = p.steps_per_epoch()
        values["train_crops_per_s"] = float(
            np.median([steps / s for c in cycles for s in c.epoch_s])
        )
        values["final_loss"] = float(first.loss_history[-1])
    else:
        values["load_mb_per_s"] = float(np.median([file_mb / c.load_s for c in cycles]))
    return values
