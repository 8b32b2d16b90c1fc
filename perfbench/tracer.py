"""Outside-in span tracing of the qmil layers.

The tracer replaces public functions at the module attributes their callers
look up (``qmil.trainer.sample_crop``, ``qmil.layers.conv2d_backward``, ...)
with timing wrappers, so nothing under ``src/`` changes. Spans are kept in
memory and written out once the run ends. Only the traced run installs the
wrappers; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

STEP = "trainer.step"
EPOCH = "trainer.train_epoch"
EVALUATE = "trainer.evaluate"


class Tracer:
    """In-memory span recorder: each span is [name, start_ns, end_ns, parent id]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._patches = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        """Close span sid and any span still open inside it.

        A span left open by an exception, or a synthetic step span, ends
        together with the span that encloses it.
        """
        now = perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == sid:
                break

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def open_span(self):
        """(id, name) of the innermost open span, or (-1, None)."""
        if not self._stack:
            return -1, None
        sid = self._stack[-1]
        return sid, self.spans[sid][0]

    def wrap(self, module, attr: str, name, *, before=None, after=None) -> None:
        """Time every call of module.attr as a span.

        name is a string or a function of the call's positional arguments.
        A missing attribute is recorded as absent instead of raising.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self.begin(fixed or name(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, out)
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent}
                ) + "\n")


def install(tracer: Tracer, conv_index: dict) -> None:
    """Wrap the layer functions of qmil that the bench measures.

    conv_index maps a conv kernel shape to its layer index. A step span runs
    from one extract_crop call to the next inside train_epoch, which makes
    exactly one such call per SGD step in both crop modes.
    """
    from qmil import aggregate, layers, synthgen, trainer

    def conv_hooks(kind, factor):
        # 2*kh*kw*c_in flops per output element; the backward pass computes
        # the kernel and the input gradient, twice the forward work
        names = {shape: f"layers.{kind}.L{i}" for shape, i in conv_index.items()}

        def name(args):
            return names.get(args[1].kernel.shape, f"layers.{kind}.L?")

        def after(args, out):
            kh, kw, c_in, _ = args[1].kernel.shape
            produced = out if factor == 1 else args[2]
            tracer.counts[name(args) + ".flop"] += 2 * factor * produced.size * kh * kw * c_in

        return name, after

    def step_boundary(_args):
        sid, name = tracer.open_span()
        if name == STEP:
            tracer.end(sid)
            sid, name = tracer.open_span()
        if name == EPOCH:
            tracer.begin(STEP)

    def count_fallback(_args, spec):
        tracer.counts["augment.sample_crop.fallback"] += bool(spec.fallback)

    def count_read(_args, arr):
        tracer.counts["tensor.read_tensor.bytes"] += arr.nbytes

    def count_write(args):
        tracer.counts["tensor.write_tensor.bytes"] += 4 * int(np.size(args[1]))

    def count_reach(args, out):
        fg = args[0].mask
        reached = out[0].any(axis=1) & fg
        tracer.counts["aggregate.grad_reach.reached"] += int(np.count_nonzero(reached))
        tracer.counts["aggregate.grad_reach.foreground"] += int(np.count_nonzero(fg))

    tracer.wrap(synthgen, "generate_group", "synthgen.generate_group")
    tracer.wrap(synthgen, "read_tensor", "tensor.read_tensor", after=count_read)
    tracer.wrap(synthgen, "write_tensor", "tensor.write_tensor", before=count_write)
    tracer.wrap(trainer, "sample_crop", "augment.sample_crop", after=count_fallback)
    tracer.wrap(trainer, "extract_crop", "augment.extract_crop", before=step_boundary)
    tracer.wrap(trainer, "apply_dihedral", "augment.apply_dihedral")
    for kind, factor in (("conv2d_forward", 1), ("conv2d_backward", 2)):
        name, after = conv_hooks(kind, factor)
        tracer.wrap(layers, kind, name, after=after)
    tracer.wrap(trainer, "instance_softmax", "layers.instance_softmax")
    tracer.wrap(trainer, "masked_cross_entropy", "layers.masked_cross_entropy")
    tracer.wrap(trainer, "sgd_step", "layers.sgd_step")
    tracer.wrap(trainer, "downscale_mask", "aggregate.downscale_mask")
    tracer.wrap(trainer, "aggregate_forward", "aggregate.aggregate_forward")
    tracer.wrap(trainer, "aggregate_backward", "aggregate.aggregate_backward",
                after=count_reach)
    tracer.wrap(aggregate, "quantile_pool", "aggregate.quantile_pool")
    tracer.wrap(trainer, "forward_bag", "trainer.forward_bag")
    tracer.wrap(trainer, "backward_bag", "trainer.backward_bag")
    tracer.wrap(trainer, "train_epoch", EPOCH)


# --- per-layer metrics ---------------------------------------------------

# (metric prefix, span name, parent span name or None for any, time unit,
# report p99). p99 is only meaningful with more than 1000 calls; ".calls"
# gives the sample count.
TIMED = (
    ("synthgen.generate_group", "synthgen.generate_group", None, "ms", False),
    ("augment.sample_crop", "augment.sample_crop", None, "us", True),
    ("augment.extract_crop", "augment.extract_crop", None, "us", False),
    ("augment.apply_dihedral", "augment.apply_dihedral", None, "us", False),
    *(
        (f"layers.{kind}.L{i}", f"layers.{kind}.L{i}", None, "us", False)
        for kind in ("conv2d_forward", "conv2d_backward")
        for i in range(3)
    ),
    ("layers.instance_softmax", "layers.instance_softmax", None, "us", False),
    ("layers.masked_cross_entropy", "layers.masked_cross_entropy", None, "us", False),
    ("layers.sgd_step", "layers.sgd_step", None, "us", False),
    ("aggregate.downscale_mask", "aggregate.downscale_mask", None, "us", False),
    ("aggregate.aggregate_forward", "aggregate.aggregate_forward", None, "us", False),
    ("aggregate.aggregate_backward", "aggregate.aggregate_backward", None, "us", False),
    ("aggregate.quantile_pool", "aggregate.quantile_pool", None, "us", False),
    ("trainer.forward_bag", "trainer.forward_bag", STEP, "us", True),
    ("trainer.backward_bag", "trainer.backward_bag", STEP, "us", True),
    ("trainer.step", STEP, None, "ms", True),
    ("trainer.evaluate.bag", "trainer.forward_bag", EVALUATE, "ms", True),
)

_NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _, _, unit, p99 in TIMED:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.p50_{unit}"] = unit
        if p99:
            units[f"{prefix}.p99_{unit}"] = unit
    units["trainer.step.self_p50_us"] = "us"
    for kind in ("conv2d_forward", "conv2d_backward"):
        for i in range(3):
            units[f"layers.{kind}.L{i}.gflops_computed"] = "GFLOP/s"
    units["augment.sample_crop.fallback_rate"] = "fraction"
    units["aggregate.grad_reach"] = "fraction"
    for op in ("read_tensor", "write_tensor"):
        units[f"tensor.{op}.calls"] = "count"
        units[f"tensor.{op}.s"] = "s"
        units[f"tensor.{op}.mb"] = "MB"
    units["trace.overhead_frac"] = "fraction"
    return units


def self_times(spans) -> list:
    """Per span: duration minus the durations of its direct children (ns)."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Reduce the recorded spans and counts to the per-layer metric values.

    A layer with no calls, or whose function no longer exists, reads 0.
    """
    spans = tracer.spans
    durations = defaultdict(list)
    for name, start, end, parent in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        durations[(name, parent_name)].append(end - start)
        durations[(name, None)].append(end - start)
    values = {}
    for prefix, name, parent, unit, p99 in TIMED:
        d = np.asarray(durations.get((name, parent), []), dtype=np.float64)
        values[f"{prefix}.calls"] = int(d.size)
        values[f"{prefix}.p50_{unit}"] = float(np.median(d)) / _NS_PER[unit] if d.size else 0.0
        if p99:
            values[f"{prefix}.p99_{unit}"] = (
                float(np.percentile(d, 99)) / _NS_PER[unit] if d.size else 0.0
            )
    selfs = self_times(spans)
    step_self = [selfs[i] for i, s in enumerate(spans) if s[0] == STEP]
    values["trainer.step.self_p50_us"] = float(np.median(step_self)) / 1e3 if step_self else 0.0
    for kind in ("conv2d_forward", "conv2d_backward"):
        for i in range(3):
            name = f"layers.{kind}.L{i}"
            busy_ns = sum(durations.get((name, None), []))
            flop = tracer.counts[name + ".flop"]
            values[f"{name}.gflops_computed"] = flop / busy_ns if busy_ns else 0.0
    crops = values["augment.sample_crop.calls"]
    values["augment.sample_crop.fallback_rate"] = (
        tracer.counts["augment.sample_crop.fallback"] / crops if crops else 0.0
    )
    fg = tracer.counts["aggregate.grad_reach.foreground"]
    values["aggregate.grad_reach"] = (
        tracer.counts["aggregate.grad_reach.reached"] / fg if fg else 0.0
    )
    for op, outer in (("read_tensor", "synthgen.load_bags"), ("write_tensor", "synthgen.save_bags")):
        calls = durations.get((f"tensor.{op}", outer), [])
        passes = max(1, len(durations.get((outer, None), [])))
        values[f"tensor.{op}.calls"] = len(calls)
        values[f"tensor.{op}.s"] = sum(calls) / 1e9 / passes
        values[f"tensor.{op}.mb"] = tracer.counts[f"tensor.{op}.bytes"] / 1e6 / passes
    values["trace.overhead_frac"] = overhead_frac
    return values
