"""In-memory span tracer that wraps prefetchlab's public functions from outside.

The tracer replaces functions at module boundaries with wrappers while it is
installed and restores the originals afterwards; the program itself carries no
tracing code. Calls made per access or per op (autodiff ops, prefetcher
``predict``, token lookups) are aggregated into counters keyed by the
enclosing span instead of being kept as one span each.

A span is (id, parent id, name, start, end, thread id, attributes). Spans that
start on a worker thread with nothing open on that thread take the open stage
span as their parent, so a stage's children include its thread-pool work.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

AUTODIFF_OPS = ("matmul", "softmax", "layer_norm", "add", "mul", "concat",
                "reshape", "transpose", "relu", "sigmoid")
PREFETCHER_CLASSES = {"NextLinePrefetcher": "next_line", "StridePrefetcher": "stride",
                    "BestOffsetPrefetcher": "best_offset", "ModelPrefetcher": "model"}


def _records(args, result):
    return {"records": len(result)}


def _samples(args, result):
    return {"samples": len(result.train) + len(result.validation) + len(result.test)}


def _epochs(args, result):
    return {"epochs": len(result[1])}


def _batch(args, result):
    inputs = args[1]
    return {"batch": inputs.shape[0] if inputs.ndim == 3 else 1}


def _sim(args, result):
    pf = args[1]
    return {"prefetcher": "none" if pf is None else pf.name, "accesses": len(args[0])}


# (module, attribute, span name, attribute extractor)
SPAN_TARGETS = (
    ("prefetchlab.pipeline", "generate_trace", "trace.generate", None),
    ("prefetchlab.pipeline", "write_trace", "trace.write", None),
    ("prefetchlab.pipeline", "read_trace", "trace.read", _records),
    ("prefetchlab.pipeline", "build_datasets", "datasets.build", _samples),
    ("prefetchlab.datasets", "LabeledDataset.save", "datasets.save", None),
    ("prefetchlab.datasets", "LabeledDataset.load", "datasets.load", None),
    ("prefetchlab.datasets", "segment_blocks", "features.segment_blocks", None),
    ("prefetchlab.datasets", "normalize_segments", "features.normalize_segments", None),
    ("prefetchlab.datasets", "pc_context", "features.pc_context", None),
    ("prefetchlab.datasets", "label_bitmaps", "labeling.label_bitmaps", None),
    ("prefetchlab.pipeline", "train", "model.train", _epochs),
    ("prefetchlab.model", "forward", "model.forward", _batch),
    ("prefetchlab.model", "AdamOptimizer.step", "model.adam", None),
    ("prefetchlab.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("prefetchlab.pipeline", "predict", "model.predict_batched", None),
    ("prefetchlab.simulator", "model_predict", "model.predict_single", None),
    ("prefetchlab.pipeline", "tune_threshold", "throttle.tune", None),
    ("prefetchlab.pipeline", "simulate", "simulator.simulate", _sim),
)

# (module, attribute, counter name)
COUNTER_TARGETS = (
    ("prefetchlab.features", "TokenDictionary.lookup", "features.lookup"),
    *(("prefetchlab.autodiff", op, f"autodiff.{op}.fwd") for op in AUTODIFF_OPS),
    *(("prefetchlab.simulator", f"{cls}.predict", f"simulator.predict.{pf}")
      for cls, pf in PREFETCHER_CLASSES.items()),
)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    tid: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counters: list[dict] = []
        self._stage: int | None = None
        self._undo: list = []

    # -- recording ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counters(self) -> dict:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(counters)
        return counters

    def _parent(self, stack) -> int | None:
        return stack[-1] if stack else self._stage

    @contextmanager
    def stage(self, name: str):
        """Span for one pipeline stage; worker-thread roots attach to it."""
        sid = next(self._ids)
        self._stage = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(sid, None, f"stage.{name}", start,
                                   time.perf_counter(), threading.get_ident()))
            self._stage = None

    def _span_wrapper(self, fn, name, extract):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = extract(args, result) if extract is not None else {}
            tracer.spans.append(Span(sid, parent, name, start, end, threading.get_ident(), attrs))
            return result

        return wrapper

    def _counter_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                key = (name, tracer._parent(tracer._stack()))
                counters = tracer._counters()
                entry = counters.get(key)
                if entry is None:
                    counters[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return wrapper

    # -- installation -----------------------------------------------------------
    def _patch(self, module: str, path: str, make):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for module, path, name, extract in SPAN_TARGETS:
                self._patch(module, path, lambda fn, n=name, x=extract: self._span_wrapper(fn, n, x))
            for module, path, name in COUNTER_TARGETS:
                self._patch(module, path, lambda fn, n=name: self._counter_wrapper(fn, n))
            yield self
        finally:
            while self._undo:
                owner, attr, raw = self._undo.pop()
                setattr(owner, attr, raw)

    def counters(self) -> dict:
        """(counter name, parent span id) -> [calls, seconds], merged over threads."""
        merged: dict = {}
        with self._lock:
            for counters in self._thread_counters:
                for key, (calls, secs) in counters.items():
                    entry = merged.setdefault(key, [0, 0.0])
                    entry[0] += calls
                    entry[1] += secs
        return merged


# ---------------------------------------------------------------------------
# Deriving per-layer numbers from the spans
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SpanIndex:
    """Lookups over one traced run's spans and counters."""

    def __init__(self, spans: list[Span], counters: dict):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)
        self.counter_time_under: dict[int, float] = {}
        self.counter_totals: dict[str, list] = {}
        self.counter_by_parent_name: dict[tuple, float] = {}
        for (name, parent), (calls, secs) in counters.items():
            total = self.counter_totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += secs
            if parent is not None:
                self.counter_time_under[parent] = self.counter_time_under.get(parent, 0.0) + secs
                pname = self.by_id[parent].name if parent in self.by_id else None
                key = (name, pname)
                self.counter_by_parent_name[key] = self.counter_by_parent_name.get(key, 0.0) + secs

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.named(name))

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            p = self.by_id.get(parent)
            if p is None:
                return False
            if p.name == name:
                return True
            parent = p.parent
        return False

    def self_time(self, span: Span) -> float:
        """Duration minus the part its child spans and counted calls cover."""
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in self.children.get(span.sid, ())]
        covered = union_length([k for k in kids if k[1] > k[0]])
        return span.dur - covered - self.counter_time_under.get(span.sid, 0.0)

    def counter(self, name: str) -> tuple[int, float]:
        calls, secs = self.counter_totals.get(name, [0, 0.0])
        return calls, secs
