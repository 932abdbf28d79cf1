"""Deterministic set-associative LLC simulator with a prefetch pipeline.

The simulator replays demand accesses in trace order against an LRU cache,
invokes a prefetcher at each trigger, and applies an inference latency model:
predictions become insertable only ``latency_cycles`` after their trigger, and
under the low-throughput bound triggers arriving while an inference is in
flight are dropped.

Accounting: a prefetched line is *useful* if a demand access hits it before
eviction. Every issued request ends in exactly one bucket -- useful, evicted
unused, still resident unused, dropped on arrival (its block got fetched some
other way first), or still in flight at the end of the run. A demand miss on a
block whose prefetch is still in flight is additionally tallied late.

Prefetchers implement two calls, both made by :func:`simulate`:

- ``prepare(trace, blocks)`` once per run, before the first access, with the
  whole :class:`~prefetchlab.trace.Trace` and its uint64 block column; it starts
  the prefetcher's state afresh. No prefetcher reads cache state, so each reads
  the whole trace here: the rule prefetchers keep one decision per access, and
  the model prefetcher encodes every trigger's window.
- ``predict(access, block)`` only on triggers the throughput bound admits; it
  indexes what ``prepare`` kept by ``access.ordinal``.
"""

from __future__ import annotations

import array
import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from prefetchlab.features import FeatureConfig, encode_windows
from prefetchlab.labeling import LabelConfig, index_to_delta
from prefetchlab.model import ModelParams, predict as model_predict
from prefetchlab.schema import config, field
from prefetchlab.trace import AddressConfig, MemoryAccess, Trace, as_trace, block_addresses, column_ints


@config
class CacheConfig:
    """An LRU set-associative LLC whose lines hold whole blocks of ``2 ** block_offset_bits`` bytes."""
    sets: int = field(64, ge=1)
    ways: int = field(16, ge=1)


@config
class LatencyModel:
    """Inference latency in cycles plus the throughput bound.

    throughput "H": one inference per cycle (every admitted trigger predicts).
    throughput "L": one inference per latency window (triggers during an
    in-flight inference are dropped).
    """

    latency_cycles: int = field(0, ge=0)
    throughput: str = field("H", one_of=("L", "H"))


@dataclass(frozen=True)
class SimReport:
    demand_accesses: int
    demand_misses: int
    baseline_misses: int
    prefetches_issued: int
    useful_prefetches: int
    late_prefetches: int
    useless_evicted: int
    resident_unused: int
    dropped_on_arrival: int
    in_flight_at_end: int
    dropped_triggers: int
    cold_start_triggers: int
    accuracy: float
    accuracy_defined: bool
    coverage: float
    mean_degree: float
    degree_hist: dict[int, int]

    def to_dict(self):
        d = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "degree_hist"}
        d["degree_hist"] = {str(k): v for k, v in sorted(self.degree_hist.items())}
        return d


# ---------------------------------------------------------------------------
# Prefetchers
# ---------------------------------------------------------------------------


class Prefetcher:
    """Interface: prepare once per trace, then predict on admitted triggers."""

    name = "base"

    def prepare(self, trace: Trace, blocks: np.ndarray):
        """Start afresh, once per simulation, on the whole trace and its uint64 block column."""

    def predict(self, access: MemoryAccess, block: int) -> list[int] | None:
        """Blocks to prefetch at the trigger ``access``, or None when no prediction is possible yet."""
        raise NotImplementedError

    def _unprepared(self) -> RuntimeError:
        return RuntimeError(f"{type(self).__name__}.predict needs prepare(trace, blocks) first; "
                            "simulate() calls it")

    def _step(self, block: int, step: int) -> list[int]:
        """``[block + step]`` for a nonzero step that lands in the block space, else ``[]``."""
        target = block + step
        return [target] if step and 0 <= target < self.addr_cfg.block_space else []


class NextLinePrefetcher(Prefetcher):
    """Blocks +1 .. +degree after every trigger."""

    name = "next_line"

    def __init__(self, degree: int = 1, addr_cfg: AddressConfig | None = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.addr_cfg = addr_cfg or AddressConfig()

    def predict(self, access, block):
        stop = min(block + self.degree, self.addr_cfg.block_space - 1)
        return list(range(block + 1, stop + 1))


class StridePrefetcher(Prefetcher):
    """Per-PC last-address/stride table of ``TABLE_SIZE`` entries; once a PC repeats
    one stride ``CONFIRM`` times, each of its accesses predicts one block, a stride ahead.

    ``prepare`` replays the table over the trace, in order, and keeps each access's
    confirmed stride (0 for none) as it stands after that access.
    """

    name = "stride"
    TABLE_SIZE = 256  # PCs tracked; a new PC drops the least recently seen
    CONFIRM = 2  # repeats of a stride before it predicts

    def __init__(self, addr_cfg: AddressConfig | None = None):
        self.addr_cfg = addr_cfg or AddressConfig()
        self._strides = None

    def prepare(self, trace, blocks):
        table = {}  # pc -> (last block, stride, count), least recently used first
        strides = self._strides = array.array("q")
        for pc, block in zip(column_ints(trace.pc), column_ints(blocks)):
            if pc in table:
                last, stride, count = table.pop(pc)
                delta = block - last
                stride, count = (stride, count + 1) if delta == stride != 0 else (delta, int(delta != 0))
            else:
                if len(table) >= self.TABLE_SIZE:
                    del table[next(iter(table))]
                stride = count = 0
            table[pc] = block, stride, count
            # confirmed twice, a stride s spans blocks b, b+s, b+2s of [0, 2**64): |s| < 2**63 fits int64
            strides.append(stride if count >= self.CONFIRM else 0)

    def predict(self, access, block):
        if self._strides is None:
            raise self._unprepared()
        return self._step(block, self._strides[access.ordinal])


class BestOffsetPrefetcher(Prefetcher):
    """Offset prefetcher that scores candidate offsets against recent requests.

    One candidate offset of the fixed ``OFFSETS`` is tested per access round-robin;
    a learning phase lasts ``ROUND_LENGTH`` passes over the list, after which the
    best-scoring offset becomes active if its score reaches ``SCORE_THRESHOLD``. Ties
    prefer the smaller |offset| (timelier within the trigger's neighborhood).
    ``prepare`` runs the learning over the trace, in order, and keeps each access's
    active offset (0 for none) as it stands after that access.
    """

    name = "best_offset"
    OFFSETS = (*(d for k in range(1, 9) for d in (k, -k)), 12, -12, 16, -16, 24, -24, 32, -32)
    RECENT_SIZE = 64  # recent blocks an offset is scored against
    ROUND_LENGTH = 4  # passes over OFFSETS per learning phase
    SCORE_THRESHOLD = 2  # least score that makes a phase's best offset active

    def __init__(self, addr_cfg: AddressConfig | None = None):
        self.addr_cfg = addr_cfg or AddressConfig()
        self._offsets = None

    def prepare(self, trace, blocks):
        recent = {}  # the last RECENT_SIZE distinct blocks, oldest first
        scores, active = dict.fromkeys(self.OFFSETS, 0), 0
        phase = len(self.OFFSETS) * self.ROUND_LENGTH  # accesses per learning phase
        offsets = self._offsets = array.array("b")
        candidates = itertools.cycle(self.OFFSETS)  # one tested per access, round-robin
        for i, (candidate, block) in enumerate(zip(candidates, column_ints(blocks)), 1):
            if (block - candidate) in recent:
                scores[candidate] += 1
            if i % phase == 0:
                best, score = max(scores.items(), key=lambda kv: (kv[1], -abs(kv[0])))
                active = best if score >= self.SCORE_THRESHOLD else 0
                scores = dict.fromkeys(self.OFFSETS, 0)
            if block not in recent:
                recent[block] = None
                if len(recent) > self.RECENT_SIZE:
                    del recent[next(iter(recent))]
            offsets.append(active)

    def predict(self, access, block):
        if self._offsets is None:
            raise self._unprepared()
        return self._step(block, self._offsets[access.ordinal])


class OraclePrefetcher(Prefetcher):
    """Fed the future: prefetches the blocks of the next ``window`` accesses of the
    trace it was built from, indexed by the access's ordinal (its position in the
    replayed trace), so it must be replayed on that trace."""

    name = "oracle"

    def __init__(self, trace: Sequence[MemoryAccess], addr_cfg: AddressConfig, window: int = 128):
        self.window = window
        self._blocks = block_addresses(trace, addr_cfg).tolist()

    def predict(self, access, block):
        start = access.ordinal + 1
        future = self._blocks[start: start + self.window]
        return sorted({b for b in future if b != block})


class ModelPrefetcher(Prefetcher):
    """Runs the attention predictor over a sliding history window.

    Binarizes confidences at ``threshold``, or, in top-k mode, issues exactly the
    k highest-confidence deltas. Returns None (cold start) until the history
    window has filled.

    ``prepare`` encodes every trigger's window once, with the encoder the datasets
    use (:func:`~prefetchlab.features.encode_windows`), and ``predict`` asks
    ``model.predict`` for a batch of one: the window of the trigger at ``access.ordinal``.
    """

    name = "model"

    def __init__(
        self,
        params: ModelParams,
        feature_cfg: FeatureConfig,
        label_cfg: LabelConfig,
        addr_cfg: AddressConfig,
        threshold: float | None = None,
        top_k: int | None = None,
        dictionary=None,
    ):
        if (threshold is None) == (top_k is None):
            raise ValueError("set exactly one of threshold / top_k")
        if threshold is not None and not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        self.params = params
        self.feature_cfg = feature_cfg
        self.label_cfg = label_cfg
        self.addr_cfg = addr_cfg
        self.threshold = threshold
        self.top_k = top_k
        self.dictionary = dictionary
        if feature_cfg.needs_dictionary and dictionary is None:
            raise ValueError(f"input mode {feature_cfg.mode!r} needs a token dictionary")
        self._warmup = feature_cfg.warmup(params.cfg.history_len)
        self._inputs = self._contexts = None  # one window per trigger from warmup - 1 on
        self._deltas = np.array([index_to_delta(i, label_cfg.delta_bound)  # bit -> delta
                                 for i in range(label_cfg.bitmap_size)])

    def prepare(self, trace, blocks):
        self._inputs, self._contexts = encode_windows(trace.pc, blocks, self.feature_cfg, self.addr_cfg,
                                                      self.dictionary, self.params.cfg.history_len)

    def predict(self, access, block):
        if self._inputs is None:
            raise self._unprepared()
        window = access.ordinal - (self._warmup - 1)
        if window < 0:
            return None
        rows = slice(window, window + 1)  # a batch of one
        conf = model_predict(self.params, self._inputs[rows], self._contexts[rows])[0]
        if self.top_k is not None:
            chosen = np.sort(np.argsort(-conf, kind="stable")[: self.top_k])
        else:
            chosen = np.flatnonzero(conf >= self.threshold)
        deltas = self._deltas[chosen]  # ascending: the bit layout orders deltas by index
        # the bounds stay Python ints, so a block near 2**64 never enters int64 arithmetic
        bound = self.label_cfg.delta_bound
        lo, hi = max(-block, -bound), min(self.addr_cfg.block_space - block, bound + 1)
        return [block + d for d in deltas[(deltas >= lo) & (deltas < hi)].tolist()]


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _baseline_misses(cfg: CacheConfig, block_bytes: bytes) -> int:
    """Demand misses with no prefetcher. Memoized on the blocks' bytes, so the
    repeated simulations of one trace and cache (one per prefetcher, one per
    distinct sweep point) replay the baseline once; a hit is an exact content match."""
    nsets, ways = cfg.sets, cfg.ways
    sets = [{} for _ in range(nsets)]  # the LRU idiom of simulate, without prefetch flags
    misses = 0
    for b in column_ints(np.frombuffer(block_bytes, dtype=np.uint64)):
        entries = sets[b % nsets]
        if b in entries:
            del entries[b]
        else:
            misses += 1
            if len(entries) >= ways:
                for lru in entries:
                    break
                del entries[lru]
        entries[b] = None
    return misses


def simulate(
    trace: Sequence[MemoryAccess],
    prefetcher: Prefetcher | None,
    cache_cfg: CacheConfig,
    latency: LatencyModel,
    addr_cfg: AddressConfig,
    trigger_stream: str = "access",
    event_log=None,
) -> SimReport:
    """Replay a trace through the LLC with a prefetcher in the loop.

    ``trigger_stream`` selects whether the prefetcher triggers on every demand
    access or only on demand misses. Prefetch insertions update LRU recency like
    demand insertions; duplicate requests to blocks already resident or already
    in flight are dropped without being counted as issued.

    When ``event_log`` is given (a list, or any object with ``append``), per-step
    state transitions are appended to it as tuples
    (ordinal, kind, block, evicted_block_or_None) with kind one of
    demand_hit / demand_miss / prefetch_insert / prefetch_drop;
    :class:`MissTimeline` is such a sink, counting per-interval misses. ``trace``
    goes through :func:`~prefetchlab.trace.as_trace` first, so an ordinal is the
    access's position in the trace passed in, and a bad record raises ``TraceError``.
    """
    if not trace:
        raise ValueError("trace is empty")
    if trigger_stream not in ("access", "miss"):
        raise ValueError(f"trigger_stream must be 'access' or 'miss', got {trigger_stream!r}")

    trace = as_trace(trace)
    block_array = block_addresses(trace, addr_cfg)
    baseline_misses = _baseline_misses(cache_cfg, block_array.tobytes())

    # The cache: one dict per set mapping block -> unused-prefetch flag, whose
    # insertion order is LRU order (least recent first). A hit pops and
    # re-inserts; an eviction takes the first key.
    nsets, ways = cache_cfg.sets, cache_cfg.ways
    sets = [{} for _ in range(nsets)]
    if prefetcher is not None:
        prefetcher.prepare(trace, block_array)
        predict = prefetcher.predict
    new_record = tuple.__new__  # builds a MemoryAccess without its Python-level __new__
    log = None if event_log is None else event_log.append
    latency_cycles = latency.latency_cycles
    low_throughput = latency.throughput == "L"
    miss_triggers = trigger_stream == "miss"

    pending: deque[tuple[int, int]] = deque()  # (block, ready cycle); ready cycles non-decreasing
    pending_set: set[int] = set()
    busy_until = 0

    demand_misses = 0
    issued = useful = late = useless_evicted = dropped_on_arrival = 0
    dropped_triggers = cold_start = 0
    degree_hist: dict[int, int] = {}

    columns = map(column_ints, (trace.cycle, trace.pc, trace.vaddr, block_array))
    for ordinal, cycle, pc, vaddr, block in zip(itertools.count(), *columns):

        # land prefetches whose latency has elapsed
        while pending and pending[0][1] <= cycle:
            pblock = pending.popleft()[0]
            pending_set.discard(pblock)
            entries = sets[pblock % nsets]
            if pblock in entries:
                dropped_on_arrival += 1
                if log is not None:
                    log((ordinal, "prefetch_drop", pblock, None))
                continue
            evicted = None
            if len(entries) >= ways:
                for evicted in entries:
                    break
                if entries.pop(evicted):
                    useless_evicted += 1
            entries[pblock] = True
            if log is not None:
                log((ordinal, "prefetch_insert", pblock, evicted))

        entries = sets[block % nsets]
        hit = block in entries
        if hit:
            if entries.pop(block):
                useful += 1
            entries[block] = False
            if log is not None:
                log((ordinal, "demand_hit", block, None))
        else:
            demand_misses += 1
            if block in pending_set:
                late += 1
            evicted = None
            if len(entries) >= ways:
                for evicted in entries:
                    break
                if entries.pop(evicted):
                    useless_evicted += 1
            entries[block] = False
            if log is not None:
                log((ordinal, "demand_miss", block, evicted))

        if prefetcher is None or (miss_triggers and hit):
            continue
        if low_throughput and cycle < busy_until:
            dropped_triggers += 1
            continue
        predictions = predict(new_record(MemoryAccess, (ordinal, cycle, pc, vaddr)), block)
        if low_throughput:
            busy_until = cycle + latency_cycles
        if predictions is None:
            cold_start += 1
            continue
        degree = len(predictions)
        degree_hist[degree] = degree_hist.get(degree, 0) + 1
        ready = cycle + latency_cycles
        for pblock in predictions:
            entries = sets[pblock % nsets]
            if pblock in entries or pblock in pending_set:
                continue
            issued += 1
            if latency_cycles == 0:
                # immediate insertion: no in-flight window exists
                evicted = None
                if len(entries) >= ways:
                    for evicted in entries:
                        break
                    if entries.pop(evicted):
                        useless_evicted += 1
                entries[pblock] = True
                if log is not None:
                    log((ordinal, "prefetch_insert", pblock, evicted))
            else:
                pending.append((pblock, ready))
                pending_set.add(pblock)

    resident_unused = sum(sum(entries.values()) for entries in sets)
    in_flight = len(pending)
    triggers_with_degree = sum(degree_hist.values())
    return SimReport(
        demand_accesses=len(trace),
        demand_misses=demand_misses,
        baseline_misses=baseline_misses,
        prefetches_issued=issued,
        useful_prefetches=useful,
        late_prefetches=late,
        useless_evicted=useless_evicted,
        resident_unused=resident_unused,
        dropped_on_arrival=dropped_on_arrival,
        in_flight_at_end=in_flight,
        dropped_triggers=dropped_triggers,
        cold_start_triggers=cold_start,
        accuracy=(useful / issued) if issued else 0.0,
        accuracy_defined=issued > 0,
        coverage=(useful / baseline_misses) if baseline_misses else 0.0,
        mean_degree=(sum(d * n for d, n in degree_hist.items()) / triggers_with_degree
                     if triggers_with_degree else 0.0),
        degree_hist=degree_hist,
    )


class MissTimeline:
    """An ``event_log`` sink that counts demand misses per interval as they arrive.

    ``rows()`` gives (interval_end_ordinal, misses_in_interval, miss_rate), one per
    full interval of an ``n_accesses``-long run; a trailing partial interval gets
    no row. Only the counters are kept, never the events.
    """

    def __init__(self, n_accesses: int, interval: int):
        self.interval = interval
        self._misses = [0] * (n_accesses // interval)

    def append(self, event):
        ordinal, kind, _, _ = event
        if kind == "demand_miss" and ordinal // self.interval < len(self._misses):
            self._misses[ordinal // self.interval] += 1

    def rows(self) -> list[tuple[int, int, float]]:
        return [((i + 1) * self.interval, m, m / self.interval) for i, m in enumerate(self._misses)]
