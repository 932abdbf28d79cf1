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

Prefetchers implement ``observe`` (called on every demand access, in order) and
``predict`` (called only on triggers the throughput bound admits).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from prefetchlab.features import FeatureConfig, encode_contexts, encode_inputs, history_windows
from prefetchlab.labeling import LabelConfig, bitmap_to_deltas, index_to_delta, prefetch_addresses
from prefetchlab.model import ModelParams, predict as model_predict
from prefetchlab.trace import AddressConfig, MemoryAccess, block_address


@dataclass(frozen=True)
class CacheConfig:
    sets: int = 64
    ways: int = 16
    line_bytes: int = 64

    def __post_init__(self):
        if self.sets < 1 or self.ways < 1 or self.line_bytes < 1:
            raise ValueError(f"cache geometry must be positive: {self}")

    @property
    def capacity_bytes(self) -> int:
        return self.sets * self.ways * self.line_bytes


@dataclass(frozen=True)
class LatencyModel:
    """Inference latency in cycles plus the throughput bound.

    throughput "H": one inference per cycle (every admitted trigger predicts).
    throughput "L": one inference per latency window (triggers during an
    in-flight inference are dropped).
    """

    latency_cycles: int = 0
    throughput: str = "H"

    def __post_init__(self):
        if self.latency_cycles < 0:
            raise ValueError("latency must be >= 0 cycles")
        if self.throughput not in ("L", "H"):
            raise ValueError(f"throughput must be 'L' or 'H', got {self.throughput!r}")


@dataclass(frozen=True)
class PrefetchRequest:
    """One in-flight prefetch: insertable only once its issue cycle is reached."""

    block: int
    issue_cycle: int  # trigger cycle + modeled latency


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


class SetAssociativeCache:
    """LRU set-associative cache over block addresses, tracking prefetch tags."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        # per set: OrderedDict block -> unused-prefetch flag; LRU at the front
        self._sets = [OrderedDict() for _ in range(cfg.sets)]

    def _set_of(self, block: int) -> OrderedDict:
        return self._sets[block % self.cfg.sets]

    def contains(self, block: int) -> bool:
        return block in self._set_of(block)

    def access(self, block: int) -> tuple[bool, bool]:
        """Demand lookup. Returns (hit, hit cleared an unused prefetch tag)."""
        entries = self._set_of(block)
        if block in entries:
            was_unused = entries[block]
            entries[block] = False
            entries.move_to_end(block)
            return True, was_unused
        return False, False

    def insert(self, block: int, prefetched: bool) -> tuple[int, bool] | None:
        """Insert a block, evicting LRU if the set is full.

        Returns (evicted block, evictee was an unused prefetch) or None.
        """
        entries = self._set_of(block)
        evicted = None
        if len(entries) >= self.cfg.ways:
            old_block, old_flag = entries.popitem(last=False)
            evicted = (old_block, old_flag)
        entries[block] = prefetched
        return evicted

    def unused_prefetched_count(self) -> int:
        return sum(sum(1 for f in entries.values() if f) for entries in self._sets)


# ---------------------------------------------------------------------------
# Prefetchers
# ---------------------------------------------------------------------------


class Prefetcher:
    """Interface: observe every access, predict on admitted triggers."""

    name = "base"

    def reset(self):
        pass

    def observe(self, access: MemoryAccess, block: int):
        pass

    def predict(self, access: MemoryAccess, block: int) -> list[int] | None:
        """Blocks to prefetch, or None when no prediction is possible yet."""
        raise NotImplementedError


class NextLinePrefetcher(Prefetcher):
    """Blocks +1 .. +degree after every trigger."""

    name = "next_line"

    def __init__(self, degree: int = 1, addr_cfg: AddressConfig | None = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.addr_cfg = addr_cfg or AddressConfig()

    def predict(self, access, block):
        return sorted(prefetch_addresses(block, range(1, self.degree + 1), self.addr_cfg))


class StridePrefetcher(Prefetcher):
    """Per-PC last-address/stride table; issues once a stride repeats enough times."""

    name = "stride"

    def __init__(
        self,
        table_size: int = 256,
        confirm: int = 2,
        degree: int = 1,
        addr_cfg: AddressConfig | None = None,
    ):
        self.table_size = table_size
        self.confirm = confirm
        self.degree = degree
        self.addr_cfg = addr_cfg or AddressConfig()
        self._table: OrderedDict[int, list] = OrderedDict()  # pc -> [last, stride, count]

    def reset(self):
        self._table.clear()

    def observe(self, access, block):
        entry = self._table.get(access.pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.popitem(last=False)
            self._table[access.pc] = [block, 0, 0]
            return
        last, stride, count = entry
        delta = block - last
        if delta == stride and delta != 0:
            entry[2] = count + 1
        else:
            entry[1] = delta
            entry[2] = 1 if delta != 0 else 0
        entry[0] = block
        self._table.move_to_end(access.pc)

    def predict(self, access, block):
        entry = self._table.get(access.pc)
        if entry is None or entry[2] < self.confirm or entry[1] == 0:
            return []
        stride = entry[1]
        return sorted(
            prefetch_addresses(block, [stride * j for j in range(1, self.degree + 1)], self.addr_cfg)
        )


DEFAULT_OFFSETS = [d for k in range(1, 9) for d in (k, -k)] + [12, -12, 16, -16, 24, -24, 32, -32]


class BestOffsetPrefetcher(Prefetcher):
    """Offset prefetcher that scores candidate offsets against recent requests.

    One candidate offset is tested per access round-robin; a learning phase lasts
    ``round_length`` passes over the offset list, after which the best-scoring
    offset becomes active if its score clears the threshold. Ties prefer the
    smaller |offset| (timelier within the trigger's neighborhood).
    """

    name = "best_offset"

    def __init__(
        self,
        offsets: Sequence[int] | None = None,
        round_length: int = 4,
        score_threshold: int = 2,
        recent_size: int = 64,
        addr_cfg: AddressConfig | None = None,
    ):
        self.offsets = list(offsets) if offsets is not None else list(DEFAULT_OFFSETS)
        if not self.offsets or any(d == 0 for d in self.offsets):
            raise ValueError("offset list must be non-empty and exclude 0")
        self.round_length = round_length
        self.score_threshold = score_threshold
        self.recent_size = recent_size
        self.addr_cfg = addr_cfg or AddressConfig()
        self.reset()

    def reset(self):
        self._recent = deque()
        self._recent_set = set()
        self._scores = {d: 0 for d in self.offsets}
        self._cursor = 0
        self._rounds = 0
        self.active_offset: int | None = None

    def _push_recent(self, block):
        if block in self._recent_set:
            return
        self._recent.append(block)
        self._recent_set.add(block)
        if len(self._recent) > self.recent_size:
            self._recent_set.discard(self._recent.popleft())

    def observe(self, access, block):
        candidate = self.offsets[self._cursor]
        if (block - candidate) in self._recent_set:
            self._scores[candidate] += 1
        self._cursor += 1
        if self._cursor == len(self.offsets):
            self._cursor = 0
            self._rounds += 1
            if self._rounds >= self.round_length:
                best = max(self._scores.items(), key=lambda kv: (kv[1], -abs(kv[0])))
                self.active_offset = best[0] if best[1] >= self.score_threshold else None
                self._scores = {d: 0 for d in self.offsets}
                self._rounds = 0
        self._push_recent(block)

    def predict(self, access, block):
        if self.active_offset is None:
            return []
        return sorted(prefetch_addresses(block, [self.active_offset], self.addr_cfg))


class OraclePrefetcher(Prefetcher):
    """Fed the future: prefetches the blocks of the next ``window`` accesses."""

    name = "oracle"

    def __init__(self, trace: Sequence[MemoryAccess], addr_cfg: AddressConfig, window: int = 128):
        self.window = window
        self.addr_cfg = addr_cfg
        self._blocks = [block_address(a.vaddr, addr_cfg) for a in trace]

    def predict(self, access, block):
        start = access.ordinal + 1
        future = self._blocks[start: start + self.window]
        return sorted({b for b in future if b != block})


class ModelPrefetcher(Prefetcher):
    """Runs the attention predictor over a sliding history window.

    Binarizes confidences at ``threshold``, or, in top-k mode, issues exactly the
    k highest-confidence deltas. Returns None (cold start) until the history
    window has filled.
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
        self.cfg = params.cfg
        self.feature_cfg = feature_cfg
        self.label_cfg = label_cfg
        self.addr_cfg = addr_cfg
        self.threshold = threshold
        self.top_k = top_k
        self.dictionary = dictionary
        if feature_cfg.needs_dictionary and dictionary is None:
            raise ValueError(f"input mode {feature_cfg.mode!r} needs a token dictionary")
        self._warmup = feature_cfg.warmup(self.cfg.history_len)
        self._history: deque[tuple[int, int]] = deque(maxlen=self._warmup)  # (pc, block)
        # the window of the newest access, over the deque's oldest-first order
        self._window = history_windows(self._warmup - 1, self.cfg.history_len)

    def reset(self):
        self._history.clear()

    def observe(self, access, block):
        self._history.append((access.pc, block))

    def predict(self, access, block):
        if len(self._history) < self._warmup:
            return None
        pcs, blocks = np.array(self._history, dtype=np.uint64).T
        history = encode_inputs(blocks, self.feature_cfg, self.addr_cfg, self.dictionary)[self._window]
        context = encode_contexts(pcs, blocks, self._window, self.addr_cfg, self.feature_cfg.hash_bits)
        conf = model_predict(self.params, history, context if self.cfg.use_context else None)
        if self.top_k is not None:
            order = np.argsort(-conf, kind="stable")[: self.top_k]
            deltas = [index_to_delta(int(i), self.label_cfg.delta_bound) for i in order]
        else:
            deltas = sorted(bitmap_to_deltas(conf >= self.threshold, self.label_cfg))
        return sorted(prefetch_addresses(block, deltas, self.addr_cfg))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _count_baseline_misses(blocks, cfg: CacheConfig) -> int:
    cache = SetAssociativeCache(cfg)
    misses = 0
    for b in blocks:
        hit, _ = cache.access(b)
        if not hit:
            misses += 1
            cache.insert(b, prefetched=False)
    return misses


def simulate(
    trace: Sequence[MemoryAccess],
    prefetcher: Prefetcher | None,
    cache_cfg: CacheConfig,
    latency: LatencyModel,
    addr_cfg: AddressConfig,
    trigger_stream: str = "access",
    event_log: list | None = None,
    timeline_interval: int | None = None,
) -> SimReport | tuple[SimReport, list]:
    """Replay a trace through the LLC with a prefetcher in the loop.

    ``trigger_stream`` selects whether the prefetcher triggers on every demand
    access or only on demand misses. Prefetch insertions update LRU recency like
    demand insertions; duplicate requests to blocks already resident or already
    in flight are dropped without being counted as issued.

    When ``event_log`` is a list, per-step state transitions are appended as
    tuples (ordinal, kind, block, evicted_block_or_None) with kind one of
    demand_hit / demand_miss / prefetch_insert / prefetch_drop.

    When ``timeline_interval`` is set, returns (report, timeline) where timeline
    rows are (interval_end_ordinal, misses_in_interval, miss_rate).
    """
    if not trace:
        raise ValueError("trace is empty")
    if trigger_stream not in ("access", "miss"):
        raise ValueError(f"trigger_stream must be 'access' or 'miss', got {trigger_stream!r}")

    blocks = [block_address(a.vaddr, addr_cfg) for a in trace]
    baseline_misses = _count_baseline_misses(blocks, cache_cfg)

    cache = SetAssociativeCache(cache_cfg)
    if prefetcher is not None:
        prefetcher.reset()

    pending: deque[PrefetchRequest] = deque()  # issue cycles are non-decreasing
    pending_set: set[int] = set()
    busy_until = 0

    demand_misses = 0
    issued = useful = late = useless_evicted = dropped_on_arrival = 0
    dropped_triggers = cold_start = 0
    degree_hist: dict[int, int] = {}
    total_degree = 0
    timeline: list[tuple[int, int, float]] = []
    interval_misses = 0

    def log(ordinal, kind, block, evicted):
        if event_log is not None:
            event_log.append((ordinal, kind, block, evicted))

    for access, block in zip(trace, blocks):
        cycle = access.cycle

        # land prefetches whose latency has elapsed
        while pending and pending[0].issue_cycle <= cycle:
            pblock = pending.popleft().block
            pending_set.discard(pblock)
            if cache.contains(pblock):
                dropped_on_arrival += 1
                log(access.ordinal, "prefetch_drop", pblock, None)
                continue
            evicted = cache.insert(pblock, prefetched=True)
            if evicted is not None and evicted[1]:
                useless_evicted += 1
            log(access.ordinal, "prefetch_insert", pblock, None if evicted is None else evicted[0])

        hit, was_unused_prefetch = cache.access(block)
        if hit:
            if was_unused_prefetch:
                useful += 1
            log(access.ordinal, "demand_hit", block, None)
        else:
            demand_misses += 1
            interval_misses += 1
            if block in pending_set:
                late += 1
            evicted = cache.insert(block, prefetched=False)
            if evicted is not None and evicted[1]:
                useless_evicted += 1
            log(access.ordinal, "demand_miss", block, None if evicted is None else evicted[0])

        if timeline_interval is not None and (access.ordinal + 1) % timeline_interval == 0:
            timeline.append((access.ordinal + 1, interval_misses,
                             interval_misses / timeline_interval))
            interval_misses = 0

        if prefetcher is None:
            continue
        prefetcher.observe(access, block)
        if trigger_stream == "miss" and hit:
            continue
        if latency.throughput == "L" and cycle < busy_until:
            dropped_triggers += 1
            continue
        predictions = prefetcher.predict(access, block)
        if latency.throughput == "L":
            busy_until = cycle + latency.latency_cycles
        if predictions is None:
            cold_start += 1
            continue
        degree = len(predictions)
        degree_hist[degree] = degree_hist.get(degree, 0) + 1
        total_degree += degree
        ready = cycle + latency.latency_cycles
        for pblock in predictions:
            if cache.contains(pblock) or pblock in pending_set:
                continue
            if latency.latency_cycles == 0:
                # immediate insertion: no in-flight window exists
                issued += 1
                evicted = cache.insert(pblock, prefetched=True)
                if evicted is not None and evicted[1]:
                    useless_evicted += 1
                log(access.ordinal, "prefetch_insert", pblock, None if evicted is None else evicted[0])
            else:
                issued += 1
                pending.append(PrefetchRequest(pblock, ready))
                pending_set.add(pblock)

    resident_unused = cache.unused_prefetched_count()
    in_flight = len(pending)
    triggers_with_degree = sum(degree_hist.values())
    report = SimReport(
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
        mean_degree=(total_degree / triggers_with_degree) if triggers_with_degree else 0.0,
        degree_hist=degree_hist,
    )
    if timeline_interval is not None:
        return report, timeline
    return report
