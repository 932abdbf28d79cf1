import hashlib
import itertools
import json
from collections import OrderedDict, deque

import numpy as np
import pytest

from prefetchlab import features, simulator
from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig, bitmap_to_deltas, index_to_delta, prefetch_addresses
from prefetchlab.model import ModelConfig, ModelParams
from prefetchlab.simulator import (
    BestOffsetPrefetcher,
    CacheConfig,
    LatencyModel,
    ModelPrefetcher,
    NextLinePrefetcher,
    OraclePrefetcher,
    Prefetcher,
    SimReport,
    MissTimeline,
    StridePrefetcher,
    simulate,
)
from prefetchlab.trace import (
    AddressConfig, MemoryAccess, Trace, as_trace, block_addresses, generate_trace, split_trace
)
from tests.conftest import make_trace


class ScriptedPrefetcher(Prefetcher):
    """Issues a fixed list of blocks at chosen trigger ordinals."""

    def __init__(self, script: dict[int, list[int]]):
        self.script = script

    def predict(self, access, block):
        return self.script.get(access.ordinal, [])


def assert_conservation(report: SimReport):
    sinks = (report.useful_prefetches + report.useless_evicted + report.resident_unused
             + report.dropped_on_arrival + report.in_flight_at_end)
    assert sinks == report.prefetches_issued


class TestHandScenario:
    """Five accesses on a 2-set/1-way cache with one scripted prefetch.

    blocks [0, 2, 0, 5, 3]; block 5 is prefetched at the first trigger.
    Hand-simulated expected state, step by step:
      acc 0: block 0 (set 0) miss, insert;  prefetch 5 (set 1) inserted
      acc 1: block 2 (set 0) miss, evicts 0
      acc 2: block 0 (set 0) miss, evicts 2
      acc 3: block 5 (set 1) HIT on the unused prefetch -> useful
      acc 4: block 3 (set 1) miss, evicts 5 (already used: not useless)
    """

    BLOCKS = [0, 2, 0, 5, 3]
    EXPECTED_EVENTS = [
        (0, "demand_miss", 0, None),
        (0, "prefetch_insert", 5, None),
        (1, "demand_miss", 2, 0),
        (2, "demand_miss", 0, 2),
        (3, "demand_hit", 5, None),
        (4, "demand_miss", 3, 5),
    ]

    def run(self):
        trace = make_trace(self.BLOCKS)
        events = []
        report = simulate(
            trace,
            ScriptedPrefetcher({0: [5]}),
            CacheConfig(sets=2, ways=1),
            LatencyModel(0, "H"),
            AddressConfig(),
            event_log=events,
        )
        return report, events

    def test_step_by_step_state(self):
        _, events = self.run()
        assert events == self.EXPECTED_EVENTS

    def test_counters(self):
        report, _ = self.run()
        assert report.prefetches_issued == 1
        assert report.useful_prefetches == 1
        assert report.accuracy == 1.0
        assert report.demand_misses == 4
        assert report.baseline_misses == 5  # without the prefetch, access 3 misses too
        assert report.coverage == pytest.approx(1 / 5)
        assert_conservation(report)


class TestSimulateBasics:
    def test_empty_trace_rejected(self, addr_cfg):
        with pytest.raises(ValueError):
            simulate([], None, CacheConfig(), LatencyModel(), addr_cfg)

    def test_no_prefetcher_run(self, addr_cfg):
        trace = make_trace(list(range(100)))
        report = simulate(trace, None, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg)
        assert report.prefetches_issued == 0
        assert not report.accuracy_defined
        assert report.accuracy == 0.0 and report.coverage == 0.0
        assert report.demand_misses == report.baseline_misses

    def test_determinism(self, addr_cfg):
        trace = generate_trace({"name": "random", "region_blocks": 512}, 2000, seed=5)
        r1 = simulate(trace, NextLinePrefetcher(2), CacheConfig(sets=8, ways=4),
                      LatencyModel(10, "L"), addr_cfg)
        r2 = simulate(trace, NextLinePrefetcher(2), CacheConfig(sets=8, ways=4),
                      LatencyModel(10, "L"), addr_cfg)
        assert r1 == r2

    def test_baseline_invariant_to_prefetcher(self, addr_cfg):
        trace = generate_trace({"name": "random", "region_blocks": 256}, 1000, seed=6)
        cache = CacheConfig(sets=8, ways=2)
        base = simulate(trace, None, cache, LatencyModel(), addr_cfg).demand_misses
        for pf in (NextLinePrefetcher(1), StridePrefetcher(), BestOffsetPrefetcher()):
            report = simulate(trace, pf, cache, LatencyModel(), addr_cfg)
            assert report.baseline_misses == base

    def test_baseline_counted_per_trace_content_and_cache(self, addr_cfg):
        # equal lengths, different blocks; 0 and 2 share a set in the 2-set cache
        blocks = {"spread": list(range(100)), "reuse": [0, 2] * 50}
        small, large = CacheConfig(sets=2, ways=1), CacheConfig(sets=4, ways=2)
        # consecutive calls change only the cache, or only the blocks, of one list object
        steps = [("reuse", small, 100), ("reuse", large, 2), ("spread", large, 100),
                 ("reuse", large, 2), ("reuse", small, 100)]
        trace = []
        for name, cache, want in steps:
            trace[:] = make_trace(blocks[name])
            report = simulate(trace, None, cache, LatencyModel(), addr_cfg)
            assert report.baseline_misses == report.demand_misses == want, (name, cache)

    def test_conservation_at_zero_latency(self, addr_cfg):
        trace = generate_trace({"name": "stride", "stride": 2}, 3000, seed=7)
        report = simulate(trace, NextLinePrefetcher(4), CacheConfig(sets=16, ways=4),
                          LatencyModel(0, "H"), addr_cfg)
        assert report.in_flight_at_end == 0 and report.dropped_on_arrival == 0
        assert (report.useful_prefetches + report.useless_evicted + report.resident_unused
                == report.prefetches_issued)

    def test_conservation_with_latency(self, addr_cfg):
        trace = generate_trace({"name": "random", "region_blocks": 600,
                                "cycle_step": 3}, 2500, seed=8)
        for t in (7, 60, 300):
            report = simulate(trace, NextLinePrefetcher(3), CacheConfig(sets=16, ways=4),
                              LatencyModel(t, "H"), addr_cfg)
            assert_conservation(report)
            assert report.prefetches_issued > 0

    def test_oracle_dominates_implemented_prefetchers(self, addr_cfg):
        # cache holds 256 lines, comfortably above the oracle's 64-access window,
        # so oracle-prefetched lines survive until their demand arrives
        trace = generate_trace({"name": "page_skip", "deltas": [1, 2, 91]}, 4000, seed=9)
        cache = CacheConfig(sets=32, ways=8)
        lat = LatencyModel(0, "H")
        oracle_cov = simulate(trace, OraclePrefetcher(trace, addr_cfg, window=64),
                              cache, lat, addr_cfg).coverage
        params = ModelParams.init(
            ModelConfig(hidden_dim=8, num_heads=2, num_layers=1, output_dim=64,
                        history_len=4, input_dim=10), seed=0)
        model_pf = ModelPrefetcher(params, FeatureConfig("as", 6), LabelConfig(32, 32),
                                   addr_cfg, threshold=0.9)
        for pf in (NextLinePrefetcher(2), StridePrefetcher(), BestOffsetPrefetcher(), model_pf):
            cov = simulate(trace, pf, cache, lat, addr_cfg).coverage
            assert cov <= oracle_cov + 1e-12

    def test_issued_monotone_under_low_throughput(self, addr_cfg):
        trace = generate_trace({"name": "stride", "stride": 1}, 4000, seed=10)
        issued = []
        for t in (0, 50, 100, 200):
            report = simulate(trace, NextLinePrefetcher(1), CacheConfig(sets=16, ways=4),
                              LatencyModel(t, "L"), addr_cfg)
            issued.append(report.prefetches_issued)
        assert all(b <= a for a, b in zip(issued, issued[1:]))

    def test_trigger_on_miss_only(self, addr_cfg):
        # two passes over a small set: second pass all hits -> no triggers
        blocks = list(range(16)) * 2
        trace = make_trace(blocks)
        report = simulate(trace, ScriptedPrefetcher({}), CacheConfig(sets=4, ways=4),
                          LatencyModel(), addr_cfg, trigger_stream="miss")
        assert sum(report.degree_hist.values()) == report.demand_misses

    def test_late_prefetch_accounting(self, addr_cfg):
        # prefetch for block 9 issued at cycle 0 with latency 10; the demand at
        # cycle 1 misses while the request is in flight (late), fetches the block
        # itself, and the arriving prefetch finds it resident -> dropped
        trace = make_trace([0, 9, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20])
        report = simulate(trace, ScriptedPrefetcher({0: [9]}), CacheConfig(sets=2, ways=2),
                          LatencyModel(10, "H"), addr_cfg)
        assert report.late_prefetches == 1
        assert report.dropped_on_arrival == 1
        assert report.useful_prefetches == 0
        assert_conservation(report)

    def test_miss_timeline(self, addr_cfg):
        # 8 distinct blocks looped: first pass misses except block 1, prefetched at
        # access 0; later passes hit; 5 accesses past the last full interval get no row
        trace = make_trace(list(range(8)) * 4 + list(range(100, 105)))
        timeline = MissTimeline(len(trace), 8)
        report = simulate(trace, ScriptedPrefetcher({0: [1]}), CacheConfig(sets=4, ways=2),
                          LatencyModel(), addr_cfg, event_log=timeline)
        assert timeline.rows() == [(8, 7, 0.875), (16, 0, 0.0), (24, 0, 0.0), (32, 0, 0.0)]
        assert report.demand_misses == 7 + 5

    def test_miss_timeline_counts_demand_misses_of_the_full_log(self, addr_cfg):
        trace = generate_trace({"name": "random", "region_blocks": 256, "cycle_step": 3},
                               1000, seed=4)
        events, timeline = [], MissTimeline(len(trace), 64)
        args = (NextLinePrefetcher(2), CacheConfig(sets=8, ways=2), LatencyModel(10, "H"), addr_cfg)
        simulate(trace, *args, event_log=events)
        simulate(trace, *args, event_log=timeline)
        kinds = {kind for _, kind, _, _ in events}
        assert kinds == {"demand_hit", "demand_miss", "prefetch_insert", "prefetch_drop"}
        expected = [sum(1 for o, kind, _, _ in events if kind == "demand_miss" and o // 64 == i)
                    for i in range(len(trace) // 64)]
        assert [m for _, m, _ in timeline.rows()] == expected
        assert [end for end, _, _ in timeline.rows()] == [64 * (i + 1) for i in range(15)]

    def test_duplicate_requests_not_counted(self, addr_cfg):
        # same block requested at two consecutive triggers; second is a duplicate
        trace = make_trace([0, 1, 2, 3])
        report = simulate(trace, ScriptedPrefetcher({0: [30], 1: [30]}),
                          CacheConfig(sets=2, ways=2), LatencyModel(0, "H"), addr_cfg)
        assert report.prefetches_issued == 1


class TestGoldenReports:
    """Reports pinned from the simulator before its per-access loop was reworked.

    A seeded 5000-access region-walk trace (+1, +4 and +9 walks plus a hot
    two-page region) under every rule prefetcher, three latency models and both
    trigger streams; any change to the replay loop's accounting shows here.
    """

    REGIONS = [
        {"start_page": 0x10000, "pages": 4096, "walk": [1] * 6},
        {"start_page": 0x20000, "pages": 4096, "walk": [4] * 6},
        {"start_page": 0x30000, "pages": 4096, "walk": [9] * 6},
        {"start_page": 0x40000, "pages": 2, "walk": [1] * 6},
    ]
    PREFETCHERS = {"next_line": NextLinePrefetcher, "stride": StridePrefetcher,
                   "best_offset": BestOffsetPrefetcher}
    EXPECTED = {
    ("best_offset", 0, "H", "access"): dict(
        demand_accesses=5000, demand_misses=2668, baseline_misses=3728, prefetches_issued=3466,
        useful_prefetches=1131, late_prefetches=0, useless_evicted=2185, resident_unused=150,
        dropped_on_arrival=0, in_flight_at_end=0, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.3263127524523947, accuracy_defined=True, coverage=0.30337982832618027,
        mean_degree=0.9042, degree_hist={"0": 479, "1": 4521}),
    ("best_offset", 0, "H", "miss"): dict(
        demand_accesses=5000, demand_misses=3109, baseline_misses=3728, prefetches_issued=2696,
        useful_prefetches=690, late_prefetches=0, useless_evicted=1860, resident_unused=146,
        dropped_on_arrival=0, in_flight_at_end=0, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.2559347181008902, accuracy_defined=True, coverage=0.18508583690987124,
        mean_degree=0.8790607912512062, degree_hist={"0": 376, "1": 2733}),
    ("best_offset", 40, "H", "access"): dict(
        demand_accesses=5000, demand_misses=3787, baseline_misses=3728, prefetches_issued=3432,
        useful_prefetches=4, late_prefetches=1116, useless_evicted=2158, resident_unused=148,
        dropped_on_arrival=1101, in_flight_at_end=21, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.0011655011655011655, accuracy_defined=True, coverage=0.001072961373390558,
        mean_degree=0.9042, degree_hist={"0": 479, "1": 4521}),
    ("best_offset", 40, "H", "miss"): dict(
        demand_accesses=5000, demand_misses=3787, baseline_misses=3728, prefetches_issued=3326,
        useful_prefetches=4, late_prefetches=1082, useless_evicted=2088, resident_unused=148,
        dropped_on_arrival=1067, in_flight_at_end=19, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.0012026458208057728, accuracy_defined=True, coverage=0.001072961373390558,
        mean_degree=0.8999207816213362, degree_hist={"0": 379, "1": 3408}),
    ("best_offset", 40, "L", "access"): dict(
        demand_accesses=5000, demand_misses=3728, baseline_misses=3728, prefetches_issued=88,
        useful_prefetches=0, late_prefetches=29, useless_evicted=25, resident_unused=34,
        dropped_on_arrival=28, in_flight_at_end=1, dropped_triggers=4875, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=0.912, degree_hist={"0":
        11, "1": 114}),
    ("best_offset", 40, "L", "miss"): dict(
        demand_accesses=5000, demand_misses=3729, baseline_misses=3728, prefetches_issued=105,
        useful_prefetches=0, late_prefetches=34, useless_evicted=34, resident_unused=36,
        dropped_on_arrival=34, in_flight_at_end=1, dropped_triggers=3607, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=0.9016393442622951,
        degree_hist={"0": 12, "1": 110}),
    ("next_line", 0, "H", "access"): dict(
        demand_accesses=5000, demand_misses=2586, baseline_misses=3728, prefetches_issued=3811,
        useful_prefetches=1242, late_prefetches=0, useless_evicted=2483, resident_unused=86,
        dropped_on_arrival=0, in_flight_at_end=0, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.3258987142482288, accuracy_defined=True, coverage=0.3331545064377682,
        mean_degree=1.0, degree_hist={"1": 5000}),
    ("next_line", 0, "H", "miss"): dict(
        demand_accesses=5000, demand_misses=3182, baseline_misses=3728, prefetches_issued=3182,
        useful_prefetches=646, late_prefetches=0, useless_evicted=2450, resident_unused=86,
        dropped_on_arrival=0, in_flight_at_end=0, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.20301697045883094, accuracy_defined=True, coverage=0.1732832618025751,
        mean_degree=1.0, degree_hist={"1": 3182}),
    ("next_line", 40, "H", "access"): dict(
        demand_accesses=5000, demand_misses=3824, baseline_misses=3728, prefetches_issued=3801,
        useful_prefetches=10, late_prefetches=1238, useless_evicted=2476, resident_unused=86,
        dropped_on_arrival=1210, in_flight_at_end=19, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.002630886608787161, accuracy_defined=True, coverage=0.002682403433476395,
        mean_degree=1.0, degree_hist={"1": 5000}),
    ("next_line", 40, "H", "miss"): dict(
        demand_accesses=5000, demand_misses=3824, baseline_misses=3728, prefetches_issued=3708,
        useful_prefetches=10, late_prefetches=1172, useless_evicted=2449, resident_unused=86,
        dropped_on_arrival=1144, in_flight_at_end=19, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.002696871628910464, accuracy_defined=True, coverage=0.002682403433476395,
        mean_degree=1.0, degree_hist={"1": 3824}),
    ("next_line", 40, "L", "access"): dict(
        demand_accesses=5000, demand_misses=3729, baseline_misses=3728, prefetches_issued=87,
        useful_prefetches=0, late_prefetches=24, useless_evicted=22, resident_unused=41,
        dropped_on_arrival=23, in_flight_at_end=1, dropped_triggers=4875, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=1.0, degree_hist={"1":
        125}),
    ("next_line", 40, "L", "miss"): dict(
        demand_accesses=5000, demand_misses=3729, baseline_misses=3728, prefetches_issued=113,
        useful_prefetches=0, late_prefetches=38, useless_evicted=39, resident_unused=35,
        dropped_on_arrival=38, in_flight_at_end=1, dropped_triggers=3607, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=1.0, degree_hist={"1":
        122}),
    ("stride", 0, "H", "access"): dict(
        demand_accesses=5000, demand_misses=1606, baseline_misses=3728, prefetches_issued=2673,
        useful_prefetches=2122, late_prefetches=0, useless_evicted=527, resident_unused=24,
        dropped_on_arrival=0, in_flight_at_end=0, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.7938645716423495, accuracy_defined=True, coverage=0.569206008583691,
        mean_degree=0.714, degree_hist={"0": 1430, "1": 3570}),
    ("stride", 0, "H", "miss"): dict(
        demand_accesses=5000, demand_misses=2692, baseline_misses=3728, prefetches_issued=1554,
        useful_prefetches=1036, late_prefetches=0, useless_evicted=494, resident_unused=24,
        dropped_on_arrival=0, in_flight_at_end=0, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.6666666666666666, accuracy_defined=True, coverage=0.2778969957081545,
        mean_degree=0.5958395245170877, degree_hist={"0": 1088, "1": 1604}),
    ("stride", 40, "H", "access"): dict(
        demand_accesses=5000, demand_misses=3728, baseline_misses=3728, prefetches_issued=2667,
        useful_prefetches=0, late_prefetches=2122, useless_evicted=518, resident_unused=24,
        dropped_on_arrival=2112, in_flight_at_end=13, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=0.714, degree_hist={"0":
        1430, "1": 3570}),
    ("stride", 40, "H", "miss"): dict(
        demand_accesses=5000, demand_misses=3728, baseline_misses=3728, prefetches_issued=2590,
        useful_prefetches=0, late_prefetches=2072, useless_evicted=491, resident_unused=24,
        dropped_on_arrival=2062, in_flight_at_end=13, dropped_triggers=0, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=0.7081545064377682,
        degree_hist={"0": 1088, "1": 2640}),
    ("stride", 40, "L", "access"): dict(
        demand_accesses=5000, demand_misses=3728, baseline_misses=3728, prefetches_issued=63,
        useful_prefetches=0, late_prefetches=50, useless_evicted=0, resident_unused=13,
        dropped_on_arrival=49, in_flight_at_end=1, dropped_triggers=4875, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=0.712, degree_hist={"0":
        36, "1": 89}),
    ("stride", 40, "L", "miss"): dict(
        demand_accesses=5000, demand_misses=3728, baseline_misses=3728, prefetches_issued=68,
        useful_prefetches=0, late_prefetches=59, useless_evicted=0, resident_unused=9,
        dropped_on_arrival=59, in_flight_at_end=0, dropped_triggers=3606, cold_start_triggers=0,
        accuracy=0.0, accuracy_defined=True, coverage=0.0, mean_degree=0.6147540983606558,
        degree_hist={"0": 47, "1": 75}),
    }

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace({"name": "region_walks", "regions": self.REGIONS}, 5000, seed=7)

    @pytest.mark.parametrize("key", sorted(EXPECTED), ids=lambda key: "-".join(map(str, key)))
    def test_report_matches_pinned(self, trace, addr_cfg, key):
        name, cycles, throughput, stream = key
        report = simulate(trace, self.PREFETCHERS[name](), CacheConfig(sets=32, ways=8),
                          LatencyModel(cycles, throughput), addr_cfg, stream)
        assert report.to_dict() == self.EXPECTED[key]
        assert_conservation(report)

    @pytest.mark.parametrize("name", sorted(PREFETCHERS))
    def test_event_log_does_not_change_report(self, trace, addr_cfg, name):
        args = (CacheConfig(sets=32, ways=8), LatencyModel(40, "L"), addr_cfg, "miss")
        events = []
        logged = simulate(trace, self.PREFETCHERS[name](), *args, event_log=events)
        assert events
        assert logged == simulate(trace, self.PREFETCHERS[name](), *args)


class _LogDigest:
    """An ``event_log`` sink that hashes each event's repr instead of keeping it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def append(self, event):
        self.sha.update(repr(event).encode())


class TestPinnedEventLogs:
    """SHA-256 of the full event log and of the report, pinned before the cache
    sets became plain dicts.

    A seeded 20k-access region-walk trace (the golden reports' regions) through a
    4-set, 2-way cache: small enough that unused prefetches get evicted,
    prefetches are dropped on arrival and demand misses hit in-flight (late)
    prefetches.
    """

    PREFETCHERS = {
        "next_line": lambda trace, cfg: NextLinePrefetcher(2, cfg),
        "stride": lambda trace, cfg: StridePrefetcher(addr_cfg=cfg),
        "best_offset": lambda trace, cfg: BestOffsetPrefetcher(addr_cfg=cfg),
        "oracle": lambda trace, cfg: OraclePrefetcher(trace, cfg, window=32),
    }
    LATENCIES = [(0, "H"), (30, "H"), (30, "L")]
    # (prefetcher, latency cycles, throughput, trigger stream) -> (event log digest, report digest)
    PINNED = {
    ('next_line', 0, 'H', 'access'): (
        'ea9dd008ba4454187fecb1a777bf5c5f1ee2310ee405b050cd44d4689c63d747',
        '33f8bf58b8224d4015aa3610a722cbec6adea0d2e9cf403cdf4bdf45e8207244'),
    ('next_line', 0, 'H', 'miss'): (
        '7c18ea85e3c4600717b2cba3897acac7e1b60a7a22d63c29cad1ace39adfb046',
        '1cca08d10ab41602d2282ef5d2bfb19e086103881fbe8de57e0f7db3c5410582'),
    ('next_line', 30, 'H', 'access'): (
        '0ba3cdc33bd29889ea08164e1f90dee1e02eef513816adc9baa122c0ed0fe0ca',
        '246a9b1adb9d8514de4b07d70d63923b7ae99bfb0e91c73acea06b6f306363a4'),
    ('next_line', 30, 'H', 'miss'): (
        'ad5b1efbffcdeee2884acac9600f1de27c555f102194bf141685affbc59e3da5',
        '00a2c8713f5dc752c9ee0554515cc96cff2e576860fcef003742e2065c50334e'),
    ('next_line', 30, 'L', 'access'): (
        'f56337c25b1ea9e1a7a74a4e8ac85d52f85b1663acb59bb472cd964056d7fbec',
        '299bc259a767faa6c612d9d13a6f41f6fd1e9d133dfdd95a59eddc0b2bdd93a1'),
    ('next_line', 30, 'L', 'miss'): (
        '18ed7e87cc97524e16dec937ceb61c0e6a04eceea6266b953237de46c5511928',
        'a43da796980a5092bd1a67313fff1cd0080fa415c5ac9b1467c6d22381df83b5'),
    ('stride', 0, 'H', 'access'): (
        '99bf8529ccea630820b62a031e7243c2dd67831949d12124c9e40f5d441709ed',
        '4eb7754217db1c0b23aa10c5b3a6dc8e19eb431665b2873a5d6ca85e6d761766'),
    ('stride', 0, 'H', 'miss'): (
        '36fdd3ea7abc7e4d08799ccad73519b903404a73dec59a2032f01a75d1183e98',
        '2eceae3cf270426c79a3d73db63d03c57c298041ac9aaf9cd7b93b66bebdfd85'),
    ('stride', 30, 'H', 'access'): (
        '1dfa8f51c3e8ea447865e7410e614f27bbbc6d738f78a88efbd3b3529cf23479',
        '357c6c89a65bff875f4cd0c90b521ec800aaa43ca40d424188c2632f56f0b360'),
    ('stride', 30, 'H', 'miss'): (
        '5f629eeec654e8f155b465ac0109e48b552537309f7888c14044e394fc9d9a52',
        '15d1bc5899233c91672588d96d400847b51e8ae04d2270d343cfcd337092474d'),
    ('stride', 30, 'L', 'access'): (
        'ab902a348c50d5fb9b0411f18662f93e66e365ca653bf77d34190cbac9e5028b',
        '175c45e7c519b80047991068ba6dcfb7e8ffe65fcf45b10d6d88d5e187a8deab'),
    ('stride', 30, 'L', 'miss'): (
        'ab72e0a176249824e9dea717c3e9e4dfc016a3dd03e920b1056447a729495efa',
        '0c117abedc52d47835a30535bd6b1ba4913b9154b79792b5dd62ebc7a057f4b2'),
    ('best_offset', 0, 'H', 'access'): (
        '2743c47f701a846cd29a3535d7c14be9c5adb1dad4c589266d280a80b1c9837b',
        '42d86e7d03421b30bdba37d3bc3498bdd5037e3c429ba6431e2c9f52b05e6bde'),
    ('best_offset', 0, 'H', 'miss'): (
        '17684a298646e2ad87703c9ebfc8f41514640149447959e777a56d471e4cbefc',
        '122a7f70bdfa9af0f4e09c1f09208635206f8de3e9ebfef1389c4a0a270226b2'),
    ('best_offset', 30, 'H', 'access'): (
        '096ed0d34e79cee0e8aaad99c2731402b4e8ab7ac9f321fecdf49b133f45f5af',
        '6b21c190dd68c5b92a2c8f9bf51be2ceb3f482408c46ed1bbd5a2f493b4ab7d0'),
    ('best_offset', 30, 'H', 'miss'): (
        '341498699495d9ae1e7ee8f44652467a698db3767869d103b57224ae920eead5',
        'b7b9046a3f6a7d51a70e20dcbfbef0270fb700233dcb1496cf51d931e49cc516'),
    ('best_offset', 30, 'L', 'access'): (
        'bd5e0fb27f91d2ce60a65a2a289755546ddf9cb95039fceaf78dcb665f70d519',
        '1c75c627099de8194eff0afba5980d1bb678fe7207eea397c8a80b661fa75cb1'),
    ('best_offset', 30, 'L', 'miss'): (
        'ce8c6968e223f459efbd3c420fcf462545e671f79672d82459503f7f4153fbab',
        'abd4cfcd3008032a0c504426014eb23ea69aaa35c43fec539a490919a6b7db1b'),
    ('oracle', 0, 'H', 'access'): (
        '6169382cf1c2bd928af6ea56136b797952be38d403cef5b3c627b08d467dfe66',
        'c6b74556a70c271ec4223d18026fdcd8e6749d576e2f048fe7bd1cdf6e62ecb0'),
    ('oracle', 0, 'H', 'miss'): (
        '330ac3b63e3b41b4fbc4aaa4a4242b7c72b1ca049ac659237595697d9412f923',
        'be7a16f4ec6693bda3d13c68cc9cb46b2622fa800b22e97ac887c480817c112a'),
    ('oracle', 30, 'H', 'access'): (
        '5efcf9482a3505fae55322133740667d0db46db62c42e2e930478c17c8ac5e97',
        '376136fb8dc253572b33a36c339267a7eedad7382614a3fcb40248b19439c964'),
    ('oracle', 30, 'H', 'miss'): (
        '47af54a319b102993868ea97342928d1a3a1d15306956e1392435cfe82cbf8ec',
        '3c118ddf90ca46490a2fdcf33d33f44537cd65b2a907115faf1a6e2a6db00768'),
    ('oracle', 30, 'L', 'access'): (
        '6f8386d2e9a38e0a78d3bd8f4a9dbb5f5f2fce0a55442cac44cdab230a6b604c',
        'e247a2747e4a06887d3261442eaa4e9a24f39c782c1ddea3353d87f4d790c224'),
    ('oracle', 30, 'L', 'miss'): (
        '7d7ffe799d35e0d08dccd60671b1addd30910756d57ab357cc2126b51bbf12ad',
        'a7c546c7ffbd748d4f814e3794ce5a99bc7dbb504f959b8457ff61234ab218f5'),
    }

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace({"name": "region_walks", "regions": TestGoldenReports.REGIONS},
                              20000, seed=3)

    def run(self, trace, addr_cfg, key):
        name, cycles, throughput, stream = key
        log = _LogDigest()
        report = simulate(trace, self.PREFETCHERS[name](trace, addr_cfg), CacheConfig(sets=4, ways=2),
                          LatencyModel(cycles, throughput), addr_cfg, stream, event_log=log)
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        return report, (log.sha.hexdigest(), hashlib.sha256(blob).hexdigest())

    KEYS = [(name, cycles, throughput, stream) for name, (cycles, throughput), stream
            in itertools.product(PREFETCHERS, LATENCIES, ("access", "miss"))]

    @pytest.mark.parametrize("key", KEYS, ids=lambda key: "-".join(map(str, key)))
    def test_digests_match_pinned(self, trace, addr_cfg, key):
        report, digests = self.run(trace, addr_cfg, key)
        assert digests == self.PINNED[key]
        assert_conservation(report)

    def test_scenario_reaches_every_sink(self, trace, addr_cfg):
        report, _ = self.run(trace, addr_cfg, ("next_line", 30, "H", "access"))
        assert report.useless_evicted and report.dropped_on_arrival and report.late_prefetches


class TestPerfectOracleCoverage:
    def test_repeating_trace_analytic_coverage(self, addr_cfg):
        footprint = 50
        blocks = list(range(footprint)) * 4
        trace = make_trace(blocks)
        cache = CacheConfig(sets=64, ways=16)  # 1024 lines >> footprint
        report = simulate(trace, OraclePrefetcher(trace, addr_cfg, window=footprint),
                          cache, LatencyModel(0, "H"), addr_cfg)
        # baseline misses = cold misses = footprint; only the first block is unreachable
        assert report.baseline_misses == footprint
        assert abs(report.coverage - (1 - 1 / footprint)) < 1e-9
        assert report.accuracy == 1.0


def prepared(pf, records, addr_cfg) -> Trace:
    """``records`` as a Trace, after ``pf.prepare`` on it."""
    trace = as_trace(records)
    pf.prepare(trace, block_addresses(trace, addr_cfg))
    return trace


def predictions(pf, records, addr_cfg) -> list:
    """What ``pf`` predicts at each access of ``records``, after one ``prepare`` on them."""
    trace = prepared(pf, records, addr_cfg)
    return [pf.predict(access, block) for access, block in zip(trace, block_addresses(trace, addr_cfg).tolist())]


class TestRulePrefetchers:
    def test_next_line_definition(self, addr_cfg):
        pf = NextLinePrefetcher(2, addr_cfg)
        assert pf.predict(None, 10) == [11, 12]

    def test_stride_state_machine_hand_trace(self, addr_cfg):
        # stride-3 stream: first issue happens at the third access, then every access
        pf = StridePrefetcher(addr_cfg)
        issued = predictions(pf, make_trace([100, 103, 106, 109, 112]), addr_cfg)
        assert issued == [[], [], [109], [112], [115]]

    def test_stride_resets_on_break(self, addr_cfg):
        pf = StridePrefetcher(addr_cfg)
        out = predictions(pf, make_trace([100, 103, 106, 200, 203, 206]), addr_cfg)
        assert out[3] == []  # break destroys confidence
        assert out[5] == [209]  # re-confirmed after two stride-3 jumps

    def test_stride_table_capacity(self, addr_cfg):
        # pc 1 walks +3, and other pcs come between its second and third access: TABLE_SIZE - 1
        # of them leave pc 1 in the table, while TABLE_SIZE of them fill it, so the last drops
        # pc 1, its least recent entry, and pc 1 confirms two accesses later
        def last_three(others):
            trace = make_trace([0, 3, *range(1000, 1000 + 50 * others, 50), 6, 9, 12],
                               pcs=[1, 1, *range(2, 2 + others), 1, 1, 1])
            return predictions(StridePrefetcher(addr_cfg), trace, addr_cfg)[-3:]

        assert last_three(StridePrefetcher.TABLE_SIZE - 1) == [[9], [12], [15]]
        assert last_three(StridePrefetcher.TABLE_SIZE) == [[], [], [15]]

    def test_best_offset_converges_to_stride(self, addr_cfg):
        trace = make_trace([1000 + 3 * i for i in range(200)])
        pf = BestOffsetPrefetcher(addr_cfg)
        assert predictions(pf, trace, addr_cfg)[-1] == [1000 + 3 * 199 + 3]  # offset 3 is active

    def test_best_offset_stays_quiet_on_random(self, addr_cfg):
        rng = np.random.default_rng(11)
        trace = make_trace(rng.integers(0, 10**9, size=400).tolist())
        pf = BestOffsetPrefetcher(addr_cfg)
        assert predictions(pf, trace, addr_cfg) == [[]] * len(trace)

    def test_stride_wider_than_int64_predicts_nothing(self):
        # with no offset bits a block is a whole 64-bit address, so a stride can reach 2**63 in
        # size; none that wide repeats, and the widest that confirms, 2**63 - 1, leaves the space
        cfg = AddressConfig(block_offset_bits=0)
        trace = make_trace([0, 2**63 + 5, 2**64 - 1, 0, 2**63 - 1, 2**64 - 2], addr_cfg=cfg)
        assert predictions(StridePrefetcher(cfg), trace, cfg) == [[]] * 6

    SMALL = AddressConfig(addr_bits=16, page_size_bits=8, block_offset_bits=4)  # 4096 blocks

    @pytest.mark.parametrize("block", [0, 1, 2, 2000, 4094, 4095])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_next_line_equals_prefetch_addresses(self, block, degree):
        pf = NextLinePrefetcher(degree, self.SMALL)
        want = sorted(prefetch_addresses(block, range(1, degree + 1), self.SMALL))
        assert pf.predict(None, block) == want

    WIDE = AddressConfig(addr_bits=18, page_size_bits=8, block_offset_bits=4)  # 16384 blocks
    FULL = AddressConfig(block_offset_bits=0)  # 2**64 blocks, where a step can reach 2**63 and more

    # a negative block counts back from the top of the block space
    @pytest.mark.parametrize("block", [0, 1, 2, 2000, -2, -1])
    @pytest.mark.parametrize("stride", [-7, -1, 1, 5])
    @pytest.mark.parametrize("space", ["SMALL", "FULL"])
    def test_stride_equals_prefetch_addresses(self, block, stride, space):
        # the hand trace confirms ``stride`` at its third access, which then predicts from ``block``
        cfg = getattr(self, space)
        block %= cfg.block_space
        pf = StridePrefetcher(cfg)
        trace = prepared(pf, make_trace([2000, 2000 + stride, 2000 + 2 * stride], addr_cfg=cfg), cfg)
        assert pf.predict(trace[2], block) == sorted(prefetch_addresses(block, [stride], cfg))

    @pytest.mark.parametrize("block", [0, 1, 2, 2000, -2, -1])
    @pytest.mark.parametrize("offset", [-32, -1, 1, 24])
    @pytest.mark.parametrize("space", ["WIDE", "FULL"])
    def test_best_offset_equals_prefetch_addresses(self, block, offset, space):
        # a stream of stride ``offset`` makes ``offset`` active at the end of its second learning
        # phase, whose last access then predicts from ``block`` (in the first phase, an offset
        # tested before the stream has reached its length scores a miss); two phases of a
        # 32-stride stream span 8160 blocks, more than SMALL holds
        cfg = getattr(self, space)
        block %= cfg.block_space
        pf = BestOffsetPrefetcher(cfg)
        n, start = 2 * pf.ROUND_LENGTH * len(pf.OFFSETS), 0 if offset > 0 else cfg.block_space - 1
        trace = prepared(pf, make_trace([start + offset * i for i in range(n)], addr_cfg=cfg), cfg)
        assert pf.predict(trace[n - 1], block) == sorted(prefetch_addresses(block, [offset], cfg))


class ReferenceStride:
    """The stride state machine as it ran per access: ``observe`` then ``predict``."""

    TABLE_SIZE, CONFIRM = 256, 2

    def __init__(self, addr_cfg=None):
        self.addr_cfg = addr_cfg or AddressConfig()
        self._table = OrderedDict()  # pc -> [last, stride, count]

    def observe(self, access, block):
        entry = self._table.get(access.pc)
        if entry is None:
            if len(self._table) >= self.TABLE_SIZE:
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
        if entry is None or entry[2] < self.CONFIRM or entry[1] == 0:
            return []
        target = block + entry[1]
        return [target] if 0 <= target < self.addr_cfg.block_space else []


class ReferenceBestOffset:
    """The best-offset state machine as it ran per access: ``observe`` then ``predict``."""

    OFFSETS, RECENT_SIZE, ROUND_LENGTH, SCORE_THRESHOLD = BestOffsetPrefetcher.OFFSETS, 64, 4, 2

    def __init__(self, addr_cfg=None):
        self.addr_cfg = addr_cfg or AddressConfig()
        self._recent, self._recent_set = deque(), set()
        self._scores = dict.fromkeys(self.OFFSETS, 0)
        self._cursor = self._rounds = 0
        self.active_offset = None

    def observe(self, access, block):
        candidate = self.OFFSETS[self._cursor]
        if (block - candidate) in self._recent_set:
            self._scores[candidate] += 1
        self._cursor += 1
        if self._cursor == len(self.OFFSETS):
            self._cursor = 0
            self._rounds += 1
            if self._rounds >= self.ROUND_LENGTH:
                best = max(self._scores.items(), key=lambda kv: (kv[1], -abs(kv[0])))
                self.active_offset = best[0] if best[1] >= self.SCORE_THRESHOLD else None
                self._scores = dict.fromkeys(self.OFFSETS, 0)
                self._rounds = 0
        if block not in self._recent_set:
            self._recent.append(block)
            self._recent_set.add(block)
            if len(self._recent) > self.RECENT_SIZE:
                self._recent_set.discard(self._recent.popleft())

    def predict(self, access, block):
        if self.active_offset is None:
            return []
        target = block + self.active_offset
        return [target] if 0 <= target < self.addr_cfg.block_space else []


class ObservedReplay(Prefetcher):
    """Replays a fresh reference state machine over the trace, ``observe`` then ``predict`` on
    every access in order, and answers each trigger with that access's prediction. ``predict``
    reads only the state, so predicting on every access equals predicting on the admitted ones."""

    def __init__(self, machine):
        self.machine = machine

    def prepare(self, trace, blocks):
        machine = self.machine()
        self._predictions = []
        for access, block in zip(trace, blocks.tolist()):
            machine.observe(access, block)
            self._predictions.append(machine.predict(access, block))

    def predict(self, access, block):
        return self._predictions[access.ordinal]


class TestObservedReplayEquivalence:
    """The stride and best-offset decisions taken in ``prepare`` replay exactly as the per-access
    ``observe``-then-``predict`` state machines do, report and event log alike."""

    SEEDS = (3, 19, 40)
    PATTERNS = {
        "random": {"name": "random", "region_blocks": 64},  # deltas repeat, so strides confirm
        "region_walks": {"name": "region_walks", "regions": TestGoldenReports.REGIONS},
        "region_walks-5pcs": {"name": "region_walks", "regions": TestGoldenReports.REGIONS},
        "region_walks-cold-pcs": {"name": "region_walks", "regions": TestGoldenReports.REGIONS},
    }
    PREFETCHERS = {  # name -> (prefetcher under test, reference state machine), given addr_cfg
        "stride": (StridePrefetcher, ReferenceStride),
        "best_offset": (BestOffsetPrefetcher, ReferenceBestOffset),
    }
    CACHES = (CacheConfig(sets=4, ways=2), CacheConfig(sets=32, ways=8))
    LATENCIES = tuple(itertools.product((0, 50), ("L", "H")))

    def trace(self, pattern, seed):
        trace = generate_trace(self.PATTERNS[pattern], 2000, seed=seed)
        if pattern.endswith("pcs"):  # pcs drawn from five
            rng = np.random.default_rng(seed)
            pcs = 0x400000 + 0x40 * rng.integers(0, 5, size=len(trace))
            if pattern.endswith("cold-pcs"):  # half the accesses from a thousand more: the table evicts
                cold = rng.random(len(trace)) < 0.5
                pcs[cold] = 0x500000 + 0x40 * rng.integers(0, 1000, size=cold.sum())
            trace = Trace(trace.cycle, pcs, trace.vaddr)
        return trace

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("name", sorted(PREFETCHERS))
    def test_reports_and_event_logs_equal(self, addr_cfg, name, pattern, seed):
        trace = self.trace(pattern, seed)
        under_test, machine = self.PREFETCHERS[name]
        issued = 0
        for cache, (cycles, throughput), stream in itertools.product(
                self.CACHES, self.LATENCIES, ("access", "miss")):
            args = (trace, cache, LatencyModel(cycles, throughput), addr_cfg, stream)
            logs = [], []
            got = simulate(args[0], under_test(addr_cfg=addr_cfg), *args[1:], event_log=logs[0])
            want = simulate(args[0], ObservedReplay(lambda: machine(addr_cfg=addr_cfg)), *args[1:],
                            event_log=logs[1])
            assert got == want, (cache, cycles, throughput, stream)
            assert logs[0] == logs[1], (cache, cycles, throughput, stream)
            issued += got.prefetches_issued
        assert issued > 0


class TestModelPrefetcher:
    CFG = ModelConfig(hidden_dim=8, num_heads=2, num_layers=1, output_dim=64,
                      history_len=4, input_dim=10)

    def test_cold_start_counted(self, addr_cfg):
        params = ModelParams.init(self.CFG, seed=1)
        pf = ModelPrefetcher(params, FeatureConfig("as", 6), LabelConfig(32, 32),
                             addr_cfg, threshold=0.9)
        trace = make_trace(list(range(100, 110)))
        report = simulate(trace, pf, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg)
        assert report.cold_start_triggers == self.CFG.history_len - 1

    def test_untrained_high_threshold_gives_zero_degree(self, addr_cfg):
        params = ModelParams.init(self.CFG, seed=2)
        pf = ModelPrefetcher(params, FeatureConfig("as", 6), LabelConfig(32, 32),
                             addr_cfg, threshold=0.9)
        trace = make_trace(list(range(100, 160)))
        report = simulate(trace, pf, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg)
        assert set(report.degree_hist) == {0}
        assert report.prefetches_issued == 0

    def test_top_k_mode_issues_exactly_k(self, addr_cfg):
        params = ModelParams.init(self.CFG, seed=3)
        pf = ModelPrefetcher(params, FeatureConfig("as", 6), LabelConfig(32, 32),
                             addr_cfg, top_k=10)
        trace = make_trace(list(range(500, 560)))
        report = simulate(trace, pf, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg)
        assert set(report.degree_hist) == {10}

    def test_mode_exclusivity(self, addr_cfg):
        params = ModelParams.init(self.CFG, seed=4)
        with pytest.raises(ValueError):
            ModelPrefetcher(params, FeatureConfig("as", 6), LabelConfig(32, 32),
                            addr_cfg, threshold=0.5, top_k=3)
        with pytest.raises(ValueError):
            ModelPrefetcher(params, FeatureConfig("as", 6), LabelConfig(32, 32), addr_cfg)

    def top_k_prefetcher(self, addr_cfg):
        params = ModelParams.init(self.CFG, seed=6)
        return ModelPrefetcher(params, FeatureConfig("as", 6), LabelConfig(32, 32),
                               addr_cfg, top_k=4)

    def test_reused_prefetcher_matches_fresh(self, addr_cfg):
        cache = CacheConfig(sets=8, ways=4)
        runs = [
            (generate_trace({"name": "region_walks"}, 400, seed=1), LatencyModel(20, "L")),
            (generate_trace({"name": "stride", "stride": 3}, 300, seed=2), LatencyModel(0, "H")),
        ]
        reused = self.top_k_prefetcher(addr_cfg)
        for trace, latency in runs:
            fresh = simulate(trace, self.top_k_prefetcher(addr_cfg), cache, latency, addr_cfg)
            again = simulate(trace, reused, cache, latency, addr_cfg)
            assert again == fresh
            assert fresh.prefetches_issued > 0

    def test_cold_start_on_slice_not_starting_at_ordinal_zero(self, addr_cfg):
        trace = make_trace(list(range(100, 200)))
        test = trace[split_trace(trace, (0.4, 0.1, 0.5)).test.start:]
        assert test[0].ordinal == 50
        report = simulate(test, self.top_k_prefetcher(addr_cfg), CacheConfig(sets=4, ways=2),
                          LatencyModel(), addr_cfg)
        assert report.cold_start_triggers == self.CFG.history_len - 1
        assert sum(report.degree_hist.values()) == len(test) - (self.CFG.history_len - 1)

    def test_trace_slice_counts_ordinals_from_zero(self, addr_cfg):
        # a list slice keeps its records' ordinals and a Trace slice numbers them from 0,
        # but simulate numbers both by position: the replays and event logs are equal
        records = make_trace(list(range(100, 200)))
        start = split_trace(records, (0.4, 0.1, 0.5)).test.start
        listed, columnar = records[start:], as_trace(records)[start:]
        assert isinstance(columnar, Trace) and columnar[0].ordinal == 0
        logs, reports = [], []
        for test in (listed, columnar):
            log = []
            reports.append(simulate(test, self.top_k_prefetcher(addr_cfg), CacheConfig(sets=4, ways=2),
                                    LatencyModel(), addr_cfg, event_log=log))
            logs.append(log)
        assert reports[1] == reports[0]
        assert reports[1].cold_start_triggers == self.CFG.history_len - 1
        assert logs[1] == logs[0]
        assert logs[0][0][0] == 0

    def test_predict_without_prepare_raises(self, addr_cfg):
        access = make_trace([100])[0]
        for pf in (self.top_k_prefetcher(addr_cfg), StridePrefetcher(addr_cfg=addr_cfg),
                   BestOffsetPrefetcher(addr_cfg=addr_cfg)):
            with pytest.raises(RuntimeError, match=rf"^{type(pf).__name__}\.predict needs prepare\("):
                pf.predict(access, 100)

    def test_one_input_encoding_per_simulate(self, addr_cfg, monkeypatch):
        calls, encode_inputs = [], features.encode_inputs

        def counting_encode_inputs(*args, **kwargs):
            calls.append(len(args[0]))
            return encode_inputs(*args, **kwargs)

        # patched where the shared window encoder looks the name up
        monkeypatch.setattr(features, "encode_inputs", counting_encode_inputs)
        pf = self.top_k_prefetcher(addr_cfg)
        for length in (60, 80):
            trace = make_trace(list(range(500, 500 + length)))
            simulate(trace, pf, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg)
            simulate(trace, pf, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg,
                     trigger_stream="miss")
        assert calls == [60, 60, 80, 80]

    @pytest.mark.parametrize("offset_bits", [6, 0])  # 0: blocks reach 2**64 - 1
    @pytest.mark.parametrize("mode", ["threshold", "top_k"])
    def test_decode_matches_scalar_reference(self, monkeypatch, offset_bits, mode):
        addr_cfg, label_cfg = AddressConfig(block_offset_bits=offset_bits), LabelConfig(32, 32)
        bound, space = label_cfg.delta_bound, addr_cfg.block_space
        conf = np.random.default_rng(offset_bits).random(label_cfg.bitmap_size)
        conf[[0, bound - 1, bound, 2 * bound - 1]] = 0.99  # deltas -bound, -1, +1, +bound, tied
        monkeypatch.setattr(simulator, "model_predict", lambda params, inputs, contexts: conf[None])
        if mode == "threshold":
            pf = ModelPrefetcher(ModelParams.init(self.CFG, seed=1), FeatureConfig("as", 6), label_cfg,
                                 addr_cfg, threshold=0.5)
            deltas = bitmap_to_deltas(conf >= 0.5, label_cfg)
        else:
            pf = ModelPrefetcher(ModelParams.init(self.CFG, seed=1), FeatureConfig("as", 6), label_cfg,
                                 addr_cfg, top_k=10)
            deltas = [index_to_delta(int(i), bound) for i in np.argsort(-conf, kind="stable")[:10]]
        trace = as_trace(make_trace(list(range(100, 110)), addr_cfg=addr_cfg))
        pf.prepare(trace, block_addresses(trace, addr_cfg))
        for block in (0, bound - 1, space - bound, space - 1):
            want = sorted(prefetch_addresses(block, deltas, addr_cfg))
            got = pf.predict(trace[len(trace) - 1], block)
            assert want and got == want
            assert all(type(b) is int for b in got)

    def test_dictionary_required_for_delta_mode(self, addr_cfg):
        cfg = ModelConfig(hidden_dim=8, num_heads=2, num_layers=1, output_dim=64,
                          history_len=4, input_dim=1)
        params = ModelParams.init(cfg, seed=5)
        with pytest.raises(ValueError, match="dictionary"):
            ModelPrefetcher(params, FeatureConfig("delta"), LabelConfig(32, 32),
                            addr_cfg, threshold=0.5)


class TestCacheConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(sets=0)
        with pytest.raises(ValueError):
            LatencyModel(-1)
        with pytest.raises(ValueError):
            LatencyModel(0, "M")

    def test_lru_eviction_order(self):
        # one 2-way set: 0 misses, 1 is prefetched, the hit on 0 refreshes it, so 2 evicts 1
        events = []
        report = simulate(make_trace([0, 0, 2]), ScriptedPrefetcher({0: [1]}), CacheConfig(sets=1, ways=2),
                          LatencyModel(0, "H"), AddressConfig(), event_log=events)
        assert events == [(0, "demand_miss", 0, None), (0, "prefetch_insert", 1, None),
                          (1, "demand_hit", 0, None), (2, "demand_miss", 2, 1)]
        assert report.useless_evicted == 1  # the evictee was an unused prefetch
