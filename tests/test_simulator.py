import numpy as np
import pytest

from prefetchlab import features, simulator
from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig, prefetch_addresses
from prefetchlab.model import ModelConfig, ModelParams
from prefetchlab.simulator import (
    BestOffsetPrefetcher,
    CacheConfig,
    LatencyModel,
    ModelPrefetcher,
    NextLinePrefetcher,
    OraclePrefetcher,
    Prefetcher,
    SetAssociativeCache,
    SimReport,
    MissTimeline,
    StridePrefetcher,
    simulate,
)
from prefetchlab.trace import AddressConfig, MemoryAccess, generate_trace, split_trace
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


class TestRulePrefetchers:
    def test_next_line_definition(self, addr_cfg):
        pf = NextLinePrefetcher(2, addr_cfg)
        assert pf.predict(None, 10) == [11, 12]

    def test_stride_state_machine_hand_trace(self, addr_cfg):
        # stride-3 stream: first issue happens at the third access, then every access
        trace = make_trace([100, 103, 106, 109, 112])
        pf = StridePrefetcher(confirm=2, degree=1, addr_cfg=addr_cfg)
        issued = []
        for acc in trace:
            block = acc.vaddr >> 6
            pf.observe(acc, block)
            issued.append(pf.predict(acc, block))
        assert issued == [[], [], [109], [112], [115]]

    def test_stride_resets_on_break(self, addr_cfg):
        trace = make_trace([100, 103, 106, 200, 203, 206])
        pf = StridePrefetcher(confirm=2, addr_cfg=addr_cfg)
        out = []
        for acc in trace:
            block = acc.vaddr >> 6
            pf.observe(acc, block)
            out.append(pf.predict(acc, block))
        assert out[3] == []  # break destroys confidence
        assert out[5] == [209]  # re-confirmed after two stride-3 jumps

    def test_stride_table_capacity(self, addr_cfg):
        pf = StridePrefetcher(table_size=2, addr_cfg=addr_cfg)
        for i, pc in enumerate([0x1, 0x2, 0x3]):
            acc = make_trace([i], pcs=[pc])[0]
            pf.observe(acc, i)
        assert len(pf._table) == 2

    def test_best_offset_converges_to_stride(self, addr_cfg):
        trace = make_trace([1000 + 3 * i for i in range(200)])
        pf = BestOffsetPrefetcher(round_length=2, score_threshold=2, addr_cfg=addr_cfg)
        for acc in trace:
            pf.observe(acc, acc.vaddr >> 6)
        assert pf.active_offset == 3

    def test_best_offset_stays_quiet_on_random(self, addr_cfg):
        rng = np.random.default_rng(11)
        trace = make_trace(rng.integers(0, 10**9, size=400).tolist())
        pf = BestOffsetPrefetcher(round_length=2, score_threshold=3, addr_cfg=addr_cfg)
        for acc in trace:
            pf.observe(acc, acc.vaddr >> 6)
        assert pf.active_offset is None

    SMALL = AddressConfig(addr_bits=16, page_size_bits=8, block_offset_bits=4)  # 4096 blocks

    @pytest.mark.parametrize("block", [0, 1, 2, 2000, 4094, 4095])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_next_line_equals_prefetch_addresses(self, block, degree):
        pf = NextLinePrefetcher(degree, self.SMALL)
        want = sorted(prefetch_addresses(block, range(1, degree + 1), self.SMALL))
        assert pf.predict(None, block) == want

    @pytest.mark.parametrize("block", [0, 1, 2, 2000, 4094, 4095])
    @pytest.mark.parametrize("stride", [-7, -1, 1, 5])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_stride_equals_prefetch_addresses(self, block, stride, degree):
        pf = StridePrefetcher(confirm=2, degree=degree, addr_cfg=self.SMALL)
        access = MemoryAccess(0, 0, 0x400000, block << 4)
        pf._table[access.pc] = [block, stride, 2]
        deltas = [stride * j for j in range(1, degree + 1)]
        assert pf.predict(access, block) == sorted(prefetch_addresses(block, deltas, self.SMALL))

    @pytest.mark.parametrize("block", [0, 1, 2, 2000, 4094, 4095])
    @pytest.mark.parametrize("offset", [-32, -1, 1, 24])
    def test_best_offset_equals_prefetch_addresses(self, block, offset):
        pf = BestOffsetPrefetcher(addr_cfg=self.SMALL)
        pf.active_offset = offset
        assert pf.predict(None, block) == sorted(prefetch_addresses(block, [offset], self.SMALL))

    def test_best_offset_validation(self):
        with pytest.raises(ValueError):
            BestOffsetPrefetcher(offsets=[0, 1])
        with pytest.raises(ValueError):
            BestOffsetPrefetcher(offsets=[])


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

    def test_predict_without_prepare_raises(self, addr_cfg):
        pf = self.top_k_prefetcher(addr_cfg)
        trace = make_trace(list(range(100, 110)))
        for access in trace:
            pf.observe(access, access.vaddr >> addr_cfg.block_offset_bits)
        with pytest.raises(RuntimeError, match="prepare"):
            pf.predict(trace[-1], trace[-1].vaddr >> addr_cfg.block_offset_bits)

    def test_one_input_encoding_per_simulate(self, addr_cfg, monkeypatch):
        calls = []

        def counting_encode_inputs(*args, **kwargs):
            calls.append(len(args[0]))
            return features.encode_inputs(*args, **kwargs)

        # patched where the prefetcher looks the name up
        monkeypatch.setattr(simulator, "encode_inputs", counting_encode_inputs)
        pf = self.top_k_prefetcher(addr_cfg)
        for length in (60, 80):
            trace = make_trace(list(range(500, 500 + length)))
            simulate(trace, pf, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg)
            simulate(trace, pf, CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg,
                     trigger_stream="miss")
        assert calls == [60, 60, 80, 80]

    def test_dictionary_required_for_delta_mode(self, addr_cfg):
        cfg = ModelConfig(hidden_dim=8, num_heads=2, num_layers=1, output_dim=64,
                          history_len=4, input_dim=1)
        params = ModelParams.init(cfg, seed=5)
        with pytest.raises(ValueError, match="dictionary"):
            ModelPrefetcher(params, FeatureConfig("delta"), LabelConfig(32, 32),
                            addr_cfg, threshold=0.5)


class TestCacheConfig:
    def test_capacity(self):
        assert CacheConfig(64, 16, 64).capacity_bytes == 64 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(sets=0)
        with pytest.raises(ValueError):
            LatencyModel(-1)
        with pytest.raises(ValueError):
            LatencyModel(0, "M")

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(CacheConfig(sets=1, ways=2))
        cache.insert(0, False)
        cache.insert(1, False)
        cache.access(0)  # refresh 0; LRU is now 1
        evicted = cache.insert(2, False)
        assert evicted == (1, False)
