import numpy as np
import pytest

from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig
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
    StridePrefetcher,
    simulate,
)
from prefetchlab.trace import AddressConfig, generate_trace
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
        # 8 distinct blocks looped: first pass misses, later passes hit
        trace = make_trace(list(range(8)) * 4)
        report, timeline = simulate(trace, None, CacheConfig(sets=4, ways=2),
                                    LatencyModel(), addr_cfg, timeline_interval=8)
        assert [row[1] for row in timeline] == [8, 0, 0, 0]
        assert timeline[0][2] == 1.0
        assert report.demand_misses == 8

    def test_duplicate_requests_not_counted(self, addr_cfg):
        # same block requested at two consecutive triggers; second is a duplicate
        trace = make_trace([0, 1, 2, 3])
        report = simulate(trace, ScriptedPrefetcher({0: [30], 1: [30]}),
                          CacheConfig(sets=2, ways=2), LatencyModel(0, "H"), addr_cfg)
        assert report.prefetches_issued == 1


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
