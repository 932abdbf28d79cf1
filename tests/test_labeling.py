import re

import numpy as np
import pytest

from prefetchlab.labeling import (
    LabelConfig,
    bitmap_to_deltas,
    collect_future_deltas,
    delta_to_index,
    deltas_to_bitmap,
    index_to_delta,
    label_bitmaps,
    prefetch_addresses,
)
from prefetchlab.trace import AddressConfig, block_address, block_addresses, generate_trace


def collect_oracle(trace, trigger, cfg, addr_cfg):
    """Brute re-enumeration of the look-forward window, written independently."""
    out = set()
    base = block_address(trace[trigger].vaddr, addr_cfg)
    for j in range(1, cfg.look_forward + 1):
        i = trigger + cfg.skip + j
        if i >= len(trace):
            break
        d = block_address(trace[i].vaddr, addr_cfg) - base
        if d != 0 and abs(d) <= cfg.delta_bound:
            out.add(d)
    return out


class TestCollectFutureDeltas:
    def test_hand_example(self, trace_from_blocks, addr_cfg):
        trace = trace_from_blocks([1000, 1001, 1005, 998])
        cfg = LabelConfig(look_forward=3, delta_bound=128)
        got = collect_future_deltas(trace, 0, cfg, addr_cfg)
        assert got == {+1, +5, -2}
        assert got == collect_oracle(trace, 0, cfg, addr_cfg)

    def test_all_future_in_current_block(self, trace_from_blocks, addr_cfg):
        trace = trace_from_blocks([7, 7, 7, 7])
        cfg = LabelConfig(look_forward=3)
        assert collect_future_deltas(trace, 0, cfg, addr_cfg) == set()

    def test_skip_two(self, trace_from_blocks, addr_cfg):
        b = 500
        trace = trace_from_blocks([b, b + 1, b + 2, b + 7])
        cfg = LabelConfig(look_forward=1, skip=2)
        assert collect_future_deltas(trace, 0, cfg, addr_cfg) == {+7}

    def test_truncation_is_silent(self, trace_from_blocks, addr_cfg):
        trace = trace_from_blocks([10, 11])
        cfg = LabelConfig(look_forward=100)
        assert collect_future_deltas(trace, 0, cfg, addr_cfg) == {+1}

    def test_out_of_bound_deltas_dropped(self, trace_from_blocks, addr_cfg):
        trace = trace_from_blocks([0, 1000, 3])
        cfg = LabelConfig(look_forward=2, delta_bound=128)
        assert collect_future_deltas(trace, 0, cfg, addr_cfg) == {+3}

    def test_random_traces_match_oracle(self, trace_from_blocks, addr_cfg):
        rng = np.random.default_rng(0)
        blocks = (1000 + rng.integers(-200, 200, size=400).cumsum()).clip(0).tolist()
        trace = trace_from_blocks(blocks)
        cfg = LabelConfig(look_forward=16, delta_bound=64, skip=3)
        for trigger in rng.integers(0, 399, size=40):
            t = int(trigger)
            assert collect_future_deltas(trace, t, cfg, addr_cfg) == collect_oracle(
                trace, t, cfg, addr_cfg
            )


class TestBitmapMapping:
    CFG = LabelConfig(look_forward=128, delta_bound=128)

    def test_empty_set(self):
        assert not deltas_to_bitmap(set(), self.CFG).any()

    def test_corner_deltas(self):
        assert delta_to_index(-128, 128) == 0
        assert delta_to_index(-1, 128) == 127
        assert delta_to_index(+1, 128) == 128
        assert delta_to_index(+128, 128) == 255

    def test_single_delta_cases_all_256(self):
        for d in list(range(-128, 0)) + list(range(1, 129)):
            bits = deltas_to_bitmap({d}, self.CFG)
            assert bits.sum() == 1
            assert bitmap_to_deltas(bits, self.CFG) == {d}

    def test_mapping_oracle_example(self):
        bits = deltas_to_bitmap({+1, +5, -2}, self.CFG)
        assert set(np.flatnonzero(bits)) == {128, 132, 126}

    def test_bit255_is_plus128(self):
        bits = np.zeros(256, dtype=bool)
        bits[255] = True
        assert bitmap_to_deltas(bits, self.CFG) == {+128}

    def test_all_zero_inverse(self):
        assert bitmap_to_deltas(np.zeros(256, dtype=bool), self.CFG) == set()

    def test_exhaustive_small_bound(self):
        # every subset of a 10-bit toy bitmap roundtrips
        cfg = LabelConfig(look_forward=8, delta_bound=5)
        for mask in range(2**10):
            bits = np.array([(mask >> i) & 1 for i in range(10)], dtype=bool)
            assert np.array_equal(deltas_to_bitmap(bitmap_to_deltas(bits, cfg), cfg), bits)

    def test_popcount_equals_set_size(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            size = int(rng.integers(0, 40))
            pool = np.concatenate([np.arange(-128, 0), np.arange(1, 129)])
            deltas = set(rng.choice(pool, size=size, replace=False).tolist())
            assert deltas_to_bitmap(deltas, self.CFG).sum() == len(deltas)

    def test_out_of_bound_delta_rejected(self):
        with pytest.raises(ValueError):
            deltas_to_bitmap({129}, self.CFG)
        with pytest.raises(ValueError):
            deltas_to_bitmap({0}, self.CFG)

    @pytest.mark.parametrize("shape", [(255,), (257,), (1, 256)])
    def test_bitmap_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"bitmap shape {shape} != (256,)")):
            bitmap_to_deltas(np.zeros(shape, dtype=bool), self.CFG)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            index_to_delta(256, 128)

    def test_inter_page_reach(self, addr_cfg):
        # bound 128 > 64 blocks per page: a page crossing is representable from
        # any intra-page position in both directions
        page_blocks = 1 << addr_cfg.block_index_bits
        base_page = 5
        for idx in range(page_blocks):
            block = base_page * page_blocks + idx
            crossings = {
                d for d in range(-128, 129)
                if d != 0 and (block + d) // page_blocks != base_page
            }
            assert crossings, f"no page-crossing delta from index {idx}"


class TestPrefetchAddresses:
    def test_simple_addition(self, addr_cfg):
        assert prefetch_addresses(1000, {+1, -2}, addr_cfg) == {1001, 998}

    def test_underflow_dropped(self, addr_cfg):
        assert prefetch_addresses(0, {-1}, addr_cfg) == set()

    def test_overflow_dropped(self, addr_cfg):
        top = addr_cfg.block_space - 1
        assert prefetch_addresses(top, {+1, -1}, addr_cfg) == {top - 1}

    def test_empty(self, addr_cfg):
        assert prefetch_addresses(1000, set(), addr_cfg) == set()


class TestLabelBitmaps:
    @pytest.mark.parametrize("blocks, cfg, triggers, addr_cfg", [
        pytest.param((2000 + np.random.default_rng(2).integers(-100, 100, size=300).cumsum()).clip(0).tolist(),
                     LabelConfig(look_forward=12, delta_bound=32, skip=1), range(0, 300, 7), AddressConfig(),
                     id="random-walk"),
        # with no offset bits the block space is 2**64, so a far jump must not wrap into a near delta
        pytest.param([0, 2**64 - 1, 5], LabelConfig(look_forward=2, delta_bound=8), range(3),
                     AddressConfig(block_offset_bits=0), id="64-bit-block-space"),
    ])
    def test_matches_scalar_route(self, trace_from_blocks, blocks, cfg, triggers, addr_cfg):
        trace = trace_from_blocks(blocks, addr_cfg=addr_cfg)
        labels = label_bitmaps(np.array(blocks, dtype=np.uint64), np.array(triggers), cfg)
        for row, t in enumerate(triggers):
            expect = deltas_to_bitmap(collect_future_deltas(trace, t, cfg, addr_cfg), cfg)
            assert np.array_equal(labels[row], expect)

    @pytest.mark.parametrize("pattern", [{"name": "random", "region_blocks": 300},
                                         {"name": "region_walks"}])
    @pytest.mark.parametrize("skip", [0, 5])
    def test_matches_per_trigger_loop(self, addr_cfg, pattern, skip):
        trace = generate_trace(pattern, 400, seed=7)
        blocks = block_addresses(trace, addr_cfg)
        cfg = LabelConfig(look_forward=24, delta_bound=128, skip=skip)
        # unsorted, repeated, and reaching the last access: truncated and empty windows
        triggers = np.concatenate([np.arange(0, 400, 3), [399, 0, 380, 398]])
        labels = label_bitmaps(blocks, triggers, cfg)
        signed = blocks.astype(np.int64)
        for row, t in enumerate(triggers):
            d = signed[t + skip + 1: t + skip + 1 + cfg.look_forward] - signed[t]
            d = d[(d != 0) & (np.abs(d) <= cfg.delta_bound)]
            assert np.array_equal(labels[row], deltas_to_bitmap(set(d.tolist()), cfg))
        truncated = triggers + skip + cfg.look_forward >= len(blocks)  # windows cut at the trace end
        assert truncated.any() and not truncated.all()
        assert labels.any()

    def test_skip_zero_equals_plain(self, trace_from_blocks, addr_cfg):
        rng = np.random.default_rng(3)
        blocks = (999 + rng.integers(-50, 50, size=200).cumsum()).clip(0).astype(np.uint64)
        plain = LabelConfig(look_forward=20, delta_bound=64, skip=0)
        triggers = np.arange(200)
        a = label_bitmaps(blocks, triggers, plain)
        b = label_bitmaps(blocks, triggers, LabelConfig(look_forward=20, delta_bound=64))
        assert np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LabelConfig(look_forward=0)
        with pytest.raises(ValueError):
            LabelConfig(skip=-1)
        assert LabelConfig(delta_bound=128).bitmap_size == 256
