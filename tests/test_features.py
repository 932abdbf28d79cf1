import numpy as np
import pytest

from prefetchlab import simulator
from prefetchlab.datasets import build_datasets
from prefetchlab.features import (
    CapacityError,
    FeatureConfig,
    SegmentationConfig,
    TokenDictionary,
    desegment,
    desegment_blocks,
    encode_contexts,
    encode_inputs,
    encode_windows,
    grow_dictionaries,
    history_windows,
    normalize_segments,
    page_distance_context,
    pc_context,
    segment_address,
    segment_blocks,
    tokenize,
)
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import ModelConfig, ModelParams
from prefetchlab.simulator import CacheConfig, LatencyModel, ModelPrefetcher, simulate
from prefetchlab.trace import AddressConfig, generate_trace, split_trace


def slice_oracle(block, segment_bits, total_bits):
    """Independent bit-slicing by string chopping instead of shift/mask."""
    bits = bin(block)[2:].zfill(total_bits)
    count = -(-total_bits // segment_bits)
    top = total_bits - (count - 1) * segment_bits
    pieces = [bits[:top]] + [bits[top + i * segment_bits: top + (i + 1) * segment_bits]
                             for i in range(count - 1)]
    return [int(p, 2) for p in pieces]


class TestSegmentation:
    def test_zero_block(self, addr_cfg):
        seg = segment_address(0, SegmentationConfig(6), addr_cfg)
        assert seg.segments == (0,) * 10

    def test_example_0x41(self, addr_cfg):
        seg = segment_address(0x41, SegmentationConfig(6), addr_cfg)
        assert len(seg.segments) == 10
        assert seg.segments == (0, 0, 0, 0, 0, 0, 0, 0, 1, 1)
        assert seg.normalized[-1] == 1 / 64

    def test_block_index_column_count(self, addr_cfg):
        # s equal to the block index width: segment count is ceil(p/s) + 1
        cfg = SegmentationConfig(addr_cfg.block_index_bits)
        expected = -(-addr_cfg.page_bits // addr_cfg.block_index_bits) + 1
        assert cfg.segment_count(addr_cfg) == 10 == expected

    def test_matches_slicing_oracle(self, addr_cfg):
        rng = np.random.default_rng(0)
        for s in (1, 4, 6, 8, 12, 16):
            cfg = SegmentationConfig(s)
            for block in rng.integers(0, 2**58, size=50, dtype=np.uint64):
                got = segment_address(int(block), cfg, addr_cfg)
                assert list(got.segments) == slice_oracle(int(block), s, 58)

    def test_desegment_zero_and_all_ones(self, addr_cfg):
        cfg = SegmentationConfig(6)
        for block in (0, 0x3FF_FFFF_FFFF_FFFF):
            assert desegment(segment_address(block, cfg, addr_cfg).segments, cfg, addr_cfg) == block

    def test_randomized_roundtrip_all_widths(self, addr_cfg):
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 2**58, size=2000, dtype=np.uint64)
        for s in (1, 4, 6, 8, 12, 16):
            cfg = SegmentationConfig(s)
            segs = segment_blocks(blocks, cfg, addr_cfg)
            assert np.array_equal(desegment_blocks(segs, cfg, addr_cfg), blocks)

    def test_exhaustive_toy_width(self):
        # 16-bit block addresses: exhaustive losslessness
        toy = AddressConfig(addr_bits=22, page_size_bits=12, block_offset_bits=6)
        assert toy.block_bits == 16
        blocks = np.arange(2**16, dtype=np.uint64)
        for s in (1, 3, 5, 7, 16):
            cfg = SegmentationConfig(s)
            segs = segment_blocks(blocks, cfg, toy)
            assert np.array_equal(desegment_blocks(segs, cfg, toy), blocks)

    def test_scalar_vector_agreement(self, addr_cfg):
        rng = np.random.default_rng(2)
        blocks = rng.integers(0, 2**58, size=64, dtype=np.uint64)
        for s in (1, 6, 16):
            cfg = SegmentationConfig(s)
            mat = segment_blocks(blocks, cfg, addr_cfg)
            for i, b in enumerate(blocks):
                assert tuple(mat[i]) == segment_address(int(b), cfg, addr_cfg).segments

    def test_s1_is_binary_expansion(self, addr_cfg):
        block = 0b1011001
        seg = segment_address(block, SegmentationConfig(1), addr_cfg)
        assert "".join(map(str, seg.segments)) == bin(block)[2:].zfill(58)

    def test_segment_out_of_range_rejected(self, addr_cfg):
        cfg = SegmentationConfig(6)
        segs = list(segment_address(0x41, cfg, addr_cfg).segments)
        segs[3] = 64
        with pytest.raises(ValueError, match="out of range"):
            desegment(segs, cfg, addr_cfg)

    def test_block_too_wide_rejected(self, addr_cfg):
        with pytest.raises(ValueError, match="does not fit"):
            segment_address(1 << 58, SegmentationConfig(6), addr_cfg)

    def test_normalized_range(self, addr_cfg):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 2**58, size=500, dtype=np.uint64)
        cfg = SegmentationConfig(6)
        norm = normalize_segments(segment_blocks(blocks, cfg, addr_cfg), cfg)
        assert norm.min() >= 0.0 and norm.max() < 1.0


class TestContexts:
    def test_pc_zero(self):
        assert pc_context(0, 16) == 0.0

    def test_pc_hand_fold(self):
        # chunks of 0x0001000200030004 low-to-high are 4, 3, 2, 1
        chunks = [(0x0001000200030004 >> (16 * k)) & 0xFFFF for k in range(4)]
        assert sum(chunks) == 10
        assert pc_context(0x0001000200030004, 16) == 10 / 65536

    def test_pc_single_chunk(self):
        assert pc_context(0xFFFF, 16) == 65535 / 65536

    def test_pc_hash_bits_bounds(self):
        with pytest.raises(ValueError):
            pc_context(1, 0)
        with pytest.raises(ValueError):
            pc_context(1, 33)

    def test_pd_same_page(self):
        assert page_distance_context(7, 7) == 1.0

    def test_pd_distance_three(self):
        assert page_distance_context(10, 7) == 0.25
        assert page_distance_context(7, 10) == 0.25

    def test_pd_extreme_distance(self):
        v = page_distance_context(2**52 - 1, 0)
        assert 0.0 < v < 1e-10 and np.isfinite(v)

    def test_range_fuzz_million(self):
        rng = np.random.default_rng(4)
        pcs = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        for hb in (5, 16, 32):
            vals = pc_context(pcs, hb)
            assert vals.min() >= 0.0 and vals.max() < 1.0
        pages = rng.integers(0, 2**52, size=1_000_000, dtype=np.uint64)
        ref = rng.integers(0, 2**52, dtype=np.uint64)
        pd = page_distance_context(pages, ref)
        assert pd.min() > 0.0 and pd.max() <= 1.0

    def test_scalar_vector_agreement(self):
        rng = np.random.default_rng(5)
        pcs = rng.integers(0, 2**64, size=100, dtype=np.uint64)
        vec = pc_context(pcs, 16)
        for i, pc in enumerate(pcs):
            assert vec[i] == pc_context(int(pc), 16)


class TestEncoders:
    def test_same_page_pd_all_one(self, addr_cfg):
        blocks = np.arange(100, 109, dtype=np.uint64)  # page 1 throughout
        pcs = np.full(9, 0x400000, dtype=np.uint64)
        context = encode_contexts(pcs, blocks, history_windows(8, 9), addr_cfg, 16)
        assert np.all(context[:, 1] == 1.0)

    def test_default_history_shape(self, addr_cfg):
        rows = encode_inputs(np.arange(9, dtype=np.uint64), FeatureConfig("as", 6), addr_cfg)
        assert rows[history_windows(8, 9)].shape == (9, 10)

    def test_row_zero_is_most_recent(self, addr_cfg):
        blocks = np.array([10, 20, 30, 40], dtype=np.uint64)
        history = encode_inputs(blocks, FeatureConfig("as", 6), addr_cfg)[history_windows(3, 4)]
        assert history[0, -1] == 40 / 64  # low segment of the newest block
        assert history[-1, -1] == 10 / 64

    @pytest.mark.parametrize("mode", ["as", "delta"])
    def test_windows_start_at_the_first_full_window(self, addr_cfg, mode):
        blocks = np.arange(100, 112, dtype=np.uint64) * np.uint64(7)
        pcs = np.arange(12, dtype=np.uint64) << np.uint64(20)
        cfg = FeatureConfig(mode)
        dictionary = grow_dictionaries(blocks, cfg, addr_cfg, train_stop=12).get("delta")
        inputs, contexts = encode_windows(pcs, blocks, cfg, addr_cfg, dictionary, history_len=4)
        first = cfg.warmup(4) - 1
        assert inputs.shape[:2] == contexts.shape[:2] == (12 - first, 4)
        rows = encode_inputs(blocks, cfg, addr_cfg, dictionary)
        for i, trigger in enumerate(range(first, 12)):
            assert np.array_equal(inputs[i], rows[history_windows(trigger, 4)])
            assert np.array_equal(contexts[i], encode_contexts(pcs, blocks, history_windows(trigger, 4),
                                                               addr_cfg, cfg.hash_bits))
        short_inputs, short_contexts = encode_windows(pcs[:first], blocks[:first], cfg, addr_cfg,
                                                      dictionary, history_len=4)
        assert short_inputs.shape[0] == short_contexts.shape[0] == 0

    def test_dictionaries_grow_over_training_range_only(self, addr_cfg):
        blocks = np.array([64, 65, 67, 200, 900], dtype=np.uint64)
        delta = grow_dictionaries(blocks, FeatureConfig("delta"), addr_cfg, train_stop=3)["delta"]
        assert delta.to_pairs() == [[1, 0], [2, 1]]  # jumps into accesses 1 and 2
        page = grow_dictionaries(blocks, FeatureConfig("page_offset"), addr_cfg, train_stop=4)["page"]
        assert page.to_pairs() == [[1, 0], [3, 1]]
        # values first seen after train_stop are out of vocabulary
        assert delta.lookup(133) == delta.oov_token == 2
        assert page.lookup(900 >> addr_cfg.block_index_bits) == page.oov_token == 2
        assert grow_dictionaries(blocks, FeatureConfig("as"), addr_cfg, train_stop=3) == {}


PARITY_PATTERNS = {
    "stride": {"name": "stride", "stride": 3},
    "region_walks": {"name": "region_walks"},
}


class TestOnlineOfflineParity:
    """The model prefetcher feeds the model the rows the offline datasets store."""

    HISTORY = 5

    @pytest.mark.parametrize("mode", ["as", "delta", "page_offset"])
    @pytest.mark.parametrize("pattern", sorted(PARITY_PATTERNS))
    def test_every_trigger_matches_its_dataset_row(self, pattern, mode, addr_cfg, monkeypatch):
        trace = generate_trace(PARITY_PATTERNS[pattern], 600, seed=2)
        feature_cfg = FeatureConfig(mode)
        label_cfg = LabelConfig(look_forward=8, delta_bound=32)
        bundle = build_datasets(trace, split_trace(trace, (0.5, 0.2, 0.3)), feature_cfg,
                                label_cfg, addr_cfg, self.HISTORY)
        stored = {int(t): (ds, i) for ds in (bundle.train, bundle.validation, bundle.test)
                  for i, t in enumerate(ds.triggers)}

        seen = []
        model_predict = simulator.model_predict

        class RecordingPrefetcher(ModelPrefetcher):
            def predict(self, access, block):
                self.ordinal = access.ordinal
                return super().predict(access, block)

        def recording_predict(params, inputs, contexts):
            seen.append((pf.ordinal, inputs, contexts))
            return model_predict(params, inputs, contexts)

        monkeypatch.setattr(simulator, "model_predict", recording_predict)
        model_cfg = ModelConfig(hidden_dim=8, num_heads=2, num_layers=1,
                                output_dim=label_cfg.bitmap_size, history_len=self.HISTORY,
                                input_dim=feature_cfg.input_dim(addr_cfg))
        pf = RecordingPrefetcher(ModelParams.init(model_cfg, seed=0), feature_cfg, label_cfg,
                                 addr_cfg, threshold=0.5,
                                 dictionary=next(iter(bundle.dictionaries.values()), None))
        report = simulate(trace, pf, CacheConfig(sets=16, ways=4), LatencyModel(), addr_cfg)

        assert [o for o, _, _ in seen] == sorted(stored)
        # warm-up: the first trigger with a prediction is the datasets' first trigger
        assert report.cold_start_triggers == seen[0][0] == bundle.train.triggers[0]
        for o, inputs, contexts in seen:  # one (1, N, S) batch per trigger: its dataset row
            ds, i = stored[o]
            assert inputs.dtype == contexts.dtype == np.float32
            assert inputs.shape == (1, self.HISTORY, model_cfg.input_dim)
            assert contexts.shape == (1, self.HISTORY, 2)
            assert np.array_equal(inputs[0], ds.inputs[i])
            assert np.array_equal(contexts[0], ds.contexts[i])


class TestTokenDictionary:
    def test_first_seen_ordering(self):
        d = TokenDictionary([+1, +1, -2])
        assert tokenize([+1, +1, -2], d).tolist() == [0, 0, 1]
        assert len(d) == 2
        assert d.to_pairs() == [[1, 0], [-2, 1]]

    def test_frozen_maps_unknown_to_oov(self):
        d = TokenDictionary([+1])
        assert d.lookup(+1) == 0
        assert d.lookup(-2) == d.oov_token == 1
        assert tokenize([-2, +1, 5], d).tolist() == [1, 0, 1]
        assert len(d) == 1  # lookups never add a value

    def test_capacity_overflow(self):
        assert len(TokenDictionary([1, 2, 2, 1], capacity=2)) == 2  # repeats do not count
        with pytest.raises(CapacityError):
            TokenDictionary([1, 2, 3, 1], capacity=2)

    def test_bijective(self):
        values = [5, -3, 99, 0]
        d = TokenDictionary(values)
        toks = tokenize(values, d)
        assert d.to_pairs() == [[v, int(t)] for v, t in zip(values, toks)]
        d2 = TokenDictionary.from_pairs(d.to_pairs())
        assert tokenize(values, d2).tolist() == toks.tolist()

    def test_pairs_roundtrip(self):
        d = TokenDictionary([7, -1, 12])
        d2 = TokenDictionary.from_pairs(d.to_pairs())
        assert d2.to_pairs() == d.to_pairs()
        assert d2.lookup(-1) == d.lookup(-1)
        assert d2.lookup(555) == d2.oov_token

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_first_seen_dict_reference(self, seed):
        rng = np.random.default_rng(seed)
        edges = np.array([0, -1, 1, 2**52 - 1, 2**52, 2**52 + 1, -2**52 - 1, -2**52, -2**52 + 1])
        pool = np.concatenate([edges, rng.integers(-2**62, 2**62, 40), rng.integers(-50, 50, 40)])
        train = rng.choice(pool, 300)  # repeats
        queries = np.concatenate([rng.choice(pool, 300), rng.integers(-2**63, 2**63 - 1, 50)])
        ref: dict[int, int] = {}
        for v in train.tolist():
            ref.setdefault(v, len(ref))
        d = TokenDictionary(train)
        assert len(d) == d.oov_token == len(ref)
        assert d.to_pairs() == [[v, t] for v, t in ref.items()]
        want = [ref.get(v, len(ref)) for v in queries.tolist()]
        assert tokenize(queries, d).tolist() == want
        assert [d.lookup(v) for v in queries[:20].tolist()] == want[:20]
        d2 = TokenDictionary.from_pairs(d.to_pairs())
        assert d2.to_pairs() == d.to_pairs()
        assert tokenize(queries, d2).tolist() == want

    def test_empty_dictionary_maps_everything_to_zero(self):
        d = TokenDictionary([])
        assert len(d) == d.oov_token == 0
        assert tokenize([0, -5, 2**52], d).tolist() == [0, 0, 0]
        assert tokenize([], d).tolist() == []
        assert d.to_pairs() == [] and TokenDictionary.from_pairs([]).oov_token == 0

    def test_capacity_at_the_distinct_count(self):
        values = [4, -4, 4, 9, 0, 9]
        assert len(TokenDictionary(values, capacity=4)) == 4
        with pytest.raises(CapacityError):
            TokenDictionary(values, capacity=3)

    @pytest.mark.parametrize("pairs", [[[5, 0], [5, 1]], [[5, 0], [6, 2]], [[5, 1]]])
    def test_from_pairs_rejects_repeats_and_gaps(self, pairs):
        with pytest.raises(ValueError):
            TokenDictionary.from_pairs(pairs)


class TestFeatureConfig:
    def test_input_dims(self, addr_cfg):
        assert FeatureConfig("as", segment_bits=6).input_dim(addr_cfg) == 10
        assert FeatureConfig("as", segment_bits=1).input_dim(addr_cfg) == 58
        assert FeatureConfig("delta").input_dim(addr_cfg) == 1
        assert FeatureConfig("page_offset").input_dim(addr_cfg) == 2

    def test_dictionary_need(self):
        assert not FeatureConfig("as").needs_dictionary
        assert FeatureConfig("delta").needs_dictionary
        assert FeatureConfig("page_offset").needs_dictionary

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            FeatureConfig("embedding")
