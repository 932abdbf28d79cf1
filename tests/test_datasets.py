import hashlib
import struct

import numpy as np
import pytest

from prefetchlab.datasets import LabeledDataset, build_datasets, mean_cycles_per_access
from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig, collect_future_deltas, deltas_to_bitmap
from prefetchlab.model import ModelParams
from prefetchlab.trace import generate_trace, split_trace
from tests.conftest import address_space_cap, make_trace
from tests.test_model import TINY


@pytest.fixture
def small_setup(addr_cfg):
    trace = generate_trace({"name": "page_skip", "deltas": [1, 2, 91]}, 400, seed=3)
    split = split_trace(trace, (0.5, 0.2, 0.3))
    label_cfg = LabelConfig(look_forward=16, delta_bound=64)
    return trace, split, label_cfg


class TestBuildDatasets:
    def test_shapes_and_split_sizes(self, small_setup, addr_cfg):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        assert bundle.train.inputs.shape == (200 - 4, 5, 10)  # warmup eats 4 triggers
        assert bundle.validation.inputs.shape == (80, 5, 10)
        assert bundle.test.inputs.shape == (120, 5, 10)
        assert bundle.train.labels.shape[1] == 128
        assert bundle.dictionary_sizes() == {}

    def test_labels_match_scalar_route(self, small_setup, addr_cfg):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        ds = bundle.validation
        for row in (0, 7, len(ds) - 1):
            t = int(ds.triggers[row])
            expect = deltas_to_bitmap(
                collect_future_deltas(trace, t, label_cfg, addr_cfg), label_cfg
            )
            assert np.array_equal(ds.labels[row], expect)

    def test_history_row_zero_is_most_recent(self, addr_cfg):
        blocks = [100, 200, 300, 400, 500, 600]
        trace = make_trace(blocks)
        split = split_trace(trace, (0.5, 0.2, 0.3))
        bundle = build_datasets(trace, split, FeatureConfig("as", 6),
                                LabelConfig(4, 32), addr_cfg, history_len=3)
        ds = bundle.train
        t = int(ds.triggers[0])
        # low 6-bit segment of the trigger block sits in row 0
        assert ds.inputs[0, 0, -1] == pytest.approx((blocks[t] % 64) / 64)
        assert ds.inputs[0, 2, -1] == pytest.approx((blocks[t - 2] % 64) / 64)

    def test_context_row_zero_pd_is_one(self, small_setup, addr_cfg):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        assert np.all(bundle.test.contexts[:, 0, 1] == 1.0)

    def test_delta_mode_uses_dictionary_frozen_on_train(self, addr_cfg):
        # training range sees deltas {1, 2}; the +7 jumps appear only later
        blocks = list(range(0, 30)) + [40 + 7 * i for i in range(30)]
        trace = make_trace(blocks)
        split = split_trace(trace, (0.5, 0.25, 0.25))
        bundle = build_datasets(trace, split, FeatureConfig("delta"),
                                LabelConfig(4, 32), addr_cfg, history_len=3)
        sizes = bundle.dictionary_sizes()
        assert sizes["delta"] >= 1
        d = bundle.dictionaries["delta"]
        # built from the training range's jumps alone
        train_jumps = np.diff(np.array(blocks[:split.train.stop]))
        assert {v for v, _ in d.to_pairs()} == set(train_jumps.tolist())
        assert d.lookup(7) == d.oov_token
        # out-of-vocabulary jumps in the test split map to the reserved token
        oov_feature = (d.oov_token) / (d.oov_token + 1)
        assert np.any(np.isclose(bundle.test.inputs, oov_feature))

    def test_page_offset_mode_reports_dictionary(self, small_setup, addr_cfg):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("page_offset"), label_cfg,
                                addr_cfg, history_len=5)
        assert bundle.dictionary_sizes()["page"] > 0
        assert bundle.train.inputs.shape[2] == 2

    def test_as_mode_needs_no_storage_others_do(self, small_setup, addr_cfg):
        trace, split, label_cfg = small_setup
        as_bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                   addr_cfg, history_len=5)
        delta_bundle = build_datasets(trace, split, FeatureConfig("delta"), label_cfg,
                                      addr_cfg, history_len=5)
        assert sum(as_bundle.dictionary_sizes().values()) == 0
        assert sum(delta_bundle.dictionary_sizes().values()) > 0

    def test_training_view_drops_empty_labels(self, addr_cfg):
        # far-apart random blocks produce empty labels within the bound
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 2**40, size=100).tolist()
        trace = make_trace(blocks)
        split = split_trace(trace, (0.8, 0.1, 0.1))
        bundle = build_datasets(trace, split, FeatureConfig("as", 6),
                                LabelConfig(8, 16), addr_cfg, history_len=3)
        view = bundle.train.training_view()
        assert len(view) == int(bundle.train.nonempty_mask.sum())
        assert all(view.labels.any(axis=1))


class TestDatasetCache:
    def test_roundtrip(self, small_setup, addr_cfg, tmp_path):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        path = tmp_path / "train.bin"
        bundle.train.save(path)
        loaded = LabeledDataset.load(path)
        assert np.array_equal(loaded.inputs, bundle.train.inputs)
        assert np.array_equal(loaded.contexts, bundle.train.contexts)
        assert np.array_equal(loaded.labels, bundle.train.labels)

    def test_bytes_reproducible(self, small_setup, addr_cfg, tmp_path):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        bundle.test.save(p1)
        bundle.test.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_golden_bytes(self, tmp_path):
        # 2 samples, history 2, input dim 3, 10-bit labels
        inputs = np.array([[[0.5, 0.25, 0.0], [1.0, -2.0, 0.125]],
                           [[3.0, 0.75, 0.5], [0.0, 0.0, 1.5]]], dtype=np.float32)
        contexts = np.array([[[0.5, 1.0], [0.25, 0.5]],
                             [[0.0, 1.0], [0.75, 0.125]]], dtype=np.float32)
        labels = np.zeros((2, 10), dtype=bool)
        labels[0, [0, 3, 9]] = True
        labels[1, [1, 8]] = True
        ds = LabeledDataset(inputs, contexts, labels, np.arange(2))
        expected = b"PFDS" + struct.pack("<IIIIQ", 2, 2, 3, 10, 2)
        expected += struct.pack("<6f", 0.5, 0.25, 0.0, 1.0, -2.0, 0.125)
        expected += struct.pack("<4f", 0.5, 1.0, 0.25, 0.5)
        expected += bytes([0b00001001, 0b00000010])  # bits 0, 3 | bit 9 = byte 1 bit 1
        expected += struct.pack("<6f", 3.0, 0.75, 0.5, 0.0, 0.0, 1.5)
        expected += struct.pack("<4f", 0.0, 1.0, 0.75, 0.125)
        expected += bytes([0b00000010, 0b00000001])  # bit 1 | bit 8 = byte 1 bit 0
        expected += hashlib.sha256(expected).digest()
        path = tmp_path / "golden.bin"
        ds.save(path)
        assert path.read_bytes() == expected
        loaded = LabeledDataset.load(path)
        assert np.array_equal(loaded.inputs, inputs)
        assert np.array_equal(loaded.contexts, contexts)
        assert np.array_equal(loaded.labels, labels)

    def test_empty_roundtrip(self, tmp_path):
        ds = LabeledDataset(np.empty((0, 3, 2), np.float32), np.empty((0, 3, 2), np.float32),
                            np.empty((0, 12), bool), np.empty(0, np.int64))
        path = tmp_path / "empty.bin"
        ds.save(path)
        raw = path.read_bytes()
        assert len(raw) == 28 + 32 and raw[28:] == hashlib.sha256(raw[:28]).digest()
        loaded = LabeledDataset.load(path)
        assert loaded.inputs.shape == (0, 3, 2) and loaded.labels.shape == (0, 12)

    @pytest.mark.parametrize("size", [4, 14, 27])
    def test_short_header_rejected(self, tmp_path, size):
        p = tmp_path / "short.bin"
        p.write_bytes((b"PFDS" + b"\x01" * 40)[:size])
        with pytest.raises(ValueError, match="truncated dataset cache"):
            LabeledDataset.load(p)

    def test_truncated_body_rejected(self, small_setup, addr_cfg, tmp_path):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        p = tmp_path / "cut.bin"
        bundle.test.save(p)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ValueError, match="dataset cache checksum mismatch"):
            LabeledDataset.load(p)

    @pytest.mark.parametrize("where", ["byte 40", "middle", "3 from end"])
    def test_flipped_bit_rejected(self, small_setup, addr_cfg, tmp_path, where):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        p = tmp_path / "flip.bin"
        bundle.test.save(p)
        raw = bytearray(p.read_bytes())
        raw[{"byte 40": 40, "middle": len(raw) // 2, "3 from end": len(raw) - 3}[where]] ^= 0x10
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="flip.bin.*checksum"):
            LabeledDataset.load(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="not a dataset"):
            LabeledDataset.load(p)


def craft_cache(hist, dim, bits, n, body=b""):
    """Dataset cache bytes with the given header and a digest that matches."""
    payload = b"PFDS" + struct.pack("<IIIIQ", 2, hist, dim, bits, n) + body
    return payload + hashlib.sha256(payload).digest()


class TestCraftedCacheHeader:
    @pytest.mark.parametrize("raw", [
        craft_cache(0, 0, 0, 2**40),
        craft_cache(2**31 - 1, 1, 8, 0),
        craft_cache(2**16, 2**16, 8, 1),
        craft_cache(0, 10, 128, 1, b"\0" * 16),
        craft_cache(5, 0, 8, 3, b"\0" * 3 * (5 * 2 * 4 + 1)),
        craft_cache(5, 10, 0, 1, b"\0" * (5 * 10 * 4 + 5 * 2 * 4)),
        craft_cache(2, 3, 10, 5),
    ], ids=["zero-dims-2**40", "hist-2**31-1", "record-2**34", "hist-0", "dim-0", "bits-0",
            "count-5-no-body"])
    def test_rejected_naming_file(self, tmp_path, raw):
        p = tmp_path / "crafted.bin"
        p.write_bytes(raw)
        with address_space_cap(), pytest.raises(ValueError) as exc:
            LabeledDataset.load(p)
        assert str(exc.value).startswith(f"{p}: ")


class TestCrossLoad:
    """The checkpoint and the dataset cache are both sealed files, checked in one order:
    a damaged file fails the same named check in either loader."""

    LOADERS = {"checkpoint": ModelParams.load, "dataset cache": LabeledDataset.load}

    @pytest.fixture
    def sealed(self, small_setup, addr_cfg, tmp_path):
        trace, split, label_cfg = small_setup
        bundle = build_datasets(trace, split, FeatureConfig("as", 6), label_cfg,
                                addr_cfg, history_len=5)
        bundle.test.save(tmp_path / "built.bin")
        return {"checkpoint": ModelParams.init(TINY, seed=1).encode(),
                "dataset cache": (tmp_path / "built.bin").read_bytes()}

    @staticmethod
    def flipped(raw):
        bad = bytearray(raw)
        bad[len(raw) // 2] ^= 0x10
        return bytes(bad)

    @pytest.mark.parametrize("case, check", [
        ("junk", "not a {} file"),
        ("cut", "{} checksum mismatch"),
        ("flip", "{} checksum mismatch"),
        ("other", "not a {} file"),
    ])
    def test_same_check_in_both_loaders(self, sealed, tmp_path, case, check):
        for what, load in self.LOADERS.items():
            own = sealed[what]
            (other,) = (raw for name, raw in sealed.items() if name != what)
            p = tmp_path / f"{case}.bin"
            p.write_bytes({"junk": bytes(range(100)), "cut": own[:len(own) // 2],
                           "flip": self.flipped(own), "other": other}[case])
            with pytest.raises(ValueError) as exc:
                load(p)
            assert str(exc.value) == f"{p}: {check.format(what)}"


class TestMeanCyclesPerAccess:
    def test_uniform_spacing(self):
        trace = make_trace(list(range(10)), cycle_step=25)
        assert mean_cycles_per_access(trace) == pytest.approx(25.0)

    def test_range_restriction(self):
        trace = make_trace(list(range(10)), cycle_step=4)
        assert mean_cycles_per_access(trace, range(2, 8)) == pytest.approx(4.0)

    def test_degenerate(self):
        trace = make_trace([1])
        assert mean_cycles_per_access(trace) == 1.0
