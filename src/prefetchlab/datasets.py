"""Labeled dataset assembly and the binary on-disk cache.

A sample pairs one history window of per-position input features and context
pairs with the delta bitmap collected from the trigger's look-forward window.
Token dictionaries for the ablation input modes grow only while scanning the
training split, then freeze; later splits map unseen values to the reserved
out-of-vocabulary token.

Cache file layout (little-endian): magic ``PFDS``, u32 version, u32 history
length N, u32 input dim S, u32 bitmap size B, u64 sample count; then per sample
the N*S float32 input row, the N*2 float32 context row, and the label bitmap
packed 8 bits per byte (bit i in byte i // 8 at bit i % 8), with no padding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from prefetchlab.features import (
    FeatureConfig,
    TokenDictionary,
    encode_contexts,
    encode_inputs,
    grow_dictionaries,
    history_windows,
)
# Not called here. The benchmark's tracer (bench/tracing.py) wraps these names
# in this module, so they stay importable from it.
from prefetchlab.features import normalize_segments, pc_context, segment_blocks  # noqa: F401
from prefetchlab.labeling import LabelConfig, label_bitmaps
from prefetchlab.trace import AddressConfig, MemoryAccess, TraceSplit, block_addresses

CACHE_MAGIC = b"PFDS"
CACHE_VERSION = 1
_HEADER = "<IIIIQ"  # version, history length, input dim, bitmap size, sample count


@dataclass
class LabeledDataset:
    inputs: np.ndarray    # (n, N, S) float32
    contexts: np.ndarray  # (n, N, 2) float32
    labels: np.ndarray    # (n, B) bool
    triggers: np.ndarray  # (n,) int64 trigger ordinals (in-memory bookkeeping only)

    def __post_init__(self):
        if not (len(self.inputs) == len(self.contexts) == len(self.labels) == len(self.triggers)):
            raise ValueError("dataset arrays disagree on sample count")

    def __len__(self):
        return self.inputs.shape[0]

    @property
    def nonempty_mask(self) -> np.ndarray:
        """Samples with at least one labeled delta (the training subset)."""
        return self.labels.any(axis=1)

    def training_view(self) -> "LabeledDataset":
        """Drop empty-label samples; they stay in the full set for evaluation."""
        keep = self.nonempty_mask
        return LabeledDataset(
            self.inputs[keep], self.contexts[keep], self.labels[keep], self.triggers[keep]
        )

    def save(self, path):
        n, hist, dim = self.inputs.shape
        bits = self.labels.shape[1]
        records = np.empty(n, _record_dtype(hist, dim, bits))
        records["inputs"] = self.inputs
        records["contexts"] = self.contexts
        records["labels"] = np.packbits(self.labels, axis=1, bitorder="little")
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack(_HEADER, CACHE_VERSION, hist, dim, bits, n))
            fh.write(records.tobytes())

    @classmethod
    def load(cls, path) -> "LabeledDataset":
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != CACHE_MAGIC:
            raise ValueError(f"{path}: not a dataset cache file")
        offset = 4 + struct.calcsize(_HEADER)
        if len(raw) < offset:
            raise ValueError(f"{path}: truncated dataset cache")
        version, hist, dim, bits, n = struct.unpack_from(_HEADER, raw, 4)
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported dataset cache version {version}")
        dtype = _record_dtype(hist, dim, bits)
        if len(raw) - offset != n * dtype.itemsize:
            raise ValueError(f"{path}: truncated dataset cache")
        records = np.frombuffer(raw, dtype, n, offset)
        labels = np.unpackbits(records["labels"], axis=1, bitorder="little")[:, :bits]
        return cls(
            records["inputs"].astype(np.float32),
            records["contexts"].astype(np.float32),
            labels.astype(bool),
            np.arange(n, dtype=np.int64),
        )


def _record_dtype(hist: int, dim: int, bits: int) -> np.dtype:
    """One cached sample, packed with no padding (see the module docstring)."""
    return np.dtype([
        ("inputs", "<f4", (hist, dim)),
        ("contexts", "<f4", (hist, 2)),
        ("labels", "u1", ((bits + 7) // 8,)),
    ])


@dataclass
class DatasetBundle:
    """Per-split datasets plus the dictionaries used to build them."""

    train: LabeledDataset
    validation: LabeledDataset
    test: LabeledDataset
    dictionaries: dict[str, TokenDictionary]

    def dictionary_sizes(self) -> dict[str, int]:
        """Storage accounting: entries per token dictionary (empty for AS input)."""
        return {name: len(d) for name, d in self.dictionaries.items()}


def build_datasets(
    trace: list[MemoryAccess],
    split: TraceSplit,
    feature_cfg: FeatureConfig,
    label_cfg: LabelConfig,
    addr_cfg: AddressConfig,
    history_len: int,
) -> DatasetBundle:
    """Assemble train/validation/test datasets from one trace.

    Trigger t's history covers accesses t-N+1..t (row 0 = t, the most recent);
    its label covers the look-forward window after t+skip. History windows may
    reach back across a split boundary (the online prefetcher sees the same
    stream), so the first triggers of each split are not dropped. The whole
    trace is encoded once; each split takes its triggers' rows.
    """
    blocks = block_addresses(trace, addr_cfg)
    pcs = np.fromiter((a.pc for a in trace), dtype=np.uint64, count=len(trace))
    dictionaries = grow_dictionaries(blocks, feature_cfg, addr_cfg, split.train.stop)
    rows = encode_inputs(blocks, feature_cfg, addr_cfg, next(iter(dictionaries.values()), None))
    triggers = np.arange(feature_cfg.warmup(history_len) - 1, len(trace), dtype=np.int64)
    windows = history_windows(triggers, history_len)
    inputs = rows[windows].astype(np.float32)
    contexts = encode_contexts(pcs, blocks, windows, addr_cfg, feature_cfg.hash_bits).astype(np.float32)
    labels, _ = label_bitmaps(blocks, triggers, label_cfg)

    def take(r: range) -> LabeledDataset:
        lo, hi = np.searchsorted(triggers, [r.start, r.stop])
        return LabeledDataset(inputs[lo:hi], contexts[lo:hi], labels[lo:hi], triggers[lo:hi])

    return DatasetBundle(
        train=take(split.train),
        validation=take(split.validation),
        test=take(split.test),
        dictionaries=dictionaries,
    )


def mean_cycles_per_access(trace: list[MemoryAccess], r: range | None = None) -> float:
    """Average cycle spacing over a trace range (the latency->skip unit bridge)."""
    lo, hi = (0, len(trace)) if r is None else (r.start, r.stop)
    if hi - lo < 2:
        return 1.0
    span = trace[hi - 1].cycle - trace[lo].cycle
    return max(span / (hi - lo - 1), 1e-12)
