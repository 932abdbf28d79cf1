"""Labeled dataset assembly and the binary on-disk cache.

A sample pairs one history window of per-position input features and context
pairs with the delta bitmap collected from the trigger's look-forward window.
Token dictionaries for the ablation input modes are built from the training
split and frozen from the start; every split maps values outside them to the
reserved out-of-vocabulary token.

A cache file is sealed (:mod:`prefetchlab.seal`) under magic ``PFDS``. Its
header is u32 version, u32 history length N, u32 input dim S, u32 bitmap size B
and u64 sample count. Its body holds per sample the N*S float32 input row, the
N*2 float32 context row, and the label bitmap packed 8 bits per byte (bit i in
byte i // 8 at bit i % 8), with no padding.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from prefetchlab.features import FeatureConfig, TokenDictionary, encode_windows, grow_dictionaries
# Not called here. The benchmark's tracer (bench/tracing.py) wraps these names
# in this module, so they stay importable from it.
from prefetchlab.features import normalize_segments, pc_context, segment_blocks  # noqa: F401
from prefetchlab.labeling import LabelConfig, label_bitmaps
from prefetchlab.seal import seal, unseal
from prefetchlab.trace import AddressConfig, MemoryAccess, TraceSplit, as_trace, block_addresses

CACHE_MAGIC = b"PFDS"
CACHE_VERSION = 2
_HEADER = "<IIIIQ"  # version, history length, input dim, bitmap size, sample count


@dataclass
class LabeledDataset:
    inputs: np.ndarray    # (n, N, S) float32
    contexts: np.ndarray  # (n, N, 2) float32
    labels: np.ndarray    # (n, B) bool
    triggers: np.ndarray  # (n,) int64 trigger ordinals if built; a loaded split numbers its rows from 0

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
            fh.write(seal(CACHE_MAGIC, _HEADER, (CACHE_VERSION, hist, dim, bits, n), records))

    @classmethod
    def load(cls, path) -> "LabeledDataset":
        with open(path, "rb") as fh:
            (hist, dim, bits, n), body = unseal(fh.read(), CACHE_MAGIC, CACHE_VERSION, _HEADER,
                                                path, "dataset cache")
        if 0 in (hist, dim, bits):
            raise ValueError(f"{path}: zero history length, input dim or bitmap size {hist, dim, bits}")
        try:
            dtype = _record_dtype(hist, dim, bits)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if len(body) != n * dtype.itemsize:
            raise ValueError(f"{path}: dataset cache body is {len(body)} bytes, "
                             f"its header implies {n * dtype.itemsize}")
        records = np.frombuffer(body, dtype, n)
        labels = np.unpackbits(records["labels"], axis=1, bitorder="little")[:, :bits]
        return cls(records["inputs"].copy(), records["contexts"].copy(), labels.astype(bool),
                   np.arange(n, dtype=np.int64))


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
    trace: Sequence[MemoryAccess],
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
    trace is encoded once by :func:`~prefetchlab.features.encode_windows`, as
    in the online model prefetcher; each split takes its triggers' rows.
    """
    trace = as_trace(trace)
    blocks = block_addresses(trace, addr_cfg)
    dictionaries = grow_dictionaries(blocks, feature_cfg, addr_cfg, split.train.stop)
    inputs, contexts = encode_windows(trace.pc, blocks, feature_cfg, addr_cfg,
                                      next(iter(dictionaries.values()), None), history_len)
    triggers = np.arange(feature_cfg.warmup(history_len) - 1, len(trace), dtype=np.int64)
    labels = label_bitmaps(blocks, triggers, label_cfg)

    def take(r: range) -> LabeledDataset:
        lo, hi = np.searchsorted(triggers, [r.start, r.stop])
        return LabeledDataset(inputs[lo:hi], contexts[lo:hi], labels[lo:hi], triggers[lo:hi])

    return DatasetBundle(
        train=take(split.train),
        validation=take(split.validation),
        test=take(split.test),
        dictionaries=dictionaries,
    )


def mean_cycles_per_access(trace: Sequence[MemoryAccess], r: range | None = None) -> float:
    """Average cycle spacing over a trace range (the latency->skip unit bridge).

    Reads the range's two end records, whose cycles are Python ints: a difference of
    int64 cycles could wrap."""
    lo, hi = (0, len(trace)) if r is None else (r.start, r.stop)
    if hi - lo < 2:
        return 1.0
    span = trace[hi - 1].cycle - trace[lo].cycle
    return max(span / (hi - lo - 1), 1e-12)
