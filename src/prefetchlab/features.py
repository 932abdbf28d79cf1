"""Model input construction: address segmentation, context features, token dictionaries.

Address segmentation slices a block address into fixed-width integer segments that
feed the model directly, with no token dictionary. The dictionary-backed input
modes (delta, page & offset) exist for ablation comparisons and report their
storage cost.

This module is the one place that turns accesses into model rows: the offline
datasets (:func:`prefetchlab.datasets.build_datasets`) and the online model
prefetcher both call :func:`encode_windows`, so training and simulation see the
same windows: float64 math, rounded to float32 once, at the end of each encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from prefetchlab.schema import config, field
from prefetchlab.trace import AddressConfig, page_of_block


class CapacityError(Exception):
    """The training values hold more distinct values than a token dictionary's capacity."""


@config
class SegmentationConfig:
    """Fixed segment width in bits; the count follows from the block address width."""

    segment_bits: int = field(6, ge=1)

    def segment_count(self, addr_cfg: AddressConfig) -> int:
        if self.segment_bits > addr_cfg.block_bits:
            raise ValueError(
                f"segment_bits {self.segment_bits} wider than the {addr_cfg.block_bits}-bit block address"
            )
        return math.ceil(addr_cfg.block_bits / self.segment_bits)


@dataclass(frozen=True)
class SegmentedAddress:
    """A block address as most-significant-first integer segments plus their [0,1) scaling."""

    segments: tuple[int, ...]
    normalized: tuple[float, ...]


def _segment_layout(cfg: SegmentationConfig, addr_cfg: AddressConfig):
    """Per-segment (shift, mask) pairs, most significant segment first.

    The top segment holds the leftover high bits when the block width is not a
    multiple of the segment width; all others hold exactly ``segment_bits``.
    """
    s = cfg.segment_bits
    total = addr_cfg.block_bits
    count = cfg.segment_count(addr_cfg)
    top_bits = total - (count - 1) * s
    shifts, masks = [], []
    for j in range(count):
        shifts.append((count - 1 - j) * s)
        masks.append((1 << (top_bits if j == 0 else s)) - 1)
    return shifts, masks


def segment_address(
    block: int, cfg: SegmentationConfig, addr_cfg: AddressConfig
) -> SegmentedAddress:
    """Slice one block address into segments; normalized = segments / 2**segment_bits."""
    if not 0 <= block < addr_cfg.block_space:
        raise ValueError(f"block {block:#x} does not fit in {addr_cfg.block_bits} bits")
    shifts, masks = _segment_layout(cfg, addr_cfg)
    segs = tuple((block >> sh) & m for sh, m in zip(shifts, masks))
    scale = 1.0 / (1 << cfg.segment_bits)
    return SegmentedAddress(segs, tuple(v * scale for v in segs))


def desegment(
    segments: Sequence[int], cfg: SegmentationConfig, addr_cfg: AddressConfig
) -> int:
    """Exact inverse of :func:`segment_address`."""
    shifts, masks = _segment_layout(cfg, addr_cfg)
    if len(segments) != len(shifts):
        raise ValueError(f"expected {len(shifts)} segments, got {len(segments)}")
    block = 0
    for j, (v, sh, m) in enumerate(zip(segments, shifts, masks)):
        v = int(v)
        if not 0 <= v <= m:
            raise ValueError(f"segment {j} value {v} out of range [0, {m}]")
        block |= v << sh
    return block


def segment_blocks(
    blocks: np.ndarray, cfg: SegmentationConfig, addr_cfg: AddressConfig
) -> np.ndarray:
    """Vectorized segmentation of a uint64 block array -> (n, S) int64 matrix."""
    blocks = np.asarray(blocks, dtype=np.uint64)
    shifts, masks = _segment_layout(cfg, addr_cfg)
    out = np.empty((blocks.shape[0], len(shifts)), dtype=np.int64)
    for j, (sh, m) in enumerate(zip(shifts, masks)):
        out[:, j] = ((blocks >> np.uint64(sh)) & np.uint64(m)).astype(np.int64)
    return out


def desegment_blocks(
    segments: np.ndarray, cfg: SegmentationConfig, addr_cfg: AddressConfig
) -> np.ndarray:
    """Vectorized inverse of :func:`segment_blocks` -> uint64 block array."""
    segments = np.asarray(segments)
    shifts, masks = _segment_layout(cfg, addr_cfg)
    if segments.shape[1] != len(shifts):
        raise ValueError(f"expected {len(shifts)} segments, got {segments.shape[1]}")
    for j, m in enumerate(masks):
        col = segments[:, j]
        if col.min() < 0 or col.max() > m:
            raise ValueError(f"segment {j} holds values outside [0, {m}]")
    out = np.zeros(segments.shape[0], dtype=np.uint64)
    for j, sh in enumerate(shifts):
        out |= segments[:, j].astype(np.uint64) << np.uint64(sh)
    return out


def normalize_segments(segments: np.ndarray, cfg: SegmentationConfig) -> np.ndarray:
    return np.asarray(segments, dtype=np.float64) / float(1 << cfg.segment_bits)


def pc_context(pc, hash_bits: int):
    """Fold a 64-bit program counter into [0, 1).

    The PC is split into ceil(64/hash_bits) chunks of ``hash_bits`` bits, low to
    high; the chunks are summed modulo 2**hash_bits and scaled by 2**-hash_bits.
    Accepts an int or a uint64 ndarray.
    """
    if not 1 <= hash_bits <= 32:
        raise ValueError(f"hash_bits must be in [1, 32], got {hash_bits}")
    chunks = math.ceil(64 / hash_bits)
    modulus = 1 << hash_bits
    if isinstance(pc, np.ndarray):
        pc = pc.astype(np.uint64)
        mask = np.uint64(modulus - 1)
        acc = np.zeros_like(pc)
        for k in range(chunks):
            acc += (pc >> np.uint64(k * hash_bits)) & mask
        return (acc % np.uint64(modulus)).astype(np.float64) / modulus
    mask = modulus - 1
    acc = 0
    for k in range(chunks):
        acc += (int(pc) >> (k * hash_bits)) & mask
    return (acc % modulus) / modulus


def page_distance_context(page_n, page_1):
    """Inverse page distance 1/(|page_n - page_1| + 1); equals 1 on the current page."""
    diff = np.abs(np.asarray(page_n, dtype=np.int64) - np.asarray(page_1, dtype=np.int64))
    return 1.0 / (diff.astype(np.float64) + 1.0)


# ---------------------------------------------------------------------------
# Token dictionaries (ablation input modes only)
# ---------------------------------------------------------------------------


class TokenDictionary:
    """Bijective value<->token map, built whole from the training values.

    Tokens number the distinct ``values`` in order of first sight; any other value
    maps to the reserved out-of-vocabulary token, one past the last assigned id.
    """

    def __init__(self, values, capacity: int | None = None):
        distinct, first = np.unique(np.asarray(values, dtype=np.int64), return_index=True)
        if capacity is not None and len(distinct) > capacity:
            raise CapacityError(f"{len(distinct)} distinct values exceed token dictionary capacity {capacity}")
        order = np.argsort(first)
        self._values = distinct[order]  # value of each token
        self._sorted = distinct
        self._tokens = np.empty(len(distinct), dtype=np.int64)  # token of each sorted value
        self._tokens[order] = np.arange(len(distinct))

    def __len__(self) -> int:
        return len(self._values)

    @property
    def oov_token(self) -> int:
        return len(self._values)

    def lookup(self, value: int) -> int:
        return int(tokenize([value], self)[0])

    def to_pairs(self) -> list[list[int]]:
        """(value, token) pairs in token order, for artifact serialization."""
        return [[int(value), t] for t, value in enumerate(self._values)]

    @classmethod
    def from_pairs(cls, pairs) -> "TokenDictionary":
        """The dictionary ``to_pairs`` serialized."""
        if [int(token) for _, token in pairs] != list(range(len(pairs))):
            raise ValueError("serialized dictionary tokens are not 0, 1, ... in order")
        d = cls([int(value) for value, _ in pairs])
        if len(d) != len(pairs):
            raise ValueError("serialized dictionary repeats a value")
        return d


def tokenize(values, dictionary: TokenDictionary) -> np.ndarray:
    """Map values to tokens; values outside the dictionary map to its oov_token."""
    values = np.asarray(values, dtype=np.int64)
    if not len(dictionary):
        return np.zeros(values.shape, dtype=np.int64)
    at = np.minimum(np.searchsorted(dictionary._sorted, values), len(dictionary) - 1)
    return np.where(dictionary._sorted[at] == values, dictionary._tokens[at], dictionary.oov_token)


# ---------------------------------------------------------------------------
# Input modes
# ---------------------------------------------------------------------------


@config
class FeatureConfig:
    """Which per-position input features feed the model.

    mode "as": segmented absolute block address (dictionary-free).
    mode "delta": tokenized jump between consecutive block addresses (needs a dictionary).
    mode "page_offset": tokenized page id plus raw block index (needs a dictionary).
    """

    mode: str = field("as", one_of=("as", "delta", "page_offset"))
    segment_bits: int = field(6, ge=1)
    hash_bits: int = field(16, ge=1, le=32)  # pc_context's range
    dictionary_capacity: int | None = field(None, ge=1)

    def input_dim(self, addr_cfg: AddressConfig) -> int:
        if self.mode == "as":
            return SegmentationConfig(self.segment_bits).segment_count(addr_cfg)
        if self.mode == "delta":
            return 1
        return 2

    @property
    def needs_dictionary(self) -> bool:
        return self.mode != "as"

    def warmup(self, history_len: int) -> int:
        """Accesses needed before the first full history window.

        Delta rows hold the jump into each access, so the oldest row needs one
        more access before it.
        """
        return history_len + (1 if self.mode == "delta" else 0)


def _token_values(blocks: np.ndarray, cfg: FeatureConfig, addr_cfg: AddressConfig) -> np.ndarray:
    """Per-access values a dictionary mode tokenizes: the jump into each access
    (0 for the first, which has none) or its page."""
    if cfg.mode == "delta":
        jumps = np.zeros(len(blocks), dtype=np.int64)
        jumps[1:] = blocks[1:].astype(np.int64) - blocks[:-1].astype(np.int64)
        return jumps
    return page_of_block(blocks, addr_cfg)


def grow_dictionaries(
    blocks: np.ndarray, cfg: FeatureConfig, addr_cfg: AddressConfig, train_stop: int
) -> dict[str, TokenDictionary]:
    """The mode's token dictionary, built from the training range.

    Delta jumps come from accesses [1, train_stop), pages from [0, train_stop).
    Returns {} for AS input, else {"delta": ...} or {"page": ...}.
    """
    if not cfg.needs_dictionary:
        return {}
    blocks = np.asarray(blocks, dtype=np.uint64)
    first = 1 if cfg.mode == "delta" else 0
    dictionary = TokenDictionary(_token_values(blocks, cfg, addr_cfg)[first:train_stop], cfg.dictionary_capacity)
    return {"delta" if cfg.mode == "delta" else "page": dictionary}


def encode_inputs(
    blocks: np.ndarray,
    cfg: FeatureConfig,
    addr_cfg: AddressConfig,
    dictionary: TokenDictionary | None = None,
) -> np.ndarray:
    """Per-access input rows, (m, input_dim) float32, for ``blocks`` in trace order.

    AS rows are the normalized segments. Dictionary modes map each value through
    ``dictionary`` and scale the token by oov_token + 1; page_offset
    rows add the in-page block index scaled into [0, 1). The first delta row
    holds no real jump and only fills the slot.
    """
    blocks = np.asarray(blocks, dtype=np.uint64)
    if cfg.mode == "as":
        seg_cfg = SegmentationConfig(cfg.segment_bits)
        rows = normalize_segments(segment_blocks(blocks, seg_cfg, addr_cfg), seg_cfg)
    else:
        toks = tokenize(_token_values(blocks, cfg, addr_cfg), dictionary) / (dictionary.oov_token + 1)
        rows = toks[:, None]
        if cfg.mode == "page_offset":
            index_space = 1 << addr_cfg.block_index_bits
            offsets = (blocks & np.uint64(index_space - 1)).astype(np.float64)
            rows = np.stack([toks, offsets / index_space], axis=1)
    return rows.astype(np.float32)


def history_windows(triggers, history_len: int) -> np.ndarray:
    """Access indices of each trigger's history window, shape (..., N).

    Row 0 is the trigger itself (the most recent access), row j the access j
    steps before it.
    """
    return np.asarray(triggers)[..., None] - np.arange(history_len)


def encode_contexts(
    pcs: np.ndarray,
    blocks: np.ndarray,
    windows: np.ndarray,
    addr_cfg: AddressConfig,
    hash_bits: int,
) -> np.ndarray:
    """Context pairs (pc fold, inverse page distance), shape (..., N, 2) float32.

    ``pcs`` and ``blocks`` hold accesses in trace order and ``windows`` indexes
    them as :func:`history_windows` does. Page distance is measured against each
    window's row 0, so it is exactly 1.0 there.
    """
    pages = page_of_block(np.asarray(blocks, dtype=np.uint64), addr_cfg)
    pd = page_distance_context(pages[windows], pages[windows[..., :1]])
    return np.stack([pc_context(pcs, hash_bits)[windows], pd], axis=-1).astype(np.float32)


def encode_windows(pcs: np.ndarray, blocks: np.ndarray, cfg: FeatureConfig, addr_cfg: AddressConfig,
                   dictionary: TokenDictionary | None, history_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 inputs (n, N, input_dim) and contexts (n, N, 2) of every trigger with a full
    history window: row ``i`` is access ``i + cfg.warmup(history_len) - 1``'s window."""
    windows = history_windows(np.arange(cfg.warmup(history_len) - 1, len(blocks)), history_len)
    inputs = encode_inputs(blocks, cfg, addr_cfg, dictionary)[windows]
    return inputs, encode_contexts(pcs, blocks, windows, addr_cfg, cfg.hash_bits)
