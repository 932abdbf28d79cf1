"""Delta-bitmap labels: collecting future deltas, the bitmap mapping and its inverse.

A label is the unordered set of bounded, nonzero block deltas observed within a
look-forward window after the trigger access. Distance labeling shifts the window
start by ``skip`` accesses so predictions stay timely under inference latency.

Bit layout (the fixed bijection): negative deltas -bound..-1 occupy bits
0..bound-1 (index = delta + bound); positive deltas +1..+bound occupy bits
bound..2*bound-1 (index = delta + bound - 1). Delta 0 has no slot.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from prefetchlab.schema import config, field
from prefetchlab.trace import AddressConfig, MemoryAccess, block_address


@config
class LabelConfig:
    look_forward: int = field(128, ge=1)  # accesses scanned after the trigger
    delta_bound: int = field(128, ge=1)   # max |delta| in blocks
    skip: int = field(0, ge=0)            # distance-labeling skip, in accesses

    @property
    def bitmap_size(self) -> int:
        return 2 * self.delta_bound


def delta_to_index(delta: int, bound: int) -> int:
    if delta == 0 or not -bound <= delta <= bound:
        raise ValueError(f"delta {delta} outside [-{bound}, {bound}] \\ {{0}}")
    return delta + bound if delta < 0 else delta + bound - 1


def index_to_delta(index: int, bound: int) -> int:
    if not 0 <= index < 2 * bound:
        raise ValueError(f"bit index {index} outside [0, {2 * bound})")
    return index - bound if index < bound else index - bound + 1


def collect_future_deltas(
    trace: Sequence[MemoryAccess], trigger: int, cfg: LabelConfig, addr_cfg: AddressConfig
) -> set[int]:
    """Bounded nonzero block deltas from the trigger to the accesses in its window.

    The window covers accesses trigger+skip+1 .. trigger+skip+look_forward and
    silently truncates at the end of the trace. Duplicates collapse; delta 0 and
    out-of-bound deltas are excluded.
    """
    base = block_address(trace[trigger].vaddr, addr_cfg)
    start = trigger + cfg.skip + 1
    stop = min(start + cfg.look_forward, len(trace))
    out = set()
    for j in range(start, stop):
        d = block_address(trace[j].vaddr, addr_cfg) - base
        if d != 0 and -cfg.delta_bound <= d <= cfg.delta_bound:
            out.add(d)
    return out


def deltas_to_bitmap(deltas, cfg: LabelConfig) -> np.ndarray:
    """Delta set -> boolean bitmap with exactly one bit per delta."""
    bits = np.zeros(cfg.bitmap_size, dtype=bool)
    for d in deltas:
        bits[delta_to_index(int(d), cfg.delta_bound)] = True
    return bits


def bitmap_to_deltas(bitmap: np.ndarray, cfg: LabelConfig) -> set[int]:
    """Exact inverse of :func:`deltas_to_bitmap`."""
    bitmap = np.asarray(bitmap, dtype=bool)
    if bitmap.shape != (cfg.bitmap_size,):
        raise ValueError(f"bitmap shape {bitmap.shape} != ({cfg.bitmap_size},)")
    return {index_to_delta(int(i), cfg.delta_bound) for i in np.flatnonzero(bitmap)}


def prefetch_addresses(current_block: int, deltas, addr_cfg: AddressConfig) -> set[int]:
    """Blocks to prefetch: current block plus each delta, dropping out-of-space results."""
    space = addr_cfg.block_space
    return {
        current_block + int(d)
        for d in deltas
        if 0 <= current_block + int(d) < space
    }


def label_bitmaps(blocks: np.ndarray, triggers: np.ndarray, cfg: LabelConfig) -> np.ndarray:
    """Vectorized label construction over many triggers: an (n, bitmap_size) bool array.

    The loop runs over the ``look_forward`` window offsets, setting one bit per
    trigger at each offset; a window that runs past the trace end is cut short.
    """
    blocks = np.asarray(blocks, dtype=np.uint64)
    triggers = np.asarray(triggers, dtype=np.int64)
    n_trace = blocks.shape[0]
    bound = cfg.delta_bound
    labels = np.zeros((len(triggers), cfg.bitmap_size), dtype=bool)
    rows = np.arange(len(triggers))
    for offset in range(cfg.skip + 1, cfg.skip + cfg.look_forward + 1):
        live = triggers + offset < n_trace
        t = triggers[live]
        future, base = blocks[t + offset], blocks[t]
        # |delta| as uint64, so a jump across a 2**64 block space cannot wrap into a small delta
        ahead = future > base
        dist = np.where(ahead, future - base, base - future)
        keep = (dist != 0) & (dist <= bound)
        dist = dist[keep].astype(np.int64)
        labels[rows[live][keep], np.where(ahead[keep], dist + bound - 1, bound - dist)] = True
    return labels
