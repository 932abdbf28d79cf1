import resource
import sys
from contextlib import contextmanager

import pytest

from prefetchlab.trace import AddressConfig, MemoryAccess


@pytest.fixture
def addr_cfg():
    return AddressConfig()


def make_trace(blocks, pcs=None, cycle_step=1, addr_cfg=None):
    """Trace from a list of block addresses (offset 0 within each block)."""
    cfg = addr_cfg or AddressConfig()
    if pcs is None:
        pcs = [0x400000] * len(blocks)
    return [
        MemoryAccess(i, i * cycle_step, pc, b << cfg.block_offset_bits)
        for i, (b, pc) in enumerate(zip(blocks, pcs))
    ]


@pytest.fixture
def trace_from_blocks():
    return make_trace


@contextmanager
def address_space_cap(extra=1 << 30):
    """Lower this process's address-space limit to its current size plus ``extra``,
    so code that sizes an array from a corrupt header fails fast instead of
    taking the machine's memory."""
    if not sys.platform.startswith("linux"):
        yield
        return
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
