"""Memory access traces: the record model, CSV file IO, splitting, and synthetic generators.

A trace is a :class:`Trace`: three numpy columns, ``cycle``, ``pc`` and ``vaddr``,
with one entry per access, read as a sequence of :class:`MemoryAccess` records whose
ordinal is their index. Functions that take a trace also take a plain list of
records, likewise numbered by position (:func:`as_trace`). On disk a trace is one
CSV line per record, ``ordinal,cycle,pc_hex,vaddr_hex``, with ``#`` comment lines
and optional gzip (detected by magic bytes on read, selected by a ``.gz`` suffix).
"""

from __future__ import annotations

import array
import functools
import gzip
import io
import itertools
import math
import numbers
import operator
import os
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from prefetchlab.schema import config, field

GZIP_MAGIC = b"\x1f\x8b"


class TraceError(Exception):
    """Base class for trace problems."""


class TraceParseError(TraceError):
    """A trace file line could not be parsed."""


class EmptyTraceError(TraceError):
    """The trace file contains no records."""


class SplitError(ValueError):
    """The trace cannot be split as requested."""


class PatternError(ValueError):
    """Unknown synthetic pattern name or bad pattern parameters."""


class MemoryAccess(NamedTuple):
    """One trace record: an immutable tuple ``(ordinal, cycle, pc, vaddr)``.

    ordinal: record index, strictly increasing from 0 within a trace.
    cycle:   simulated time in cycles, non-decreasing with ordinal.
    pc:      64-bit instruction address.
    vaddr:   64-bit virtual byte address.

    A tuple rather than a dataclass because a :class:`Trace` builds one record
    per access it hands out: a tuple is cheaper to build, and compares equal to
    the plain tuple of its fields.
    """

    ordinal: int
    cycle: int
    pc: int
    vaddr: int


CHUNK = 4096  # records built per step when a trace is iterated or written


class Trace(Sequence[MemoryAccess]):
    """A trace held as three read-only numpy columns with one entry per access.

    ``cycle`` is int64, since a negative first cycle is legal; ``pc`` and ``vaddr``
    are uint64. A record's ordinal is its index. As a sequence of records, ``t[i]``
    builds one record, iteration builds them ``CHUNK`` at a time, and a slice is a
    Trace over views of the columns, its ordinals counted from 0 again. A Trace
    equals any sequence that holds the same records.
    """

    __slots__ = ("cycle", "pc", "vaddr")

    def __init__(self, cycle, pc, vaddr):
        columns = [np.asarray(cycle, np.int64), np.asarray(pc, np.uint64), np.asarray(vaddr, np.uint64)]
        if columns[0].ndim != 1 or not len(columns[0]) == len(columns[1]) == len(columns[2]):
            raise ValueError(f"trace columns must be 1-D and of one length, got shapes "
                             f"{[c.shape for c in columns]}")
        self.cycle, self.pc, self.vaddr = map(_read_only, columns)

    def __len__(self) -> int:
        return len(self.cycle)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.cycle[index], self.pc[index], self.vaddr[index])
        i = range(len(self))[index]  # counts a negative index from the end; raises IndexError past either end
        return MemoryAccess(i, int(self.cycle[i]), int(self.pc[i]), int(self.vaddr[i]))

    def _rows(self, lo: int):
        """``(ordinal, cycle, pc, vaddr)`` tuples of Python ints, of the ``CHUNK`` records from ``lo``."""
        s = slice(lo, lo + CHUNK)
        return zip(itertools.count(lo), self.cycle[s].tolist(), self.pc[s].tolist(), self.vaddr[s].tolist())

    def __iter__(self):
        new, cls = tuple.__new__, itertools.repeat(MemoryAccess)
        chunks = (map(new, cls, self._rows(lo)) for lo in range(0, len(self), CHUNK))
        return itertools.chain.from_iterable(chunks)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return all(map(np.array_equal, (self.cycle, self.pc, self.vaddr),
                           (other.cycle, other.pc, other.vaddr)))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Trace({len(self)} records)"


def _read_only(column: np.ndarray) -> np.ndarray:
    view = column.view()
    view.flags.writeable = False
    return view


def as_trace(trace: Sequence[MemoryAccess]) -> Trace:
    """``trace`` itself if it is a :class:`Trace`, else a Trace of the records' fields,
    numbered by position. Raises :class:`TraceError`, naming the record and field, for a
    value that is not an integer of its column's dtype and for a cycle below the one before."""
    if isinstance(trace, Trace):
        return trace
    columns = []
    for name, dtype in (("cycle", np.int64), ("pc", np.uint64), ("vaddr", np.uint64)):
        values, info = list(map(operator.attrgetter(name), trace)), np.iinfo(dtype)
        fits = _ints(int(info.min), int(info.max) + 1)
        if not all(map(fits, values)):
            i = next(i for i, v in enumerate(values) if not fits(v))
            raise TraceError(f"record {i}: {name} {values[i]!r} is not an integer that fits in {info.dtype}")
        columns.append(np.array(values, dtype))
    down = np.flatnonzero(columns[0][1:] < columns[0][:-1]) + 1
    if down.size:
        raise TraceError(f"record {down[0]}: cycle {columns[0][down[0]]} decreases")
    return Trace(*columns)


@config
class AddressConfig:
    """Widths of the address fields.

    The block address is the byte address with the intra-block offset removed:
    ``page_bits`` high bits of page address plus ``block_index_bits`` bits locating
    the block within its page.
    """

    addr_bits: int = field(64, le=64)
    page_size_bits: int = 12
    block_offset_bits: int = field(6, ge=0)

    def __post_init__(self):
        if not (self.block_offset_bits < self.page_size_bits < self.addr_bits):
            raise ValueError(
                "block_offset_bits < page_size_bits < addr_bits must hold, got "
                f"{self.block_offset_bits}/{self.page_size_bits}/{self.addr_bits}"
            )

    @property
    def block_index_bits(self) -> int:
        return self.page_size_bits - self.block_offset_bits

    @property
    def page_bits(self) -> int:
        return self.addr_bits - self.page_size_bits

    @property
    def block_bits(self) -> int:
        """Width of a block address (page bits + block index bits)."""
        return self.addr_bits - self.block_offset_bits

    @functools.cached_property
    def block_space(self) -> int:
        """Number of distinct block addresses."""
        return 1 << self.block_bits


@dataclass(frozen=True)
class TraceSplit:
    """Contiguous, disjoint access ranges covering [0, n)."""

    train: range
    validation: range
    test: range

    def as_dict(self):
        return {
            "train": [self.train.start, self.train.stop],
            "validation": [self.validation.start, self.validation.stop],
            "test": [self.test.start, self.test.stop],
        }


def block_address(vaddr: int, cfg: AddressConfig) -> int:
    """Byte address -> block address (offset bits dropped, masked to block width)."""
    return (vaddr >> cfg.block_offset_bits) & (cfg.block_space - 1)


def block_addresses(trace: Sequence[MemoryAccess], cfg: AddressConfig) -> np.ndarray:
    """Vectorized block addresses of a whole trace, as uint64."""
    mask = np.uint64(cfg.block_space - 1)
    return (as_trace(trace).vaddr >> np.uint64(cfg.block_offset_bits)) & mask


def page_of_block(block, cfg: AddressConfig):
    """Page address of a block address (int or ndarray)."""
    if isinstance(block, np.ndarray):
        return block >> np.uint64(cfg.block_index_bits)
    return block >> cfg.block_index_bits


def _open_maybe_gzip_read(path):
    with open(path, "rb") as raw:
        head = raw.read(2)
    # gzip.open owns the file it opens; a GzipFile given a fileobj never closes it
    return io.TextIOWrapper(gzip.open(path, "rb") if head == GZIP_MAGIC else open(path, "rb"),
                            encoding="ascii")


def read_trace(path, fmt: str = "csv") -> Trace:
    """Read a trace file.

    Formats: ``csv`` is ``ordinal,cycle,pc_hex,vaddr_hex``; ``pc_vaddr`` is the
    two-field form ``pc_hex,vaddr_hex`` where cycle := ordinal. Ordinals are
    reassigned 0..n-1 in file order. Gzip input is detected by magic bytes.
    pc and vaddr must fit in 64 unsigned bits, and cycle in 64 signed bits.

    Raises :class:`TraceParseError`, naming the file, on a malformed line, on
    non-ASCII bytes and on a truncated or corrupt gzip stream.
    """
    if fmt not in ("csv", "pc_vaddr"):
        raise TraceParseError(f"unknown trace format {fmt!r}")
    try:
        with _open_maybe_gzip_read(path) as fh:
            trace = _parse_lines(path, fh, fmt)
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path}: non-ASCII bytes in trace: {exc}") from None
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TraceParseError(f"{path}: truncated or corrupt gzip stream: {exc}") from None
    if not trace:
        raise EmptyTraceError(f"{path}: trace file holds no records")
    return trace


def _parse_lines(path, fh, fmt: str) -> Trace:
    """Parse ``fh`` a chunk of lines at a time into typed columns. A well-formed line
    is split as read, since ``int()`` strips each field; a line that fails is
    stripped, skipped when blank or a ``#`` comment, and otherwise parsed again to
    name its fault."""
    cycles, pcs, vaddrs = array.array("q"), array.array("Q"), array.array("Q")
    add_cycle, add_pc, add_vaddr = cycles.append, pcs.append, vaddrs.append
    csv, nfields = fmt == "csv", 4 if fmt == "csv" else 2
    prev_cycle = -math.inf  # a negative first cycle is accepted
    lineno = 0
    while chunk := fh.readlines(1 << 16):
        for line in chunk:
            lineno += 1
            try:
                if csv:
                    first, cycle, pc, vaddr = line.split(",")
                    if "#" in first:  # maybe a comment that happens to hold four fields
                        raise ValueError
                    cycle, pc, vaddr = int(cycle), int(pc, 16), int(vaddr, 16)
                else:
                    pc, vaddr = line.split(",")
                    cycle, pc, vaddr = len(cycles), int(pc, 16), int(vaddr, 16)
            except ValueError:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                try:
                    if len(parts) != nfields:
                        raise ValueError(f"expected {nfields} fields, got {len(parts)}")
                    cycle, pc, vaddr = (int(parts[1]), int(parts[2], 16), int(parts[3], 16)) if csv else (
                        len(cycles), int(parts[0], 16), int(parts[1], 16))
                except ValueError as exc:
                    raise TraceParseError(f"{path}: parse error at line {lineno}: {exc}") from None
            if (pc | vaddr) >> 64:  # nonzero for a negative value or one wider than 64 bits
                field, value = ("pc", pc) if pc >> 64 else ("vaddr", vaddr)
                raise TraceParseError(
                    f"{path}: parse error at line {lineno}: {field} {value:#x} is not a 64-bit address"
                )
            if cycle < prev_cycle:
                raise TraceParseError(f"{path}: parse error at line {lineno}: cycle {cycle} decreases")
            prev_cycle = cycle
            try:
                add_cycle(cycle)
            except OverflowError:
                raise TraceParseError(
                    f"{path}: parse error at line {lineno}: cycle {cycle} does not fit in 64 signed bits"
                ) from None
            add_pc(pc)
            add_vaddr(vaddr)
    return Trace(np.frombuffer(cycles, np.int64), np.frombuffer(pcs, np.uint64),
                 np.frombuffer(vaddrs, np.uint64))


def write_trace(path, trace: Sequence[MemoryAccess]):
    """Write a trace as CSV; a ``.gz`` suffix selects gzip (level 3).

    Records are formatted and encoded ``CHUNK`` lines at a time, so the whole file
    never sits in memory as one string. A list goes through :func:`as_trace` first:
    ordinals are written as positions, and a bad record raises before any file opens.
    Gzip output pins mtime to 0 and omits the filename header field, so the bytes
    depend only on the records (rerun determinism). The file is
    written beside ``path`` under a temporary name and moved into place only
    once complete: a failed write leaves an existing ``path`` untouched and no
    temporary file behind."""
    path, trace = os.fspath(path), as_trace(trace)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as raw:
            if path.endswith(".gz"):
                with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0,
                                   compresslevel=3) as out:
                    _write_records(out, trace)
            else:
                _write_records(raw, trace)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_records(out, trace: Trace):
    out.write(b"# ordinal,cycle,pc,vaddr\n")
    for lo in range(0, len(trace), CHUNK):
        out.write("".join(["%d,%d,%#x,%#x\n" % row for row in trace._rows(lo)]).encode("ascii"))


def check_split_ratios(ratios) -> None:
    """The split rule: a list or tuple of three positive reals (no bools) summing to 1."""
    if not isinstance(ratios, (list, tuple)) or len(ratios) != 3 or not all(
        isinstance(r, numbers.Real) and not isinstance(r, bool) and r > 0 for r in ratios
    ):
        raise SplitError(f"split ratios must be three positive fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"split ratios must sum to 1 within 1e-9, got sum {sum(ratios)!r}")


def split_trace(trace, ratios: tuple[float, float, float]) -> TraceSplit:
    """Split a trace (or a record count) into contiguous train/validation/test ranges.

    Boundary indices are floor(cumulative fraction * n); a 1e-9 nudge absorbs
    floating point error, matching the tolerance allowed on the ratio sum.
    """
    n = trace if isinstance(trace, int) else len(trace)
    check_split_ratios(ratios)
    if n < 3:
        raise SplitError(f"trace with {n} records is too short to split")
    b1 = int(math.floor(ratios[0] * n + 1e-9))
    b2 = int(math.floor((ratios[0] + ratios[1]) * n + 1e-9))
    return TraceSplit(range(0, b1), range(b1, b2), range(b2, n))


# ---------------------------------------------------------------------------
# Synthetic trace generation
# ---------------------------------------------------------------------------

DEFAULT_PC = 0x400000


def _emit(blocks, pcs, cycle_step, cfg: AddressConfig) -> Trace:
    mask = cfg.block_space - 1
    try:  # a negative block wraps to its two's complement, which the mask cuts as Python's & does
        column = np.array(blocks, dtype=np.int64).view(np.uint64)
    except OverflowError:  # a block beyond int64: mask it as a Python int first
        column = np.array([b & mask for b in blocks], dtype=np.uint64)
    vaddr = (column & np.uint64(mask)) << np.uint64(cfg.block_offset_bits)
    cycle = np.arange(len(blocks), dtype=np.int64) * cycle_step  # check_pattern keeps it inside int64
    return Trace(cycle, np.array(pcs, dtype=np.uint64), vaddr)


def _gen_stride(spec, length, rng, cfg):
    k = int(spec.get("stride", 1))
    start = int(spec.get("start_block", 1 << 20))
    pc = int(spec.get("pc", DEFAULT_PC))
    blocks = [start + i * k for i in range(length)]
    return blocks, [pc] * length


def _gen_pointer_walk(spec, length, rng, cfg):
    # Random walk confined to one page: only the block index moves.
    page = int(spec.get("page", 1 << 24))
    pc = int(spec.get("pc", DEFAULT_PC))
    steps = spec.get("steps", [-3, -2, -1, 1, 2, 3])
    page_blocks = 1 << cfg.block_index_bits
    idx = int(rng.integers(0, page_blocks))
    blocks = []
    base = page << cfg.block_index_bits
    for _ in range(length):
        blocks.append(base + idx)
        idx = (idx + int(steps[int(rng.integers(0, len(steps)))])) % page_blocks
    return blocks, [pc] * length


def _gen_page_skip(spec, length, rng, cfg):
    # Repeating delta cycle; the default jump of 91 blocks crosses page boundaries.
    deltas = spec.get("deltas", [2, 3, 91])
    start = int(spec.get("start_block", 1 << 20))
    pc = int(spec.get("pc", DEFAULT_PC))
    blocks = [start]
    for i in range(length - 1):
        blocks.append(blocks[-1] + int(deltas[i % len(deltas)]))
    return blocks, [pc] * length


def _gen_interleaved(spec, length, rng, cfg):
    # Round-robin over independent per-PC strided streams.
    streams = spec.get(
        "streams",
        [
            {"pc": DEFAULT_PC, "start_block": 1 << 20, "stride": 1},
            {"pc": DEFAULT_PC + 0x40, "start_block": 1 << 22, "stride": 3},
        ],
    )
    pos = [int(s.get("start_block", 1 << 20)) for s in streams]
    blocks, pcs = [], []
    for i in range(length):
        j = i % len(streams)
        blocks.append(pos[j])
        pcs.append(int(streams[j].get("pc", DEFAULT_PC)))
        pos[j] += int(streams[j].get("stride", 1))
    return blocks, pcs


def _gen_random(spec, length, rng, cfg):
    start = int(spec.get("region_start_block", 1 << 20))
    span = int(spec.get("region_blocks", 1 << 16))
    pc = int(spec.get("pc", DEFAULT_PC))
    blocks = (start + rng.integers(0, span, size=length)).tolist()
    return blocks, [pc] * length


def _gen_region_walks(spec, length, rng, cfg):
    """Random page hops into named regions, each followed by that region's intra-page walk.

    Hop deltas are effectively unique over the trace (landing pages are drawn at
    random inside wide regions), so a delta vocabulary frozen on any prefix meets
    out-of-vocabulary deltas later on. The walk that follows a hop is determined by
    the landing region, which is visible in the high bits of the address.
    """
    regions = spec.get(
        "regions",
        [
            {"start_page": 0x10000, "pages": 4096, "walk": [4] * 6},
            {"start_page": 0x30000, "pages": 4096, "walk": [9] * 6},
        ],
    )
    pc = int(spec.get("pc", DEFAULT_PC))
    # per region: first page, page count, and the walk's offsets from the landing block
    hops = [(int(r["start_page"]), int(r["pages"]),
             list(itertools.accumulate(map(int, r["walk"]), initial=0))) for r in regions]
    draw, shift, blocks = rng.integers, cfg.block_index_bits, []
    while len(blocks) < length:  # two draws per hop, region then page: the PRNG stream fixes the trace
        start, pages, offsets = hops[int(draw(0, len(hops)))]
        b = (start + int(draw(0, pages))) << shift
        blocks.extend([b + o for o in offsets])
    del blocks[length:]
    return blocks, [pc] * length


_GENERATORS = {
    "stride": _gen_stride,
    "pointer_walk": _gen_pointer_walk,
    "page_skip": _gen_page_skip,
    "interleaved": _gen_interleaved,
    "random": _gen_random,
    "region_walks": _gen_region_walks,
}


def _ints(lo=-math.inf, hi=math.inf):
    return lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and lo <= v < hi


def _list_of(check, min_len=1):
    return lambda v: isinstance(v, (list, tuple)) and len(v) >= min_len and all(map(check, v))


def _mapping(required=(), **checks):
    return lambda m: (isinstance(m, dict) and all(k in m for k in required) and m.keys() <= checks.keys()
                      and all(check(m[k]) for k, check in checks.items() if k in m))


_INT, _PC = (_ints(), "an integer"), (_ints(0, 1 << 64), "an integer in [0, 2**64)")
_INT_LIST = (_list_of(_ints()), "a non-empty list of integers")
# generator -> optional parameter -> (check, what the value must be)
_PARAMS = {
    "stride": {"stride": _INT, "start_block": _INT},
    "pointer_walk": {"page": _INT, "steps": _INT_LIST},
    "page_skip": {"start_block": _INT, "deltas": _INT_LIST},
    "interleaved": {"streams": (
        _list_of(_mapping(pc=_PC[0], start_block=_ints(), stride=_ints())),
        "a non-empty list of mappings with integer pc, start_block and stride, and no other key")},
    "random": {"region_start_block": _INT, "region_blocks": (_ints(1), "an integer >= 1")},
    "region_walks": {"regions": (
        _list_of(_mapping(("start_page", "pages", "walk"),
                          start_page=_ints(0), pages=_ints(1), walk=_list_of(_ints(), 0))),
        "a non-empty list of mappings with start_page >= 0, pages >= 1, a walk list of integers "
        "and no other key")},
}


def check_pattern(spec, length: int) -> None:
    """The pattern rule: a mapping whose ``name`` is a known generator, whose other
    keys are ``pc``, ``cycle_step`` or parameters that generator reads, and whose
    parameters, where given, have the types and ranges that generator uses. The
    last cycle of a ``length``-record trace, ``cycle_step * (length - 1)``, must
    fit in int64."""
    known = sorted(_GENERATORS)
    if not isinstance(spec, dict) or spec.get("name") not in known:  # list: an unhashable name is refused
        raise PatternError(f"pattern must be a mapping whose name is one of {known}, got {spec!r}")
    step = (_ints(0, 1 << 63), "an integer in [0, 2**63)")
    rules = {"pc": _PC, "cycle_step": step, **_PARAMS[spec["name"]]}
    unknown = [key for key in spec if key != "name" and key not in rules]
    if unknown:
        raise PatternError(f"pattern {spec['name']}: unknown keys {unknown}; it reads {sorted(rules)}")
    for key, (check, what) in rules.items():
        if key in spec and not check(spec[key]):
            raise PatternError(f"pattern {spec['name']}: {key} must be {what}, got {spec[key]!r}")
    last = spec.get("cycle_step", 1) * (length - 1)
    if last >> 63:
        raise PatternError(f"pattern {spec['name']}: cycle_step {spec.get('cycle_step', 1)} over {length} "
                           f"accesses reaches cycle {last}, past 2**63 - 1")


def generate_trace(
    spec: dict, length: int, seed: int, addr_cfg: AddressConfig | None = None
) -> Trace:
    """Generate a deterministic synthetic trace.

    ``spec`` is a mapping with a ``name`` key naming the pattern family plus
    family-specific parameters; ``cycle_step`` (default 1) sets cycles per access.
    The PRNG contract is numpy's seeded ``default_rng`` (PCG64), so identical
    spec/seed/length produce byte-identical traces.
    """
    if length < 1:
        raise PatternError(f"length must be >= 1, got {length}")
    check_pattern(spec, length)
    cfg = addr_cfg or AddressConfig()
    rng = np.random.default_rng(seed)
    blocks, pcs = _GENERATORS[spec["name"]](spec, length, rng, cfg)
    return _emit(blocks, pcs, int(spec.get("cycle_step", 1)), cfg)
