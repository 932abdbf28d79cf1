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
from collections.abc import Callable, Sequence
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


def column_ints(column: np.ndarray):
    """The entries of a 1-D numpy column as Python ints, converted ``CHUNK`` at a time."""
    return itertools.chain.from_iterable(column[lo:lo + CHUNK].tolist()
                                         for lo in range(0, len(column), CHUNK))


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


def block_address(vaddr: int, cfg: AddressConfig) -> int:
    """Byte address -> block address (offset bits dropped, masked to block width)."""
    return (vaddr >> cfg.block_offset_bits) & (cfg.block_space - 1)


def block_addresses(trace: Sequence[MemoryAccess], cfg: AddressConfig) -> np.ndarray:
    """Vectorized block addresses of a whole trace, as uint64."""
    mask = np.uint64(cfg.block_space - 1)
    return (as_trace(trace).vaddr >> np.uint64(cfg.block_offset_bits)) & mask


def page_of_block(block, cfg: AddressConfig):
    """Page address of a block address (int or uint64 ndarray)."""
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
    floating point error, matching the tolerance allowed on the ratio sum. A part
    left empty raises ``SplitError`` naming it, since no stage can train, tune or
    score on zero samples.
    """
    n = trace if isinstance(trace, int) else len(trace)
    check_split_ratios(ratios)
    b1 = int(math.floor(ratios[0] * n + 1e-9))
    b2 = int(math.floor((ratios[0] + ratios[1]) * n + 1e-9))
    parts = {"train": range(0, b1), "validation": range(b1, b2), "test": range(b2, n)}
    empty = [name for name, part in parts.items() if not part]
    if empty:
        raise SplitError(f"split {tuple(ratios)} of {n} records leaves these parts empty: {', '.join(empty)}")
    return TraceSplit(**parts)


# ---------------------------------------------------------------------------
# Synthetic trace generation
# ---------------------------------------------------------------------------


def _u64(values, length=None):
    """Integers modulo 2**64 as uint64 (the low bits that Python's ``&`` keeps of a negative or wide
    one), repeated round-robin to ``length`` entries if that is given."""
    column = np.array([int(v) % (1 << 64) for v in values], dtype=np.uint64)
    return column if length is None else np.tile(column, -(-length // len(column)))[:length]


# Each generator returns a uint64 block column, wrapped modulo 2**64, and the pcs to repeat round-robin.
def _gen_stride(length, rng, cfg, pc, stride, start_block):
    return _gen_page_skip(length, rng, cfg, pc, start_block, [stride])


def _gen_pointer_walk(length, rng, cfg, pc, page, steps):
    # Random walk confined to one page: only the block index moves, modulo the page's blocks.
    start = _u64([rng.integers(0, 1 << cfg.block_index_bits)])
    moves = _u64(steps)[rng.integers(0, len(steps), size=length - 1)]
    walk = np.cumsum(np.concatenate((start, moves))) & np.uint64((1 << cfg.block_index_bits) - 1)
    return (_u64([page]) << np.uint64(cfg.block_index_bits)) + walk, [pc]


def _gen_page_skip(length, rng, cfg, pc, start_block, deltas):
    # Repeating delta cycle; the default jump of 91 blocks crosses page boundaries.
    return np.cumsum(np.concatenate((_u64([start_block]), _u64(deltas, length - 1)))), [pc]


def _gen_interleaved(length, rng, cfg, streams):
    # Round-robin over independent strided streams, each with its own pc.
    starts, strides = (_u64([s[key] for s in streams], length) for key in ("start_block", "stride"))
    turns = np.arange(length, dtype=np.uint64) // np.uint64(len(streams))
    return starts + strides * turns, [s["pc"] for s in streams]


def _gen_random(length, rng, cfg, pc, region_start_block, region_blocks):
    return _u64([region_start_block]) + rng.integers(0, region_blocks, size=length).view(np.uint64), [pc]


def _gen_region_walks(length, rng, cfg, pc, regions):
    """Random page hops into named regions, each followed by that region's intra-page walk.

    Hop deltas are effectively unique over the trace (landing pages are drawn at
    random inside wide regions), so a delta vocabulary frozen on any prefix meets
    out-of-vocabulary deltas later on. The walk that follows a hop is determined by
    the landing region, which is visible in the high bits of the address.
    """
    # per region: first page, page count, and the walk's offsets from the landing block
    hops = [(int(r["start_page"]), int(r["pages"]),
             _u64(list(itertools.accumulate(map(int, r["walk"]), initial=0)))) for r in regions]
    draw, landings, walks, n = rng.integers, [], [], 0
    while n < length:  # two draws per hop, region then page: the PRNG stream fixes the trace
        start, count, offsets = hops[int(draw(0, len(hops)))]
        landings.append((start + int(draw(0, count))) << cfg.block_index_bits)
        walks.append(offsets)
        n += len(offsets)
    return (np.repeat(_u64(landings), list(map(len, walks))) + np.concatenate(walks))[:length], [pc]


def _ints(lo=-math.inf, hi=math.inf):
    return lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and lo <= v < hi


def _list_of(check, min_len=1):
    return lambda v: isinstance(v, (list, tuple)) and len(v) >= min_len and all(map(check, v))


class _Param(NamedTuple):
    """A pattern parameter: its default, its check, what the check asks for, and what completes a value."""

    default: object
    check: Callable[[object], bool]
    what: str
    fill: Callable = lambda value: value


def _mappings(default, what, **fields):
    # a list of mappings; each key has a (default, check), and a None default makes the key required
    fits = lambda m: isinstance(m, dict) and m.keys() <= fields.keys() and all(
        check(m[key]) if key in m else value is not None for key, (value, check) in fields.items())
    fill = lambda ms: [{key: m.get(key, value) for key, (value, _) in fields.items()} for m in ms]
    return _Param(default, _list_of(fits), what, fill)


DEFAULT_PC = 0x400000
_PC, _COUNT = _ints(0, 1 << 64), _ints(1, (1 << 63) + 1)  # a count: at most the widest rng.integers bound
_int = functools.partial(_Param, check=_ints(), what="an integer")
_int_list = functools.partial(_Param, check=_list_of(_ints()), what="a non-empty list of integers")
_count = functools.partial(_Param, check=_COUNT, what="an integer in [1, 2**63]")
_pc_param = _Param(DEFAULT_PC, _PC, "an integer in [0, 2**64)")
# the key of every pattern, then pattern name -> (generator, the parameters it reads)
_COMMON = {"cycle_step": _Param(1, _ints(0, 1 << 63), "an integer in [0, 2**63)")}
_GENERATORS = {
    "stride": (_gen_stride, {"pc": _pc_param, "stride": _int(1), "start_block": _int(1 << 20)}),
    "pointer_walk": (_gen_pointer_walk, {"pc": _pc_param, "page": _int(1 << 24),
                                         "steps": _int_list([-3, -2, -1, 1, 2, 3])}),
    "page_skip": (_gen_page_skip, {"pc": _pc_param, "start_block": _int(1 << 20),
                                   "deltas": _int_list([2, 3, 91])}),
    "interleaved": (_gen_interleaved, {"streams": _mappings(  # no top-level pc: each stream has its own
        [{}, {"pc": DEFAULT_PC + 0x40, "start_block": 1 << 22, "stride": 3}],  # {}: every key at its default
        "a non-empty list of mappings with integer pc, start_block and stride, and no other key",
        pc=(DEFAULT_PC, _PC), start_block=(1 << 20, _ints()), stride=(1, _ints()))}),
    "random": (_gen_random, {"pc": _pc_param, "region_start_block": _int(1 << 20),
                             "region_blocks": _count(1 << 16)}),
    "region_walks": (_gen_region_walks, {"pc": _pc_param, "regions": _mappings(
        [{"start_page": 0x10000, "pages": 4096, "walk": [4] * 6},
         {"start_page": 0x30000, "pages": 4096, "walk": [9] * 6}],
        "a non-empty list of mappings with start_page >= 0, pages in [1, 2**63], a walk list of "
        "integers and no other key",
        start_page=(None, _ints(0)), pages=(None, _COUNT), walk=(None, _list_of(_ints(), 0)))}),
}


def check_pattern(spec, length: int) -> None:
    """The pattern rule: a mapping whose ``name`` is a known generator, whose other
    keys are ``cycle_step`` or parameters that generator reads, and whose
    parameters, where given, have the types and ranges that generator uses. The
    last cycle of a ``length``-record trace, ``cycle_step * (length - 1)``, must
    fit in int64."""
    known = sorted(_GENERATORS)
    if not isinstance(spec, dict) or spec.get("name") not in known:  # list: an unhashable name is refused
        raise PatternError(f"pattern must be a mapping whose name is one of {known}, got {spec!r}")
    rules = {**_COMMON, **_GENERATORS[spec["name"]][1]}
    unknown = [key for key in spec if key != "name" and key not in rules]
    if unknown:
        raise PatternError(f"pattern {spec['name']}: unknown keys {unknown}; it reads {sorted(rules)}")
    for key, param in rules.items():
        if key in spec and not param.check(spec[key]):
            raise PatternError(f"pattern {spec['name']}: {key} must be {param.what}, got {spec[key]!r}")
    step = spec.get("cycle_step", _COMMON["cycle_step"].default)
    if (last := step * (length - 1)) >> 63:
        raise PatternError(f"pattern {spec['name']}: cycle_step {step} over {length} "
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
    generator, params = _GENERATORS[spec["name"]]
    args = {key: param.fill(spec.get(key, param.default)) for key, param in {**_COMMON, **params}.items()}
    cycle = np.arange(length, dtype=np.int64) * args.pop("cycle_step")  # check_pattern keeps it inside int64
    blocks, pcs = generator(length, np.random.default_rng(seed), cfg, **args)
    vaddr = (blocks & np.uint64(cfg.block_space - 1)) << np.uint64(cfg.block_offset_bits)
    return Trace(cycle, _u64(pcs, length), vaddr)
