import errno
import gzip
import hashlib
import re

import numpy as np
import pytest

from prefetchlab.datasets import build_datasets, mean_cycles_per_access
from prefetchlab.features import FeatureConfig
from prefetchlab.labeling import LabelConfig
from prefetchlab.model import ModelConfig, ModelParams
from prefetchlab.simulator import (
    BestOffsetPrefetcher,
    CacheConfig,
    LatencyModel,
    MissTimeline,
    ModelPrefetcher,
    NextLinePrefetcher,
    OraclePrefetcher,
    StridePrefetcher,
    simulate,
)
from prefetchlab.trace import (
    _GENERATORS,
    CHUNK,
    EmptyTraceError,
    MemoryAccess,
    PatternError,
    SplitError,
    Trace,
    TraceError,
    TraceParseError,
    as_trace,
    block_address,
    block_addresses,
    generate_trace,
    page_of_block,
    read_trace,
    split_trace,
    write_trace,
)


def block_address_oracle(vaddr, cfg):
    # independent route: binary-string slicing instead of shift/mask
    bits = bin(vaddr)[2:].zfill(cfg.addr_bits)
    return int(bits[: cfg.addr_bits - cfg.block_offset_bits][-cfg.block_bits:], 2)


class TestReadTrace:
    def test_single_csv_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,0,0x400123,0x7f0000001040\n")
        (rec,) = read_trace(p)
        assert rec == MemoryAccess(0, 0, 0x400123, 0x7F0000001040)

    def test_record_is_an_immutable_tuple(self):
        rec = MemoryAccess(0, 0, 0x400123, 0x1040)
        assert rec == (0, 0, 0x400123, 0x1040)
        with pytest.raises(AttributeError):
            rec.vaddr = 0x2000

    def test_whitespace_around_fields(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" 0 , 25 ,\t0x400040 , 0x1040 \n1,  30,0x400040,0X1080\t\n")
        assert read_trace(p) == [MemoryAccess(0, 25, 0x400040, 0x1040),
                                 MemoryAccess(1, 30, 0x400040, 0x1080)]
        p.write_text(" 0x10 ,\t0x40 \n")
        assert read_trace(p, fmt="pc_vaddr") == [MemoryAccess(0, 0, 0x10, 0x40)]

    def test_ordinals_follow_file_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("5,0,0x1,0x40\n9,1,0x2,0x80\n3,2,0x3,0xc0\n")
        recs = read_trace(p)
        assert [r.ordinal for r in recs] == [0, 1, 2]

    def test_malformed_hex_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,0,xyz,0x10\n")
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace(p)

    def test_malformed_line_number_counts_comments(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# header\n0,0,0x1,0x40\n1,1,0x2\n")
        with pytest.raises(TraceParseError, match="line 3"):
            read_trace(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(EmptyTraceError):
            read_trace(p)

    def test_decreasing_cycle_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,5,0x1,0x40\n1,4,0x2,0x80\n")
        with pytest.raises(TraceParseError, match="cycle"):
            read_trace(p)

    def test_pc_vaddr_format_cycle_is_ordinal(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0x10,0x40\n0x20,0x80\n")
        recs = read_trace(p, fmt="pc_vaddr")
        assert [(r.cycle, r.pc, r.vaddr) for r in recs] == [(0, 0x10, 0x40), (1, 0x20, 0x80)]

    def test_gzip_detected_by_magic(self, tmp_path):
        p = tmp_path / "t.csv"  # no .gz suffix on purpose
        p.write_bytes(gzip.compress(b"0,0,0x1,0x40\n"))
        assert read_trace(p)[0].vaddr == 0x40

    def test_truncated_gzip_names_file(self, tmp_path):
        p = tmp_path / "t.csv.gz"
        write_trace(p, generate_trace({"name": "stride", "stride": 3}, 500, seed=1))
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceParseError, match="t.csv.gz.*gzip"):
            read_trace(p)

    def test_non_ascii_bytes_name_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"0,0,0x1,0x40\n1,1,0x2,0x8\xc3\xa90\n")
        with pytest.raises(TraceParseError, match="t.csv.*non-ASCII"):
            read_trace(p)

    @pytest.mark.parametrize("field", ["pc", "vaddr"])
    def test_negative_address_names_line(self, tmp_path, field):
        p = tmp_path / "t.csv"
        pc, vaddr = ("-0x40", "0x80") if field == "pc" else ("0x2", "-0x40")
        p.write_text(f"0,0,0x1,0x40\n1,1,{pc},{vaddr}\n")
        with pytest.raises(TraceParseError, match=f"t.csv.*line 2.*{field} -0x40"):
            read_trace(p)

    @pytest.mark.parametrize("field", ["pc", "vaddr"])
    def test_address_wider_than_64_bits_names_line(self, tmp_path, field):
        p = tmp_path / "t.csv"
        top = "0xffffffffffffffff"
        wide = "0x10000000000000000"
        pc, vaddr = (wide, top) if field == "pc" else (top, wide)
        p.write_text(f"# header\n0,0,{top},{top}\n1,1,{pc},{vaddr}\n")
        with pytest.raises(TraceParseError, match=f"t.csv.*line 3.*{field} {wide}"):
            read_trace(p)
        p.write_text(f"0,0,{top},{top}\n")
        assert read_trace(p)[0].vaddr == (1 << 64) - 1


class TestTraceSequence:
    """A Trace reads as the sequence of records it holds."""

    def test_records_on_demand(self):
        trace = generate_trace({"name": "interleaved", "cycle_step": 2}, CHUNK + 3, seed=1)
        records = list(trace)
        assert len(records) == len(trace) == CHUNK + 3
        assert all(type(a) is MemoryAccess for a in records)
        assert [a.ordinal for a in records] == list(range(CHUNK + 3))
        assert trace[CHUNK + 1] == records[CHUNK + 1] and trace[-1] == records[-1]
        assert [(a.cycle, a.pc, a.vaddr) for a in records] == list(zip(
            trace.cycle.tolist(), trace.pc.tolist(), trace.vaddr.tolist()))
        for i in (CHUNK + 3, -(CHUNK + 4)):
            with pytest.raises(IndexError):
                trace[i]

    def test_slice_is_a_trace_counted_from_zero(self):
        trace = generate_trace({"name": "random", "cycle_step": 3}, 50, seed=2)
        part = trace[10:20]
        assert isinstance(part, Trace) and len(part) == 10
        assert part == [MemoryAccess(i, a.cycle, a.pc, a.vaddr) for i, a in enumerate(list(trace)[10:20])]
        assert part[0].ordinal == 0 and part[0].cycle == 30

    def test_equality_with_any_sequence(self):
        trace = generate_trace({"name": "stride"}, 5, seed=0)
        records = list(trace)
        assert trace == records and records == trace and trace == tuple(records)
        assert trace == generate_trace({"name": "stride"}, 5, seed=0)
        assert trace != records[:4] and trace != [*records[:4], records[4]._replace(pc=1)]
        assert trace != generate_trace({"name": "stride", "stride": 2}, 5, seed=0)
        with pytest.raises(TypeError):
            hash(trace)

    def test_columns_are_read_only(self):
        trace = generate_trace({"name": "stride"}, 5, seed=0)
        for column in (trace.cycle, trace.pc, trace.vaddr):
            with pytest.raises(ValueError):
                column[0] = 1
        assert (trace.cycle.dtype, trace.pc.dtype, trace.vaddr.dtype) == (np.int64, np.uint64, np.uint64)
        with pytest.raises(ValueError, match="1-D and of one length"):
            Trace([0, 1], [0x400000], [0x40, 0x80])


READ_ACCEPTED = {
    "blank-and-indented-comments": ("\n   \n  # note\n0,0,0x1,0x40\n\t# a,b,c\n1,1,0x2,0x80\n", "csv",
                                    [(0, 0, 0x1, 0x40), (1, 1, 0x2, 0x80)]),
    "comments-with-four-fields": ("# 5,6,0x7,0x8\n  #0,0,0x1,0x40\n0,3,0x1,0x40\n", "csv",
                                  [(0, 3, 0x1, 0x40)]),
    "crlf": ("0,0,0x1,0x40\r\n1,1,0x2,0x80\r\n", "csv", [(0, 0, 0x1, 0x40), (1, 1, 0x2, 0x80)]),
    "spaces-around-fields": (" 0 , 7 ,  0x1 ,0x40 \n", "csv", [(0, 7, 0x1, 0x40)]),
    "uppercase-hex": ("0,0,0X1AB,0XFF40\n1,1,0xABC,0xdEf\n", "csv",
                      [(0, 0, 0x1AB, 0xFF40), (1, 1, 0xABC, 0xDEF)]),
    "hex-without-0x": ("0,0,1ab,ff40\n", "csv", [(0, 0, 0x1AB, 0xFF40)]),
    "no-final-newline": ("0,0,0x1,0x40\n1,1,0x2,0x80", "csv", [(0, 0, 0x1, 0x40), (1, 1, 0x2, 0x80)]),
    "ordinal-field-not-parsed": ("x,0,0x1,0x40\n", "csv", [(0, 0, 0x1, 0x40)]),
    "pc_vaddr": ("0x10,0x40\n\n# c\n 0x20 , 0x80\r\n", "pc_vaddr", [(0, 0, 0x10, 0x40), (1, 1, 0x20, 0x80)]),
    "negative-first-cycle": ("0,-5,0x1,0x40\n1,-3,0x2,0x80\n", "csv", [(0, -5, 0x1, 0x40), (1, -3, 0x2, 0x80)]),
}

READ_REJECTED = {
    "three-fields": ("0,0,0x1\n", "csv", "line 1: expected 4 fields, got 3"),
    "five-fields": ("# h\n0,0,0x1,0x40,7\n", "csv", "line 2: expected 4 fields, got 5"),
    "pc_vaddr-three-fields": ("0x1,0x2,0x3\n", "pc_vaddr", "line 1: expected 2 fields, got 3"),
    "pc_vaddr-one-field": ("0x1,0x2\n0x3\n", "pc_vaddr", "line 2: expected 2 fields, got 1"),
    "decreasing-cycle": ("# h\n0,5,0x1,0x40\n\n1,4,0x2,0x80\n", "csv", "line 4: cycle 4 decreases"),
    "bad-hex": ("0,0,0x1,0xZZ\n", "csv", "line 1: invalid literal for int() with base 16: '0xZZ'"),
    "pc_vaddr-bad-hex": ("0x1,0x40\n0xG,0x80\n", "pc_vaddr", "line 2: invalid literal for int() with base 16: '0xG'"),
    "bad-cycle-keeps-inner-spaces": ("0, 1.5 ,0x1,0x40\r\n", "csv",
                                     "line 1: invalid literal for int() with base 10: ' 1.5 '"),
    "past-the-first-read-chunk": ("".join(f"{i},{i},0x1,0x40\n" for i in range(5000)) + "5000,x,0x1,0x40\n",
                                  "csv", "line 5001: invalid literal for int() with base 10: 'x'"),
    "cycle-past-int64": ("0,9223372036854775807,0x1,0x40\n1,9223372036854775808,0x2,0x80\n", "csv",
                         "line 2: cycle 9223372036854775808 does not fit in 64 signed bits"),
    "first-cycle-below-int64": ("# h\n0,-9223372036854775809,0x1,0x40\n", "csv",
                                "line 2: cycle -9223372036854775809 does not fit in 64 signed bits"),
}

# records given as a list, field overrides of the second of three -> the TraceError as_trace raises
LIST_REJECTED = {
    "negative-pc": ({"pc": -1}, "record 1: pc -1 is not an integer that fits in uint64"),
    "pc-past-64-bits": ({"pc": 2**64}, "record 1: pc 18446744073709551616 is not an integer that fits in uint64"),
    "vaddr-past-64-bits": ({"vaddr": 2**64 + 64},
                           "record 1: vaddr 18446744073709551680 is not an integer that fits in uint64"),
    "pc-none": ({"pc": None}, "record 1: pc None is not an integer that fits in uint64"),
    "vaddr-float": ({"vaddr": 64.0}, "record 1: vaddr 64.0 is not an integer that fits in uint64"),
    "cycle-str": ({"cycle": "1"}, "record 1: cycle '1' is not an integer that fits in int64"),
    "cycle-bool": ({"cycle": True}, "record 1: cycle True is not an integer that fits in int64"),
    "cycle-past-int64": ({"cycle": 2**63},
                         "record 1: cycle 9223372036854775808 is not an integer that fits in int64"),
    "cycle-below-int64": ({"cycle": -2**63 - 1},
                          "record 1: cycle -9223372036854775809 is not an integer that fits in int64"),
    "decreasing-cycle": ({"cycle": -1}, "record 1: cycle -1 decreases"),
}


class TestReadEdgeCases:
    """Reader behaviour at the edges of the format, pinned before the reader parsed in chunks."""

    @pytest.mark.parametrize("text, fmt, expected", list(READ_ACCEPTED.values()), ids=list(READ_ACCEPTED))
    def test_accepted(self, tmp_path, text, fmt, expected):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        assert read_trace(p, fmt=fmt) == [MemoryAccess(*r) for r in expected]

    @pytest.mark.parametrize("text, fmt, message", list(READ_REJECTED.values()), ids=list(READ_REJECTED))
    def test_rejected_with_line(self, tmp_path, text, fmt, message):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        with pytest.raises(TraceParseError, match=re.escape(f"t.csv: parse error at {message}") + "$"):
            read_trace(p, fmt=fmt)

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"0,0,0x1,0x40\n")
        with pytest.raises(TraceParseError, match=r"^unknown trace format 'xml'$"):
            read_trace(p, fmt="xml")

    @pytest.mark.parametrize("fields, message", list(LIST_REJECTED.values()), ids=list(LIST_REJECTED))
    def test_list_rejected_with_record(self, addr_cfg, fields, message):
        records = [MemoryAccess(0, 0, 0x400000, 0x40), MemoryAccess(1, 5, 0x400000, 0x80),
                   MemoryAccess(2, 9, 0x400000, 0xC0)]
        records[1] = records[1]._replace(**fields)
        with pytest.raises(TraceError, match=re.escape(message) + "$"):
            as_trace(records)
        with pytest.raises(TraceError, match=re.escape(message) + "$"):
            simulate(records, NextLinePrefetcher(), CacheConfig(sets=4, ways=2), LatencyModel(), addr_cfg)

    @pytest.mark.parametrize("name", ["t.csv", "t.csv.gz"])
    def test_header_only_is_empty(self, tmp_path, name):
        p = tmp_path / name
        write_trace(p, [])
        with pytest.raises(EmptyTraceError):
            read_trace(p)

    @pytest.mark.parametrize("where", ["flags", "deflate-start", "middle", "crc", "size"])
    def test_bit_flip_in_gzip_is_typed(self, tmp_path, where):
        p = tmp_path / "t.csv.gz"
        write_trace(p, generate_trace({"name": "stride", "stride": 3}, 2000, seed=1))
        data = bytearray(p.read_bytes())
        offset = {"flags": 3, "deflate-start": 10, "middle": len(data) // 2,
                  "crc": len(data) - 6, "size": len(data) - 2}[where]
        for bit in range(8):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << bit
            p.write_bytes(bytes(flipped))
            try:
                assert len(read_trace(p)) > 0
            except TraceParseError:
                pass

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_roundtrip_every_pattern(self, tmp_path, name):
        trace = generate_trace({"name": name}, 3000, seed=11)
        p = tmp_path / "t.csv.gz"
        write_trace(p, trace)
        assert read_trace(p) == trace


class TestWriteTrace:
    def test_roundtrip_plain(self, tmp_path):
        trace = generate_trace({"name": "stride", "stride": 3}, 50, seed=1)
        p = tmp_path / "t.csv"
        write_trace(p, trace)
        assert read_trace(p) == trace

    def test_roundtrip_gzip(self, tmp_path):
        trace = generate_trace({"name": "random"}, 50, seed=2)
        p = tmp_path / "t.csv.gz"
        write_trace(p, trace)
        assert read_trace(p) == trace

    def test_gzip_bytes_reproducible(self, tmp_path):
        trace = generate_trace({"name": "stride"}, 20, seed=3)
        p1, p2 = tmp_path / "a.csv.gz", tmp_path / "b.csv.gz"
        write_trace(p1, trace)
        write_trace(p2, trace)
        assert p1.read_bytes() == p2.read_bytes()

    RECORDS = [
        MemoryAccess(0, 0, 0x400000, 0x1000),
        MemoryAccess(1, 25, 0x400040, 0x7F0000001040),
        MemoryAccess(2, 50, 0x0, 0xFFFFFFFFFFFFFFC0),
    ]
    TEXT = (b"# ordinal,cycle,pc,vaddr\n"
            b"0,0,0x400000,0x1000\n"
            b"1,25,0x400040,0x7f0000001040\n"
            b"2,50,0x0,0xffffffffffffffc0\n")

    def test_pinned_format(self, tmp_path):
        gz, plain = tmp_path / "t.csv.gz", tmp_path / "t.csv"
        write_trace(gz, self.RECORDS)
        write_trace(plain, self.RECORDS)
        data = gz.read_bytes()
        assert gzip.decompress(data) == self.TEXT
        assert data[:3] == b"\x1f\x8b\x08"
        assert data[3] == 0  # FLG: no FNAME (nor any other optional field)
        assert data[4:8] == b"\x00\x00\x00\x00"  # MTIME 0
        assert plain.read_bytes() == self.TEXT

    @pytest.mark.parametrize("name", ["t.csv.gz", "t.csv"])
    def test_roundtrip_past_one_chunk(self, tmp_path, name):
        trace = generate_trace({"name": "random"}, CHUNK + 1, seed=4)
        p = tmp_path / name
        write_trace(p, trace)
        assert read_trace(p) == trace

    @pytest.mark.parametrize("name", ["t.csv.gz", "t.csv"])
    def test_failed_write_keeps_existing_file(self, tmp_path, name, monkeypatch):
        p = tmp_path / name
        write_trace(p, self.RECORDS)
        before = p.read_bytes()
        rows, seen = Trace._rows, []

        def rows_then_disk_full(trace, lo):
            if lo == CHUNK:  # the first chunk has gone to the temporary file
                seen.extend(q.name for q in tmp_path.iterdir())
                raise OSError(errno.ENOSPC, "No space left on device")
            return rows(trace, lo)

        monkeypatch.setattr(Trace, "_rows", rows_then_disk_full)
        with pytest.raises(OSError, match="No space"):
            write_trace(p, generate_trace({"name": "stride"}, CHUNK + 10, seed=5))
        assert sorted(seen)[0] == name and sorted(seen)[1].endswith(".tmp")
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("name", ["t.csv.gz", "t.csv"])
    def test_bad_record_keeps_existing_file(self, tmp_path, name):
        p = tmp_path / name
        write_trace(p, self.RECORDS)
        before = p.read_bytes()
        good = generate_trace({"name": "stride"}, CHUNK + 10, seed=5)
        bad = [*good[:CHUNK + 5], MemoryAccess(CHUNK + 5, 0, None, 0x40)]
        with pytest.raises(TraceError, match=f"record {CHUNK + 5}: pc None"):
            write_trace(p, bad)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == [name]


class TestBlockAddress:
    def test_zero(self, addr_cfg):
        assert block_address(0x0, addr_cfg) == 0x0

    def test_examples_match_oracle(self, addr_cfg):
        assert block_address(0x1040, addr_cfg) == 0x41
        assert block_address(0x103F, addr_cfg) == 0x40
        for vaddr in (0x1040, 0x103F, 0xDEADBEEF, 2**63 + 12345):
            assert block_address(vaddr, addr_cfg) == block_address_oracle(vaddr, addr_cfg)

    def test_constant_within_block_window(self, addr_cfg):
        base = 0xABCD << addr_cfg.block_offset_bits
        values = {block_address(base + off, addr_cfg) for off in range(64)}
        assert values == {0xABCD}

    def test_monotone_over_aligned_region(self, addr_cfg):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 2**40, size=100)
        for s in starts:
            a = block_address(int(s) << 6, addr_cfg)
            b = block_address((int(s) + 7) << 6, addr_cfg)
            assert b == a + 7

    def test_vectorized_matches_scalar(self, addr_cfg):
        trace = generate_trace({"name": "random"}, 200, seed=4)
        vec = block_addresses(trace, addr_cfg)
        assert [int(v) for v in vec] == [block_address(a.vaddr, addr_cfg) for a in trace]

    def test_page_of_block(self, addr_cfg):
        assert page_of_block(0x41, addr_cfg) == 0x1
        assert page_of_block(0x3F, addr_cfg) == 0x0


class TestSplitTrace:
    def test_forty_ten_fifty_proportions(self):
        s = split_trace(100, (0.4, 0.1, 0.5))
        assert (s.train, s.validation, s.test) == (range(0, 40), range(40, 50), range(50, 100))

    def test_scaled(self):
        s = split_trace(10, (0.4, 0.1, 0.5))
        assert (s.train, s.validation, s.test) == (range(0, 4), range(4, 5), range(5, 10))

    def test_too_short(self):
        with pytest.raises(SplitError):
            split_trace(2, (0.4, 0.1, 0.5))

    def test_bad_ratios(self):
        # (True, 1e-10, 1e-10) would sum to 1 within 1e-9 if bools counted as numbers
        for ratios in [(0.5, 0.2, 0.2), (0.5, -0.1, 0.6), ("a", "b", "c"), (True, 1e-10, 1e-10),
                       (None, 0.5, 0.5), (float("nan"), 0.5, 0.5), 3]:
            with pytest.raises(SplitError):
                split_trace(10, ratios)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 5000))
            cuts = np.sort(rng.uniform(0.05, 0.95, size=2))
            ratios = (float(cuts[0]), float(cuts[1] - cuts[0]), float(1.0 - cuts[1]))
            s = split_trace(n, ratios)
            assert s.train.start == 0 and s.test.stop == n
            assert s.train.stop == s.validation.start
            assert s.validation.stop == s.test.start
            assert len(s.train) + len(s.validation) + len(s.test) == n


class TestGenerateTrace:
    def test_stride_one(self, addr_cfg):
        trace = generate_trace({"name": "stride", "stride": 1, "start_block": 100}, 4, seed=0)
        assert [block_address(a.vaddr, addr_cfg) for a in trace] == [100, 101, 102, 103]

    def test_stride_three(self, addr_cfg):
        trace = generate_trace({"name": "stride", "stride": 3, "start_block": 0}, 3, seed=0)
        assert [block_address(a.vaddr, addr_cfg) for a in trace] == [0, 3, 6]

    def test_stride_delta_property(self, addr_cfg):
        trace = generate_trace({"name": "stride", "stride": 7}, 500, seed=9)
        blocks = [block_address(a.vaddr, addr_cfg) for a in trace]
        assert all(b - a == 7 for a, b in zip(blocks, blocks[1:]))

    def test_determinism_byte_for_byte(self, tmp_path):
        spec = {"name": "region_walks"}
        t1 = generate_trace(spec, 300, seed=42)
        t2 = generate_trace(spec, 300, seed=42)
        assert t1 == t2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(p1, t1)
        write_trace(p2, t2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_pattern(self):
        with pytest.raises(PatternError):
            generate_trace({"name": "fibonacci"}, 10, seed=0)

    @pytest.mark.parametrize("spec", [
        {"name": "stride", "stride": "x"},
        {"name": "stride", "pc": -1},
        {"name": "stride", "cycle_step": -1},
        {"name": "stride", "cycle_step": 2**63},
        {"name": "page_skip", "deltas": 5},
        {"name": "page_skip", "deltas": []},
        {"name": "pointer_walk", "steps": [1, 2.5]},
        {"name": "interleaved", "streams": [{"stride": True}]},
        {"name": "random", "region_blocks": 0},
        {"name": "region_walks", "regions": [{"pages": 4, "walk": [1]}]},
        {"name": "region_walks", "regions": [{"start_page": -1, "pages": 4, "walk": [1]}]},
        {"name": "region_walks", "regions": [{"start_page": 1, "pages": 0, "walk": [1]}]},
        {"name": "region_walks", "regions": [{"start_page": 1, "pages": 4, "walk": 1}]},
        {"name": "stride", "strid": 3},
        {"name": "random", "stride": 3},
        {"name": "interleaved", "streams": [{"pc": 1, "start_block": 0, "strid": 3}]},
        {"name": "interleaved", "pc": 5},
        {"name": "region_walks", "regions": [{"start_page": 1, "pages": 4, "walk": [1], "wlak": [2]}]},
        {"name": "random", "region_blocks": 2**63 + 1},
        {"name": "region_walks", "regions": [{"start_page": 1, "pages": 2**63 + 1, "walk": [1]}]},
    ], ids=lambda spec: "-".join(map(str, spec.values())))
    def test_bad_parameters_rejected(self, spec):
        with pytest.raises(PatternError, match=f"^pattern {spec['name']}: "):
            generate_trace(spec, 10, seed=0)

    def test_last_cycle_past_int64_rejected(self, tmp_path):
        top = generate_trace({"name": "stride", "cycle_step": 2**63 - 1}, 2, seed=0)
        assert [a.cycle for a in top] == [0, 2**63 - 1]
        p = tmp_path / "t.csv"
        write_trace(p, top)
        assert read_trace(p) == top
        with pytest.raises(PatternError, match=r"^pattern stride: cycle_step 4611686018427387904 over 3 "):
            generate_trace({"name": "stride", "cycle_step": 2**62}, 3, seed=0)

    @pytest.mark.parametrize("start", [-3, 2**63 - 2, 2**63, 2**70 + 5, -2**70])
    def test_block_outside_the_block_space_is_masked(self, addr_cfg, start):
        trace = generate_trace({"name": "stride", "start_block": start}, 4, seed=0)
        mask, page = addr_cfg.block_space - 1, 1 << addr_cfg.block_index_bits
        assert [a.vaddr for a in trace] == [((start + i) & mask) << addr_cfg.block_offset_bits for i in range(4)]
        # one block parameter of each other pattern, with the blocks that one unit of it moves the
        # trace: every block lands that far from where the parameter at 0 puts it, then is masked
        for spec, unit in [
            (lambda v: {"name": "page_skip", "start_block": v}, 1),
            (lambda v: {"name": "pointer_walk", "page": v}, page),
            (lambda v: {"name": "interleaved", "streams": [{"start_block": v}]}, 1),
            (lambda v: {"name": "random", "region_start_block": v}, 1),
            (lambda v: {"name": "region_walks", "regions": [{"start_page": v, "pages": 9, "walk": [1]}]}, page),
        ]:
            if start < 0 and spec(start)["name"] == "region_walks":
                continue  # start_page must be >= 0
            base = block_addresses(generate_trace(spec(0), 300, seed=7), addr_cfg).tolist()
            trace = generate_trace(spec(start), 300, seed=7)
            assert [a.vaddr for a in trace] == [
                ((b + start * unit) & mask) << addr_cfg.block_offset_bits for b in base], spec(start)

    def test_bad_length(self):
        with pytest.raises(PatternError):
            generate_trace({"name": "stride"}, 0, seed=0)

    def test_pointer_walk_stays_in_page(self, addr_cfg):
        trace = generate_trace({"name": "pointer_walk", "page": 77}, 400, seed=5)
        pages = {page_of_block(block_address(a.vaddr, addr_cfg), addr_cfg) for a in trace}
        assert pages == {77}

    def test_page_skip_crosses_pages(self, addr_cfg):
        trace = generate_trace({"name": "page_skip"}, 100, seed=6)
        pages = {page_of_block(block_address(a.vaddr, addr_cfg), addr_cfg) for a in trace}
        assert len(pages) > 1

    def test_interleaved_streams_are_per_pc_strided(self, addr_cfg):
        spec = {
            "name": "interleaved",
            "streams": [
                {"pc": 0x10, "start_block": 1000, "stride": 2},
                {"pc": 0x20, "start_block": 9000, "stride": 5},
            ],
        }
        trace = generate_trace(spec, 40, seed=0)
        per_pc = {}
        for a in trace:
            per_pc.setdefault(a.pc, []).append(block_address(a.vaddr, addr_cfg))
        assert all(b - a == 2 for a, b in zip(per_pc[0x10], per_pc[0x10][1:]))
        assert all(b - a == 5 for a, b in zip(per_pc[0x20], per_pc[0x20][1:]))

    def test_random_within_region(self, addr_cfg):
        spec = {"name": "random", "region_start_block": 5000, "region_blocks": 128}
        trace = generate_trace(spec, 300, seed=1)
        blocks = [block_address(a.vaddr, addr_cfg) for a in trace]
        assert all(5000 <= b < 5128 for b in blocks)

    def test_region_walks_deltas_cross_pages(self, addr_cfg):
        trace = generate_trace({"name": "region_walks"}, 200, seed=2)
        blocks = [block_address(a.vaddr, addr_cfg) for a in trace]
        page_span = 1 << addr_cfg.block_index_bits
        assert any(abs(b - a) > page_span for a, b in zip(blocks, blocks[1:]))

    def test_cycle_step(self):
        trace = generate_trace({"name": "stride", "cycle_step": 25}, 5, seed=0)
        assert [a.cycle for a in trace] == [0, 25, 50, 75, 100]


# Each pattern with its defaults, and with negative and wide parameters, at cycle_step 3.
WIDE_SPECS = {
    "stride": {"stride": -(2**64) - 3, "start_block": 2**70 + 5, "pc": 2**64 - 1},
    "pointer_walk": {"page": -(2**66) - 5, "steps": [-(2**64) - 1, 3, 2**65 + 7]},
    "page_skip": {"start_block": -7, "deltas": [2**64 + 1, -3, -(2**70)]},
    "interleaved": {"streams": [{"pc": 2**64 - 1, "start_block": -(2**65), "stride": -1},
                                {"start_block": 2**64 + 9, "stride": 2**63}, {}]},
    "random": {"region_start_block": -(2**40) - 3, "region_blocks": 2**62 + 1, "pc": 0},
    "region_walks": {"regions": [{"start_page": 2**64 + 5, "pages": 3, "walk": [-(2**64), 5, -1]},
                                 {"start_page": 0, "pages": 2**40, "walk": []}]},
}
# SHA-256 over the dtype and bytes of the cycle, pc and vaddr columns of every length and seed
# in TestPatternPins. The PRNG stream is numpy's, so the pins hold for the numpy version below.
PATTERN_PIN_NUMPY = "2.4.6"
PATTERN_PINS = {
    ("interleaved", "defaults"): "3fd8d7af43208bb0532d1a9617786315932f3dac778ed74f5e0d8e55acd65bfc",
    ("interleaved", "wide"): "eccc03b9ab0c84f194e1cedc09b5a735746e0c9da445aa9485e58e3043dfd303",
    ("page_skip", "defaults"): "5f2695074990818c2f6bdd2ba0a6ac0a4c5a7d168bd32676d370ec1fdb2813c9",
    ("page_skip", "wide"): "8d2d6dbb68c265ba3bbab41871428a644003c8bf350eb69beb4130f3526c1caa",
    ("pointer_walk", "defaults"): "8d8a429a5a82e2b46ad01cde89065ace31dfe9e26973d9759412bbe0820214b5",
    ("pointer_walk", "wide"): "d30fc7620d972f361a697d11d64a851ddf4f77ee214cd8421ec352487d9b017b",
    ("random", "defaults"): "99681b9d1d36530a448ac6c2982d942cc524e5a1651b2ef489cedd99ef1a275d",
    ("random", "wide"): "d24dc28acdeac35e6f7f69ab9b8a0711b41d68e4c748b551aa170c777ca3f66e",
    ("region_walks", "defaults"): "d7ae9201ae4cb66414ea374092ae5abd75d49636bdf0a3dcd096f1ee8dc5cd70",
    ("region_walks", "wide"): "6483d7d9ffe812f89b661fd4390b11eb698584fae910bb8a0f8d7425b1f09bf8",
    ("stride", "defaults"): "3874f49a9a6b9adf5a551fb0dab7fa2f111f794bdbf57d68268b91fcc2793a04",
    ("stride", "wide"): "cd16baf72509f1005c2c7abf570787bc0321284297c2d0dc1db69f4b6320f6ff",
}


class TestPatternPins:
    """Every pattern's generated columns, byte for byte, against digests recorded before."""

    def test_every_pattern_is_pinned(self):
        assert {name for name, _ in PATTERN_PINS} == set(_GENERATORS) == set(WIDE_SPECS)

    @pytest.mark.parametrize("name, kind", sorted(PATTERN_PINS))
    def test_columns(self, name, kind):
        spec = {"name": name} if kind == "defaults" else {"name": name, **WIDE_SPECS[name], "cycle_step": 3}
        h = hashlib.sha256()
        for length in (1, 7, CHUNK + 3, 20000):
            for seed in (0, 1, 42):
                trace = generate_trace(spec, length, seed)
                for column in (trace.cycle, trace.pc, trace.vaddr):
                    h.update(column.dtype.str.encode())
                    h.update(column.tobytes())
        assert h.hexdigest() == PATTERN_PINS[name, kind], (
            f"{name} {kind}: the columns differ from the pinned bytes, recorded under numpy "
            f"{PATTERN_PIN_NUMPY}; this run used numpy {np.__version__}")


PARITY_CASES = [*sorted(_GENERATORS), "read_trace-gz", "slice", "list-slice"]


def parity_pair(case, tmp_path) -> tuple[list[MemoryAccess], Trace]:
    """The records of a case as a list, and as a Trace."""
    if case in _GENERATORS:
        columns = generate_trace({"name": case, "cycle_step": 3}, 400, seed=3)
    elif case in ("slice", "list-slice"):  # ordinals start again from 0 in the Trace slice
        full = generate_trace({"name": "interleaved", "cycle_step": 5}, 700, seed=4)
        if case == "list-slice":  # the list slice keeps the records' ordinals, 150 on
            return list(full)[150:550], full[150:550]
        columns = full[150:550]
    else:
        p = tmp_path / "t.csv.gz"
        write_trace(p, generate_trace({"name": "region_walks", "cycle_step": 2}, 400, seed=5))
        columns = read_trace(p)
    return list(columns), columns


class TestListTraceParity:
    """A plain list of records and the Trace holding the same records give identical results."""

    LABEL = LabelConfig(32, 32)
    MODEL = ModelParams.init(ModelConfig(hidden_dim=8, num_heads=2, num_layers=1, output_dim=64,
                                         history_len=4, input_dim=10), seed=1)

    def prefetchers(self, trace, addr_cfg):
        return {
            "none": None,
            "next_line": NextLinePrefetcher(2, addr_cfg=addr_cfg),
            "stride": StridePrefetcher(addr_cfg=addr_cfg),
            "best_offset": BestOffsetPrefetcher(addr_cfg=addr_cfg),
            "oracle": OraclePrefetcher(trace, addr_cfg, window=16),
            "model": ModelPrefetcher(self.MODEL, FeatureConfig("as", 6), self.LABEL, addr_cfg, top_k=3),
        }

    @pytest.fixture(params=PARITY_CASES)
    def pair(self, request, tmp_path):
        records, columns = parity_pair(request.param, tmp_path)
        assert isinstance(columns, Trace) and [a[1:] for a in records] == [a[1:] for a in columns]
        first = 150 if request.param == "list-slice" else 0
        assert [a.ordinal for a in records] == list(range(first, first + len(records)))
        return records, columns

    def test_mean_cycles_per_access(self, pair):
        records, columns = pair
        split = split_trace(columns, (0.4, 0.1, 0.5))
        for r in (None, split.train, split.validation, split.test, range(7, 8)):
            assert mean_cycles_per_access(records, r) == mean_cycles_per_access(columns, r)

    @pytest.mark.parametrize("mode", ["as", "delta"])
    def test_build_datasets(self, pair, addr_cfg, mode):
        split = split_trace(pair[1], (0.4, 0.1, 0.5))
        a, b = (build_datasets(t, split, FeatureConfig(mode), self.LABEL, addr_cfg, history_len=4)
                for t in pair)
        for part in ("train", "validation", "test"):
            for field in ("inputs", "contexts", "labels", "triggers"):
                assert np.array_equal(getattr(getattr(a, part), field), getattr(getattr(b, part), field))
        assert {n: d.to_pairs() for n, d in a.dictionaries.items()} == \
            {n: d.to_pairs() for n, d in b.dictionaries.items()}

    @pytest.mark.parametrize("latency", [LatencyModel(0, "H"), LatencyModel(20, "L")], ids=["0H", "20L"])
    def test_simulate_with_event_log(self, pair, addr_cfg, latency):
        records, columns = pair
        by_list, by_trace = self.prefetchers(records, addr_cfg), self.prefetchers(columns, addr_cfg)
        for name in by_list:
            runs = []
            for trace, pf in ((records, by_list[name]), (columns, by_trace[name])):
                log, timeline = [], MissTimeline(len(trace), 100)
                report = simulate(trace, pf, CacheConfig(sets=4, ways=2), latency, addr_cfg, event_log=log)
                for event in log:
                    timeline.append(event)
                runs.append((report, log, timeline.rows()))
            assert runs[0] == runs[1], name
            assert runs[0][1], name
