"""Text I/O: the block-by-block CSV reader, on both kernel paths and at
several block sizes, against the whole-file line loop (csv_oracle), the
decision-log reader, hostile input files, and the chunked writers against
f-string oracles."""

import contextlib
import ctypes
import io
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evdown import (DecisionLog, EventFileError, EventStream, SamplerConfig,
                    SensorGeometry, read_events, read_log, run, write_events,
                    write_log)
from evdown import capwalk, evio
from evdown.cli import main

from conftest import (csv_lines_oracle, csv_oracle, force_python_walk,
                      make_stream, random_stream)

# ---------------------------------------------------------------- reading

_MUTATION_BYTES = b"0123456789,\n\r +-_#.ENX\xff"
_HUGE = ["9223372036854775807", "9223372036854775808",
         "99999999999999999999", "18446744073709551616", "0000000000000000001"]


def loop_result(path):
    """What the whole-file line loop makes of a file: a stream or the
    message."""
    return csv_oracle(path)


def read_result(path):
    try:
        return read_events(path, fmt="csv")
    except EventFileError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got == want
    assert got.is_labeled == want.is_labeled
    if want.is_labeled:
        assert np.array_equal(got.labels, want.labels)


def needs_compiled():
    if capwalk.implementation() != "compiled":
        pytest.skip("the compiled parser cannot be built here")


# Block sizes the CSV reader is checked at: about one row, a few rows, and
# the default.
BLOCK_SIZES = [8, 64, 1 << 20]


def reader_configs():
    """Set _CSV_BLOCK_BYTES to each of BLOCK_SIZES on each kernel path, the
    compiled one where it builds, yielding (kernels, block) while set."""
    paths = (["compiled", "python"] if capwalk.implementation() == "compiled"
             else ["python"])
    for kernels in paths:
        for block in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evio, "_CSV_BLOCK_BYTES", block)
                if kernels == "python":
                    force_python_walk(mp)
                yield kernels, block


class LineLoopRan(Exception):
    pass


def no_line_loop(*args):
    raise LineLoopRan


def compiled_columns(path):
    """The columns read_events reads from an event CSV through the compiled
    scan and parser alone, or None when a block needed the line loop or the
    file was refused; skips the test where the kernels cannot be built."""
    needs_compiled()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evio, "_parse_lines", no_line_loop)
        try:
            s = read_events(path, fmt="csv")
        except (LineLoopRan, EventFileError):
            return None
    return s.t, s.x, s.y, s.p, s.labels


def valid_csv(rows, labeled):
    head = "t,x,y,p,label\n" if labeled else "t,x,y,p\n"
    return (head + "".join(",".join(map(str, r)) + "\n" for r in rows)).encode()


@st.composite
def csv_bytes(draw):
    """A valid event CSV, then up to five byte-level mutations of it."""
    labeled = draw(st.booleans())
    rows, t = [], 0
    for _ in range(draw(st.integers(0, 6))):
        t += draw(st.integers(0, 3))
        row = [t, draw(st.integers(0, 12)), draw(st.integers(0, 12)),
               draw(st.integers(0, 1))]
        if labeled:
            row.append(draw(st.sampled_from("EN")))
        rows.append(row)
    data = bytearray(valid_csv(rows, labeled))
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(["insert", "delete", "replace", "huge",
                                   "blank", "chop", "crlf"]))
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(_MUTATION_BYTES))
        if op == "insert":
            data[at:at] = bytes([byte])
        elif op == "delete":
            del data[at:at + 1]
        elif op == "replace":
            data[at:at + 1] = bytes([byte])
        elif op == "huge":
            data[at:at] = draw(st.sampled_from(_HUGE)).encode()
        elif op == "blank":
            lines = data.split(b"\n")
            lines.insert(draw(st.integers(0, len(lines))), b"")
            data = bytearray(b"\n".join(lines))
        elif op == "chop":
            data = data.rstrip(b"\n")
        else:
            data = bytearray(data.replace(b"\n", b"\r\n"))
    return bytes(data)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("textio")


class TestCsvFastPath:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_valid_file_takes_fast_path(self, tmp_path, labeled):
        s = random_stream(np.random.default_rng(4), n=3000)
        if labeled:
            s = make_stream(s.geometry, list(zip(s.t, s.x, s.y, s.p)),
                            labels=np.arange(3000) % 2)
        path = tmp_path / "a.csv"
        write_events(s, path)
        fast = compiled_columns(path)
        assert fast is not None
        assert_columns_equal(fast, loop_columns(path))
        assert_same(read_result(path), loop_result(path))

    def test_crlf_takes_fast_path(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        data = valid_csv([[1, 2, 3, 1, "E"], [4, 5, 6, 0, "N"]], True)
        lf.write_bytes(data)
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        assert compiled_columns(crlf) is not None
        assert_same(read_result(crlf), read_result(lf))
        assert_same(read_result(crlf), loop_result(crlf))

    @pytest.mark.parametrize("block", [8, 64, 1 << 20])
    def test_lone_cr_takes_fast_path(self, tmp_path, monkeypatch, block):
        """A lone CR ends a row for the compiled scan and parser, as for the
        line loop, where it is the last byte of a block and of the file;
        a file with a bad row gives the loop's message."""
        monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", block)
        rows = [[10 * i, i % 7, i % 5, i % 2, "EN"[i % 2]] for i in range(40)]
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        lf.write_bytes(valid_csv(rows, True))
        data = valid_csv(rows, True).replace(b"\n", b"\r")
        cr.write_bytes(data)
        spans = evio.CsvEvents(cr)._spans
        ends = [data[offset + size - 1:offset + size] for offset, size, _ in
                spans]
        assert ends == [b"\r"] * len(spans)  # every block, the last included
        assert (len(spans) > 1) == (block < len(data))
        assert compiled_columns(cr) is not None
        assert_same(read_result(cr), read_result(lf))
        assert_same(read_result(cr), loop_result(cr))
        mixed = tmp_path / "mixed.csv"
        ends = itertools.cycle([b"\r", b"\n", b"\r\n"])
        mixed.write_bytes(b"".join(line + next(ends)
                                   for line in data.split(b"\r")[:-1]))
        assert compiled_columns(mixed) is not None
        assert_same(read_result(mixed), read_result(lf))
        for bad, line in ((b"250,4,0,2,N\r", 27), (b"250,4,0,1,N\r\r", 28),
                          (b"250,4,0,1\r", 27)):
            path = tmp_path / "bad.csv"
            path.write_bytes(data.replace(b"250,4,0,1,N\r", bad))
            want = loop_result(path)
            assert f"{path}:{line}: " in want
            assert read_result(path) == want

    def test_empty_body(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p,label\n")
        assert compiled_columns(path) is not None
        back = read_events(path)
        assert len(back) == 0 and back.is_labeled

    @pytest.mark.parametrize("body", [
        b"1,2,3,1\n\n4,5,6,0\n",       # blank line: loadtxt skips it
        b"\n1,2,3,1\n",                # blank first line
        b"1,2,3,1\n\n",                # blank last line
        b"1, 2,3,1\n",                 # int() takes spaces and a sign,
        b"+1,2,3,1\n",                 # the byte check sends them to the loop
        b"1,2,3,1 # note\n",           # not a comment to the loop
        b"1,2,3,1\r4,5,6,0\n",         # a lone CR ends a line for the loop
        b"1,2,3,1\r\r\n",
        b"1_0,2,3,1\n",                # int() takes underscores
        b"1,2,3,2\n",
        b"1,2,3,256\n",
        b"1,2,3\n",
        b"1,2,3,1,\n",
        b",2,3,1\n",
        b"1,2,3,1",                    # no final newline
        b"9223372036854775807,2,3,1\n",
        b"9223372036854775808,2,3,1\n",
        b"1,2,3,\xff\n",
        b"1,2,3,1\xa0\n",             # latin-1 whitespace to loadtxt
        b"1,2,3,1\x85\n2,3,4,1\n",
        b"1,2,3,1\x0b\n",             # whitespace to int() and loadtxt alike
    ])
    def test_unlabeled_cases_match_loop(self, tmp_path, body):
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p\n" + body)
        assert_same(read_result(path), loop_result(path))

    @pytest.mark.parametrize("body", [
        b"1,2,3,1,EE\n",               # S1 would truncate this to E
        b"1,2,3,1,NE\n",
        b"1,2,3,1,\n",
        b"1,2,3,1,X\n",
        b"1E5,2,3,1,E\n",              # a letter inside a number
        b"1E,2,3,1,\n",
        b"1,2,3,1,E,E\n",
        b"1,2,3,1,E\n4,5,6,0\n",
        b"1,2,3,1,e\n",
        b"1,2,3,1,E",
        b"1,2,3,1,EE\n4,5,6,0,\n",     # as many letters as rows
        b"1,2,3,1,E\x00\n",            # S2 drops a trailing NUL
        b"1,2,3,1,E \n",
        b" 1,2,3,1,N\n",
        b"1,2,3,1,E\r\n4,5,6,0,N\r\r\n",
    ])
    def test_labeled_cases_match_loop(self, tmp_path, body):
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p,label\n" + body)
        assert_same(read_result(path), loop_result(path))

    @settings(max_examples=400, deadline=None)
    @given(csv_bytes())
    @example(b"t,x,y,p\n1,2,3,1\n\n")
    @example(b"t,x,y,p,label\r\n1,2,3,1,E\r\n5,1,1,0,N")
    def test_differential_against_loop(self, scratch, data):
        """read_events gives the whole-file loop's stream or exact message
        at every block size, with the compiled kernels and without them."""
        path = scratch / "fuzz.csv"
        path.write_bytes(data)
        want = loop_result(path)
        for _ in reader_configs():
            assert_same(read_result(path), want)

    @settings(max_examples=60, deadline=None)
    @given(csv_bytes())
    def test_cli_exit_code(self, scratch, data):
        """downsample never raises: it exits 0 on a file the loop accepts
        and 3 on one it rejects."""
        path = scratch / "cli.csv"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["downsample", "-i", str(path),
                       "-o", str(scratch / "out.csv"), "-m", "uniform",
                       "-a", "0.5", "--log", str(scratch / "log.csv")])
        assert rc == (3 if isinstance(loop_result(path), str) else 0)
        assert "Traceback" not in err.getvalue()


def loop_columns(path):
    """The whole-file line loop's columns of an event CSV, or its message."""
    try:
        return csv_lines_oracle(path)
    except EventFileError as exc:
        return str(exc)


def assert_columns_equal(got, want):
    """Columns equal bit for bit, in the dtypes the stream keeps."""
    assert not isinstance(want, str), want
    assert len(got) == len(want)
    for g, w, dtype in zip(got, want, [np.int64] * 3 + [np.uint8] * 2):
        if w is None:
            assert g is None
            continue
        assert g.dtype == dtype
        assert np.array_equal(g, np.asarray(w, dtype=dtype))


class TestCompiledCsvParser:
    @settings(max_examples=400, deadline=None)
    @given(csv_bytes())
    @example(b"t,x,y,p,label\n9223372036854775807,0,0,1,N\n")
    @example(b"t,x,y,p\n0001,2,3,01\r\n4,5,6,0")
    def test_columns_match_loop_on_both_paths(self, scratch, data):
        """Where the compiled scan and parser take every block of a file,
        at any block size, its columns are the whole-file loop's; without
        the compiled kernels they take none."""
        path = scratch / "fuzz.csv"
        path.write_bytes(data)
        want = loop_columns(path)
        for block in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evio, "_CSV_BLOCK_BYTES", block)
                got = compiled_columns(path)
            if got is not None:
                assert_columns_equal(got, want)
        with pytest.MonkeyPatch.context() as mp:
            force_python_walk(mp)
            assert capwalk.parse_events(data, False, 0) is None
            assert capwalk.scan_events(data, len(data), False,
                                       np.zeros(3, np.uint64)) is None

    @pytest.mark.parametrize("labeled", [False, True])
    def test_resumes_at_every_line_boundary(self, labeled):
        """One row per call, each call starting where the last one ended,
        gives the columns of one call over the whole body."""
        needs_compiled()
        rows = [b"3,1,2,1,E\r\n", b"3,0,0,0,N\n", b"9223372036854775807,7,9,1,N"]
        if not labeled:
            rows = [r.replace(b",E", b"").replace(b",N", b"") for r in rows]
        data = b"".join(rows)
        whole, end = capwalk.parse_events(data, labeled, 3)
        assert end == len(data)
        address, size = capwalk._address(data), len(data)
        cols = [np.zeros(3, np.int64) for _ in range(3)]
        cols += [np.zeros(3, np.uint8), np.zeros(3, np.uint8)]
        used = ctypes.c_int64()
        pos = 0
        for i in range(3):
            got = capwalk._kernel().parse_events(
                address + pos, size - pos, labeled, 1,
                *[c[i:].ctypes.data for c in cols], ctypes.byref(used))
            assert got == 1
            pos += used.value
        assert pos == size
        assert_columns_equal(whole, cols if labeled else cols[:4] + [None])

    @pytest.mark.parametrize("body,row", [
        (b"1,2,3,1\n4,5,6,2\n", 1),
        (b"1,2,3,1\r4,5,6,2\n", 1),             # a lone CR ends row 0
        (b"1,2,3,1\n9223372036854775808,5,6,0\n", 1),
        (b"1,2,3,1\n\n", 1),
        (b"1,2,3,1\n4,5,6,0\r\r", 2),           # row 2 is empty
    ])
    def test_reports_first_rejected_row(self, body, row):
        needs_compiled()
        n = body.count(b"\n") + body.count(b"\r") + 1
        cols = [np.zeros(n, np.int64) for _ in range(3)] + [np.zeros(n, np.uint8)]
        got = capwalk._kernel().parse_events(
            capwalk._address(body), len(body), False, n, *[c.ctypes.data for c in cols], None,
            ctypes.byref(ctypes.c_int64()))
        assert got == -1 - row


# Fields at the edges of the compiled digit loops: 7 to 17 digits around
# the 8-byte words, 18, 19 and 20 digits around 2**63 - 1, and runs of 17
# to 20 zeros before a digit or none.
EDGE_VALUES = [*(b"1234567890123456789"[:k] for k in (7, 8, 9, 15, 16, 17)),
               b"999999999999999999", b"1000000000000000000",
               b"9223372036854775807", b"9223372036854775808",
               b"99999999999999999999", b"1" + b"0" * 19,
               *(b"0" * k + b"7" for k in range(17, 21)),
               *(b"0" * k for k in range(17, 21)),
               b"0" * 17 + b"9223372036854775807",
               b"0" * 17 + b"9223372036854775808"]
EDGE_POLARITIES = [b"0", b"1", b"00", b"01", b"10", b"2"]


def edge_body(field, value, last):
    """Rows with value in one field of the second row, which is the last
    row or has 16 bytes and more after it, so that the compiled scan and
    parser read it byte by byte or 8 bytes at a time."""
    row = [b"5", b"3", b"0", b"1"]
    row[field] = value
    body = b"0,0,0,0\n" + b",".join(row) + b"\n"
    return body if last else body + b"9223372036854775807,1,0,1\n" * 2


class TestDigitEdges:
    """The compiled scan, parser and CLI at the edges of the digit loops,
    against the line loop."""

    def check(self, tmp_path, body):
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p\n" + body)
        want = loop_columns(path)
        top = np.zeros(3, np.uint64)
        rows = capwalk.scan_events(body, len(body), False, top)
        parsed = capwalk.parse_events(body, False, body.count(b"\n"))
        if isinstance(want, str):
            assert rows is None and parsed is None
        else:
            assert rows == len(want[0])
            assert parsed[1] == len(body)
            assert_columns_equal(parsed[0], want)
            assert top.tolist() == [max(want[1]), max(want[2]), want[0][-1]]
        assert_same(read_result(path), loop_result(path))

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_values_match_loop(self, tmp_path, value, field, last):
        needs_compiled()
        self.check(tmp_path, edge_body(field, value, last))

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("value", EDGE_POLARITIES)
    def test_polarities_match_loop(self, tmp_path, value, last):
        needs_compiled()
        self.check(tmp_path, edge_body(3, value, last))

    @pytest.mark.parametrize("field,value", [
        *((0, v) for v in EDGE_VALUES[6:11]),  # 18 to 20 digits
        (1, b"0" * 20 + b"7"), (1, b"0" * 17 + b"9223372036854775807"),
        *((3, v) for v in EDGE_POLARITIES)])
    def test_cli_matches_loop(self, tmp_path, capsys, field, value):
        """downsample exits 0 on a file the line loop accepts, else 3 with
        the loop's message."""
        needs_compiled()
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p\n" + edge_body(field, value, False))
        want = loop_result(path)
        rc = main(["downsample", "-i", str(path), "-o",
                   str(tmp_path / "out.csv"), "-m", "uniform", "-a", "0.5",
                   "--log", str(tmp_path / "log.csv")])
        err = capsys.readouterr().err
        if isinstance(want, str):
            assert (rc, err) == (3, f"evdown: {want}\n")
        else:
            assert rc == 0
            assert_same(read_result(tmp_path / "out.csv"),
                        run(want, "uniform", SamplerConfig(alpha=0.5))[0])

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("block", [64, 1 << 20])
    def test_round_trip_of_widest_values(self, tmp_path, monkeypatch,
                                         labeled, block):
        """EventWriter's rows of 18- and 19-digit values, t up to 2**63 - 1
        and x up to 2**63 - 2 on the (2**63 - 1)x1 sensor, read back by the
        compiled scan and parser alone."""
        needs_compiled()
        rng = np.random.default_rng(19)
        n = 2000
        t = np.sort(np.concatenate([
            [0, 10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63 - 1],
            rng.integers(10**17, 2**63 - 1, 2 * n, endpoint=True)]))
        x = np.concatenate([
            [0, 10**17, 10**18 - 1, 10**18, 2**63 - 2, 2**63 - 3],
            rng.integers(10**17, 10**18, n), rng.integers(10**18, 2**63 - 1, n)])
        p = rng.integers(0, 2, t.size).astype(np.uint8)
        stream = EventStream(SensorGeometry(2**63 - 1, 1), t, x,
                             np.zeros(t.size, np.int64), p,
                             labels=p ^ 1 if labeled else None)
        path = tmp_path / "wide.csv"
        with open(path, "wb") as fh:
            writer = evio.EventWriter(fh, "csv", stream.geometry, labeled)
            writer.write(stream[:n])
            writer.write(stream[n:])
        monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", block)
        monkeypatch.setattr(evio, "_parse_lines", no_line_loop)
        assert_same(read_events(path, fmt="csv"), stream)


def faulty_csv(faults) -> bytes:
    """40 rows of an unlabeled CSV, about 500 bytes, with each fault named
    in faults at its own row: a value past int64 (row 5), a timestamp
    out of order (row 20) and a field that is no number (row 35)."""
    rows = [[10 * i, i % 7, i % 5, i % 2] for i in range(40)]
    if "overflow" in faults:
        rows[5][1] = 2**63
    if "order" in faults:
        rows[20][0] = 5
    if "field" in faults:
        rows[35][2] = "x"
    return valid_csv(rows, False)


class TestCsvBlocks:
    @pytest.mark.parametrize("faults", [
        faults for k in range(4)
        for faults in itertools.combinations(["overflow", "order", "field"],
                                             k)])
    def test_fault_precedence_across_blocks(self, tmp_path, faults):
        """Faults in different blocks: a malformed field outranks a value
        past int64 before it, which outranks an earlier order fault, at
        every block size, on both kernel paths; the first pass alone finds
        each (at 8 bytes, every row starts a block)."""
        path = tmp_path / "a.csv"
        path.write_bytes(faulty_csv(faults))
        want = loop_result(path)
        if "field" in faults:
            assert want.endswith(":37: invalid literal for int() with base "
                                 "10: 'x'")
        elif "overflow" in faults:
            assert want.endswith(":7: value exceeds the signed 64-bit range")
        elif "order" in faults:
            assert "out of order at index 20 " in want
        else:
            assert not isinstance(want, str)
        for _ in reader_configs():
            assert_same(read_result(path), want)
            if isinstance(want, str):
                with pytest.raises(EventFileError) as exc:
                    evio.CsvEvents(path)
                assert str(exc.value) == want

    @pytest.mark.parametrize("order", [False, True])
    def test_outside_geometry_then_order_fault(self, tmp_path, order):
        """An event outside a given geometry is named only when no event
        after it is out of order."""
        rows = [[10 * i, i % 7, i % 5, i % 2] for i in range(40)]
        rows[5][1] = 50
        if order:
            rows[30][0] = 5
        path = tmp_path / "a.csv"
        path.write_bytes(valid_csv(rows, False))
        geometry = SensorGeometry(10, 10)
        want = csv_oracle(path, geometry)
        assert (("out of order at index 30 " if order
                 else "event 5 at (50, 0) outside 10x10") in want)
        for _ in reader_configs():
            with pytest.raises(EventFileError) as exc:
                read_events(path, fmt="csv", geometry=geometry)
            assert str(exc.value) == want

    def test_lone_cr_rows_read_in_bounded_blocks(self, tmp_path,
                                                 monkeypatch):
        """A CR not followed by LF ends a line, so a file of such rows is
        cut into blocks of at most _CSV_BLOCK_BYTES, as an LF file is; a
        block never ends between the CR and LF of a CRLF."""
        monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", 64)
        rows = [[10 * i, i % 7, i % 5, i % 2, "EN"[i % 2]] for i in range(300)]
        for end in (b"\r", b"\r\n"):
            path = tmp_path / "a.csv"
            path.write_bytes(valid_csv(rows, True).replace(b"\n", end))
            source = evio.CsvEvents(path)
            sizes = [size for _, size, _ in source._spans]
            assert len(sizes) > 40 and max(sizes) <= 64
            data = path.read_bytes()
            assert all(data[offset + size - 1:offset + size + 1] != b"\r\n"
                       for offset, size, _ in source._spans)
            assert_same(source.read(), loop_result(path))


def padded(t, width, end=b"\n"):
    """An event row padded on the left with spaces, which int() takes, to
    width bytes, its line end included."""
    return (b"%d,1,2,0" % t).rjust(width - len(end)) + end


class TestLineLimit:
    @pytest.mark.parametrize("block", [8, 24, 64])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_longest_line_read_and_a_longer_refused(
            self, tmp_path, monkeypatch, cap_walk, block, end):
        """A line as long as _CSV_LINE_BYTES, its line end included, is
        read, as is a last line that long without one; a line one byte
        longer is refused, naming it, at every block size up to the limit
        and on both kernel paths.  A lone CR ends the long line only where
        the byte after it is read, so a CR line is one byte shorter."""
        monkeypatch.setattr(evio, "_CSV_LINE_BYTES", 64)
        monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", block)
        longest = 64 - (end == b"\r")
        head = b"t,x,y,p" + end + padded(0, 20, end) + padded(1, 20, end)
        for name, body, line in (
                ("fits", padded(2, longest, end) + padded(3, 20, end), None),
                ("last", padded(2, 20, end) + padded(3, 64, b""), None),
                ("long", padded(2, longest + 1, end) + padded(3, 20, end), 4),
                ("long-last", padded(2, 20, end) + padded(3, 65, b""), 5)):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(head + body)
            got = read_result(path)
            if line is None:
                assert_same(got, loop_result(path))
            else:
                assert got == f"{path}:{line}: line longer than 64 bytes"

    def test_long_header_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evio, "_CSV_LINE_BYTES", 64)
        monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", 8)
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p" + b" " * 60 + b"\n" + padded(0, 20))
        assert read_result(path) == f"{path}:1: line longer than 64 bytes"


class TestNonAscii:
    def test_csv_names_file_and_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p\n1,2,3,1\n4,5,6,\xff\n")
        with pytest.raises(EventFileError,
                           match=r"a\.csv:3: non-ASCII byte 0xff"):
            read_events(path)

    def test_csv_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p\xc3\xa9\n")
        with pytest.raises(EventFileError, match=r":1: non-ASCII byte 0xc3"):
            read_events(path)

    def test_log_names_file_and_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"index,t,window,code,p\n0,1,1,A,0.5\xff\n")
        with pytest.raises(EventFileError,
                           match=r"log\.csv:2: non-ASCII byte 0xff"):
            read_log(path)

    def test_prior_names_file_and_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"2 1\n1.0 \x80\n")
        with pytest.raises(EventFileError,
                           match=r"p\.txt:2: non-ASCII byte 0x80"):
            evio.read_prior(path, SensorGeometry(2, 1))


# ---------------------------------------------------------- hostile files

def downsample_exit(args):
    """downsample's exit code; a traceback fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["downsample", *args])
    assert "Traceback" not in err.getvalue()
    return rc


def file_error(read, *args):
    """None when read(*args) succeeds, else its EventFileError message;
    any other exception fails the test."""
    try:
        read(*args)
    except EventFileError as exc:
        return str(exc)
    return None


@st.composite
def binary_bytes(draw):
    """A valid binary stream file, then hostile edits: bad magic, version,
    count or geometry, polarity above 1, t beyond int64, bytes appended,
    truncation."""
    n = draw(st.integers(0, 4))
    head = bytearray(b"EVDN" + struct.pack("<BHHQ", 1, 6, 5, n))
    recs = [bytearray(struct.pack("<QHHB", 10 * i, i % 6, i % 5, i % 2))
            for i in range(n)]
    tail = b""
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["magic", "version", "count", "geometry",
                                   "polarity", "t", "append"]))
        rec = draw(st.sampled_from(recs)) if recs else bytearray(13)
        if op == "magic":
            head[:4] = draw(st.sampled_from([b"EVDM", b"evdn", b"\0" * 4]))
        elif op == "version":
            head[4] = draw(st.sampled_from([0, 2, 255]))
        elif op == "count":
            head[9:17] = struct.pack("<Q", draw(st.sampled_from(
                [0, n + 1, max(n - 1, 0), 2**63, 2**64 - 1])))
        elif op == "geometry":
            head[5:9] = struct.pack("<HH", *draw(st.tuples(
                st.sampled_from([0, 1, 65535]),
                st.sampled_from([0, 1, 65535]))))
        elif op == "polarity":
            rec[12] = draw(st.integers(2, 255))
        elif op == "t":
            rec[:8] = struct.pack("<Q", draw(st.sampled_from(
                [2**63, 2**64 - 1, 2**63 - 1])))
        else:
            tail += draw(st.binary(min_size=1, max_size=14))
    data = bytes(head) + b"".join(recs) + tail
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


_PRIOR_TOKENS = ["1", "0", "-1", "0.5", "nan", "inf", "1e999", "1e-400",
                 "99999999999999999999", "x", "", " ", "\n", "\xff", "3 2"]


@st.composite
def prior_text(draw):
    """A 3x2 prior file, then up to four tokens put in or swapped in."""
    lines = ["3 2", "1 0.5 0.25", "0 2 1"]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(" ")
        j = draw(st.integers(0, len(fields)))
        token = draw(st.sampled_from(_PRIOR_TOKENS))
        if draw(st.booleans()):
            fields.insert(j, token)
        else:
            fields[min(j, len(fields) - 1)] = token
        lines[i] = " ".join(fields)
    if draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines).encode("utf-8", "surrogateescape")


class TestHostileFiles:
    """downsample exits 0 on a sound file and 3 on a malformed one, and
    never shows a traceback; readers raise only EventFileError."""

    @settings(max_examples=300, deadline=None)
    @given(binary_bytes())
    @example(b"EVDN" + struct.pack("<BHHQ", 1, 0, 5, 0))
    @example(b"EVDN" + struct.pack("<BHHQ", 1, 6, 5, 2)
             + struct.pack("<QHHB", 0, 1, 1, 1)
             + struct.pack("<QHHB", 2**63 - 1, 1, 1, 1))
    def test_binary_stream(self, scratch, data):
        path = scratch / "in.evb"
        path.write_bytes(data)
        error = file_error(read_events, path)
        assert downsample_exit(["-i", str(path), "-o", str(scratch / "o.evb"),
                                "-m", "uniform", "-a", "0.5"]) == (
            3 if error else 0)

    @settings(max_examples=200, deadline=None)
    @given(prior_text())
    @example(b"3 0\n")
    @example(b"99999999999999999999 2\n1 1 1\n1 1 1")
    def test_prior(self, scratch, data):
        stream = scratch / "prior_in.evb"
        write_events(random_stream(np.random.default_rng(3),
                                   SensorGeometry(3, 2), n=60), stream)
        path = scratch / "prior.txt"
        path.write_bytes(data)
        error = file_error(evio.read_prior, path, SensorGeometry(3, 2))
        assert downsample_exit(["-i", str(stream), "-o", str(scratch / "o.evb"),
                                "-m", "poisson", "-a", "0.5", "--window-us",
                                "500", "--prior", str(path)]) == (
            3 if error else 0)


# ---------------------------------------------------------------- writing

_LETTER = {1: "E", 0: "N"}
_CODE = {0: "A", 1: "S", 2: "C"}


def oracle_csv(stream) -> bytes:
    """The per-row f-string CSV writer the vectorized one replaced."""
    cols = [stream.t.tolist(), stream.x.tolist(), stream.y.tolist(),
            stream.p.tolist()]
    if stream.is_labeled:
        head = "t,x,y,p,label\n"
        rows = (f"{t},{x},{y},{p},{_LETTER[l]}\n"
                for t, x, y, p, l in zip(*cols, stream.labels.tolist()))
    else:
        head = "t,x,y,p\n"
        rows = (f"{t},{x},{y},{p}\n" for t, x, y, p in zip(*cols))
    return (head + "".join(rows)).encode("ascii")


def oracle_repr(p: float) -> str:
    """repr, but -nan for a NaN with its sign bit set, so it reads back
    with the sign."""
    return "-nan" if math.isnan(p) and math.copysign(1.0, p) < 0 else repr(p)


def oracle_log(log) -> bytes:
    """The per-row f-string decision-log writer the vectorized one replaced."""
    rows = zip(log.t.tolist(), log.window.tolist(), log.code.tolist(),
               log.probability.tolist())
    body = "".join(f"{i},{t},{w},{_CODE[c]},{oracle_repr(p)}\n"
                   for i, (t, w, c, p) in enumerate(rows))
    return ("index,t,window,code,p\n" + body).encode("ascii")


# Rows per block: one row, blocks that split the data unevenly, the default.
CHUNKS = [1, 7, 64, 1 << 16]


@pytest.fixture(params=CHUNKS)
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(evio, "_CHUNK_ROWS", request.param)
    return request.param


def log_bytes(log, tmp_path):
    path = tmp_path / "log.csv"
    write_log(log, path)
    return path.read_bytes()


def csv_bytes_of(stream, tmp_path):
    path = tmp_path / "s.csv"
    write_events(stream, path, fmt="csv")
    return path.read_bytes()


class TestWriterBytes:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    @pytest.mark.parametrize("cap", [True, False])
    def test_log_of_each_method(self, tmp_path, chunk_rows, method, cap):
        s = random_stream(np.random.default_rng(5), n=700)
        out, _, log = run(s, method,
                          SamplerConfig(alpha=0.2, seed=3, cap_enabled=cap))
        assert log_bytes(log, tmp_path) == oracle_log(log)
        assert csv_bytes_of(out, tmp_path) == oracle_csv(out)

    def test_edge_probabilities(self, tmp_path, chunk_rows):
        probs = [math.nan, -math.nan, 0.0, -0.0, math.ulp(0.0),
                 math.nextafter(1.0, 0.0), 1.0, 0.1, 1e-300, 1e16, 0.5,
                 math.inf, -math.inf, 0.30000000000000004, 0.1]
        n = len(probs)
        log = DecisionLog(np.arange(n, dtype=np.int64) * 7,
                          np.arange(n, dtype=np.int64) // 3 + 1,
                          np.arange(n, dtype=np.uint8) % 3,
                          np.array(probs))
        assert log_bytes(log, tmp_path) == oracle_log(log)

    def test_integer_widths(self, tmp_path, chunk_rows):
        edges = [0, 1, 9, 10, 11, 99, 100, 999, 1000, 65535, 2**31 - 1,
                 2**31, 2**32 - 1, 2**32, 10**18 - 1, 10**18, 2**63 - 1]
        t = np.array(edges, dtype=np.int64)
        s = make_stream(SensorGeometry(2**31, 2**31),
                        [(v, v % 2**31, (3 * v) % 2**31, v % 2)
                         for v in edges],
                        labels=[v % 2 for v in edges])
        assert csv_bytes_of(s, tmp_path) == oracle_csv(s)
        log = DecisionLog(t, t[::-1].copy(), np.zeros(t.size, np.uint8),
                          np.full(t.size, 0.25))
        assert log_bytes(log, tmp_path) == oracle_log(log)

    def test_negative_integers_in_log(self, tmp_path, chunk_rows):
        """A DecisionLog is not validated, so the writer keeps the f-string
        writer's output for negative values too."""
        t = np.array([-1, 0, -10, 2**63 - 1, -2**63, -99], dtype=np.int64)
        log = DecisionLog(t, -t[::-1], np.ones(t.size, np.uint8),
                          np.linspace(0, 1, t.size))
        assert log_bytes(log, tmp_path) == oracle_log(log)

    def test_scene_sized_stream(self, tmp_path):
        s = random_stream(np.random.default_rng(6), SensorGeometry(240, 180),
                          n=150_000, span_us=2_000_000)
        s = make_stream(s.geometry, list(zip(s.t, s.x, s.y, s.p)),
                        labels=(s.x > 100).astype(np.uint8))
        assert csv_bytes_of(s, tmp_path) == oracle_csv(s)

    def test_empty(self, tmp_path):
        log = DecisionLog(np.empty(0, np.int64), np.empty(0, np.int64),
                          np.empty(0, np.uint8), np.empty(0))
        assert log_bytes(log, tmp_path) == oracle_log(log)
        for labels in (None, []):
            s = make_stream(SensorGeometry(3, 3), [], labels=labels)
            assert csv_bytes_of(s, tmp_path) == oracle_csv(s)

    def test_unknown_code_rejected(self, tmp_path):
        log = DecisionLog(np.array([1]), np.array([1]),
                          np.array([3], np.uint8), np.array([0.5]))
        with pytest.raises(ValueError, match="decision code 3"):
            write_log(log, tmp_path / "log.csv")
        s = make_stream(SensorGeometry(3, 3), [(1, 0, 0, 1)], labels=[2])
        with pytest.raises(ValueError, match="label 2"):
            write_events(s, tmp_path / "s.csv")

    @pytest.mark.parametrize("code", [-1, -3, 255, 2**40])
    def test_code_outside_table_rejected(self, tmp_path, code):
        """A negative code must not wrap around to the table's end."""
        log = DecisionLog(np.array([1, 2]), np.array([1, 1]),
                          np.array([0, code]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=f"decision code {code} "):
            write_log(log, tmp_path / "log.csv")


class TestWriterBytesWithoutKernels(TestWriterBytes):
    """The same byte checks on the numpy writer that runs where the
    compiled kernels cannot be built."""

    @pytest.fixture(autouse=True)
    def _python(self, monkeypatch):
        force_python_walk(monkeypatch)


def python_rows(n, columns) -> bytes:
    """What _write_rows writes without the compiled kernels."""
    with pytest.MonkeyPatch.context() as mp:
        force_python_walk(mp)
        fh = io.BytesIO()
        evio._write_rows(fh, n, columns)
    return fh.getvalue()


def compiled_rows(n, columns) -> bytes:
    """What _write_rows writes through the compiled row formatter; skips
    the test where the compiled kernels cannot be built."""
    needs_compiled()
    fh = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evio, "_matrix_rows", None)  # no fallback
        evio._write_rows(fh, n, columns)
    return fh.getvalue()


_SPECIAL_BITS = [0, 1 << 63, 1, (1 << 63) | 1, 0x000FFFFFFFFFFFFF,
                 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
                 0x3FF0000000000000, 0x7FEFFFFFFFFFFFFF]


@st.composite
def row_columns(draw):
    """n rows of an int64 column over the full range, an index counter, a
    symbol column and a float column of any bit pattern."""
    n = draw(st.integers(0, 40))
    ints = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-20, 20),
                     st.sampled_from([-2**63, 2**63 - 1]))
    bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS))
    first = draw(st.integers(-2**63, 2**63 - 1 - n))
    codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return n, [
        np.array(draw(st.lists(ints, min_size=n, max_size=n)), np.int64),
        range(first, first + n),
        evio._symbols(_CODE, np.array(codes, np.uint8), "code"),
        np.array(draw(st.lists(bits, min_size=n, max_size=n)),
                 np.uint64).view(np.float64)]


class TestRowFormatter:
    @settings(max_examples=300, deadline=None)
    @given(row_columns(), st.integers(1, 50))
    def test_compiled_matches_numpy(self, columns, block):
        n, columns = columns
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evio, "_CHUNK_ROWS", block)
            assert compiled_rows(n, columns) == python_rows(n, columns)

    def test_int64_extremes(self):
        values = np.array([-2**63, 2**63 - 1, -1, 0], np.int64)
        want = b"-9223372036854775808\n9223372036854775807\n-1\n0\n"
        assert compiled_rows(4, [values]) == python_rows(4, [values]) == want
        top = range(2**63 - 2, 2**63)
        assert bytes(capwalk.format_rows(2, [top])) == (
            b"9223372036854775806\n9223372036854775807\n")

    def test_table_rows_without_padding(self):
        """Every table row fills its width, so no NUL ends any of them."""
        table = evio._strings(["ab", "cd", "ef"])
        assert table.shape == (3, 2) and table.all()
        column = (table, np.array([2, 0, 1, 1]))
        assert (compiled_rows(4, [column, column])
                == python_rows(4, [column, column])
                == b"ef,ef\nab,ab\ncd,cd\ncd,cd\n")

    def test_zero_rows(self):
        needs_compiled()
        columns = [np.empty(0, np.int64), range(5, 5),
                   (evio._strings(["A"]), np.empty(0, np.int64))]
        assert bytes(capwalk.format_rows(0, columns)) == b""
        assert compiled_rows(0, columns) == python_rows(0, columns) == b""

    @pytest.mark.parametrize("column", [
        (evio._strings(["A", "B"]), np.array([0, 2])),
        (evio._strings(["A", "B"]), np.array([-1, 0])),
        (evio._strings(["A", "B"]), np.array([0])),
        np.array([1, 2, 3]),
        np.array([0.5, 1.5]),
        range(0, 4, 2),
        range(2**63 - 1, 2**63 + 1),
    ], ids=["index past table", "negative index", "short index",
            "long ints", "floats", "step 2", "past int64"])
    def test_refuses_what_it_cannot_write(self, column):
        """Columns the kernel cannot write are refused before it runs: an
        index outside its table would read past it."""
        needs_compiled()
        with pytest.raises(ValueError):
            capwalk.format_rows(2, [column])

    def test_compiled_writers_never_fall_back(self, tmp_path, monkeypatch):
        """Where the kernels build, the numpy layout is never used: a silent
        fallback would pass every byte check."""
        needs_compiled()

        def fallback(values):
            raise AssertionError("the numpy writer ran")

        monkeypatch.setattr(evio, "_decimal", fallback)
        s = random_stream(np.random.default_rng(5), n=300)
        s = make_stream(s.geometry, list(zip(s.t, s.x, s.y, s.p)),
                        labels=(s.x > 30).astype(np.uint8))
        _, _, log = run(s, "poisson", SamplerConfig(alpha=0.3, seed=2))
        write_log(log, tmp_path / "log.csv")
        write_events(s, tmp_path / "s.csv")
        assert read_log(tmp_path / "log.csv").probability.tobytes() == (
            log.probability.tobytes())
        assert read_events(tmp_path / "s.csv") == s


class TestLogWriterMemory:
    def test_uniform_log_memory_per_row(self, tmp_path, monkeypatch):
        """With blocks of 4096 rows their own cost is small at this size,
        so a step over the whole column breaks the bound: even an index
        into one probability's text takes 8 bytes/row."""
        monkeypatch.setattr(evio, "_CHUNK_ROWS", 1 << 12)
        n = 200_000
        s = random_stream(np.random.default_rng(13), SensorGeometry(64, 48),
                          n=n, span_us=400_000)
        _, _, log = run(s, "uniform", SamplerConfig(alpha=0.1, seed=3))
        path = tmp_path / "log.csv"
        write_log(log, path)
        tracemalloc.start()
        try:
            write_log(log, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 8

    def test_constant_probability_tables_stay_bounded(self):
        """Pieces whose probabilities are one value each, as a sparse
        window's pieces can be, share a table per value while it is
        recent, and never keep more than a bounded number of them."""
        evio._letters.cache_clear()
        writer = evio.LogWriter(io.BytesIO())
        for i in range(500):
            writer.write(DecisionLog(np.full(3, i, np.int64),
                                     np.ones(3, np.int64),
                                     np.zeros(3, np.uint8),
                                     np.full(3, 1 / (i + 2))))
        info = evio._letters.cache_info()
        assert info.currsize <= info.maxsize < 500


# ---------------------------------------------------------- decision logs

def read_log_result(path):
    try:
        log = read_log(path)
    except EventFileError as exc:
        return str(exc)
    return log.t, log.window, log.code, log.probability


def assert_logs_equal(got, want):
    """Columns, dtypes and probability bits equal, or the same message."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for g, w, dtype in zip(got, want,
                           [np.int64, np.int64, np.uint8, np.float64]):
        assert g.dtype == w.dtype == dtype
        assert g.tobytes() == w.tobytes()


def log_columns(log):
    return log.t, log.window, log.code, log.probability


_LOG_TOKENS = ["-", "+", "_", " ", "0x1p-3", "inf", "-inf", "NaN", "nan",
               "-nan", "1e5", "1E5", "1e+05", ".5", "5.", "1e", "e+5", "0.1",
               "\r", "\r\n", "\n", ",", "A", "S", "C", "X", "0", "9",
               "9223372036854775808", "-9223372036854775809",
               "00000000000000000000000000001", "1.0000000000000000000000001",
               "\xff", "\x00"]
EDGE_PROBS = [-0.0, 0.0, math.ulp(0.0), 1e-310, 2.2250738585072014e-308,
              math.nextafter(2.2250738585072014e-308, 0.0),
              math.nextafter(1.0, 0.0), 1.0, math.nan, -math.nan, math.inf,
              -math.inf, 0.1, 1e16, 1e-5, 1 / 3, -2.5e-300,
              1.7976931348623157e308]


@st.composite
def mutated_logs(draw):
    """A decision log as write_log writes it, then up to five edits: tokens
    put in or swapped in, bytes dropped, two rows swapped (an index out of
    sequence), CRLF line ends or no final newline."""
    n = draw(st.integers(0, 6))
    ints = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-20, 20))
    log = DecisionLog(
        np.array(draw(st.lists(ints, min_size=n, max_size=n)), np.int64),
        np.array(draw(st.lists(ints, min_size=n, max_size=n)), np.int64),
        np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                 np.uint8),
        np.array(draw(st.lists(st.one_of(st.sampled_from(EDGE_PROBS),
                                         st.floats()),
                               min_size=n, max_size=n)), np.float64))
    data = bytearray(oracle_log(log))
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(["insert", "replace", "delete", "swap",
                                   "crlf", "chop"]))
        at = draw(st.integers(0, len(data)))
        token = draw(st.sampled_from(_LOG_TOKENS)).encode("latin-1")
        if op == "insert":
            data[at:at] = token
        elif op == "replace":
            data[at:at + len(token)] = token
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 3))]
        elif op == "swap":
            lines = data.split(b"\n")
            i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            data = bytearray(b"\n".join(lines))
        elif op == "crlf":
            data = bytearray(data.replace(b"\n", b"\r\n"))
        else:
            data = data.rstrip(b"\n")
    return bytes(data)


class TestLogParser:
    @settings(max_examples=300, deadline=None)
    @given(mutated_logs())
    @example(b"index,t,window,code,p\r\n0,-0,+1,A,1e5\r\n1,2,3,S,0x1p-3")
    @example(b"index,t,window,code,p\n0,1,1,A,NaN\n1,1,1,C,-nan\n2,1,1,S,5.")
    @example(b"index,t,window,code,p\n0,1,1,A,0.1\n2,1,1,A,0.1\n")
    @example(b"index,t,window,code,p\n0,99999999999999999999,1,A,0.1\n")
    def test_matches_loop_on_both_paths(self, scratch, data):
        """read_log gives the same columns bit for bit, or the same
        message, with the compiled kernels and without them."""
        path = scratch / "log.csv"
        path.write_bytes(data)
        want = read_log_result(path)
        with pytest.MonkeyPatch.context() as mp:
            force_python_walk(mp)
            assert_logs_equal(read_log_result(path), want)

    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    @pytest.mark.parametrize("cap", [True, False])
    def test_round_trip_of_each_method(self, tmp_path, cap_walk, method, cap):
        s = random_stream(np.random.default_rng(5), n=700)
        _, _, log = run(s, method,
                        SamplerConfig(alpha=0.2, seed=3, cap_enabled=cap))
        path = tmp_path / "log.csv"
        write_log(log, path)
        assert_logs_equal(read_log_result(path), log_columns(log))

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_round_trip_of_edge_values(self, tmp_path, cap_walk, monkeypatch,
                                       block):
        """Blocks of 1 and 7 rows make write_log format each block's
        values apart, and the rows still read back bit for bit."""
        monkeypatch.setattr(evio, "_CHUNK_ROWS", block)
        n = 3 * len(EDGE_PROBS)
        log = DecisionLog(
            np.array([-2**63, 2**63 - 1, -1, 0] * n, np.int64)[:n],
            np.arange(n, dtype=np.int64) - 5, np.arange(n, dtype=np.uint8) % 3,
            np.array(EDGE_PROBS * 3))
        path = tmp_path / "log.csv"
        write_log(log, path)
        assert_logs_equal(read_log_result(path), log_columns(log))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n")[:-2])
        assert_logs_equal(read_log_result(path), log_columns(log))

    def test_negative_nan_keeps_its_sign(self, tmp_path, cap_walk):
        log = DecisionLog(np.array([1, 2]), np.array([1, 1]),
                          np.array([0, 1], np.uint8),
                          np.array([-math.nan, math.nan]))
        path = tmp_path / "log.csv"
        write_log(log, path)
        assert path.read_bytes().splitlines()[1:] == [b"0,1,1,A,-nan",
                                                      b"1,2,1,S,nan"]
        got = read_log(path).probability.view(np.uint64).tolist()
        assert got == [0xFFF8000000000000, 0x7FF8000000000000]

    @pytest.mark.parametrize("text,taken", [
        ("0.1", True), ("-0.0", True), ("5e-324", True), ("1e+16", True),
        ("1e-05", True), ("nan", True), ("inf", True), ("-inf", True),
        ("1.7976931348623157e+308", True), ("-2.2250738585072014e-308", True),
        ("1e5", False), ("1E+05", False), ("NaN", False), ("Inf", False),
        ("infinity", False), ("0x1p-3", False), ("1_0.5", False),
        (" 0.1", False), ("0.1 ", False), ("+0.1", False), (".5", False),
        ("5.", False), ("1e", False), ("-", False), ("", False),
        ("0.10000000000000000000000", False),   # 25 bytes
    ])
    def test_probability_grammar(self, tmp_path, text, taken):
        """read_log reads p as float does, or names line 2 when float
        refuses it; taken marks the texts repr writes, which write_log
        writes again unchanged."""
        path = tmp_path / "log.csv"
        path.write_bytes(f"index,t,window,code,p\n0,1,1,A,{text}\n".encode())
        try:
            want = float(text)
        except ValueError as exc:
            assert not taken
            assert read_log_result(path) == f"{path}:2: {exc!r}"
            return
        got = read_log(path).probability
        assert got.tobytes() == np.array([want]).tobytes()
        assert (repr(want) == text) == taken

    def test_empty(self, tmp_path, cap_walk):
        log = DecisionLog(np.empty(0, np.int64), np.empty(0, np.int64),
                          np.empty(0, np.uint8), np.empty(0))
        path = tmp_path / "log.csv"
        write_log(log, path)
        assert_logs_equal(read_log_result(path), log_columns(log))
