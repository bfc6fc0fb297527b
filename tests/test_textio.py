"""Text I/O: the vectorized CSV reader against the line loop it falls back
to, and the chunked writers against f-string oracles."""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evdown import (DecisionLog, EventFileError, SamplerConfig, SensorGeometry,
                    read_events, read_log, run, write_events, write_log)
from evdown import evio
from evdown.cli import main

from conftest import make_stream, random_stream

# ---------------------------------------------------------------- reading

_MUTATION_BYTES = b"0123456789,\n\r +-_#.ENX\xff"
_HUGE = ["9223372036854775807", "9223372036854775808",
         "99999999999999999999", "18446744073709551616", "0000000000000000001"]


def loop_result(path):
    """What the line loop alone makes of a file: a stream or the message."""
    try:
        return evio._finish_stream(path, None, *evio._parse_csv_lines(path))
    except EventFileError as exc:
        return str(exc)


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
        fast = evio._parse_csv_fast(path)
        assert fast is not None
        for got, want in zip(fast, evio._parse_csv_lines(path)):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)
        assert_same(read_result(path), loop_result(path))

    def test_crlf_takes_fast_path(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        data = valid_csv([[1, 2, 3, 1, "E"], [4, 5, 6, 0, "N"]], True)
        lf.write_bytes(data)
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        assert evio._parse_csv_fast(crlf) is not None
        assert_same(read_result(crlf), read_result(lf))
        assert_same(read_result(crlf), loop_result(crlf))

    def test_empty_body(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"t,x,y,p,label\n")
        assert evio._parse_csv_fast(path) is not None
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
        path = scratch / "fuzz.csv"
        path.write_bytes(data)
        assert_same(read_result(path), loop_result(path))

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


def oracle_log(log) -> bytes:
    """The per-row f-string decision-log writer the vectorized one replaced."""
    rows = zip(log.t.tolist(), log.window.tolist(), log.code.tolist(),
               log.probability.tolist())
    body = "".join(f"{i},{t},{w},{_CODE[c]},{repr(p)}\n"
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


class TestLogWriterMemory:
    def test_uniform_log_memory_per_row(self, tmp_path, monkeypatch):
        """With blocks of 4096 rows their own cost is small at this size,
        so a step over the whole column breaks the bound: sorting the
        probabilities with an inverse index takes about 40 bytes/row."""
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
