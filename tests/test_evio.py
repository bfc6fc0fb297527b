"""Serialization: CSV and binary streams, priors, stats, decision logs."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from evdown import (EventFileError, PriorMap, SamplerConfig, SensorGeometry,
                    detect_format, gaussian_prior, read_events, read_log,
                    read_prior, run, write_events, write_log, write_prior,
                    write_stats)
from evdown.evio import EventWriter, stats_doc, write_json_doc

from conftest import SRC_ENV, make_stream, random_stream

GEO = SensorGeometry(8, 6)

STATS_KEYS = ["alpha", "method", "seed", "processed", "retained", "capped",
              "ratio", "per_window_ratios", "ms_per_kev_total",
              "ms_per_kev_pdf", "ms_per_kev_eval"]


class TestCsv:
    def test_round_trip(self, tmp_path):
        s = make_stream(GEO, [(5, 1, 2, 1), (5, 1, 2, 1), (90, 7, 5, 0)])
        path = tmp_path / "a.csv"
        write_events(s, path)
        back = read_events(path, geometry=GEO)
        assert back == s

    def test_labeled_round_trip(self, tmp_path):
        s = make_stream(GEO, [(1, 0, 0, 1), (2, 1, 1, 0)], labels=[1, 0])
        path = tmp_path / "a.csv"
        write_events(s, path)
        back = read_events(path, geometry=GEO)
        assert back == s
        assert back.labels.tolist() == [1, 0]
        assert path.read_text().splitlines()[0] == "t,x,y,p,label"
        assert path.read_text().splitlines()[1] == "1,0,0,1,E"

    def test_exact_bytes(self, tmp_path):
        s = make_stream(GEO, [(10, 3, 4, 1), (20, 0, 5, 0)])
        path = tmp_path / "a.csv"
        write_events(s, path)
        assert path.read_bytes() == b"t,x,y,p\n10,3,4,1\n20,0,5,0\n"

    def test_reencode_is_byte_stable(self, tmp_path):
        s = random_stream(np.random.default_rng(0), n=500)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_events(s, p1)
        write_events(read_events(p1, geometry=s.geometry), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "a.csv"
        write_events(make_stream(GEO, []), path)
        back = read_events(path)
        assert len(back) == 0
        assert back.geometry == SensorGeometry(1, 1)

    def test_geometry_inferred_from_maxima(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p\n1,10,3,1\n")
        back = read_events(path)
        assert back.geometry == SensorGeometry(11, 4)

    def test_value_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p\n1,2,3,1\n99999999999999999999,2,3,1\n")
        with pytest.raises(EventFileError, match=r":3: .*64-bit"):
            read_events(path)

    def test_inferred_geometry_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(f"t,x,y,p\n1,{2**62},3,1\n")
        with pytest.raises(EventFileError, match="64-bit"):
            read_events(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,x,y,p\n")
        with pytest.raises(EventFileError, match=":1"):
            read_events(path)

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p\n1,2,3,1\n4,5,6\n")
        with pytest.raises(EventFileError, match=":3"):
            read_events(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p\n1,2,x,1\n")
        with pytest.raises(EventFileError, match=":2"):
            read_events(path)

    def test_bad_polarity(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p\n1,2,3,7\n")
        with pytest.raises(EventFileError, match="polarity"):
            read_events(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p,label\n1,2,3,1,Q\n")
        with pytest.raises(EventFileError, match="label"):
            read_events(path)

    def test_ordering_violation_indexed(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p\n10,0,0,1\n5,0,0,1\n")
        with pytest.raises(EventFileError, match="index 1"):
            read_events(path)

    def test_bounds_checked_against_explicit_geometry(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,x,y,p\n1,8,0,1\n")
        with pytest.raises(EventFileError, match="outside"):
            read_events(path, geometry=GEO)


class TestBinary:
    def test_golden_bytes(self, tmp_path):
        """Header: magic, version u8, width u16, height u16, count u64 (LE);
        records are packed 13-byte (t u64, x u16, y u16, p u8)."""
        s = make_stream(GEO, [(258, 1, 2, 1), (1_000_000, 7, 5, 0)])
        path = tmp_path / "a.bin"
        write_events(s, path)
        expected = (b"EVDN" + struct.pack("<BHHQ", 1, 8, 6, 2)
                    + struct.pack("<QHHB", 258, 1, 2, 1)
                    + struct.pack("<QHHB", 1_000_000, 7, 5, 0))
        assert path.read_bytes() == expected
        assert len(expected) == 17 + 2 * 13

    def test_round_trip(self, tmp_path):
        s = random_stream(np.random.default_rng(1), n=700)
        path = tmp_path / "a.bin"
        write_events(s, path)
        back = read_events(path)
        assert back == s
        assert back.geometry == s.geometry

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "a.bin"
        write_events(make_stream(GEO, []), path)
        back = read_events(path)
        assert len(back) == 0
        assert back.geometry == GEO

    def test_labels_dropped(self, tmp_path):
        s = make_stream(GEO, [(1, 0, 0, 1)], labels=[1])
        path = tmp_path / "a.bin"
        write_events(s, path)
        assert not read_events(path).is_labeled

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"NOPE" + bytes(13))
        with pytest.raises(EventFileError, match="magic"):
            read_events(path, fmt="binary")

    def test_bad_version(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 9, 4, 4, 0))
        with pytest.raises(EventFileError, match="version"):
            read_events(path)

    def test_truncated_payload(self, tmp_path):
        s = make_stream(GEO, [(1, 0, 0, 1), (2, 1, 1, 0)])
        path = tmp_path / "a.bin"
        write_events(s, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(EventFileError, match="record 1"):
            read_events(path)

    def test_trailing_garbage(self, tmp_path):
        s = make_stream(GEO, [(1, 0, 0, 1)])
        path = tmp_path / "a.bin"
        write_events(s, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(EventFileError, match="size mismatch"):
            read_events(path)

    def test_bad_polarity_byte(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 1, 4, 4, 1)
                         + struct.pack("<QHHB", 1, 0, 0, 9))
        with pytest.raises(EventFileError, match="polarity"):
            read_events(path)

    def test_bounds_checked_against_header(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 1, 4, 4, 1)
                         + struct.pack("<QHHB", 1, 4, 0, 1))
        with pytest.raises(EventFileError, match="outside"):
            read_events(path)

    def test_explicit_geometry_must_match_header(self, tmp_path):
        s = make_stream(GEO, [(1, 0, 0, 1)])
        path = tmp_path / "a.bin"
        write_events(s, path)
        with pytest.raises(EventFileError, match="geometry"):
            read_events(path, geometry=SensorGeometry(9, 9))

    def test_timestamp_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 1, 4, 4, 1)
                         + struct.pack("<QHHB", 2**63, 0, 0, 1))
        with pytest.raises(EventFileError, match="64-bit"):
            read_events(path)

    @pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (0, 0)])
    def test_zero_header_geometry_rejected(self, tmp_path, width, height):
        """A malformed file, not a bad argument: the CLI exits 3."""
        path = tmp_path / "a.bin"
        path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 1, width, height, 0))
        with pytest.raises(EventFileError,
                           match=rf"a\.bin: bad header geometry: .*"
                                 rf"{width}x{height}"):
            read_events(path)

    def test_ordering_violation(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 1, 4, 4, 2)
                         + struct.pack("<QHHB", 9, 0, 0, 1)
                         + struct.pack("<QHHB", 3, 0, 0, 1))
        with pytest.raises(EventFileError, match="order"):
            read_events(path)

    def test_writer_takes_streams_that_fit_its_geometry(self, tmp_path):
        """The stream's geometry, not each event, is checked against the
        file's: every event of a stream lies on its geometry."""
        small = make_stream(SensorGeometry(4, 4), [(1, 3, 3, 1)])
        with open(tmp_path / "a.bin", "wb") as fh:
            writer = EventWriter(fh, "binary", GEO)
            writer.write(small)
            for wide in (SensorGeometry(9, 6), SensorGeometry(8, 7)):
                with pytest.raises(ValueError, match=(
                        rf"^a {wide.width}x{wide.height} stream does not fit "
                        rf"a 8x6 file, refusing to write$")):
                    writer.write(make_stream(wide, [(2, 0, 0, 1)]))
            writer.finish()
        assert read_events(tmp_path / "a.bin") == make_stream(
            GEO, [(1, 3, 3, 1)])


class TestDetectFormat:
    def test_sniffs_magic(self, tmp_path):
        s = make_stream(GEO, [(1, 0, 0, 1)])
        csv_path = tmp_path / "a.csv"
        bin_path = tmp_path / "a.bin"
        write_events(s, csv_path)
        write_events(s, bin_path)
        assert detect_format(csv_path) == "csv"
        assert detect_format(bin_path) == "binary"
        # auto read ignores the extension and trusts content
        misnamed = tmp_path / "b.csv"
        misnamed.write_bytes(bin_path.read_bytes())
        assert read_events(misnamed) == s


class TestPrior:
    def test_round_trip_bitwise(self, tmp_path):
        prior = gaussian_prior(GEO)
        path = tmp_path / "p.txt"
        write_prior(prior, path)
        back = read_prior(path, GEO)
        np.testing.assert_array_equal(back.weights, prior.weights)

    def test_values_verbatim(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 1\n0.30000000000000004 1.0\n")
        prior = read_prior(path, SensorGeometry(2, 1))
        assert prior.weights[0, 0] == 0.30000000000000004
        assert prior.weights[0, 1] == 1.0

    def test_dims_must_match_geometry(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 2\n1 1\n1 1\n")
        with pytest.raises(EventFileError, match="geometry"):
            read_prior(path, GEO)

    def test_row_and_column_counts(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 2\n1 1\n")
        with pytest.raises(EventFileError, match="rows"):
            read_prior(path, SensorGeometry(2, 2))
        path.write_text("2 2\n1 1 1\n1 1\n")
        with pytest.raises(EventFileError, match="row 0"):
            read_prior(path, SensorGeometry(2, 2))

    @pytest.mark.parametrize("body,msg", [
        ("nan 1\n1 1\n", "finite"),
        ("-1 1\n1 1\n", "nonnegative"),
        ("0 0\n0 0\n", "zero"),
    ])
    def test_weight_constraints(self, tmp_path, body, msg):
        path = tmp_path / "p.txt"
        path.write_text("2 2\n" + body)
        with pytest.raises(EventFileError, match=msg):
            read_prior(path, SensorGeometry(2, 2))


class TestStats:
    def run_stats(self):
        s = random_stream(np.random.default_rng(2), n=2000)
        _, stats, log = run(s, "poisson", SamplerConfig(alpha=0.2, seed=1))
        return s, stats, log

    def test_fixed_keys_in_order(self, tmp_path):
        _, stats, _ = self.run_stats()
        path = tmp_path / "stats.json"
        write_stats(stats, path)
        doc = json.loads(path.read_text())
        assert list(doc) == STATS_KEYS
        assert doc["alpha"] == 0.2
        assert doc["method"] == "poisson"
        assert doc["seed"] == 1
        assert doc["processed"] == 2000
        assert doc["retained"] + doc["capped"] <= doc["processed"]
        assert doc["ratio"] == pytest.approx(doc["retained"] / doc["processed"])
        assert len(doc["per_window_ratios"]) == len(stats.per_window)

    def test_selectivity_block_optional(self, tmp_path):
        from evdown import SelectivityReport
        _, stats, _ = self.run_stats()
        report = SelectivityReport(edge_total=10, noise_total=10,
                                   edge_retained=5, noise_retained=2,
                                   overall=0.35, alpha=0.2)
        path = tmp_path / "stats.json"
        write_stats(stats, path, selectivity=report)
        doc = json.loads(path.read_text())
        assert list(doc) == STATS_KEYS + ["selectivity"]
        assert doc["selectivity"]["ratio"] == pytest.approx(2.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_refused(self, tmp_path, value):
        """JSON holds no NaN or Infinity: such a document is refused and
        the old file is left as it was."""
        path = tmp_path / "stats.json"
        path.write_text("old")
        with pytest.raises(ValueError, match="JSON"):
            write_json_doc({"alpha": value}, path)
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["stats.json"]

    def test_write_to_stream(self):
        import io
        _, stats, _ = self.run_stats()
        buf = io.StringIO()
        write_stats(stats, buf)
        assert json.loads(buf.getvalue()) == stats_doc(stats)


class TestDecisionLog:
    def test_round_trip_bitwise(self, tmp_path):
        for method in ("deterministic", "uniform", "poisson"):
            s = random_stream(np.random.default_rng(3), n=800)
            _, _, log = run(s, method, SamplerConfig(alpha=0.3, seed=2))
            path = tmp_path / "log.csv"
            write_log(log, path)
            back = read_log(path)
            assert np.array_equal(back.t, log.t)
            assert np.array_equal(back.window, log.window)
            assert np.array_equal(back.code, log.code)
            assert np.array_equal(back.probability, log.probability,
                                  equal_nan=True)

    def test_header_and_codes(self, tmp_path):
        s = make_stream(GEO, [(1, 0, 0, 1)])
        _, _, log = run(s, "deterministic", SamplerConfig(alpha=0.5))
        path = tmp_path / "log.csv"
        write_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,t,window,code,p"
        assert lines[1] == "0,1,1,A,nan"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(EventFileError):
            read_log(path)

    @pytest.mark.parametrize("row", [
        "0,99999999999999999999,1,A,0.1",
        "0,1,9223372036854775808,A,0.1",
        "0,-9223372036854775809,1,A,0.1",
    ])
    def test_value_beyond_int64_names_line(self, tmp_path, row):
        path = tmp_path / "log.csv"
        path.write_text(f"index,t,window,code,p\n0,1,1,A,0.1\n"
                        f"1{row[1:]}\n")
        with pytest.raises(EventFileError, match=r"log\.csv:3: .*64-bit"):
            read_log(path)

    @pytest.mark.parametrize("body", ["0,1,1,A,0.1\n1,2,1,C,nan\n",
                                      "0,1,1,A,0.1\n1,2,1,a,nan\n"])
    def test_pipe_reads_as_regular_file(self, tmp_path, body):
        """A piped log is read once: it gives the columns, or the message
        with the path swapped, that a regular file holding it gives."""
        path = tmp_path / "log.csv"
        path.write_text("index,t,window,code,p\n" + body)
        probe = ("import sys\nfrom evdown import EventFileError, read_log\n"
                 "try:\n    log = read_log(sys.argv[1])\n"
                 "except EventFileError as exc:\n    print(exc)\n"
                 "else:\n    print([c.dtype.str + c.tobytes().hex() for c in "
                 "(log.t, log.window, log.code, log.probability)])\n")

        def read(source, data=None):
            return subprocess.run([sys.executable, "-c", probe, source],
                                  input=data, capture_output=True, text=True,
                                  env=SRC_ENV, timeout=120)

        want = read(str(path))
        got = read("/dev/stdin", path.read_text())
        assert want.returncode == got.returncode == 0, got.stderr
        assert ("KeyError('a')" in want.stdout) == ("a,nan" in body)
        assert got.stdout == want.stdout.replace(str(path), "/dev/stdin")

    def test_int64_extremes_read_back(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("index,t,window,code,p\n"
                        "0,-9223372036854775808,9223372036854775807,C,1.0\n")
        back = read_log(path)
        assert back.t.tolist() == [-2**63]
        assert back.window.tolist() == [2**63 - 1]
