"""Streaming: the resumable Downsampler against one-shot ``run``, the
window-id limit, and ``downsample`` reading, checking and writing in
chunks."""

import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evdown import (Downsampler, EventFileError, EventStream, SamplerConfig,
                    SensorGeometry, gaussian_prior, read_events,
                    retention_ratio, run, write_events, write_log)
from evdown import cli
from evdown.evio import REC_DTYPE, stats_doc
from evdown.pipeline import METHODS

from conftest import make_stream, random_stream

GEO = SensorGeometry(8, 6)


def pushed(stream, method, config, cuts):
    """Push ``stream`` cut at the sorted indices ``cuts``; return the kept
    pieces, log pieces and stats."""
    sampler = Downsampler(stream.geometry, method, config)
    edges = [0, *cuts, len(stream)]
    parts = [sampler.push(stream[a:b]) for a, b in zip(edges, edges[1:])]
    return [k for k, _ in parts], [g for _, g in parts], sampler.close()


def assert_split_invariant(stream, method, config, cuts):
    want_out, want_stats, want_log = run(stream, method, config)
    kept, logs, stats = pushed(stream, method, config, cuts)
    for col in ("t", "x", "y", "p", "source_index"):
        got = np.concatenate([getattr(k, col) for k in kept])
        assert got.tolist() == getattr(want_out, col).tolist(), col
    if stream.is_labeled:
        assert (np.concatenate([k.labels for k in kept]).tolist()
                == want_out.labels.tolist())
    for col in ("t", "window", "code"):
        got = np.concatenate([getattr(g, col) for g in logs])
        assert got.tolist() == getattr(want_log, col).tolist(), col
    got_p = np.concatenate([g.probability for g in logs])
    assert (got_p.view(np.int64).tolist()
            == want_log.probability.view(np.int64).tolist())
    for key in ("processed", "retained", "capped", "sampler_rejected",
                "per_window"):
        assert getattr(stats, key) == getattr(want_stats, key), key


@st.composite
def split_cases(draw):
    geo = draw(st.sampled_from([SensorGeometry(1, 1), SensorGeometry(3, 2),
                                GEO]))
    t_us = draw(st.sampled_from([1, 5, 1000]))
    n = draw(st.integers(0, 90))
    # Steps of 0 give duplicate timestamps; steps past t_us skip one or
    # many empty windows.
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(0, t_us),
                                    st.integers(t_us, 40 * t_us)),
                          min_size=n, max_size=n))
    t = np.cumsum(steps, dtype=np.int64) + draw(st.integers(0, 10**6))
    x = draw(st.lists(st.integers(0, geo.width - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, geo.height - 1), min_size=n,
                      max_size=n))
    labels = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                      max_size=n)), dtype=np.uint8)
    stream = EventStream(geo, t, x, y, np.ones(n, np.uint8), labels=labels)
    method = draw(st.sampled_from(METHODS))
    prior = None
    if method == "poisson" and draw(st.booleans()):
        prior = gaussian_prior(geo)
    alpha = draw(st.sampled_from([0.1, 0.5, 1.0])
                 | st.floats(1e-3, 1.0, exclude_min=True))
    config = SamplerConfig(alpha=alpha, t_us=t_us, tw_us=draw(
        st.sampled_from([1, 3, 100])), seed=draw(st.integers(0, 2**32 - 1)),
        prior=prior, cap_enabled=draw(st.booleans()))
    # Repeated cuts push empty pieces.
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return stream, method, config, cuts


class TestSplitInvariance:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(split_cases())
    def test_pieces_equal_one_run(self, cap_walk, case):
        assert_split_invariant(*case)

    @pytest.mark.parametrize("method,prior_on", [
        ("deterministic", False), ("uniform", False), ("poisson", False),
        ("poisson", True)])
    @pytest.mark.parametrize("cap", [True, False])
    def test_every_event_its_own_push(self, cap_walk, method, cap, prior_on):
        """One event per push cuts inside every window, at every duplicate
        timestamp and on both sides of every gap."""
        times = [0, 0, 0, 10, 999, 999, 1000, 1000, 1500, 1999, 5000, 5000,
                 5001, 6000, 9999, 10_000, 10_000, 40_000, 40_999]
        rng = np.random.default_rng(5)
        stream = make_stream(GEO, [(t, int(rng.integers(8)),
                                    int(rng.integers(6)), 1)
                                   for t in times for _ in range(3)])
        config = SamplerConfig(alpha=0.3, t_us=1000, tw_us=7, seed=11,
                               cap_enabled=cap,
                               prior=gaussian_prior(GEO) if prior_on
                               else None)
        assert_split_invariant(stream, method, config,
                               list(range(1, len(stream))))

    @pytest.mark.parametrize("method", METHODS)
    def test_larger_stream_in_uneven_pieces(self, cap_walk, method):
        stream = random_stream(np.random.default_rng(2), GEO, n=6000,
                               span_us=90_000)
        config = SamplerConfig(alpha=0.1, seed=4)
        assert_split_invariant(stream, method, config,
                               [1, 2, 700, 701, 2500, 2500, 5999])


class TestDownsampler:
    def test_rejected_push_changes_nothing(self):
        """A piece out of order with the last one is refused, with its
        stream-wide index, and the run goes on as if it was never pushed."""
        stream = random_stream(np.random.default_rng(8), GEO, n=400)
        config = SamplerConfig(alpha=0.2, seed=3)
        _, want_stats, want_log = run(stream, "poisson", config)
        sampler = Downsampler(GEO, "poisson", config)
        _, first = sampler.push(stream[:250])
        bad = make_stream(GEO, [(int(stream.t[249]) - 1, 0, 0, 1)])
        with pytest.raises(ValueError, match=(
                rf"out of order at index 250: t={int(stream.t[249]) - 1} "
                rf"after t={int(stream.t[249])}")):
            sampler.push(bad)
        outside = make_stream(GEO, [(int(stream.t[250]), 8, 0, 1)])
        with pytest.raises(ValueError, match="event 250 at .8, 0. outside"):
            sampler.push(outside)
        _, second = sampler.push(stream[250:])
        stats = sampler.close()
        assert stats.per_window == want_stats.per_window
        assert (np.concatenate([first.code, second.code]).tolist()
                == want_log.code.tolist())

    def test_kept_source_index_counts_from_the_first_push(self):
        stream = random_stream(np.random.default_rng(1), GEO, n=300)
        kept, _, _ = pushed(stream, "uniform", SamplerConfig(alpha=0.5),
                            [100, 200])
        assert kept[2].source_index.min() >= 200
        picked = stream.subset(np.arange(0, 300, 2))
        kept, _, _ = pushed(picked, "uniform", SamplerConfig(alpha=0.5),
                            [50, 100])
        # A piece carrying a source_index composes through it.
        assert (kept[2].source_index % 2 == 0).all()
        assert kept[2].source_index.min() >= 200

    def test_piece_of_another_geometry_rejected(self):
        sampler = Downsampler(GEO, "uniform", SamplerConfig(alpha=0.5))
        with pytest.raises(ValueError, match="9x6 piece pushed to a 8x6"):
            sampler.push(make_stream(SensorGeometry(9, 6), [(0, 0, 0, 1)]))

    def test_push_after_close_rejected(self):
        sampler = Downsampler(GEO, "uniform", SamplerConfig(alpha=0.5))
        sampler.push(make_stream(GEO, [(0, 0, 0, 1)]))
        stats = sampler.close()
        assert sampler.close() is stats
        with pytest.raises(ValueError, match="after close"):
            sampler.push(make_stream(GEO, [(1, 0, 0, 1)]))

    def test_bad_method_and_prior_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown method"):
            Downsampler(GEO, "magic", SamplerConfig(alpha=0.5))
        with pytest.raises(ValueError, match="requires the poisson"):
            Downsampler(GEO, "uniform", SamplerConfig(
                alpha=0.5, prior=gaussian_prior(GEO)))
        with pytest.raises(ValueError, match="prior geometry"):
            Downsampler(GEO, "poisson", SamplerConfig(
                alpha=0.5, prior=gaussian_prior(SensorGeometry(4, 4))))


# --- the window-id limit -----------------------------------------------------

SPAN_2_63 = [(0, 0, 0, 1), (2**63 - 1, 1, 1, 0)]


class TestWindowIdLimit:
    @pytest.mark.parametrize("method", METHODS)
    def test_run_refuses_a_wrapping_window_id(self, method):
        """With 1 us windows, t = 2**63 - 1 after t = 0 is window 2**63,
        which int64 would log as -2**63."""
        stream = make_stream(GEO, SPAN_2_63)
        with pytest.raises(ValueError, match=r"limit 2\*\*63 - 1"):
            run(stream, method, SamplerConfig(alpha=0.5, t_us=1))
        _, _, log = run(stream, method, SamplerConfig(alpha=0.5, t_us=2))
        assert log.window.tolist() == [1, 2**62]

    def test_downsampler_refuses_it_in_a_later_piece(self):
        stream = make_stream(GEO, SPAN_2_63)
        sampler = Downsampler(GEO, "uniform", SamplerConfig(alpha=0.5,
                                                            t_us=1))
        sampler.push(stream[:1])
        with pytest.raises(ValueError, match=r"limit 2\*\*63 - 1"):
            sampler.push(stream[1:])

    def test_retention_ratio_refuses_it(self):
        stream = make_stream(GEO, SPAN_2_63)
        with pytest.raises(ValueError, match=r"limit 2\*\*63 - 1"):
            retention_ratio(stream, stream, window_us=1)
        report = retention_ratio(stream, stream, window_us=2)
        assert [w.window_id for w in report.per_window] == [1, 2**62]

    def test_downsample_exits_2(self, tmp_path, capsys):
        src = tmp_path / "wide.evb"
        write_events(make_stream(GEO, SPAN_2_63), src)
        out = tmp_path / "out.evb"
        out.write_bytes(b"old")
        assert cli.main(["downsample", "-i", str(src), "-o", str(out),
                         "-m", "uniform", "-a", "0.5",
                         "--window-us", "1"]) == 2
        err = capsys.readouterr().err
        assert "2**63 - 1" in err and "Traceback" not in err
        assert out.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.evb",
                                                              "wide.evb"]

    @pytest.mark.parametrize("window_us, message", [
        ("1", "2**63 - 1"), ("0", "--window-us must be >= 1, got 0")],
        ids=["id-limit", "zero"])
    def test_metrics_exits_2(self, tmp_path, capsys, window_us, message):
        """A window length the stream cannot use is a usage error, as in
        downsample, not a malformed file."""
        src = tmp_path / "wide.csv"
        write_events(make_stream(GEO, SPAN_2_63), src)
        assert cli.main(["metrics", "--original", str(src), "--downsampled",
                         str(src), "--out", "-",
                         "--window-us", window_us]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


# --- downsample in chunks ----------------------------------------------------

CHUNK = 7


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_EVENTS", CHUNK)


def downsample(src, out, method, *extra, log=None, stats=None):
    args = ["downsample", "-i", str(src), "-o", str(out), "-m", method,
            "-a", "0.2", "--seed", "6", "--window-us", "1000", *extra]
    if log is not None:
        args += ["--log", str(log)]
    if stats is not None:
        args += ["--stats", str(stats)]
    return cli.main(args)


def scene(labeled: bool) -> EventStream:
    """About 20 windows of events, with duplicate timestamps and gaps."""
    rng = np.random.default_rng(21)
    s = random_stream(rng, GEO, n=300, span_us=20_000)
    t = s.t.copy()
    t[150:] += 7000  # a gap of several empty windows
    labels = rng.integers(0, 2, len(s)) if labeled else None
    return EventStream(GEO, t, s.x, s.y, s.p, labels=labels)


class TestChunkedDownsample:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fmt,suffix", [("binary", ".evb"),
                                            ("csv", ".csv")])
    @pytest.mark.parametrize("cap", [True, False])
    def test_same_bytes_as_one_run(self, small_chunks, tmp_path, method, fmt,
                                   suffix, cap):
        stream = scene(labeled=fmt == "csv")
        src = tmp_path / f"in{suffix}"
        write_events(stream, src, fmt=fmt)
        config = SamplerConfig(alpha=0.2, t_us=1000, seed=6, cap_enabled=cap)
        want_out, want_stats, want_log = run(read_events(src), method, config)
        extra = () if cap else ("--no-cap",)
        for out_suffix in (".csv", ".evb"):
            out, log, stats = (tmp_path / f"out{out_suffix}",
                               tmp_path / "log.csv", tmp_path / "stats.json")
            assert downsample(src, out, method, *extra, log=log,
                              stats=stats) == 0
            want_path = tmp_path / f"want{out_suffix}"
            write_events(want_out, want_path)
            assert out.read_bytes() == want_path.read_bytes()
            write_log(want_log, tmp_path / "want-log.csv")
            assert log.read_bytes() == (tmp_path / "want-log.csv").read_bytes()
            got = json.loads(stats.read_text())
            want = stats_doc(want_stats)
            for key in ("processed", "retained", "capped", "ratio",
                        "per_window_ratios"):
                assert got[key] == want[key], key

    def test_empty_binary_input(self, small_chunks, tmp_path):
        src = tmp_path / "empty.evb"
        write_events(make_stream(GEO, []), src)
        out, log = tmp_path / "out.evb", tmp_path / "log.csv"
        assert downsample(src, out, "poisson", log=log) == 0
        assert out.read_bytes() == src.read_bytes()
        assert log.read_text() == "index,t,window,code,p\n"


class TestOutputsReplaced:
    """Outputs are written beside their paths and moved into place."""

    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / "in.evb"
        write_events(scene(labeled=False), path)
        return path

    def test_existing_file_keeps_its_mode(self, tmp_path, src):
        out = tmp_path / "out.evb"
        out.write_bytes(b"old")
        out.chmod(0o640)
        assert downsample(src, out, "uniform") == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_bytes()[:4] == b"EVDN"

    def test_new_file_gets_the_default_mode(self, tmp_path, src):
        out = tmp_path / "out.evb"
        assert downsample(src, out, "uniform") == 0
        mask = os.umask(0o022)
        os.umask(mask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~mask

    def test_symbolic_link_target_replaced(self, tmp_path, src):
        target, link = tmp_path / "target.evb", tmp_path / "link.evb"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert downsample(src, link, "uniform") == 0
        assert link.is_symlink()
        assert target.read_bytes()[:4] == b"EVDN"

    def test_device_written_in_place(self, src):
        assert downsample(src, os.devnull, "uniform", log=os.devnull) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
    def test_read_only_output_exit_4(self, tmp_path, src):
        out = tmp_path / "out.evb"
        out.write_bytes(b"old")
        out.chmod(0o444)
        assert downsample(src, out, "uniform") == 4
        assert out.read_bytes() == b"old"


def binary_with(tmp_path, records):
    recs = np.array(records, dtype=REC_DTYPE)
    path = tmp_path / "in.evb"
    path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 1, GEO.width, GEO.height,
                                           len(recs)) + recs.tobytes())
    return path


def good_records(n=40):
    return [(100 * (i // 2), i % 8, i % 6, i % 2) for i in range(n)]


def with_defect(kind: str, i: int):
    recs = good_records()
    t, x, y, p = recs[i]
    if kind == "order":
        recs[i] = (recs[i - 1][0] - 1, x, y, p)
    elif kind == "bounds":
        recs[i] = (t, x, GEO.height, p)
    elif kind == "polarity":
        recs[i] = (t, x, y, 2)
    else:  # a timestamp above int64; later ones keep the order
        recs[i:] = [(2**63 + k, x, y, p) for k, (_, x, y, p)
                    in enumerate(recs[i:])]
    return recs


def single_defect_message(kind: str, path, i: int) -> str:
    """The message of reading a file whose only defect is at record i."""
    recs = good_records()
    return {
        "order": f"{path}: events out of order at index {i} "
                 f"(t={recs[i - 1][0] - 1} after t={recs[i - 1][0]})",
        "bounds": f"{path}: event {i} at ({recs[i][1]}, {GEO.height}) "
                  f"outside 8x6 sensor",
        "polarity": f"{path}: record {i}: polarity must be 0 or 1, got 2",
        "int64": f"{path}: timestamp exceeds the signed 64-bit range",
    }[kind]


DEFECTS = ["order", "bounds", "polarity", "int64"]


class TestChunkedDefects:
    @pytest.mark.parametrize("kind", DEFECTS)
    @pytest.mark.parametrize("at", [3 * CHUNK, 3 * CHUNK + 4])
    def test_later_chunk_defect_exit_3(self, small_chunks, tmp_path, capsys,
                                       kind, at):
        """At a chunk's first record (ordered against the chunk before)
        and inside a chunk; the message is that of the whole-file reader."""
        src = binary_with(tmp_path, with_defect(kind, at))
        out, log = tmp_path / "out.csv", tmp_path / "log.csv"
        out.write_bytes(b"old output")
        log.write_bytes(b"old log")
        assert downsample(src, out, "poisson", log=log) == 3
        message = single_defect_message(kind, src, at)
        assert capsys.readouterr().err == f"evdown: {message}\n"
        with pytest.raises(EventFileError) as exc:
            read_events(src)
        assert str(exc.value) == message
        assert out.read_bytes() == b"old output"
        assert log.read_bytes() == b"old log"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "in.evb", "log.csv", "out.csv"]

    def test_new_outputs_not_created(self, small_chunks, tmp_path):
        src = binary_with(tmp_path, with_defect("order", 30))
        assert downsample(src, tmp_path / "out.evb", "uniform",
                          log=tmp_path / "log.csv") == 3
        assert [p.name for p in tmp_path.iterdir()] == ["in.evb"]

    def test_csv_defect_exit_3(self, small_chunks, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_events(make_stream(GEO, good_records()), src)
        lines = src.read_text().splitlines()
        lines[31] = "1,0,0,1"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        out.write_bytes(b"old output")
        assert downsample(src, out, "uniform") == 3
        assert "events out of order at index 30" in capsys.readouterr().err
        assert out.read_bytes() == b"old output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv",
                                                              "out.csv"]


class TestChunkedMemory:
    @staticmethod
    def binary_input(path, n, span_us=600_000):
        rng = np.random.default_rng(n)
        recs = np.empty(n, REC_DTYPE)
        recs["t"] = np.sort(rng.integers(0, span_us, n))
        recs["x"] = rng.integers(0, 640, n)
        recs["y"] = rng.integers(0, 480, n)
        recs["p"] = rng.integers(0, 2, n)
        path.write_bytes(b"EVDN" + struct.pack("<BHHQ", 1, 640, 480, n)
                         + recs.tobytes())
        return path

    def peak(self, tmp_path, n):
        src = self.binary_input(tmp_path / f"in{n}.evb", n)
        args = ["downsample", "-i", str(src), "-o", str(tmp_path / "o.evb"),
                "-m", "poisson", "-a", "0.1", "--log",
                str(tmp_path / "log.csv"), "--stats", str(tmp_path / "s")]
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_flat_in_stream_length(self, tmp_path):
        """N and 8N events over the same 100 windows: a whole-stream pass
        would need about 100 bytes more per event."""
        n = 100_000
        self.peak(tmp_path, 1000)  # compile and import before measuring
        small, large = self.peak(tmp_path, n), self.peak(tmp_path, 8 * n)
        assert abs(large - small) < 2 * 2**20, (small, large)
