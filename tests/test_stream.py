"""Streaming: the resumable Downsampler against one-shot ``run``, the
window-id limit, and ``downsample`` reading, checking and writing in
chunks."""

import contextlib
import io
import json
import os
import re
import shutil
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evdown import (Downsampler, EventFileError, EventStream, SamplerConfig,
                    SensorGeometry, gaussian_prior, read_events,
                    retention_ratio, run, write_events, write_log,
                    write_prior)
from evdown import capwalk, cli, evio
from evdown.evio import REC_DTYPE, BinaryEvents, CsvEvents, stats_doc
from evdown.pipeline import METHODS

from conftest import (SRC_ENV, csv_oracle, force_python_walk, make_stream,
                      random_stream)
from test_textio import BLOCK_SIZES, csv_bytes, no_line_loop

GEO = SensorGeometry(8, 6)


def pushed(stream, method, config, cuts):
    """Push ``stream`` cut at the sorted indices ``cuts``; return the kept
    pieces, log pieces and stats."""
    sampler = Downsampler(stream.geometry, method, config)
    edges = [0, *cuts, len(stream)]
    parts = [sampler.push(stream[a:b]) for a, b in zip(edges, edges[1:])]
    return [k for k, _ in parts], [g for _, g in parts], sampler.close()


def assert_split_invariant(stream, method, config, cuts, want=None):
    """The pieces decide as ``want``, by default one run of the stream."""
    want_out, want_stats, want_log = want or run(stream, method, config)
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

    @pytest.mark.parametrize("prior_on", [False, True])
    def test_window_spanning_many_pieces(self, cap_walk, prior_on):
        """Windows of about 1000 events cut into pieces of 40: each piece
        holds pixels new to its window and pixels seen before, and the
        window's tally, merged from its pieces as they pile up and when it
        closes, freezes the map that one run freezes."""
        geo = SensorGeometry(40, 30)
        rng = np.random.default_rng(9)
        n = 3000
        stream = EventStream(geo, np.sort(rng.integers(0, 3000, n)),
                             rng.integers(0, 40, n), rng.integers(0, 30, n),
                             np.ones(n, np.uint8))
        cuts = list(range(40, n, 40))
        window = stream.t // 1000 + 1
        for wid in (1, 2):
            pieces = np.unique(np.searchsorted(cuts, np.flatnonzero(
                window == wid), side="right"))
            assert pieces.size >= 20
        config = SamplerConfig(alpha=0.2, t_us=1000, seed=2,
                               prior=gaussian_prior(geo) if prior_on
                               else None)
        assert_split_invariant(stream, "poisson", config, cuts)

    @pytest.mark.parametrize("method", METHODS)
    def test_larger_stream_in_uneven_pieces(self, cap_walk, method):
        stream = random_stream(np.random.default_rng(2), GEO, n=6000,
                               span_us=90_000)
        config = SamplerConfig(alpha=0.1, seed=4)
        assert_split_invariant(stream, method, config,
                               [1, 2, 700, 701, 2500, 2500, 5999])


    @pytest.mark.parametrize("method,prior_on", [
        ("deterministic", False), ("uniform", False), ("poisson", False),
        ("poisson", True)])
    @pytest.mark.parametrize("cap", [True, False])
    def test_pieces_that_shrink_and_grow(self, cap_walk, method, prior_on,
                                         cap):
        """Pieces of 1 event, then of 1,024, then one larger than any
        before, holding a window of 2,500 events, then small ones again:
        the compiled scorer's buffers grow mid-stream and are reused by
        the pieces after."""
        geo = SensorGeometry(40, 30)
        rng = np.random.default_rng(13)
        t = np.concatenate([np.sort(rng.integers(a, b, n)) for a, b, n in (
            (0, 20_000, 2000), (20_000, 21_000, 2500), (21_000, 60_000,
                                                        2000))])
        stream = EventStream(geo, t, rng.integers(0, 40, t.size),
                             rng.integers(0, 30, t.size),
                             np.ones(t.size, np.uint8))
        sizes = [1] * 10 + [1024] + [3600] + [1] * 10 + [7, 1024]
        cuts = np.cumsum(sizes).tolist()
        assert cuts[10] < 2000 and cuts[11] > 4500
        config = SamplerConfig(alpha=0.2, t_us=1000, seed=3, cap_enabled=cap,
                               prior=gaussian_prior(geo) if prior_on
                               else None)
        assert_split_invariant(stream, method, config, cuts)

    @pytest.mark.parametrize("size", [1, 7, 1024, 4096])
    @pytest.mark.parametrize("method,prior_on", [
        ("deterministic", False), ("uniform", False), ("poisson", False),
        ("poisson", True)])
    @pytest.mark.parametrize("cap", [True, False])
    def test_packets_of_one_size(self, cap_walk, monkeypatch, size, method,
                                 prior_on, cap):
        """Pieces of one size, as a camera driver hands them over, decide
        as one run with the default buffers, while the push decides 5
        events at a time and keeps rows in blocks of 3: windows, rows and
        leftover draws cross spans, blocks and pieces."""
        geo = SensorGeometry(40, 30)
        stream = random_stream(np.random.default_rng(size), geo, n=5000,
                               span_us=90_000)
        config = SamplerConfig(alpha=0.2, t_us=1000, tw_us=7, seed=size,
                               cap_enabled=cap,
                               prior=gaussian_prior(geo) if prior_on
                               else None)
        want = run(stream, method, config)
        monkeypatch.setattr(capwalk, "_SPAN", 5)
        monkeypatch.setattr(capwalk, "_ROW_BLOCK", 3)
        assert_split_invariant(stream, method, config,
                               list(range(size, len(stream), size)), want)

    @pytest.mark.parametrize("method", METHODS)
    def test_strided_slice_decides_as_its_copy(self, cap_walk, method):
        """A slice with a step shares its columns as strided views; one
        push of it, or pieces of it, decide as a run of a copy of its
        events."""
        geo = SensorGeometry(40, 30)
        stream = random_stream(np.random.default_rng(5), geo, n=6000,
                               span_us=60_000)[::2]
        assert not stream.t.flags.c_contiguous
        copy = EventStream(geo, *(np.array(c) for c in (
            stream.t, stream.x, stream.y, stream.p)), labels=None
            if stream.labels is None else np.array(stream.labels))
        config = SamplerConfig(alpha=0.2, t_us=1000, seed=1)
        want = run(copy, method, config)
        for cuts in ([], [7, 700, 1500]):
            assert_split_invariant(stream, method, config, cuts, want)


def packets(method):
    """A sampler and the packets of 4,096 events pushed to it; the first
    two grow every buffer that a push reuses to the size the rest need:
    window 1 is the densest, so the scorer's buffers reach their size in
    the first push."""
    rng = np.random.default_rng(4)
    t = np.sort(np.concatenate([rng.integers(0, 1000, 4096),
                                rng.integers(1000, 400_000, 6 * 4096)]))
    stream = EventStream(GEO, t, rng.integers(0, 8, t.size),
                         rng.integers(0, 6, t.size), np.ones(t.size, np.uint8))
    sampler = Downsampler(GEO, method, SamplerConfig(alpha=0.1, seed=2,
                                                     t_us=1000))
    return sampler, [stream[a:a + 4096] for a in range(0, len(stream), 4096)]


class TestDownsampler:
    @pytest.mark.parametrize("method", METHODS)
    def test_push_allocates_only_what_it_returns(self, method):
        """Once the first pushes have grown the buffers a push reuses, a
        push allocates the kept events and the log it returns and nothing
        else, at its peak too: its windows, scores, walk, draws and rows
        live in the sampler's buffers."""
        sampler, pieces = packets(method)
        for piece in pieces[:2]:
            sampler.push(piece)
        for piece in pieces[2:]:
            tracemalloc.start()
            try:
                kept, log = sampler.push(piece)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            returned = sum(a.nbytes for a in (
                kept.t, kept.x, kept.y, kept.p, kept.source_index,
                log.window, log.code, log.probability))
            # The Python objects: two streams' worth of array headers.
            assert returned <= held <= peak < returned + 4096, (returned,
                                                                 held, peak)

    @pytest.mark.parametrize("method", METHODS)
    def test_one_compiled_call_per_push(self, method):
        """Once the first pushes have grown the buffers a push reuses, a
        piece within one span costs one call of the compiled push: it
        returns for no draws, rows, kept positions or scorer room."""
        if capwalk.implementation() != "compiled":
            pytest.skip("the compiled push cannot be built here")
        sampler, pieces = packets(method)
        decider, starts = sampler._decider, []

        class Counted:
            def __init__(self, kernel):
                self.kernel = kernel

            def push_span(self, *args):
                starts.append(args[-1])
                return self.kernel.push_span(*args)

        decider.kernel = Counted(decider.kernel)
        for piece in pieces[:2]:
            sampler.push(piece)
        for piece in pieces[2:]:
            starts.clear()
            sampler.push(piece)
            assert starts == [0]

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
        # A piece off the sensor cannot be built, so it is never pushed.
        with pytest.raises(ValueError, match="event 0 at .8, 0. outside 8x6"):
            make_stream(GEO, [(int(stream.t[250]), 8, 0, 1)])
        _, second = sampler.push(stream[250:])
        stats = sampler.close()
        assert stats.per_window == want_stats.per_window
        assert (np.concatenate([first.code, second.code]).tolist()
                == want_log.code.tolist())

    @pytest.mark.parametrize("method", METHODS)
    def test_run_state_bounded(self, method):
        """A stream of 600,000 windows, pushed in pieces of 65,536 events,
        holds at most 15 MiB before close(): one row of 24 bytes per
        window, the draws left unused and the scorer's buffers."""
        n = 600_000
        stream = EventStream(GEO, np.arange(n), np.arange(n) % 8,
                             np.arange(n) % 6, np.ones(n, np.uint8))
        pieces = [stream[a:a + 65_536] for a in range(0, n, 65_536)]
        config = SamplerConfig(alpha=0.3, t_us=1, seed=2)
        # The first generator imports numpy.random, which is no run state.
        np.random.default_rng(0).random()
        tracemalloc.start()
        try:
            sampler = Downsampler(GEO, method, config)
            for piece in pieces:
                sampler.push(piece)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 15 * 2**20, held
        stats = sampler.close()
        assert len(stats.per_window) == n
        assert stats.per_window[-1] == (n, 1, stats.per_window[-1][2])

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

    @pytest.mark.parametrize("method", METHODS)
    def test_refused_push_changes_nothing(self, cap_walk, method):
        """The refusal comes before any counter, draw or window row moves:
        the run goes on as if the piece was never pushed."""
        stream = make_stream(GEO, [(t, t % 8, t % 6, 1) for t in range(40)])
        config = SamplerConfig(alpha=0.3, t_us=1, seed=3)
        _, want_stats, want_log = run(stream, method, config)
        sampler = Downsampler(GEO, method, config)
        _, first = sampler.push(stream[:25])

        def state():
            decider = sampler._decider
            return (decider.state.tobytes(), decider.rows(),
                    decider.draws.tobytes(),
                    None if sampler._rng is None
                    else sampler._rng.bit_generator.state)

        before = state()
        with pytest.raises(ValueError, match=r"limit 2\*\*63 - 1"):
            sampler.push(make_stream(GEO, [(2**63 - 1, 0, 0, 1)]))
        assert state() == before
        _, second = sampler.push(stream[25:])
        stats = sampler.close()
        assert stats.per_window == want_stats.per_window
        assert (stats.retained, stats.capped) == (want_stats.retained,
                                                  want_stats.capped)
        assert (np.concatenate([first.code, second.code]).tolist()
                == want_log.code.tolist())


class TestWindowEdges:
    """Windows where the window pass could go wrong, on both kernel paths:
    a piece equals one run however it is cut."""

    @pytest.mark.parametrize("t_us, times", [
        (1, [1, 2, 2, 2**63 - 3, 2**63 - 2, 2**63 - 1, 2**63 - 1]),
        (2**62, [0, 5, 2**62 - 1, 2**62, 2**62, 2**62 + 1, 2**63 - 2,
                 2**63 - 1])])
    @pytest.mark.parametrize("method", METHODS)
    def test_timestamps_near_the_top(self, cap_walk, t_us, times, method):
        """With 1 us windows anchored at 1, the last id is 2**63 - 1; with
        windows of 2**62 us from 0, window 2 ends at 2**63, which int64
        cannot hold."""
        stream = make_stream(GEO, [(t, i % 8, i % 6, 1)
                                   for i, t in enumerate(times)])
        config = SamplerConfig(alpha=0.5, t_us=t_us, seed=1)
        _, _, log = run(stream, method, config)
        assert log.window.tolist() == [(t - times[0]) // t_us + 1
                                       for t in times]
        for cuts in ([3], list(range(1, len(times)))):
            assert_split_invariant(stream, method, config, cuts)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("cap", [True, False])
    def test_gaps_of_empty_windows_inside_a_piece(self, cap_walk, method,
                                                  cap):
        times = [0, 1, 6, 7, 10**6, 10**6, 10**12 + 3, 10**15, 10**15 + 6,
                 2**62 + 11, 2**62 + 12]
        stream = make_stream(GEO, [(t, j % 8, (t + j) % 6, 1)
                                   for t in times for j in range(5)])
        config = SamplerConfig(alpha=0.4, t_us=7, seed=8, cap_enabled=cap)
        _, stats, _ = run(stream, method, config)
        assert [w for w, _, _ in stats.per_window] == [
            1, 2, 142858, 142857142858, 142857142857143, 142857142857144,
            658812288346769703]
        assert_split_invariant(stream, method, config, [13, 27, 41])

    @pytest.mark.parametrize("method,prior_on", [
        ("deterministic", False), ("uniform", False), ("poisson", False),
        ("poisson", True)])
    @pytest.mark.parametrize("cap", [True, False])
    def test_window_cut_at_every_event(self, cap_walk, method, prior_on, cap):
        """Three windows of 60 events, each event its own push: every piece
        holds one event of a window that started pieces before."""
        rng = np.random.default_rng(12)
        stream = make_stream(GEO, [(w * 1000 + i, int(rng.integers(8)),
                                    int(rng.integers(6)), 1)
                                   for w in range(3) for i in range(60)])
        config = SamplerConfig(alpha=0.2, t_us=1000, seed=5, cap_enabled=cap,
                               prior=gaussian_prior(GEO) if prior_on
                               else None)
        kept, _, stats = pushed(stream, method, config,
                                list(range(1, len(stream))))
        assert [(w, n) for w, n, _ in stats.per_window] == [
            (1, 60), (2, 60), (3, 60)]
        assert sum(r for _, _, r in stats.per_window) == sum(map(len, kept))
        assert_split_invariant(stream, method, config,
                               list(range(1, len(stream))))


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


def assert_same_bytes_as_one_run(tmp_path, src, method, cap=True):
    """downsample writes the outputs, log and counters of one run over the
    stream read_events reads from src."""
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
        assert_same_bytes_as_one_run(tmp_path, src, method, cap)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fmt,suffix", [("binary", ".evb"),
                                            ("csv", ".csv")])
    def test_default_chunk_splits_windows(self, tmp_path, method, fmt,
                                          suffix):
        """About 50,000 events in chunks of the default size: windows are
        cut between chunks, and the bytes are those of one run."""
        rng = np.random.default_rng(17)
        stream = random_stream(rng, GEO, n=50_000, span_us=400_000)
        windows = stream.t // 1000
        edges = range(cli._CHUNK_EVENTS, len(stream), cli._CHUNK_EVENTS)
        assert len(edges) >= 2
        assert all(windows[i - 1] == windows[i] for i in edges)
        src = tmp_path / f"in{suffix}"
        write_events(stream, src, fmt=fmt)
        assert_same_bytes_as_one_run(tmp_path, src, method)

    def test_empty_binary_input(self, small_chunks, tmp_path):
        src = tmp_path / "empty.evb"
        write_events(make_stream(GEO, []), src)
        out, log = tmp_path / "out.evb", tmp_path / "log.csv"
        assert downsample(src, out, "poisson", log=log) == 0
        assert out.read_bytes() == src.read_bytes()
        assert log.read_text() == "index,t,window,code,p\n"


# --- CSV input read in two passes -------------------------------------------

BLOCK = 64  # bytes: a block holds a few rows of scene()


@pytest.fixture
def small_blocks(small_chunks, monkeypatch):
    monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", BLOCK)


def streamed(src) -> CsvEvents:
    """The reader of src, whose every block the compiled scan must take."""
    if capwalk.implementation() != "compiled":
        pytest.skip("the compiled parser cannot be built here")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evio, "_parse_lines", no_line_loop)
        return CsvEvents(src)


def scene_csv(tmp_path, labeled=True, edit=lambda data: data):
    src = tmp_path / "in.csv"
    write_events(scene(labeled), src)
    src.write_bytes(edit(src.read_bytes()))
    return src


class TestStreamedCsv:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("labeled", [True, False])
    def test_blocks_cut_inside_rows(self, small_blocks, tmp_path, method,
                                    labeled):
        """A block of BLOCK bytes that ends inside a row is cut at its last
        line end, and the row goes to the next block."""
        src = scene_csv(tmp_path, labeled)
        spans = streamed(src)._spans
        assert len(spans) > 40 and sum(rows for *_, rows in spans) == 300
        assert any(size < BLOCK for _, size, _ in spans[:-1])
        data = src.read_bytes()
        assert all(data[offset + size - 1] == ord("\n")
                   for offset, size, _ in spans)
        assert_same_bytes_as_one_run(tmp_path, src, method)

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data.rstrip(b"\n"),
        lambda data: data.replace(b"\n", b"\r\n").rstrip(b"\r\n"),
        # a row longer than a block: leading zeros are digits the parser
        # takes, so the block grows to hold the row
        lambda data: data.replace(b"\n", b"\n" + b"0" * 3 * BLOCK, 1)],
        ids=["crlf", "no-final-newline", "crlf-no-final-newline",
             "row-past-a-block"])
    def test_line_ends(self, small_blocks, tmp_path, edit):
        src = scene_csv(tmp_path, edit=edit)
        streamed(src)
        assert_same_bytes_as_one_run(tmp_path, src, "poisson")

    @pytest.mark.parametrize("header", [b"t,x,y,p\n", b"t,x,y,p,label\r\n"])
    def test_header_only(self, small_blocks, tmp_path, header):
        src = tmp_path / "in.csv"
        src.write_bytes(header)
        source = streamed(src)
        assert source._spans == [] and source.geometry == SensorGeometry(1, 1)
        assert_same_bytes_as_one_run(tmp_path, src, "poisson")
        assert (tmp_path / "out.csv").read_bytes() == header.replace(b"\r",
                                                                     b"")

    @pytest.mark.parametrize("at", [3 * CHUNK, 3 * CHUNK + 4])
    def test_order_violation_exit_3(self, small_blocks, tmp_path, capsys, at):
        """At a chunk's first row and inside a chunk: the message is
        read_events's, and no output is touched."""
        if capwalk.implementation() != "compiled":
            pytest.skip("the compiled parser cannot be built here")
        src = tmp_path / "in.csv"
        src.write_text("t,x,y,p\n" + "".join(
            f"{t},{x},{y},{p}\n" for t, x, y, p in with_defect("order", at)))
        out, log = tmp_path / "out.csv", tmp_path / "log.csv"
        out.write_bytes(b"old output")
        assert downsample(src, out, "poisson", log=log) == 3
        message = single_defect_message("order", src, at)
        assert capsys.readouterr().err == f"evdown: {message}\n"
        with pytest.raises(EventFileError, match=re.escape(message)):
            read_events(src)
        assert out.read_bytes() == b"old output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv",
                                                              "out.csv"]

    def test_order_violation_before_prior(self, small_blocks, tmp_path,
                                          capsys):
        """The first pass checks the order too, so a file out of order is
        refused before the prior is read, as when it was read whole."""
        src = tmp_path / "in.csv"
        src.write_text("t,x,y,p\n" + "".join(
            f"{t},{x},{y},{p}\n" for t, x, y, p in with_defect("order", 30)))
        prior = tmp_path / "prior.txt"
        write_prior(gaussian_prior(SensorGeometry(2, 2)), prior)
        assert downsample(src, tmp_path / "out.csv", "poisson", "--prior",
                          str(prior)) == 3
        message = single_defect_message("order", src, 30)
        assert capsys.readouterr().err == f"evdown: {message}\n"

    def test_pipe_read_once(self, tmp_path):
        """A pipe cannot be read twice, so the first pass copies it to a
        temporary file, which the second pass reads."""
        src = scene_csv(tmp_path)
        out, want = tmp_path / "out.csv", tmp_path / "want.csv"
        args = ["downsample", "-m", "poisson", "-a", "0.2", "--format", "csv"]
        assert cli.main([*args, "-i", str(src), "-o", str(want)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "evdown.cli", *args, "-i", "/dev/stdin",
             "-o", str(out)], input=src.read_bytes(), capture_output=True,
            env=SRC_ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == want.read_bytes()

    def test_file_changed_between_passes_exit_3(self, small_blocks, tmp_path,
                                                capsys):
        """Cut inside a row, or after one, so that the line loop reads
        the rows that are left."""
        for line_end in (False, True):
            src = scene_csv(tmp_path)
            source = streamed(src)
            blocks = source.blocks(CHUNK)
            next(blocks)
            data = src.read_bytes()
            src.write_bytes(data[:data.index(b"\n", 200) + 1 if line_end
                                 else 200])
            with pytest.raises(EventFileError,
                               match="changed while it was read"):
                list(blocks)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_bytes())
    def test_rejects_with_read_events_message(self, small_blocks, cap_walk,
                                              tmp_path, data):
        """downsample refuses exactly the files the whole-file line loop
        refuses, with its message, at every block size, on both kernel
        paths."""
        src = tmp_path / "fuzz.csv"
        src.write_bytes(data)
        want = csv_oracle(src)
        for block in BLOCK_SIZES:
            err = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, \
                    contextlib.redirect_stderr(err):
                mp.setattr(evio, "_CSV_BLOCK_BYTES", block)
                rc = downsample(src, tmp_path / "out.csv", "poisson",
                                log=tmp_path / "log.csv")
            if isinstance(want, str):
                assert (rc, err.getvalue()) == (3, f"evdown: {want}\n")
            else:
                assert rc == 0, err.getvalue()


def loop_field(value: int):
    """value written as int() reads it: plainly, or with a sign, spaces,
    leading zeros or an underscore between digits, which the compiled scan
    and parser refuse but for the zeros, leaving the row to the line
    loop."""
    text = str(value)
    return st.sampled_from([text, "+" + text, f" {text} ", "00" + text,
                            text[0] + "_" + text[1:] if value > 9 else text])


@st.composite
def loop_csv(draw):
    """A valid event CSV, some of whose fields only the line loop reads
    (see loop_field), its rows ended by LF, CRLF or a lone CR."""
    labeled = draw(st.booleans())
    lines, t = ["t,x,y,p,label\n" if labeled else "t,x,y,p\n"], 0
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.integers(0, 30))
        fields = [draw(loop_field(v)) for v in (
            t, draw(st.integers(0, 12)), draw(st.integers(0, 12)),
            draw(st.integers(0, 1)))]
        if labeled:
            fields.append(draw(st.sampled_from("EN")))
        lines.append(",".join(fields) + draw(st.sampled_from(
            ["\n", "\r\n", "\r"])))
    return "".join(lines).encode()


class TestChunkedRead:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(csv_bytes(), loop_csv()),
           st.one_of(st.integers(8, 64), st.integers(8, 1 << 20)),
           st.integers(1, 16))
    def test_parts_match_whole_file_loop(self, cap_walk, tmp_path, data,
                                         block, chunk):
        """A CSV cut into blocks of 8 bytes to 1 MiB and read in parts of
        1 to n rows gives the whole-file line loop's columns, or its
        message, and downsample its exit code, on both kernel paths; the
        rows the compiled parser refuses go to the line loop in both
        passes."""
        src = tmp_path / "in.csv"
        src.write_bytes(data)
        want = csv_oracle(src)
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stderr(err):
            mp.setattr(evio, "_CSV_BLOCK_BYTES", block)
            mp.setattr(cli, "_CHUNK_EVENTS", chunk)
            try:
                with contextlib.closing(CsvEvents(src)) as source:
                    parts = list(source.blocks(chunk))
                got = None
            except EventFileError as exc:
                got = str(exc)
            rc = downsample(src, tmp_path / "out.csv", "uniform",
                            log=tmp_path / "log.csv")
        if isinstance(want, str):
            assert (got, rc, err.getvalue()) == (want, 3,
                                                 f"evdown: {want}\n")
            return
        assert (got, rc) == (None, 0), err.getvalue()
        assert all(0 < len(part) <= chunk for part in parts)
        assert sum(map(len, parts)) == len(want)
        for name in ("t", "x", "y", "p") + ("labels",) * want.is_labeled:
            column = np.concatenate(
                [getattr(want, name)[:0]] + [getattr(part, name)
                                             for part in parts])
            assert np.array_equal(column, getattr(want, name)), name
        assert all(part.geometry == want.geometry for part in parts)


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

    def csv_input(self, path, n, bad=False):
        write_events(read_events(self.binary_input(path.with_suffix(".evb"),
                                                   n)), path)
        if bad:
            with open(path, "ab") as fh:
                fh.write(b"1,2,3,7\n")  # a polarity of 7: exit 3
        return path

    def peak(self, tmp_path, n, suffix=".evb", bad=False, pipe=False):
        src = tmp_path / f"in{n}{suffix}"
        if suffix == ".evb":
            self.binary_input(src, n)
        else:
            self.csv_input(src, n, bad)
        args = ["downsample", "-i", str(src), "-o", str(tmp_path / "o.evb"),
                "-m", "poisson", "-a", "0.1", "--log",
                str(tmp_path / "log.csv"), "--stats", str(tmp_path / "s")]
        with piped(src) if pipe else contextlib.nullcontext(src) as path:
            args[2] = str(path)
            tracemalloc.start()
            try:
                assert cli.main(args) == (3 if bad else 0)
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

    def assert_csv_peak_flat(self, tmp_path, monkeypatch):
        """N and 8N rows of CSV, valid, with a malformed last row (found
        only at the end) and from a pipe, read in blocks of 64 KiB, so that
        N rows span several: reading the whole file would hold about 40
        bytes more per row with the compiled kernels and 90 without."""
        monkeypatch.setattr(evio, "_CSV_BLOCK_BYTES", 1 << 16)
        # The line loop is slow under tracemalloc.
        n = 100_000 if capwalk.implementation() == "compiled" else 5_000
        for case in ("valid", "bad last row", "pipe"):
            options = dict(bad=case == "bad last row", pipe=case == "pipe")
            self.peak(tmp_path, 1000, ".csv", **options)
            small = self.peak(tmp_path, n, ".csv", **options)
            large = self.peak(tmp_path, 8 * n, ".csv", **options)
            assert abs(large - small) < 2 * 2**20, (case, small, large)

    # What one chunk may hold at its peak, per event of the chunk, on
    # either kernel path: its columns, probabilities, window ids and codes,
    # the push's span buffers and draws, the log's text buffer, and the
    # Python walk's floats.  Measured: about 170 bytes compiled, 32 in
    # Python, beside the window's state below.
    CHUNK_BYTES_PER_EVENT = 192
    # The scorer's buffers hold the open window's tally, merge room and map
    # (16 bytes per pixel each, a quarter more for growth): they follow a
    # window's pixels, not the chunk.  About 0.83 MB here, where a 6 ms
    # window holds about 6,000 events.
    WINDOW_BYTES = 1 << 20

    def assert_block_and_chunk(self, tmp_path, suffix, n, blocks):
        """downsample over n events holds at most ``blocks`` CSV blocks,
        one chunk and one window's scoring state: a level that grows with
        the number of blocks or chunks read, or that keeps a chunk from
        before, exceeds the limit."""
        self.peak(tmp_path, 1000, suffix)  # compile and import first
        peak = self.peak(tmp_path, n, suffix)
        limit = (blocks * evio._CSV_BLOCK_BYTES + self.WINDOW_BYTES
                 + self.CHUNK_BYTES_PER_EVENT * cli._CHUNK_EVENTS)
        assert peak < limit, (peak, limit)
        return tmp_path / f"in{n}{suffix}"

    def test_csv_holds_one_block_and_one_chunk(self, tmp_path):
        """A CSV of more than 8 blocks: each pass reads its blocks into one
        buffer, and no block's columns or earlier chunk are held."""
        if capwalk.implementation() != "compiled":
            pytest.skip("the compiled parser cannot be built here")
        src = self.assert_block_and_chunk(tmp_path, ".csv", 600_000, 1)
        assert src.stat().st_size > 8 * evio._CSV_BLOCK_BYTES

    def test_binary_holds_one_chunk(self, tmp_path, cap_walk):
        """Binary input holds only the chunk being decided."""
        self.assert_block_and_chunk(tmp_path, ".evb", 8 * cli._CHUNK_EVENTS,
                                    0)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("suffix", [".csv", ".evb"])
    def test_chunk_dropped_before_the_next_is_read(
            self, small_blocks, tmp_path, monkeypatch, cap_walk, method,
            suffix):
        """While the next chunk is read, nothing holds the chunks before,
        what they kept or their log pieces: not downsample's loop, not the
        reader, not the sampler."""
        src = tmp_path / f"in{suffix}"
        write_events(scene(labeled=suffix == ".csv"), src)
        earlier = []
        push = Downsampler.push

        def tracked(sampler, chunk):
            kept, log = push(sampler, chunk)
            earlier.extend(weakref.ref(a) for a in (
                chunk.t, chunk.x, chunk.p, kept.t, log.window, log.code,
                log.probability))
            return kept, log

        def checked(read):
            def reading(*args, **kwargs):
                assert all(ref() is None for ref in earlier)
                return read(*args, **kwargs)
            return reading

        monkeypatch.setattr(Downsampler, "push", tracked)
        for owner, name in ((BinaryEvents, "read"), (evio._Blocks, "read"),
                            (capwalk, "parse_events")):
            monkeypatch.setattr(owner, name, checked(getattr(owner, name)))
        assert downsample(src, tmp_path / "out.csv", method,
                          log=tmp_path / "log.csv") == 0
        assert len(earlier) >= 7 * len(scene(False)) / CHUNK  # every push

    def test_csv_peak_flat_in_stream_length(self, tmp_path, monkeypatch):
        """CSV input read in two passes of fixed-size blocks: its geometry
        is known before its first event is decided, and no column is held
        for more than a block."""
        self.assert_csv_peak_flat(tmp_path, monkeypatch)

    def test_csv_peak_flat_with_line_loop(self, tmp_path, monkeypatch):
        """The same without the compiled kernels, where the line loop reads
        every block in both passes."""
        force_python_walk(monkeypatch)
        self.assert_csv_peak_flat(tmp_path, monkeypatch)


@contextlib.contextmanager
def piped(path):
    """A path that reads path's bytes from a pipe, which a thread fills."""
    read_end, write_end = os.pipe()

    def fill():
        with open(path, "rb") as src, open(write_end, "wb") as dst:
            shutil.copyfileobj(src, dst, 1 << 16)

    filler = threading.Thread(target=fill)
    filler.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        filler.join(timeout=60)
        assert not filler.is_alive()
