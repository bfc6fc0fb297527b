"""The steps of a push, through the entry that runs them: the cap walk,
compiled push (``capwalk._Decider`` on given probabilities, see
``conftest.decider_walk``) vs Python loop vs the per-event cap rule
(``conftest.per_event_walk``); the window pass, through the push's
windows and rows, against Python integers; the window scorer, through the
push's probabilities, compiled kernel vs its numpy twin vs ``np.unique``
and a lookup per event (``conftest.per_event_scores``), and its sum vs
numpy's.  Then the C source under strict warnings, its prototypes and
enums against the loader's table and constants, and the loader's
fallbacks."""

import hashlib
import math
import os
import platform
import re
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evdown import (Downsampler, EventStream, SamplerConfig, SensorGeometry,
                    capwalk, read_events, read_log, run, write_events,
                    write_log)
from evdown.cli import main
from evdown.events import window_spans

from conftest import (SRC_ENV, decider_walk, per_event_scores,
                      per_event_walk, pushed_through, random_stream,
                      reference_run, resumed)

ALPHAS = [1.0, 0.1, 0.3, 1 / 3, 0.7, math.nextafter(1.0, 0.0)]
HAS_CC = shutil.which("cc") is not None


def python_walk(p, draws, alpha):
    codes = np.empty(p.shape[0], np.uint8)
    retained, _ = capwalk._walk_python(p, draws, alpha, codes)
    return codes.tolist(), retained


def no_more(n):
    raise AssertionError(f"the walk asked for {n} more draws")


def piece_walk(p, draws, alpha, k0=0, retained0=0):
    """The piece walk over p as one window, given every draw it takes:
    (codes, retained, draws used)."""
    got = decider_walk(p, np.array([0, p.size] if p.size else [0]), alpha,
                       k0, retained0, draws, no_more)
    return (got[0].tolist(), got[4],
            0 if draws is None else draws.size - got[5].size)


def walk(p, draws, alpha):
    return piece_walk(p, draws, alpha)[:2]


def assert_walks_agree(p, draws, alpha):
    """Per-event cap, Python loop and (where it builds) compiled kernel."""
    expected = per_event_walk(p, None if draws is None else draws[:p.size],
                              alpha)
    assert python_walk(p, draws, alpha) == expected
    if capwalk._kernel() is not None:
        assert walk(p, draws, alpha) == expected


probabilities = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.5]),
                          st.floats(0.0, 1.0))
unit_draws = st.floats(0.0, 1.0, exclude_max=True)


P = np.random.default_rng(8).random(5000) * 0.4
DRAWS = np.random.default_rng(9).random(5000)
EXPECTED = per_event_walk(P, DRAWS, 0.1)


class TestWalksAgree:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @settings(max_examples=150, deadline=None)
    @given(p=st.lists(probabilities, max_size=200),
           draw_seed=st.integers(0, 2**32 - 1),
           stochastic=st.booleans())
    @example(p=[], draw_seed=0, stochastic=True)
    @example(p=[], draw_seed=0, stochastic=False)
    @example(p=[1.0], draw_seed=0, stochastic=True)
    @example(p=[0.0], draw_seed=0, stochastic=False)
    @example(p=[1.0] * 40, draw_seed=0, stochastic=True)
    @example(p=[1.0] * 40, draw_seed=0, stochastic=False)
    def test_compiled_python_and_per_event(self, alpha, p, draw_seed,
                                           stochastic):
        """Runs of p = 1 put retained on the cap's edge at every k, where
        ``alpha * k`` rounds."""
        p = np.asarray(p, dtype=np.float64)
        draws = None
        if stochastic:
            draws = np.random.default_rng(draw_seed).random(p.size)
        else:
            p = (p > 0.5).astype(np.float64)
        assert_walks_agree(p, draws, alpha)

    @given(p=st.lists(probabilities, min_size=1, max_size=60),
           u=st.lists(unit_draws, min_size=60, max_size=60),
           alpha=st.sampled_from(ALPHAS))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_draws(self, p, u, alpha):
        assert_walks_agree(np.asarray(p, dtype=np.float64),
                           np.asarray(u, dtype=np.float64), alpha)

    @pytest.mark.parametrize("stochastic", [True, False])
    def test_python_walk_across_blocks(self, monkeypatch, stochastic):
        """Blocks of 7 events: the draw index carries across blocks."""
        monkeypatch.setattr(capwalk, "_BLOCK", 7)
        p = P if stochastic else (P > 0.2).astype(np.float64)
        draws = DRAWS if stochastic else None
        assert python_walk(p, draws, 0.1) == per_event_walk(p, draws, 0.1)

    def test_nonzero_p_accepted_without_draws(self, cap_walk):
        p = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        assert walk(p, None, 1.0) == ([0, 1, 0, 0, 1, 0], 4)
        assert walk(p, None, 0.5) == ([0, 2, 0, 2, 1, 0], 3)

class TestResume:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(p=st.lists(probabilities, max_size=120),
           draw_seed=st.integers(0, 2**32 - 1),
           stochastic=st.booleans(),
           split=st.integers(0, 120),
           spare=st.integers(0, 5),
           alpha=st.sampled_from(ALPHAS))
    @example(p=[1.0] * 40, draw_seed=0, stochastic=True, split=17, spare=0,
             alpha=0.3)
    def test_two_resumed_walks_equal_one(self, cap_walk, p, draw_seed,
                                         stochastic, split, spare, alpha):
        """The second walk gets the first's retained, its k and the draws
        it left unused, topped up with the ones that follow."""
        p = np.asarray(p, dtype=np.float64)
        split = min(split, p.size)
        draws = None
        if stochastic:
            draws = np.random.default_rng(draw_seed).random(p.size + spare)
        else:
            p = (p > 0.5).astype(np.float64)
        codes, retained, used = piece_walk(p, draws, alpha)
        assert (codes, retained) == per_event_walk(p, draws, alpha)
        assert used == (0 if draws is None else len(codes) - codes.count(2))

        head = None if draws is None else draws[:split + spare]
        first, r1, u1 = piece_walk(p[:split], head, alpha)
        # The second walk takes the draws the first left, then fresh ones:
        # the ones that follow from the same generator.
        rng = np.random.default_rng(draw_seed)
        rng.random(split + spare)
        bounds = np.array([0, p.size - split] if p.size > split else [0])
        got = decider_walk(p[split:], bounds, alpha, split, r1,
                           None if draws is None else head[u1:], rng.random)
        assert first + got[0].tolist() == codes
        assert got[4] == retained
        if draws is not None:
            following = np.random.default_rng(draw_seed).random(
                used + got[5].size)
            assert got[5].tolist() == following[used:].tolist()

# --- the window pass and the piece walk --------------------------------------

def spans_of(t, t0, t_us):
    """Each event's window and the nonempty windows' ids and bounds, in
    Python integers."""
    windows = [(v - t0) // t_us + 1 for v in t]
    ids = sorted(set(windows))
    return windows, ids, [windows.index(w) for w in ids] + [len(windows)]


def window_pass(t, t0, t_us):
    """Each event's window and the nonempty windows' ids and bounds, from
    the windows and rows of a push anchored at ``t0``."""
    decider = capwalk._Decider(SensorGeometry(1, 1), "uniform",
                               SamplerConfig(alpha=0.5, t_us=t_us),
                               np.random.default_rng(0).random)
    resumed(decider, t0=t0)
    windows = pushed_through(decider, t)[0]
    rows = np.array(decider.rows(), np.int64).reshape(-1, 3)
    return windows, rows[:, 0], np.append(0, np.cumsum(rows[:, 1]))


def assert_window_pass(t, t0, t_us):
    got = window_pass(t, t0, t_us)
    assert all(a.dtype == np.int64 for a in got)
    assert [a.tolist() for a in got] == list(spans_of(t, t0, t_us))


class TestWindowPass:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=st.lists(st.integers(0, 40) | st.integers(0, 10**15),
                          min_size=1, max_size=80),
           t0=st.integers(0, 10**6), start=st.integers(0, 5000),
           t_us=st.sampled_from([1, 7, 1000]) | st.integers(1, 2**63 - 1))
    def test_matches_python_integers(self, cap_walk, steps, t0, start, t_us):
        """Steps of 0 repeat a timestamp; long steps skip many windows."""
        t = (t0 + start + np.cumsum(steps)).tolist()
        assert_window_pass(t, t0, t_us)

    @pytest.mark.parametrize("t0, t_us, t", [
        (1, 1, [1, 2, 2**62, 2**63 - 3, 2**63 - 2, 2**63 - 1, 2**63 - 1]),
        (0, 2**62, [0, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 2, 2**63 - 1]),
        (1, 2**62, [1, 2**62, 2**62 + 1, 2**63 - 1]),
        (0, 2**63 - 1, [0, 2**63 - 2, 2**63 - 1, 2**63 - 1])])
    def test_near_the_largest_timestamp(self, cap_walk, t0, t_us, t):
        """Window 2 of 2**62 us from 0 ends at 2**63, past int64: the pass
        must not compute that end, or the test that an event stays in its
        window wraps."""
        assert_window_pass(t, t0, t_us)

    def test_refuses_a_wrapping_window_id(self, cap_walk):
        with pytest.raises(ValueError, match=r"t=9223372036854775807 would "
                           r"pass the window id limit 2\*\*63 - 1"):
            window_pass([0, 2**63 - 1], 0, 1)

    def test_refuses_decreasing_timestamps(self, cap_walk):
        """The push takes sorted timestamps, and refuses others rather
        than decide them, in the first span or a later one."""
        with pytest.raises(ValueError, match="must not decrease"):
            window_pass([9, 3, 5, 1], 0, 1)
        with pytest.raises(ValueError, match="must not decrease"):
            window_pass([*range(capwalk._SPAN), 0], 0, 1)


class TestWalkPiece:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(p=st.lists(probabilities, min_size=1, max_size=120),
           cuts=st.lists(st.integers(1, 119), max_size=6),
           spare=st.integers(0, 130), k0=st.integers(0, 60),
           share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([*ALPHAS, math.inf]),
           stochastic=st.booleans())
    @example(p=[1.0] * 40, cuts=[1, 17], spare=0, k0=0, share=0.0, seed=0,
             alpha=0.3, stochastic=True)
    @example(p=[1.0] * 40, cuts=[39], spare=3, k0=9, share=0.4, seed=0,
             alpha=1 / 3, stochastic=False)
    def test_matches_cap_walk(self, cap_walk, p, cuts, spare, k0, share,
                              seed, alpha, stochastic):
        """The piece walk decides as the per-event cap rule does over the
        leftover draws followed by fresh ones, and its kept positions, capped count and
        per-window counts are those of the codes.  It draws fresh variates
        only when fewer draws than events are left; what it leaves is the
        next part of the same sequence."""
        p = np.asarray(p, dtype=np.float64)
        n = p.size
        bounds = np.array([0, *sorted({c for c in cuts if c < n}), n])
        retained0 = int(share * k0)
        left = draws = more = None
        if stochastic:
            left = np.random.default_rng(seed).random(spare)
            more = np.random.default_rng([seed, 1]).random
            # A block of fresh draws holds at least _DRAW_MIN.
            draws = np.concatenate([left, np.random.default_rng(
                [seed, 1]).random(n + capwalk._DRAW_MIN)])
        else:
            p = (p > 0.5).astype(np.float64)
        codes, retained = per_event_walk(p, draws, alpha, True, k0,
                                         retained0)
        codes = np.array(codes, np.uint8)
        used = int(np.count_nonzero(codes != 2))
        got, kept, capped, window_kept, got_retained, rest = (
            decider_walk(p, bounds, alpha, k0, retained0, left, more))
        assert got.tolist() == codes.tolist()
        assert got_retained == retained
        assert kept.tolist() == np.flatnonzero(codes == 0).tolist()
        assert capped == int(np.count_nonzero(codes == 2))
        assert window_kept.tolist() == [
            int(np.count_nonzero(codes[a:b] == 0))
            for a, b in zip(bounds[:-1], bounds[1:])]
        if stochastic:
            assert rest.tolist() == draws[used:used + rest.size].tolist()
            if spare >= n:
                assert rest.size == spare - used
        else:
            assert rest is None
        if alpha < 1.0:
            # The cap's bound on the events a piece keeps.
            assert kept.size <= max(
                0, math.floor(alpha * (k0 + n - 1)) + 1 - retained0)

    @pytest.mark.parametrize("alpha", [0.1, math.inf])
    def test_draws_join_across_spans_and_pushes(self, cap_walk, monkeypatch,
                                               alpha):
        """Pieces of 1 to 40 events decided in spans of at most 7, windows
        of 1 to 12 events: each span takes the draws the one before left,
        then fresh ones, drawn 5 to 7 at a time only when fewer are left
        than the span has events.  Together they are one sequence, and what
        the last span leaves is its next part."""
        monkeypatch.setattr(capwalk, "_SPAN", 7)
        monkeypatch.setattr(capwalk, "_DRAW_MIN", 5)
        rng = np.random.default_rng(3)
        p = rng.random(500) * 0.5
        t = np.repeat(np.arange(500), rng.integers(1, 13, 500))[:500]
        fresh, asked = np.random.default_rng(5), []

        def fill(out):
            asked.append(out.shape[0])
            fresh.random(out=out)

        decider = capwalk._Decider(
            SensorGeometry(1, 1), "given",
            SamplerConfig(alpha=min(alpha, 1.0), t_us=1,
                          cap_enabled=alpha <= 1.0), fill)
        cuts = np.cumsum(np.resize([1, 2, 3, 10, 40], 60))
        codes = []
        for a, b in zip([0, *cuts[cuts < 500]], [*cuts[cuts < 500], 500]):
            codes += pushed_through(decider, t[a:b], p=p[a:b])[1].tolist()
        draws = np.random.default_rng(5).random(600)
        want, retained = per_event_walk(p, draws, alpha)
        assert codes == want
        assert decider.totals()[1] == retained
        used = len(codes) - codes.count(2)
        rest = decider.draws[decider.state[capwalk._S_DRAW]:decider.drawn]
        assert rest.tolist() == draws[used:used + rest.size].tolist()
        assert sum(asked) == used + rest.size
        assert all(5 <= n <= 7 for n in asked)

    def test_pieces_resume_one_another(self, cap_walk):
        """Pieces of 1, 2, 3 ... events, each given the draws the one
        before left, decide as one walk over the whole stream."""
        rng = np.random.default_rng(4)
        p = rng.random(400) * 0.5
        want, _ = per_event_walk(p.tolist(),
                                 np.random.default_rng(5).random(400), 0.2)
        draw = np.random.default_rng(5).random
        k, retained, left, codes, size = 0, 0, np.empty(0), [], 0
        while k < p.size:
            size += 1
            piece = p[k:k + size]
            got, _, _, _, retained, left = decider_walk(
                piece, np.array([0, piece.size]), 0.2, k, retained, left, draw)
            codes += got.tolist()
            k += piece.size
        assert codes == want


def per_window_of(windows, codes):
    """RunStats.per_window of each event's window and code."""
    rows = {}
    for w, c in zip(windows, codes):
        n, r = rows.get(w, (0, 0))
        rows[w] = (n + 1, r + (c == 0))
    return tuple((w, n, r) for w, (n, r) in rows.items())


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
@pytest.mark.parametrize("cap", [True, False])
def test_compiled_piece_walk_runs(monkeypatch, method, cap):
    """Where the kernels build, a push takes its windows, kept positions
    and counts from them and joins no draws: a silent fallback to the
    numpy twins fails here, not only in the benchmark."""
    stream = random_stream(np.random.default_rng(6), n=3000, span_us=40_000)
    config = SamplerConfig(alpha=0.2, t_us=1000, seed=7, cap_enabled=cap)
    codes, probs, windows, retained = reference_run(stream, method, config)

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"push ran {name}")
        return refused

    sampler = Downsampler(stream.geometry, method, config)
    for module, name in ((np, "flatnonzero"), (np, "count_nonzero"),
                         (np, "searchsorted"), (np, "concatenate"),
                         (capwalk, "window_spans"), (capwalk, "_walk_python")):
        monkeypatch.setattr(module, name, refuse(name))
    out, log = sampler.push(stream)
    stats = sampler.close()
    monkeypatch.undo()
    assert capwalk.implementation() == "compiled"
    assert log.code.tolist() == codes
    assert log.window.tolist() == windows
    assert (log.probability.view(np.int64).tolist()
            == np.array(probs).view(np.int64).tolist())
    assert out.source_index.tolist() == [i for i, c in enumerate(codes)
                                         if c == 0]
    assert (stats.retained, stats.capped) == (retained, codes.count(2))
    assert stats.per_window == per_window_of(windows, codes)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_compiled_walk_active_when_compiler_present():
    """A silent fallback to the Python loop passes every other test."""
    assert capwalk.implementation() == "compiled"


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("array", [
    np.empty(0), np.arange(5), np.arange(9, dtype=np.uint8)[3:],
    np.arange(12.0).reshape(3, 4)[1], np.zeros((2, 3), np.int64).T,
    np.frombuffer(bytearray(16), np.int64)], ids=range(6))
def test_array_address_is_ctypes_data(array):
    """The kernels' addresses are read from the array object, at the
    place found on a probe, for arrays and views of any dtype."""
    assert capwalk._DATA_AT is not None
    assert capwalk._array_address(array) == array.ctypes.data


def test_kernel_table_names_every_exported_function():
    """_load checks and types exactly the functions _SOURCE exports: a
    kernel added to one and not the other would go unchecked or unbuilt."""
    exported = re.findall(r"^(?!static )\w+[ *]+(\w+)\(", capwalk._SOURCE,
                          re.M)
    assert sorted(exported) == sorted(capwalk._KERNELS)
    assert sorted(capwalk._KERNELS) == ["expit", "format_rows",
                                        "pairwise_sum", "parse_events",
                                        "push_span", "scan_events"]


def test_kernel_table_matches_every_prototype():
    """Each kernel gets as many argtypes as its C prototype has parameters:
    ctypes passes the arguments it is given, so one more or fewer would
    shift every argument after it and corrupt memory rather than fail."""
    prototypes = dict(re.findall(r"^(?!static )\w+[ *]+(\w+)\(([^)]*)\)",
                                 capwalk._SOURCE, re.M))
    for name, (argtypes, _) in capwalk._KERNELS.items():
        assert len(argtypes) == prototypes[name].count(",") + 1, name
    assert len(capwalk._KERNELS["push_span"][0]) == 12


def test_push_constants_match_the_c_enums():
    """The Python side reads and writes the push's state, buffers and
    statuses by the numbers the C enums give them."""
    enums = dict(re.findall(r"\b([A-Z]_[A-Z_0-9]+) = (-?\d+)",
                            capwalk._SOURCE))
    for name in ("C_SPAN", "B_KEPT", "B_DRAWS", "B_SCRATCH", "S_SEEN",
                 "S_T0", "S_LAST", "S_RETAINED", "S_CAPPED", "S_NK",
                 "S_NEED", "S_NW", "S_DRAW", "S_PDF_NS", "S_EVAL_NS",
                 "S_SIZE", "E_ROOM", "E_INDEX", "E_DECREASE"):
        assert getattr(capwalk, f"_{name}") == int(enums[name]), name
    assert capwalk._METHODS == {"deterministic": int(enums["M_DUTY"]),
                                "uniform": int(enums["M_ALPHA"]),
                                "poisson": int(enums["M_SCORED"]),
                                "given": int(enums["M_GIVEN"])}


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_source_compiles_without_warnings(tmp_path):
    """The kernels stay clean under strict C99 warnings, built as the
    loader builds them: some warnings (-Wmaybe-uninitialized) only come
    from the optimizer."""
    cc, *flags = capwalk._COMPILE
    subprocess.run([cc, "-Wall", "-Wextra", "-pedantic", "-Werror", *flags,
                    "-o", str(tmp_path / "kernels.so")],
                   input=capwalk._SOURCE, text=True, check=True,
                   capture_output=True, timeout=60)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("n", [*range(301), 8191, 8192, 8193, 70_001])
def test_pairwise_sum_is_numpys(n):
    """The freeze sums a map as np.add.reduce does, so both paths give
    the same bits; a numpy that sums in another order fails here."""
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n),
              rng.random(n)):
        got = capwalk._kernel().pairwise_sum(x.ctypes.data, n)
        assert np.float64(got).tobytes() == np.add.reduce(x).tobytes()


# --- the window scorer -----------------------------------------------------

def sensor(bits):
    """A one-row sensor whose flat indices need ``bits`` bits: 2**bits
    pixels, or 2**63 - 1 at 63 bits."""
    return SensorGeometry(min(2**bits, 2**63 - 1), 1)


class scorer:
    """The window scorer through the push of a capwalk._Decider: each
    piece's flat indices are its x on a sensor one row high (or of the
    given geometry), its windows' timestamps ``(id - 1) * 10`` from 0."""

    def __init__(self, geometry, alpha=0.25):
        self.decider = capwalk._Decider(
            geometry, "poisson", SamplerConfig(alpha=alpha, t_us=10),
            np.random.default_rng(0).random)
        resumed(self.decider)

    def score(self, flat, ids, bounds, p) -> None:
        if flat.size:
            t = np.repeat((np.asarray(ids) - 1) * 10, np.diff(bounds))
            p[:] = pushed_through(self.decider, t, x=flat, p=p)[2]


def assert_scores_windows(windows, bits, cut=0):
    """Windows 1, 2, ... hold the flat indices ``windows[w]``, the last
    window the distinct pixels of the one before, so that it is scored
    with that window's tally.  A scorer fed them in two pieces, cut before
    event ``cut``, gives per_event_scores' bits: np.unique of each window
    and a lookup in the map sparse_scores freezes from it."""
    windows = [np.asarray(w, np.int64) for w in windows]
    windows.append(np.unique(windows[-1])[::-1])
    flat = np.concatenate(windows)
    t = np.repeat(np.arange(len(windows)) * 10, [w.size for w in windows])
    geometry = sensor(bits)
    stream = EventStream(geometry, t, flat, np.zeros_like(flat),
                         np.ones_like(flat))
    want = per_event_scores(stream, SamplerConfig(alpha=0.25, t_us=10))
    got = np.full(flat.size, -1.0)
    s = scorer(geometry)
    for a, b in ((0, cut), (cut, flat.size)):
        if b > a:
            s.score(flat[a:b], *window_spans(t[a:b] // 10 + 1), got[a:b])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@st.composite
def windows(draw):
    """A window's flat indices, the bits that bound them and the pixels
    active in the window before, or None for no window before; a few
    distinct values make repeated pixels likely, and indices near
    2**bits - 1 fill every radix digit (6 passes at 63 bits)."""
    bits = draw(st.sampled_from([0, 1, 11, 12, 20, 22, 33, 55, 62, 63])
                | st.integers(0, 63))
    top = sensor(bits).n_pixels - 1
    values = (st.sampled_from([0, top, top // 2, max(0, top - 2047)])
              | st.integers(max(0, top - 5000), top) | st.integers(0, top))
    pool = draw(st.lists(values, min_size=1, max_size=6))
    flat = draw(st.lists(st.sampled_from(pool) | values, min_size=1,
                         max_size=300))
    active = draw(st.none() | st.lists(
        st.sampled_from(pool + flat) | values, min_size=1, max_size=40))
    return flat, bits, active


class TestScoreWindow:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=windows(), seed=st.integers(0, 2**32 - 1))
    @example(case=([7], 3, None), seed=0)
    @example(case=([5] * 50, 3, [5]), seed=0)
    @example(case=([2**63 - 2, 0, 2**63 - 2, 2**62, 1], 63, [0, 2**63 - 2]),
             seed=1)
    def test_matches_unique_and_lookup(self, cap_walk, case, seed):
        """``seed`` picks where the two pieces are cut."""
        flat, bits, active = case
        scene = [flat] if active is None else [active, flat]
        n = sum(map(len, scene)) + len(set(flat))
        assert_scores_windows(scene, bits, seed % (n + 1))

    @pytest.mark.parametrize("bits", [11, 23, 63])
    def test_window_longer_than_a_histogram(self, cap_walk, bits):
        """More events than a digit has values, so the sort buffers reach
        past where the histograms would start if they shared scratch."""
        rng = np.random.default_rng(bits)
        flat = rng.integers(0, sensor(bits).n_pixels, 3 * 2048 + 5,
                            dtype=np.int64)
        flat[::3] = flat[1]  # one pixel repeated a third of the time
        assert_scores_windows([flat[::7], flat], bits)

    def test_empty_window(self, cap_walk):
        """A piece without windows writes nothing and changes no state."""
        flat = np.array([3, 3, 5, 4, 3], np.int64)
        ids, bounds = np.array([1, 2]), np.array([0, 3, 5])
        want = np.empty(5)
        scorer(sensor(20)).score(flat, ids, bounds, want)
        s, got = scorer(sensor(20)), np.empty(5)
        s.score(flat[:3], ids[:1], bounds[:2], got[:3])
        s.score(flat[:0], ids[:0], bounds[:1], got[:0])
        s.score(flat[3:], ids[1:], bounds[1:] - 3, got[3:])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("flat, bits", [([4, -1], 20), ([8, 3], 3),
                                            ([2**20], 20), ([1], 0),
                                            ([-(2**63)], 63)])
    def test_index_out_of_range(self, cap_walk, flat, bits):
        p = np.full(len(flat), -1.0)
        with pytest.raises(ValueError, match="flat pixel indices"):
            scorer(sensor(bits)).score(np.array(flat, np.int64),
                                       np.array([1]), np.array([0, len(flat)]),
                                       p)
        assert (p == -1.0).all()

    @pytest.mark.parametrize("flat", [[6], [0, 5, 7, 2]])
    def test_index_past_the_sensor(self, cap_walk, flat):
        """Indices of 6 pixels take 3 bits, but 6 and 7 are not pixels."""
        p = np.full(len(flat), -1.0)
        with pytest.raises(ValueError, match=r"in \[0, 6\)"):
            scorer(SensorGeometry(3, 2)).score(
                np.array(flat, np.int64), np.array([2]),
                np.array([0, len(flat)]), p)
        assert (p == -1.0).all()


@pytest.mark.parametrize("method, t, x, match", [
    ("uniform", [5, 3, 9], [0, 0, 0], "timestamps must not decrease"),
    ("poisson", [5, 3, 9], [0, 0, 0], "timestamps must not decrease"),
    ("poisson", [5, 6, 9], [0, 6, 1], r"indices must be in \[0, 6\)"),
    ("poisson", [5, 6, 9], [0, -1, 1], r"indices must be in \[0, 6\)")])
def test_refused_push_changes_nothing(cap_walk, method, t, x, match):
    """A push refused for a timestamp that decreases, or for a pixel in
    the second window of its span (events at 5, 6 and 9 are windows 3, 4
    and 5), leaves the state, rows, draws and kept positions as they
    were: the next push decides as if it had not been made."""
    def decider():
        d = capwalk._Decider(SensorGeometry(6, 1), method,
                             SamplerConfig(alpha=0.5, t_us=2),
                             np.random.default_rng(0).random)
        pushed_through(d, [0, 1, 2, 4], x=[0, 1, 2, 3])
        return d

    def held(d):  # the buffers' bytes, since unused ones may be NaN
        return (d.state.tolist(), d.rows(), d.draws.tobytes(),
                d.kept.tobytes(), d.drawn)

    refused, fresh = decider(), decider()
    before = held(refused)
    with pytest.raises(ValueError, match=match):
        pushed_through(refused, t, x=x)
    assert held(refused) == before
    got, want = ([a.tobytes() for a in pushed_through(d, [5, 6, 9],
                                                      x=[5, 4, 1])]
                 for d in (refused, fresh))
    assert got == want and refused.rows() == fresh.rows()
    timers = capwalk._S_PDF_NS
    assert refused.state[:timers].tolist() == fresh.state[:timers].tolist()


# --- the loader ------------------------------------------------------------

@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty kernel cache; the process-wide kernel is looked up
    again before and after the test."""
    path = tmp_path / "cache"
    monkeypatch.setattr(capwalk, "_CACHE_DIR", path)
    capwalk._kernel.cache_clear()
    yield path
    capwalk._kernel.cache_clear()


def fake_compiler(bin_dir, script):
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    return bin_dir


def kernel_files(cache_dir):
    return sorted(cache_dir.glob("capwalk-*.so"))


def damage(path, data):
    """Replace the file with a new one: truncating a loaded shared object
    in place would crash this process."""
    path.unlink()
    path.write_bytes(data)


def trailer_ok(path):
    data = path.read_bytes()
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


class TestLoaderFallback:
    def test_no_compiler_on_path(self, cache_dir, tmp_path, monkeypatch):
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    def test_unwritable_cache_directory(self, cache_dir, tmp_path,
                                        monkeypatch):
        # A path below a regular file cannot be created, even by root.
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(capwalk, "_CACHE_DIR", tmp_path / "file" / "c")
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    def test_no_array_address(self, cache_dir, monkeypatch):
        """Where an array object's data address cannot be found, no
        kernel is used, rather than one given wrong addresses."""
        monkeypatch.setattr(capwalk, "_DATA_AT", None)
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    @pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
    def test_compile_error(self, cache_dir, monkeypatch):
        monkeypatch.setattr(capwalk, "_SOURCE", "this is not C\n")
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED
        assert list(cache_dir.iterdir()) == []

    def test_compiler_timeout(self, cache_dir, tmp_path, monkeypatch):
        bin_dir = fake_compiler(tmp_path / "bin",
                                f"exec {shutil.which('sleep')} 30\n")
        monkeypatch.setenv("PATH", str(bin_dir))
        monkeypatch.setattr(capwalk, "_COMPILE_TIMEOUT_S", 0.5)
        t0 = time.monotonic()
        assert capwalk.implementation() == "python"
        assert time.monotonic() - t0 < 10
        assert walk(P, DRAWS, 0.1) == EXPECTED
        assert list(cache_dir.iterdir()) == []

    def test_compiler_output_that_does_not_load(self, cache_dir, tmp_path,
                                                monkeypatch):
        """``ctypes.CDLL`` raises OSError on it, which the CLI would report
        as an I/O failure."""
        script = ('while [ "$1" != -o ]; do shift; done\n'
                  'echo "not a shared object" > "$2"\n')
        monkeypatch.setenv("PATH", str(fake_compiler(tmp_path / "bin",
                                                     script)))
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
class TestLoaderCache:
    def test_builds_once_then_hits_without_compiler(self, cache_dir,
                                                    monkeypatch):
        assert capwalk.implementation() == "compiled"
        [path] = kernel_files(cache_dir)
        assert trailer_ok(path)
        assert [p.name for p in cache_dir.iterdir()] == [path.name]
        capwalk._kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran on a cache hit")
        monkeypatch.setattr(capwalk, "_build", no_compiler)
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert capwalk.implementation() == "compiled"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    def test_build_removes_libraries_of_other_sources(self, cache_dir,
                                                      monkeypatch):
        """Building from a second source leaves one library for this cache
        tag and machine: the first source's goes, as does one named as
        before names carried the tag, but another machine's stays."""
        assert capwalk.implementation() == "compiled"
        [first] = kernel_files(cache_dir)
        tag = f"{sys.implementation.cache_tag}-{platform.machine()}"
        assert first.name.startswith(f"capwalk-{tag}-")
        legacy = cache_dir / ("capwalk-" + "0" * 20 + ".so")
        other = cache_dir / ("capwalk-cpython-311-sparc-" + "0" * 20 + ".so")
        for path in (legacy, other):
            path.write_bytes(first.read_bytes())
        monkeypatch.setattr(capwalk, "_SOURCE",
                            capwalk._SOURCE + "/* another source */\n")
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() == "compiled"
        [second] = [p for p in kernel_files(cache_dir) if p != other]
        assert second != first and second.name.startswith(f"capwalk-{tag}-")
        assert other.exists() and trailer_ok(second)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty",
                                        "no trailer", "flipped byte"])
    def test_damaged_cache_file_is_rebuilt(self, cache_dir, tmp_path,
                                           monkeypatch, damage):
        """The damaged file goes to a path never loaded in this process, so
        the loader sees it; mapping a truncated shared object can kill the
        process with SIGBUS."""
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        good = built.read_bytes()
        bad = {"truncated": good[:len(good) // 2],
               "garbage": b"\x7fELF" + bytes(range(256)) * 8,
               "empty": b"",
               "no trailer": good[:-32],
               "flipped byte": good[:2000] + bytes([good[2000] ^ 0xFF])
               + good[2001:]}[damage]
        other = tmp_path / "other"
        other.mkdir()
        (other / built.name).write_bytes(bad)
        monkeypatch.setattr(capwalk, "_CACHE_DIR", other)
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() == "compiled"
        assert trailer_ok(other / built.name)
        assert walk(P, DRAWS, 0.1) == EXPECTED

    def test_cached_library_without_expit(self, cache_dir, tmp_path,
                                          monkeypatch):
        """A sound cached file built from a source without the sigmoid
        (as before the sigmoid joined the kernels) is replaced by a full
        build, which the next process loads.  This process may already
        hold the old file mapped under that name, so it may run the Python
        loops."""
        x = np.linspace(-800.0, 800.0, 4001)
        assert capwalk.implementation() == "compiled"
        expected = capwalk.expit(x)
        [built] = kernel_files(cache_dir)
        old = tmp_path / "old.so"
        subprocess.run([*capwalk._COMPILE, "-o", str(old)],
                       input=capwalk._SOURCE.split("void expit")[0],
                       text=True, capture_output=True, check=True)
        planted = old.read_bytes()
        planted += hashlib.sha256(planted).digest()
        other = tmp_path / "other"
        other.mkdir()
        (other / built.name).write_bytes(planted)
        monkeypatch.setattr(capwalk, "_CACHE_DIR", other)
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() in ("compiled", "python")
        assert np.array_equal(capwalk.expit(x).view(np.uint64),
                              expected.view(np.uint64))
        assert walk(P, DRAWS, 0.1) == EXPECTED
        rebuilt = (other / built.name).read_bytes()
        assert rebuilt != planted and trailer_ok(other / built.name)
        probe = ("import sys; from pathlib import Path; from evdown import "
                 "capwalk; capwalk._CACHE_DIR = Path(sys.argv[1]); "
                 "capwalk._build = None; print(capwalk.implementation())")
        proc = subprocess.run([sys.executable, "-c", probe, str(other)],
                              capture_output=True, text=True, env=SRC_ENV,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "compiled\n")

    def test_cached_library_without_parsers(self, cache_dir, tmp_path,
                                            monkeypatch):
        """A sound cached file built from a source without the text parsers
        (as before they joined the kernels) is replaced by a full build,
        which the next process loads and parses with.  In this process the
        readers may fall back to the line loops; the results are the same."""
        stream = random_stream(np.random.default_rng(6), n=2000)
        src = tmp_path / "in.csv"
        write_events(stream, src)
        _, _, log = run(stream, "poisson", SamplerConfig(alpha=0.3, seed=1))
        log_path = tmp_path / "log.csv"
        write_log(log, log_path)
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        old = tmp_path / "old.so"
        subprocess.run([*capwalk._COMPILE, "-o", str(old)],
                       input=capwalk._SOURCE.split("/* The text parsers")[0],
                       text=True, capture_output=True, check=True)
        planted = old.read_bytes()
        planted += hashlib.sha256(planted).digest()
        other = tmp_path / "other"
        other.mkdir()
        (other / built.name).write_bytes(planted)
        monkeypatch.setattr(capwalk, "_CACHE_DIR", other)
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() in ("compiled", "python")
        assert read_events(src) == stream
        back = read_log(log_path)
        for got, want in zip((back.t, back.window, back.code,
                              back.probability),
                             (log.t, log.window, log.code, log.probability)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        rebuilt = (other / built.name).read_bytes()
        assert rebuilt != planted and trailer_ok(other / built.name)
        probe = ("import sys; from pathlib import Path; from evdown import "
                 "capwalk, evio; capwalk._CACHE_DIR = Path(sys.argv[1]); "
                 "capwalk._build = None; evio._parse_lines = None; "
                 "print(len(evio.read_events(sys.argv[2])))")
        proc = subprocess.run([sys.executable, "-c", probe, str(other),
                               str(src)],
                              capture_output=True, text=True, env=SRC_ENV,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "2000\n"), proc.stderr

    def test_damaged_cache_file_without_compiler(self, cache_dir, tmp_path,
                                                 monkeypatch):
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        damage(built, built.read_bytes()[:3000])
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        capwalk._kernel.cache_clear()
        assert capwalk.implementation() == "python"
        assert walk(P, DRAWS, 0.1) == EXPECTED

    @pytest.mark.parametrize("compiler", [True, False])
    def test_downsample_exits_0_with_damaged_cache(self, cache_dir, tmp_path,
                                                   monkeypatch, compiler):
        rng = np.random.default_rng(2)
        stream = random_stream(rng, n=3000)
        src = tmp_path / "in.evb"
        write_events(stream, str(src), fmt="binary")
        assert capwalk.implementation() == "compiled"
        [built] = kernel_files(cache_dir)
        damage(built, built.read_bytes()[:3000])
        capwalk._kernel.cache_clear()
        if not compiler:
            (tmp_path / "empty").mkdir()
            monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        out = tmp_path / "out.evb"
        log = tmp_path / "log.csv"
        assert main(["downsample", "-i", str(src), "-o", str(out), "-m",
                     "uniform", "-a", "0.1", "--seed", "4",
                     "--log", str(log)]) == 0
        assert capwalk.implementation() == ("compiled" if compiler
                                            else "python")
        codes, _, _, _ = reference_run(stream, "uniform",
                                       SamplerConfig(alpha=0.1, seed=4))
        assert read_log(str(log)).code.tolist() == codes


# --- the kernels under sanitizers ------------------------------------------

def asan_runtime():
    """gcc's AddressSanitizer runtime, which a Python that is not built
    with it must preload to load a sanitized library; None where there is
    none."""
    if not HAS_CC:
        return None
    path = subprocess.run(["cc", "-print-file-name=libasan.so"],
                          capture_output=True, text=True).stdout.strip()
    return path if os.path.isfile(path) else None


# A process that builds and loads the kernels under ASan and UBSan, into
# the cache argv[1], then runs the code argv[2]; the compiler it starts
# runs without the preloaded runtime.
SANITIZED = """
import os, sys
from pathlib import Path
from evdown import capwalk
os.environ.pop("LD_PRELOAD")
capwalk._COMPILE += ("-fsanitize=address,undefined",
                     "-fno-sanitize-recover=all")
capwalk._CACHE_DIR = Path(sys.argv[1])
exec(sys.argv[2])
"""
TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory):
    """Run code in a process whose kernels are sanitized; every call shares
    one build."""
    runtime = asan_runtime()
    if runtime is None:
        pytest.skip("no AddressSanitizer runtime to preload")
    cache = tmp_path_factory.mktemp("sanitized")
    env = dict(SRC_ENV, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")

    def run_code(code, *args):
        return subprocess.run(
            [sys.executable, "-c", SANITIZED, str(cache), code, *args],
            capture_output=True, text=True, env=env, cwd=TESTS.parent,
            timeout=300)
    return run_code


def test_planted_over_read_is_reported(sanitized):
    """The negative control: a sum told to read 6 doubles of 4 stops the
    process with a report, so a clean run below means something."""
    proc = sanitized("import numpy as np; a = np.ones(4); "
                     "print(capwalk.implementation(), flush=True); "
                     "capwalk._kernel().pairwise_sum(a.ctypes.data, 6)")
    assert proc.stdout == "compiled\n"
    assert proc.returncode != 0
    assert "AddressSanitizer: heap-buffer-overflow" in proc.stderr


def assert_passes_sanitized(sanitized, *tests):
    """The compiled cases of the tests pass in the sanitized child, with no
    report.  Only sys.stdout and sys.stderr are captured there, so a
    report reaches stderr."""
    proc = sanitized(
        "import pytest; sys.exit(pytest.main(sys.argv[3:]))",
        "-q", "-p", "no:cacheprovider", "--capture=sys", "-k", "not python",
        *tests)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "Sanitizer" not in proc.stderr
    assert "runtime error" not in proc.stderr


def test_kernel_tests_pass_sanitized(sanitized):
    """The push, walk and scorer tests, split invariance and the golden
    corpus on the compiled kernels, under ASan and UBSan: an over-read or
    overflow that still returns the right answer fails here."""
    here = "tests/test_capwalk.py::"
    assert_passes_sanitized(
        sanitized, *(here + name for name in (
            "TestWalksAgree", "TestResume", "TestWindowPass", "TestWalkPiece",
            "test_compiled_piece_walk_runs", "test_pairwise_sum_is_numpys",
            "TestScoreWindow", "test_refused_push_changes_nothing")),
        "tests/test_scoring.py", "tests/test_stream.py::TestSplitInvariance",
        "tests/test_golden.py")


def test_text_kernel_tests_pass_sanitized(sanitized):
    """The compiled parser, scan and row formatter cases of test_textio,
    block edges and hostile files among them, under ASan and UBSan."""
    here = "tests/test_textio.py::"
    assert_passes_sanitized(sanitized, *(here + name for name in (
        "TestCompiledCsvParser", "TestDigitEdges", "TestCsvBlocks",
        "TestHostileFiles", "TestRowFormatter")))
