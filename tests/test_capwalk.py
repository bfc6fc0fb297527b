"""The cap walk: compiled kernel vs Python loop vs the per-event cap rule
(``conftest.per_event_walk``); the window pass and the piece walk against
Python integers and ``cap_walk``; the window scorer: compiled kernel vs
its numpy twin vs ``np.unique`` and one lookup per event, and its sum vs
numpy's; the C source under strict warnings; and the loader's
fallbacks."""

import hashlib
import math
import re
import shutil
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evdown import (Downsampler, SamplerConfig, SensorGeometry,
                    SigmoidParams, SparseScores, capwalk, read_events,
                    read_log, run, write_events, write_log)
from evdown.cli import main

from conftest import SRC_ENV, per_event_walk, random_stream, reference_run

ALPHAS = [1.0, 0.1, 0.3, 1 / 3, 0.7, math.nextafter(1.0, 0.0)]
HAS_CC = shutil.which("cc") is not None


def python_walk(p, draws, alpha):
    codes = np.empty(p.shape[0], np.uint8)
    retained, _, _ = capwalk._walk_python(p, draws, alpha, codes)
    return codes.tolist(), retained


def walk(p, draws, alpha):
    codes = np.empty(p.shape[0], np.uint8)
    retained, _ = capwalk.cap_walk(p, draws, alpha, codes)
    return codes.tolist(), retained


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

    def test_rejects_mismatched_arrays(self):
        p = np.full(4, 0.5)
        with pytest.raises(ValueError, match="draws"):
            capwalk.cap_walk(p, np.zeros(3), 0.5, np.empty(4, np.uint8))
        with pytest.raises(ValueError, match="codes"):
            capwalk.cap_walk(p, None, 0.5, np.empty(4, np.int64))
        with pytest.raises(ValueError, match="codes"):
            capwalk.cap_walk(p, None, 0.5, np.empty(5, np.uint8))
        with pytest.raises(ValueError, match="one-dimensional"):
            capwalk.cap_walk(np.full((2, 2), 0.5), None, 0.5,
                             np.empty(2, np.uint8))


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
        codes = np.empty(p.size, np.uint8)
        retained, used = capwalk.cap_walk(p, draws, alpha, codes)
        assert (codes.tolist(), retained) == per_event_walk(p, draws, alpha)
        assert used == (0 if draws is None
                        else int(np.count_nonzero(codes != 2)))

        first, second = (np.empty(split, np.uint8),
                         np.empty(p.size - split, np.uint8))
        head = None if draws is None else draws[:split + spare]
        r1, u1 = capwalk.cap_walk(p[:split], head, alpha, first)
        rest = None if draws is None else draws[u1:]
        r2, u2 = capwalk.cap_walk(p[split:], rest, alpha, second, split, r1)
        assert np.concatenate([first, second]).tolist() == codes.tolist()
        assert (r2, u1 + u2) == (retained, used)

    def test_bad_resume_point(self):
        p = np.full(3, 0.5)
        for k0, r0 in ((-1, 0), (2, 3), (0, -1)):
            with pytest.raises(ValueError, match="resume"):
                capwalk.cap_walk(p, None, 0.5, np.empty(3, np.uint8), k0, r0)


# --- the window pass and the piece walk --------------------------------------

def spans_of(t, t0, t_us):
    """Each event's window and the nonempty windows' ids and bounds, in
    Python integers."""
    windows = [(v - t0) // t_us + 1 for v in t]
    ids = sorted(set(windows))
    return windows, ids, [windows.index(w) for w in ids] + [len(windows)]


def assert_window_pass(t, t0, t_us):
    got = capwalk.window_pass(np.array(t, np.int64), t0, t_us)
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
            capwalk.window_pass(np.array([0, 2**63 - 1], np.int64), 0, 1)

    def test_rejects_bad_arguments(self, cap_walk):
        t = np.array([5, 6, 7], np.int64)
        for args in ((t, 6, 1), (t, 0, 0), (t.reshape(1, 3), 0, 1)):
            with pytest.raises(ValueError, match="timestamps"):
                capwalk.window_pass(*args)
        if cap_walk == "compiled":
            with pytest.raises(ValueError, match="must not decrease"):
                capwalk.window_pass(np.array([9, 3, 5, 1], np.int64), 0, 1)

    def test_empty_piece(self, cap_walk):
        windows, ids, bounds = capwalk.window_pass(np.empty(0, np.int64), 3,
                                                   10)
        assert (windows.size, ids.size, bounds.tolist()) == (0, 0, [0])


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
        """The piece walk decides as cap_walk does over the leftover draws
        followed by fresh ones, and its kept positions, capped count and
        per-window counts are those of the codes.  It draws fresh variates
        only once the leftover runs out; what it leaves is the next part of
        the same sequence."""
        p = np.asarray(p, dtype=np.float64)
        n = p.size
        bounds = np.array([0, *sorted({c for c in cuts if c < n}), n])
        retained0 = int(share * k0)
        left = draws = more = None
        if stochastic:
            left = np.random.default_rng(seed).random(spare)
            more = np.random.default_rng([seed, 1]).random
            draws = np.concatenate(
                [left, np.random.default_rng([seed, 1]).random(n)])
        else:
            p = (p > 0.5).astype(np.float64)
        codes = np.empty(n, np.uint8)
        retained, used = capwalk.cap_walk(p, draws, alpha, codes, k0,
                                          retained0)
        got, kept, capped, window_kept, got_retained, rest = (
            capwalk.walk_piece(p, bounds, alpha, k0, retained0, left, more))
        assert got.tolist() == codes.tolist()
        assert got_retained == retained
        assert kept.tolist() == np.flatnonzero(codes == 0).tolist()
        assert capped == int(np.count_nonzero(codes == 2))
        assert window_kept.tolist() == [
            int(np.count_nonzero(codes[a:b] == 0))
            for a, b in zip(bounds[:-1], bounds[1:])]
        if stochastic:
            assert rest.tolist() == draws[used:used + rest.size].tolist()
            if used < spare:
                assert rest.size == spare - used
        else:
            assert rest is None
        if alpha < 1.0:
            # The bound the compiled walk sizes its kept positions by.
            assert kept.size <= max(
                0, math.floor(alpha * (k0 + n - 1)) + 1 - retained0)

    @pytest.mark.parametrize("alpha", [0.1, math.inf])
    def test_fresh_draws_in_blocks(self, cap_walk, monkeypatch, alpha):
        """Blocks of 7 fresh draws: the walk resumes after each, and what
        it leaves is the rest of the last block."""
        monkeypatch.setattr(capwalk, "_DRAW_BLOCK", 7)
        p = np.random.default_rng(3).random(500) * 0.5
        left = np.random.default_rng(4).random(5)
        fresh = np.random.default_rng(5)
        asked = []

        def more(n):
            asked.append(n)
            return fresh.random(n)

        draws = np.concatenate([left, np.random.default_rng(5).random(500)])
        codes = np.empty(500, np.uint8)
        retained, used = capwalk.cap_walk(p, draws, alpha, codes)
        got, kept, capped, window_kept, got_retained, rest = (
            capwalk.walk_piece(p, [0, 250, 500], alpha, 0, 0, left, more))
        assert (got.tolist(), got_retained) == (codes.tolist(), retained)
        assert max(asked) == 7 and sum(asked) == used - 5 + rest.size
        assert rest.tolist() == draws[used:used + rest.size].tolist()
        assert window_kept.tolist() == [
            int(np.count_nonzero(codes[:250] == 0)),
            int(np.count_nonzero(codes[250:] == 0))]

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
            got, _, _, _, retained, left = capwalk.walk_piece(
                piece, [0, piece.size], 0.2, k, retained, left, draw)
            codes += got.tolist()
            k += piece.size
        assert codes == want

    def test_rejects_mismatched_arrays(self):
        p = np.full(4, 0.5)
        for args, match in (
                ((p, [0, 2], 0.5, 0, 0), "bounds"),
                ((p, [0, 2, 2, 4], 0.5, 0, 0), "bounds"),
                ((p, [1, 4], 0.5, 0, 0), "bounds"),
                ((p.reshape(2, 2), [0, 2], 0.5, 0, 0), "one-dimensional"),
                ((p, [0, 4], 0.5, 0, 0, np.zeros(3)), "more"),
                ((p, [0, 4], 0.5, 0, 0, np.zeros(0), lambda n: np.zeros(0)),
                 r"more\(4\) must return 4"),
                ((p, [0, 4], 0.5, 2, 3), "resume")):
            with pytest.raises(ValueError, match=match):
                capwalk.walk_piece(*args)


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
                         (capwalk, "window_ids"), (capwalk, "window_spans"),
                         (capwalk, "_walk_python")):
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


def test_kernel_table_names_every_exported_function():
    """_load checks and types exactly the functions _SOURCE exports: a
    kernel added to one and not the other would go unchecked or unbuilt."""
    exported = re.findall(r"^(?!static )\w+[ *]+(\w+)\(", capwalk._SOURCE,
                          re.M)
    assert sorted(exported) == sorted(capwalk._KERNELS)
    assert sorted(capwalk._KERNELS) == ["cap_walk", "expit", "format_rows",
                                        "pairwise_sum", "parse_events",
                                        "scan_events", "score_piece",
                                        "window_pass"]


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

NO_TALLY = (np.empty(0, np.int64), np.empty(0, np.int64))


def sensor(bits):
    """A one-row sensor whose flat indices need ``bits`` bits: 2**bits
    pixels, or 2**63 - 1 at 63 bits."""
    return SensorGeometry(min(2**bits, 2**63 - 1), 1)


def score_window(flat, bits, frozen, alpha=0.25):
    """(pixels, counts, p) of one window, the open one, scored by
    capwalk.score_piece with the map ``frozen``."""
    flat = np.asarray(flat, np.int64)
    p = np.full(flat.size, -1.0)
    ids, bounds = np.array([5] if flat.size else []), np.array(
        [0, flat.size] if flat.size else [0])
    (pixels, counts), kept = capwalk.score_piece(
        flat, ids, bounds, 5, NO_TALLY, frozen,
        (sensor(bits), alpha, SigmoidParams(), None), p)
    assert kept is frozen
    return pixels, counts, p


def expected_window(flat, frozen, alpha=0.25):
    """The same from np.unique and one lookup per event."""
    flat = np.asarray(flat, np.int64)
    pixels, counts = np.unique(flat, return_counts=True)
    p = (np.full(flat.size, alpha) if frozen is None
         else np.array([frozen.lookup(np.array([v]))[0] for v in flat]))
    return pixels, counts, p


def frozen_map(active, seed):
    active = np.unique(np.asarray(active, np.int64))
    probs = np.random.default_rng(seed).random(active.size + 1)
    return SparseScores(None, active, probs[:-1], float(probs[-1]))


@st.composite
def windows(draw):
    """A window's flat indices and the bits that bound them; a few distinct
    values make repeated pixels likely, and indices near 2**bits - 1 fill
    every radix digit (6 passes at 63 bits)."""
    bits = draw(st.sampled_from([0, 1, 11, 12, 20, 22, 33, 55, 62, 63])
                | st.integers(0, 63))
    top = sensor(bits).n_pixels - 1
    values = (st.sampled_from([0, top, top // 2, max(0, top - 2047)])
              | st.integers(max(0, top - 5000), top) | st.integers(0, top))
    pool = draw(st.lists(values, min_size=1, max_size=6))
    flat = draw(st.lists(st.sampled_from(pool) | values, min_size=1,
                         max_size=300))
    active = draw(st.none() | st.lists(
        st.sampled_from(pool + flat) | values, max_size=40))
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
        flat, bits, active = case
        frozen = None if active is None else frozen_map(active, seed)
        got = score_window(flat, bits, frozen)
        want = expected_window(flat, frozen)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("bits", [11, 23, 63])
    def test_window_longer_than_a_histogram(self, cap_walk, bits):
        """More events than a digit has values, so the sort buffers reach
        past where the histograms would start if they shared scratch."""
        rng = np.random.default_rng(bits)
        flat = rng.integers(0, sensor(bits).n_pixels, 3 * 2048 + 5,
                            dtype=np.int64)
        flat[::3] = flat[1]  # one pixel repeated a third of the time
        frozen = frozen_map(flat[::7], bits)
        got = score_window(flat, bits, frozen)
        want = expected_window(flat, frozen)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_empty_window(self, cap_walk):
        pixels, counts, p = score_window([], 20, frozen_map([3], 0))
        assert pixels.size == counts.size == p.size == 0

    @pytest.mark.parametrize("flat, bits", [([4, -1], 20), ([8, 3], 3),
                                            ([2**20], 20), ([1], 0),
                                            ([-(2**63)], 63)])
    def test_index_out_of_range(self, cap_walk, flat, bits):
        p = np.full(len(flat), -1.0)
        with pytest.raises(ValueError, match="flat pixel indices"):
            capwalk.score_piece(np.array(flat, np.int64), [1],
                                [0, len(flat)], 1, NO_TALLY, None,
                                (sensor(bits), 0.5, SigmoidParams(), None), p)
        assert (p == -1.0).all()

    @pytest.mark.parametrize("flat", [[6], [0, 5, 7, 2]])
    def test_index_past_the_sensor(self, cap_walk, flat):
        """Indices of 6 pixels take 3 bits, but 6 and 7 are not pixels."""
        p = np.full(len(flat), -1.0)
        with pytest.raises(ValueError, match=r"in \[0, 6\)"):
            capwalk.score_piece(np.array(flat, np.int64), [2],
                                [0, len(flat)], 2, NO_TALLY, None,
                                (SensorGeometry(3, 2), 0.5, SigmoidParams(),
                                 None), p)
        assert (p == -1.0).all()

    def test_rejects_mismatched_arrays(self):
        flat = np.arange(4, dtype=np.int64)
        p, ids, bounds = np.empty(4), np.array([1, 3]), np.array([0, 1, 4])
        chain = (SensorGeometry(4, 1), 0.5, SigmoidParams(), None)
        for args, match in (
                ((flat.astype(np.int32), ids, bounds, 0, NO_TALLY, None,
                  chain, p), "contiguous"),
                ((flat, ids, bounds, 0, NO_TALLY, None, chain, np.empty(3)),
                 "contiguous"),
                ((flat[::2], ids, [0, 1, 2], 0, NO_TALLY, None, chain,
                  p[:2]), "contiguous"),
                ((flat, ids, [0, 1, 3], 0, NO_TALLY, None, chain, p),
                 "windows"),
                ((flat, ids, [0, 0, 4], 0, NO_TALLY, None, chain, p),
                 "windows"),
                ((flat, [3, 1], bounds, 0, NO_TALLY, None, chain, p),
                 "windows"),
                ((flat, ids, bounds, 2, NO_TALLY, None, chain, p),
                 "windows"),
                ((flat, [0, 3], bounds, 0, NO_TALLY, None, chain, p),
                 "windows"),
                ((flat, ids, bounds[:2], 0, NO_TALLY, None, chain, p),
                 "windows"),
                ((flat, ids, bounds, 0, (flat, flat[:3]), None, chain, p),
                 "tally"),
                ((flat, ids, bounds, 0, (flat + 1, np.ones(4, np.int64)),
                  None, chain, p), "tally"),
                ((flat, ids, bounds, 0, (flat, np.zeros(4, np.int64)), None,
                  chain, p), "tally")):
            with pytest.raises(ValueError, match=match):
                capwalk.score_piece(*args)
        if capwalk.implementation() == "compiled":
            short = SparseScores(None, np.arange(3), np.zeros(2), 0.5)
            with pytest.raises(ValueError, match="one score per active"):
                capwalk.score_piece(flat, [1], [0, 4], 1, NO_TALLY, short,
                                    chain, p)


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

