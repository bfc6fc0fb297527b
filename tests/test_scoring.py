"""The pipeline's scorer against the per-event formulation.

``conftest.per_event_scores`` freezes each window's map from ``np.unique``
of the previous window's events with ``sparse_scores`` and then looks up
every event of the window on its own.  ``pipeline._WindowScorer`` scores
each piece in one call of the compiled ``capwalk.score_piece``, which
freezes the maps in C, or of its numpy twin, and merges the pieces'
tallies; every path must agree bit for bit.
"""

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evdown import (EventStream, PriorMap, SamplerConfig, SensorGeometry,
                    SigmoidParams, capwalk, density, pipeline, run)
from evdown.events import window_spans
from evdown.pipeline import _WindowScorer

from conftest import HUGE, make_stream, per_event_scores

# Flat indices up to 2**63 - 2 take all six 11-bit radix passes, and the
# freeze converts pixel counts past 2**53 to floats.
WIDEST = SensorGeometry(2**63 - 1, 1)
SIX = SensorGeometry(3, 2)


def scored(stream: EventStream, config: SamplerConfig,
           cuts=()) -> np.ndarray:
    """The scorer's probabilities, the stream pushed in pieces cut before
    each event index in ``cuts``."""
    windows = (stream.t - int(stream.t[0])) // config.t_us + 1
    flat = stream.y * stream.geometry.width + stream.x
    scorer = _WindowScorer(stream.geometry, config)
    edges = [0, *sorted(cuts), len(stream)]
    p = np.concatenate([scorer.score(flat[a:b], *window_spans(windows[a:b]))
                        for a, b in zip(edges, edges[1:]) if b > a])
    assert scorer.seconds > 0
    return p


def assert_same_bits(stream, config):
    want = per_event_scores(stream, config)
    got = scored(stream, config)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    if config.alpha < 1.0:
        _, _, log = run(stream, "poisson", config)
        assert (log.probability.view(np.int64).tolist()
                == want.view(np.int64).tolist())


def random_prior(geometry, seed):
    rng = np.random.default_rng(seed)
    w = rng.random((geometry.height, geometry.width))
    w[rng.random(w.shape) < 0.3] = 0.0
    w.flat[0] = 1.0
    return PriorMap(geometry, w)


@st.composite
def scoring_cases(draw):
    geo = draw(st.sampled_from([SensorGeometry(1, 1), SensorGeometry(3, 2),
                                SensorGeometry(16, 12), HUGE, WIDEST]))
    t_us = draw(st.sampled_from([1, 5, 1000]))
    n = draw(st.integers(1, 120))
    # Steps of 0 give duplicate timestamps; steps past t_us skip one or
    # many empty windows.
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(0, t_us),
                                    st.integers(t_us, 60 * t_us)),
                          min_size=n, max_size=n))
    t = np.cumsum(steps) + draw(st.integers(0, 10**6))
    # A few distinct pixels make one-pixel windows and repeats likely.
    xs = st.sampled_from([0, geo.width - 1, geo.width // 2])
    ys = st.sampled_from([0, geo.height - 1, geo.height // 2])
    if draw(st.booleans()):
        xs = st.integers(0, geo.width - 1)
        ys = st.integers(0, geo.height - 1)
    x = draw(st.lists(xs, min_size=n, max_size=n))
    y = draw(st.lists(ys, min_size=n, max_size=n))
    if draw(st.booleans()):
        # Runs of 37 and more events on one pixel, where occupancy
        # saturates and the count classes end.
        runs = draw(st.lists(st.sampled_from([1, 1, 36, 37, 45]),
                             min_size=n, max_size=n))
        t, x, y = (np.repeat(v, runs) for v in (t, x, y))
        n = t.size
    prior = None
    if geo.n_pixels < 2**10 and draw(st.booleans()):
        prior = random_prior(geo, draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.5, 1.0])
                 | st.floats(1e-6, 1.0, exclude_min=True))
    stream = EventStream(geo, t, x, y, np.ones(n, np.uint8))
    return stream, SamplerConfig(alpha=alpha, t_us=t_us, seed=1, prior=prior)


def bursts(geometry, windows, t_us=10, **config):
    """A stream and its config: window ``w + 1`` holds the hits
    ``windows[w]``, ``(x, y, count)`` each, interleaved; an empty list
    leaves the window empty."""
    records = []
    for w, hits in enumerate(windows):
        order = [(x, y) for x, y, c in hits for _ in range(c)]
        order = order[::2] + order[1::2]
        records += [(w * t_us + i % t_us, x, y, 1)
                    for i, (x, y) in enumerate(order)]
    return (make_stream(geometry, sorted(records)),
            SamplerConfig(t_us=t_us, seed=1, **config))


ALL_ONCE = [(x, y, 1) for x in range(3) for y in range(2)]
# Every pixel active with counts 1, 9, ..., 41, two of them past 37.
ALL_RISING = [(x, y, 1 + 8 * (x + 3 * y)) for x in range(3) for y in range(2)]
SATURATED = [(1, 1, 40), (2, 2, 37), (3, 3, 36), (4, 4, 1)]
# Every pixel of a 16x12 sensor, counts 1 to 40: sums of more than 128 g.
ALL_MANY = [(x, y, 1 + (7 * x + 3 * y) % 40) for x in range(16)
            for y in range(12)]
EDGE_CASES = {
    # Every pixel active once: n_rest == 0 and hi == lo.
    "every pixel, hi == lo": bursts(SIX, [ALL_ONCE, ALL_ONCE, ALL_ONCE],
                                    alpha=0.3),
    "one pixel, hi == lo": bursts(SensorGeometry(1, 1),
                                  [[(0, 0, 3)], [(0, 0, 40)], [(0, 0, 1)]],
                                  alpha=0.1),
    "every pixel, rising counts": bursts(SIX, [ALL_RISING, ALL_ONCE,
                                               ALL_RISING], alpha=0.1),
    "every pixel, alpha 1, prior": bursts(
        SIX, [ALL_RISING, ALL_ONCE, ALL_RISING], alpha=1.0,
        prior=PriorMap(SIX, np.arange(6.0).reshape(2, 3))),
    "every pixel, equal prior, hi == lo": bursts(
        SIX, [ALL_ONCE, ALL_RISING, ALL_ONCE], alpha=0.5,
        prior=PriorMap(SIX, np.full((2, 3), 0.5))),
    "counts 36 to 40": bursts(SensorGeometry(16, 12),
                              [SATURATED, SATURATED + [(5, 5, 2)],
                               [(1, 1, 1), (9, 9, 1)]], alpha=0.1),
    "counts 36 to 40, prior": bursts(
        SensorGeometry(16, 12), [SATURATED, SATURATED, SATURATED],
        alpha=0.05, prior=random_prior(SensorGeometry(16, 12), 3)),
    # Windows 2 and 3 empty: window 4 has no active pixel.
    "gap, no active pixel": bursts(SensorGeometry(16, 12),
                                   [SATURATED, [], [], SATURATED,
                                    [(0, 0, 2)]], alpha=0.2),
    "gap, no active pixel, prior": bursts(
        SensorGeometry(16, 12), [SATURATED, [], SATURATED],
        alpha=0.2, prior=random_prior(SensorGeometry(16, 12), 4)),
    "many pixels, every pixel": bursts(
        SensorGeometry(16, 12), [ALL_MANY, ALL_MANY[::3], ALL_MANY],
        alpha=0.1),
    "many pixels": bursts(SensorGeometry(64, 48),
                          [ALL_MANY, ALL_MANY[1::2], ALL_MANY], alpha=0.1),
    "many pixels, prior": bursts(
        SensorGeometry(16, 12), [ALL_MANY[::2], ALL_MANY, ALL_MANY],
        alpha=0.3, prior=random_prior(SensorGeometry(16, 12), 5)),
    # A slope of 10**4 saturates the sigmoid to 0.0 and 1.0: the clamp
    # bounds apply.
    "clipped, counts": bursts(SensorGeometry(16, 12),
                              [SATURATED, SATURATED, [(0, 0, 2)]], alpha=0.1,
                              theta=SigmoidParams(slope=1e4)),
    "widest, counts past 37": bursts(
        WIDEST, [[(2**63 - 2, 0, 40), (0, 0, 3)],
                 [(2**63 - 2, 0, 1), (5, 0, 38), (0, 0, 1)],
                 [(5, 0, 2), (2**62, 0, 1)]], alpha=0.1),
}


class TestScoredProbabilities:
    @settings(max_examples=80, deadline=None)
    @given(scoring_cases())
    def test_matches_per_event_formulation(self, case):
        assert_same_bits(*case)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=scoring_cases(), cuts=st.lists(st.integers(1, 119),
                                               max_size=5))
    @example(case=(make_stream(WIDEST, [(0, 2**63 - 2, 0, 1), (1, 0, 0, 1),
                                        (6, 2**63 - 2, 0, 1),
                                        (7, 2**62, 0, 1)]),
                   SamplerConfig(alpha=0.1, t_us=5)), cuts=[3])
    @example(case=EDGE_CASES["every pixel, hi == lo"], cuts=[3, 8])
    @example(case=EDGE_CASES["one pixel, hi == lo"], cuts=[2, 30])
    @example(case=EDGE_CASES["every pixel, rising counts"], cuts=[50, 100])
    @example(case=EDGE_CASES["every pixel, alpha 1, prior"], cuts=[60])
    @example(case=EDGE_CASES["every pixel, equal prior, hi == lo"], cuts=[])
    @example(case=EDGE_CASES["counts 36 to 40"], cuts=[40, 114, 116])
    @example(case=EDGE_CASES["counts 36 to 40, prior"], cuts=[200])
    @example(case=EDGE_CASES["gap, no active pixel"], cuts=[114])
    @example(case=EDGE_CASES["gap, no active pixel"], cuts=[115])
    @example(case=EDGE_CASES["gap, no active pixel, prior"], cuts=[1])
    @example(case=EDGE_CASES["widest, counts past 37"], cuts=[43, 60])
    @example(case=EDGE_CASES["many pixels, every pixel"], cuts=[1000])
    @example(case=EDGE_CASES["many pixels"], cuts=[])
    @example(case=EDGE_CASES["many pixels, prior"], cuts=[2000, 2001])
    @example(case=EDGE_CASES["clipped, counts"], cuts=[100])
    def test_pieces_on_both_kernels(self, cap_walk, case, cuts):
        """Cuts inside a window split its sort across pieces, and a piece
        may hold many windows; the compiled kernel, which freezes each
        window's map in C, and its numpy twin must still give
        per_event_scores' bits."""
        stream, config = case
        want = per_event_scores(stream, config)
        got = scored(stream, config, [c for c in cuts if c < len(stream)])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.skipif(shutil.which("cc") is None,
                        reason="no C compiler on PATH")
    def test_compiled_scorer_runs(self, monkeypatch):
        """Where the kernels build, no window goes through np.unique or
        sparse_scores: a silent fallback to the numpy twin fails here, not
        only in the benchmark."""
        stream = make_stream(SensorGeometry(16, 12), [
            (t, t % 16, t % 12, 1) for t in range(0, 20_000, 7)])
        config = SamplerConfig(alpha=0.1, t_us=1000)
        want = per_event_scores(stream, config)

        def no_unique(*args, **kwargs):
            raise AssertionError("the window scorer ran np.unique")

        def no_freeze(*args, **kwargs):
            raise AssertionError("the window scorer ran sparse_scores")
        monkeypatch.setattr(pipeline.np, "unique", no_unique)
        monkeypatch.setattr(density, "sparse_scores", no_freeze)
        _, _, log = run(stream, "poisson", config)
        assert capwalk.implementation() == "compiled"
        assert (log.probability.view(np.int64).tolist()
                == want.view(np.int64).tolist())

    @pytest.mark.parametrize("prior_on", [False, True])
    def test_all_window_one(self, prior_on):
        geo = SensorGeometry(8, 6)
        records = [(i * 10, i % 8, i % 6, 1) for i in range(500)]
        config = SamplerConfig(alpha=0.2, t_us=6000, prior=(
            random_prior(geo, 0) if prior_on else None))
        s = make_stream(geo, records)
        assert (scored(s, config) == 0.2).all()
        assert_same_bits(s, config)

    @pytest.mark.parametrize("prior_on", [False, True])
    def test_one_pixel_windows(self, prior_on):
        geo = SensorGeometry(8, 6)
        records = [(w * 1000 + j, w % 8, w % 6, 1)
                   for w in range(20) for j in range(w % 3 + 1)]
        config = SamplerConfig(alpha=0.3, t_us=1000, prior=(
            random_prior(geo, 1) if prior_on else None))
        assert_same_bits(make_stream(geo, records), config)

    @pytest.mark.parametrize("gap", [1, 2, 50])
    def test_gaps_drop_the_closed_map(self, gap):
        """After ``gap`` empty windows every pixel shares one score."""
        geo = SensorGeometry(8, 6)
        records = ([(j, 1, 1, 1) for j in range(30)]
                   + [(1000 + j, 2, 2, 1) for j in range(30)]
                   + [(1000 * (2 + gap) + j, j % 8, j % 3, 1)
                      for j in range(8)])
        config = SamplerConfig(alpha=0.3, t_us=1000)
        s = make_stream(geo, records)
        p = scored(s, config)
        assert np.unique(p[60:]).size == 1
        assert_same_bits(s, config)

    def test_duplicate_timestamps(self):
        geo = SensorGeometry(4, 4)
        records = [(t, i % 4, (i // 4) % 4, 1)
                   for i, t in enumerate([0] * 9 + [999] * 7 + [1000] * 12
                                         + [2500] * 5)]
        assert_same_bits(make_stream(geo, records),
                         SamplerConfig(alpha=0.1, t_us=1000))

    def test_huge_geometry(self):
        rng = np.random.default_rng(4)
        n = 3000
        t = np.sort(rng.integers(0, 30_000, n))
        s = EventStream(HUGE, t, rng.integers(0, 2**31, n) % 64 * 2**25,
                        rng.integers(0, 2**24, n) % 48 * 2**18,
                        np.zeros(n, np.uint8))
        assert_same_bits(s, SamplerConfig(alpha=0.1, t_us=1000))


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_reach_their_edge(name):
    """Each named case freezes a map with the property its name gives."""
    stream, config = EDGE_CASES[name]
    windows = (stream.t - int(stream.t[0])) // config.t_us + 1
    flat = stream.y * stream.geometry.width + stream.x
    tallies = {w: np.unique(flat[windows == w], return_counts=True)
               for w in np.unique(windows).tolist()}
    frozen = [tallies.get(w - 1, (np.empty(0),) * 2)
              for w in tallies if w > 1]
    n_pixels = stream.geometry.n_pixels
    if "every pixel" in name or "one pixel" in name:
        assert any(pix.size == n_pixels for pix, _ in frozen)
    if "hi == lo" in name:
        assert any(pix.size == n_pixels and np.unique(cnt).size == 1
                   for pix, cnt in frozen)
    if "counts" in name:
        assert any((cnt >= 37).any() and (cnt < 37).any()
                   for _, cnt in frozen)
    if "no active pixel" in name:
        assert any(pix.size == 0 for pix, _ in frozen)
    if "many" in name:
        assert any(pix.size > 128 for pix, _ in frozen)
    if "clipped" in name:
        scores = np.concatenate([
            np.append(m.probabilities, m.rest) for m in (
                density.sparse_scores(stream.geometry, pix,
                                      density.occupancy_values(cnt),
                                      config.alpha, config.theta)
                for pix, cnt in frozen)])
        assert density._P_LO in scores and density._P_HI in scores
    assert (config.prior is not None) == ("prior" in name)
