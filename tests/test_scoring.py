"""The pipeline's scorer against the per-event formulation.

``conftest.per_event_scores`` freezes each window's map from ``np.unique``
of the previous window's events and then looks up every event of the
window on its own.  ``pipeline._WindowScorer`` sorts each window once and
looks up its distinct pixels only; the two must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdown import EventStream, PriorMap, SamplerConfig, SensorGeometry, run
from evdown.events import window_spans
from evdown.pipeline import _WindowScorer

from conftest import HUGE, make_stream, per_event_scores


def scored(stream: EventStream, config: SamplerConfig) -> np.ndarray:
    windows = (stream.t - int(stream.t[0])) // config.t_us + 1
    scorer = _WindowScorer(stream.geometry, config)
    p = scorer.score(stream.y * stream.geometry.width + stream.x,
                     *window_spans(windows))
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
                                SensorGeometry(16, 12), HUGE]))
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
    prior = None
    if geo is not HUGE and draw(st.booleans()):
        prior = random_prior(geo, draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.5, 1.0])
                 | st.floats(1e-6, 1.0, exclude_min=True))
    stream = EventStream(geo, t, x, y, np.ones(n, np.uint8))
    return stream, SamplerConfig(alpha=alpha, t_us=t_us, seed=1, prior=prior)


class TestScoredProbabilities:
    @settings(max_examples=80, deadline=None)
    @given(scoring_cases())
    def test_matches_per_event_formulation(self, case):
        assert_same_bits(*case)

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
