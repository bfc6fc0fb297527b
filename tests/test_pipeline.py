"""Streaming pipeline: windowing, causality, cap, parity with the per-event
reference."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evdown import (DecisionCode, EventStream, PriorMap, SamplerConfig,
                    SensorGeometry, gaussian_prior, run)
from evdown.density import sigmoid

from conftest import (HUGE, force_python_walk, make_stream, random_stream,
                      reference_run)

GEO = SensorGeometry(16, 12)


class TestRunValidation:
    def test_unknown_method(self):
        s = random_stream(np.random.default_rng(0), n=10)
        with pytest.raises(ValueError, match="unknown method"):
            run(s, "fancy", SamplerConfig(alpha=0.5))

    def test_out_of_order_reports_index(self):
        """No out-of-order stream reaches run: the stream refuses it."""
        with pytest.raises(ValueError, match=(
                r"^events out of order at index 2: t=15 after t=20$")):
            make_stream(GEO, [(10, 0, 0, 1), (20, 0, 0, 1), (15, 0, 0, 1)])

    def test_out_of_bounds_event_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^event 0 at \(16, 0\) outside 16x12 sensor$"):
            EventStream(GEO, [1], [16], [0], [1])

    def test_prior_requires_poisson(self):
        s = random_stream(np.random.default_rng(0), n=10)
        config = SamplerConfig(alpha=0.5, prior=gaussian_prior(GEO))
        with pytest.raises(ValueError, match="prior"):
            run(s, "uniform", config)

    def test_prior_geometry_must_match(self):
        s = random_stream(np.random.default_rng(0), n=10)
        config = SamplerConfig(alpha=0.5,
                               prior=gaussian_prior(SensorGeometry(4, 4)))
        with pytest.raises(ValueError, match="geometry"):
            run(s, "poisson", config)


class TestEmptyStream:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    def test_empty_in_empty_out(self, method):
        s = make_stream(GEO, [])
        out, stats, log = run(s, method, SamplerConfig(alpha=0.3))
        assert len(out) == 0
        assert len(log) == 0
        assert stats.processed == stats.retained == stats.capped == 0
        assert stats.ratio == 0.0
        assert stats.per_window == ()


class TestAlphaOneIdentity:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    def test_output_equals_input(self, method):
        s = random_stream(np.random.default_rng(5), n=3000)
        out, stats, log = run(s, method, SamplerConfig(alpha=1.0, seed=3))
        assert out == s
        assert stats.ratio == 1.0
        assert stats.capped == 0
        assert (log.code == int(DecisionCode.ACCEPT)).all()
        if method != "deterministic":
            assert (log.probability == 1.0).all()


class TestWindowing:
    def test_window_ids_anchored_at_first_event(self):
        t_us = 6000
        s = make_stream(GEO, [(500, 0, 0, 1), (500 + 5999, 0, 0, 1),
                              (500 + 6000, 0, 0, 1), (500 + 17999, 0, 0, 1),
                              (500 + 18000, 0, 0, 1)])
        _, _, log = run(s, "uniform", SamplerConfig(alpha=1.0, t_us=t_us))
        assert log.window.tolist() == [1, 1, 2, 3, 4]

    def test_first_window_falls_back_to_alpha(self):
        s = random_stream(np.random.default_rng(2), n=500, span_us=5000)
        config = SamplerConfig(alpha=0.4, t_us=6000, seed=1)
        _, _, log = run(s, "poisson", config)
        assert (log.window == 1).all()
        assert (log.probability == 0.4).all()

    def test_gap_produces_degenerate_map_not_stale(self):
        """After a multi-window gap the active map is the constant
        sigmoid(alpha), never the last non-empty window's map."""
        t_us = 6000
        config = SamplerConfig(alpha=0.1, t_us=t_us, cap_enabled=False, seed=0)
        # hot pixel (3, 3) in window 1, then silence until window 4
        records = [(i * 40, 3, 3, 1) for i in range(100)]
        t_gap = int(3.5 * t_us)  # lands in window 4, a 3.5 T jump
        records.append((t_gap, 3, 3, 1))
        s = make_stream(GEO, records)
        _, _, log = run(s, "poisson", config)
        assert log.window[-1] == 4
        expected = float(sigmoid(np.float64(0.1)))
        assert log.probability[-1] == expected

    def test_gap_rollover_steps_one_window_at_a_time(self):
        """A gap of two empty windows wipes the window-1 signal from every
        pixel: each event of window 4 scores the constant sigmoid(alpha)."""
        records = ([(0, 3, 3, 1)]
                   + [(21000, x, y, 1) for x, y in ((3, 3), (0, 0), (15, 11))])
        _, _, log = run(make_stream(GEO, records), "poisson",
                        SamplerConfig(alpha=0.1, t_us=6000, cap_enabled=False))
        assert log.window.tolist() == [1, 4, 4, 4]
        expected = float(sigmoid(np.float64(0.1)))
        assert (log.probability[1:] == expected).all()

    def test_rollover_freezes_closing_density(self):
        """Window 1's counts, and no later event, score window 2; window 3
        is scored from window 2 alone."""
        config = SamplerConfig(alpha=0.2, t_us=1000, cap_enabled=False)
        records = ([(0, 5, 5, 1)] * 50 + [(1, 10, 2, 1)]
                   + [(1000, 5, 5, 1), (1000, 10, 2, 1)]
                   + [(1001, 0, 0, 1)] * 3
                   + [(2000, 5, 5, 1), (2000, 0, 0, 1)])
        _, _, log = run(make_stream(GEO, records), "poisson", config)
        assert log.window.tolist() == [1] * 51 + [2] * 5 + [3] * 2
        p5, p10, p0 = log.probability[51:54]
        assert p5 > p10 > p0
        assert log.probability[-1] > log.probability[-2]


class TestStatsInvariants:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    @pytest.mark.parametrize("cap", [True, False])
    def test_counter_identity(self, method, cap):
        s = random_stream(np.random.default_rng(9), n=4000)
        out, stats, log = run(s, method,
                              SamplerConfig(alpha=0.2, seed=4,
                                            cap_enabled=cap))
        assert stats.processed == len(s)
        assert stats.processed == (stats.retained + stats.capped
                                   + stats.sampler_rejected)
        assert stats.retained == len(out)
        assert stats.capped == int((log.code == 2).sum())
        if not cap:
            assert stats.capped == 0

    def test_per_window_tallies_sum_to_totals(self):
        s = random_stream(np.random.default_rng(1), n=5000, span_us=40_000)
        _, stats, _ = run(s, "poisson", SamplerConfig(alpha=0.3, seed=0))
        assert sum(p for _, p, _ in stats.per_window) == stats.processed
        assert sum(r for _, _, r in stats.per_window) == stats.retained
        for _, p, r in stats.per_window:
            assert 0 <= r <= p
        ratios = stats.per_window_ratios
        assert len(ratios) == len(stats.per_window)

    def test_timing_fields_consistent(self):
        s = random_stream(np.random.default_rng(3), n=20_000)
        _, stats, _ = run(s, "poisson", SamplerConfig(alpha=0.1))
        assert stats.total_s > 0
        assert stats.pdf_s >= 0 and stats.eval_s >= 0
        assert stats.total_s >= stats.pdf_s + stats.eval_s - 1e-9
        assert stats.ms_per_kev_total == pytest.approx(
            stats.total_s * 1e6 / len(s))
        assert stats.ms_per_kev_pdf == pytest.approx(
            stats.pdf_s * 1e6 / len(s))
        assert stats.ms_per_kev_eval == pytest.approx(
            stats.eval_s * 1e6 / len(s))

    def test_source_index_points_into_input(self):
        s = random_stream(np.random.default_rng(8), n=2000)
        out, _, log = run(s, "uniform", SamplerConfig(alpha=0.3, seed=2))
        idx = out.source_index
        assert (np.diff(idx) > 0).all()
        assert np.array_equal(s.t[idx], out.t)
        assert np.array_equal(log.code[idx], np.zeros(len(out), np.uint8))


class TestDeterminism:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    def test_same_seed_same_output(self, method):
        s = random_stream(np.random.default_rng(4), n=3000)
        config = SamplerConfig(alpha=0.25, seed=11)
        out1, _, log1 = run(s, method, config)
        out2, _, log2 = run(s, method, config)
        assert out1 == out2
        assert np.array_equal(log1.code, log2.code)
        assert np.array_equal(log1.probability, log2.probability,
                              equal_nan=True)

    @pytest.mark.parametrize("method", ["uniform", "poisson"])
    def test_different_seed_differs(self, method):
        s = random_stream(np.random.default_rng(4), n=3000)
        out1, _, _ = run(s, method, SamplerConfig(alpha=0.25, seed=1))
        out2, _, _ = run(s, method, SamplerConfig(alpha=0.25, seed=2))
        assert not np.array_equal(out1.source_index, out2.source_index)


# geometry, seed, alpha, cap, with_prior; no prior fits the huge sensor
SMALL_SENSOR_CASES = (st.builds(SensorGeometry, st.integers(1, 5),
                                st.integers(1, 4)) | st.just(HUGE),
                      st.integers(0, 2**32 - 1),
                      st.sampled_from([0.05, 0.3, 1.0]), st.booleans(),
                      st.booleans())


class TestBatchMatchesPerEvent:
    """The vectorized pipeline must reproduce the per-event reference
    (conftest.reference_run) exactly: same codes, same probabilities, same
    RNG consumption."""

    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    @pytest.mark.parametrize("cap", [True, False])
    @pytest.mark.parametrize("alpha", [0.07, 0.5, 1.0])
    def test_parity(self, method, cap, alpha):
        s = random_stream(np.random.default_rng(hash((method, cap)) % 2**32),
                          n=1500, span_us=40_000)
        config = SamplerConfig(alpha=alpha, seed=21, cap_enabled=cap)
        out, stats, log = run(s, method, config)
        codes, probs, windows, retained = reference_run(s, method, config)
        assert log.code.tolist() == codes
        assert log.window.tolist() == windows
        np.testing.assert_array_equal(log.probability, np.asarray(probs))
        assert stats.processed == len(codes)
        assert stats.retained == retained

    def test_parity_with_prior_and_gaps(self):
        rng = np.random.default_rng(77)
        # bursty stream with forced multi-window gaps
        chunks = []
        base = 0
        for _ in range(6):
            n = int(rng.integers(50, 300))
            chunks.append(np.sort(rng.integers(0, 5000, size=n)) + base)
            base += int(rng.integers(4000, 30_000))
        t = np.concatenate(chunks)
        s = make_stream(GEO, [])
        s = s.__class__(GEO, t, rng.integers(0, 16, t.size),
                        rng.integers(0, 12, t.size),
                        rng.integers(0, 2, t.size))
        config = SamplerConfig(alpha=0.3, seed=5, prior=gaussian_prior(GEO))
        out, stats, log = run(s, "poisson", config)
        codes, probs, windows, retained = reference_run(s, "poisson", config)
        assert log.code.tolist() == codes
        assert log.window.tolist() == windows
        np.testing.assert_array_equal(log.probability, np.asarray(probs))
        assert retained == stats.retained

    @settings(max_examples=40, deadline=None)
    @given(*SMALL_SENSOR_CASES)
    @example(HUGE, 0, 0.3, True, False)
    def test_sparse_scoring_parity_small_sensors(self, geo, seed, alpha, cap,
                                                 with_prior):
        """Tiny sensors make every-pixel-active windows common; bursts
        with long gaps give windows with no active pixel.  On the huge
        sensor nearly every pixel stays inactive."""
        rng = np.random.default_rng(seed)
        width, height = geo.width, geo.height
        bursts = [np.sort(rng.integers(0, 3000, int(rng.integers(0, 40))))
                  + k * int(rng.integers(2000, 9000)) for k in range(8)]
        t = np.sort(np.concatenate(bursts))
        s = EventStream(geo, t, rng.integers(0, width, t.size),
                        rng.integers(0, height, t.size),
                        rng.integers(0, 2, t.size))
        prior = None
        if with_prior and geo != HUGE:
            weights = rng.uniform(0.0, 2.0, (height, width))
            weights[rng.random((height, width)) < 0.3] = 0.0
            weights.flat[0] = 1.0
            prior = PriorMap(geo, weights)
        config = SamplerConfig(alpha=alpha, t_us=2000, seed=seed,
                               cap_enabled=cap, prior=prior)
        out, stats, log = run(s, "poisson", config)
        codes, probs, windows, retained = reference_run(s, "poisson", config)
        assert log.code.tolist() == codes
        assert log.window.tolist() == windows
        np.testing.assert_array_equal(log.probability, np.asarray(probs))
        assert stats.retained == retained


class TestBatchMatchesPerEventPythonWalk(TestBatchMatchesPerEvent):
    """The same parity tests with the compiled cap walk unavailable."""

    @pytest.fixture(autouse=True, scope="class")
    def _python_walk(self):
        with pytest.MonkeyPatch.context() as mp:
            force_python_walk(mp)
            yield

    # Hypothesis needs its own test function for each class that runs it.
    @settings(max_examples=40, deadline=None)
    @given(*SMALL_SENSOR_CASES)
    @example(HUGE, 0, 0.3, True, False)
    def test_sparse_scoring_parity_small_sensors(self, geo, seed, alpha, cap,
                                                 with_prior):
        base = TestBatchMatchesPerEvent
        base.test_sparse_scoring_parity_small_sensors.hypothesis.inner_test(
            self, geo, seed, alpha, cap, with_prior)


class TestHugeGeometry:
    def test_poisson_memory_follows_events_not_sensor(self):
        """A dense map of this sensor (2**55 pixels) could never be
        allocated; a regression to dense scoring fails with MemoryError."""
        geo = HUGE
        rng = np.random.default_rng(12)
        n = 400
        hot = rng.integers(0, 2**31, 20), rng.integers(0, 2**24, 20)
        pick = rng.integers(0, 20, n)
        s = EventStream(geo, np.sort(rng.integers(0, 30_000, n)),
                        hot[0][pick], hot[1][pick], rng.integers(0, 2, n))
        config = SamplerConfig(alpha=0.2, seed=4, prior=None)
        tracemalloc.start()
        try:
            _, stats, log = run(s, "poisson", config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.processed == n
        assert peak < 4 * 2**20
        # pixels hot in the previous window outscore the untouched sensor
        later = log.probability[log.window >= 2]
        rest = later.min()
        assert later.max() > rest
        assert np.count_nonzero(later == rest) < later.size


class TestHugeSpan:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    def test_window_counts_follow_events_not_span(self, method):
        """Timestamps 0 and 2**63 - 1 span about 1.5e15 windows, all but two
        empty; a count per window in the span fails with MemoryError."""
        t = [0, 1, 2**62, 2**63 - 1]
        s = make_stream(GEO, [(v, i, i, 1) for i, v in enumerate(t)])
        config = SamplerConfig(alpha=0.5, seed=1, t_us=6000)
        tracemalloc.start()
        try:
            _, stats, log = run(s, method, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        wids = [1, 2**62 // 6000 + 1, (2**63 - 1) // 6000 + 1]
        assert log.window.tolist() == [1, 1, wids[1], wids[2]]
        assert [w[:2] for w in stats.per_window] == [(1, 2), (wids[1], 1),
                                                     (wids[2], 1)]
        retained = [int(np.count_nonzero(log.code[log.window == w] == 0))
                    for w in wids]
        assert [w[2] for w in stats.per_window] == retained
        assert sum(retained) == stats.retained


class TestDecisionLogTimestamps:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    def test_log_t_is_the_streams_read_only_buffer(self, method):
        """The log shares the stream's timestamps instead of copying them."""
        s = random_stream(np.random.default_rng(3), n=300)
        _, _, log = run(s, method, SamplerConfig(alpha=0.3, seed=2))
        assert not log.t.flags.writeable
        assert np.shares_memory(log.t, s.t)
        assert np.array_equal(log.t, s.t)
        with pytest.raises(ValueError):
            log.t[0] = 1


class TestCapWalkMemory:
    def test_uniform_capped_run_allocates_no_per_event_objects(self,
                                                                cap_walk):
        """One Python float per event (32 bytes with its list slot) would
        break the bound; the run's own arrays take about 37 bytes/event."""
        n = 200_000
        s = random_stream(np.random.default_rng(13), SensorGeometry(64, 48),
                          n=n, span_us=400_000)
        config = SamplerConfig(alpha=0.1, seed=3)
        run(s, "uniform", config)
        tracemalloc.start()
        try:
            _, stats, _ = run(s, "uniform", config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.capped > 0
        assert peak / n < 56


class TestBudgetSafety:
    @pytest.mark.parametrize("method", ["deterministic", "uniform", "poisson"])
    def test_prefix_bound(self, method):
        s = random_stream(np.random.default_rng(6), n=20_000)
        alpha = 0.1
        _, _, log = run(s, method, SamplerConfig(alpha=alpha, seed=9))
        kept = np.cumsum(log.code == 0)
        k = np.arange(1, len(s) + 1, dtype=np.float64)
        assert (kept <= alpha * (k - 1) + 1).all()

    def test_cap_disabled_can_exceed_budget(self):
        # all-accept scenario: alpha small, scores irrelevant at alpha=1...
        # use uniform with alpha 0.5 and no cap: running ratio may top 0.5
        s = random_stream(np.random.default_rng(14), n=5000)
        _, _, log = run(s, "uniform",
                        SamplerConfig(alpha=0.5, seed=3, cap_enabled=False))
        kept = np.cumsum(log.code == 0)
        k = np.arange(1, len(s) + 1, dtype=np.float64)
        assert (kept > 0.5 * (k - 1) + 1).any()


class TestDensityAdaptivity:
    def test_hot_pixel_outscores_cold_pixel(self):
        """Two-pixel scene, 50 vs 1 events per window: the busy pixel's
        acceptance probability and realized rate must dominate."""
        t_us = 6000
        geo = SensorGeometry(2, 1)
        records = []
        n_windows = 300
        for w in range(n_windows):
            base = w * t_us
            for j in range(50):
                records.append((base + 10 + j * 100, 0, 0, 1))
            records.append((base + 55, 1, 0, 1))
        records.sort()
        s = make_stream(geo, records)
        config = SamplerConfig(alpha=0.3, t_us=t_us, seed=8,
                               cap_enabled=False)
        out, _, log = run(s, "poisson", config)

        hot = s.x[:] == 0
        later = log.window >= 2
        p_hot = log.probability[hot & later]
        p_cold = log.probability[~hot & later]
        assert p_hot.min() > p_cold.max()

        rate_hot = (log.code[hot & later] == 0).mean()
        rate_cold = (log.code[~hot & later] == 0).mean()
        assert rate_hot > rate_cold

    def test_probabilities_constant_within_window_per_pixel(self):
        s = random_stream(np.random.default_rng(10), n=8000, span_us=30_000)
        _, _, log = run(s, "poisson", SamplerConfig(alpha=0.2, seed=1))
        for w in range(2, int(log.window.max()) + 1):
            sel = log.window == w
            for pix in np.unique(s.y[sel] * 16 + s.x[sel])[:5]:
                mask = sel & ((s.y * 16 + s.x) == pix)
                assert np.unique(log.probability[mask]).size == 1
