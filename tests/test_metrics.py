"""Metrics: retention, matching, selectivity, density divergence."""

import math

import numpy as np
import pytest

from evdown import (SamplerConfig, SensorGeometry, density_divergence,
                    generate, match_events, reference_scene, retention_ratio,
                    run, selectivity)

from conftest import make_stream

GEO = SensorGeometry(8, 6)


def labeled(records, labels):
    return make_stream(GEO, records, labels=labels,
                       edge_ids=[0 if l else -1 for l in labels])


class TestRetentionRatio:
    def test_identical_streams_ratio_one(self):
        s = make_stream(GEO, [(i * 100, 0, 0, 1) for i in range(50)])
        report = retention_ratio(s, s.subset(np.arange(50)))
        assert report.overall == 1.0
        assert all(r == 1.0 for r in report.per_window_ratios)

    def test_empty_downsampled(self):
        s = make_stream(GEO, [(1, 0, 0, 1)])
        report = retention_ratio(s, s.subset([]))
        assert report.overall == 0.0

    def test_empty_original_rejected(self):
        empty = make_stream(GEO, [])
        with pytest.raises(ValueError):
            retention_ratio(empty, empty)

    def test_window_past_int64(self):
        s = make_stream(GEO, [(0, 0, 0, 1), (2**63 - 1, 0, 0, 1)])
        report = retention_ratio(s, s, window_us=2**63 - 1)
        assert [w.window_id for w in report.per_window] == [1, 2]
        with pytest.raises(ValueError, match=r"window_us must be in "
                                             r"\[1, 2\*\*63 - 1\]"):
            retention_ratio(s, s, window_us=2**63)

    def test_per_window_series(self):
        # 10 events in window 1, 5 in window 3; keep 4 and 1
        records = ([(i * 10, 0, 0, 1) for i in range(10)]
                   + [(13_000 + i * 10, 0, 0, 1) for i in range(5)])
        s = make_stream(GEO, records)
        report = retention_ratio(s, s.subset([0, 1, 2, 3, 12]),
                                 window_us=6000)
        assert [(w.window_id, w.originals, w.retained)
                for w in report.per_window] == [(1, 10, 4), (3, 5, 1)]
        assert report.per_window_ratios == [0.4, 0.2]
        assert report.overall == pytest.approx(5 / 15)

    def test_window_counts_follow_events_not_span(self):
        """Timestamps 0 and 2**63 - 1 span about 1.5e15 windows; a count
        per window in the span fails with MemoryError."""
        s = make_stream(GEO, [(0, 0, 0, 1), (2**63 - 1, 1, 1, 0)])
        report = retention_ratio(s, s.subset([1]))
        assert [(w.window_id, w.originals, w.retained)
                for w in report.per_window] == [
                    (1, 1, 0), ((2**63 - 1) // 6000 + 1, 1, 1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_count_over_every_window(self, seed):
        """Against a count over every window id of the span."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        t = np.sort(rng.integers(0, 40_000, n)) + int(rng.integers(0, 10**6))
        s = make_stream(GEO, [(int(v), 0, 0, 1) for v in t])
        keep = np.flatnonzero(rng.random(n) < rng.random())
        window_us = int(rng.choice([1, 7, 1000, 6000]))
        report = retention_ratio(s, s.subset(keep), window_us=window_us)
        w = (t - t[0]) // window_us + 1
        n_orig = np.bincount(w)
        n_down = np.bincount(w[keep], minlength=n_orig.size)
        assert [(r.window_id, r.originals, r.retained)
                for r in report.per_window] == [
                    (k, int(n_orig[k]), int(n_down[k]))
                    for k in range(1, n_orig.size) if n_orig[k]]


class TestMatchEvents:
    def test_stable_matching_with_duplicate_timestamps(self):
        # two identical records back to back: stable matching maps the
        # k-th kept copy to the k-th original copy
        s = make_stream(GEO, [(5, 1, 1, 1), (5, 1, 1, 1), (7, 2, 2, 0)])
        down = make_stream(GEO, [(5, 1, 1, 1), (5, 1, 1, 1)])
        assert match_events(s, down).tolist() == [0, 1]
        down_one = make_stream(GEO, [(5, 1, 1, 1), (7, 2, 2, 0)])
        assert match_events(s, down_one).tolist() == [0, 2]

    def test_non_member_named(self):
        s = make_stream(GEO, [(5, 1, 1, 1)])
        down = make_stream(GEO, [(5, 1, 2, 1)])
        with pytest.raises(ValueError, match=r"t=5, x=1, y=2"):
            match_events(s, down)

    def test_source_index_fast_path(self):
        s = make_stream(GEO, [(i, i % 8, 0, 1) for i in range(20)])
        down = s.subset([3, 7, 11])
        assert match_events(s, down).tolist() == [3, 7, 11]

    def test_source_index_verified_against_original(self):
        s = make_stream(GEO, [(i, i % 8, 0, 1) for i in range(20)])
        other = make_stream(GEO, [(i, (i + 1) % 8, 0, 1) for i in range(20)])
        down = s.subset([3, 7])
        with pytest.raises(ValueError, match="source_index"):
            match_events(other, down)


class TestSelectivity:
    def test_hand_counted_fractions(self):
        # 4 edge and 6 noise originals; keep 3 edge and 2 noise
        labels = [1, 1, 0, 0, 1, 0, 0, 1, 0, 0]
        s = labeled([(i * 10, i % 8, 0, 1) for i in range(10)], labels)
        down = s.subset([0, 1, 2, 4, 5])  # labels 1,1,0,1,0
        report = selectivity(s, down, alpha=0.5)
        assert report.edge_total == 4 and report.noise_total == 6
        assert report.edge_retained == 3 and report.noise_retained == 2
        assert report.edge_fraction == 0.75
        assert report.noise_fraction == pytest.approx(1 / 3)
        assert report.ratio == pytest.approx(0.75 * 3)
        assert report.overall == 0.5
        assert report.alpha == 0.5

    def test_requires_labels(self):
        s = make_stream(GEO, [(1, 0, 0, 1)])
        with pytest.raises(ValueError, match="label"):
            selectivity(s, s.subset([0]))

    def test_no_noise_ratio_none(self):
        s = labeled([(1, 0, 0, 1), (2, 1, 0, 1)], [1, 1])
        report = selectivity(s, s.subset([0]))
        assert report.ratio is None

    def test_no_kept_noise_ratio_none(self):
        s = labeled([(1, 0, 0, 1), (2, 1, 0, 1)], [1, 0])
        report = selectivity(s, s.subset([0]))
        assert report.noise_fraction == 0.0
        assert report.ratio is None

    def test_uniform_sampler_scores_near_one(self):
        """A label-blind sampler keeps edges and noise at the same rate."""
        scene = generate(reference_scene(seed=1))
        out, _, _ = run(scene, "uniform", SamplerConfig(alpha=0.2, seed=6))
        report = selectivity(scene, out, alpha=0.2)
        assert 0.95 <= report.ratio <= 1.05


class TestDensityDivergence:
    def make(self, counts):
        return np.asarray(counts, dtype=np.int64)

    def test_identical_maps_zero(self):
        d = self.make([[3, 1], [0, 2]])
        assert density_divergence(d, d) == 0.0

    def test_symmetric(self):
        a = self.make([[5, 1], [2, 0]])
        b = self.make([[1, 4], [0, 3]])
        assert density_divergence(a, b) == density_divergence(b, a)

    def test_positive_when_different(self):
        a = self.make([[10, 0]])
        b = self.make([[0, 10]])
        assert density_divergence(a, b) > 1.0

    def test_matches_hand_computation(self):
        a = self.make([[3, 1]])
        b = self.make([[1, 1]])
        eps = 1e-9
        p = [(0.75 + eps) / (1 + 2 * eps), (0.25 + eps) / (1 + 2 * eps)]
        q = [(0.5 + eps) / (1 + 2 * eps), (0.5 + eps) / (1 + 2 * eps)]
        kl_pq = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
        kl_qp = sum(qi * math.log(qi / pi) for pi, qi in zip(p, q))
        expected = 0.5 * (kl_pq + kl_qp)
        assert density_divergence(a, b) == pytest.approx(expected, abs=1e-12)

    def test_epsilon_keeps_disjoint_support_finite(self):
        a = self.make([[1, 0, 0, 0]])
        b = self.make([[0, 0, 0, 1]])
        val = density_divergence(a, b)
        assert math.isfinite(val)

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError, match="different shapes"):
            density_divergence(self.make([[1, 2]]), self.make([[1], [2]]))

    def test_zero_map_rejected(self):
        with pytest.raises(ValueError, match="at least one event"):
            density_divergence(self.make([[0, 0]]), self.make([[1, 0]]))
