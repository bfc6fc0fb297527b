"""Synthetic scene generator: rates, motion, labels, determinism."""

import warnings

import numpy as np
import pytest

from evdown import (EdgeSpec, EventLabel, SceneSpec, SensorGeometry,
                    edge_shift, generate, rasterize_segment, reference_scene)
from evdown.events import first_violations

GEO = SensorGeometry(32, 24)


def noise_scene(rate=200.0, duration=100_000, seed=0):
    return SceneSpec(geometry=GEO, duration_us=duration,
                     noise_rate_px_s=rate, seed=seed)


def edge_scene(seed=0, velocity=30.0, rate=2000.0, polarity="alternating"):
    edge = EdgeSpec(x0=8, y0=4, x1=8, y1=19, velocity_px_s=velocity,
                    rate_per_px_s=rate)
    return SceneSpec(geometry=GEO, duration_us=200_000, edges=(edge,),
                     noise_rate_px_s=0.0, polarity=polarity, seed=seed)


class TestSpecValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(geometry=GEO, duration_us=0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(geometry=GEO, duration_us=10, noise_rate_px_s=-1.0)
        with pytest.raises(ValueError):
            EdgeSpec(0, 0, 5, 5, velocity_px_s=0.0, rate_per_px_s=-2.0)

    def test_degenerate_edge_rejected(self):
        with pytest.raises(ValueError):
            EdgeSpec(3, 3, 3, 3, velocity_px_s=1.0, rate_per_px_s=1.0)

    def test_unknown_polarity_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(geometry=GEO, duration_us=10, polarity="chaotic")

    def test_resource_guard(self):
        spec = SceneSpec(geometry=SensorGeometry(1000, 1000),
                         duration_us=10**9, noise_rate_px_s=10**6)
        with pytest.raises(ValueError, match="guard"):
            generate(spec)

    @pytest.mark.parametrize("field", ["x0", "y0", "x1", "y1",
                                       "velocity_px_s", "rate_per_px_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_edge_field_named(self, field, value):
        fields = dict(x0=3.0, y0=1.0, x1=3.0, y1=10.0, velocity_px_s=10.0,
                      rate_per_px_s=2000.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"edge {field} must be finite"):
            EdgeSpec(**fields)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_noise_rate_rejected(self, value):
        with pytest.raises(ValueError, match="noise rate must be finite"):
            SceneSpec(geometry=GEO, duration_us=10, noise_rate_px_s=value)

    def test_duration_past_int64_rejected(self):
        SceneSpec(geometry=GEO, duration_us=2**63 - 1)
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            SceneSpec(geometry=GEO, duration_us=2**63)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SceneSpec(geometry=GEO, duration_us=10, seed=-1)

    def test_shift_past_int64_clipped(self):
        """A displacement past any sensor is clipped to 2**62 px, so it
        casts to int64 without a warning, even where velocity * t is
        infinite."""
        edge = EdgeSpec(3, 1, 3, 10, velocity_px_s=1.7e308,
                        rate_per_px_s=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sx, sy = edge_shift(edge, np.array([0, 1, 10**6, 2**62]))
        assert sx.tolist() == [0, 2**62, 2**62, 2**62]
        assert sy.tolist() == [0] * 4

    def test_far_endpoint_rejected(self):
        EdgeSpec(2.0**31, 0, 2.0**31, 5, velocity_px_s=0.0, rate_per_px_s=1.0)
        with pytest.raises(ValueError, match="edge x0 must lie within 2"):
            EdgeSpec(1e300, 1, 1e300, 10, velocity_px_s=50.0,
                     rate_per_px_s=100.0)

    def test_edge_length_limit(self):
        """An edge of 65,536 px generates; one pixel more is refused before
        it is rasterized."""
        def scene(x1):
            return SceneSpec(geometry=GEO, duration_us=10, edges=(
                EdgeSpec(0, 1, x1, 1, velocity_px_s=0.0, rate_per_px_s=0.0),))
        assert len(generate(scene(65_535))) == 0
        with pytest.raises(ValueError, match="edge 0 spans more than the "
                                             "65536 px limit"):
            generate(scene(65_536))


class TestRasterize:
    def test_horizontal(self):
        px = rasterize_segment(2, 5, 6, 5)
        assert px.tolist() == [[2, 5], [3, 5], [4, 5], [5, 5], [6, 5]]

    def test_vertical(self):
        px = rasterize_segment(1, 1, 1, 4)
        assert px.tolist() == [[1, 1], [1, 2], [1, 3], [1, 4]]

    def test_diagonal(self):
        px = rasterize_segment(0, 0, 3, 3)
        assert px.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]

    def test_reverse_direction(self):
        px = rasterize_segment(6, 5, 2, 5)
        assert px[0].tolist() == [6, 5]
        assert px[-1].tolist() == [2, 5]

    def test_shallow_line_connected(self):
        px = rasterize_segment(0, 0, 10, 3)
        steps = np.abs(np.diff(px, axis=0)).max(axis=1)
        assert (steps == 1).all()
        assert px[0].tolist() == [0, 0] and px[-1].tolist() == [10, 3]


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(edge_scene(seed=3))
        b = generate(edge_scene(seed=3))
        assert a == b
        assert np.array_equal(a.labels, b.labels)
        c = generate(edge_scene(seed=4))
        assert a != c

    def test_stream_is_valid_and_sorted(self):
        s = generate(noise_scene(seed=1))
        assert first_violations(s.t, s.x, s.y, s.geometry) == (None, None)
        assert (np.diff(s.t) >= 0).all()
        assert s.t.min() >= 0 and s.t.max() < 100_000

    def test_empty_scene(self):
        s = generate(SceneSpec(geometry=GEO, duration_us=1000))
        assert len(s) == 0
        assert s.is_labeled

    def test_counts_near_expectation(self):
        s = generate(noise_scene(rate=200.0, duration=100_000, seed=2))
        expected = 200.0 * GEO.n_pixels * 0.1  # 15360
        assert abs(len(s) - expected) < 6 * np.sqrt(expected)

    def test_labels_and_edge_ids(self):
        spec = edge_scene(seed=5)
        spec = SceneSpec(geometry=spec.geometry, duration_us=spec.duration_us,
                         edges=spec.edges, noise_rate_px_s=50.0, seed=5)
        s = generate(spec)
        edge = s.labels == int(EventLabel.EDGE)
        assert edge.any() and (~edge).any()
        assert (s.edge_ids[edge] == 0).all()
        assert (s.edge_ids[~edge] == -1).all()
        i = int(np.nonzero(edge)[0][0])
        assert (s.labels[i], s.edge_ids[i]) == (EventLabel.EDGE, 0)

    def test_noise_only_stream_unlabeled_view_raises(self, tmp_path):
        """A stream built without labels has no label column, and a labeled
        file of it is refused."""
        import evdown
        plain = evdown.EventStream(GEO, [1], [0], [0], [1])
        assert plain.labels is None and plain.edge_ids is None
        with pytest.raises(ValueError, match="unlabeled stream"):
            with open(tmp_path / "s.csv", "wb") as fh:
                evdown.evio.EventWriter(fh, "csv", GEO, labeled=True).write(
                    plain)

    def test_edge_events_confined_to_moving_segment(self):
        """With zero noise every event sits exactly on the translated
        rasterization of its edge at its own timestamp."""
        spec = edge_scene(seed=7, velocity=40.0)
        s = generate(spec)
        assert len(s) > 1000
        assert (s.labels == int(EventLabel.EDGE)).all()
        edge = spec.edges[0]
        base = {tuple(p) for p in rasterize_segment(8, 4, 8, 19).tolist()}
        sx, sy = edge_shift(edge, s.t)
        homed = set(zip((s.x - sx).tolist(), (s.y - sy).tolist()))
        assert homed <= base

    def test_motion_moves_the_footprint(self):
        spec = edge_scene(seed=8, velocity=40.0)
        s = generate(spec)
        early = s.x[s.t < 20_000]
        late = s.x[s.t > 180_000]
        # right-hand normal of an upward vertical segment points +x
        assert late.min() > early.max()

    def test_zero_velocity_static_edge(self):
        spec = edge_scene(seed=9, velocity=0.0)
        s = generate(spec)
        assert set(s.x.tolist()) == {8}
        assert set(s.y.tolist()) <= set(range(4, 20))

    def test_polarity_alternates_per_source(self):
        s = generate(edge_scene(seed=10))
        pol = s.p[s.edge_ids == 0]
        assert (pol[::2] == 1).all()
        assert (pol[1::2] == 0).all()

    def test_polarity_random_mixes(self):
        s = generate(edge_scene(seed=11, polarity="random"))
        frac = s.p.mean()
        assert 0.4 < frac < 0.6

    def test_per_pixel_rate_honored(self):
        # static edge: each of the 16 pixels should see ~rate*duration events
        spec = edge_scene(seed=12, velocity=0.0, rate=2000.0)
        s = generate(spec)
        per_pixel = np.bincount(s.y, minlength=24)[4:20]
        expected = 2000.0 * 0.2  # 400 per pixel
        assert abs(per_pixel.mean() - expected) < 5 * np.sqrt(expected / 16)


class TestReferenceScene:
    def test_shape_and_rates(self):
        spec = reference_scene()
        assert spec.geometry == SensorGeometry(64, 48)
        assert spec.duration_us == 600_000
        assert len(spec.edges) == 1
        assert spec.edges[0].rate_per_px_s == 50 * spec.noise_rate_px_s

    def test_edge_stays_on_sensor(self):
        spec = reference_scene(seed=42)
        s = generate(spec)
        edge = s.labels == int(EventLabel.EDGE)
        assert first_violations(s.t, s.x, s.y, s.geometry) == (None, None)
        # motion covers a wide swath but never clips the border
        assert s.x[edge].min() >= 12
        assert s.x[edge].max() <= 42

    def test_event_budget(self):
        s = generate(reference_scene(seed=42))
        assert 60_000 < len(s) < 80_000
