"""Event model: containers, validation, duration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdown import (Event, EventStream, Polarity, SensorGeometry,
                    stream_duration, validate_stream)
from evdown.events import first_violations

from conftest import make_stream

GEO = SensorGeometry(8, 6)


class TestPolarity:
    def test_values(self):
        assert int(Polarity.OFF) == 0
        assert int(Polarity.ON) == 1


class TestSensorGeometry:
    def test_n_pixels(self):
        assert SensorGeometry(640, 480).n_pixels == 307200

    @pytest.mark.parametrize("w,h", [(0, 4), (4, 0), (-1, 3)])
    def test_rejects_degenerate(self, w, h):
        with pytest.raises(ValueError):
            SensorGeometry(w, h)

    @pytest.mark.parametrize("w,h", [(2**63 - 1, 1), (2**31, 2**32 - 1)])
    def test_pixel_count_up_to_int64_accepted(self, w, h):
        assert SensorGeometry(w, h).n_pixels <= 2**63 - 1

    @pytest.mark.parametrize("w,h", [(2**63, 1), (2**32, 2**31), (3, 2**62)])
    def test_pixel_count_beyond_int64_rejected(self, w, h):
        """y * width + x must not wrap in int64."""
        with pytest.raises(ValueError, match="64-bit"):
            SensorGeometry(w, h)

    def test_contains(self):
        assert bool(GEO.contains(7, 5))
        assert not bool(GEO.contains(8, 0))
        assert not bool(GEO.contains(0, 6))


class TestEventStream:
    def test_basic_accessors(self):
        s = make_stream(GEO, [(10, 1, 2, 1), (20, 3, 4, 0)])
        assert len(s) == 2
        assert s[0] == Event(10, 1, 2, Polarity.ON)
        assert s[1].p == Polarity.OFF
        assert not s.is_labeled

    def test_columns_are_immutable(self):
        s = make_stream(GEO, [(10, 1, 2, 1)])
        with pytest.raises(ValueError):
            s.t[0] = 5

    def test_does_not_lock_caller_arrays(self):
        t = np.array([1, 2, 3])
        EventStream(GEO, t, [0, 0, 0], [0, 0, 0], [1, 1, 1])
        t[0] = 99  # caller's buffer stays writable

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EventStream(GEO, [1, 2], [0], [0], [1])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            EventStream(GEO, [-1], [0], [0], [1])
        with pytest.raises(ValueError):
            EventStream(GEO, [1], [-2], [0], [1])

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError):
            EventStream(GEO, [1], [0], [0], [2])

    def test_equality(self):
        a = make_stream(GEO, [(1, 2, 3, 0)])
        b = make_stream(GEO, [(1, 2, 3, 0)])
        c = make_stream(GEO, [(1, 2, 3, 1)])
        assert a == b
        assert a != c
        assert a != make_stream(SensorGeometry(9, 6), [(1, 2, 3, 0)])

    def test_from_events(self):
        evs = [Event(5, 1, 1, Polarity.ON), Event(9, 2, 3, Polarity.OFF)]
        s = EventStream.from_events(GEO, evs)
        assert [s[i] for i in range(2)] == evs

    def test_subset_records_source_index(self):
        s = make_stream(GEO, [(1, 0, 0, 1), (2, 1, 1, 0), (3, 2, 2, 1)],
                        labels=[1, 0, 1], edge_ids=[0, -1, 0])
        sub = s.subset([0, 2])
        assert np.array_equal(sub.source_index, [0, 2])
        assert np.array_equal(sub.t, [1, 3])
        assert np.array_equal(sub.labels, [1, 1])
        assert np.array_equal(sub.edge_ids, [0, 0])

    def test_subset_composes_through(self):
        s = make_stream(GEO, [(i, 0, 0, 1) for i in range(10)])
        sub = s.subset([1, 3, 5, 7]).subset([0, 3])
        assert np.array_equal(sub.source_index, [1, 7])

    def test_optional_column_length_checked(self):
        with pytest.raises(ValueError):
            make_stream(GEO, [(1, 0, 0, 1)], labels=[1, 0])


class TestValidateStream:
    def test_valid_stream(self):
        report = validate_stream(make_stream(GEO, [(1, 0, 0, 1), (1, 7, 5, 0)]))
        assert report.ok
        assert report.violations == ()
        assert str(report) == "stream valid"

    def test_ordering_violation_indexed(self):
        s = make_stream(GEO, [(10, 0, 0, 1), (5, 0, 0, 1), (7, 0, 0, 1)])
        report = validate_stream(s)
        assert not report.ok
        assert report.violations[0].kind == "ordering"
        assert report.violations[0].index == 1

    def test_bounds_violation_at_width(self):
        # x equal to the width is the first out-of-bounds column
        s = EventStream(SensorGeometry(8, 6), [1], [8], [0], [1])
        report = validate_stream(s)
        assert not report.ok
        assert report.violations[0].kind == "bounds"
        assert "(8, 0)" in report.violations[0].message

    def test_reports_capped_at_limit(self):
        s = EventStream(GEO, list(range(30)), [20] * 30, [0] * 30, [1] * 30)
        report = validate_stream(s)
        assert len(report.violations) == 10
        report = validate_stream(s, max_violations=3)
        assert len(report.violations) == 3

    def test_mixed_kinds_sorted_by_index(self):
        s = EventStream(GEO, [5, 1, 2], [0, 0, 9], [0, 0, 0], [1, 1, 1])
        report = validate_stream(s)
        assert [v.index for v in report.violations] == [1, 2]
        assert [v.kind for v in report.violations] == ["ordering", "bounds"]


class TestFirstViolations:
    def arrays(self, records):
        return [np.array(col, dtype=np.int64) for col in zip(*records)]

    def test_valid(self):
        t, x, y = self.arrays([(1, 0, 0), (1, 7, 5), (4, 3, 3)])
        assert first_violations(t, x, y, GEO) == (None, None)

    def test_first_of_each_kind(self):
        t, x, y = self.arrays([(5, 0, 0), (6, 8, 0), (2, 0, 0), (1, 0, 6)])
        assert first_violations(t, x, y, GEO) == (2, 1)

    def test_no_geometry_no_bounds(self):
        t, x, y = self.arrays([(5, 99, 99), (4, 0, 0)])
        assert first_violations(t, x, y) == (1, None)

    @pytest.mark.parametrize("records", [[], [(3, 0, 0)]])
    def test_short_streams(self, records):
        t, x, y = (self.arrays(records) if records
                   else [np.empty(0, np.int64)] * 3)
        assert first_violations(t, x, y, GEO) == (None, None)

    def test_agrees_with_validate_stream(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 50, 200)
        x, y = rng.integers(0, 10, 200), rng.integers(0, 8, 200)
        s = EventStream(GEO, t, x, y, np.zeros(200))
        kinds = {}
        for v in validate_stream(s, max_violations=400).violations:
            kinds.setdefault(v.kind, v.index)
        assert first_violations(t, x, y, GEO) == (kinds.get("ordering"),
                                                   kinds.get("bounds"))


class TestStreamDuration:
    def test_empty(self):
        assert stream_duration(make_stream(GEO, [])) == 0

    def test_single_event(self):
        assert stream_duration(make_stream(GEO, [(42, 0, 0, 1)])) == 0

    def test_span(self):
        s = make_stream(GEO, [(100, 0, 0, 1), (250, 1, 1, 0), (900, 2, 2, 1)])
        assert stream_duration(s) == 800

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=50))
    def test_equals_max_minus_min_for_sorted(self, ts):
        ts.sort()
        s = make_stream(GEO, [(t, 0, 0, 1) for t in ts])
        assert stream_duration(s) == max(ts) - min(ts)
        assert validate_stream(s).ok
