"""Event model: containers and validation."""

import contextlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdown import EventStream, SensorGeometry, write_events
from evdown.events import first_violations
from evdown import evio
from evdown.evio import BinaryEvents

from conftest import make_stream

GEO = SensorGeometry(8, 6)


class TestPolarity:
    def test_values(self):
        """A polarity is 0 (OFF) or 1 (ON), kept as uint8."""
        s = make_stream(GEO, [(1, 0, 0, 0), (2, 0, 0, 1)])
        assert s.p.dtype == np.uint8 and s.p.tolist() == [0, 1]


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
        assert (s.t.tolist(), s.x.tolist(), s.y.tolist(), s.p.tolist()) == (
            [10, 20], [1, 3], [2, 4], [1, 0])
        assert not s.is_labeled
        with pytest.raises(TypeError, match="slices, not int"):
            s[0]
        assert s[1:] == make_stream(GEO, [(20, 3, 4, 0)])

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
        """A stream built from column arrays holds their values."""
        t, x, y, p = [5, 9], [1, 2], [1, 3], [1, 0]
        s = EventStream(GEO, np.array(t), np.array(x), np.array(y),
                        np.array(p))
        assert [s.t.tolist(), s.x.tolist(), s.y.tolist(),
                s.p.tolist()] == [t, x, y, p]

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


def refusal(t, x, y, geometry=GEO):
    """The message the constructor raises for these columns, or None."""
    t, x, y = (np.asarray(col, dtype=np.int64) for col in (t, x, y))
    i, j = first_violations(t, x, y, geometry)
    if i is not None:
        return f"events out of order at index {i}: t={t[i]} after t={t[i - 1]}"
    if j is not None:
        return (f"event {j} at ({x[j]}, {y[j]}) outside "
                f"{geometry.width}x{geometry.height} sensor")
    return None


class TestValidateStream:
    """The constructor checks order and bounds, and names the first
    offending index."""

    def test_valid_stream(self):
        s = make_stream(GEO, [(1, 0, 0, 1), (1, 7, 5, 0)])
        assert len(s) == 2
        assert first_violations(s.t, s.x, s.y, GEO) == (None, None)

    def test_ordering_violation_indexed(self):
        with pytest.raises(ValueError, match=(
                r"^events out of order at index 1: t=5 after t=10$")):
            make_stream(GEO, [(10, 0, 0, 1), (5, 0, 0, 1), (7, 0, 0, 1)])

    def test_bounds_violation_at_width(self):
        # x equal to the width is the first out-of-bounds column
        with pytest.raises(ValueError,
                           match=r"^event 0 at \(8, 0\) outside 8x6 sensor$"):
            EventStream(SensorGeometry(8, 6), [1], [8], [0], [1])

    def test_reports_capped_at_limit(self):
        """Of many offences, only the first is named."""
        with pytest.raises(ValueError,
                           match=r"^event 0 at \(20, 0\) outside 8x6 sensor$"):
            EventStream(GEO, list(range(30)), [20] * 30, [0] * 30, [1] * 30)

    def test_mixed_kinds_sorted_by_index(self):
        with pytest.raises(ValueError, match=(
                r"^events out of order at index 1: t=1 after t=5$")):
            EventStream(GEO, [5, 1, 2], [0, 0, 9], [0, 0, 0], [1, 1, 1])
        # Ordering is named before bounds, as the readers name them.
        with pytest.raises(ValueError, match=(
                r"^events out of order at index 2: t=2 after t=5$")):
            EventStream(GEO, [1, 5, 2], [9, 0, 0], [0, 0, 0], [1, 1, 1])

    def test_negative_step_slice_refused(self):
        s = make_stream(GEO, [(i, 0, 0, 1) for i in range(6)])
        for bad in (slice(None, None, -1), slice(4, 1, -2)):
            with pytest.raises(ValueError, match="would reverse the stream"):
                s[bad]
        assert np.array_equal(s[::2].t, [0, 2, 4])

    def test_subset_indices_must_not_decrease(self):
        s = make_stream(GEO, [(i, 0, 0, 1) for i in range(6)])
        with pytest.raises(ValueError, match="must not decrease"):
            s.subset([3, 1])
        assert np.array_equal(s.subset([1, 1, 4]).t, [1, 1, 4])


class TestValidByConstruction:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 9),
                              st.integers(0, 7)), max_size=12))
    def test_raises_iff_first_violations(self, records):
        """The constructor and the readers' adopting path alike."""
        t, x, y = (list(col) for col in zip(*records)) if records else ([],) * 3
        want = refusal(t, x, y)
        for build in (EventStream, EventStream._adopt):
            if want is None:
                s = build(GEO, t, x, y, [1] * len(t))
                assert s.t.tolist() == t
            else:
                with pytest.raises(ValueError) as exc:
                    build(GEO, t, x, y, [1] * len(t))
                assert str(exc.value) == want

    def test_readers_adopt_columns_constructor_copies(self):
        """A reader's fresh columns become its stream's, read-only; the
        constructor copies a caller's columns and leaves them writable."""
        def columns():
            return (np.array([1, 2]), np.array([0, 7]), np.array([5, 0]),
                    np.array([0, 1], np.uint8), np.array([1, 0], np.uint8))

        given_cols = columns()
        copied = EventStream(GEO, *given_cols[:4], labels=given_cols[4])
        assert all(col.flags.writeable for col in given_cols)
        assert not any(np.shares_memory(getattr(copied, name), col)
                       for name, col in zip(("t", "x", "y", "p", "labels"),
                                            given_cols))
        fresh = columns()
        adopted = evio._finish_stream("a.csv", SensorGeometry(8, 6), *fresh)
        assert adopted == copied and adopted.geometry == SensorGeometry(8, 6)
        for name, col in zip(("t", "x", "y", "p", "labels"), fresh):
            assert getattr(adopted, name) is col
            assert not col.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30), st.data())
    def test_slices_subsets_and_blocks_never_raise(self, ts, data):
        ts.sort()
        n = len(ts)
        rng = np.random.default_rng(n)
        s = EventStream(GEO, ts, rng.integers(0, 8, n), rng.integers(0, 6, n),
                        rng.integers(0, 2, n))
        start, stop = (data.draw(st.integers(-n - 2, n + 2)) for _ in "ab")
        step = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        piece = s[start:stop:step]
        assert refusal(piece.t, piece.x, piece.y) is None
        assert np.array_equal(piece.t, s.t[start:stop:step])
        picks = sorted(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                          max_size=n)))
        sub = s.subset(picks)
        assert refusal(sub.t, sub.x, sub.y) is None
        size = data.draw(st.integers(1, 8))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.evb"
            write_events(s, path, fmt="binary")
            with contextlib.closing(BinaryEvents(path)) as source:
                blocks = list(source.blocks(size))
        assert [b.t.tolist() for b in blocks] == [
            ts[i:i + size] for i in range(0, n, size)]


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

    def test_agrees_with_constructor(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 50, 200)
        x, y = rng.integers(0, 10, 200), rng.integers(0, 8, 200)
        i, j = first_violations(t, x, y, GEO)
        with pytest.raises(ValueError,
                           match=f"^events out of order at index {i}: "):
            EventStream(GEO, t, x, y, np.zeros(200))
        t.sort()  # bounds are named once the order is repaired
        with pytest.raises(ValueError, match=f"^event {j} at "):
            EventStream(GEO, t, x, y, np.zeros(200))


def duration(stream) -> int:
    """The span from first to last event, read from the timestamps."""
    return int(stream.t[-1] - stream.t[0]) if len(stream) else 0


class TestStreamDuration:
    def test_empty(self):
        assert duration(make_stream(GEO, [])) == 0

    def test_single_event(self):
        assert duration(make_stream(GEO, [(42, 0, 0, 1)])) == 0

    def test_span(self):
        s = make_stream(GEO, [(100, 0, 0, 1), (250, 1, 1, 0), (900, 2, 2, 1)])
        assert duration(s) == 800

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=50))
    def test_equals_max_minus_min_for_sorted(self, ts):
        ts.sort()
        s = make_stream(GEO, [(t, 0, 0, 1) for t in ts])
        assert duration(s) == max(ts) - min(ts)
        assert first_violations(s.t, s.x, s.y, GEO) == (None, None)
