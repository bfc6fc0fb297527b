"""Core event-stream data model.

An event is a single brightness change reported by an event camera: pixel
coordinates, a microsecond timestamp, and a polarity bit (0 OFF, 1 ON).
Streams are stored as immutable parallel numpy arrays sorted by timestamp
(ties keep their original order); no Python object is made per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the sensor array.

    The pixel count must fit in int64, so that the flat pixel index
    ``y * width + x`` never wraps.
    """

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"sensor dimensions must be >= 1, got {self.width}x{self.height}"
            )
        if int(self.width) * int(self.height) > _INT64_MAX:
            raise ValueError(
                f"sensor {self.width}x{self.height} has more pixels than the "
                f"signed 64-bit range holds")

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def contains(self, x, y):
        """Vectorized bounds test for nonnegative pixel coordinates."""
        return (np.asarray(x) < self.width) & (np.asarray(y) < self.height)


class EventLabel(IntEnum):
    """Ground-truth origin of a synthetic event."""

    NOISE = 0
    EDGE = 1


class EventStream:
    """Immutable struct-of-arrays container for a time-sorted event stream.

    Parameters
    ----------
    geometry : SensorGeometry
        Sensor dimensions every pixel lies on.
    t, x, y, p : array-like of int
        Parallel columns. ``p`` holds 0 (OFF) or 1 (ON).
    labels : array-like of int, optional
        Ground-truth labels (EventLabel values) for synthetic streams.
    edge_ids : array-like of int, optional
        Index of the generating edge for EDGE events, -1 for NOISE.
    source_index : array-like of int, optional
        For a downsampled stream, the index of each event in the stream it
        was sampled from.

    A stream is valid by construction.  The constructor raises ValueError
    for columns of unequal length, negative values or a polarity outside
    {0, 1}, and then, naming the first offending index (ordering before
    bounds, as :func:`first_violations` finds them), for a timestamp below
    its predecessor's or a pixel outside ``geometry``.  Slices and subsets
    of a valid stream are valid, so they are not checked again; a slice
    with a negative step, or a subset whose indices go backwards, would
    reverse the order and raises ValueError instead.
    """

    __slots__ = ("geometry", "t", "x", "y", "p", "labels", "edge_ids", "source_index")

    def __init__(self, geometry, t, x, y, p, labels=None, edge_ids=None,
                 source_index=None):
        self._build(np.array, geometry, t, x, y, p, labels, edge_ids,
                    source_index)

    @classmethod
    def _adopt(cls, geometry, t, x, y, p, labels=None) -> "EventStream":
        """The stream of the given columns, that takes columns already of
        its dtypes as its own instead of copying them: for readers whose
        columns are fresh, held nowhere else, nonnegative and with
        polarities 0 or 1, so that only their order and bounds are
        checked, as the constructor checks them."""
        stream = object.__new__(cls)
        stream._build(np.asarray, geometry, t, x, y, p, labels, None, None,
                      ranged=True)
        return stream

    def _build(self, own, geometry, t, x, y, p, labels, edge_ids,
               source_index, ranged=False) -> None:
        """Check the columns and set them, each made the stream's by
        ``own`` (np.array copies, np.asarray adopts); ``ranged`` columns
        are known to be nonnegative with polarities 0 or 1."""
        t = np.asarray(t, dtype=np.int64)
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        p = own(p, dtype=np.uint8)
        n = t.shape[0]
        if not (x.shape == y.shape == p.shape == (n,)):
            raise ValueError("event columns must be 1-d arrays of equal length")
        if n and not ranged and (t.min() < 0 or x.min() < 0 or y.min() < 0):
            raise ValueError("timestamps and coordinates must be nonnegative")
        if n and not ranged and p.max() > 1:
            raise ValueError("polarity values must be 0 or 1")
        # Checked before the copies below, so the check's temporaries and
        # the copies are never held at once.
        i, j = first_violations(t, x, y, geometry)
        if i is not None:
            raise ValueError(f"events out of order at index {i}: "
                             f"t={int(t[i])} after t={int(t[i - 1])}")
        if j is not None:
            raise ValueError(f"event {j} at ({int(x[j])}, {int(y[j])}) "
                             f"outside {geometry.width}x{geometry.height} "
                             f"sensor")
        # Private copies, unless adopted, so freezing them cannot lock a
        # caller's buffer.
        self._fill(geometry, own(t), own(x), own(y), p,
                   self._optional(own, labels, np.uint8, n, "labels"),
                   self._optional(own, edge_ids, np.int32, n, "edge_ids"),
                   self._optional(own, source_index, np.int64, n,
                                  "source_index"))

    def _fill(self, geometry, *columns) -> "EventStream":
        """Set the geometry and the columns, in slot order, read-only."""
        for col in columns:
            if col is not None:
                col.setflags(write=False)
        (self.t, self.x, self.y, self.p, self.labels, self.edge_ids,
         self.source_index) = columns
        self.geometry = geometry
        return self

    def _derive(self, key, source_index) -> "EventStream":
        """A stream of the same geometry whose columns are ``col[key]`` of
        this one's, unchecked: the caller keeps the events in stream
        order."""
        columns = [None if col is None else col[key]
                   for col in (self.t, self.x, self.y, self.p, self.labels,
                               self.edge_ids)]
        return object.__new__(EventStream)._fill(self.geometry, *columns,
                                                 source_index)

    @staticmethod
    def _optional(own, values, dtype, n, name):
        if values is None:
            return None
        arr = own(values, dtype=dtype)
        if arr.shape != (n,):
            raise ValueError(f"{name} must match the event count")
        return arr

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, i: slice) -> "EventStream":
        """The events of a slice as a stream, every column (labels, edge
        ids, source_index) carried; read single events from the columns.

        A slice shares this stream's read-only columns instead of copying
        them.  Raises TypeError for an index that is no slice, and
        ValueError for a negative step, which would reverse the stream.
        """
        if not isinstance(i, slice):
            raise TypeError(f"stream indices must be slices, not "
                            f"{type(i).__name__}")
        if i.step is not None and i.step < 0:
            raise ValueError(
                f"a slice with step {i.step} would reverse the stream")
        return self._derive(i, None if self.source_index is None
                            else self.source_index[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.geometry == other.geometry
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.p, other.p))

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def subset(self, indices, offset: int = 0) -> "EventStream":
        """Select events by index, recording the indices as source_index.

        Labels and edge ids are carried along when present.  If this stream
        is itself a subset, source_index composes through to the original;
        otherwise it records ``offset + indices``, the indices in a longer
        stream of which this one is a piece starting at ``offset``.

        Raises ValueError when an index is below the one before it: the
        events must stay in stream order.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size > 1 and (indices[1:] < indices[:-1]).any():
            raise ValueError("subset indices must not decrease")
        src = (indices + offset if self.source_index is None
               else self.source_index[indices])
        return self._derive(indices, src)


def first_violations(t, x, y, geometry: SensorGeometry | None = None):
    """Return (ordering, bounds): the index of the first event whose
    timestamp is smaller than its predecessor's, and of the first event
    outside ``geometry``.  Either is None when no event offends; bounds is
    always None without a geometry.  Its temporaries take one byte per
    event."""
    def first(mask):
        return int(np.argmax(mask)) if mask.any() else None

    ordering = first(t[1:] < t[:-1])
    if ordering is not None:
        ordering += 1
    bounds = None
    # Two maxima find whether any event is outside; the mask, which
    # finds the first, is made only then.
    if geometry is not None and x.size and (x.max() >= geometry.width
                                            or y.max() >= geometry.height):
        bounds = first(~geometry.contains(x, y))
    return ordering, bounds


def window_spans(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty windows of a sorted, nonempty array of window ids.

    Returns ``(ids, bounds)``: window ``ids[k]`` holds the events
    ``bounds[k]:bounds[k + 1]``.  Found between the windows' first events,
    so the cost follows the events, not the time they span: a stream can
    span 2**63 us, nearly all of it empty windows.
    """
    first = np.append(0, np.flatnonzero(windows[1:] != windows[:-1]) + 1)
    return windows[first], np.append(first, windows.size)


def window_ids(t: np.ndarray, t0: int, t_us: int) -> np.ndarray:
    """The tumbling window ``(t - t0) // t_us + 1`` of each timestamp, for
    windows of ``t_us`` microseconds anchored at ``t0`` (window 1).

    Raises ValueError naming the limit when an id would pass 2**63 - 1,
    the largest int64, which only a 1 us window over a span of 2**63 - 1
    us reaches.
    """
    if t.size:
        _check_window_limit(int(t.max()), t0, t_us)
    return (t - t0) // t_us + 1


def _check_window_limit(top: int, t0: int, t_us: int) -> None:
    """Raise window_ids' ValueError when the window of ``top`` would pass
    2**63 - 1."""
    if (top - t0) // t_us >= _INT64_MAX:
        raise ValueError(
            f"window of t={top} would pass the window id limit 2**63 - 1 "
            f"(windows of {t_us} us from t={t0})")
