"""Core event-stream data model.

An event is a single brightness change reported by an event camera: pixel
coordinates, a microsecond timestamp, and a polarity bit.  Streams are stored
as immutable parallel numpy arrays sorted by timestamp (ties keep their
original order).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_MAX_PIXELS = int(np.iinfo(np.int64).max)


class Polarity(IntEnum):
    """Sign of the brightness change. OFF = 0, ON = 1."""

    OFF = 0
    ON = 1


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
        if int(self.width) * int(self.height) > _MAX_PIXELS:
            raise ValueError(
                f"sensor {self.width}x{self.height} has more pixels than the "
                f"signed 64-bit range holds")

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def contains(self, x, y):
        """Vectorized bounds test for pixel coordinates."""
        return (np.asarray(x) < self.width) & (np.asarray(y) < self.height)


@dataclass(frozen=True)
class Event:
    """A single event. Coordinates and timestamp are nonnegative integers."""

    t: int
    x: int
    y: int
    p: Polarity


class EventLabel(IntEnum):
    """Ground-truth origin of a synthetic event."""

    NOISE = 0
    EDGE = 1


class EventStream:
    """Immutable struct-of-arrays container for a time-sorted event stream.

    Parameters
    ----------
    geometry : SensorGeometry
        Sensor dimensions the coordinates are expected to fit.
    t, x, y, p : array-like of int
        Parallel columns. ``p`` holds 0 (OFF) or 1 (ON).
    labels : array-like of int, optional
        Ground-truth labels (EventLabel values) for synthetic streams.
    edge_ids : array-like of int, optional
        Index of the generating edge for EDGE events, -1 for NOISE.
    source_index : array-like of int, optional
        For a downsampled stream, the index of each event in the stream it
        was sampled from.

    The constructor enforces structural sanity (equal lengths, nonnegative
    values, polarity in {0, 1}).  Ordering and geometry bounds are checked by
    :func:`validate_stream`, which reports violations instead of raising.
    """

    __slots__ = ("geometry", "t", "x", "y", "p", "labels", "edge_ids", "source_index")

    def __init__(self, geometry, t, x, y, p, labels=None, edge_ids=None,
                 source_index=None):
        # Private copies so freezing them below cannot lock a caller's buffer.
        t = np.array(t, dtype=np.int64)
        x = np.array(x, dtype=np.int64)
        y = np.array(y, dtype=np.int64)
        p = np.array(p, dtype=np.uint8)
        n = t.shape[0]
        if not (x.shape == y.shape == p.shape == (n,)):
            raise ValueError("event columns must be 1-d arrays of equal length")
        if n and (t.min() < 0 or x.min() < 0 or y.min() < 0):
            raise ValueError("timestamps and coordinates must be nonnegative")
        if n and p.max() > 1:
            raise ValueError("polarity values must be 0 or 1")
        self.geometry = geometry
        self.t = t
        self.x = x
        self.y = y
        self.p = p
        self.labels = self._optional(labels, np.uint8, n, "labels")
        self.edge_ids = self._optional(edge_ids, np.int32, n, "edge_ids")
        self.source_index = self._optional(source_index, np.int64, n, "source_index")
        for arr in (self.t, self.x, self.y, self.p, self.labels, self.edge_ids,
                    self.source_index):
            if arr is not None:
                arr.flags.writeable = False

    @staticmethod
    def _optional(values, dtype, n, name):
        if values is None:
            return None
        arr = np.array(values, dtype=dtype)
        if arr.shape != (n,):
            raise ValueError(f"{name} must match the event count")
        return arr

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.t[i]), int(self.x[i]), int(self.y[i]),
                     Polarity(int(self.p[i])))

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

    @classmethod
    def from_events(cls, geometry, events):
        """Build a stream from an iterable of Event."""
        events = list(events)
        return cls(geometry,
                   [e.t for e in events],
                   [e.x for e in events],
                   [e.y for e in events],
                   [int(e.p) for e in events])

    def subset(self, indices) -> "EventStream":
        """Select events by index, recording the indices as source_index.

        Labels and edge ids are carried along when present.  If this stream
        is itself a subset, source_index composes through to the original.
        """
        indices = np.asarray(indices, dtype=np.int64)
        src = indices if self.source_index is None else self.source_index[indices]
        return EventStream(
            self.geometry,
            self.t[indices], self.x[indices], self.y[indices], self.p[indices],
            labels=None if self.labels is None else self.labels[indices],
            edge_ids=None if self.edge_ids is None else self.edge_ids[indices],
            source_index=src,
        )


@dataclass(frozen=True)
class Violation:
    """One validation finding: event index, kind ('ordering' or 'bounds'),
    and a human-readable message."""

    index: int
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __str__(self) -> str:
        if self.ok:
            return "stream valid"
        lines = [f"[{v.index}] {v.kind}: {v.message}" for v in self.violations]
        return "\n".join(lines)


def validate_stream(stream: EventStream, max_violations: int = 10) -> ValidationReport:
    """Check timestamp ordering and geometry bounds without raising.

    Returns a report listing the first ``max_violations`` offending events in
    index order.  Ordering flags any event whose timestamp is smaller than
    its predecessor's; bounds flags any event whose coordinates fall outside
    the stream geometry.
    """
    found = []
    t, x, y = stream.t, stream.x, stream.y
    geo = stream.geometry
    if len(stream) > 1:
        # Each kind is truncated before message formatting so a fully broken
        # stream does not cost a pass over every event.
        for i in np.nonzero(np.diff(t) < 0)[0][:max_violations]:
            i = int(i) + 1
            found.append(Violation(i, "ordering",
                                   f"t={t[i]} precedes t={t[i - 1]} at index {i - 1}"))
    oob = np.nonzero((x >= geo.width) | (y >= geo.height))[0][:max_violations]
    for i in oob:
        i = int(i)
        found.append(Violation(
            i, "bounds",
            f"pixel ({x[i]}, {y[i]}) outside {geo.width}x{geo.height} sensor"))
    found.sort(key=lambda v: v.index)
    found = found[:max_violations]
    return ValidationReport(ok=not found, violations=tuple(found))


def first_violations(t, x, y, geometry: SensorGeometry | None = None):
    """Return (ordering, bounds): the index of the first event whose
    timestamp is smaller than its predecessor's, and of the first event
    outside ``geometry``.  Either is None when no event offends; bounds is
    always None without a geometry."""
    def first(mask):
        i = int(np.argmax(mask)) if mask.size else 0
        return i if mask.size and mask[i] else None

    ordering = first(np.diff(t) < 0)
    if ordering is not None:
        ordering += 1
    bounds = None
    if geometry is not None:
        bounds = first((x >= geometry.width) | (y >= geometry.height))
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


def stream_duration(stream: EventStream) -> int:
    """Span in microseconds from first to last event; 0 for empty streams."""
    if len(stream) == 0:
        return 0
    return int(stream.t[-1] - stream.t[0])
