"""Synthetic labeled scenes: moving edge contours over background noise.

Edges are line segments that translate rigidly along their normal at a
constant speed.  Edge and noise processes are homogeneous Poisson in time
(exponential inter-arrival draws), so realized counts fluctuate around
rate * duration.  Every generated event carries a ground-truth label and,
for edge events, the index of the generating edge, which makes
signal-versus-noise bookkeeping downstream exact rather than heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .events import EventLabel, EventStream, SensorGeometry

# Refuse scenes whose expected event count would exhaust memory.
_MAX_EXPECTED_EVENTS = 5e7
# Refuse edges longer than the binary format's widest side, in pixels,
# before rasterizing them, and endpoints this far from the origin, so that
# every edge pixel and its shifts fit in int64.
_MAX_EDGE_PX = 1 << 16
_MAX_COORD = 2**31
# Edge displacements are clipped to this many pixels, so shifted pixels
# (within 2**31 + 2**62 of 0) fit in int64.
_MAX_SHIFT = 2.0**62


@dataclass(frozen=True)
class EdgeSpec:
    """One moving edge.

    x0, y0, x1, y1 : segment endpoints in pixel coordinates (floats allowed;
        rasterization uses the rounded endpoints).
    velocity_px_s : signed speed along the segment's right-hand normal
        (dy, -dx) / length, in pixels per second.
    rate_per_px_s : expected events per rasterized edge pixel per second.

    Every field must be finite, and every endpoint coordinate within 2**31
    of 0.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    velocity_px_s: float
    rate_per_px_s: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not -math.inf < value < math.inf:
                raise ValueError(f"edge {f.name} must be finite, got {value}")
            if f.name in ("x0", "y0", "x1", "y1") and abs(value) > _MAX_COORD:
                raise ValueError(
                    f"edge {f.name} must lie within 2**31 of 0, got {value}")
        if self.rate_per_px_s < 0:
            raise ValueError("edge rate must be nonnegative")
        if self.x0 == self.x1 and self.y0 == self.y1:
            raise ValueError("edge endpoints must be distinct")

    @property
    def normal(self) -> tuple[float, float]:
        dx = self.x1 - self.x0
        dy = self.y1 - self.y0
        length = math.hypot(dx, dy)
        return dy / length, -dx / length


@dataclass(frozen=True)
class SceneSpec:
    """Full description of a synthetic scene.

    polarity is either "alternating" (each source emits ON, OFF, ON, ... in
    time order) or "random" (fair coin per event).  duration_us lies in
    [1, 2**63 - 1], as timestamps do; seed is a nonnegative integer.
    """

    geometry: SensorGeometry
    duration_us: int
    edges: tuple[EdgeSpec, ...] = ()
    noise_rate_px_s: float = 0.0
    polarity: str = "alternating"
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.duration_us <= 2**63 - 1:
            raise ValueError(
                f"duration_us must be in [1, 2**63 - 1], got {self.duration_us}")
        if not 0 <= self.noise_rate_px_s < math.inf:
            raise ValueError("noise rate must be finite and nonnegative, "
                             f"got {self.noise_rate_px_s}")
        if self.polarity not in ("alternating", "random"):
            raise ValueError(f"unknown polarity mode {self.polarity!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "edges", tuple(self.edges))


def rasterize_segment(x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Integer midpoint (Bresenham) walk from (x0, y0) to (x1, y1).

    Returns an (n, 2) array of (x, y) pixels including both endpoints.
    """
    pixels = []
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    x, y = x0, y0
    while True:
        pixels.append((x, y))
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy
    return np.array(pixels, dtype=np.int64)


def edge_shift(edge: EdgeSpec, t_us) -> tuple[np.ndarray, np.ndarray]:
    """Whole-pixel displacement of an edge at the given timestamps.

    The continuous displacement velocity * t along the edge normal is
    rounded per component, so the edge moves in integer steps and its pixel
    footprint is always an exact translate of the base rasterization.  The
    displacement is clipped to 2**62 px either way, far past any sensor,
    so every shift fits in int64.
    """
    nx, ny = edge.normal
    with np.errstate(over="ignore"):  # an infinite product is clipped too
        d = edge.velocity_px_s * np.asarray(t_us, dtype=np.float64) / 1e6
    d = np.clip(d, -_MAX_SHIFT, _MAX_SHIFT)
    return (np.rint(nx * d).astype(np.int64),
            np.rint(ny * d).astype(np.int64))


def _poisson_times(rng: np.random.Generator, rate_per_us: float,
                   duration_us: int) -> np.ndarray:
    """Sorted integer arrival times of a Poisson process on [0, duration)."""
    if rate_per_us <= 0:
        return np.empty(0, dtype=np.int64)
    scale = 1.0 / rate_per_us
    expected = rate_per_us * duration_us
    chunk = int(expected + 6 * math.sqrt(expected + 1) + 16)
    arrivals = np.cumsum(rng.exponential(scale, chunk))
    while arrivals.size == 0 or arrivals[-1] < duration_us:
        more = rng.exponential(scale, chunk)
        arrivals = np.append(arrivals, arrivals[-1] + np.cumsum(more)
                             if arrivals.size else np.cumsum(more))
    arrivals = arrivals[arrivals < duration_us]
    return np.floor(arrivals).astype(np.int64)


def generate(spec: SceneSpec) -> EventStream:
    """Generate the labeled event stream for a scene.

    Deterministic for a fixed spec (single seeded generator, fixed draw
    order: each edge's times, pixel choices, then polarities; noise last).
    Edge events are placed uniformly over the rasterized segment pixels,
    shifted per :func:`edge_shift`; events pushed outside the sensor by the
    motion are discarded.  Raises ValueError, before drawing anything, for
    an edge whose rasterization would pass 65,536 pixels (the binary
    format's widest side) and when the expected event count is large
    enough to exhaust memory.
    """
    geo = spec.geometry
    rng = np.random.default_rng(spec.seed)

    expected = spec.noise_rate_px_s * geo.n_pixels * spec.duration_us / 1e6
    base_pixels = []
    for eid, edge in enumerate(spec.edges):
        ends = [round(v) for v in (edge.x0, edge.y0, edge.x1, edge.y1)]
        span = max(abs(ends[2] - ends[0]), abs(ends[3] - ends[1])) + 1
        if span > _MAX_EDGE_PX:
            raise ValueError(f"edge {eid} spans more than the "
                             f"{_MAX_EDGE_PX} px limit")
        base = rasterize_segment(*ends)
        base_pixels.append(base)
        expected += edge.rate_per_px_s * base.shape[0] * spec.duration_us / 1e6
    if expected > _MAX_EXPECTED_EVENTS:
        raise ValueError(
            f"scene would generate ~{expected:.2e} events, "
            f"above the {_MAX_EXPECTED_EVENTS:.0e} guard")

    parts = []  # (t, x, y, p, label, edge_id) column tuples
    for eid, (edge, base) in enumerate(zip(spec.edges, base_pixels)):
        rate_us = edge.rate_per_px_s * base.shape[0] / 1e6
        times = _poisson_times(rng, rate_us, spec.duration_us)
        choice = rng.integers(0, base.shape[0], size=times.size)
        sx, sy = edge_shift(edge, times)
        xs = base[choice, 0] + sx
        ys = base[choice, 1] + sy
        keep = (xs >= 0) & (xs < geo.width) & (ys >= 0) & (ys < geo.height)
        times, xs, ys = times[keep], xs[keep], ys[keep]
        if spec.polarity == "alternating":
            pol = (np.arange(times.size) + 1) % 2
        else:
            pol = rng.integers(0, 2, size=times.size)
        parts.append((times, xs, ys, pol,
                      np.full(times.size, int(EventLabel.EDGE)),
                      np.full(times.size, eid)))

    rate_us = spec.noise_rate_px_s * geo.n_pixels / 1e6
    times = _poisson_times(rng, rate_us, spec.duration_us)
    xs = rng.integers(0, geo.width, size=times.size)
    ys = rng.integers(0, geo.height, size=times.size)
    if spec.polarity == "alternating":
        pol = (np.arange(times.size) + 1) % 2
    else:
        pol = rng.integers(0, 2, size=times.size)
    parts.append((times, xs, ys, pol,
                  np.full(times.size, int(EventLabel.NOISE)),
                  np.full(times.size, -1)))

    t = np.concatenate([p[0] for p in parts])
    order = np.argsort(t, kind="stable")
    return EventStream(
        geo,
        t[order],
        np.concatenate([p[1] for p in parts])[order],
        np.concatenate([p[2] for p in parts])[order],
        np.concatenate([p[3] for p in parts])[order],
        labels=np.concatenate([p[4] for p in parts])[order],
        edge_ids=np.concatenate([p[5] for p in parts])[order],
    )


def reference_scene(seed: int = 42) -> SceneSpec:
    """Standard benchmark scene: one slow vertical contour in sparse noise.

    64x48 sensor, 0.6 s duration.  The edge fires 50x harder per pixel than
    the background and drifts 30 px across the sensor over the run, staying
    in bounds throughout.
    """
    noise = 25.0
    return SceneSpec(
        geometry=SensorGeometry(64, 48),
        duration_us=600_000,
        edges=(EdgeSpec(x0=12, y0=8, x1=12, y1=39,
                        velocity_px_s=50.0, rate_per_px_s=50 * noise),),
        noise_rate_px_s=noise,
        seed=seed,
    )
