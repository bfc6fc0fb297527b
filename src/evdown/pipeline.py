"""Single-pass streaming downsampler.

Events are consumed in timestamp order.  The stream is segmented into
tumbling analysis windows of ``t_us`` microseconds anchored at the first
event; window ``n`` spans [anchor + (n-1)*t_us, anchor + n*t_us).  For the
density-adaptive method, events in window ``n`` are scored with a map frozen
at the close of window ``n - 1``, so every acceptance decision depends only
on the past.  Window 1 has no predecessor and falls back to uniform
sampling at alpha.  A window that closes empty yields the degenerate
constant map (all pixels score sigmoid(alpha)); a stale map is never
carried across a gap.

Scoring is sparse: each frozen map is built from the pixels active in the
previous window only, and every inactive pixel shares one score, so its
cost follows the active pixels, not the sensor size.  No per-pixel array
of the whole sensor is allocated.

The budget cap runs across windows: an event is dropped before evaluation
when the stream-wide kept/processed ratio already exceeds alpha, and such
drops consume no randomness.  With alpha = 1 every method passes all events
through (stochastic methods then use acceptance probability 1).

Every event's acceptance probability is computed first; one walk of
:func:`evdown.capwalk.cap_walk` then applies the cap and the draws.  It
consumes the random stream exactly as the per-event kernels in
:mod:`evdown.samplers` would: the k-th stochastically evaluated event sees
the k-th variate of the generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .capwalk import cap_walk
from .density import (DensityMap, ScoreMap, occupancy_values,
                      poisson_occupancy, score_map, sparse_scores)
from .events import (EventStream, SensorGeometry, first_violations,
                     window_spans)
from .samplers import DecisionCode, SamplerConfig, acceptance_window_us

METHODS = ("deterministic", "uniform", "poisson")

_ACCEPT = int(DecisionCode.ACCEPT)
_REJ_SAMPLER = int(DecisionCode.REJECT_SAMPLER)
_REJ_CAP = int(DecisionCode.REJECT_CAP)


@dataclass
class WindowState:
    """Mutable state of the currently open analysis window.

    ``scores`` is the frozen map used to score events of this window (None
    only for window 1, which falls back to uniform sampling).  ``counts``
    accumulates the density of this window for the next freeze.
    """

    geometry: SensorGeometry
    t_anchor: int
    t_us: int
    index: int = 1
    scores: ScoreMap | None = None
    counts: np.ndarray = None

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.geometry.height, self.geometry.width))

    @property
    def left_edge(self) -> int:
        return self.t_anchor + (self.index - 1) * self.t_us

    @property
    def right_edge(self) -> int:
        return self.t_anchor + self.index * self.t_us

    def contains(self, t_us: int) -> bool:
        return self.left_edge <= t_us < self.right_edge

    def add(self, x: int, y: int) -> None:
        """Count one event into this window's density (accepted or not)."""
        self.counts[y, x] += 1.0


def rollover(state: WindowState, config: SamplerConfig) -> WindowState:
    """Close the current window and open the next one.

    The closing window's density is frozen into the score map that governs
    the new window.  Advances exactly one window; when an incoming timestamp
    skips several windows, call repeatedly.  An empty closing window
    produces the degenerate constant map, so gaps never leave a stale map
    active.
    """
    density = DensityMap(state.geometry, state.counts, state.index)
    frozen = score_map(poisson_occupancy(density), config.alpha, config.theta,
                       config.prior, window_id=state.index)
    return WindowState(state.geometry, state.t_anchor, state.t_us,
                       index=state.index + 1, scores=frozen)


@dataclass
class DecisionLog:
    """Per-event record of one run, in stream order.

    code is a DecisionCode value.  probability is the acceptance probability
    the sampler used (or would have used, for cap rejections); NaN for the
    deterministic method, which draws nothing.  ``t`` may share the input
    stream's read-only timestamp buffer.
    """

    t: np.ndarray
    window: np.ndarray
    code: np.ndarray
    probability: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass
class RunStats:
    """Counters and timing for one downsampling run.

    processed = retained + capped + sampler_rejected always holds.
    per_window lists (window_id, n_processed, n_retained) for every window
    that contained at least one event.
    """

    method: str
    alpha: float
    seed: int
    processed: int = 0
    retained: int = 0
    capped: int = 0
    sampler_rejected: int = 0
    per_window: tuple = ()
    total_s: float = 0.0
    pdf_s: float = 0.0
    eval_s: float = 0.0

    @property
    def ratio(self) -> float:
        return self.retained / self.processed if self.processed else 0.0

    @property
    def per_window_ratios(self) -> list[float]:
        return [r / p for (_, p, r) in self.per_window]

    def _per_kev(self, seconds: float) -> float:
        if self.processed == 0:
            return 0.0
        return seconds * 1e3 / (self.processed / 1e3)

    @property
    def ms_per_kev_total(self) -> float:
        return self._per_kev(self.total_s)

    @property
    def ms_per_kev_pdf(self) -> float:
        return self._per_kev(self.pdf_s)

    @property
    def ms_per_kev_eval(self) -> float:
        return self._per_kev(self.eval_s)


def timing_probe(stats: RunStats) -> dict[str, float]:
    """Per-phase cost of a finished run in milliseconds per thousand events."""
    return {
        "total_ms_per_kev": stats.ms_per_kev_total,
        "pdf_ms_per_kev": stats.ms_per_kev_pdf,
        "eval_ms_per_kev": stats.ms_per_kev_eval,
    }


def _require_valid(stream: EventStream) -> None:
    t, x, y, geo = stream.t, stream.x, stream.y, stream.geometry
    i, j = first_violations(t, x, y, geo)
    if i is not None:
        raise ValueError(f"events out of order at index {i}: "
                         f"t={int(t[i])} after t={int(t[i - 1])}")
    if j is not None:
        raise ValueError(f"event {j} at ({int(x[j])}, {int(y[j])}) outside "
                         f"{geo.width}x{geo.height} sensor")


def _scored_probabilities(stream: EventStream, ids: np.ndarray,
                          bounds: np.ndarray,
                          config: SamplerConfig) -> tuple[np.ndarray, float]:
    """Each event's density-adaptive probability, and the seconds spent
    scoring: alpha in window 1, else the sparse map frozen from the
    previous window.

    Each window's events are sorted once: the distinct pixels and their
    counts freeze the next window's map, and the inverse spreads this
    window's lookup, done over its distinct pixels only, to its events.
    """
    tp0 = time.perf_counter()
    geo = stream.geometry
    p = np.empty(len(stream))
    flat = stream.y * geo.width + stream.x
    # After an empty window no pixel is active and every pixel shares one
    # score; a stale map is never carried over.
    idle = (np.empty(0, np.int64), np.empty(0, np.int64))
    closed, prev_wid = idle, 0
    for wid, i0, i1 in zip(ids.tolist(), bounds[:-1].tolist(),
                           bounds[1:].tolist()):
        pixels, inverse, counts = np.unique(
            flat[i0:i1], return_inverse=True, return_counts=True)
        if wid == 1:
            p[i0:i1] = config.alpha
        else:
            active, active_counts = closed if prev_wid == wid - 1 else idle
            frozen = sparse_scores(geo, active, occupancy_values(active_counts),
                                   config.alpha, config.theta, config.prior,
                                   window_id=wid - 1)
            p[i0:i1] = frozen.lookup(pixels)[inverse]
        closed, prev_wid = (pixels, counts), wid
    return p, time.perf_counter() - tp0


def run(stream: EventStream, method: str,
        config: SamplerConfig) -> tuple[EventStream, RunStats, DecisionLog]:
    """Downsample a stream in one causal pass.

    Returns the accepted sub-stream (with source_index pointing back into
    the input), run statistics, and the full per-event decision log.

    Raises ValueError for an unknown method, an out-of-order or out-of-bounds
    stream (reporting the first offending index), or a prior that does not
    match the method or geometry.
    """
    t_run0 = time.perf_counter()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if config.prior is not None:
        if method != "poisson":
            raise ValueError("a spatial prior requires the poisson method")
        if config.prior.geometry != stream.geometry:
            raise ValueError("prior geometry does not match stream geometry")
    _require_valid(stream)

    n = len(stream)
    alpha = config.alpha
    if n == 0:
        stats = RunStats(method, alpha, config.seed)
        log = DecisionLog(np.empty(0, np.int64), np.empty(0, np.int64),
                          np.empty(0, np.uint8), np.empty(0, np.float64))
        return stream.subset(np.empty(0, np.int64)), stats, log

    t = stream.t
    t0 = int(t[0])
    windows = (t - t0) // config.t_us + 1
    ids, bounds = window_spans(windows)
    # Scoring never depends on decisions (a frozen map counts every event
    # of its window, accepted or not), so every event's probability is
    # known before the cap walk starts.
    pdf_s = 0.0
    draws = None
    if method == "deterministic":
        ta = acceptance_window_us(alpha, config.tw_us)
        p = (((t - t0) % config.tw_us) < ta).astype(np.float64)
        probs = np.full(n, np.nan)
    else:
        draws = config.rng().random(n)
        if method == "uniform" or alpha == 1.0:
            p = np.full(n, alpha)
        else:
            p, pdf_s = _scored_probabilities(stream, ids, bounds, config)
        probs = p

    te0 = time.perf_counter()
    codes = np.empty(n, dtype=np.uint8)
    if config.cap_enabled:
        cap_walk(p, draws, alpha, codes)
    else:
        codes[:] = np.where(p > 0.0 if draws is None else draws < p,
                            _ACCEPT, _REJ_SAMPLER)
    eval_s = time.perf_counter() - te0

    accepted_idx = np.nonzero(codes == _ACCEPT)[0]
    capped_n = int(np.count_nonzero(codes == _REJ_CAP))
    per_window = tuple(zip(
        ids.tolist(), np.diff(bounds).tolist(),
        np.diff(np.searchsorted(accepted_idx, bounds)).tolist()))

    out = stream.subset(accepted_idx)
    log = DecisionLog(t, windows, codes, probs)
    stats = RunStats(
        method=method, alpha=alpha, seed=config.seed,
        processed=n, retained=accepted_idx.size, capped=capped_n,
        sampler_rejected=n - accepted_idx.size - capped_n,
        per_window=per_window,
        total_s=time.perf_counter() - t_run0, pdf_s=pdf_s, eval_s=eval_s)
    return out, stats, log
