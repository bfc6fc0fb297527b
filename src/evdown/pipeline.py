"""Single-pass streaming downsampler.

:class:`Downsampler` takes a stream in pieces, in timestamp order, and
decides each piece as it comes; :func:`run` pushes a whole stream as one
piece.  Where the stream is cut never changes a decision.

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

Per event: the window id is ``(t - anchor) // t_us + 1``; the acceptance
probability is the duty-cycle indicator (deterministic), alpha (uniform,
and poisson in window 1) or the pixel's value in the map frozen from
window ``id - 1`` (poisson).  The budget cap of :mod:`evdown.samplers`
runs across windows on the counts of the events before: a capped event is
dropped unevaluated and takes no variate, any other takes the next one.
With alpha = 1 every method keeps every event (stochastic methods then
use acceptance probability 1).

Every event's acceptance probability in a piece is computed first; one
walk of :func:`evdown.capwalk.cap_walk`, resumed where the last piece's
stopped, then applies the cap and the draws.  A piece draws only the
variates the last one left unused do not cover, and PCG64 block draws
concatenate exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .capwalk import cap_walk
# Uncalled here: perfbench's tracer wraps poisson_occupancy and score_map.
from .density import (occupancy_values, poisson_occupancy, score_map,
                      sparse_scores)
from .events import (EventStream, SensorGeometry, first_violations,
                     window_ids, window_spans)
from .samplers import DecisionCode, SamplerConfig, acceptance_window_us

METHODS = ("deterministic", "uniform", "poisson")

_ACCEPT = int(DecisionCode.ACCEPT)
_REJ_SAMPLER = int(DecisionCode.REJECT_SAMPLER)
_REJ_CAP = int(DecisionCode.REJECT_CAP)
# The distinct pixels and counts of a window without events.
_IDLE = (np.empty(0, np.int64), np.empty(0, np.int64))


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


class _WindowScorer:
    """Density-adaptive probabilities of a stream scored piece by piece:
    alpha in window 1, else the sparse map frozen from the previous window.

    Each window's events in a piece are sorted once: their distinct pixels
    and counts add up to the window's, which freeze the next window's map
    when it opens, and the inverse spreads this piece's lookup, done over
    its distinct pixels only, to its events.  Between pieces it holds the
    open window's id, its frozen map and its distinct pixels and counts so
    far; ``seconds`` is the time spent scoring.
    """

    def __init__(self, geometry: SensorGeometry, config: SamplerConfig):
        self.geometry = geometry
        self.config = config
        self.window = 0
        self.frozen = None
        self.pixels, self.counts = _IDLE
        self.seconds = 0.0

    def score(self, flat: np.ndarray, ids: np.ndarray,
              bounds: np.ndarray) -> np.ndarray:
        """The probability of each event of a piece, given its flat pixel
        indices and window spans (:func:`evdown.events.window_spans`)."""
        tp0 = time.perf_counter()
        cfg = self.config
        p = np.empty(flat.size)
        for wid, i0, i1 in zip(ids.tolist(), bounds[:-1].tolist(),
                               bounds[1:].tolist()):
            pixels, inverse, counts = np.unique(
                flat[i0:i1], return_inverse=True, return_counts=True)
            if wid == self.window:
                self.pixels, self.counts = _add_counts(
                    self.pixels, self.counts, pixels, counts)
            else:
                # After an empty window no pixel is active and every pixel
                # shares one score; a stale map is never carried over.
                active, active_counts = (
                    (self.pixels, self.counts) if self.window == wid - 1
                    else _IDLE)
                self.frozen = None if wid == 1 else sparse_scores(
                    self.geometry, active, occupancy_values(active_counts),
                    cfg.alpha, cfg.theta, cfg.prior, window_id=wid - 1)
                self.window, self.pixels, self.counts = wid, pixels, counts
            p[i0:i1] = (cfg.alpha if self.frozen is None
                        else self.frozen.lookup(pixels)[inverse])
        self.seconds += time.perf_counter() - tp0
        return p


def _add_counts(pixels_a, counts_a, pixels_b, counts_b):
    """The union of two tallies, each of sorted distinct pixels and their
    counts, with the counts of shared pixels summed.

    Merged by position rather than re-sorted, so a window that spans
    many pieces costs a copy of its tally per piece, not a sort.
    """
    pos = np.searchsorted(pixels_a, pixels_b)
    shared = pos < pixels_a.size
    shared[shared] = pixels_a[pos[shared]] == pixels_b[shared]
    counts = counts_a.copy()
    counts[pos[shared]] += counts_b[shared]
    new = ~shared
    return (np.insert(pixels_a, pos[new], pixels_b[new]),
            np.insert(counts, pos[new], counts_b[new]))


class Downsampler:
    """Downsample a stream pushed in pieces, in one causal pass.

    :meth:`push` takes the next piece, an EventStream of ``geometry``
    whose events follow every event pushed before, and returns the events
    it keeps and its decision log; :meth:`close` returns the statistics of
    the whole run.  Decisions do not depend on where the stream is cut:
    the kept events, logs and counters of any pieces, put together, equal
    those of :func:`run` on the whole stream.

    Between pushes it holds the anchor and last timestamps, the counts of
    events seen, kept and capped, the variates drawn but not yet used, the
    open window's scoring state (see :class:`_WindowScorer`) and one
    ``(window_id, processed, retained)`` row per window so far.

    Raises ValueError for an unknown method or a prior that does not match
    the method or geometry.
    """

    def __init__(self, geometry: SensorGeometry, method: str,
                 config: SamplerConfig):
        t_start = time.perf_counter()
        if method not in METHODS:
            raise ValueError(
                f"unknown method {method!r}, expected one of {METHODS}")
        if config.prior is not None:
            if method != "poisson":
                raise ValueError("a spatial prior requires the poisson method")
            if config.prior.geometry != geometry:
                raise ValueError("prior geometry does not match stream geometry")
        self.geometry = geometry
        self.method = method
        self.config = config
        self._t0 = None
        self._last_t = None
        self._seen = self._retained = self._capped = 0
        self._rng = None if method == "deterministic" else config.rng()
        self._tail = np.empty(0)
        self._scorer = (_WindowScorer(geometry, config)
                        if method == "poisson" and config.alpha != 1.0
                        else None)
        self._per_window = []
        self._eval_s = 0.0
        self._stats = None
        self._busy_s = time.perf_counter() - t_start

    def push(self, chunk: EventStream) -> tuple[EventStream, DecisionLog]:
        """Decide the events of the next piece of the stream.

        Returns the kept events, whose ``source_index`` counts from the
        first event pushed (or, when the piece carries a source_index of
        its own, composes through it as :meth:`EventStream.subset` does),
        and the piece's decision log.

        Raises ValueError, before any state changes, for a piece of another
        geometry, an event out of order (with the previous piece too) or
        outside the sensor, reporting its index in the whole stream, or a
        window id past 2**63 - 1; and after :meth:`close`.
        """
        t_start = time.perf_counter()
        if self._stats is not None:
            raise ValueError("push after close")
        if chunk.geometry != self.geometry:
            raise ValueError(
                f"a {chunk.geometry.width}x{chunk.geometry.height} piece "
                f"pushed to a {self.geometry.width}x{self.geometry.height} "
                f"stream")
        self._require_valid(chunk)
        m = len(chunk)
        t = chunk.t
        if m == 0:
            log = DecisionLog(t, np.empty(0, np.int64), np.empty(0, np.uint8),
                              np.empty(0, np.float64))
            return chunk.subset(np.empty(0, np.int64)), log
        cfg = self.config
        alpha = cfg.alpha
        t0 = int(t[0]) if self._t0 is None else self._t0
        windows = window_ids(t, t0, cfg.t_us, top=int(t[-1]))
        ids, bounds = window_spans(windows)
        # Scoring never depends on decisions (a frozen map counts every event
        # of its window, accepted or not), so every event's probability is
        # known before the cap walk starts.
        draws = None
        if self.method == "deterministic":
            ta = acceptance_window_us(alpha, cfg.tw_us)
            p = (((t - t0) % cfg.tw_us) < ta).astype(np.float64)
            probs = np.full(m, np.nan)
        else:
            draws = self._draws(m)
            if self._scorer is None:
                p = np.full(m, alpha)
            else:
                p = self._scorer.score(chunk.y * self.geometry.width + chunk.x,
                                       ids, bounds)
            probs = p

        te0 = time.perf_counter()
        codes = np.empty(m, dtype=np.uint8)
        if cfg.cap_enabled:
            self._retained, used = cap_walk(p, draws, alpha, codes,
                                            self._seen, self._retained)
        else:
            codes[:] = np.where(p > 0.0 if draws is None else draws[:m] < p,
                                _ACCEPT, _REJ_SAMPLER)
            used = m
        if draws is not None:
            self._tail = draws[used:]
        self._eval_s += time.perf_counter() - te0

        accepted = np.flatnonzero(codes == _ACCEPT)
        if not cfg.cap_enabled:
            self._retained += accepted.size
        self._capped += int(np.count_nonzero(codes == _REJ_CAP))
        self._count_windows(ids, bounds, accepted)
        kept = chunk.subset(accepted, offset=self._seen)
        self._t0, self._last_t = t0, int(t[-1])
        self._seen += m
        self._busy_s += time.perf_counter() - t_start
        return kept, DecisionLog(t, windows, codes, probs)

    def close(self) -> RunStats:
        """The statistics of every event pushed; later pushes raise."""
        if self._stats is None:
            t_start = time.perf_counter()
            cfg = self.config
            self._stats = RunStats(
                method=self.method, alpha=cfg.alpha, seed=cfg.seed,
                processed=self._seen, retained=self._retained,
                capped=self._capped,
                sampler_rejected=self._seen - self._retained - self._capped,
                per_window=tuple(self._per_window),
                total_s=self._busy_s + time.perf_counter() - t_start,
                pdf_s=0.0 if self._scorer is None else self._scorer.seconds,
                eval_s=self._eval_s)
            self._tail = self._scorer = self._per_window = None
        return self._stats

    def _require_valid(self, chunk: EventStream) -> None:
        t, x, y, geo = chunk.t, chunk.x, chunk.y, self.geometry
        i, j = first_violations(t, x, y, geo, self._last_t)
        if i is not None:
            before = self._last_t if i == 0 else int(t[i - 1])
            raise ValueError(f"events out of order at index {self._seen + i}: "
                             f"t={int(t[i])} after t={before}")
        if j is not None:
            raise ValueError(f"event {self._seen + j} at ({int(x[j])}, "
                             f"{int(y[j])}) outside {geo.width}x{geo.height} "
                             f"sensor")

    def _draws(self, m: int) -> np.ndarray:
        """At least m variates: those the last push left unused, then as
        many fresh ones as they lack."""
        need = m - self._tail.size
        if need <= 0:
            return self._tail
        fresh = self._rng.random(need)
        return np.concatenate((self._tail, fresh)) if self._tail.size else fresh

    def _count_windows(self, ids, bounds, accepted) -> None:
        rows = list(zip(ids.tolist(), np.diff(bounds).tolist(),
                        np.diff(np.searchsorted(accepted, bounds)).tolist()))
        if self._per_window and self._per_window[-1][0] == rows[0][0]:
            # The open window goes on from the last piece.
            wid, n, r = self._per_window.pop()
            rows[0] = (wid, n + rows[0][1], r + rows[0][2])
        self._per_window += rows


def run(stream: EventStream, method: str,
        config: SamplerConfig) -> tuple[EventStream, RunStats, DecisionLog]:
    """Downsample a stream in one causal pass: one :meth:`Downsampler.push`
    of the whole stream, then :meth:`Downsampler.close`.

    Returns the accepted sub-stream (with source_index pointing back into
    the input), run statistics, and the full per-event decision log.

    Raises ValueError for an unknown method, an out-of-order or out-of-bounds
    stream (reporting the first offending index), a prior that does not
    match the method or geometry, or a window id past 2**63 - 1.
    """
    sampler = Downsampler(stream.geometry, method, config)
    out, log = sampler.push(stream)
    return out, sampler.close(), log
