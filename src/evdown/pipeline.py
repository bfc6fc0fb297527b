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
window ``id - 1`` (poisson).  The budget cap of :mod:`evdown.capwalk`
runs across windows on the counts of the events before: a capped event is
dropped unevaluated and takes no variate, any other takes the next one.
With alpha = 1 every method keeps every event (stochastic methods then
use acceptance probability 1).

A push decides a piece in three calls of the kernels of
:mod:`evdown.capwalk`.  The window pass finds each event's window and the
piece's nonempty windows; every event's acceptance probability is
computed next (the window scorer's for ``poisson``); then one piece walk,
resumed where the last piece's stopped, applies the cap and the draws and
gives the kept positions, the capped count and each window's retained
count.  The walk takes the variates the last piece left unused first and
draws fresh ones only once those run out, and PCG64 block draws
concatenate exactly.  Where the C kernels cannot be built, their numpy
and Python twins give the same bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .capwalk import _Scorer, _walk_piece, _window_pass
from .events import EventStream, SensorGeometry
from .samplers import SamplerConfig, acceptance_window_us

METHODS = ("deterministic", "uniform", "poisson")
_ROW_BLOCK = 1 << 12  # per-window rows per block of run state

# Placeholders: perfbench's tracer patches these two names, and nothing
# calls them.  ROADMAP item 1 retargets the tracer and removes them.
score_map = poisson_occupancy = None


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
    that contained at least one event.  pdf_s is the time spent scoring,
    the pixel indices included, and eval_s the time of the decision walks,
    their fresh draws included.
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
    open window's scoring state (an :mod:`evdown.capwalk` window scorer)
    and one ``(window_id, processed, retained)`` row per window so far.

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
        # The draws the last push left unused; None for deterministic.
        self._tail = None if self._rng is None else np.empty(0)
        self._scorer = (_Scorer((geometry, config.alpha, config.theta,
                                 config.prior))
                        if method == "poisson" and config.alpha != 1.0
                        else None)
        self._draw = None if self._rng is None else self._rng.random
        # The per-window rows: full blocks of _ROW_BLOCK, then the block
        # being filled.
        self._full, self._rows, self._used = [], np.empty((0, 3), np.int64), 0
        self._pdf_s = self._eval_s = 0.0
        self._stats = None
        self._busy_s = time.perf_counter() - t_start

    def push(self, chunk: EventStream) -> tuple[EventStream, DecisionLog]:
        """Decide the events of the next piece of the stream.

        Returns the kept events, whose ``source_index`` counts from the
        first event pushed (or, when the piece carries a source_index of
        its own, composes through it as :meth:`EventStream.subset` does),
        and the piece's decision log.

        The piece is an EventStream, so its own events are in order and
        on its sensor; only how it joins the pieces before is checked here.
        Raises ValueError, before any state changes, for a piece of another
        geometry, a piece whose first event precedes the last one pushed
        (reporting its index in the whole stream) or a window id past
        2**63 - 1; and after :meth:`close`.
        """
        t_start = time.perf_counter()
        if self._stats is not None:
            raise ValueError("push after close")
        if chunk.geometry != self.geometry:
            raise ValueError(
                f"a {chunk.geometry.width}x{chunk.geometry.height} piece "
                f"pushed to a {self.geometry.width}x{self.geometry.height} "
                f"stream")
        m = len(chunk)
        t = chunk.t
        if m and self._last_t is not None and t[0] < self._last_t:
            raise ValueError(f"events out of order at index {self._seen}: "
                             f"t={int(t[0])} after t={self._last_t}")
        if m == 0:
            log = DecisionLog(t, np.empty(0, np.int64), np.empty(0, np.uint8),
                              np.empty(0, np.float64))
            return chunk.subset(np.empty(0, np.int64)), log
        cfg = self.config
        alpha = cfg.alpha
        t0 = int(t[0]) if self._t0 is None else self._t0
        # The piece is an EventStream, so its timestamps are sorted and
        # from the anchor on: the kernels get them unchecked.
        windows, ids, bounds = _window_pass(np.ascontiguousarray(t), t0,
                                            cfg.t_us)
        # Scoring never depends on decisions (a frozen map counts every event
        # of its window, accepted or not), so every event's probability is
        # known before the cap walk starts.
        if self.method == "deterministic":
            ta = acceptance_window_us(alpha, cfg.tw_us)
            # One array of the piece's length holds each event's phase in
            # the duty cycle, then the indicator, and once the walk has
            # read that, the log's NaN probabilities.
            p = np.empty(m)
            phase = p.view(np.int64)
            np.subtract(t, t0, out=phase)
            np.remainder(phase, cfg.tw_us, out=phase)
            p[...] = phase < ta
            probs = None
        elif self._scorer is None:
            p = probs = np.full(m, alpha)
        else:
            tp0 = time.perf_counter()
            p = probs = np.empty(m)
            self._scorer.score(chunk.y * self.geometry.width + chunk.x, ids,
                               bounds, p)
            self._pdf_s += time.perf_counter() - tp0

        te0 = time.perf_counter()
        codes, accepted, capped, window_kept, self._retained, self._tail = (
            _walk_piece(p, bounds, alpha if cfg.cap_enabled else math.inf,
                        self._seen, self._retained, self._tail, self._draw))
        self._capped += capped
        self._eval_s += time.perf_counter() - te0
        if probs is None:  # deterministic: nothing is drawn
            probs = p
            probs.fill(np.nan)

        self._count_windows(ids, bounds, window_kept)
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
                per_window=tuple(map(tuple, self._window_rows())),
                total_s=self._busy_s + time.perf_counter() - t_start,
                pdf_s=self._pdf_s,
                eval_s=self._eval_s)
            self._tail = self._scorer = self._rows = self._full = None
        return self._stats

    def _count_windows(self, ids, bounds, window_kept) -> None:
        """Add the piece's ``(window_id, processed, retained)`` rows to the
        run state, the open window's to its row from the last piece."""
        rows, used, nw = self._rows, self._used, ids.shape[0]
        first = int(used > 0 and rows[used - 1, 0] == ids[0])
        if first:
            rows[used - 1, 1] += bounds[1]  # bounds[0] is 0
            rows[used - 1, 2] += window_kept[0]
        # Full blocks are kept as they are, so the rows take 24 bytes per
        # window and at most one block more.
        while first < nw:
            if used == rows.shape[0]:
                if used:
                    self._full.append(rows)
                rows = self._rows = np.empty((_ROW_BLOCK, 3), np.int64)
                used = 0
            take = min(nw - first, _ROW_BLOCK - used)
            block, stop = rows[used:used + take], first + take
            block[:, 0] = ids[first:stop]
            np.subtract(bounds[first + 1:stop + 1], bounds[first:stop],
                        out=block[:, 1])
            block[:, 2] = window_kept[first:stop]
            first, used = stop, used + take
        self._used = used

    def _window_rows(self) -> list:
        """Every ``[window_id, processed, retained]`` row so far."""
        return [row for block in (*self._full, self._rows[:self._used])
                for row in block.tolist()]


def run(stream: EventStream, method: str,
        config: SamplerConfig) -> tuple[EventStream, RunStats, DecisionLog]:
    """Downsample a stream in one causal pass: one :meth:`Downsampler.push`
    of the whole stream, then :meth:`Downsampler.close`.

    Returns the accepted sub-stream (with source_index pointing back into
    the input), run statistics, and the full per-event decision log.

    Raises ValueError for an unknown method, a prior that does not match the
    method or geometry, or a window id past 2**63 - 1.
    """
    sampler = Downsampler(stream.geometry, method, config)
    out, log = sampler.push(stream)
    return out, sampler.close(), log
