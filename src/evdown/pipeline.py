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

A push decides a piece in one call of the compiled push of
:mod:`evdown.capwalk` per span of at most 16,384 events, so a piece of a
camera packet's size is one call.  The call finds each event's window,
computes every event's acceptance probability (the window scorer's for
``poisson``), then walks the cap and the draws, resumed where the last
span's walk stopped, and writes the decision log's columns and the kept
positions; the kept events' columns are then gathered from the piece.
Before each span the sampler tops its draw buffer up to a draw per event:
the variates the last span left unused first, then fresh ones, and PCG64
block draws concatenate exactly.  Where the C kernels cannot be built,
their numpy and Python twins give the same bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .capwalk import _Decider
from .events import EventStream, SensorGeometry
from .samplers import SamplerConfig

METHODS = ("deterministic", "uniform", "poisson")

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
    that contained at least one event.  total_s is the time spent in the
    run's pushes and close, not in a sampler's set-up (its generator, the
    kernels' load or build); pdf_s is the time spent scoring, the pixel
    indices included, and eval_s the time of the decision walks.
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
        self._rng = None if method == "deterministic" else config.rng()
        # At alpha = 1 poisson keeps every event, as uniform does.
        self._decider = _Decider(
            geometry, "uniform" if method == "poisson" and config.alpha == 1.0
            else method, config, self._rng and self._rng.random)
        self._stats, self._busy_s = None, 0.0

    def push(self, chunk: EventStream) -> tuple[EventStream, DecisionLog]:
        """Decide the events of the next piece of the stream.

        Returns the kept events, whose ``source_index`` counts from the
        first event pushed (or, when the piece carries a source_index of
        its own, composes through it as :meth:`EventStream.subset` does),
        and the piece's decision log.  They are new arrays: apart from them
        a push allocates nothing once the buffers it reuses have grown.

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
        if m == 0:
            log = DecisionLog(chunk.t, np.empty(0, np.int64),
                              np.empty(0, np.uint8), np.empty(0))
            return chunk.subset(np.empty(0, np.int64)), log
        log = DecisionLog(chunk.t, np.empty(m, np.int64),
                          np.empty(m, np.uint8), np.empty(m))
        kept, seen = self._decider.push(chunk.t, chunk.x, chunk.y,
                                        log.window, log.code,
                                        log.probability)
        out = chunk._derive(kept, kept + seen if chunk.source_index is None
                            else chunk.source_index[kept])
        self._busy_s += time.perf_counter() - t_start
        return out, log

    def close(self) -> RunStats:
        """The statistics of every event pushed; later pushes raise."""
        if self._stats is None:
            t_start = time.perf_counter()
            cfg, decider = self.config, self._decider
            seen, retained, capped, pdf_s, eval_s = decider.totals()
            self._stats = RunStats(
                method=self.method, alpha=cfg.alpha, seed=cfg.seed,
                processed=seen, retained=retained, capped=capped,
                sampler_rejected=seen - retained - capped,
                per_window=tuple(decider.rows()),
                total_s=self._busy_s + time.perf_counter() - t_start,
                pdf_s=pdf_s, eval_s=eval_s)
            self._decider = None
        return self._stats


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
