"""Shared test helpers.

chain_oracle is an independent pure-Python reimplementation of the scoring
chain (no numpy/scipy) used to cross-check the library's vectorized math.
reference_run is the per-event reference of the pipeline: window ids, each
event's probability (per_event_scores for the density-adaptive method) and
the cap rule walked one event at a time (per_event_walk); the pipeline must
reproduce it exactly.  The cap_walk fixture runs a test on each
implementation of the compiled kernels (the cap walk and the score sigmoid).
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import evdown
from evdown import (DecisionCode, EventStream, SamplerConfig, SensorGeometry,
                    acceptance_window_us, capwalk, occupancy_values,
                    sparse_scores)

# The environment of a fresh interpreter that imports this evdown.
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(evdown.__file__).resolve().parents[1]),
     os.environ.get("PYTHONPATH", "")]))

# A sensor of 2**55 pixels: no per-pixel array of it can be allocated.
HUGE = SensorGeometry(2**31, 2**24)

_P_LO = math.ulp(0.0)
_P_HI = math.nextafter(1.0, 0.0)


def oracle_sigmoid(v: float, slope: float, midpoint: float) -> float:
    z = slope * (v - midpoint)
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        p = e / (1.0 + e)
    return min(max(p, _P_LO), _P_HI)


def chain_oracle(counts, alpha, slope=5.0, midpoint=0.5, prior=None):
    """Scoring chain on nested lists: counts -> occupancy -> (prior) ->
    min-max -> mean shift -> sigmoid.  Returns a nested list of floats."""
    height = len(counts)
    width = len(counts[0])
    base = [[1.0 - math.exp(-counts[r][c]) for c in range(width)]
            for r in range(height)]
    if prior is not None:
        peak = max(max(row) for row in prior)
        base = [[base[r][c] * (prior[r][c] / peak) for c in range(width)]
                for r in range(height)]
    flat = [v for row in base for v in row]
    lo, hi = min(flat), max(flat)
    if hi == lo:
        g = [[0.0] * width for _ in range(height)]
    else:
        g = [[(base[r][c] - lo) / (hi - lo) for c in range(width)]
             for r in range(height)]
    mean = sum(v for row in g for v in row) / (width * height)
    shift = alpha - mean
    return [[oracle_sigmoid(g[r][c] + shift, slope, midpoint)
             for c in range(width)] for r in range(height)]


def make_stream(geometry, records, **kwargs) -> EventStream:
    """Build a stream from (t, x, y, p) tuples."""
    if not records:
        return EventStream(geometry, [], [], [], [], **kwargs)
    t, x, y, p = zip(*records)
    return EventStream(geometry, t, x, y, p, **kwargs)


def random_stream(rng, geometry=None, n=2000, span_us=50_000) -> EventStream:
    """Random valid stream: sorted timestamps (with duplicates), uniform
    pixels, random polarity."""
    if geometry is None:
        geometry = SensorGeometry(16, 12)
    t = np.sort(rng.integers(0, span_us, size=n))
    return EventStream(
        geometry, t,
        rng.integers(0, geometry.width, size=n),
        rng.integers(0, geometry.height, size=n),
        rng.integers(0, 2, size=n))


def per_event_scores(stream: EventStream, config: SamplerConfig) -> np.ndarray:
    """Density-adaptive probabilities: alpha in window 1, else each event
    looked up on its own in the map frozen from the previous window's
    distinct pixels and counts (no pixel active after an empty window)."""
    geo = stream.geometry
    n = len(stream)
    windows = (stream.t - int(stream.t[0])) // config.t_us + 1
    flat = stream.y * geo.width + stream.x
    p = np.empty(n)
    uniq, starts = np.unique(windows, return_index=True)
    ends = np.append(starts[1:], n)
    prev_wid, prev = 0, slice(0, 0)
    for wid, i0, i1 in zip(uniq.tolist(), starts.tolist(), ends.tolist()):
        if wid == 1:
            p[i0:i1] = config.alpha
        else:
            closed = prev if prev_wid == wid - 1 else slice(0, 0)
            active, counts = np.unique(flat[closed], return_counts=True)
            frozen = sparse_scores(geo, active, occupancy_values(counts),
                                   config.alpha, config.theta, config.prior,
                                   window_id=wid - 1)
            p[i0:i1] = frozen.lookup(flat[i0:i1])
        prev_wid, prev = wid, slice(i0, i1)
    return p


def per_event_walk(p, draws, alpha, cap=True):
    """The cap rule, one event at a time: before each event the budget is
    checked against the counts so far and trips only when retained >
    alpha * processed; a capped event takes no draw.  ``draws`` is an
    iterable of variates, or None for the deterministic mode, which accepts
    when p > 0.  Returns the decision codes and the number retained."""
    it = None if draws is None else iter(draws)
    codes, retained = [], 0
    for processed, pk in enumerate(p):
        if cap and retained > alpha * processed:
            code = DecisionCode.REJECT_CAP
        elif (pk > 0.0) if it is None else (next(it) < pk):
            code = DecisionCode.ACCEPT
            retained += 1
        else:
            code = DecisionCode.REJECT_SAMPLER
        codes.append(int(code))
    return codes, retained


def reference_run(stream: EventStream, method: str, config: SamplerConfig):
    """Per-event reference semantics for the pipeline.

    Returns (codes, probs, windows, retained): per-event lists and the
    number of events kept.  Probabilities follow the decision-log
    convention: the acceptance probability that applied (alpha for uniform
    and for the first-window fallback, the frozen map value otherwise, 1.0
    at alpha=1, NaN for deterministic), recorded for capped events as well.
    Stochastic methods take their variates from the seeded generator one
    at a time.
    """
    n = len(stream)
    if n == 0:
        return [], [], [], 0
    alpha = config.alpha
    t = stream.t - int(stream.t[0])
    windows = t // config.t_us + 1
    draws = None
    if method == "deterministic":
        ta = acceptance_window_us(alpha, config.tw_us)
        p = (t % config.tw_us < ta).astype(np.float64)
        probs = np.full(n, np.nan)
    else:
        rng = config.rng()
        draws = iter(rng.random, None)
        if method == "poisson" and alpha != 1.0:
            p = per_event_scores(stream, config)
        else:
            p = np.full(n, alpha)
        probs = p
    codes, retained = per_event_walk(p.tolist(), draws, alpha,
                                     config.cap_enabled)
    return codes, probs.tolist(), windows.tolist(), retained


def force_python_walk(monkeypatch) -> None:
    """Make evdown.capwalk run its Python loops, the cap walk and the
    sigmoid, as on a machine where the compiled kernels cannot be built or
    loaded."""
    monkeypatch.setattr(capwalk, "_kernel", lambda: None)


@pytest.fixture(params=["compiled", "python"])
def cap_walk(request, monkeypatch):
    """The name of the kernels (cap walk and sigmoid) the test runs on;
    the compiled ones are skipped where they cannot be built."""
    if request.param == "python":
        force_python_walk(monkeypatch)
    elif capwalk.implementation() != "compiled":
        pytest.skip("the compiled cap walk cannot be built here")
    return request.param
