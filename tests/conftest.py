"""Shared test helpers.

chain_oracle is an independent pure-Python reimplementation of the scoring
chain (no numpy/scipy) used to cross-check the library's vectorized math.
reference_run drives the per-event kernels and window rollover one event at
a time; the batch pipeline must reproduce it exactly.  The cap_walk fixture
runs a test on each implementation of the compiled kernels (the cap walk and
the score sigmoid).
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import evdown
from evdown import (BudgetState, Decision, EventStream, SamplerConfig,
                    SensorGeometry, WindowState, capped, capwalk,
                    deterministic_accept, rollover, scored_accept,
                    uniform_accept)
from evdown.events import Event

# The environment of a fresh interpreter that imports this evdown.
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(evdown.__file__).resolve().parents[1]),
     os.environ.get("PYTHONPATH", "")]))

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


def reference_run(stream: EventStream, method: str, config: SamplerConfig):
    """Per-event reference semantics for the pipeline.

    Returns (codes, probs, windows, budget) where codes/probs/windows are
    per-event lists and budget is the final BudgetState.  Probabilities
    follow the decision-log convention: the acceptance probability that
    applied (alpha for uniform and for the first-window fallback, the
    frozen map value otherwise, 1.0 at alpha=1, NaN for deterministic),
    recorded for capped events as well.
    """
    n = len(stream)
    rng = config.rng()
    budget = BudgetState()
    codes, probs, windows = [], [], []
    if n == 0:
        return codes, probs, windows, budget
    t0 = int(stream.t[0])
    wstate = WindowState(stream.geometry, t0, config.t_us)
    for i in range(n):
        t = int(stream.t[i])
        x = int(stream.x[i])
        y = int(stream.y[i])
        while t >= wstate.right_edge:
            wstate = rollover(wstate, config)
        windows.append(wstate.index)
        if method == "deterministic":
            prob = float("nan")
            decide = lambda: deterministic_accept(t, t0, config.alpha,
                                                  config.tw_us)
        elif method == "uniform":
            prob = config.alpha
            decide = lambda: uniform_accept(rng, config.alpha)
        elif config.alpha == 1.0:
            prob = 1.0
            decide = lambda: uniform_accept(rng, 1.0)
        elif wstate.scores is None:
            prob = config.alpha
            decide = lambda: uniform_accept(rng, config.alpha)
        else:
            prob = wstate.scores.probability_at(x, y)
            event = Event(t, x, y, int(stream.p[i]))
            scores = wstate.scores
            decide = lambda: scored_accept(event, scores, rng)
        decision = capped(decide, budget, config.alpha,
                          enabled=config.cap_enabled)
        codes.append(int(decision.code))
        probs.append(prob)
        wstate.add(x, y)
    return codes, probs, windows, budget


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
