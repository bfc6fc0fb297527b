"""Shared test helpers.

chain_oracle is an independent pure-Python reimplementation of the scoring
chain (no numpy/scipy) used to cross-check the library's vectorized math;
dense_scores spreads the library's sparse scores over a full map to compare
with it.
reference_run is the per-event reference of the pipeline: window ids, each
event's probability (per_event_scores for the density-adaptive method) and
the cap rule walked one event at a time (per_event_walk); the pipeline must
reproduce it exactly.  The cap_walk fixture runs a test on each
implementation of the compiled kernels (the cap walk, the score sigmoid and
the window scorer).
csv_oracle is the reference of the event-CSV reader: the line loop over the
whole file, then its checks in the order the reader must report them.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import evdown
from evdown import (DecisionCode, EventFileError, EventStream, SamplerConfig,
                    SensorGeometry, SigmoidParams, acceptance_window_us,
                    capwalk, occupancy_values, sparse_scores)

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


def dense_scores(geometry, counts, alpha, params=SigmoidParams(),
                 prior=None) -> np.ndarray:
    """The (height, width) map of every pixel's score, given the window's
    per-pixel counts in flat-pixel order: one sparse_scores call over the
    pixels with a nonzero count, spread over the sensor."""
    counts = np.asarray(counts).ravel()
    active = np.flatnonzero(counts)
    scores = sparse_scores(geometry, active, occupancy_values(counts[active]),
                           alpha, params, prior)
    probs = np.full(geometry.n_pixels, scores.rest)
    probs[active] = scores.probabilities
    return probs.reshape(geometry.height, geometry.width)


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
                                   config.alpha, config.theta, config.prior)
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


def csv_lines_oracle(path):
    """The columns (t, x, y, p, labels) of an event CSV, read whole, line by
    line, as evdown read every CSV before it read them in blocks; raises
    EventFileError naming the first malformed line, else the first line
    with a value past the signed 64-bit range."""
    t, x, y, p = [], [], [], []
    labels = ncols = None
    with open(path, "r", encoding="ascii", errors="surrogateescape",
              newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00
                raise EventFileError(f"{path}:{lineno}: non-ASCII byte "
                                     f"0x{byte:02x}")
            fields = line.rstrip("\r\n").split(",")
            if lineno == 1:
                ncols = check_header(path, line)
                labels = [] if ncols == 5 else None
                continue
            if len(fields) != ncols:
                raise EventFileError(f"{path}:{lineno}: expected {ncols} "
                                     f"fields, got {len(fields)}")
            try:
                ti, xi, yi, pi = (int(f) for f in fields[:4])
            except ValueError as exc:
                raise EventFileError(f"{path}:{lineno}: {exc}") from None
            if ti < 0 or xi < 0 or yi < 0:
                raise EventFileError(
                    f"{path}:{lineno}: negative timestamp or coordinate")
            if pi not in (0, 1):
                raise EventFileError(
                    f"{path}:{lineno}: polarity must be 0 or 1, got {pi}")
            if labels is not None:
                if fields[4] not in ("N", "E"):
                    raise EventFileError(f"{path}:{lineno}: label must be E "
                                         f"or N, got {fields[4]!r}")
                labels.append("NE".index(fields[4]))
            t.append(ti)
            x.append(xi)
            y.append(yi)
            p.append(pi)
    if ncols is None:
        check_header(path, "")
    for i, vals in enumerate(zip(t, x, y)):
        if max(vals) > 2**63 - 1:
            raise EventFileError(f"{path}:{i + 2}: value exceeds the signed "
                                 f"64-bit range")
    return (np.array(t, np.int64), np.array(x, np.int64),
            np.array(y, np.int64), np.array(p, np.uint8),
            None if labels is None else np.array(labels, np.uint8))


def check_header(path, line: str) -> int:
    """The number of fields the event-CSV header line names."""
    header = line.rstrip("\r\n")
    if header not in ("t,x,y,p", "t,x,y,p,label"):
        raise EventFileError(f"{path}:1: bad header {header!r}, expected "
                             f"'t,x,y,p' or 't,x,y,p,label'")
    return header.count(",") + 1


def csv_oracle(path, geometry=None):
    """What read_events(path, "csv", geometry) must give: the stream, or
    the message of its EventFileError.  After csv_lines_oracle's messages
    come, in this order, the first event out of order, the first event
    outside the given geometry, and the refusal of the inferred one."""
    try:
        t, x, y, p, labels = csv_lines_oracle(path)
    except EventFileError as exc:
        return str(exc)
    back = np.flatnonzero(t[1:] < t[:-1])
    if back.size:
        i = int(back[0]) + 1
        return (f"{path}: events out of order at index {i} "
                f"(t={t[i]} after t={t[i - 1]})")
    if geometry is None:
        try:
            geometry = SensorGeometry(int(x.max()) + 1 if x.size else 1,
                                      int(y.max()) + 1 if y.size else 1)
        except ValueError as exc:
            return f"{path}: inferred {exc}"
    out = np.flatnonzero((x >= geometry.width) | (y >= geometry.height))
    if out.size:
        j = int(out[0])
        return (f"{path}: event {j} at ({x[j]}, {y[j]}) outside "
                f"{geometry.width}x{geometry.height} sensor")
    return EventStream(geometry, t, x, y, p, labels=labels)


def force_python_walk(monkeypatch) -> None:
    """Make evdown.capwalk run its Python twins, the cap walk, the sigmoid
    and the window scorer, as on a machine where the compiled kernels
    cannot be built or loaded."""
    monkeypatch.setattr(capwalk, "_kernel", lambda: None)


@pytest.fixture(params=["compiled", "python"])
def cap_walk(request, monkeypatch):
    """The name of the kernels (cap walk, sigmoid and window scorer) the
    test runs on; the compiled ones are skipped where they cannot be
    built."""
    if request.param == "python":
        force_python_walk(monkeypatch)
    elif capwalk.implementation() != "compiled":
        pytest.skip("the compiled cap walk cannot be built here")
    return request.param
