"""Evaluation metrics: retention ratios, label selectivity, density divergence.

Selectivity quantifies how strongly a downsampler favors signal: with
ground-truth labels, it is the edge retention fraction divided by the noise
retention fraction.  A label-blind sampler scores about 1; a
density-adaptive one should score above 1 on scenes whose edges fire harder
than the background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityMap
from .events import EventLabel, EventStream, window_ids, window_spans


@dataclass(frozen=True)
class WindowRetention:
    window_id: int
    originals: int
    retained: int

    @property
    def ratio(self) -> float:
        return self.retained / self.originals


@dataclass(frozen=True)
class RetentionReport:
    """Overall and per-window kept/original ratios."""

    overall: float
    per_window: tuple

    @property
    def per_window_ratios(self) -> list[float]:
        return [w.ratio for w in self.per_window]


@dataclass(frozen=True)
class SelectivityReport:
    """Label-conditioned retention summary.

    ratio is edge_fraction / noise_fraction, or None when no noise events
    exist in the original stream.  alpha records the sampler's target rate
    when known.
    """

    edge_total: int
    noise_total: int
    edge_retained: int
    noise_retained: int
    overall: float
    alpha: float | None = None

    @property
    def edge_fraction(self) -> float:
        return self.edge_retained / self.edge_total if self.edge_total else 0.0

    @property
    def noise_fraction(self) -> float:
        return self.noise_retained / self.noise_total if self.noise_total else 0.0

    @property
    def ratio(self) -> float | None:
        if self.noise_total == 0 or self.noise_fraction == 0.0:
            return None
        return self.edge_fraction / self.noise_fraction


def retention_ratio(original: EventStream, downsampled: EventStream,
                    window_us: int = 6000) -> RetentionReport:
    """Kept/original ratio overall and per tumbling window.

    Windows are anchored at the original stream's first timestamp; only
    windows containing at least one original event appear in the report.
    The downsampled stream must be a subset of the original.  Raises
    ValueError when a window id would pass 2**63 - 1 (see
    :func:`evdown.events.window_ids`).
    """
    if len(original) == 0:
        raise ValueError("original stream is empty")
    if window_us < 1:
        raise ValueError("window_us must be >= 1")
    t0 = int(original.t[0])
    w_orig = window_ids(original.t, t0, window_us)
    w_down = window_ids(downsampled.t, t0, window_us)
    ids, bounds = window_spans(w_orig)
    w_down = np.sort(w_down)
    n_down = (np.searchsorted(w_down, ids, side="right")
              - np.searchsorted(w_down, ids, side="left"))
    per_window = tuple(
        WindowRetention(w, n, k) for w, n, k in zip(
            ids.tolist(), np.diff(bounds).tolist(), n_down.tolist()))
    return RetentionReport(overall=len(downsampled) / len(original),
                           per_window=per_window)


def match_events(original: EventStream, downsampled: EventStream) -> np.ndarray:
    """Index of each downsampled event in the original stream.

    Uses the recorded source_index when the downsampled stream carries one
    (verifying it), otherwise matches on (t, x, y, p) with a forward-only
    scan so duplicate timestamps resolve stably.  Raises ValueError naming
    the first downsampled event that is not a member of the original.
    """
    if downsampled.source_index is not None:
        idx = downsampled.source_index
        if idx.size and (int(idx.max()) >= len(original)
                         or not _columns_match(original, downsampled, idx)):
            raise ValueError("source_index does not refer to this original stream")
        return np.asarray(idx, dtype=np.int64)
    idx = np.empty(len(downsampled), dtype=np.int64)
    j = 0
    n = len(original)
    orig = list(zip(original.t.tolist(), original.x.tolist(),
                    original.y.tolist(), original.p.tolist()))
    down = zip(downsampled.t.tolist(), downsampled.x.tolist(),
               downsampled.y.tolist(), downsampled.p.tolist())
    for i, rec in enumerate(down):
        while j < n and orig[j] != rec:
            j += 1
        if j == n:
            t, x, y, p = rec
            raise ValueError(
                f"downsampled event {i} (t={t}, x={x}, y={y}, p={p}) "
                "is not a member of the original stream")
        idx[i] = j
        j += 1
    return idx


def _columns_match(original, downsampled, idx) -> bool:
    return (np.array_equal(original.t[idx], downsampled.t)
            and np.array_equal(original.x[idx], downsampled.x)
            and np.array_equal(original.y[idx], downsampled.y)
            and np.array_equal(original.p[idx], downsampled.p))


def selectivity(original: EventStream, downsampled: EventStream,
                alpha: float | None = None) -> SelectivityReport:
    """Label-conditioned retention of a downsampled stream.

    The original must carry ground-truth labels.  Membership of each
    downsampled event is established with :func:`match_events`.
    """
    if not original.is_labeled:
        raise ValueError("selectivity requires a labeled original stream")
    if len(original) == 0:
        raise ValueError("original stream is empty")
    idx = match_events(original, downsampled)
    kept_labels = original.labels[idx]
    edge = int(EventLabel.EDGE)
    return SelectivityReport(
        edge_total=int(np.count_nonzero(original.labels == edge)),
        noise_total=int(np.count_nonzero(original.labels != edge)),
        edge_retained=int(np.count_nonzero(kept_labels == edge)),
        noise_retained=int(np.count_nonzero(kept_labels != edge)),
        overall=len(downsampled) / len(original),
        alpha=alpha,
    )


def density_divergence(a: DensityMap, b: DensityMap,
                       epsilon: float = 1e-9) -> float:
    """Symmetrized KL divergence between two density maps.

    Counts are normalized to distributions, smoothed additively by epsilon
    and renormalized, then scored as 0.5 * (KL(P||Q) + KL(Q||P)).  Raises
    ValueError on mismatched geometry or an all-zero map.
    """
    if a.geometry != b.geometry:
        raise ValueError("density maps have different geometries")
    pa = np.asarray(a.counts, dtype=np.float64).ravel()
    pb = np.asarray(b.counts, dtype=np.float64).ravel()
    if pa.sum() <= 0 or pb.sum() <= 0:
        raise ValueError("density maps must contain at least one event")
    n = pa.size
    p = (pa / pa.sum() + epsilon) / (1.0 + n * epsilon)
    q = (pb / pb.sum() + epsilon) / (1.0 + n * epsilon)
    kl_pq = float(np.sum(p * np.log(p / q)))
    kl_qp = float(np.sum(q * np.log(q / p)))
    return 0.5 * (kl_pq + kl_qp)
