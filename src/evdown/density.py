"""Per-pixel event density and the acceptance-probability chain.

Each analysis window is summarized by a per-pixel event count ``lam``.
Treating counts as Poisson intensities, the probability that a pixel fired
at least once is ``f = 1 - exp(-lam)``, a bounded occupancy measure in
[0, 1).  Occupancy (optionally modulated by a spatial prior) is min-max
normalized, recentered so its mean sits at the target sampling rate, and
pushed through a sigmoid to yield per-pixel acceptance probabilities that
are strictly inside (0, 1).

The chain is computed sparsely by :func:`sparse_scores`: only the pixels
active in the window (nonzero occupancy) get their own score, and every
inactive pixel, whose occupancy is 0 with or without a prior, shares one
score.  Its cost follows the active pixels, not the sensor size, and no
map of the whole sensor is ever filled.

The sigmoid is :func:`evdown.capwalk.expit`, which rounds as libm's scalar
``exp`` does (numpy's vector ``exp`` does not on every CPU), so scores are
the same bits on every host and on either of its paths, compiled or Python.
The compiled window scorer, :func:`evdown.capwalk.score_piece`, freezes
each map with this chain in C, step for step, so it gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capwalk import expit
from .events import SensorGeometry

# Open-interval clamp bounds for acceptance probabilities.  The sigmoid
# saturates to exactly 0.0 or 1.0 in float64 for extreme arguments, which
# would break strict-bound guarantees downstream.
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)

# Occupancy of the integer counts 0..37, from libm's scalar expm1 (numpy's
# vector expm1 does not round alike on every CPU).  -expm1(-37) is already
# one ulp below 1 and every larger count clamps to that value, so
# min(count, 37) indexes the table for every count.
_OCCUPANCY = np.array([min(-math.expm1(-float(k)), _P_HI) for k in range(38)])


@dataclass(frozen=True)
class SigmoidParams:
    """Slope and midpoint of the score sigmoid 1 / (1 + exp(-slope*(v - midpoint)))."""

    slope: float = 5.0
    midpoint: float = 0.5

    def __post_init__(self):
        if not (self.slope > 0 and np.isfinite(self.slope)):
            raise ValueError(f"sigmoid slope must be finite and > 0, got {self.slope}")
        if not np.isfinite(self.midpoint):
            raise ValueError("sigmoid midpoint must be finite")


@dataclass(frozen=True, eq=False)
class PriorMap:
    """Nonnegative spatial importance weights, shape (height, width).

    Weights must be finite, nonnegative, and not all zero.  Only the ratios
    between pixels matter: scoring normalizes by the maximum weight, so
    scaling every weight by a common factor leaves results unchanged.
    """

    geometry: SensorGeometry
    weights: np.ndarray
    peak: float = field(init=False, repr=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.shape != (self.geometry.height, self.geometry.width):
            raise ValueError("prior shape must be (height, width)")
        if not np.all(np.isfinite(w)):
            raise ValueError("prior weights must be finite")
        if np.any(w < 0):
            raise ValueError("prior weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("prior weights must not be all zero")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "peak", w.max())


@dataclass(frozen=True, eq=False)
class SparseScores:
    """Acceptance probabilities of one window, stored by active pixel.

    ``active`` holds the sorted flat indices ``y * width + x`` of the pixels
    with nonzero occupancy and ``probabilities`` their scores; every other
    pixel scores ``rest``.
    """

    geometry: SensorGeometry
    active: np.ndarray
    probabilities: np.ndarray
    rest: float

    def lookup(self, flat: np.ndarray) -> np.ndarray:
        """Scores of the pixels with the given flat indices."""
        out = np.full(flat.shape, self.rest)
        if self.active.size:
            pos = np.searchsorted(self.active, flat)
            np.minimum(pos, self.active.size - 1, out=pos)
            hit = self.active[pos] == flat
            out[hit] = self.probabilities[pos[hit]]
        return out


def occupancy_values(counts) -> np.ndarray:
    """Occupancy 1 - exp(-lam) of counts of any shape: exactly 0 for a
    zero count, and one ulp below 1 from lam = 37 on.

    When every count is a whole number, of an integer or a float dtype, the
    values come from a 38-entry table built with libm's ``expm1``, so they
    are the same bits on every host.  Other counts take numpy's ``expm1``.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        counts = counts.astype(np.float64)
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        raise ValueError("density counts must be finite and nonnegative")
    k = np.minimum(counts, _OCCUPANCY.size - 1)
    if k.dtype.kind in "iu" or np.array_equal(k, np.trunc(k)):
        return _OCCUPANCY[k.astype(np.intp)]
    # exp(-lam) underflows past lam ~ 37 and the result would round to
    # exactly 1.0; clamp to keep the stated half-open range.
    return np.minimum(-np.expm1(-counts), _P_HI)


def sigmoid(v, params: SigmoidParams = SigmoidParams()):
    """Score sigmoid with the output clamped to the open interval (0, 1)."""
    p = expit(params.slope * (np.asarray(v, dtype=np.float64) - params.midpoint))
    return np.clip(p, _P_LO, _P_HI)


def sparse_scores(geometry: SensorGeometry,
                  active: np.ndarray,
                  occupancy: np.ndarray,
                  alpha: float,
                  params: SigmoidParams = SigmoidParams(),
                  prior: PriorMap | None = None) -> SparseScores:
    """Score a window from the occupancy of its active pixels.

    ``active`` lists the sorted, distinct flat indices ``y * width + x`` of
    the pixels with nonzero occupancy and ``occupancy`` their values; every
    other pixel has occupancy 0.  The chain: multiply occupancy by the
    prior (normalized to peak 1) if one is given, min-max normalize to
    [0, 1], shift so the mean over all pixels (active or not) equals
    ``alpha``, then apply the sigmoid, clamped strictly inside (0, 1).
    Equal values normalize to 0, so every pixel scores ``sigmoid(alpha)``.
    An inactive pixel stays 0 under a prior, so it normalizes to
    ``(0 - lo) / (hi - lo)`` where ``lo`` and ``hi`` range over the active
    values and, when some pixel is inactive, 0.  The mean over all pixels
    is the sum over the active ones, in flat-pixel order, plus the inactive
    pixels' share, divided by the pixel count.  Raises ValueError for an
    alpha outside (0, 1] and for values that are not finite.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    base = np.asarray(occupancy, dtype=np.float64)
    if prior is not None:
        if prior.geometry != geometry:
            raise ValueError("prior geometry does not match occupancy geometry")
        # Dividing by the peak weight first makes scoring invariant to a
        # common scale factor on the prior whenever the scaling is exact in
        # float64 (the per-pixel ratios are then bit-identical).
        base = base * (prior.weights.ravel()[active] / prior.peak)
    if not np.all(np.isfinite(base)):
        raise ValueError("values must be finite")
    n_rest = geometry.n_pixels - base.size
    lo = base.min(initial=0.0) if n_rest else base.min()
    hi = base.max(initial=0.0) if n_rest else base.max()
    # The last entry stands for every inactive pixel.
    if hi == lo:
        g = np.zeros(base.size + 1)
    else:
        g = (np.append(base, 0.0) - lo) / (hi - lo)
    mean = (g[:-1].sum() + n_rest * g[-1]) / geometry.n_pixels
    probs = sigmoid(g + (alpha - mean), params)
    return SparseScores(geometry, active, probs[:-1], float(probs[-1]))


def gaussian_prior(geometry: SensorGeometry,
                   sigma_x: float | None = None,
                   sigma_y: float | None = None) -> PriorMap:
    """Centered anisotropic Gaussian prior with peak weight 1.

    The center is ((width - 1) / 2, (height - 1) / 2).  Sigmas default to a
    quarter of the corresponding dimension.
    """
    sx = geometry.width / 4.0 if sigma_x is None else float(sigma_x)
    sy = geometry.height / 4.0 if sigma_y is None else float(sigma_y)
    if sx <= 0 or sy <= 0:
        raise ValueError("sigmas must be positive")
    cx = (geometry.width - 1) / 2.0
    cy = (geometry.height - 1) / 2.0
    xs = np.arange(geometry.width, dtype=np.float64)
    ys = np.arange(geometry.height, dtype=np.float64)
    gx = ((xs - cx) / sx) ** 2
    gy = ((ys - cy) / sy) ** 2
    weights = np.exp(-0.5 * (gy[:, None] + gx[None, :]))
    return PriorMap(geometry, weights)
