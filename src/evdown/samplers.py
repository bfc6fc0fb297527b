"""The decision rules, their shared configuration and the decision codes.

Three policies decide whether to keep an event:

* deterministic: accept when the phase ``(t - anchor) mod tw_us``, the
  anchor being the stream's first timestamp, falls in the accepting slice
  ``[0, round(alpha * tw_us))``; nothing is drawn,
* uniform: accept with fixed probability alpha,
* density-adaptive: accept with the probability at the event's pixel of
  the score map frozen from the previous window (see :mod:`evdown.density`).

A stochastic decision takes the next variate of the PCG64 generator and
accepts when it is strictly below the acceptance probability.  A hard
budget cap can wrap any policy: an event is dropped outright, taking no
variate, when the events before it have retained > alpha * processed; so
the first event always reaches its policy, and at alpha = 1 the cap never
trips.  :func:`evdown.capwalk.cap_walk` applies these rules to a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .density import PriorMap, SigmoidParams


class DecisionCode(IntEnum):
    ACCEPT = 0
    REJECT_SAMPLER = 1
    REJECT_CAP = 2


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by the samplers and the streaming pipeline.

    alpha : target sampling rate in (0, 1].  alpha = 1 acts as a pass-through
        that keeps every event.
    tw_us : duty-cycle window length for the deterministic policy, microseconds.
    t_us : analysis window length for the density-adaptive policy, microseconds.
        Both window lengths lie in [1, 2**63 - 1], as timestamps do.
    theta : sigmoid slope and midpoint for scoring.
    seed : seed for the numpy PCG64 generator behind stochastic decisions,
        a nonnegative integer.
    prior : optional spatial prior for the density-adaptive policy.
    cap_enabled : whether the hard budget cap is active.
    """

    alpha: float
    tw_us: int = 100
    t_us: int = 6000
    theta: SigmoidParams = field(default_factory=SigmoidParams)
    seed: int = 0
    prior: PriorMap | None = None
    cap_enabled: bool = True

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("tw_us", "t_us"):
            value = getattr(self, name)
            if not 1 <= value <= 2**63 - 1:
                raise ValueError(
                    f"{name} must be in [1, 2**63 - 1], got {value}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def acceptance_window_us(alpha: float, tw_us: int) -> int:
    """Accepting slice length round(alpha * tw_us), in microseconds.

    Rounds half up; with the default 100 us window the product is exact for
    alpha given in hundredths.
    """
    return int(math.floor(alpha * tw_us + 0.5))
