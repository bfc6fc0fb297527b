"""The decision rules: sampler config, duty cycle, draws and the budget cap.

Each rule is checked on the product: the duty cycle and the draws through
:func:`evdown.run`, the cap through the push's walk (``capwalk._Decider``
on given probabilities, ``conftest.decider_walk``), resumed at a chosen
budget state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdown import (DecisionCode, SamplerConfig, SensorGeometry,
                    SigmoidParams, acceptance_window_us, run)
from conftest import decider_walk, make_stream, random_stream

GEO = SensorGeometry(16, 12)
ACCEPT = int(DecisionCode.ACCEPT)
REJECT_SAMPLER = int(DecisionCode.REJECT_SAMPLER)
REJECT_CAP = int(DecisionCode.REJECT_CAP)


def duty_cycle_code(t, anchor=0, alpha=0.1):
    """The deterministic decision, cap off, for an event at ``t`` in a
    stream whose first event (the anchor) is at ``anchor``."""
    s = make_stream(GEO, [(anchor, 0, 0, 1), (t, 1, 1, 1)])
    _, _, log = run(s, "deterministic",
                    SamplerConfig(alpha=alpha, cap_enabled=False))
    return int(log.code[1])


def walk(p, draws, alpha, k0=0, retained0=0):
    """The piece walk over p, one window, resumed after k0 events with
    retained0 kept, given every draw it takes: (codes, retained, draws
    used)."""
    def more(n):
        raise AssertionError(f"the walk asked for {n} more draws")

    p = np.asarray(p, dtype=np.float64)
    if draws is not None:
        draws = np.asarray(draws, dtype=np.float64)
    codes, _, _, _, retained, left = decider_walk(
        p, np.array([0, p.size]), alpha, k0, retained0, draws, more)
    return (codes.tolist(), retained,
            0 if draws is None else draws.size - left.size)


def cap_step(k0, retained0, alpha, p=1.0):
    """The code of one deterministic event with probability p after k0
    events of which retained0 were kept."""
    return walk([p], None, alpha, k0, retained0)[0][0]


def replayed_codes(log, seed):
    """Codes of an uncapped stochastic run, replayed from its logged
    probabilities: event k takes variate k and is kept when it is below."""
    u = np.random.default_rng(seed).random(len(log))
    return np.where(u < log.probability, ACCEPT, REJECT_SAMPLER).tolist()


class TestSamplerConfig:
    def test_defaults(self):
        config = SamplerConfig(alpha=0.1)
        assert config.tw_us == 100
        assert config.t_us == 6000
        assert config.theta == SigmoidParams(5.0, 0.5)
        assert config.seed == 0
        assert config.cap_enabled
        assert config.prior is None

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0001, 2.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            SamplerConfig(alpha=alpha)

    def test_alpha_one_allowed(self):
        assert SamplerConfig(alpha=1.0).alpha == 1.0

    def test_window_domains(self):
        with pytest.raises(ValueError):
            SamplerConfig(alpha=0.5, tw_us=0)
        with pytest.raises(ValueError):
            SamplerConfig(alpha=0.5, t_us=0)

    @pytest.mark.parametrize("field", ["tw_us", "t_us"])
    def test_window_past_int64(self, field):
        """Window lengths are int64, as timestamps are; a longer one is a
        ValueError here, not an OverflowError later."""
        assert getattr(SamplerConfig(alpha=0.5, **{field: 2**63 - 1}),
                       field) == 2**63 - 1
        for value in (2**63, 10**20):
            with pytest.raises(ValueError, match=rf"{field} must be in "
                                                 r"\[1, 2\*\*63 - 1\]"):
                SamplerConfig(alpha=0.5, **{field: value})

    def test_negative_seed_rejected(self):
        assert SamplerConfig(alpha=0.5, seed=0).seed == 0
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SamplerConfig(alpha=0.5, seed=-1)

    def test_rng_reproducible(self):
        config = SamplerConfig(alpha=0.5, seed=99)
        assert config.rng().random() == config.rng().random()


class TestAcceptanceWindow:
    @pytest.mark.parametrize("alpha,tw,expected", [
        (0.1, 100, 10),
        (0.05, 100, 5),
        (0.5, 100, 50),
        (0.33, 100, 33),
        (1.0, 100, 100),
        (0.125, 80, 10),
        (0.5, 101, 51),   # half rounds up
        (0.005, 100, 1),
    ])
    def test_rounding(self, alpha, tw, expected):
        assert acceptance_window_us(alpha, tw) == expected


class TestDeterministicAccept:
    """Accept iff (t - anchor) mod tw_us < round(alpha * tw_us); the anchor
    is the stream's first timestamp."""

    def test_phase_inside_window_accepts(self):
        assert duty_cycle_code(1_000_005, anchor=1_000_000) == ACCEPT

    def test_phase_at_window_length_rejects(self):
        # residue 99 with T_a = 10
        assert duty_cycle_code(99) == REJECT_SAMPLER

    def test_left_edge_of_next_cycle_accepts(self):
        # residue 0: the accepting slice is closed on the left
        assert duty_cycle_code(100) == ACCEPT

    def test_boundary_of_slice_rejects(self):
        assert duty_cycle_code(10) == REJECT_SAMPLER
        assert duty_cycle_code(9) == ACCEPT

    def test_duty_fraction_over_ramp(self):
        s = make_stream(GEO, [(t, 0, 0, 1) for t in range(10_000)])
        _, stats, log = run(s, "deterministic",
                            SamplerConfig(alpha=0.33, cap_enabled=False))
        assert stats.retained == 3300  # exactly T_a per full cycle
        assert np.isnan(log.probability).all()


class TestUniformAccept:
    def test_consumes_exactly_one_draw(self):
        """Every event, kept or not, takes one variate: the last event of
        a run sees the generator's n-th."""
        for seed in range(20):
            s = random_stream(np.random.default_rng(seed), n=2)
            _, _, log = run(s, "uniform", SamplerConfig(
                alpha=0.5, seed=seed, cap_enabled=False))
            assert log.code.tolist() == replayed_codes(log, seed)

    def test_matches_draw_replay(self):
        s = random_stream(np.random.default_rng(1), n=500)
        _, _, log = run(s, "uniform",
                        SamplerConfig(alpha=0.3, seed=123, cap_enabled=False))
        assert (log.probability == 0.3).all()
        assert log.code.tolist() == replayed_codes(log, 123)

    def test_frequency(self):
        s = random_stream(np.random.default_rng(2), n=20_000)
        _, stats, _ = run(s, "uniform",
                          SamplerConfig(alpha=0.2, seed=42, cap_enabled=False))
        assert abs(stats.ratio - 0.2) < 0.01


class TestScoredAccept:
    def test_uses_pixel_probability(self):
        """A scored event takes one variate and is kept when it is below the
        probability logged for its pixel."""
        s = random_stream(np.random.default_rng(3), n=3000, span_us=40_000)
        _, _, log = run(s, "poisson",
                        SamplerConfig(alpha=0.3, seed=7, cap_enabled=False))
        assert np.unique(log.probability[log.window >= 2]).size > 1
        assert log.code.tolist() == replayed_codes(log, 7)


class TestCapCheck:
    """The cap trips before an event only when retained > alpha * processed
    over the events before it."""

    def test_not_tripped_at_exact_budget(self):
        # 2 retained of 10 processed at alpha 0.2 sits exactly on budget
        assert cap_step(10, 2, 0.2) == ACCEPT

    def test_tripped_strictly_above(self):
        assert cap_step(10, 3, 0.2) == REJECT_CAP

    def test_never_trips_before_first_event(self):
        assert cap_step(0, 0, 0.2) == ACCEPT
        assert cap_step(0, 0, 0.2, p=0.0) == REJECT_SAMPLER

    def test_never_trips_at_alpha_one(self):
        assert cap_step(5, 5, 1.0) == ACCEPT


class TestCapped:
    def test_trip_skips_decide_and_consumes_no_draw(self):
        """Over budget (3 of 14 at alpha 0.2) the first event is capped and
        leaves the first variate, 0.9, to the next event."""
        assert walk([0.5, 0.5], [0.9, 0.1], 0.2, 14, 3) == (
            [REJECT_CAP, REJECT_SAMPLER], 3, 1)

    def test_pass_through_updates_counts(self):
        assert walk([0.5], [0.1], 0.2) == ([ACCEPT], 1, 1)
        # within budget again: 0 retained of 5 processed at alpha 0.2
        assert walk([0.5], [0.9], 0.2, 5, 0) == ([REJECT_SAMPLER], 0, 1)

    def test_disabled_cap_never_trips(self):
        """Every event in the accepting slice is kept with the cap off;
        with it on, most are capped."""
        s = make_stream(GEO, [(t // 100, 0, 0, 1) for t in range(1000)])
        _, stats, log = run(s, "deterministic",
                            SamplerConfig(alpha=0.1, cap_enabled=False))
        assert stats.retained == 1000 and stats.capped == 0
        assert (log.code == ACCEPT).all()
        _, stats, _ = run(s, "deterministic", SamplerConfig(alpha=0.1))
        assert stats.capped > 0

    def test_first_event_always_reaches_sampler(self):
        # the very first event can be retained even though 1/1 > alpha
        assert walk([1.0], None, 0.05) == ([ACCEPT], 1, 0)
        assert walk([0.5], [0.2], 0.05) == ([ACCEPT], 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0),
           st.lists(st.booleans(), min_size=1, max_size=300))
    def test_budget_safety_prefix_invariant(self, alpha, wants):
        """retained_k <= alpha*(k-1) + 1 for every prefix, regardless of
        what the sampler tries to do."""
        codes, _, _ = walk(wants, None, alpha)
        kept = np.cumsum(np.asarray(codes) == ACCEPT)
        k = np.arange(1, len(wants) + 1, dtype=np.float64)
        assert (kept <= alpha * (k - 1) + 1).all()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_counters_monotone(self, wants):
        """Walked one event at a time, retained grows by 0 or 1 per event,
        never passes the events seen, and ends where one walk ends."""
        prev = 0
        for k, want in enumerate(wants):
            _, now, _ = walk([want], None, 0.3, k, prev)
            assert now in (prev, prev + 1)
            assert now <= k + 1
            prev = now
        assert prev == walk(wants, None, 0.3)[1]
