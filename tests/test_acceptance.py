"""Acceptance gate: one test per release criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS line on success (run with -s or -rA to see them; a
failing criterion surfaces as an ordinary pytest failure).  The density
sampler's reference selectivity below was recorded from an independent
pure-python replay of the reference scene before the batch pipeline was
written; criterion 7 requires the implementation to stay within +/-10%
of it and to agree with a live replay run in-process.
"""

import math
import time

import numpy as np

from conftest import chain_oracle, dense_scores

from evdown import (DecisionCode, EdgeSpec, EventStream, PriorMap,
                    SamplerConfig, SceneSpec, SensorGeometry, SigmoidParams,
                    generate, read_events, reference_scene, run, selectivity,
                    write_events)

# Selectivity of the density-guided sampler on reference_scene(seed=42),
# alpha=0.1, T=6000us, seed=42, recorded by the pre-build replay oracle.
POISSON_SELECTIVITY_REFERENCE = 3.576294708844873


def _replay_poisson_selectivity(stream, alpha, seed, t_us=6000,
                                slope=5.0, midpoint=0.5):
    """Brute-force per-event replay of the density-guided sampler.

    Uses only pure-python bookkeeping plus the chain_oracle scorer: windows
    are partitioned off the first timestamp, each window is scored from the
    previous window's counts alone (a constant map when that window is
    empty, the flat alpha fallback in window one), the budget cap is checked
    before each event, and capped events consume no draw.  Returns the
    selectivity ratio of the surviving events.
    """
    geometry = stream.geometry
    t = stream.t.tolist()
    xs = stream.x.tolist()
    ys = stream.y.tolist()
    labels = stream.labels.tolist()
    t0 = t[0]
    draws = np.random.default_rng(seed).random(len(t)).tolist()

    by_window = {}
    for i, ti in enumerate(t):
        by_window.setdefault((ti - t0) // t_us + 1, []).append(i)

    def probabilities_for(window):
        if window == 1:
            return None
        counts = [[0] * geometry.width for _ in range(geometry.height)]
        for j in by_window.get(window - 1, ()):
            counts[ys[j]][xs[j]] += 1
        return chain_oracle(counts, alpha, slope=slope, midpoint=midpoint)

    processed = 0
    retained = 0
    draw_index = 0
    kept = [False] * len(t)
    cached_window = None
    cached_probs = None
    for i, ti in enumerate(t):
        window = (ti - t0) // t_us + 1
        if window != cached_window:
            cached_window = window
            cached_probs = probabilities_for(window)
        if processed > 0 and retained > alpha * processed:
            processed += 1
            continue
        p = alpha if cached_probs is None else cached_probs[ys[i]][xs[i]]
        u = draws[draw_index]
        draw_index += 1
        processed += 1
        if u < p:
            retained += 1
            kept[i] = True

    edge_total = sum(1 for v in labels if v == 1)
    noise_total = len(labels) - edge_total
    edge_kept = sum(1 for i, v in enumerate(labels) if v == 1 and kept[i])
    noise_kept = sum(1 for i, v in enumerate(labels) if v == 0 and kept[i])
    return (edge_kept / edge_total) / (noise_kept / noise_total)


class TestAcceptance:

    def test_criterion_01_budget_cap_prefix_invariant(self):
        """No prefix of any run ever retains more than alpha*(k-1)+1 events:
        100 seeds x 3 methods x alpha in {0.05, 0.1, 0.5} on ~1e5-event
        scenes, exact arithmetic, under 60 seconds."""
        started = time.perf_counter()
        for seed in range(100):
            scene = SceneSpec(
                geometry=SensorGeometry(32, 24), duration_us=100_000,
                edges=(EdgeSpec(6, 2, 6, 21, velocity_px_s=50.0,
                                rate_per_px_s=4000.0),),
                noise_rate_px_s=1200.0, seed=seed)
            stream = generate(scene)
            assert len(stream) >= 95_000
            k = np.arange(1, len(stream) + 1, dtype=np.float64)
            for method in ("deterministic", "uniform", "poisson"):
                for alpha in (0.05, 0.1, 0.5):
                    _, _, log = run(stream, method,
                                    SamplerConfig(alpha=alpha, seed=seed))
                    kept = np.cumsum(log.code == DecisionCode.ACCEPT)
                    assert (kept <= alpha * (k - 1.0) + 1.0).all()
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        print(f"\nPASS criterion 1: retained prefix stayed within "
              f"alpha*(k-1)+1 for 900 runs on ~1e5-event streams "
              f"({elapsed:.1f}s)")

    def test_criterion_02_uniform_ratio_convergence(self):
        """Uniform sampling at alpha=0.1 over 1e6 events lands in
        [0.095, 0.100] with the cap on and within 0.001 of 0.1 without it."""
        scene = SceneSpec(geometry=SensorGeometry(200, 150),
                          duration_us=1_000_000, noise_rate_px_s=33.35,
                          seed=7)
        stream = generate(scene)
        assert len(stream) >= 1_000_000
        _, capped_stats, _ = run(stream, "uniform",
                                 SamplerConfig(alpha=0.1, seed=0))
        _, open_stats, _ = run(stream, "uniform",
                               SamplerConfig(alpha=0.1, seed=0,
                                             cap_enabled=False))
        assert 0.095 <= capped_stats.ratio <= 0.100
        assert abs(open_stats.ratio - 0.1) <= 0.001
        print(f"\nPASS criterion 2: uniform ratio {capped_stats.ratio:.5f} "
              f"capped / {open_stats.ratio:.5f} uncapped on "
              f"{len(stream)} events")

    def test_criterion_03_scoring_chain_matches_oracle(self):
        """The vectorized scoring chain (counts -> occupancy -> min-max ->
        mean shift -> sigmoid) agrees with the pure-python oracle within
        1e-12 per pixel over 1000 randomized 8x8 windows."""
        geometry = SensorGeometry(8, 8)
        rng = np.random.default_rng(20260825)
        worst = 0.0
        for trial in range(1000):
            n = int(rng.integers(0, 201))
            x = rng.integers(0, 8, size=n)
            y = rng.integers(0, 8, size=n)
            t = np.sort(rng.integers(0, 6000, size=n))
            stream = EventStream(geometry, t, x, y,
                                 rng.integers(0, 2, size=n))
            alpha = 1.0 if trial % 100 == 0 else float(
                rng.uniform(0.01, 1.0))
            if trial % 2 == 0:
                params = SigmoidParams()
            else:
                params = SigmoidParams(slope=float(rng.uniform(0.5, 10.0)),
                                       midpoint=float(rng.uniform(0.05,
                                                                  0.95)))
            scores = dense_scores(
                geometry, np.bincount(stream.y * 8 + stream.x, minlength=64),
                alpha, params)
            counts = [[0] * 8 for _ in range(8)]
            for xi, yi in zip(x.tolist(), y.tolist()):
                counts[yi][xi] += 1
            expected = np.array(chain_oracle(counts, alpha,
                                             slope=params.slope,
                                             midpoint=params.midpoint))
            diff = float(np.abs(scores - expected).max())
            worst = max(worst, diff)
            assert diff <= 1e-12
        print(f"\nPASS criterion 3: scoring chain within 1e-12 of oracle "
              f"over 1000 trials (worst {worst:.3e})")

    def test_criterion_04_score_bounds_and_midpoint(self):
        """Every score lies strictly inside (0, 1) even under saturating
        slopes, and a shifted argument landing exactly on the sigmoid
        midpoint yields probability 0.5 within 1e-12."""
        geometry = SensorGeometry(8, 8)
        rng = np.random.default_rng(4)
        for trial in range(200):
            counts = rng.integers(0, 1000, size=(8, 8)).astype(np.float64)
            slope = 900.0 if trial % 3 == 0 else float(rng.uniform(0.5, 40.0))
            params = SigmoidParams(slope=slope,
                                   midpoint=float(rng.uniform(0.05, 0.95)))
            alpha = float(rng.uniform(0.01, 1.0))
            scores = dense_scores(geometry, counts, alpha, params)
            assert (scores > 0.0).all()
            assert (scores < 1.0).all()

        # 16 of 64 pixels share one positive count, so the normalized map is
        # an indicator with mean 0.25; at alpha 0.75 the zero pixels shift
        # to exactly the default midpoint 0.5.
        counts = np.zeros((8, 8))
        counts[:2, :] = 3.0
        scores = dense_scores(geometry, counts, 0.75, SigmoidParams())
        at_midpoint = scores[2:, :]
        assert np.abs(at_midpoint - 0.5).max() <= 1e-12
        assert (at_midpoint == 0.5).all()

        # An empty window degenerates to a constant map: at alpha 0.5 the
        # shift alone lands on the midpoint, so every pixel scores 0.5.
        flat = dense_scores(geometry, np.zeros((8, 8)), 0.5, SigmoidParams())
        assert (flat == 0.5).all()
        print("\nPASS criterion 4: scores strictly inside (0,1); midpoint "
              "arguments scored exactly 0.5")

    def test_criterion_05_prior_scale_invariance(self):
        """Scaling a spatial prior by 1e-3, 1, or 1e3 leaves the score map
        bit-for-bit unchanged (weights only matter through their ratios)."""
        geometry = SensorGeometry(16, 12)
        rng = np.random.default_rng(5)
        for _ in range(200):
            counts = rng.integers(0, 60, size=(12, 16)).astype(np.float64)
            base = 125.0 * rng.integers(1, 8000, size=(12, 16))
            alpha = float(rng.uniform(0.01, 1.0))
            params = SigmoidParams()
            reference = dense_scores(geometry, counts, alpha, params,
                                     prior=PriorMap(geometry, base))
            for c in (1e-3, 1.0, 1e3):
                scaled = dense_scores(geometry, counts, alpha, params,
                                      prior=PriorMap(geometry, c * base))
                assert np.array_equal(reference, scaled)
        print("\nPASS criterion 5: prior scalings 1e-3/1/1e3 reproduced "
              "score maps bit-for-bit over 200 trials")

    def test_criterion_06_deterministic_duty_cycle_rate(self):
        """The 100us duty-cycle sampler realizes each target rate within
        0.01 on timestamps drawn uniformly over a 30-second horizon."""
        rng = np.random.default_rng(11)
        n = 300_000
        geometry = SensorGeometry(16, 16)
        stream = EventStream(geometry,
                             np.sort(rng.integers(0, 30_000_000, n)),
                             rng.integers(0, 16, n), rng.integers(0, 16, n),
                             rng.integers(0, 2, n))
        realized = {}
        for alpha in (0.05, 0.1, 0.5):
            for cap in (True, False):
                _, stats, _ = run(stream, "deterministic",
                                  SamplerConfig(alpha=alpha, tw_us=100,
                                                cap_enabled=cap))
                assert abs(stats.ratio - alpha) <= 0.01
                if cap:
                    realized[alpha] = stats.ratio
        print(f"\nPASS criterion 6: duty-cycle ratios "
              f"{ {a: round(r, 5) for a, r in realized.items()} } "
              f"within 0.01 of targets")

    def test_criterion_07_contour_selectivity(self):
        """On the reference scene (edge pixels 50x hotter than noise) at
        alpha=0.1 the density-guided sampler favors edge events: selectivity
        above 1, at least 1.15x uniform's, matching both a live pure-python
        replay and the frozen reference value within 10%."""
        stream = generate(reference_scene(seed=42))
        config = SamplerConfig(alpha=0.1, seed=42)
        poisson_out, _, _ = run(stream, "poisson", config)
        uniform_out, _, _ = run(stream, "uniform", config)
        s_poisson = selectivity(stream, poisson_out).ratio
        s_uniform = selectivity(stream, uniform_out).ratio
        assert s_poisson > 1.0
        assert 0.95 <= s_uniform <= 1.05
        assert s_poisson >= 1.15 * s_uniform
        replayed = _replay_poisson_selectivity(stream, 0.1, 42)
        assert abs(s_poisson - replayed) <= 0.005 * replayed
        assert abs(s_poisson - POISSON_SELECTIVITY_REFERENCE) <= (
            0.10 * POISSON_SELECTIVITY_REFERENCE)
        print(f"\nPASS criterion 7: selectivity {s_poisson:.4f} "
              f"(uniform {s_uniform:.4f}, replay {replayed:.4f}, "
              f"reference {POISSON_SELECTIVITY_REFERENCE:.4f})")

    def test_criterion_08_throughput_budget(self):
        """Processing cost on a 1e6-event stream stays under 6.55 ms per
        1000 events for the density-guided method, 4.90 for duty-cycle,
        4.56 for uniform (best of three runs)."""
        scene = SceneSpec(geometry=SensorGeometry(240, 180),
                          duration_us=2_000_000,
                          edges=(EdgeSpec(40, 10, 40, 170,
                                          velocity_px_s=70.0,
                                          rate_per_px_s=625.0),),
                          noise_rate_px_s=9.26, seed=3)
        stream = generate(scene)
        assert len(stream) >= 1_000_000
        budgets = {"poisson": 6.55, "deterministic": 4.90, "uniform": 4.56}
        measured = {}
        for method, budget in budgets.items():
            best = math.inf
            for _ in range(3):
                _, stats, _ = run(stream, method,
                                  SamplerConfig(alpha=0.1, seed=0))
                best = min(best, stats.ms_per_kev_total)
            measured[method] = best
            assert best <= budget
        print(f"\nPASS criterion 8: ms per 1000 events "
              f"poisson {measured['poisson']:.2f}<=6.55, "
              f"deterministic {measured['deterministic']:.2f}<=4.90, "
              f"uniform {measured['uniform']:.2f}<=4.56")

    def test_criterion_09_causal_probability_replay(self):
        """Every logged acceptance probability of a density-guided run is
        reproduced bitwise from events strictly before the event's window:
        flat alpha in window one, otherwise the map frozen from the
        previous window (a constant map after an empty one), including the
        probabilities recorded for budget-capped events."""
        setups = ((0, 0.1, SigmoidParams()),
                  (1, 0.25, SigmoidParams()),
                  (2, 0.1, SigmoidParams(slope=3.0, midpoint=0.4)),
                  (3, 0.6, SigmoidParams()),
                  (4, 0.1, SigmoidParams()))
        geometry = SensorGeometry(16, 12)
        t_us = 6000
        saw_cap = False
        saw_gap = False
        for seed, alpha, params in setups:
            rng = np.random.default_rng(1000 + seed)
            pieces = []
            for window in (1, 2, 5, 6, 9):
                base = 1_000_000 + (window - 1) * t_us
                count = int(rng.integers(150, 300))
                pieces.append(base + np.sort(rng.integers(0, t_us, count)))
            t = np.concatenate(pieces)
            n = len(t)
            stream = EventStream(geometry, t, rng.integers(0, 16, n),
                                 rng.integers(0, 12, n),
                                 rng.integers(0, 2, n))
            config = SamplerConfig(alpha=alpha, theta=params, seed=seed,
                                   t_us=t_us)
            _, _, log = run(stream, "poisson", config)
            windows = (stream.t - int(stream.t[0])) // t_us + 1
            assert np.array_equal(log.window, windows)
            flat = stream.y * geometry.width + stream.x
            expected = np.empty(n)
            for window in np.unique(windows):
                mask = windows == window
                if window == 1:
                    expected[mask] = alpha
                    continue
                prev = np.flatnonzero(windows == window - 1)
                saw_gap = saw_gap or len(prev) == 0
                counts = np.bincount(flat[prev], minlength=geometry.n_pixels)
                scores = dense_scores(geometry, counts, alpha, params)
                expected[mask] = scores[stream.y[mask], stream.x[mask]]
            assert np.array_equal(log.probability, expected)
            saw_cap = saw_cap or bool(
                (log.code == DecisionCode.REJECT_CAP).any())
        assert saw_cap
        assert saw_gap
        print("\nPASS criterion 9: decision-log probabilities replayed "
              "bitwise from prior-window events for 5 gapped runs")

    def test_criterion_10_io_round_trip(self, tmp_path):
        """Randomized valid streams survive CSV and binary round-trips
        bit-exactly, 1000 trials."""
        rng = np.random.default_rng(10)
        csv_path = tmp_path / "events.csv"
        bin_path = tmp_path / "events.evd"
        for _ in range(1000):
            width = int(rng.integers(1, 600))
            height = int(rng.integers(1, 600))
            geometry = SensorGeometry(width, height)
            n = int(rng.integers(0, 121))
            span = int(rng.integers(1, 2 ** 50))
            kwargs = {}
            labeled = bool(rng.integers(0, 2))
            if labeled:
                kwargs["labels"] = rng.integers(0, 2, size=n)
            stream = EventStream(geometry,
                                 np.sort(rng.integers(0, span, size=n)),
                                 rng.integers(0, width, size=n),
                                 rng.integers(0, height, size=n),
                                 rng.integers(0, 2, size=n), **kwargs)
            write_events(stream, csv_path)
            back_csv = read_events(csv_path, geometry=geometry)
            assert back_csv == stream
            if labeled:
                assert np.array_equal(back_csv.labels, stream.labels)
            write_events(stream, bin_path)
            back_bin = read_events(bin_path)
            assert back_bin == stream
            assert back_bin.geometry == geometry
        print("\nPASS criterion 10: 1000 randomized streams round-tripped "
              "bit-exactly through CSV and binary")
