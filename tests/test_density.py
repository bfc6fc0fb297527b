"""Occupancy and the acceptance-probability chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdown import (PriorMap, SensorGeometry, SigmoidParams, gaussian_prior,
                    occupancy_values, sigmoid, sparse_scores)

from conftest import chain_oracle, dense_scores

GEO4 = SensorGeometry(4, 4)


def scores_of(counts, alpha, params=SigmoidParams(), prior=None):
    """dense_scores of a (height, width) array of counts."""
    counts = np.asarray(counts)
    return dense_scores(SensorGeometry(counts.shape[1], counts.shape[0]),
                        counts, alpha, params, prior)


class TestAccumulateDensity:
    def test_out_of_bounds_rejected(self):
        # The stream refuses the event, so no window ever counts it.
        from evdown import EventStream
        with pytest.raises(ValueError,
                           match=r"^event 0 at \(4, 0\) outside 4x4 sensor$"):
            EventStream(GEO4, [1], [4], [0], [1])


class TestPoissonOccupancy:
    def test_formula_matches_oracle(self):
        counts = np.array([[0.0, 1.0, 2.0], [5.0, 0.5, 10.0]])
        occ = occupancy_values(counts)
        expected = [[1.0 - math.exp(-c) for c in row] for row in counts]
        np.testing.assert_allclose(occ, expected, rtol=0, atol=1e-12)

    def test_zero_count_is_exactly_zero(self):
        occ = occupancy_values(np.zeros((3, 3)))
        assert (occ == 0.0).all()

    def test_strictly_below_one(self):
        occ = occupancy_values(np.full((2, 2), 800.0))
        assert (occ < 1.0).all()

    def test_monotone_in_counts(self):
        occ = occupancy_values(np.arange(16.0).reshape(4, 4))
        assert (np.diff(occ.ravel()) > 0).all()

    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(ValueError):
            occupancy_values(np.full((4, 4), -1.0))
        with pytest.raises(ValueError):
            occupancy_values(np.full((4, 4), np.nan))


def bits(values):
    return np.asarray(values, np.float64).view(np.int64).tolist()


OCCUPANCY_TABLE = [min(-math.expm1(-float(k)), math.nextafter(1.0, 0.0))
                   for k in range(38)]


class TestOccupancyTable:
    """Whole-number counts read a table built with libm's expm1, so their
    occupancy is the same bits on every host."""

    def test_table_is_libm_expm1(self):
        from evdown.density import _OCCUPANCY
        assert bits(_OCCUPANCY) == bits(OCCUPANCY_TABLE)
        assert _OCCUPANCY[36] < _OCCUPANCY[37] == math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.float64])
    def test_integer_counts_read_the_table(self, dtype):
        k = np.arange(100_001)
        want = np.array(OCCUPANCY_TABLE)[np.minimum(k, 37)]
        assert bits(occupancy_values(k.astype(dtype))) == bits(want)

    def test_counts_past_int64_saturate(self):
        counts = np.array([2**64 - 1, 38, 0], np.uint64)
        assert bits(occupancy_values(counts)) == bits(
            [OCCUPANCY_TABLE[37], OCCUPANCY_TABLE[37], 0.0])
        assert bits(occupancy_values([1e300])) == bits([OCCUPANCY_TABLE[37]])

    @pytest.mark.parametrize("counts", [[0.5], [2.25], [36.5, 0.0],
                                        [1.0, 2.0, 0.5], [5e-324, 3.0]])
    def test_fractional_counts_keep_numpy_expm1(self, counts):
        counts = np.array(counts)
        want = np.minimum(-np.expm1(-counts), np.nextafter(1.0, 0.0))
        assert bits(occupancy_values(counts)) == bits(want)

    def test_shape_kept(self):
        counts = np.arange(12).reshape(3, 4)
        assert occupancy_values(counts).shape == (3, 4)
        assert occupancy_values(np.int64(2)) == OCCUPANCY_TABLE[2]
        assert occupancy_values(np.empty(0, np.int64)).shape == (0,)

    def test_negative_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            occupancy_values(np.array([3, -1]))


def all_active_scores(values, alpha=0.3):
    """sparse_scores of a 1-row sensor whose every pixel is active with
    the given values."""
    values = np.asarray(values, dtype=np.float64)
    return sparse_scores(SensorGeometry(values.size, 1),
                         np.arange(values.size), values, alpha)


def shifted_values(p, params=SigmoidParams()):
    """The normalized, mean-shifted values v that scored p = sigmoid(v)."""
    return params.midpoint + np.log(p / (1.0 - p)) / params.slope


class TestMinmaxNormalize:
    """The min-max normalization inside sparse_scores."""

    def test_known_values(self):
        """{0, 2, 8} normalize to {0, 0.25, 1}, then shift to mean alpha."""
        scores = all_active_scores([0.0, 2.0, 8.0], alpha=0.3)
        want = sigmoid(np.array([0.0, 0.25, 1.0]) + (0.3 - 1.25 / 3))
        np.testing.assert_array_equal(scores.probabilities, want)

    def test_constant_maps_to_zeros(self):
        """Equal values normalize to 0, so every pixel scores sigmoid(alpha)."""
        scores = all_active_scores(np.full(9, 7.5), alpha=0.2)
        assert (scores.probabilities == sigmoid(0.2)).all()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="values must be finite"):
            all_active_scores([0.0, np.inf])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                              allow_nan=False), min_size=2, max_size=40))
    def test_range_and_extremes(self, values):
        """The shifted values span exactly 1 when the input has spread, and
        0 when it has none; the extremes score lowest and highest."""
        p = all_active_scores(values).probabilities
        v = shifted_values(p)
        if max(values) > min(values):
            assert abs(v.max() - v.min() - 1.0) <= 1e-12
            assert p[np.argmin(values)] == p.min()
            assert p[np.argmax(values)] == p.max()
        else:
            assert (p == p[0]).all()


class TestSigmoidParams:
    def test_defaults(self):
        params = SigmoidParams()
        assert params.slope == 5.0
        assert params.midpoint == 0.5

    @pytest.mark.parametrize("slope", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_slope(self, slope):
        with pytest.raises(ValueError):
            SigmoidParams(slope=slope)


class TestSigmoid:
    def test_midpoint_is_half(self):
        assert float(sigmoid(0.5)) == 0.5
        assert float(sigmoid(0.3, SigmoidParams(9.0, 0.3))) == 0.5

    def test_saturation_stays_open(self):
        hi = float(sigmoid(1e6, SigmoidParams(slope=800.0)))
        lo = float(sigmoid(-1e6, SigmoidParams(slope=800.0)))
        assert 0.0 < lo < hi < 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-3, 3, size=50)
        p = sigmoid(v, SigmoidParams(2.5, 0.1))
        from conftest import oracle_sigmoid
        expected = [oracle_sigmoid(x, 2.5, 0.1) for x in v]
        np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12)


class TestScoreMap:
    def test_chain_matches_oracle_4x4(self):
        counts = [[0, 1, 2, 0], [3, 0, 0, 1], [0, 8, 0, 0], [1, 1, 4, 0]]
        sm = scores_of(counts, alpha=0.2)
        expected = chain_oracle(counts, 0.2)
        np.testing.assert_allclose(sm, expected, rtol=0, atol=1e-12)

    def test_degenerate_constant_collapses_to_sigmoid_alpha(self):
        sm = scores_of(np.zeros((5, 5)), alpha=0.1)
        # all-equal occupancy normalizes to zeros, so every pixel scores
        # sigmoid(alpha); for the default params that is expit(-2)
        assert (sm == sm[0, 0]).all()
        np.testing.assert_allclose(sm[0, 0],
                                   0.11920292202211755, rtol=0, atol=1e-12)

    def test_mean_shift_centers_on_alpha(self):
        """The values sparse_scores puts through the sigmoid average alpha
        over every pixel, active or not."""
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 20, size=6 * 9)
        active = np.flatnonzero(counts)
        assert 0 < active.size < counts.size
        for alpha in (0.05, 0.3, 0.9):
            scores = sparse_scores(SensorGeometry(9, 6), active,
                                   occupancy_values(counts[active]), alpha)
            v = shifted_values(scores.lookup(np.arange(counts.size)))
            assert abs(v.mean() - alpha) <= 1e-12

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 50, size=(8, 8)).astype(float)
        sm = scores_of(counts, alpha=0.01, params=SigmoidParams(slope=900.0))
        assert (sm > 0.0).all()
        assert (sm < 1.0).all()

    def test_monotone_in_counts(self):
        counts = np.array([[0.0, 1.0], [5.0, 50.0]])
        sm = scores_of(counts, alpha=0.1)
        assert (np.diff(sm.ravel()) > 0).all()

    def test_alpha_domain(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                scores_of(np.zeros((2, 2)), alpha)


def sparse_of(counts, alpha, params=SigmoidParams(), prior=None):
    """The sparse core fed the way the pipeline feeds it: active pixels and
    their counts only."""
    counts = np.asarray(counts, dtype=np.float64)
    geometry = SensorGeometry(counts.shape[1], counts.shape[0])
    active = np.flatnonzero(counts)
    return sparse_scores(geometry, active,
                         occupancy_values(counts.ravel()[active]),
                         alpha, params, prior)


@st.composite
def scoring_cases(draw):
    """Small count maps with the chain's edge cases: no active pixel, every
    pixel active, a prior that is zero at some active pixels, alpha = 1."""
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["mixed", "none", "all", "zero_prior"]))
    lo = 1 if kind == "all" else 0
    hi = 0 if kind == "none" else 6
    counts = np.array(draw(st.lists(st.integers(lo, hi),
                                    min_size=width * height,
                                    max_size=width * height)),
                      dtype=np.float64).reshape(height, width)
    prior = None
    if kind == "zero_prior" or draw(st.booleans()):
        weights = np.array(draw(st.lists(
            st.floats(0.0, 4.0), min_size=width * height,
            max_size=width * height))).reshape(height, width)
        if kind == "zero_prior":
            weights[counts > 0] *= np.arange(np.count_nonzero(counts)) % 2
        if not (weights > 0).any():
            weights.flat[-1] = 1.0
        prior = PriorMap(SensorGeometry(width, height), weights)
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    params = SigmoidParams(draw(st.floats(0.5, 10.0)),
                           draw(st.floats(0.05, 0.95)))
    return counts, alpha, params, prior


class TestSparseScores:
    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_dense_view_oracle_and_lookup_agree(self, case):
        counts, alpha, params, prior = case
        height, width = counts.shape
        sparse = sparse_of(counts, alpha, params, prior)
        scattered = np.full(width * height, sparse.rest)
        scattered[sparse.active] = sparse.probabilities
        dense = scores_of(counts, alpha, params, prior)
        np.testing.assert_array_equal(dense.ravel(), scattered)
        expected = chain_oracle(
            counts.tolist(), alpha, slope=params.slope,
            midpoint=params.midpoint,
            prior=None if prior is None else prior.weights.tolist())
        np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-12)
        looked_up = sparse.lookup(np.arange(width * height)[::-1])
        np.testing.assert_array_equal(looked_up, scattered[::-1])

    def test_no_active_pixel_scores_sigmoid_alpha(self):
        sparse = sparse_of(np.zeros((3, 4)), 0.1)
        assert sparse.active.size == 0 and sparse.probabilities.size == 0
        assert sparse.rest == float(sigmoid(np.float64(0.1)))
        assert (sparse.lookup(np.array([0, 5, 11])) == sparse.rest).all()

    def test_every_pixel_active_normalizes_from_its_minimum(self):
        # lo is the smallest occupancy, not 0: that pixel maps to g = 0
        counts = np.array([[1.0, 2.0], [3.0, 1.0]])
        sparse = sparse_of(counts, 0.3)
        expected = chain_oracle(counts.tolist(), 0.3)
        np.testing.assert_allclose(sparse.probabilities,
                                   np.ravel(expected), rtol=0, atol=1e-12)
        assert sparse.probabilities[0] == sparse.probabilities[3]
        assert sparse.probabilities[0] < sparse.probabilities[1]

    def test_prior_zero_at_active_pixel_scores_like_inactive(self):
        counts = np.array([[4.0, 0.0, 2.0]])
        weights = np.array([[0.0, 1.0, 2.0]])
        prior = PriorMap(SensorGeometry(3, 1), weights)
        sparse = sparse_of(counts, 0.2, prior=prior)
        assert sparse.active.tolist() == [0, 2]
        assert sparse.probabilities[0] == sparse.rest
        assert sparse.probabilities[1] > sparse.rest

    def test_lookup_between_and_beyond_active_pixels(self):
        counts = np.zeros((1, 10))
        counts[0, [2, 5]] = [1.0, 3.0]
        sparse = sparse_of(counts, 0.2)
        flat = np.array([0, 2, 3, 5, 9])
        rest = sparse.rest
        p2, p5 = sparse.probabilities
        assert sparse.lookup(flat).tolist() == [rest, p2, rest, p5, rest]

    def test_dense_view_keeps_negative_occupancy_semantics(self):
        """Values below 0 lie outside the documented range, but
        sparse_scores still scores them as the dense chain does: inactive
        pixels then normalize above 0 and count toward the mean."""
        counts = np.array([[0.0, -0.5, 2.0], [0.0, 0.0, 1.0]])
        occ = -np.expm1(-counts.ravel())
        active = np.flatnonzero(occ)
        scores = sparse_scores(SensorGeometry(3, 2), active, occ[active], 0.3)
        np.testing.assert_allclose(scores.lookup(np.arange(6)).reshape(2, 3),
                                   chain_oracle(counts.tolist(), 0.3),
                                   rtol=0, atol=1e-12)

    def test_inactive_pixels_share_moves_the_mean(self):
        """One active pixel at occupancy -1 on a 4x1 sensor: lo is -1, so
        the three inactive pixels normalize to 1 and their share, 3, makes
        the mean 0.75.  (The compiled freeze leaves the share out: its
        occupancies are never negative, so there the share is always 0.)"""
        scores = sparse_scores(SensorGeometry(4, 1), np.array([0]),
                               np.array([-1.0]), 0.5)
        shift = 0.5 - 0.75
        assert scores.rest == float(sigmoid(np.float64(1.0 + shift)))
        assert scores.probabilities.tolist() == [
            float(sigmoid(np.float64(0.0 + shift)))]

    def test_alpha_domain_and_prior_geometry_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            sparse_of(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError, match="geometry"):
            sparse_of(np.ones((2, 2)), 0.5,
                      prior=gaussian_prior(SensorGeometry(3, 3)))


class TestPriorMap:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            PriorMap(GEO4, np.full((4, 4), -0.1))
        with pytest.raises(ValueError):
            PriorMap(GEO4, np.zeros((4, 4)))
        bad = np.ones((4, 4))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            PriorMap(GEO4, bad)
        with pytest.raises(ValueError):
            PriorMap(GEO4, np.ones((3, 4)))

    def test_constant_prior_equals_no_prior_bitwise(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 30, size=(6, 6)).astype(float)
        flat_prior = PriorMap(SensorGeometry(6, 6), np.full((6, 6), 3.7))
        plain = scores_of(counts, 0.2)
        with_prior = scores_of(counts, 0.2, prior=flat_prior)
        np.testing.assert_array_equal(plain, with_prior)

    def test_prior_chain_matches_oracle(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 25, size=(5, 7)).astype(float)
        weights = rng.uniform(0.1, 4.0, size=(5, 7))
        sm = scores_of(counts, 0.15,
                       prior=PriorMap(SensorGeometry(7, 5), weights))
        expected = chain_oracle(counts.tolist(), 0.15,
                                prior=weights.tolist())
        np.testing.assert_allclose(sm, expected, rtol=0, atol=1e-12)

    def test_prior_steers_scores(self):
        # equal occupancy everywhere: only the prior differentiates pixels
        counts = np.full((4, 4), 5.0)
        weights = np.ones((4, 4))
        weights[0, 0] = 10.0
        sm = scores_of(counts, 0.2, prior=PriorMap(GEO4, weights))
        assert sm[0, 0] > sm[3, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=-8, max_value=8), st.integers(0, 2**32))
    def test_power_of_two_scaling_is_bitwise_invariant(self, exponent, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, size=(4, 5)).astype(float)
        weights = rng.uniform(0.25, 8.0, size=(4, 5))
        geometry = SensorGeometry(5, 4)
        a = scores_of(counts, 0.3, prior=PriorMap(geometry, weights))
        scaled = weights * 2.0 ** exponent
        b = scores_of(counts, 0.3, prior=PriorMap(geometry, scaled))
        np.testing.assert_array_equal(a, b)

    def test_geometry_mismatch_rejected(self):
        prior = gaussian_prior(SensorGeometry(5, 5))
        with pytest.raises(ValueError):
            scores_of(np.zeros((4, 4)), 0.5, prior=prior)


class TestGaussianPrior:
    def test_peak_one_at_center_odd_dims(self):
        prior = gaussian_prior(SensorGeometry(9, 7))
        assert prior.weights[3, 4] == 1.0
        assert prior.weights.max() == 1.0

    def test_symmetry(self):
        w = gaussian_prior(SensorGeometry(8, 6)).weights
        np.testing.assert_array_equal(w, w[::-1, :])
        np.testing.assert_array_equal(w, w[:, ::-1])

    def test_default_sigma_quarter_dimension(self):
        geo = SensorGeometry(16, 8)
        default = gaussian_prior(geo).weights
        explicit = gaussian_prior(geo, sigma_x=4.0, sigma_y=2.0).weights
        np.testing.assert_array_equal(default, explicit)

    def test_one_sigma_value(self):
        # odd dims put the center on a pixel; one sigma out is exp(-0.5)
        prior = gaussian_prior(SensorGeometry(17, 9), sigma_x=4.0, sigma_y=2.0)
        np.testing.assert_allclose(prior.weights[4, 12], math.exp(-0.5),
                                   rtol=1e-15)

    def test_monotone_decay_from_center(self):
        w = gaussian_prior(SensorGeometry(11, 11)).weights
        row = w[5, :]
        assert (np.diff(row[:6]) > 0).all()
        assert (np.diff(row[5:]) < 0).all()

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_prior(GEO4, sigma_x=0.0)
