"""The score sigmoid: compiled kernel, Python fallback and
scipy.special.expit agree bit for bit.  scipy is needed only here."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evdown import SigmoidParams, capwalk, sigmoid

from conftest import force_python_walk

special = pytest.importorskip("scipy.special")

MIN_NORMAL = 2.2250738585072014e-308
# exp overflows just above ln(DBL_MAX) and underflows to 0 around
# ln(DBL_TRUE_MIN); the sigmoid saturates to 0.0 or 1.0 around both.
LN_MAX = 709.782712893384
LN_MIN_SUBNORMAL = 745.1332191019411
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
         math.ulp(0.0), -math.ulp(0.0), MIN_NORMAL, -MIN_NORMAL,
         math.nextafter(MIN_NORMAL, 0.0), -math.nextafter(MIN_NORMAL, 0.0),
         LN_MAX, -LN_MAX, LN_MIN_SUBNORMAL, -LN_MIN_SUBNORMAL,
         745.0, -745.0, 800.0, -800.0, 36.7, 37.5, 1e308, -1e308]


def python_expit(x):
    with pytest.MonkeyPatch.context() as mp:
        force_python_walk(mp)
        return capwalk.expit(x)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_agree(x):
    """Fallback and (where it builds) compiled kernel against scipy: the
    same bits, the same shape and the same type."""
    expected = special.expit(x)
    results = [python_expit(x)]
    if capwalk._kernel() is not None:
        results.append(capwalk.expit(x))
    for got in results:
        assert type(got) is type(expected)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(bits(got), bits(expected))


def near(centre):
    """Floats within 2**20 ulp of centre, on either side."""
    base = int(bits(centre))
    return st.integers(-2**20, 2**20).map(
        lambda k: float(np.uint64(base + k).view(np.float64)))


any_float = st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True)


class TestExpitAgrees:
    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(any_float, max_size=300))
    @example(x=EDGES)
    @example(x=[])
    def test_finite_and_special_floats(self, x):
        assert_agree(np.array(x, dtype=np.float64))

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.one_of([near(c) for c in
                                 (LN_MAX, -LN_MAX, LN_MIN_SUBNORMAL,
                                  -LN_MIN_SUBNORMAL)]),
                      min_size=1, max_size=100))
    def test_around_overflow_and_underflow(self, x):
        assert_agree(np.array(x, dtype=np.float64))

    @settings(max_examples=150, deadline=None)
    @given(x=st.lists(st.floats(-40.0, 40.0), max_size=200))
    def test_score_range(self, x):
        """Where the scoring chain's arguments lie."""
        assert_agree(np.array(x, dtype=np.float64))

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.float64,
                        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                         max_side=5),
                        elements=any_float))
    def test_shapes(self, x):
        """Empty, 0-d and n-d inputs; a 0-d input gives an np.float64."""
        assert_agree(x)
        if x.ndim >= 1:
            assert_agree(x[::-2])
            assert_agree(x.T)

    @pytest.mark.parametrize("x", [0.25, -3, np.float64(2.5), np.asarray(7.0),
                                   [1.0, -1.0], np.arange(6.0).reshape(2, 3)])
    def test_input_kinds(self, x):
        assert_agree(x)

    def test_input_untouched(self):
        x = np.linspace(-3, 3, 7)
        copy = x.copy()
        for got in (capwalk.expit(x), python_expit(x)):
            assert np.array_equal(x, copy)
            assert not np.shares_memory(got, x)

    def test_fallback_across_blocks(self, monkeypatch):
        monkeypatch.setattr(capwalk, "_BLOCK", 7)
        x = np.random.default_rng(4).normal(0, 300, 100)
        assert np.array_equal(bits(python_expit(x)), bits(special.expit(x)))

    def test_sigmoid_matches_scipy(self, cap_walk):
        """On hosts whose numpy exp is vectorized (AVX-512), about 2% of
        these would differ if sigmoid used numpy's exp."""
        v = np.random.default_rng(5).uniform(-2.0, 3.0, 20_000)
        params = SigmoidParams(slope=7.0, midpoint=0.3)
        expected = np.clip(special.expit(7.0 * (v - 0.3)), math.ulp(0.0),
                           math.nextafter(1.0, 0.0))
        assert np.array_equal(bits(sigmoid(v, params)), bits(expected))
        assert type(sigmoid(0.3)) is np.float64
        assert type(sigmoid(np.asarray(0.3))) is np.float64
        assert sigmoid(np.zeros((2, 3))).shape == (2, 3)
