import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiwalk.objectives import quantize


def test_subtraction_example_bit_exact():
    assert quantize(1234.5789 - 0.0004999, 9) == 1234.5784


def test_zero_fixed_point():
    assert quantize(0.0, 9) == 0.0
    assert quantize(-0.0, 9) == 0.0


def test_negative_hand_check():
    assert quantize(-78544.95288, 9) == -78544.9529


def test_representable_ties_round_away_from_zero():
    # 0.25 and 1.5 are exact in binary, so the tie rule is observable
    assert quantize(0.25, 1) == 0.3
    assert quantize(-0.25, 1) == -0.3
    assert quantize(1.5, 1) == 2.0
    assert quantize(-1.5, 1) == -2.0


def test_fewer_digits():
    assert quantize(67.46773474158633, 9) == 67.4677347
    assert quantize(67.46773474158633, 6) == 67.4677
    assert quantize(-3.3068686474752372, 8) == -3.3068686


def test_non_finite_passthrough():
    assert math.isnan(quantize(float("nan"), 9))
    assert quantize(float("inf"), 9) == float("inf")
    assert quantize(float("-inf"), 9) == float("-inf")


def test_digits_validation():
    with pytest.raises(ValueError):
        quantize(1.0, 0)
    with pytest.raises(ValueError):
        quantize(1.0, -3)


def test_large_digits_returns_value():
    assert quantize(math.pi, 17) == math.pi
    assert quantize(math.pi, 40) == math.pi


def test_decade_carry():
    assert quantize(999.96, 4) == 1000.0
    assert quantize(0.99999, 3) == 1.0


@given(st.floats(allow_nan=False), st.integers(min_value=1, max_value=14))
def test_idempotent_and_odd(value, digits):
    q = quantize(value, digits)
    assert quantize(q, digits) == q
    assert quantize(-value, digits) == -q


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
       st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
       st.integers(min_value=1, max_value=14))
def test_monotone(a, b, digits):
    lo, hi = min(a, b), max(a, b)
    assert quantize(lo, digits) <= quantize(hi, digits)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=14))
def test_scalar_matches_array_path(seed, digits):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e9, 1e9, 64) * 10.0 ** rng.integers(-12, 12, 64)
    batch = quantize(values, digits)
    for v, q in zip(values, batch):
        assert quantize(float(v), digits) == q


def test_array_shape_and_passthrough():
    values = np.array([0.0, np.inf, -np.inf, np.nan, 1234.5784001])
    out = quantize(values, 9)
    assert out.shape == values.shape
    assert out[0] == 0.0 and out[1] == np.inf and out[2] == -np.inf
    assert np.isnan(out[3])
    assert out[4] == 1234.5784
