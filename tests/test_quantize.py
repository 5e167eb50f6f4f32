import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiwalk.objectives import quantize

# Exact (correctly rounded) float values of 10**k for the reference below.
_POW10_MIN = -340
_POW10_LIST = [float(f"1e{k}") for k in range(_POW10_MIN, 341)]


def _quantize_scalar(value: float, digits: int) -> float:
    """The one-value quantizer ``quantize`` once used for scalars, kept as
    an independent reference for the array quantizer that runs."""
    if value == 0.0 or not math.isfinite(value):
        return value
    a = abs(value)
    e = math.floor(math.log10(a))
    # log10 can land one decade off near boundaries; repair by exact compares
    if a >= _POW10_LIST[e + 1 - _POW10_MIN]:
        e += 1
    elif a < _POW10_LIST[e - _POW10_MIN]:
        e -= 1
    k = digits - 1 - e
    k1 = min(max(k, -308), 308)  # two-step scaling keeps factors finite
    scaled = (a * _POW10_LIST[k1 - _POW10_MIN]) * _POW10_LIST[k - k1 - _POW10_MIN]
    n = math.floor(scaled + 0.5)
    if n >= _POW10_LIST[digits - _POW10_MIN]:
        # rounded up across a decade: renormalize so requantization is stable
        n = int(_POW10_LIST[digits - 1 - _POW10_MIN])
        e += 1
        k = digits - 1 - e
        k1 = min(max(k, -308), 308)
    r = (n / _POW10_LIST[k1 - _POW10_MIN]) / _POW10_LIST[k - k1 - _POW10_MIN]
    return math.copysign(r, value)


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
    for digits in (True, False):  # a bool is not a digit count
        with pytest.raises(ValueError):
            quantize(1.2345, digits)


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
       st.integers(min_value=1, max_value=16), st.lists(st.floats(), max_size=8))
def test_scalar_matches_array_path(seed, digits, edge):
    # the random batch spans 42 decades; ``edge`` adds any float, non-finite included
    rng = np.random.default_rng(seed)
    values = np.concatenate([rng.uniform(-1e9, 1e9, 64) * 10.0 ** rng.integers(-12, 12, 64),
                             edge])
    batch = quantize(values, digits)
    for v, q in zip(values.tolist(), batch.tolist()):
        assert repr(_quantize_scalar(v, digits)) == repr(q)


@pytest.mark.parametrize("digits", [1, 9, 16])
@pytest.mark.parametrize("side", [0.0, math.inf])
def test_powers_of_ten_and_their_neighbors_match_the_reference(digits, side):
    # np.log10 lands on the wrong decade for most values just below a power of
    # ten, which the exact decade repair must undo; the table's ends add 0,
    # subnormals, the largest double and inf
    powers = np.array(_POW10_LIST)
    values = np.concatenate([powers, np.nextafter(powers, side)])
    assert quantize(values, digits).tolist() == [_quantize_scalar(v, digits)
                                                 for v in values.tolist()]


def test_array_shape_and_passthrough():
    values = np.array([0.0, np.inf, -np.inf, np.nan, 1234.5784001])
    out = quantize(values, 9)
    assert out.shape == values.shape
    assert out[0] == 0.0 and out[1] == np.inf and out[2] == -np.inf
    assert np.isnan(out[3])
    assert out[4] == 1234.5784


@pytest.mark.parametrize("value", [1234.5784001, 7, np.float64(1234.5784001),
                                   np.array(1234.5784001)])
def test_scalar_inputs_give_a_python_float(value):
    # a `valueTarget = ...` header line prints the repr, never np.float64(...)
    q = quantize(value, 9)
    assert type(q) is float
    assert q == _quantize_scalar(float(value), 9)


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_arrays_keep_their_shape(shape):
    values = np.linspace(-3.14159, 2.71828, math.prod(shape)).reshape(shape)
    out = quantize(values, 3)
    assert isinstance(out, np.ndarray) and out.shape == shape
    assert out.ravel().tolist() == [_quantize_scalar(v, 3) for v in values.ravel().tolist()]


@pytest.mark.parametrize("value", [math.pi, np.float64(math.pi), np.array([math.pi, 1.0])])
def test_seventeen_digits_returns_the_input(value):
    assert quantize(value, 17) is value
