import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from multiwalk.objectives import (MAX_ENUMERATION_STATES, ObjectiveSpec, _ehrenfest_table,
                                  _ln_gamma, _quartic, ehrenfest, evaluate_batch, get_objective,
                                  objective_names, trefethen, wild)


def test_registry_names():
    assert objective_names() == [
        "ehrenfest15", "ehrenfest4",
        "trefethen1", "trefethen2", "trefethen3",
        "wild1", "wild2", "wild3",
    ]


def test_unknown_objective():
    with pytest.raises(KeyError):
        get_objective("nope")


def test_registry_bounds():
    assert np.array_equal(get_objective("ehrenfest4").upper, [17.0])
    assert np.array_equal(get_objective("ehrenfest15").upper, [32769.0])
    w3 = get_objective("wild3")
    assert np.array_equal(w3.lower, [-50.0] * 3) and np.array_equal(w3.upper, [50.0] * 3)
    t2 = get_objective("trefethen2")
    assert np.array_equal(t2.lower, [-1.0] * 2) and np.array_equal(t2.upper, [1.0] * 2)


def test_wild_at_origin_is_exactly_80():
    assert evaluate_batch(get_objective("wild1"), [[0.0]])[0] == 80.0


def test_wild_mean_of_identical_coordinates():
    t = -15.815
    v1 = evaluate_batch(get_objective("wild1"), [[t]])[0]
    v3 = evaluate_batch(get_objective("wild3"), [[t, t, t]])[0]
    assert v3 == pytest.approx(v1, rel=1e-14)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=3))
def test_wild_separability(coords):
    per_coord = [float(wild(np.array([[c]]))[0]) for c in coords]
    joint = float(wild(np.array([coords]))[0])
    assert joint == pytest.approx(np.mean(per_coord), rel=1e-12, abs=1e-12)


def _rounds_like_fractions(t) -> bool:
    return _quartic(t).tolist() == [float(Fraction(x) ** 4) for x in t.tolist()]


def test_quartic_is_correctly_rounded():
    rng = np.random.default_rng(4)
    u, v = rng.uniform(-50.0, 50.0, size=(2, 5000))
    tiny = np.geomspace(1e-82, 1e-70, 2000)  # around the exact squares' underflow limit
    inside = np.concatenate([
        -50.0 + np.abs(u - v),  # ruler-like candidates, mostly negative
        u, np.abs(v),
        [50.0, -50.0, 0.0, -0.0, 5e-324],
        np.arange(-50.0, 51.0),
        tiny, -tiny, 1e-80 * rng.uniform(0.5, 2.0, 1000),
    ])
    assert _rounds_like_fractions(inside)  # and raises no floating-point warning
    huge = np.append(np.geomspace(1e70, 1.15e77, 2000), np.nextafter(2.0 ** 256, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # near the largest finite t**4
        assert _rounds_like_fractions(huge)


@given(st.floats(min_value=-50, max_value=50))
def test_quartic_is_correctly_rounded_in_the_box(t):
    assert _quartic(np.array([t]))[0] == float(Fraction(t) ** 4)


@pytest.mark.parametrize("t, value", [
    (1e60, 9.999999999999999e234), (-1e70, 1.0000000000000003e275),
    (1e80, math.inf), (1e100, math.inf), (math.inf, math.nan), (-math.inf, math.nan),
    (math.nan, math.nan), (0.0, 80.0), (-0.0, 80.0),
])
def test_wild_outside_the_box_keeps_its_values(t, value):
    # numpy's t**4 gave these: +inf where the quartic overflows, NaN where
    # sin sees an infinity
    with np.errstate(over="ignore", invalid="ignore"):
        got = wild(np.array([[t]]))
    assert repr(float(got[0])) == repr(value)


def test_trefethen_anchor_values():
    v2 = evaluate_batch(get_objective("trefethen2"), [[0.0, 0.0]])[0]
    assert v2 == pytest.approx(1.0 + math.sin(60.0), abs=1e-12)
    v1 = evaluate_batch(get_objective("trefethen1"), [[0.0]])[0]
    assert v1 == v2
    with pytest.raises(ValueError, match="1, 2 or 3 dimensions"):
        trefethen(np.zeros((1, 4)), 4)


def test_trefethen3_chains_pairs():
    # exact, since the oracle's chain scan sums trefethen2 pairs in place of trefethen3
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20000, 3))
    t2 = get_objective("trefethen2")
    v3 = evaluate_batch(get_objective("trefethen3"), pts)
    vxy = evaluate_batch(t2, pts[:, :2])
    vyz = evaluate_batch(t2, pts[:, 1:])
    assert np.array_equal(v3, vxy + vyz)


def test_ehrenfest_values():
    spec = get_objective("ehrenfest4")
    assert evaluate_batch(spec, [[1.0]])[0] == 0.0
    v9 = evaluate_batch(spec, [[9.0]])[0]
    assert v9 == pytest.approx(-1.01 * math.log(math.comb(16, 8)), rel=1e-13)


def test_ehrenfest_staircase_in_x():
    spec = get_objective("ehrenfest4")
    assert evaluate_batch(spec, [[8.7]])[0] == evaluate_batch(spec, [[9.2]])[0]


def test_ehrenfest_symmetry_all_n_up_to_16():
    for n in range(1, 17):
        s = 2 ** n + 1
        xs = np.arange(1, s + 1, dtype=float)[:, None]
        values = ehrenfest(xs, n=n)
        assert np.array_equal(values, values[::-1]), f"n={n}"


def test_ehrenfest_center_minimum_all_n_up_to_16():
    for n in range(1, 17):
        s = 2 ** n + 1
        xs = np.arange(1, s + 1, dtype=float)[:, None]
        values = ehrenfest(xs, n=n)
        center = 2 ** (n - 1) + 1
        assert int(np.argmin(values)) + 1 == center, f"n={n}"
        assert np.count_nonzero(values == values.min()) == 1, f"n={n}"


def test_ehrenfest_rejects_huge_n():
    with pytest.raises(ValueError):
        ehrenfest(np.array([[1.0]]), n=61)
    # 2**24 + 1 states exceed the enumeration limit: refused before the
    # 128 MB table is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            ehrenfest(np.array([[1.0]]), n=24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _ehrenfest_closed_form(points, n):
    """The gammaln closed form ``ehrenfest`` evaluated per call before its
    values came from a table; the table must reproduce it bit for bit."""
    big_n = 2 ** n
    points = np.asarray(points, dtype=float)
    k = np.clip(np.round(points[..., 0]) - 1.0, 0.0, float(big_n)).astype(np.int64)
    ln_comb = gammaln(big_n + 1.0) - (gammaln(k + 1.0) + gammaln(big_n - k + 1.0))
    parity = np.where(k % 2 == 0, 1.0, -1.0)
    return -ln_comb * (1.0 + 0.01 * parity)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_ehrenfest_table_matches_closed_form_on_every_state():
    for n in range(1, 17):
        xs = np.arange(1, 2 ** n + 2, dtype=float)[:, None]
        assert _same_bits(ehrenfest(xs, n=n), _ehrenfest_closed_form(xs, n)), f"n={n}"


@pytest.mark.parametrize("n", [4, 15])
def test_ehrenfest_table_matches_closed_form_off_grid(n):
    rng = np.random.default_rng(n)
    s = 2 ** n + 1
    for batch in (1, 32, 960, 100000):
        xs = rng.uniform(-0.5 * s, 1.5 * s, size=(batch, 1))  # half outside the box
        assert _same_bits(ehrenfest(xs, n=n), _ehrenfest_closed_form(xs, n)), batch
    half = np.arange(-3, s + 4)[:, None] + 0.5  # ties round half to even
    edges = np.array([[-np.inf], [np.inf], [-0.0], [0.5], [1.5], [s + 0.5], [1e300]])
    for xs in (half, edges, rng.uniform(1, s, size=(7, 3))):
        assert _same_bits(ehrenfest(xs, n=n), _ehrenfest_closed_form(xs, n))
    point = np.array([s / 2.0])  # one point as a 1-D array
    assert _same_bits(ehrenfest(point, n=n), _ehrenfest_closed_form(point, n))


def test_ln_gamma_is_scipys_on_every_enumerable_integer():
    # the largest table the enumeration limit admits is ehrenfest23's, which
    # reads ln-gamma at 1..2**23 + 1
    top = MAX_ENUMERATION_STATES // 2 + 1
    assert _same_bits(_ln_gamma(top), gammaln(np.arange(1.0, top + 1.0)))


def test_ehrenfest_table_is_read_only():
    values = ehrenfest(np.array([[3.0]]), n=4)
    assert values.flags.writeable  # the caller's copy, not the table
    table = _ehrenfest_table(4)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    assert _ehrenfest_table(4) is table


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points", [[[np.nan]], [[3.0], [np.nan], [-np.inf], [9.0]]],
                         ids=["lone", "among-valid"])
def test_ehrenfest_nan_coordinate_is_a_value_error(points):
    with pytest.raises(ValueError, match=r"ehrenfest15: a coordinate is NaN"):
        evaluate_batch(get_objective("ehrenfest15"), points)


def test_ehrenfest_empty_batch_is_empty():
    values = evaluate_batch(get_objective("ehrenfest15"), np.zeros((0, 1)))
    assert values.shape == (0,)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate_batch(get_objective("wild2"), [[0.0]])
    with pytest.raises(ValueError):
        evaluate_batch(get_objective("wild2"), np.zeros((3, 1)))


def test_evaluate_out_of_bounds_still_evaluates():
    value = evaluate_batch(get_objective("wild1"), [[60.0]])[0]
    assert math.isfinite(value)


def test_evaluate_deterministic():
    spec = get_objective("trefethen2")
    x = [0.123, -0.456]
    assert evaluate_batch(spec, [x])[0] == evaluate_batch(spec, [x])[0]


@given(st.sampled_from(objective_names()), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 200), st.data())
def test_kernel_batch_invariance(name, seed, size, data):
    # a batch's values do not depend on how the points are batched or laid
    # out: sub-batches, single points and a view offset by one float in a
    # larger buffer give the same bytes
    spec = get_objective(name)
    rng = np.random.default_rng(seed)
    points = spec.lower + rng.uniform(size=(size, spec.dims)) * (spec.upper - spec.lower)
    whole = evaluate_batch(spec, points).tobytes()
    cuts = sorted(data.draw(st.lists(st.integers(1, size - 1), max_size=5))) if size > 1 else []
    parts = [part for part in np.split(points, cuts) if len(part)]
    assert np.concatenate([evaluate_batch(spec, part) for part in parts]).tobytes() == whole
    singles = [evaluate_batch(spec, points[i:i + 1]) for i in range(size)]
    assert np.concatenate(singles).tobytes() == whole
    buffer = np.empty(points.size + 1)
    shifted = buffer[1:].reshape(points.shape)
    shifted[...] = points
    assert evaluate_batch(spec, shifted).tobytes() == whole


def test_spec_invariants():
    with pytest.raises(ValueError, match="bounds must be length-2 vectors"):
        ObjectiveSpec(name="bad", dims=2, lower=[0.0], upper=[1.0, 1.0], fn=wild)
    with pytest.raises(ValueError, match="bounds must be length-1 vectors"):
        ObjectiveSpec(name="bad", dims=1, lower=[0.0], upper=[[1.0]], fn=wild)
    with pytest.raises(ValueError):
        ObjectiveSpec(name="bad", dims=1, lower=[1.0], upper=[1.0], fn=wild)
    with pytest.raises(ValueError, match="digits_target must be >= 1"):
        ObjectiveSpec(name="bad", dims=1, lower=[0.0], upper=[1.0], fn=wild, digits_target=0)
    with pytest.raises(ValueError):
        ObjectiveSpec(name="bad", dims=1, lower=[0.0], upper=[1.0], fn=wild,
                      value_target=0.123456789123, digits_target=3)


def test_with_target_quantizes():
    spec = get_objective("wild1").with_target(67.46773474158633)
    assert spec.value_target == 67.4677347
    spec6 = replace(get_objective("wild1"), digits_target=6).with_target(67.46773474158633)
    assert spec6.value_target == 67.4677
    assert spec6.digits_target == 6
