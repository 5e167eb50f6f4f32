import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from multiwalk.objectives import (EvalCounter, ObjectiveSpec, _ehrenfest_table,
                                  ehrenfest, evaluate_batch, get_objective,
                                  objective_names, wild)


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
    counter = EvalCounter()
    assert evaluate_batch(get_objective("wild1"), [[0.0]], counter)[0] == 80.0
    assert counter.probes == 1


def test_wild_mean_of_identical_coordinates():
    counter = EvalCounter()
    t = -15.815
    v1 = evaluate_batch(get_objective("wild1"), [[t]], counter)[0]
    v3 = evaluate_batch(get_objective("wild3"), [[t, t, t]], counter)[0]
    assert v3 == pytest.approx(v1, rel=1e-14)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=3))
def test_wild_separability(coords):
    per_coord = [float(wild(np.array([[c]]))[0]) for c in coords]
    joint = float(wild(np.array([coords]))[0])
    assert joint == pytest.approx(np.mean(per_coord), rel=1e-12, abs=1e-12)


def test_trefethen_anchor_values():
    counter = EvalCounter()
    v2 = evaluate_batch(get_objective("trefethen2"), [[0.0, 0.0]], counter)[0]
    assert v2 == pytest.approx(1.0 + math.sin(60.0), abs=1e-12)
    v1 = evaluate_batch(get_objective("trefethen1"), [[0.0]], counter)[0]
    assert v1 == v2


def test_trefethen3_chains_pairs():
    # exact, since the oracle's chain scan sums trefethen2 pairs in place of trefethen3
    counter = EvalCounter()
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20000, 3))
    t2 = get_objective("trefethen2")
    v3 = evaluate_batch(get_objective("trefethen3"), pts, counter)
    vxy = evaluate_batch(t2, pts[:, :2], counter)
    vyz = evaluate_batch(t2, pts[:, 1:], counter)
    assert np.array_equal(v3, vxy + vyz)


def test_ehrenfest_values():
    counter = EvalCounter()
    spec = get_objective("ehrenfest4")
    assert evaluate_batch(spec, [[1.0]], counter)[0] == 0.0
    v9 = evaluate_batch(spec, [[9.0]], counter)[0]
    assert v9 == pytest.approx(-1.01 * math.log(math.comb(16, 8)), rel=1e-13)


def test_ehrenfest_staircase_in_x():
    spec = get_objective("ehrenfest4")
    counter = EvalCounter()
    assert evaluate_batch(spec, [[8.7]], counter)[0] == evaluate_batch(spec, [[9.2]], counter)[0]


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
        evaluate_batch(get_objective("ehrenfest15"), points, EvalCounter())


def test_ehrenfest_empty_batch_is_empty():
    values = evaluate_batch(get_objective("ehrenfest15"), np.zeros((0, 1)), EvalCounter())
    assert values.shape == (0,)


def test_evaluate_dimension_mismatch():
    counter = EvalCounter()
    with pytest.raises(ValueError):
        evaluate_batch(get_objective("wild2"), [[0.0]], counter)
    with pytest.raises(ValueError):
        evaluate_batch(get_objective("wild2"), np.zeros((3, 1)), counter)
    assert counter.probes == 0


def test_evaluate_out_of_bounds_still_evaluates():
    counter = EvalCounter()
    value = evaluate_batch(get_objective("wild1"), [[60.0]], counter)[0]
    assert math.isfinite(value)
    assert counter.probes == 1


def test_evaluate_deterministic():
    counter = EvalCounter()
    spec = get_objective("trefethen2")
    x = [0.123, -0.456]
    assert evaluate_batch(spec, [x], counter)[0] == evaluate_batch(spec, [x], counter)[0]


@given(st.lists(st.integers(min_value=1, max_value=40), max_size=12))
def test_probe_accounting_exact(batch_sizes):
    counter = EvalCounter()
    spec = get_objective("wild1")
    rng = np.random.default_rng(0)
    total = 0
    for size in batch_sizes:
        evaluate_batch(spec, rng.uniform(-50, 50, size=(size, 1)), counter)
        total += size
    assert counter.probes == total


def test_spec_invariants():
    with pytest.raises(ValueError):
        ObjectiveSpec(name="bad", dims=1, lower=[1.0], upper=[1.0], fn=wild)
    with pytest.raises(ValueError):
        ObjectiveSpec(name="bad", dims=1, lower=[0.0], upper=[1.0], fn=wild,
                      value_target=0.123456789123, digits_target=3)


def test_with_target_quantizes():
    spec = get_objective("wild1").with_target(67.46773474158633)
    assert spec.value_target == 67.4677347
    spec6 = replace(get_objective("wild1"), digits_target=6).with_target(67.46773474158633)
    assert spec6.value_target == 67.4677
    assert spec6.digits_target == 6
