import math

import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiwalk.objectives import ObjectiveSpec, get_objective, quantize
from multiwalk.targets import (TargetRecord, TargetStore, compute_target,
                               enumerate_integer_minimum, grid_refine_minimum)


def _argmin_ties(spec):
    """Number of integer states sharing the minimum value of ``spec.fn``."""
    states = np.arange(spec.lower[0], spec.upper[0] + 1.0)[:, None]
    values = np.asarray(spec.fn(states), dtype=float)
    return int(np.count_nonzero(values == values.min()))


def test_ehrenfest4_enumeration(ehrenfest4_target):
    rec = ehrenfest4_target
    assert rec.method == "enumeration"
    assert rec.coords == (9.0,)
    assert _argmin_ties(get_objective("ehrenfest4")) == 1
    assert rec.value_target == quantize(-1.01 * math.log(math.comb(16, 8)), 9)


def test_ehrenfest15_center_minimizer():
    rec = compute_target(get_objective("ehrenfest15"))
    assert rec.coords == (16385.0,)
    assert _argmin_ties(get_objective("ehrenfest15")) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_enumeration_agrees_with_naive_loop(n):
    # independent re-derivation: exact binomials and plain python floats
    s = 2 ** n + 1
    big_n = 2 ** n
    best_x, best_v = None, math.inf
    for x in range(1, s + 1):
        k = x - 1
        value = -math.log(math.comb(big_n, k)) * (1.01 if k % 2 == 0 else 0.99)
        if value < best_v:
            best_x, best_v = x, value
    from functools import partial
    from multiwalk.objectives import ehrenfest
    spec = ObjectiveSpec(name=f"ehr{n}", dims=1, lower=[1.0], upper=[float(s)],
                         fn=partial(ehrenfest, n=n), staircase=True)
    rec = enumerate_integer_minimum(spec)
    assert rec.coords == (float(best_x),)
    assert rec.value_target == quantize(best_v, 9)


def test_enumeration_refuses_too_many_states():
    from functools import partial
    from multiwalk.objectives import ehrenfest
    n = 25
    spec = ObjectiveSpec(name="huge", dims=1, lower=[1.0], upper=[float(2 ** n + 1)],
                         fn=partial(ehrenfest, n=n), staircase=True)
    with pytest.raises(ValueError):
        enumerate_integer_minimum(spec)


def test_dispatch_guards():
    with pytest.raises(ValueError):
        enumerate_integer_minimum(get_objective("wild1"))
    with pytest.raises(ValueError):
        grid_refine_minimum(get_objective("ehrenfest4"))


def test_quadratic_bowl_sanity():
    spec = ObjectiveSpec(name="bowl", dims=1, lower=[-2.0], upper=[2.0],
                         fn=lambda pts: np.sum(pts * pts, axis=-1))
    rec = grid_refine_minimum(spec, coarse_points=101)
    assert rec.value_target == 0.0
    assert rec.coords[0] == pytest.approx(0.0, abs=1e-12)


def test_wild1_target_value():
    rec = compute_target(get_objective("wild1"))
    assert rec.value_target == 67.4677347
    assert rec.coords[0] == pytest.approx(-15.81515, abs=1e-4)


def test_wild_targets_identical_across_dimensions():
    recs = {p: compute_target(get_objective(f"wild{p}")) for p in (1, 2, 3)}
    assert recs[1].value_target == recs[2].value_target == recs[3].value_target
    assert recs[3].coords == recs[1].coords * 3


def test_trefethen2_matches_published_challenge_value():
    rec = compute_target(get_objective("trefethen2"))
    # reference minimum of the 2002 hundred-digit challenge problem
    assert rec.value_target == quantize(-3.3068686474752372, 9)
    assert rec.coords[0] == pytest.approx(-0.02440307969, abs=1e-6)
    assert rec.coords[1] == pytest.approx(0.21061242715, abs=1e-6)


def test_refinement_never_worsens_the_incumbent():
    spec = get_objective("trefethen1")
    shallow = grid_refine_minimum(spec, coarse_points=501, refine_rounds=0, digits=12)
    deep = grid_refine_minimum(spec, coarse_points=501, refine_rounds=40, digits=12)
    assert deep.value_target <= shallow.value_target


def test_oracle_reproducible():
    a = compute_target(get_objective("trefethen1"))
    b = compute_target(get_objective("trefethen1"))
    assert a == b


def test_uncensored_mw_coord_rounds_to_an_enumerated_minimizer():
    # full-radius multi-walk solutions land inside the winning state's
    # rounding window for small staircases
    from functools import partial
    from multiwalk.solvers import SolverConfig, run_solver
    from multiwalk.objectives import ehrenfest
    for n in (4, 6, 8):
        s = 2 ** n + 1
        spec = ObjectiveSpec(name=f"ehr{n}", dims=1, lower=[1.0], upper=[float(s)],
                             fn=partial(ehrenfest, n=n), staircase=True)
        rec = enumerate_integer_minimum(spec)
        assert _argmin_ties(spec) == 1  # so rec.coords is the only minimizer
        spec = spec.with_target(rec.value_target)
        solved = 0
        for seed in range(8):
            cfg = SolverConfig(kind="MWR", seed=seed,
                               steps_limit=3000, marks=12, radius=10, dither=0.01)
            record = run_solver(cfg, spec)
            if not record.is_censored:
                solved += 1
                assert round(record.coord_best[0]) == rec.coords[0]
        assert solved > 0, f"n={n}: no run solved; weak test setup"


def test_store_roundtrip(tmp_path, ehrenfest4_target):
    store = TargetStore()
    store.add(ehrenfest4_target)
    store.add(compute_target(get_objective("wild1"), digits=6))
    path = tmp_path / "targets.csv"
    store.save(path)
    loaded = TargetStore.load(path)
    rec = loaded.lookup("ehrenfest4", 9)
    assert rec.value_target == ehrenfest4_target.value_target
    assert rec.coords == ehrenfest4_target.coords
    assert loaded.lookup("wild1", 6).digits == 6
    assert loaded.lookup("wild1", 9) is None
    # identical content on rewrite
    store.save(tmp_path / "again.csv")
    assert (tmp_path / "targets.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()
    assert (tmp_path / "targets.csv").read_bytes().endswith(b"\n")


def test_store_apply(ehrenfest4_target):
    store = TargetStore()
    store.add(ehrenfest4_target)
    spec = store.apply(get_objective("ehrenfest4"), digits=9)
    assert spec.value_target == ehrenfest4_target.value_target
    with pytest.raises(KeyError):
        store.apply(get_objective("wild1"), digits=9)


_token = st.text(string.ascii_letters + string.digits + "+_.-", min_size=1, max_size=12)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.dictionaries(
    st.tuples(_token, st.integers(1, 16)),
    st.tuples(_finite, st.lists(_finite, min_size=1, max_size=3).map(tuple), _token),
    max_size=6))
def test_store_load_dumps_roundtrip(tmp_path_factory, entries):
    store = TargetStore()
    for (name, digits), (value, coords, method) in entries.items():
        store.add(TargetRecord(name=name, value_target=value, digits=digits,
                               coords=coords, method=method))
    path = tmp_path_factory.mktemp("store") / "targets.csv"
    path.write_text(store.dumps(), encoding="utf-8")
    loaded = TargetStore.load(path)

    def fields(s):
        return [(r.name, r.digits, r.value_target, r.coords, r.method) for r in s.records()]

    assert fields(loaded) == fields(store)


_store_text = st.one_of(
    st.text(),
    st.lists(st.lists(st.one_of(st.integers(-2, 12).map(str), st.floats().map(repr),
                                st.text(max_size=5)), max_size=6).map(",".join),
             max_size=5).map("\n".join))


@given(_store_text)
def test_store_load_on_arbitrary_text(tmp_path_factory, text):
    # arbitrary text either loads or raises ValueError naming the bad line
    path = tmp_path_factory.mktemp("fuzz") / "targets.csv"
    path.write_text(text, encoding="utf-8")
    try:
        store = TargetStore.load(path)
    except ValueError as exc:
        assert "line" in str(exc)
        return
    for rec in store.records():
        assert math.isfinite(rec.value_target) and rec.digits >= 1
