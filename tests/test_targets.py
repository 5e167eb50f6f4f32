import functools
import math
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multiwalk import targets
from multiwalk.objectives import (ObjectiveSpec, get_objective, objective_names, quantize,
                                  trefethen)
from multiwalk.targets import (TargetRecord, TargetStore, compute_target,
                               enumerate_integer_minimum, grid_refine_minimum)
from test_probe_fingerprint import _active_cpu_features, dispatch_class


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


def _staircase(name, fn, states):
    return ObjectiveSpec(name=name, dims=1, lower=[1.0], upper=[float(states)],
                         fn=fn, staircase=True)


def test_enumeration_skips_a_nan_state_and_takes_the_lowest_tie():
    # minima 0 at states 5 and 7, state 3 NaN: argmin would pick the NaN
    def fn(pts):
        x = pts[:, 0]
        return np.where(x == 3.0, np.nan, np.minimum(np.abs(x - 5.0), np.abs(x - 7.0)))

    rec = enumerate_integer_minimum(_staircase("nan3", fn, 9))
    assert rec.value_target == 0.0
    assert rec.coords == (5.0,)


def test_enumeration_in_small_slabs_matches_one_slab(monkeypatch):
    from functools import partial
    from multiwalk.objectives import ehrenfest
    spec = _staircase("ehrenfest8", partial(ehrenfest, n=8), 2 ** 8 + 1)
    whole = enumerate_integer_minimum(spec)
    monkeypatch.setattr(targets, "BATCH_POINTS", 7)
    assert enumerate_integer_minimum(spec) == whole


_scan_axis = st.lists(st.integers(-5, 5), min_size=1, max_size=5, unique=True).map(
    lambda xs: np.array(sorted(xs), dtype=float))
# a first axis this long gives grids of more than 64 cells, so the partition
# in targets._merge cuts the running top and not only orders it
_long_axis = st.integers(65, 140).map(lambda n: np.arange(n, dtype=float) - 70.0)
_grid_axes = st.one_of(
    st.lists(_scan_axis, min_size=1, max_size=3),
    st.builds(lambda first, rest: [first, *rest], _long_axis, st.lists(_scan_axis, max_size=1)))
# a small pool makes ties common; NaN must rank as +inf, behind every number
_value_pool = st.sampled_from([-1.0, -0.0, 0.0, 2.5, math.inf, -math.inf, math.nan])


_grid_and_values = _grid_axes.flatmap(lambda axes: st.tuples(
    st.just(axes), hnp.arrays(float, math.prod(len(a) for a in axes), elements=_value_pool)))


@settings(max_examples=200, deadline=None)
@given(grid_values=_grid_and_values, keep=st.sampled_from([1, 3, 64, 200]),
       bound=st.sampled_from([1, 5, 7, 100, targets.BATCH_POINTS]))
# a NaN ahead of a +inf: both rank as +inf, so the NaN's cell comes first
@example(grid_values=([np.array([0.0, 1.0])], np.array([math.nan, math.inf])), keep=3,
         bound=targets.BATCH_POINTS)
def test_scan_top_cells_is_a_stable_argsort_of_the_whole_grid(grid_values, keep, bound):
    # slabs are flat index ranges, so a bound of 5 or 7 can end a slab
    # inside a first-axis row
    axes, values = grid_values
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    table = {tuple(p): v for p, v in zip(grid.tolist(), values)}
    ranked = np.fmin(values, np.inf)
    order = np.argsort(ranked, kind="stable")[:keep]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(targets, "BATCH_POINTS", bound)
        top_v, top_x = targets._scan_top_cells(
            lambda pts: np.array([table[tuple(p)] for p in pts.tolist()]), axes, keep)
    assert top_v.tobytes() == ranked[order].tobytes()
    assert top_x.tobytes() == grid[order].tobytes()


def _pool_kernel(pool):
    """A kernel that hashes the bits of each point into ``pool``: one value
    per point whatever the batch, tied wherever the pool repeats a value."""
    pool = np.asarray(pool, dtype=float)

    def fn(pts):
        bits = np.ascontiguousarray(pts, dtype=float).view(np.uint64)
        h = (bits * np.uint64(0x9E3779B97F4A7C15)).sum(axis=-1)
        return pool[(h >> np.uint64(40)) % np.uint64(len(pool))]
    return fn


_pools = st.lists(st.one_of(_value_pool, st.floats(-3.0, 3.0)), min_size=1, max_size=6)


# repeated coordinates give tied values
_chain_axis = st.integers(1, 40).flatmap(
    lambda n: hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
# a first axis longer than keep fills the running top with finite values
# before the last slabs, so they are pruned against its cut
_long_chain_axis = st.integers(65, 100).flatmap(
    lambda n: hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))


# a chain scan's bound, in points, for pair axes of n1 and n2 points: one
# point (below one head cell's n2 sums), one or seven head cells per slab (so
# a slab can end inside a first-axis row of n1 head cells), or whole rows
_CHAIN_BOUNDS = {
    "point": lambda n1, n2: 1,
    "cell": lambda n1, n2: n2,
    "7 cells": lambda n1, n2: 8 * n2 - 1,
    "row": lambda n1, n2: n1 * n2,
    "3 rows": lambda n1, n2: 3 * n1 * n2,
    "default": lambda n1, n2: targets.BATCH_POINTS,
}


@settings(max_examples=150, deadline=None)
@given(first=st.one_of(_chain_axis, _long_chain_axis),
       rest=st.lists(_chain_axis, min_size=2, max_size=2), keep=st.sampled_from([1, 5, 64]),
       slab=st.sampled_from(sorted(_CHAIN_BOUNDS)), pool=st.none() | _pools)
@example(first=np.array([0.6]), rest=[np.zeros(1), np.zeros(1)], keep=1, slab="row",
         pool=[math.inf, -math.inf])
# the sums are [-inf + inf, inf + inf]: a NaN ahead of a +inf, both kept
@example(first=np.array([0.1, 0.6]), rest=[np.zeros(1), np.zeros(1)], keep=5, slab="row",
         pool=[math.inf, -math.inf])
def test_chain_scan_is_a_stable_argsort_of_the_spec(first, rest, keep, slab, pool):
    # trefethen3 is scanned as trefethen2 pairs; its bytes must be spec.fn's,
    # and with a pooled base (ties, -0.0, +-inf, NaN) the pair sums'
    spec = get_objective("trefethen3")
    axes = [first, *rest]
    bound = _CHAIN_BOUNDS[slab](len(axes[1]), len(axes[2]))
    assert targets._policy(spec)["chain_base"] == "trefethen2"
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    # inf + -inf is a NaN sum, not an error
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(targets, "BATCH_POINTS", bound)
        if pool is None:
            base, values = get_objective("trefethen2").fn, spec.fn(grid)
        else:
            base = _pool_kernel(pool)
            values = base(grid[:, :2]) + base(grid[:, 1:])
        top_v, top_x = targets._scan_top_cells(spec.fn, axes, keep, base)
    ranked = np.fmin(values, np.inf)
    order = np.argsort(ranked, kind="stable")[:keep]
    assert top_v.tobytes() == ranked[order].tobytes()
    assert top_x.tobytes() == grid[order].tobytes()


def _serial_refine(spec, best_v, best_x, spacing, pair):
    """The refinement of one incumbent, one grid scan per round: the
    reference that ``targets._refine`` runs in lockstep for all of them."""
    half = 2.0 * spacing
    for _ in range(targets.REFINE_ROUNDS):
        lo = np.maximum(spec.lower, best_x - half)
        hi = np.minimum(spec.upper, best_x + half)
        axes = [np.linspace(lo[d], hi[d], targets.REFINE_POINTS[spec.dims])
                for d in range(spec.dims)]
        (v,), (x,) = targets._scan_top_cells(spec.fn, axes, 1, pair)
        if v < best_v:
            best_v, best_x = float(v), x
        half = half / 2.0
    return best_v, best_x


# box edges and zero: late windows shrink to zero width at different rounds
_refine_coord = st.one_of(st.sampled_from([-1.0, 1.0, 0.0, -0.0, 1e-300]), st.floats(-1.0, 1.0))
_refine_seeds = st.lists(st.tuples(st.one_of(_value_pool, st.floats(-3.0, 3.0)),
                                   hnp.arrays(float, 3, elements=_refine_coord)),
                         min_size=1, max_size=targets.REFINE_INCUMBENTS)


def _bowl(pts):
    # no grid reaches the minimum, so a window around it improves every round
    return np.sum((pts - 3e-20) ** 2, axis=-1)


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([1, 2, 3, "chain"]), pool=st.none() | _pools, seeds=_refine_seeds,
       coarse=st.sampled_from([3, 33, 4001]))
# with 11-point windows, once the window at the box edge has zero width and
# the one still improving near 0 has not, a stacked linspace moves the latter
@example(dims=3, pool=None, coarse=4001,
         seeds=[(9.0, np.array([1.0, 1.0, 1.0])), (9.0, np.zeros(3))])
@example(dims="chain", pool=None, coarse=4001,
         seeds=[(9.0, np.array([1.0, 1.0, 1.0])), (9.0, np.zeros(3))])
@example(dims=2, pool=[math.nan, 1.0, -0.0, 0.0], coarse=33,  # NaN ranks as +inf
         seeds=[(9.0, np.array([0.5, -0.5, 0.0]))])
# a NaN ahead of the first +inf: both refinements pick the NaN's cell, and
# neither moves the +inf incumbent
@example(dims=1, pool=[math.nan, math.inf], coarse=33, seeds=[(math.inf, np.zeros(3))])
@example(dims=2, pool=[math.nan, -math.inf], coarse=33,  # the first -inf wins
         seeds=[(9.0, np.zeros(3))])
def test_lockstep_refinement_matches_the_serial_reference(dims, pool, seeds, coarse):
    # pool None is the bowl
    kernel = _bowl if pool is None else _pool_kernel(pool)
    with np.errstate(invalid="ignore"):
        if dims == "chain":
            spec, pair = get_objective("trefethen3"), kernel
        else:
            spec, pair = ObjectiveSpec(name="pool", dims=dims, lower=[-1.0] * dims,
                                       upper=[1.0] * dims, fn=kernel), None
        seeds_v = [v for v, _ in seeds]
        seeds_x = [x[:spec.dims].copy() for _, x in seeds]
        seeds_x[0][0] = spec.upper[0]  # an incumbent on the box edge
        spacing = (spec.upper - spec.lower) / (coarse - 1)
        got_v, got_x = targets._refine(spec, seeds_v, seeds_x, spacing, pair)
        for k, (v, x) in enumerate(zip(seeds_v, seeds_x)):
            ref_v, ref_x = _serial_refine(spec, v, x, spacing, pair)
            assert np.float64(ref_v).tobytes() == got_v[k].tobytes(), k
            assert np.asarray(ref_x).tobytes() == got_x[k].tobytes(), k


@settings(max_examples=300, deadline=None)
@given(values=hnp.arrays(float, st.integers(1, 300),
                         elements=st.one_of(_value_pool, st.floats(-3.0, 3.0))),
       keep=st.sampled_from([1, 2, 7, 64, 299, 300, 301]), cut=st.integers(1, 300))
@example(values=np.full(100, math.nan), keep=64, cut=100)                      # every value NaN
@example(values=np.r_[np.full(90, math.nan), np.arange(10.0)], keep=64, cut=95)  # < keep numbers
@example(values=np.r_[np.full(30, 1.0), np.zeros(10), np.full(60, 1.0)], keep=20,
         cut=35)                                                        # ties straddle both
@example(values=np.r_[np.zeros(40), -0.0, np.zeros(40)], keep=64, cut=40)     # -0.0 ties 0.0
@example(values=np.r_[math.inf, -math.inf, np.arange(98.0)], keep=64, cut=1)
@example(values=np.arange(64.0)[::-1].copy(), keep=64, cut=64)           # keep == len, no slab
@example(values=np.arange(10.0)[::-1].copy(), keep=64, cut=3)            # keep > len
@example(values=np.r_[3.0, 1.0, 1.0, math.nan, 2.0], keep=1, cut=2)
@example(values=np.r_[math.nan, math.inf, 1.0], keep=2, cut=1)           # NaN ahead of +inf
def test_merge_is_the_head_of_a_stable_argsort(values, keep, cut):
    # NaN ranks as +inf: the top of the first cut cells, from an empty top,
    # and then of all cells, merging the rest into that non-empty top
    ranked, cut = np.fmin(values, np.inf), min(cut, len(values))
    top = np.empty(0), np.empty(0, dtype=np.intp)
    for start, stop in ((0, cut), (cut, len(values))):
        top = targets._merge(*top, values[start:stop], np.arange(start, stop), keep)
        reference = np.argsort(ranked[:stop], kind="stable")[:keep]
        assert top[0].tobytes() == ranked[reference].tobytes()
        assert top[1].tobytes() == reference.tobytes()


def test_dispatch_guards():
    with pytest.raises(ValueError):
        enumerate_integer_minimum(get_objective("wild1"))
    with pytest.raises(ValueError):
        grid_refine_minimum(get_objective("ehrenfest4"))
    box4 = ObjectiveSpec(name="box4", dims=4, lower=[-1.0] * 4, upper=[1.0] * 4,
                         fn=lambda points: points.sum(axis=1))
    with pytest.raises(ValueError, match="at most 3 dimensions"):
        grid_refine_minimum(box4)


@pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf])
def test_enumeration_refuses_a_staircase_without_a_finite_minimum(fill):
    spec = _staircase("flat", lambda pts: np.full(len(pts), fill), 9)
    with pytest.raises(ValueError, match="flat: the enumeration scan found no finite"):
        compute_target(spec)


@pytest.mark.parametrize("fill", [math.nan, math.inf, -math.inf])
def test_grid_refine_refuses_an_objective_without_a_finite_minimum(fill):
    spec = ObjectiveSpec(name="flat", dims=1, lower=[-1.0], upper=[1.0],
                         fn=lambda pts: np.full(len(pts), fill))
    with pytest.raises(ValueError, match=r"flat: the grid\+refine scan found no finite"):
        compute_target(spec)


# repr of value_target and coords at digits 9; the trefethen2 and trefethen3
# minimizers differ between numpy dispatch classes from the 9th digit on
_PINNED_TARGETS = {
    "ehrenfest4": ("-9.55728084", "(9.0,)"),
    "ehrenfest15": ("-22934.6986", "(16385.0,)"),
    "trefethen1": ("-1.50850335", "(-0.3961088708043099,)"),
    "trefethen2": ("-3.30686865", {
        "X86_V4": "(-0.024403080032207095, 0.2106124271349981)",
        "X86_V3": "(-0.02440307998657229, 0.21061242713034145)"}),
    "trefethen3": ("-5.74309093", {
        "X86_V4": "(0.34364408217875, 0.4430372000876624, 0.3672448904499179)",
        "X86_V3": "(0.3436440821792639, 0.44303720008766695, 0.36724489044956865)"}),
    "wild1": ("67.4677347", "(-15.815151124000545,)"),
    "wild2": ("67.4677347", "(-15.815151124000545, -15.815151124000545)"),
    "wild3": ("67.4677347",
              "(-15.815151124000545, -15.815151124000545, -15.815151124000545)"),
}


def pinned_target(name, cls=None):
    """The pinned ``(value, coords)`` reprs of ``name`` under dispatch class
    ``cls`` (the active one by default)."""
    value, coords = _PINNED_TARGETS[name]
    if isinstance(coords, dict):
        cls = cls or dispatch_class()
        if cls not in coords:
            pytest.fail(f"no pinned {name} coordinates for numpy dispatch class {cls}; "
                        f"CPU features active here: {' '.join(_active_cpu_features())}")
        coords = coords[cls]
    return value, coords


def test_pinned_targets_cover_every_cheap_objective():
    # with the chain scan every registered objective is cheap enough to pin
    assert sorted(_PINNED_TARGETS) == objective_names()


@pytest.mark.parametrize("name", sorted(_PINNED_TARGETS))
def test_oracle_record_is_pinned(name):
    rec = compute_target(get_objective(name))
    assert rec.digits == 9
    assert (repr(rec.value_target), repr(rec.coords)) == pinned_target(name)


def _counting(fn, sizes):
    """``fn`` behind ``functools.wraps`` (so it keeps its scan policy),
    appending the size of every batch it is handed to ``sizes``."""
    @functools.wraps(fn)
    def counted(pts):
        sizes.append(len(pts))
        return fn(pts)
    return counted


@pytest.mark.parametrize("name", objective_names())
def test_no_oracle_kernel_call_or_slab_exceeds_the_batch_bound(name, monkeypatch):
    # every kernel compute_target reaches, a chain's base included, is
    # fetched through targets.get_objective
    sizes, slabs = [], []
    monkeypatch.setattr(targets, "get_objective", lambda n: replace(
        get_objective(n), fn=_counting(get_objective(n).fn, sizes)))

    def merge(top_v, top_i, values, idx, keep, merge=targets._merge):
        slabs.append(len(values))
        return merge(top_v, top_i, values, idx, keep)
    monkeypatch.setattr(targets, "_merge", merge)
    rec = compute_target(targets.get_objective(name))
    assert (repr(rec.value_target), repr(rec.coords)) == pinned_target(name)
    assert sizes and max(sizes) <= targets.BATCH_POINTS
    assert slabs and max(slabs) <= targets.BATCH_POINTS


def _wrapped(spec):
    @functools.wraps(spec.fn)
    def fn(pts):
        return spec.fn(pts)
    return replace(spec, fn=fn)


_CONTINUOUS = [name for name in sorted(_PINNED_TARGETS) if not get_objective(name).staircase]


@pytest.mark.parametrize("name", _CONTINUOUS)
@pytest.mark.parametrize("oracle", [
    lambda spec: compute_target(replace(spec, name="renamed")),
    lambda spec: compute_target(_wrapped(spec)),
    grid_refine_minimum,
], ids=["renamed", "wrapped", "direct"])
def test_target_depends_on_the_kernel_not_the_name(name, oracle):
    # the scan policy is the kernel's, so a renamed copy, a copy whose kernel
    # sits behind functools.wraps and a direct grid scan get the registry record
    rec = oracle(get_objective(name))
    assert (rec.digits, rec.method) == (9, "grid+refine")
    assert (repr(rec.value_target), repr(rec.coords)) == pinned_target(name)


def test_every_policy_kernel_is_a_registered_kernel():
    # a re-created partial(trefethen, dims=3) would silently lose the chain scan
    kernels = [get_objective(name).fn for name in objective_names()]
    for kernel, _ in targets._ORACLE_POLICY:
        assert any(fn is kernel for fn in kernels)


def test_an_unhashable_kernel_gets_the_generic_scan():
    class Unhashable:
        __hash__ = None

        def __call__(self, pts):
            return trefethen(pts, dims=1)

    spec = replace(get_objective("trefethen1"), fn=Unhashable())
    # a finite target, not the TypeError of a hash-keyed policy lookup
    assert repr(compute_target(spec).value_target) == _PINNED_TARGETS["trefethen1"][0]


def test_quadratic_bowl_sanity():
    spec = ObjectiveSpec(name="bowl", dims=1, lower=[-2.0], upper=[2.0],
                         fn=lambda pts: np.sum(pts * pts, axis=-1))
    rec = grid_refine_minimum(spec)
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


def test_separable_target_at_the_callers_digits():
    base = compute_target(replace(get_objective("wild1"), digits_target=6))
    rec = compute_target(replace(get_objective("wild2"), digits_target=6))
    assert rec.digits == 6
    assert rec.value_target == base.value_target == 67.4677
    assert rec.coords == base.coords * 2


def test_separable_target_scans_the_specs_own_box():
    base = compute_target(replace(get_objective("wild1"), lower=[0.0], upper=[10.0]))
    assert (base.value_target, base.coords) == (71.052347, (4.791555444478988,))
    for p in (2, 3):
        spec = replace(get_objective(f"wild{p}"), lower=[0.0] * p, upper=[10.0] * p)
        assert compute_target(spec) == replace(base, name=spec.name, coords=base.coords * p)


@pytest.mark.parametrize("lower, upper", [([0.0, -1.0], [10.0, 10.0]),
                                          ([0.0, 0.0], [10.0, 9.0])])
def test_separable_target_refuses_mixed_intervals(lower, upper):
    spec = replace(get_objective("wild2"), lower=lower, upper=upper)
    with pytest.raises(ValueError, match="wild2 is separable"):
        compute_target(spec)


def test_trefethen2_matches_published_challenge_value():
    rec = compute_target(get_objective("trefethen2"))
    # reference minimum of the 2002 hundred-digit challenge problem
    assert rec.value_target == quantize(-3.3068686474752372, 9)
    assert rec.coords[0] == pytest.approx(-0.02440307969, abs=1e-6)
    assert rec.coords[1] == pytest.approx(0.21061242715, abs=1e-6)


def test_refinement_never_worsens_the_incumbent(monkeypatch):
    spec = replace(get_objective("trefethen1"), digits_target=12)
    monkeypatch.setattr(targets, "REFINE_ROUNDS", 0)
    shallow = grid_refine_minimum(spec)
    monkeypatch.setattr(targets, "REFINE_ROUNDS", 40)
    deep = grid_refine_minimum(spec)
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
    store.add(compute_target(replace(get_objective("wild1"), digits_target=6)))
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
    spec = store.apply(get_objective("ehrenfest4"))
    assert spec.value_target == ehrenfest4_target.value_target
    with pytest.raises(ValueError):
        store.apply(get_objective("wild1"))
    with pytest.raises(ValueError, match="at 7 digits"):
        store.apply(replace(get_objective("ehrenfest4"), digits_target=7))


def test_store_load_refuses_a_second_record_for_one_key(tmp_path):
    path = tmp_path / "targets.csv"
    path.write_text("ehrenfest4,-8.5,9,9.0,enumeration\nwild1,1.0,9,0.5,grid\n"
                    "ehrenfest4,-1.5,9,9.0,enumeration\n")
    with pytest.raises(ValueError, match=r"targets\.csv: line 3: .*\(ehrenfest4, 9\)"):
        TargetStore.load(path)


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
