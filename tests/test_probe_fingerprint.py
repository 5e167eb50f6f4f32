"""Probe-stream fingerprint: a sha256 over every raw objective value the
solvers see and every committed population, for a fixed plan.

The golden CSV fingerprint of the benchmark holds quantized values only, so
last-ulp drift in a kernel, the candidate generator or a commit can leave it
unchanged.  This hash sees every raw float.  It is captured by a run
observer (``run_solver(..., observe=...)``): each epoch's initial values,
then per step the values it evaluated, the committed marks and values, and
the epoch best.

ehrenfest and wild raw floats are the same under every numpy SIMD dispatch
class (``NPY_DISABLE_CPU_FEATURES``): the staircase reads a table built from
libm logs, and wild uses ``np.sin`` and a quartic of ``+``, ``-`` and ``*``
only.  trefethen's ``np.exp`` is not, so the pins are keyed by dispatch class
and record the numpy build they were taken with; a mismatch names both
sides.  They do not depend on scipy, which the staircase tables no longer
call.  The oracle's stores of every objective at digits 6, 9 and 12 are
pinned per class the same way.  Every run checks the X86_V3 pins too, in a
child process with AVX-512 dispatch turned off, and that the child's target
values at digits 6 and 12 and its ``wild`` values over a fixed point set
equal this process's (the target coordinates may differ across classes).

The walk-trace pin covers one real walk through ``trace_to_text`` and the
``trace_wide_text`` pivot; its bytes are the same under both classes.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from multiwalk.objectives import get_objective, objective_names, wild
from multiwalk.solvers import (SOLVER_KINDS, SolverConfig, WalkTrace, run_solver,
                               trace_to_text, trace_wide_text)
from multiwalk.targets import TargetStore, compute_target

# keyed by numpy dispatch class, the first one active wins
PINNED_SHA256 = {
    "X86_V4": "458b2027c6e32fdf7ae6d26bb553cd06ffb727abe3bc92447bc39abddeae6def",
    "X86_V3": "d0b6958e0adc10b7070aaaaf80bb031d7ddab4570b8641204dcaf4b8ea7b56a0",
}
PINNED_NUMPY = "2.4.6"
# sha256 of TargetStore.dumps() for oracle_stores() at digits 6, 9 and 12, by
# numpy dispatch class: the bytes `oracle --of all --digits D` writes
STORE_SHA256 = {
    "X86_V4": ("9cd96a5813e193909ca0e76f1222788551c8481be6ab4e64e6ae5bdc92952998",
               "c1f5b8871dd92111121b26c95ea74c2eb699c573cf6692ada4242522dcb525ed",
               "b228d2058c049920ca4c66024b93313f63765266185bcb122355419e65afe7d3"),
    "X86_V3": ("9d143a86ffe1e54d5d484287d3c5386b19aa98338149be43ba07d15c86564efe",
               "1aecfe9568354f991a5c6492f9f8d1ac135c1aec9c0e9819a998b302e8a8447d",
               "64d2c87b10c7493ee16a57feb3f0a0c64a903c4fc54dfa6088b5738142540f98"),
}
STORE_DIGITS = (6, 9, 12)
# sha256 of trace_to_text and of its trace_wide_text pivot for walk_trace()
TRACE_SHA256 = ("972c5680eef17e49423d94a3977a23c03613469de1ae04809df364834acfef28",
                "432d9ca3818ff50faceee0096ebcdc61c0a4daa67819bc259a9d51ae28e0bce8")

# (objective, target digits); trefethen1 at 6 digits is the benchmark's solve
OBJECTIVES = (("ehrenfest15", 9), ("trefethen1", 6), ("wild2", 9))
SEEDS = (1, 2, 3)
STEPS = 20


def _active_cpu_features() -> list:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, on in __cpu_features__.items() if on)


def dispatch_class():
    """The pinned numpy dispatch class active here: X86_V4 if it is on, else
    X86_V3 if it is on, else None (no pin)."""
    features = _active_cpu_features()
    return next((cls for cls in PINNED_SHA256 if cls in features), None)


def _plan():
    """Every kind at seeds 1-3 for STEPS steps on each objective, plus MWR
    and DEsFR runs whose short plateau limit forces restarts."""
    for name, digits in OBJECTIVES:
        spec = replace(get_objective(name), digits_target=digits)
        spec = spec.with_target(compute_target(spec).value_target)
        for kind in SOLVER_KINDS:
            radius = 4 if kind in ("MW", "MWR") else None
            for seed in SEEDS:
                yield spec, SolverConfig(kind=kind, seed=seed, steps_limit=STEPS,
                                         marks=16, radius=radius)
        for seed in SEEDS:
            yield spec, SolverConfig(kind="MWR", seed=seed, steps_limit=60, marks=8,
                                     radius=6, plateau_limit=3)
            yield spec, SolverConfig(kind="DEsFR", seed=seed, steps_limit=60, marks=8,
                                     plateau_limit=3)


def _update(digest, tag: bytes, array) -> None:
    a = np.ascontiguousarray(array, dtype=np.float64)
    digest.update(tag + repr(a.shape).encode())
    digest.update(a.tobytes())


class _Hasher:
    """Run observer feeding every event into one digest."""

    def __init__(self, digest):
        self.digest = digest

    def epoch(self, seed, marks, values):
        _update(self.digest, b"eval", values)

    def step(self, step, restart, raw, marks, values, best):
        _update(self.digest, b"eval", raw)
        _update(self.digest, b"marks", marks)
        _update(self.digest, b"values", values)
        _update(self.digest, b"best", [best])


def probe_stream_sha256() -> tuple:
    """Run the plan under the hashing observer; returns the hex digest and
    the number of runs that restarted at least once."""
    digest = hashlib.sha256()
    restarted = 0
    for spec, cfg in _plan():
        record = run_solver(cfg, spec, observe=_Hasher(digest))
        digest.update(repr(record).encode())
        restarted += record.restarts > 0
    return digest.hexdigest(), restarted


def walk_trace():
    """The pinned walk: ehrenfest15 at digits 9, MWR with radius 4, plateau
    limit 8 and 32 marks, seed 7, at most 200 steps.  Returns the record, the
    trace text and its wide pivot."""
    spec = get_objective("ehrenfest15")
    spec = spec.with_target(compute_target(spec).value_target)
    cfg = SolverConfig(kind="MWR", seed=7, steps_limit=200, marks=32, radius=4,
                       plateau_limit=8)
    trace = WalkTrace(cfg, spec)
    record = run_solver(cfg, spec, observe=trace)
    text = trace_to_text(trace, record)
    return record, text, trace_wide_text(text.splitlines())


def oracle_stores() -> dict:
    """The oracle's store of every objective at each of ``STORE_DIGITS``,
    keyed by digits."""
    stores = {d: TargetStore() for d in STORE_DIGITS}
    for name in objective_names():
        for d, store in stores.items():
            store.add(compute_target(replace(get_objective(name), digits_target=d)))
    return stores


def target_values(stores) -> dict:
    """Each objective's target value in ``stores`` at digits 6 and 12, as its
    repr."""
    return {name: [repr(stores[d].lookup(name, d).value_target) for d in (6, 12)]
            for name in objective_names()}


def store_sha256(stores) -> list:
    return [_sha256(stores[d].dumps()) for d in STORE_DIGITS]


def wild_sha256() -> str:
    """sha256 of ``wild`` over a fixed seeded point set: for p = 1, 2 and 3,
    points uniform in the box and ruler-like points ``-50 + |u - v|``."""
    rng = np.random.default_rng(26)
    digest = hashlib.sha256()
    for p in (1, 2, 3):
        u, v, w = rng.uniform(-50.0, 50.0, size=(3, 40000, p))
        for points in (u, -50.0 + np.abs(v - w)):
            _update(digest, b"wild", wild(points))
    return digest.hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_probe_stream_fingerprint():
    sha, restarted = probe_stream_sha256()
    assert restarted >= 3, "the plan must exercise restarts"
    cls = dispatch_class()
    assert sha == PINNED_SHA256.get(cls), (
        f"probe-stream sha256 {sha} != pinned {PINNED_SHA256.get(cls)} "
        f"for numpy dispatch class {cls}.\n"
        f"pinned under numpy {PINNED_NUMPY}; running numpy {np.__version__}.\n"
        f"CPU features active here: {' '.join(_active_cpu_features())} "
        f"(pins exist for {', '.join(PINNED_SHA256)}; see NPY_DISABLE_CPU_FEATURES).\n"
        "A code change that moves one raw float or one random draw changes "
        "this hash; an environment change can too."
    )


def test_oracle_stores_are_pinned():
    cls = dispatch_class()
    assert store_sha256(oracle_stores()) == list(STORE_SHA256.get(cls, ())), (
        f"oracle store sha256 mismatch for numpy dispatch class {cls}; "
        f"CPU features active here: {' '.join(_active_cpu_features())}")


def test_walk_trace_is_pinned():
    record, text, wide = walk_trace()
    assert (record.steps, record.restarts, record.is_censored) == (179, 20, False)
    assert (_sha256(text), _sha256(wide)) == TRACE_SHA256


_X86_V3_CHILD = """
import json
from test_probe_fingerprint import (_sha256, dispatch_class, oracle_stores, probe_stream_sha256,
                                    store_sha256, target_values, walk_trace, wild_sha256)

stores = oracle_stores()
records = {rec.name: [repr(rec.value_target), repr(rec.coords)] for rec in stores[9].records()}
_record, text, wide = walk_trace()
print(json.dumps({"class": dispatch_class(), "probe": probe_stream_sha256()[0],
                  "records": records, "stores": store_sha256(stores),
                  "trace": [_sha256(text), _sha256(wide)],
                  "values": target_values(stores), "wild": wild_sha256()}))
"""


def test_pins_hold_under_x86_v3_dispatch():
    # numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so the X86_V3
    # kernels run in a child process
    from test_targets import pinned_target  # test_targets imports this module

    here = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(here, os.pardir, "src"), here, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", _X86_V3_CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "class": "X86_V3",
        "probe": PINNED_SHA256["X86_V3"],
        "records": {name: list(pinned_target(name, "X86_V3")) for name in objective_names()},
        "stores": list(STORE_SHA256["X86_V3"]),
        "trace": list(TRACE_SHA256),
        "values": target_values(oracle_stores()),
        "wild": wild_sha256(),
    }
