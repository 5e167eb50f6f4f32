"""Probe-stream fingerprint: a sha256 over every raw objective value the
solvers see and every committed population, for a fixed plan.

The golden CSV fingerprint of the benchmark holds quantized values only, so
last-ulp drift in a kernel, the candidate generator or a commit can leave it
unchanged.  This hash sees every raw float.  It is captured from outside by
rebinding the module globals the solvers call (``evaluate_batch`` where the
ruler and the DE step look it up, ``_greedy_commit`` where both steps look
it up), so nothing in the package knows it is being watched.

Raw floats depend on numpy's SIMD dispatch (``NPY_DISABLE_CPU_FEATURES``)
and on the numpy and scipy builds, so the pin records the environment it
was taken in; a mismatch names both sides.
"""

import hashlib
from dataclasses import replace

import numpy as np
import scipy

from multiwalk import ruler, solvers
from multiwalk.objectives import get_objective
from multiwalk.solvers import SOLVER_KINDS, SolverConfig, run_solver
from multiwalk.targets import compute_target

PINNED_SHA256 = "f5abd7a52beeedcaa6f102c19d322f7f28d3192440eb18fba9dac6832e012d2b"
PINNED_NUMPY = "2.4.6"
PINNED_SCIPY = "1.17.1"
PINNED_CPU_FEATURES = (
    "AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD AVX512DQ AVX512F "
    "AVX512FP16 AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI "
    "AVX512VPOPCNTDQ AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SKX AVX512_SPR "
    "BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT MMX MOVBE POPCNT SSE SSE2 SSE3 "
    "SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4"
).split()

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


def probe_stream_sha256(monkeypatch) -> tuple:
    """Run the plan with capturing wrappers installed; returns the hex
    digest and the number of runs that restarted at least once."""
    digest = hashlib.sha256()
    evaluate_batch = solvers.evaluate_batch
    greedy_commit = solvers._greedy_commit

    def capture_eval(spec, points, counter):
        values = evaluate_batch(spec, points, counter)
        _update(digest, b"eval", values)
        return values

    def capture_commit(*args):
        marks, values, best = greedy_commit(*args)
        _update(digest, b"marks", marks)
        _update(digest, b"values", values)
        _update(digest, b"best", [best[0]])
        return marks, values, best

    monkeypatch.setattr(ruler, "evaluate_batch", capture_eval)
    monkeypatch.setattr(solvers, "evaluate_batch", capture_eval)
    monkeypatch.setattr(solvers, "_greedy_commit", capture_commit)
    restarted = 0
    for spec, cfg in _plan():
        record = run_solver(cfg, spec)
        digest.update(repr(record).encode())
        restarted += record.restarts > 0
    return digest.hexdigest(), restarted


def test_probe_stream_fingerprint(monkeypatch):
    sha, restarted = probe_stream_sha256(monkeypatch)
    assert restarted >= 3, "the plan must exercise restarts"
    features = _active_cpu_features()
    assert sha == PINNED_SHA256, (
        f"probe-stream sha256 {sha} != pinned {PINNED_SHA256}.\n"
        f"pinned under numpy {PINNED_NUMPY}, scipy {PINNED_SCIPY}; "
        f"running numpy {np.__version__}, scipy {scipy.__version__}.\n"
        f"CPU features active here but not at the pin: "
        f"{sorted(set(features) - set(PINNED_CPU_FEATURES)) or 'none'}; "
        f"at the pin but not here: "
        f"{sorted(set(PINNED_CPU_FEATURES) - set(features)) or 'none'} "
        f"(see NPY_DISABLE_CPU_FEATURES).\n"
        "A code change that moves one raw float or one random draw changes "
        "this hash; an environment change can too."
    )
