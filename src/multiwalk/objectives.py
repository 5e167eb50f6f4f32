"""Objective-function registry: test functions, bounds, targets, probe counting.

Every objective is a pure function evaluated batch-wise on an (B, p) array of
points.  Success for a solver run is defined by equality of the *quantized*
objective value with the quantized best-known target value, so the
significant-digit quantizer lives here next to the functions it judges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

__all__ = [
    "EvalCounter",
    "ObjectiveSpec",
    "quantize",
    "evaluate_batch",
    "get_objective",
    "objective_names",
    "wild",
    "trefethen",
    "ehrenfest",
]

# Largest staircase the target oracle enumerates, and so the largest table
# ``ehrenfest`` builds (2**24 floats are 128 MB).
MAX_ENUMERATION_STATES = 2 ** 24


# ---------------------------------------------------------------------------
# significant-digit quantization
# ---------------------------------------------------------------------------

# Exact (correctly rounded) float values of 10**k, shared by the scalar and
# array code paths so both round identically bit for bit.
_POW10_MIN = -340
_POW10_LIST = [float(f"1e{k}") for k in range(_POW10_MIN, 341)]
_POW10 = np.array(_POW10_LIST)


def _quantize_scalar(value: float, digits: int) -> float:
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


def _quantize_array(values: np.ndarray, digits: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    ok = np.isfinite(v) & (v != 0.0)
    a = np.where(ok, np.abs(v), 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    e = np.where(a >= _POW10[e + 1 - _POW10_MIN], e + 1, e)
    e = np.where(a < _POW10[e - _POW10_MIN], e - 1, e)
    k = digits - 1 - e
    k1 = np.clip(k, -308, 308)
    scaled = (a * _POW10[k1 - _POW10_MIN]) * _POW10[k - k1 - _POW10_MIN]
    n = np.floor(scaled + 0.5)
    carry = n >= _POW10_LIST[digits - _POW10_MIN]
    n = np.where(carry, _POW10_LIST[digits - 1 - _POW10_MIN], n)
    e = np.where(carry, e + 1, e)
    k = digits - 1 - e
    k1 = np.clip(k, -308, 308)
    r = (n / _POW10[k1 - _POW10_MIN]) / _POW10[k - k1 - _POW10_MIN]
    return np.where(ok, np.copysign(r, v), v)


def quantize(value, digits: int):
    """Round to ``digits`` significant decimal digits, half away from zero.

    Accepts a scalar or an ndarray.  Zero and non-finite inputs pass through
    unchanged.  The operation is idempotent and odd-symmetric:
    ``quantize(quantize(v, d), d) == quantize(v, d)`` and
    ``quantize(-v, d) == -quantize(v, d)``.

    A double carries fewer than 17 significant decimal digits, so for
    ``digits >= 17`` the value is returned unchanged.
    """
    if not isinstance(digits, (int, np.integer)) or digits < 1:
        raise ValueError(f"digits must be a positive integer, got {digits!r}")
    if digits >= 17:
        return value
    if isinstance(value, np.ndarray) and value.ndim > 0:
        return _quantize_array(value, int(digits))
    return _quantize_scalar(float(value), int(digits))


# ---------------------------------------------------------------------------
# evaluation bookkeeping
# ---------------------------------------------------------------------------

class EvalCounter:
    """Counts objective-function evaluations (probes), one per point."""

    __slots__ = ("probes",)

    def __init__(self) -> None:
        self.probes = 0


@dataclass(frozen=True)
class ObjectiveSpec:
    """A registered objective with bounds, dimension and target metadata.

    ``value_target`` is the quantized best-known value that defines success;
    it stays ``None`` until filled in from the brute-force target computation
    (solvers never certify their own targets).
    """

    name: str
    dims: int
    lower: np.ndarray
    upper: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray]
    staircase: bool = False
    value_target: Optional[float] = None
    digits_target: int = 9

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != (self.dims,) or self.upper.shape != (self.dims,):
            raise ValueError(f"{self.name}: bounds must be length-{self.dims} vectors")
        if not np.all(self.lower < self.upper):
            raise ValueError(f"{self.name}: every lower bound must be below its upper bound")
        if self.digits_target < 1:
            raise ValueError(f"{self.name}: digits_target must be >= 1")
        if self.value_target is not None:
            q = quantize(self.value_target, self.digits_target)
            if q != self.value_target:
                raise ValueError(
                    f"{self.name}: value_target must be stored pre-quantized "
                    f"({self.value_target!r} != {q!r})"
                )

    def with_target(self, value_target: float) -> "ObjectiveSpec":
        """Return a copy with the target quantized to ``digits_target``."""
        return replace(self, value_target=quantize(value_target, self.digits_target))


def evaluate_batch(spec: ObjectiveSpec, points: np.ndarray, counter: EvalCounter) -> np.ndarray:
    """Evaluate an (B, p) batch; increments ``counter.probes`` by B."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.dims:
        raise ValueError(f"{spec.name}: expected (B, {spec.dims}) points, got shape {points.shape}")
    values = np.asarray(spec.fn(points), dtype=float)
    counter.probes += points.shape[0]
    return values


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def _wild_term(t):
    return 10.0 * np.sin(0.3 * t) * np.sin(1.3 * t * t) + 1e-5 * t ** 4 + 0.2 * t + 80.0


def wild(points: np.ndarray) -> np.ndarray:
    """Highly multimodal 1-D wave, averaged across coordinates."""
    points = np.asarray(points, dtype=float)
    return np.mean(_wild_term(points), axis=-1)


def _trefethen_pair(a, b):
    return (np.exp(np.sin(50.0 * a)) + np.sin(60.0 * np.exp(b))
            + np.sin(70.0 * np.sin(a)) + np.sin(np.sin(80.0 * b))
            - np.sin(10.0 * (a + b)) + (a * a + b * b) / 4.0)


def trefethen(points: np.ndarray, dims: int) -> np.ndarray:
    """Hundred-digit-challenge oscillator in 1, 2 or 3 coupled coordinates."""
    points = np.asarray(points, dtype=float)
    if dims == 1:
        return _trefethen_pair(points[..., 0], 0.0)
    if dims == 2:
        return _trefethen_pair(points[..., 0], points[..., 1])
    if dims == 3:
        return (_trefethen_pair(points[..., 0], points[..., 1])
                + _trefethen_pair(points[..., 1], points[..., 2]))
    raise ValueError("trefethen is defined for 1, 2 or 3 dimensions")


@lru_cache(maxsize=None)
def _ehrenfest_table(n: int) -> np.ndarray:
    """Read-only values of all ``2**n + 1`` states, indexed by state - 1."""
    big_n = 2 ** n
    if big_n + 1 > MAX_ENUMERATION_STATES:
        raise ValueError(f"ehrenfest{n} has 2**{n} + 1 states, beyond the enumeration "
                         f"limit of {MAX_ENUMERATION_STATES}")
    # allocated before its temporaries, so the kept table does not pin the
    # top of the heap (about 1 MB of peak RSS in a full oracle run)
    table = np.empty(big_n + 1)
    k = np.arange(big_n + 1, dtype=np.int64)
    # grouping the subtrahends keeps f(x) == f(s + 1 - x) exact in floats
    ln_comb = gammaln(big_n + 1.0) - (gammaln(k + 1.0) + gammaln(big_n - k + 1.0))
    parity = np.where(k % 2 == 0, 1.0, -1.0)
    np.multiply(-ln_comb, 1.0 + 0.01 * parity, out=table)
    table.flags.writeable = False
    return table


def ehrenfest(points: np.ndarray, n: int) -> np.ndarray:
    """Staircase over the integers 1..2**n + 1: a log-binomial well whose
    depth is modulated +/-1% by the parity of the state index.

    Piecewise constant in x (nearest-integer state, clamped into the box),
    symmetric about the center state, with its unique minimum there.  Values
    come from a per-``n`` table of every state, so ``2**n + 1`` may not
    exceed ``MAX_ENUMERATION_STATES``.
    """
    table = _ehrenfest_table(n)
    points = np.asarray(points, dtype=float)
    k = np.empty(points.shape[:-1])
    np.rint(points[..., 0], out=k)
    k -= 1.0
    np.maximum(k, 0.0, out=k)
    np.minimum(k, len(table) - 1.0, out=k)
    # the clamps pass only NaN through, and max propagates it
    if k.size and not k.max() <= len(table) - 1.0:
        raise ValueError(f"ehrenfest{n}: a coordinate is NaN")
    return table[k.astype(np.int64)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _build_registry() -> dict:
    registry = {}
    for n in (4, 15):
        s = 2 ** n + 1
        registry[f"ehrenfest{n}"] = ObjectiveSpec(
            name=f"ehrenfest{n}", dims=1, lower=[1.0], upper=[float(s)],
            fn=partial(ehrenfest, n=n), staircase=True,
        )
    for p in (1, 2, 3):
        registry[f"wild{p}"] = ObjectiveSpec(
            name=f"wild{p}", dims=p, lower=[-50.0] * p, upper=[50.0] * p, fn=wild,
        )
        registry[f"trefethen{p}"] = ObjectiveSpec(
            name=f"trefethen{p}", dims=p, lower=[-1.0] * p, upper=[1.0] * p,
            fn=partial(trefethen, dims=p),
        )
    return registry


_REGISTRY = _build_registry()


def objective_names() -> list:
    return sorted(_REGISTRY)


def get_objective(name: str) -> ObjectiveSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown objective {name!r}; known: {', '.join(objective_names())}"
        ) from None
