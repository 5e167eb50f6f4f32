"""Objective-function registry: test functions, bounds, targets, batch evaluation.

Every objective is a pure function evaluated batch-wise on an (B, p) array of
points.  Success for a solver run is defined by equality of the *quantized*
objective value with the quantized best-known target value, so the
significant-digit quantizer lives here next to the functions it judges.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

__all__ = [
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

# Most points one kernel call holds, for the target oracle's scan slabs and
# a seed chunk's lockstep step alike.  It bounds temporaries, and so peak
# memory, never results.
BATCH_POINTS = 16384


# ---------------------------------------------------------------------------
# significant-digit quantization
# ---------------------------------------------------------------------------

# Exact (correctly rounded) float values of 10**k, looked up by exponent.
_POW10_MIN = -340
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 341)])


def _quantize_array(values, digits: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    ok = np.isfinite(v) & (v != 0.0)
    a = np.where(ok, np.abs(v), 1.0)
    # the decade as a _POW10 index, repaired by exact compares where log10 is one off
    i = np.floor(np.log10(a)).astype(np.int64) - _POW10_MIN
    i += a >= _POW10[i + 1]
    i -= a < _POW10[i]
    k = digits - 1 - _POW10_MIN - i  # scale by 10**k
    k1 = np.minimum(np.maximum(k, -308), 308)  # two-step scaling keeps factors finite
    scaled = (a * _POW10[k1 - _POW10_MIN]) * _POW10[k - k1 - _POW10_MIN]
    n = np.floor(scaled + 0.5)
    # rounded up across a decade: renormalize so requantization is stable
    carry = n >= _POW10[digits - _POW10_MIN]
    n = np.where(carry, _POW10[digits - 1 - _POW10_MIN], n)
    k -= carry
    k1 = np.minimum(np.maximum(k, -308), 308)
    with np.errstate(over="ignore"):  # rounding up past the largest double gives inf
        r = (n / _POW10[k1 - _POW10_MIN]) / _POW10[k - k1 - _POW10_MIN]
    return np.where(ok, np.copysign(r, v), v)


def quantize(value, digits: int):
    """Round to ``digits`` significant decimal digits, half away from zero.

    A scalar or 0-d input gives a Python ``float``, an array an ndarray of
    its shape.  Zero and non-finite inputs pass through unchanged.  The
    operation is idempotent and odd-symmetric:
    ``quantize(quantize(v, d), d) == quantize(v, d)`` and
    ``quantize(-v, d) == -quantize(v, d)``.

    A double carries fewer than 17 significant decimal digits, so for
    ``digits >= 17`` the value is returned unchanged.
    """
    if not isinstance(digits, (int, np.integer)) or isinstance(digits, bool) or digits < 1:
        raise ValueError(f"digits must be a positive integer, got {digits!r}")
    if digits >= 17:
        return value
    q = _quantize_array(value, int(digits))
    return q if q.ndim else float(q)


# ---------------------------------------------------------------------------
# objective specs and batch evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveSpec:
    """A registered objective with bounds, dimension and target metadata.

    ``value_target`` is the quantized, finite best-known value that defines
    success; it stays ``None`` until filled in from the brute-force target
    computation (solvers never certify their own targets).
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
        for name in ("dims", "digits_target"):  # a bool is not a count
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{self.name}: {name} must be an integer >= 1, got {value!r}")
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != (self.dims,) or self.upper.shape != (self.dims,):
            raise ValueError(f"{self.name}: bounds must be length-{self.dims} vectors")
        if not np.all(self.lower < self.upper):
            raise ValueError(f"{self.name}: every lower bound must be below its upper bound")
        if self.value_target is not None:
            # an infinite target leaves the plateau rule no error to measure
            q = quantize(self.value_target, self.digits_target)
            if not math.isfinite(q) or q != self.value_target:
                raise ValueError(f"{self.name}: value_target must be finite and stored "
                                 f"pre-quantized, got {self.value_target!r} (quantized {q!r})")

    def with_target(self, value_target: float) -> "ObjectiveSpec":
        """Return a copy with the target quantized to ``digits_target``."""
        return replace(self, value_target=quantize(value_target, self.digits_target))


def evaluate_batch(spec: ObjectiveSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate an (B, p) batch: B probes, one value per point.  A NaN the
    kernel returns is reported as ``+inf``, so every comparison ranks an
    undefined point last; every other value keeps its bits."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.dims:
        raise ValueError(f"{spec.name}: expected (B, {spec.dims}) points, got shape {points.shape}")
    return np.fmin(np.asarray(spec.fn(points), dtype=float), np.inf)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


def _exact_square(a):
    """``a * a`` as ``p + e`` exactly (T. J. Dekker, Numer. Math. 18, 1971),
    wherever its partial products neither overflow nor underflow.  It works
    in place where it can: at the solvers' batches, fresh temporaries cost
    about as much as the arithmetic."""
    hi = _SPLIT * a
    lo = hi - a
    hi -= lo  # the high half of a
    np.subtract(a, hi, out=lo)  # and the low half
    p = a * a
    e = hi * hi
    e -= p
    hi *= lo
    hi += hi
    e += hi
    lo *= lo
    e += lo  # ((hi*hi - p) + 2*hi*lo) + lo*lo
    return p, e


def _rational_quartic(x: float) -> float:
    try:
        n, d = x.as_integer_ratio()
        return n ** 4 / d ** 4  # int true division rounds correctly
    except OverflowError:  # x is infinite, or x**4 rounds past the largest double
        return math.inf


def _quartic(t: np.ndarray) -> np.ndarray:
    """``t ** 4`` correctly rounded: two exact squares, rounded once.

    Only ``+``, ``-`` and ``*``, which IEEE rounds the same at every SIMD
    width, so the bits do not depend on numpy's dispatch.  Where the squares'
    error terms could underflow (``t**4`` below about 1e-289) or overflow
    (above about 1e301) exact rationals give the value; ``fmin`` sends an
    overflowed square's NaN correction there as ``+inf``."""
    t2, e = _exact_square(t)
    p, t4 = _exact_square(t2)
    e *= t2
    e += e
    t4 += e  # the correction 2*t2*e + pe
    np.fmin(t4, p, out=t4)
    t4 += p
    rare = (t4 < 2.0 ** -960) | (t4 > 2.0 ** 1000)
    if rare.any():
        t4[rare] = [_rational_quartic(x) for x in t[rare].tolist()]
    return t4


def _wild_term(t):
    return 10.0 * np.sin(0.3 * t) * np.sin(1.3 * t * t) + 1e-5 * _quartic(t) + 0.2 * t + 80.0


def wild(points: np.ndarray) -> np.ndarray:
    """Highly multimodal 1-D wave, averaged across coordinates."""
    terms = _wild_term(np.asarray(points, dtype=float))
    # the columns summed in order: np.mean's bits without its length-p inner loops
    total = terms[..., 0].copy()
    for d in range(1, terms.shape[-1]):
        total += terms[..., d]
    total /= terms.shape[-1]
    return total


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


def _ln_gamma(top: int) -> np.ndarray:
    """``ln Gamma(x)`` for x = 1..top, bit for bit as cephes ``lgam`` (scipy's
    ``gammaln``) computes it: the log of the exact factorial below 13, else
    its Stirling series, in cephes' operation order.  Logs come from libm
    (``math.log``), as cephes' do; numpy's SIMD log is off on a few integers."""
    x = np.arange(13.0, top + 1.0)
    log_x = np.fromiter(map(math.log, range(13, top + 1)), float, len(x))
    q = (x - 0.5) * log_x - x + 0.91893853320467274178  # ln sqrt(2 pi)
    p = 1.0 / (x * x)
    series = np.full(len(x), 8.11614167470508450300e-4)
    for a in (-5.95061904284301438324e-4, 7.93650340457716943945e-4,
              -2.77777777730099687205e-3, 8.33333333333331927722e-2):
        series = series * p + a
    large = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
    series = np.where(x < 1000.0, series, large + 0.0833333333333333333333)
    small = [math.log(math.factorial(k)) for k in range(min(top, 12))]
    return np.concatenate([small, q + series / x])


@lru_cache(maxsize=None)
def _ehrenfest_table(n: int) -> np.ndarray:
    """Read-only values of all ``2**n + 1`` states, indexed by state - 1:
    ``-ln C(2**n, k)`` from one ``ln Gamma`` array, scaled by the parity."""
    big_n = 2 ** n
    if big_n + 1 > MAX_ENUMERATION_STATES:
        raise ValueError(f"ehrenfest{n} has 2**{n} + 1 states, beyond the enumeration "
                         f"limit of {MAX_ENUMERATION_STATES}")
    # allocated before its temporaries, so the kept table does not pin the
    # top of the heap (about 1 MB of peak RSS in a full oracle run)
    table = np.empty(big_n + 1)
    k = np.arange(big_n + 1, dtype=np.int64)
    ln_fact = _ln_gamma(big_n + 1)  # ln k! at index k
    # grouping the subtrahends keeps f(x) == f(s + 1 - x) exact in floats
    ln_comb = ln_fact[big_n] - (ln_fact + ln_fact[::-1])
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
        raise ValueError(
            f"unknown objective {name!r}; known: {', '.join(objective_names())}"
        ) from None
