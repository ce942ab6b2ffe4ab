"""Growth classification of formal power series with function coefficients.

A series f(z, t) = sum_n f_n(z) t^n is represented by one evaluator of its
coefficients' log-magnitudes: the constructive structure that built it, or
a plain callable for ad-hoc series.  All magnitudes live in log space:
``-inf`` encodes an exactly vanishing coefficient and is a first-class
value, never NaN.

At a point z the n-th growth exponent is (1/n) * log|f_n(z)|.  Truncated at
order N, the classifier looks only at the tail window [ceil(N/2), N]: early
coefficients are transients that say nothing about the radius of convergence
in t.  With budgets B < M the verdict is

* converge      when the tail-window sup is <= B,
* diverge       when some tail-window exponent is >= M,
* undetermined  otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .geometry import COMPACT, Grid, RegionMask, omega_exhaustion

DEFAULT_N = 256
DEFAULT_M = math.log(32.0)
MIN_N = 8


def default_b(grid: Grid) -> float:
    """Default converge budget: log(4 * grid half-width), comfortably above
    log|z| for every cell yet below the default diverge budget."""
    return math.log(4.0 * grid.half_width())


class Verdict(IntEnum):
    DIVERGE = 0
    UNDETERMINED = 1
    CONVERGE = 2


VERDICT_NAMES = {Verdict.DIVERGE: "diverge",
                 Verdict.UNDETERMINED: "undetermined",
                 Verdict.CONVERGE: "converge"}


@dataclass
class CoefficientSeries:
    """Coefficient log-magnitudes of a series, from one evaluator.

    ``structure`` carries the constructive description (see construct.py),
    which is also the series' only evaluator:

    * ``log_mags(z, lo, hi)`` yields log|f_n(z)| for n = lo..hi, 0 <= lo,
      in z's shape (-inf allowed, NaN forbidden); log_mag and every
      order-range scan use it;
    * ``tail_sup(z, lo, hi)``, where present, returns max over n = lo..hi
      of (1/n) * log|f_n(z)| in z's shape and raises RuntimeError on NaN;
      conv_map and classify_points use it first (product series).

    A series without a structure (ad-hoc callables, as in the tests) gives
    ``coeff_log_mag(n, z)``, which accepts a complex scalar or ndarray and
    returns the matching float or float ndarray of log|f_n(z)| values.
    ``max_supported_n`` is None for unbounded series.
    """

    coeff_log_mag: Callable[[int, np.ndarray | complex],
                            np.ndarray | float] | None = None
    description: str = ""
    max_supported_n: int | None = None
    structure: object | None = None

    def log_mag(self, n: int, z: np.ndarray | complex) -> np.ndarray:
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if self.max_supported_n is not None and n > self.max_supported_n:
            raise ValueError(
                f"coefficient index {n} exceeds max_supported_n "
                f"{self.max_supported_n}")
        [(_, out)] = _log_mags(self, z, n, n)
        return out


def reject_nan(values, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).any():
        bad = np.argwhere(np.isnan(arr))
        raise RuntimeError(
            f"coefficient oracle produced NaN at n={n}, "
            f"first offending entry index {tuple(bad[0])}")
    return arr


def _log_mags(series: CoefficientSeries, z: np.ndarray | complex, lo: int,
              hi: int):
    """Yield (n, log|f_n(z)|) for n = lo..hi, through the structure's own
    evaluator when it has one, else order by order through the callable."""
    evaluate = getattr(series.structure, "log_mags", None)
    if evaluate is None:
        for n in range(lo, hi + 1):
            try:
                out = series.coeff_log_mag(n, z)
            except Exception as exc:
                raise RuntimeError(
                    f"coefficient oracle failed at n={n}") from exc
            yield n, reject_nan(out, n)
        return
    for n, out in zip(range(lo, hi + 1), evaluate(z, lo, hi), strict=True):
        yield n, reject_nan(out, n)


@dataclass
class GrowthProfile:
    """Exponents of one point up to order N.

    ``exponents[n-1]`` holds (1/n)*log|f_n(z)| for n = 1..N (the n = 0 term
    is excluded).  ``sup_estimate`` is the max over the tail window, -inf
    when every tail coefficient vanishes.
    """

    point: complex
    exponents: np.ndarray
    sup_estimate: float
    tail_window: tuple[int, int]


@dataclass
class ConvergenceMap:
    """Per-cell verdicts and tail-window sup exponents over a grid."""

    grid: Grid
    verdicts: np.ndarray  # int8 of Verdict values
    exponents: np.ndarray  # float, tail sup per cell (-inf allowed)
    N: int
    B: float
    M: float

    def counts(self) -> dict[str, int]:
        return {name: int((self.verdicts == v).sum())
                for v, name in VERDICT_NAMES.items()}


def _check_range(series: CoefficientSeries, N: int, min_n: int) -> None:
    if N < min_n:
        raise ValueError(f"N must be >= {min_n}")
    if series.max_supported_n is not None and N > series.max_supported_n:
        raise ValueError(
            f"N={N} exceeds the series' supported range "
            f"(max_supported_n={series.max_supported_n})")


def _check_budgets(series: CoefficientSeries, N: int, B: float, M: float) -> None:
    _check_range(series, N, MIN_N)
    if not B < M:
        raise ValueError("budgets must satisfy B < M")


def tail_window(N: int) -> tuple[int, int]:
    return (N + 1) // 2, N


def growth_exponent(series: CoefficientSeries, z: complex, N: int) -> GrowthProfile:
    """Exponent profile of a single point, orders 1..N."""
    _check_range(series, N, MIN_N)
    exps = np.empty(N)
    for n, lm in _log_mags(series, z, 1, N):
        exps[n - 1] = float(lm) / n
    lo, hi = tail_window(N)
    sup = float(np.max(exps[lo - 1:hi]))
    return GrowthProfile(z, exps, sup, (lo, hi))


def _tail_sup(series: CoefficientSeries, zs: np.ndarray, N: int) -> np.ndarray:
    lo, _ = tail_window(N)
    evaluate = getattr(series.structure, "tail_sup", None)
    if evaluate is not None:
        return evaluate(zs, lo, N)
    sup = np.full(zs.shape, -np.inf)
    for n, lm in _log_mags(series, zs, lo, N):
        np.maximum(sup, lm / n, out=sup)
    return sup


def classify_point(series: CoefficientSeries, z: complex, N: int,
                   B: float, M: float) -> Verdict:
    """Three-way verdict at one point.  Requires B < M, so the converge and
    diverge conditions are mutually exclusive."""
    _check_budgets(series, N, B, M)
    profile = growth_exponent(series, z, N)
    return Verdict(int(_verdicts(np.asarray(profile.sup_estimate), B, M)))


def _verdicts(sup: np.ndarray, B: float, M: float) -> np.ndarray:
    verdicts = np.full(sup.shape, Verdict.UNDETERMINED, dtype=np.int8)
    verdicts[sup <= B] = Verdict.CONVERGE
    verdicts[sup >= M] = Verdict.DIVERGE
    return verdicts


def classify_points(series: CoefficientSeries, zs: np.ndarray, N: int,
                    B: float, M: float) -> np.ndarray:
    """Vectorized verdicts for an array of points (same thresholds as
    classify_point, identical arithmetic)."""
    _check_budgets(series, N, B, M)
    zs = np.asarray(zs, dtype=complex)
    return _verdicts(_tail_sup(series, zs, N), B, M)


def conv_map(series: CoefficientSeries, grid: Grid, N: int, B: float,
             M: float) -> ConvergenceMap:
    """Classify every cell center of the grid.

    Cell verdicts equal classify_point at that center: the scan is a single
    deterministic pass over coefficient orders, vectorized over cells.
    """
    _check_budgets(series, N, B, M)
    sup = _tail_sup(series, grid.centers(), N)
    return ConvergenceMap(grid, _verdicts(sup, B, M), sup, N, B, M)


def level_set(series: CoefficientSeries, j: int, N: int,
              omega: RegionMask) -> RegionMask:
    """Cells of the j-th exhaustion piece where |f_n(z)| <= j^n for every
    1 <= n <= N.  These sets ascend in j."""
    if j < 1:
        raise ValueError("level index j must be >= 1")
    _check_range(series, N, 1)
    base = omega_exhaustion(omega, j)
    grid = omega.grid
    log_j = math.log(j)
    ok = np.ones((grid.height, grid.width), dtype=bool)
    zs = grid.centers()
    for n, lm in _log_mags(series, zs, 1, N):
        ok &= lm / n <= log_j
    return RegionMask(grid, base.bits & ok, COMPACT)
