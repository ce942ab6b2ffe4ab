"""Growth classification of formal power series with function coefficients.

A series f(z, t) = sum_n f_n(z) t^n is represented by the structure that
built it, which only evaluates its coefficients' log-magnitudes over an
order range.  This module owns the order ranges: it checks them, takes the
sup of the exponents over them and reports NaN.  All magnitudes live in log
space: ``-inf`` encodes an exactly vanishing coefficient and is a
first-class value, never NaN.

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
    """Coefficient log-magnitudes of a series, from its structure.

    ``structure`` carries the constructive description (see construct.py)
    and only evaluates:

    * ``log_mags(z, lo, hi)`` yields log|f_n(z)| for n = lo..hi, 0 <= lo,
      in z's shape (-inf allowed);
    * ``tail_sup(z, lo, hi)``, where present, returns max over n = lo..hi
      of (1/n) * log|f_n(z)| in z's shape, 1 <= lo, NaN where an order is
      NaN (product and block series; an interleave has none).

    Range checks, sups over order ranges and NaN reports live in this
    module.  ``max_supported_n`` is None for unbounded series.
    """

    structure: object
    description: str = ""
    max_supported_n: int | None = None

    def log_mag(self, n: int, z: np.ndarray | complex) -> np.ndarray:
        _check_range(self, n, 0)
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
    """Yield (n, log|f_n(z)|) for n = lo..hi from the structure, rejecting
    NaN at the first offending order."""
    for n, out in zip(range(lo, hi + 1), series.structure.log_mags(z, lo, hi),
                      strict=True):
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


def _sup(series: CoefficientSeries, zs: np.ndarray, lo: int,
         hi: int) -> np.ndarray:
    """max over n = lo..hi of (1/n) * log|f_n(zs)|, with 1 <= lo.

    The structure's ``tail_sup`` answers when it has one; otherwise, or when
    its answer holds a NaN, a running max over the orders does, and the
    first NaN order raises the same error as evaluating that order alone.
    """
    evaluate = getattr(series.structure, "tail_sup", None)
    if evaluate is not None:
        sup = evaluate(zs, lo, hi)
        if not np.isnan(sup).any():
            return sup
    sup = np.full(zs.shape, -np.inf)
    for n, lm in _log_mags(series, zs, lo, hi):
        np.maximum(sup, lm / n, out=sup)
    return sup


def classify_point(series: CoefficientSeries, z: complex, N: int,
                   B: float, M: float) -> Verdict:
    """Three-way verdict at one point.  Requires B < M, so the converge and
    diverge conditions are mutually exclusive.  Unlike conv_map it reads
    every order 1..N (growth_exponent), so a NaN at any of them raises."""
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
    return _verdicts(_sup(series, zs, *tail_window(N)), B, M)


def conv_map(series: CoefficientSeries, grid: Grid, N: int, B: float,
             M: float) -> ConvergenceMap:
    """Classify every cell center of the grid.

    Cell verdicts equal classify_point's at that center, except that a NaN
    order before the tail window raises there and is not read here: the scan
    is one deterministic pass over the window's orders, vectorized over cells.
    """
    _check_budgets(series, N, B, M)
    sup = _sup(series, grid.centers(), *tail_window(N))
    return ConvergenceMap(grid, _verdicts(sup, B, M), sup, N, B, M)


def level_set(series: CoefficientSeries, j: int, N: int,
              omega: RegionMask) -> RegionMask:
    """Cells of the j-th exhaustion piece where |f_n(z)| <= j^n for every
    1 <= n <= N, i.e. where the sup of the exponents over orders 1..N is at
    most log j.  These sets ascend in j."""
    if j < 1:
        raise ValueError("level index j must be >= 1")
    _check_range(series, N, 1)
    base = omega_exhaustion(omega, j)
    ok = _sup(series, omega.grid.centers(), 1, N) <= math.log(j)
    return RegionMask(omega.grid, base.bits & ok, COMPACT)
