"""Growth classification of formal power series with function coefficients.

A series f(z, t) = sum_n f_n(z) t^n is represented by the structure that
built it, whose one evaluator is the sup of its growth exponents over an
order range.  This module owns the order ranges: it checks them, reads the
sup over them and reports NaN inside the range read.  All magnitudes live
in log space: ``-inf`` encodes an exactly vanishing coefficient and is a
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
    """Coefficient growth of a series, from its structure.

    ``structure`` carries the constructive description (see construct.py)
    and only evaluates:

    * ``tail_sup(z, lo, hi, divisors=None)`` returns max over n = lo..hi of
      log|f_n(z)| / divisors[n - lo], the divisors defaulting to n, in z's
      shape, 1 <= lo; a cell with a NaN order gets a NaN sup.  z is points,
      or a Grid, which stands for all its cell centres in grid shape;
    * ``f0_log_mag`` is log|f_0|, which is constant in z.

    Range checks and NaN reports live in this module.  ``max_supported_n``
    is None for unbounded series.
    """

    structure: object
    description: str = ""
    max_supported_n: int | None = None


def reject_nan(values, n: int) -> None:
    """Raise when order n's values hold a NaN, naming the first one."""
    bad = np.argwhere(np.isnan(np.asarray(values, dtype=float)))
    if len(bad):
        raise RuntimeError(
            f"coefficient oracle produced NaN at n={n}, "
            f"first offending entry index {tuple(map(int, bad[0]))}")


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


def _sup(series: CoefficientSeries, zs: Grid | np.ndarray, lo: int,
         hi: int) -> np.ndarray:
    """max over n = lo..hi of (1/n) * log|f_n(zs)|, with 1 <= lo, from the
    structure's tail_sup, at points or at a grid's cell centres.

    A NaN in it raises for the least order n whose sup over lo..n is NaN
    on some cell, found by bisection over the NaN cells alone, taken as
    points, and names the first cell that order is NaN on, as evaluating
    it alone would.
    """
    evaluate = series.structure.tail_sup
    sup = evaluate(zs, lo, hi)
    nan = np.isnan(sup)
    if nan.any():
        cells = (zs.centers() if isinstance(zs, Grid) else zs)[nan]
        while lo < hi:
            mid = (lo + hi) // 2
            if np.isnan(evaluate(cells, lo, mid)).any():
                hi = mid
            else:
                lo = mid + 1
        at_n = np.zeros(sup.shape)
        at_n[nan] = evaluate(cells, lo, lo)
        reject_nan(at_n, lo)
    return sup


def classify_point(series: CoefficientSeries, z: complex, N: int,
                   B: float, M: float) -> Verdict:
    """Three-way verdict at one point: classify_points on z alone."""
    return Verdict(int(classify_points(series, z, N, B, M)))


def _verdicts(sup: np.ndarray, B: float, M: float) -> np.ndarray:
    verdicts = np.full(sup.shape, Verdict.UNDETERMINED, dtype=np.int8)
    verdicts[sup <= B] = Verdict.CONVERGE
    verdicts[sup >= M] = Verdict.DIVERGE
    return verdicts


def classify_points(series: CoefficientSeries, zs: np.ndarray, N: int,
                    B: float, M: float) -> np.ndarray:
    """Vectorized verdicts for an array of points.  Requires B < M, so the
    converge and diverge conditions are mutually exclusive."""
    _check_budgets(series, N, B, M)
    zs = np.asarray(zs, dtype=complex)
    return _verdicts(_sup(series, zs, *tail_window(N)), B, M)


def conv_map(series: CoefficientSeries, grid: Grid, N: int, B: float,
             M: float) -> ConvergenceMap:
    """Classify every cell center of the grid: classify_points on the
    centers, one pass over the tail window vectorized over cells, with the
    grid handed to the structure, which may then read its root logs from
    the grid's offset table."""
    _check_budgets(series, N, B, M)
    sup = _sup(series, grid, *tail_window(N))
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
    ok = _sup(series, omega.grid, 1, N) <= math.log(j)
    return RegionMask(omega.grid, base.bits & ok, COMPACT)
