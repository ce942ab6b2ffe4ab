"""Constructors for series with prescribed convergence behavior.

Three constructions are implemented.  Each produces a CoefficientSeries
whose structure is its one evaluator: ``tail_sup`` takes the sup of the
growth exponents over an order range, vectorized over point arrays, and
``f0_log_mag`` gives the constant term.

* product series: coefficients C_n * prod_{j<=n} (z - z_j) with the
  countable-set scaling C_n = (n / gamma_n)^n, which forces divergence
  away from the point set while every z_k kills all coefficients of index
  >= k exactly;
* block series of powered polynomials: f_l = h_l^l for a member list h_l of
  normalized root polynomials, grouped in stage blocks: the separating
  families of a chain of stages, which a compact set's distance shells or
  an ascending decomposition produce and one builder consumes;
* parity interleave: F_2m = f_m, F_{2m+1} = g_m, whose convergence behavior
  is the intersection of the two inputs'.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .geometry import (OPEN, Grid, RegionMask, bounding_box, distance_to,
                       exhaustion, polynomial_hull, set_distance)
from .series import CoefficientSeries

# budget for one chunk of the working memory of an evaluator: the passes of
# _product_tail_sup over a chunk of cells, and the (member x cell) block
# that block series fold at one degree (BlockStructure.tail_sup)
TABLE_BYTES = 1 << 20

# the working rows kept per cell, in bytes: _top_screen's top, root and
# magnitude sums, bound max and scratch rows, and the row's index, key and
# centre
_CELL_BYTES = 128

_UNIT_ROUNDOFF = 2.0 ** -53

# BlockStructure.tail_sup screens the cells whose exponents stay within
# this factor of 1 in magnitude, and bounds underflow by its inverse
_SCREEN_RANGE = 2.0 ** 1000


def _log_abs(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values, out=out), out=out)


@lru_cache(maxsize=1)
def _offset_logs(grid: Grid) -> np.ndarray | None:
    """Flat (2H - 1) x (2W - 1) table of log|z - r| over the index offsets
    of cell centres z, r, offset (0, 0) in the middle; None unless, on the
    floats, re[i] - re[a] == tx[i - a] for all i, a, and so for im."""
    z, axes = grid.centers(), []
    for c in (z[0].real, z[:, 0].imag):
        diff, n = np.subtract.outer(c, c), np.arange(c.size)  # c[i] - c[a]
        t = np.concatenate((diff[0, :0:-1], diff[:, 0]))  # at i - a + n - 1
        if not np.array_equal(diff, t[np.subtract.outer(n, n) + c.size - 1]):
            return None
        axes.append(t)
    table = np.fromiter((_log_abs(axes[0] + 1j * y) for y in axes[1]),
                        (float, axes[0].size), axes[1].size).ravel()
    table.setflags(write=False)  # every row of the grid reads it
    return table


class _RootLogRow:
    """row(root): log|z - r| over a set of cells z, for one root r.

    The cells are the centres of a grid's cells at the flat indices
    ``cells`` (all of them, in grid shape, when None), or else the points
    z, in z's shape.  row.locate(roots) names each root that is exactly a
    cell centre of a grid with an _offset_logs table by that cell's flat
    index, and row(root) gathers such a root's row from the table by the
    cells' keys j (2W - 1) + i.  Every other root, and every root over
    points or over a grid without a table, takes _log_abs(z - r); a flat
    index there stands for its cell's centre.  row.box(root, rows, cols)
    is the row over a rectangle of a grid's cells: a view of the table's
    (2H - 1) x (2W - 1) rectangle of their offsets from the root, or else
    _log_abs(centres[rows, cols] - r).  Either way the same complex
    values pass the same abs and log, so the bits agree.

    Its users: the K-row of leja_points, the target box of
    _separating_families (row.box), and the tail sups of both series
    structures: _top_screen and _table_sup for product series, and
    BlockStructure.tail_sup, directly or as an interleave's child.
    conv_map and level_set hand those their grid.
    """

    def __init__(self, z: Grid | np.ndarray, cells: np.ndarray | None = None):
        if isinstance(z, Grid):
            self.grid, self.table = z, _offset_logs(z)
            self.shape = (z.height, z.width) if cells is None else cells.shape
            self.cells = (np.arange(z.width * z.height) if cells is None
                          else cells)
        else:
            self.grid = self.table = self.cells = None
            self.points = np.asarray(z, dtype=complex).ravel()
            self.shape = np.shape(z)
        self.size = (self.points if self.cells is None else self.cells).size

    @cached_property
    def points(self) -> np.ndarray:
        """The cells' centres, flat."""
        return self.grid.centers().ravel()[self.cells]

    @cached_property
    def keys(self) -> np.ndarray:
        """The cells' offset-table keys j (2W - 1) + i."""
        return self.cells + self.cells // self.grid.width * (
            self.grid.width - 1)

    def __getitem__(self, keep) -> "_RootLogRow":
        """The row over the cells at ``keep`` (a slice, mask or index
        array), flat."""
        part = copy.copy(self)
        for name in ("cells", "keys", "points"):
            if self.__dict__.get(name) is not None:
                setattr(part, name, self.__dict__[name][keep])
        part.shape = (part.points if part.cells is None else part.cells).shape
        part.size = part.shape[0]
        return part

    def locate(self, roots) -> list[int | complex]:
        """Each root as the flat index of the cell whose centre it is, if
        the row reads a table, else as a complex."""
        roots = np.asarray(roots, dtype=complex)
        if self.table is None:
            return roots.tolist()
        z, at = self.grid.centers(), []
        for axis, part in ((z[0].real, roots.real),
                           (z[:, 0].imag, roots.imag)):
            i = np.searchsorted(axis, part).clip(max=axis.size - 1)
            at.append(np.where(axis[i] == part, i, -1))
        flat = np.where((at[0] < 0) | (at[1] < 0), -1,
                        at[1] * self.grid.width + at[0])
        return [r if f < 0 else f
                for f, r in zip(flat.tolist(), roots.tolist())]

    def first_roots(self, roots: np.ndarray) -> np.ndarray:
        """Per cell, the least k with z == roots[k] for a finite z, and
        len(roots) where there is none."""
        roots = np.asarray(roots, dtype=complex)
        order = np.argsort(roots, kind="stable")
        k = order[np.searchsorted(roots[order], self.points).clip(
            max=roots.size - 1)]
        return np.where((roots[k] == self.points) & np.isfinite(self.points),
                        k, roots.size)

    def __call__(self, root: int | complex,
                 out: np.ndarray | None = None) -> np.ndarray:
        if self.table is None or isinstance(root, complex):
            return self.direct(root, out)
        return self.gather(root, out)

    def direct(self, root: int | complex,
               out: np.ndarray | None = None) -> np.ndarray:
        if not isinstance(root, complex):
            root = self.grid.centers().flat[root]
        return _log_abs(self.points - root, out)

    def gather(self, root: int, out: np.ndarray | None = None) -> np.ndarray:
        w, h = self.grid.width, self.grid.height  # start = mid - key(root)
        start = (h - 1) * (2 * w - 1) + w - 1 - root - root // w * (w - 1)
        # the keys are in range by construction; "clip" skips the checked
        # copy that "raise" makes into out
        return self.table[start:].take(self.keys, out=out, mode="clip")

    def box(self, root: int, rows: slice, cols: slice) -> np.ndarray:
        """The row over the grid's cells [rows, cols], in that shape, for
        the root at a flat cell index."""
        w, h = self.grid.width, self.grid.height
        if self.table is None:
            z = self.grid.centers()
            return _log_abs(z[rows, cols] - z.flat[root])
        j, i = divmod(root, w)
        return self.table.reshape(2 * h - 1, 2 * w - 1)[
            rows.start + h - 1 - j:rows.stop + h - 1 - j,
            cols.start + w - 1 - i:cols.stop + w - 1 - i]


@dataclass(frozen=True)
class PointSequence:
    """Ordered points; leja_points also sets log_sups and cells."""

    points: tuple[complex, ...]
    log_sups: tuple[float, ...] = ()
    cells: tuple[int, ...] = ()

    @classmethod
    def from_points(cls, pts) -> "PointSequence":
        tup = tuple(complex(p) for p in pts)
        if len(set(tup)) != len(tup):
            raise ValueError("point sequence contains duplicate points")
        return cls(tup)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


@dataclass(frozen=True)
class RootPolynomial:
    """Polynomial given by roots and a log-scale: p(z) = e^s * prod (z - r)."""

    roots: tuple[complex, ...]
    log_scale: float

    @property
    def degree(self) -> int:
        return len(self.roots)

    def log_abs(self, z: np.ndarray | complex) -> np.ndarray | float:
        # sum the root terms first and fold log_scale in last: the family
        # builder normalizes by subtracting max_K of the plain root sum, so
        # this order reproduces sup_K <= 0 exactly instead of up to an ulp
        zs = np.asarray(z, dtype=complex)
        total = np.zeros(zs.shape)
        for r in self.roots:
            total += _log_abs(zs - r)
        total += self.log_scale
        if np.ndim(z) == 0:
            return float(total)
        return total


def gamma_table(points: PointSequence) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_n, log C_n) for n = 1..len(points)-1, with
    log C_n = n * (log n - log gamma_n)."""
    # a running minimum of each new point's gaps to the earlier points is
    # exactly the pairwise minimum of the first n + 1 points, in O(n^2)
    # overall; tests/conftest.py's gamma_sequence takes it from scratch
    pts = points.as_array()
    n_max = len(pts) - 1
    gammas = np.empty(n_max)
    min_gap = math.inf
    for n in range(1, n_max + 1):
        min_gap = min(min_gap, float(np.abs(pts[:n] - pts[n]).min()))
        if min_gap == 0.0:
            raise ValueError("points must be pairwise distinct")
        gammas[n - 1] = min(0.5 * min_gap, 1.0 / n)
    ns = np.arange(1, n_max + 1, dtype=float)
    log_c = ns * (np.log(ns) - np.log(gammas))
    return gammas, log_c


def _product_tail_sup(z: Grid | np.ndarray | complex, roots: np.ndarray,
                      log_c: np.ndarray, lo: int, hi: int,
                      divisors: np.ndarray | None = None) -> np.ndarray:
    """max over n = lo..hi of log|C_n * prod_{j<n} (z - roots[j])| divided
    by divisors[n - lo], which defaults to n and is positive, where log_c
    holds log C_n for n = lo..hi and 1 <= lo; a cell with a NaN order gets
    a NaN sup.  z is points, or a grid for all its cell centres.

    Every sup is bit-identical to the max over orders of each order summed
    alone: from log C_n, adding the root terms in sequence, each root term
    read through one _RootLogRow.  Cells go in chunks of
    TABLE_BYTES // _CELL_BYTES through one pass over the roots each
    (_top_screen), which settles most of them; the cells it leaves go
    through their (order x cell) table (_table_sup), in chunks of
    TABLE_BYTES // (8 (hi - lo + 1)) cells, at least one.

    That sum of order n is a recursive summation of the n + 1 terms
    log C_n, log|z - roots[0]|, ..., log|z - roots[n-1]|, so its value E_n
    is within gamma_n * sum|terms| of their exact sum, with
    gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, section 4.2).  One running sum P_n of the root
    terms serves all orders; A_n = log C_n + P_n sums the same terms
    recursively in another order, so |E_n - A_n| <= 2 gamma_n * sum|terms|.
    With S_n the running sum of the root terms' magnitudes, the margin
    m_n = 4 (n + 2) u (|log C_n| + S_n) exceeds that bound after its own
    roundings while n u < 1/4, and as rounding is monotone, (A_n - m_n) /
    d_n <= E_n / d_n <= (A_n + m_n) / d_n holds for the rounded quotients
    too.

    The screen sums the top order E_hi exactly, as _table_sup does, and
    folds the upper bounds of the orders lo..hi-1 into their max U.  Where
    U < E_hi / d_hi, every other order lies strictly below the top one, so
    the sup is E_hi / d_hi, bit for bit.  A NaN order, or an infinite
    margin over an infinite sum, makes U NaN and the cell unsettled; so
    does an exact tie with the top order.

    A finite cell z that is one of the first hi roots, roots[k] with k
    least, has log|z - roots[k]| = log 0 = -inf.  Where every log C_n of
    the window is finite and the cell's P_hi is -inf, every root term is
    finite or -inf, so every order n > k sums to -inf there, and the
    terms before k are finite exactly when P_k is.  So for k < lo the sup
    is -inf.  For k >= lo the screen sums order k instead of hi at that
    cell, from log C_k, and holds E_k, U over the orders lo..k-1 and P_k
    when it reaches order k: where P_k is finite and U < E_k / d_k, the
    sup is E_k / d_k, bit for bit.  Any other such cell is unsettled.
    """
    row = _RootLogRow(z)
    if divisors is None:
        divisors = np.arange(lo, hi + 1, dtype=float)
    located = row.locate(roots[:hi])
    first = (row.first_roots(roots[:hi]) if np.isfinite(log_c).all()
             else np.full(row.size, hi))
    sup = np.empty(row.size)
    settled = np.empty(row.size, dtype=bool)
    step = max(1, TABLE_BYTES // _CELL_BYTES)
    for start in range(0, row.size, step):
        at = slice(start, start + step)
        sup[at], settled[at] = _top_screen(row[at], located, first[at],
                                           log_c, lo, hi, divisors)
    rest = np.flatnonzero(~settled)
    step = max(1, TABLE_BYTES // (8 * (hi - lo + 1)))
    for start in range(0, rest.size, step):
        at = rest[start:start + step]
        sup[at] = _table_sup(row[at], located, log_c, lo, hi, divisors)
    return sup.reshape(row.shape)


def _top_screen(cells: _RootLogRow, roots: list, first: np.ndarray,
                log_c: np.ndarray, lo: int, hi: int, divisors: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """(top, settled) over a row of cells: top[k] is the top order's
    E_n / d_n at cell k, with _table_sup's bits, and settled[k] says that
    it is the sup over lo..hi there (see _product_tail_sup).  The top
    order is hi, or the order first[k] of the root the cell is, where that
    is below hi.  Each root term is evaluated once and added to the top
    order's sum, the running root sum P and the magnitude sum S."""
    on = np.flatnonzero(first < hi)
    k = first[on]
    inside = k >= lo
    top = np.full(cells.size, log_c[hi - lo])
    top[on[inside]] = log_c[k[inside] - lo]
    # the cells on roots that stop at order n, as indices into ``on``
    held = {int(n): np.flatnonzero(k == n) for n in np.unique(k[inside])}
    held_top, held_upper, held_total = (np.zeros(on.size) for _ in range(3))
    total = np.zeros(cells.size)
    size = np.zeros(cells.size)
    upper = np.full(cells.size, -np.inf)
    term, bound, margin = (np.empty(cells.size) for _ in range(3))
    # an infinite margin over a -inf sum is NaN: unsettled, not an error
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, r in enumerate(roots[:hi]):
            cells(r, out=term)
            top += term
            total += term
            size += np.abs(term, out=bound)
            n = j + 1
            if n < lo or n == hi:
                continue
            if n in held:
                i = held[n]
                held_top[i], held_upper[i], held_total[i] = (
                    top[on[i]], upper[on[i]], total[on[i]])
            c = log_c[n - lo]
            np.add(size, abs(c), out=margin)
            margin *= 4 * (n + 2) * _UNIT_ROUNDOFF
            np.add(total, c, out=bound)
            bound += margin
            bound /= divisors[n - lo]
            np.maximum(upper, bound, out=upper)
        top /= divisors[hi - lo]
        settled = upper < top
        held_top /= divisors[np.maximum(k, lo) - lo]
        top[on] = np.where(inside, held_top, -np.inf)
        settled[on] = (total[on] == -np.inf) & (~inside | (
            np.isfinite(held_total) & (held_upper < held_top)))
        return top, settled


def _table_sup(cells: _RootLogRow, roots: list, log_c: np.ndarray, lo: int,
               hi: int, divisors: np.ndarray) -> np.ndarray:
    """_product_tail_sup over a row of cells by its (order x cell) table:
    row n = lo..hi starts at log C_n, each root term, evaluated once, is
    added into every row n above its index, and each row is divided by its
    divisor, so row n sums log C_n and the root terms in sequence, as the
    screen sums its top order.  A running np.maximum over the rows, in
    order from -inf, gives the sup, NaN included.  The table costs
    O(N^2) adds per cell; only cells the screen leaves come here."""
    table = np.repeat(log_c[:, None], cells.size, axis=1)
    term = np.empty(cells.size)
    for j, r in enumerate(roots[:hi]):
        table[max(j + 1, lo) - lo:] += cells(r, out=term)
    table /= divisors[:, None]
    sup = np.full(cells.size, -np.inf)
    for sums in table:
        np.maximum(sup, sums, out=sup)
    return sup


@dataclass(frozen=True)
class CountableStructure:
    """Product series f_n = C_n * prod_{j<n} (z - points[j]) for
    n = 0..len(log_c) - 1, with ``log_c`` holding log C_n from n = 0.

    ``gammas`` holds the separation scales gamma_n (n >= 1); log C_0 is 0,
    and the last point is never a root.
    """

    points: tuple[complex, ...]
    log_c: tuple[float, ...]
    gammas: tuple[float, ...]

    def tail_sup(self, z: Grid | np.ndarray | complex, lo: int, hi: int,
                 divisors: np.ndarray | None = None) -> np.ndarray:
        """Tail sup of the exponents over orders lo..hi at points z, or
        at a grid's cell centres (see _product_tail_sup)."""
        return _product_tail_sup(z, np.array(self.points, dtype=complex),
                                 np.array(self.log_c[lo:hi + 1]), lo, hi,
                                 divisors)

    @property
    def f0_log_mag(self) -> float:
        """log|f_0| = log C_0."""
        return self.log_c[0]


def countable_series_from_tables(structure: CountableStructure) -> CoefficientSeries:
    """The product series of stored tables.

    The structure evaluates the stored log C_n values directly, so a series
    loaded from disk reproduces the original maps bit for bit.
    """
    n_max = len(structure.points) - 1
    if len(structure.log_c) != n_max + 1:
        raise ValueError(f"log_c table must have {n_max + 1} entries "
                         f"(orders 0..{n_max}), got {len(structure.log_c)}")
    if len(structure.gammas) != n_max:
        raise ValueError("gammas table must have len(points) - 1 entries")
    if not all(g > 0 for g in structure.gammas):
        raise ValueError("gammas entries must be > 0")
    return CoefficientSeries(
        description=f"countable-set series on {n_max + 1} points",
        max_supported_n=n_max, structure=structure)


def countable_set_series(points: PointSequence) -> CoefficientSeries:
    """Series whose n-th coefficient is C_n * prod_{j=1..n} (z - z_j).

    At z_k every coefficient of index n >= k contains the root z_k, so its
    log-magnitude is exactly -inf; away from the whole sequence the scaling
    C_n = (n / gamma_n)^n forces growth exponents >= log n along a
    subsequence.  At truncation order N the tail window [ceil(N/2), N] is
    therefore all -inf at z_k exactly when k <= ceil(N/2).  Supports
    coefficient orders up to len(points) - 1.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    gammas, log_c = gamma_table(points)
    return countable_series_from_tables(CountableStructure(
        points.points, (0.0, *log_c), tuple(gammas)))


@dataclass(frozen=True)
class InterleaveStructure:
    even: CoefficientSeries
    odd: CoefficientSeries

    @property
    def f0_log_mag(self) -> float:
        """log|F_0| = log|f_0|."""
        return self.even.structure.f0_log_mag

    def tail_sup(self, z: Grid | np.ndarray | complex, lo: int, hi: int,
                 divisors: np.ndarray | None = None) -> np.ndarray:
        """max over n = lo..hi of log|F_n(z)| divided by divisors[n - lo],
        which defaults to n, with 1 <= lo; a cell with a NaN order gets a
        NaN sup.  z is points, or a grid, which each child takes as it is.

        Each child's tail_sup takes the child orders m in the window, each
        with the divisor of its order here, 2m or 2m + 1, and the sup is
        the larger of the two.  F_1 = g_0 is an order no tail_sup takes,
        so it is the odd series' f0_log_mag.
        """
        if divisors is None:
            divisors = np.arange(lo, hi + 1, dtype=float)
        sup = np.full((z.height, z.width) if isinstance(z, Grid)
                      else np.shape(z), -np.inf)
        for child, parity in ((self.even, 0), (self.odd, 1)):
            a, b = (lo - parity + 1) // 2, (hi - parity) // 2
            if a == 0:  # lo = 1: F_1 = g_0
                np.maximum(sup, child.structure.f0_log_mag / divisors[0],
                           out=sup)
                a = 1
            if a <= b:
                np.maximum(sup, child.structure.tail_sup(
                    z, a, b, divisors[2 * a + parity - lo::2]), out=sup)
        return sup


def interleave(f: CoefficientSeries, g: CoefficientSeries) -> CoefficientSeries:
    """Parity merge: F_n = f_{n/2} for even n, g_{(n-1)/2} for odd n.

    The merged series converges at z exactly when both inputs do (their
    exponent tails appear at doubled indices, halving the exponents of
    both)."""
    fmax = math.inf if f.max_supported_n is None else f.max_supported_n
    gmax = math.inf if g.max_supported_n is None else g.max_supported_n
    merged = 2 * min(fmax, gmax)
    return CoefficientSeries(
        description=f"interleave of ({f.description}) and ({g.description})",
        max_supported_n=None if math.isinf(merged) else int(merged),
        structure=InterleaveStructure(f, g),
    )


def leja_points(K: RegionMask, count: int) -> PointSequence:
    """Greedy extremal points on K's cell centers, with their prefix sups.

    The first point maximizes |z|; each next point maximizes the sum of log
    distances to the points already chosen.  Ties break to the lowest flat
    cell index.  log_sups[d-1] is that sum's max over K after d points: the
    log sup over K's cells of prod_{i<=d} |z - z_i|.  If no fresh maximizer
    exists (all candidates at -inf, e.g. a single-cell K exhausted), the
    sequence saturates: it stops short of count, its last log sup -inf.
    cells[d-1] is point d's flat grid index, its K-row a _RootLogRow."""
    if K.is_empty():
        raise ValueError("leja_points requires a non-empty mask")
    if count < 1:
        raise ValueError("count must be >= 1")
    row = _RootLogRow(K.grid, np.flatnonzero(K.bits))
    zs = K.cell_centers()
    accum = np.zeros(zs.shape)
    nxt, chosen, log_sups = int(np.argmax(np.abs(zs))), [], []
    while True:
        chosen.append(nxt)
        accum += row(row.cells[nxt])
        nxt = int(np.argmax(accum))
        log_sups.append(float(accum[nxt]))
        if len(chosen) == count or log_sups[-1] == -np.inf:
            break
    return PointSequence(tuple(map(complex, zs[chosen])), tuple(log_sups),
                         tuple(row.cells[chosen].tolist()))


@dataclass
class SeparatingFamily:
    """Polynomials bounded by 1 on a stage's E that exceed its level m on
    the stage's target.

    ``uncovered`` collects the target cells no member reaches (empty when
    the family fully separates).
    """

    members: list[RootPolynomial]
    uncovered: RegionMask


# one stage of a chain: (label, E, U, target, m)
_Stage = tuple[str, RegionMask, RegionMask, RegionMask, int]


def _sum_threshold(norm: float, level: float) -> float:
    """T, the least float s with fl(s - norm) >= level, for finite norm
    and level.  As rounding is monotone, fl(s - norm) >= level exactly
    when s >= T, for every s (NaN passes neither).  T is at most four
    nextafter steps from fl(level + norm), or else it is bisected over
    the floats' ordered bit patterns within 4 ulp(max(|level|, |norm|))
    of it: where s - norm cancels, the floats near T are far finer than
    those ulps (T is about -5.6e-17 at norm = -log 2, level = log 2)."""
    t = level + norm
    for _ in range(4):
        if t - norm < level:
            t = math.nextafter(t, math.inf)
        elif (below := math.nextafter(t, -math.inf)) - norm >= level:
            t = below
        else:
            return t

    def flip(i: int) -> int:  # int64 bits <-> keys in the floats' order
        return i if i >= 0 else -(1 << 63) - 1 - i

    spread = 4 * math.ulp(max(abs(level), abs(norm)))
    lo, hi = (flip(int(np.float64(level + norm + e).view(np.int64)))
              for e in (-spread, spread))
    while hi - lo > 1:  # fl(s - norm) < level at lo, >= level at hi
        mid = (lo + hi) // 2
        s = float(np.int64(flip(mid)).view(np.float64))
        lo, hi = (lo, mid) if s - norm >= level else (mid, hi)
    return float(np.int64(flip(hi)).view(np.float64))


def _separating_families(
        stages: Sequence[_Stage],
        degree_cap: int) -> tuple[tuple[complex, ...], list[SeparatingFamily]]:
    """A separating family for each (label, E, U, target, m) stage of a
    lockstep group, whose E all have the cells of the first one, K, with
    K's convexity checked once and errors prefixed by the label, and the
    sequence every member is a prefix of, up to the highest degree.

    A stage's family separates K from its target at level m: monic
    polynomials with greedy extremal roots on K are normalized so their
    sup over K's cells is exactly 1; each degree whose normalized
    polynomial reaches log m on a not-yet-covered target cell joins the
    family.  Degrees past ``degree_cap`` are not tried; remaining target
    cells go into the uncovered report.

    Multi-cell stages share one Leja sequence, whose log_sups give each
    degree's sup over K, and one running root-log sum over a box of
    target cells, to which each degree adds its root's _RootLogRow.box.
    Each stage keeps its own level m, early stop, ``need`` mask over the
    box (the target cells it has not reached yet) and their count.  Its
    normalized polynomial reaches log m where fl(sum - norm) >= log m,
    that is where sum >= _sum_threshold(norm, log m), one comparison per
    cell.  The box is the bounding box of their targets at every
    degree; a stage leaves the loop once it has reached all its cells.
    The logs are elementwise, so each family is the one its stage alone
    would get, bit for bit.
    """
    K = stages[0][1]
    for i, (label, _, U, target, m) in enumerate(stages):
        try:
            if m < 1:
                raise ValueError("m must be >= 1")
            if i == 0 and degree_cap < 1:
                raise ValueError("degree_cap must be >= 1")
            if i == 0 and not polynomial_hull(K).same_cells(K):
                raise ValueError("K is not polynomially convex on the raster")
            if not K.subset_of(U):
                raise ValueError("K must be contained in U")
            if not target.intersect(U).is_empty():
                raise ValueError("target must be disjoint from U")
        except ValueError as exc:
            raise ValueError(f"{label}{exc}") from exc

    grid = K.grid
    members: list[list[RootPolynomial]] = [[] for _ in stages]
    uncovered = [np.zeros((grid.height, grid.width), dtype=bool)
                 for _ in stages]
    sequence: tuple[complex, ...] = ()
    live: list[int] = []
    for i, (label, _, _, target, m) in enumerate(stages):
        if target.is_empty():
            continue
        if K.is_empty():
            raise ValueError(f"{label}K is empty but the target is not")
        elif K.count() == 1:
            # no monic polynomial separates from a one-cell K (sup over K of
            # |z - a| is 0), so scale the linear factor directly; the nearest
            # target cell sits exactly at value m, which float rounding can
            # drop an ulp below the threshold, hence the relative shave
            sequence = (complex(K.cell_centers()[0]),)
            rho = (set_distance(K, target) / m) * (1.0 - 1e-12)
            members[i].append(RootPolynomial(sequence, -math.log(rho)))
            uncovered[i][target.bits] = ~(np.asarray(members[i][0].log_abs(
                target.cell_centers())) >= math.log(m))
        else:
            live.append(i)

    if live:
        leja = leja_points(K, degree_cap)
        row = _RootLogRow(grid)
        # the box the row spans: the bounding box of the running stages'
        # targets; per running stage the box cells it still needs and
        # their count
        ends = bounding_box(RegionMask(grid, np.logical_or.reduce(
            [stages[i][3].bits for i in live]), OPEN))
        box = slice(ends[0], ends[1] + 1), slice(ends[2], ends[3] + 1)
        need = {i: stages[i][3].bits[box].copy() for i in live}
        left = {i: np.count_nonzero(need[i]) for i in live}
        sum_t = np.zeros(need[live[0]].shape)
        hit = np.empty(sum_t.shape, dtype=bool)
        for d, norm in enumerate(leja.log_sups, start=1):
            if norm == -np.inf:
                break  # every K cell is a root; higher degrees are identically 0
            sum_t += row.box(leja.cells[d - 1], *box)
            member = None
            for i in live:
                np.greater_equal(sum_t, _sum_threshold(
                    norm, math.log(stages[i][4])), out=hit)
                hit &= need[i]
                reached = np.count_nonzero(hit)
                if reached:
                    member = member or RootPolynomial(
                        tuple(leja.points[:d]), -norm)
                    members[i].append(member)
                    need[i] ^= hit
                    left[i] -= reached
                    sequence = member.roots
            live = [i for i in live if left[i]]
            if not live:
                break
        for i in live:
            uncovered[i][box] = need[i]

    return sequence, [SeparatingFamily(found, RegionMask(grid, bits, OPEN))
                      for found, bits in zip(members, uncovered)]


def _fold_pairs(best: np.ndarray, x: np.ndarray, groups: np.ndarray,
                cells: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                ells: np.ndarray, divisors: np.ndarray) -> None:
    """For each pair (g, c) of ``groups`` and ``cells``, fold into best[c]
    the exponents fl(fl(ell x[g, c]) / d) of group g's members, whose
    (ell, d) are ells[k] and divisors[k] for k in starts[g] + 0..sizes[g]-1.
    The pairs' members are expanded TABLE_BYTES at a time, and np.maximum
    propagates a NaN."""
    counts = sizes[groups]
    ends = np.cumsum(counts)
    p = 0
    while p < groups.size:
        base = ends[p] - counts[p]
        q = max(p + 1, int(np.searchsorted(ends, base + TABLE_BYTES // 8,
                                           side="right")))
        n = counts[p:q]
        first = ends[p:q] - n - base  # each pair's offset in the batch
        member = np.arange(ends[q - 1] - base) + np.repeat(
            starts[groups[p:q]] - first, n)
        # an exponent may overflow to inf, and .at flags the NaN it keeps
        with np.errstate(over="ignore", invalid="ignore"):
            values = ells[member] * np.repeat(x[groups[p:q], cells[p:q]], n)
            values /= divisors[member]
            np.maximum.at(best, cells[p:q],
                          np.maximum.reduceat(values, first))
        p = q


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Members of a powered block series, on their root sequences.

    Member l (1-based) gives coefficient f_l = h_l^l, where h_l has the
    roots ``sequences[s][:d]`` for (s, d) = ``placement[l - 1]`` and the
    log-scale ``log_scales[l - 1]``; block k holds members with index in
    (n_1+..+n_{k-1}, n_1+..+n_k].  ``f0_log_mag`` is the log-magnitude of
    the constant term.

    The members of a separating-family stage, and of every stage built in
    lockstep with it, are prefixes of one stored Leja sequence, and
    ``tail_sup`` keeps one running root sum per sequence, so each root
    term is evaluated once per sequence and cell, however many share it;
    it then folds, per cell, only the members its screen cannot rule out.
    """

    sequences: tuple[tuple[complex, ...], ...]
    placement: np.ndarray  # (member, 2) rows: sequence index, degree
    log_scales: np.ndarray
    block_sizes: tuple[int, ...]
    f0_log_mag: float
    uncovered_counts: tuple[int, ...] = ()

    @cached_property
    def members(self) -> tuple[RootPolynomial, ...]:
        """Each member as a RootPolynomial, read from the stored fields."""
        return tuple(RootPolynomial(self.sequences[s][:d], scale)
                     for (s, d), scale in zip(self.placement.tolist(),
                                              self.log_scales.tolist()))

    def tail_sup(self, z: Grid | np.ndarray | complex, lo: int, hi: int,
                 divisors: np.ndarray | None = None) -> np.ndarray:
        """max over n = lo..hi of log|f_n(z)| divided by divisors[n - lo],
        which defaults to n, in z's shape, with 1 <= lo and positive
        divisors; a cell with a NaN order gets a NaN sup.  z is points, or
        a grid for all its cell centres, in grid shape.

        The window's members fall into groups of one (sequence, degree,
        log_scale): the stages of a lockstep group share each degree's
        member.  For each chunk of cells, each sequence with a member in
        the window sums its root logs (a _RootLogRow's) once, from zero,
        adding the roots in order, and each group takes
        x = fl(sum + log_scale), with log_scale folded in last as
        RootPolynomial.log_abs does.  Member
        ell of the group, with divisor d, has the exponent
        v = fl(fl(ell x) / d), bit-identical to evaluating it alone.  A
        screen keeps, per cell, the groups that can hold the max, and only
        their members are folded (_fold_pairs).

        The screen bounds each v by y = fl(r_hi x), where r = fl(ell / d)
        lies in [r_lo, r_hi] over the group: r is 1 for the default
        divisors, and m / 2m or m / (2m + 1) for an interleave child's.
        With u = 2^-53, each rounding is fl(t) = t (1 + e) + f, |e| <= u,
        |f| <= 2^-1075 (Higham, Accuracy and Stability of Numerical
        Algorithms, section 2.2, with underflow), so, barring overflow,
        |v - y| <= w |y| + h, with w = 1 - min(r_lo / r_hi) + 32u and
        h = 2^-1000 max(1, 1 / min(d)).  At a cell, the group of the
        largest y, top, holds a v >= top - w |top| - h.  For w <= 1/2,
        y + w |y| increases with y, so a group with
        y < top - 4w |top| - 4h has every v below that and holds no max;
        the slack in w and h absorbs the roundings of this threshold.
        Every other group is folded exactly, and their max is the max of
        all.  No v is NaN there, and x is never -0.0 (the sums start from
        +0.0), so the fold order changes no bits, short of the sign of a
        zero max, which needs a quotient that underflows.

        A cell takes no screen, and folds every group, where top is NaN,
        so that the NaN propagates, infinite, or beyond
        2^1000 / max(1, max(d)) in magnitude.  Below that no positive x
        overflows, as its y is at most top, and a negative x that
        overflows rounds to -inf, which no bound misses.  No cell takes
        the screen if w > 1/2.
        """
        row = _RootLogRow(z)
        seq, degree = self.placement[lo - 1:hi].T
        ells = np.arange(lo, hi + 1, dtype=float)
        if divisors is None:
            divisors = ells
        scales = self.log_scales[lo - 1:hi]
        # the window's members grouped by (sequence, degree, log_scale),
        # in ascending degree within each sequence
        order = np.lexsort((scales, degree, seq))
        keyed = scales[order]
        changes = ((np.diff(seq[order]) != 0) | (np.diff(degree[order]) != 0)
                   | (keyed[1:] != keyed[:-1]))
        starts = np.flatnonzero(np.r_[True, changes])
        g_seq, g_degree = seq[order[starts]], degree[order[starts]]
        # per sequence: its roots up to its highest window degree, located
        # on the row, and its groups (index, degree, log_scale), in
        # ascending degree
        runs = []
        for s, ks in groupby(range(starts.size), key=g_seq.__getitem__):
            folds = [(k, g_degree[k], keyed[starts[k]]) for k in ks]
            runs.append((row.locate(self.sequences[s][:folds[-1][1]]), folds))
        ells, divisors = ells[order], divisors[order]
        ratio = ells / divisors
        r_lo = np.minimum.reduceat(ratio, starts)
        r_hi = np.maximum.reduceat(ratio, starts)
        w = 1 - (r_lo / r_hi).min() + 32 * _UNIT_ROUNDOFF
        h = max(1.0, 1 / divisors.min()) / _SCREEN_RANGE
        big = (_SCREEN_RANGE / max(1.0, divisors.max()) if w <= 0.5
               else -1.0)  # no cell takes the screen
        members = (starts, np.diff(starts, append=order.size), ells, divisors)
        sup = np.full(row.size, -np.inf)
        step = max(1, TABLE_BYTES // (8 * starts.size))  # a chunk's x rows
        for start in range(0, row.size, step):
            cells = row[start:start + step]
            x = np.empty((starts.size, cells.size))
            term = np.empty(cells.size)
            for roots, folds in runs:
                total, done = np.zeros(cells.size), 0
                for g, d, scale in folds:
                    for r in roots[done:d]:
                        total += cells(r, out=term)
                    done = d
                    np.add(total, scale, out=x[g])
            with np.errstate(over="ignore", invalid="ignore"):
                y = r_hi[:, None] * x
                top = y.max(axis=0)
                contend = y >= top - 4 * w * np.abs(top) - 4 * h
            contend[:, ~(np.abs(top) <= big)] = True
            _fold_pairs(sup[start:start + step], x,
                        *np.divmod(np.flatnonzero(contend), cells.size),
                        *members)
        return sup.reshape(row.shape)


def block_series_from_tables(
        sequences: Sequence[tuple[complex, ...]],
        placement: Sequence[tuple[int, int]], log_scales: Sequence[float],
        block_sizes: Sequence[int], f0_log_mag: float, description: str,
        uncovered_counts: Sequence[int] = ()) -> CoefficientSeries:
    """The block series of the tables BlockStructure stores."""
    if sum(block_sizes) != len(log_scales):
        raise ValueError("block sizes do not sum to the member count")
    if len(uncovered_counts) not in (0, len(block_sizes)):
        raise ValueError("uncovered counts must hold one entry per block")
    structure = BlockStructure(
        tuple(sequences), np.array(placement, dtype=np.intp).reshape(-1, 2),
        np.array(log_scales, dtype=float), tuple(block_sizes), f0_log_mag,
        tuple(uncovered_counts))
    return CoefficientSeries(description=description,
                             max_supported_n=len(log_scales),
                             structure=structure)


def block_series(members: Sequence[RootPolynomial],
                 block_sizes: Sequence[int], f0_log_mag: float,
                 description: str,
                 uncovered_counts: Sequence[int] = ()) -> CoefficientSeries:
    """Series with coefficients f_0 = e^{f0_log_mag}, f_l = h_l^l, each
    member on a root sequence of its own: roots are never merged by value,
    as 0.0 + 1j == -0.0 + 1j, yet a series file writes them apart."""
    members = tuple(members)
    return block_series_from_tables(
        [h.roots for h in members],
        [(s, h.degree) for s, h in enumerate(members)],
        [h.log_scale for h in members], block_sizes, f0_log_mag,
        description, uncovered_counts)


def _chain_series(chain: Iterable[_Stage], degree_cap: int,
                  f0_log_mag: float, description: str) -> CoefficientSeries:
    """Block series of a chain of stages, one stage block per stage: the
    families of each run of consecutive stages whose E have equal cells,
    built in lockstep, with the run's sequence stored once if it has
    members.  The chain is read one run at a time."""
    sequences, placement, log_scales, sizes, uncovered = [], [], [], [], []
    for _, group in groupby(chain, key=lambda stage: stage[1].bits.tobytes()):
        sequence, families = _separating_families(list(group), degree_cap)
        s = len(sequences)
        if sequence:
            sequences.append(sequence)
        for family in families:
            placement += [(s, p.degree) for p in family.members]
            log_scales += [p.log_scale for p in family.members]
            sizes.append(len(family.members))
            uncovered.append(family.uncovered.count())
    _offset_logs.cache_clear()  # the families are built: free the table
    return block_series_from_tables(sequences, placement, log_scales, sizes,
                                    f0_log_mag, description, uncovered)


def compact_set_series(K: RegionMask, stages: int,
                       degree_cap: int) -> CoefficientSeries:
    """Series converging on a polynomially convex K, diverging on shells
    pulled away from it.

    Stage m = 1..stages separates K from the shell of cells at distance
    > 1/m from K with |z| <= m; coefficients are the powered members
    h_l^l in stage block order, and the constant term is 0.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    dist_k = distance_to(K)
    abs_z = np.abs(K.grid.centers())
    # U_m is the closed 1/m-dilation of K, so the usable shell is the strict
    # excess; every stage separates the same K, hence one lockstep group
    chain = (("", K, RegionMask(K.grid, dist_k <= 1.0 / m, OPEN),
              RegionMask(K.grid, (dist_k > 1.0 / m) & (abs_z <= m), OPEN), m)
             for m in range(1, stages + 1))
    return _chain_series(
        chain, degree_cap, -math.inf,
        description=f"compact-set series, {stages} stages on {K.count()} cells")


def sigma_convex_series(decomp, omega: RegionMask,
                        degree_cap: int) -> CoefficientSeries:
    """Series converging on the union of an ascending decomposition's pieces
    and diverging elsewhere in the domain.

    Stage k separates E_k from the k-th domain exhaustion piece minus the
    shrinking open cover U_k, at separation level k; the constant term is 1.
    Every compact of the decomposition, and E_{n_max}, must lie in omega.
    """
    if omega.grid != decomp.grid:
        raise ValueError("omega does not live on the decomposition's grid")
    for name, K in [*((f"K_{j}", K) for j, K in enumerate(decomp.K_list, 1)),
                    (f"E_{decomp.n_max}", decomp.E_list[-1])]:
        if not K.subset_of(omega):
            raise ValueError(f"{name} is not contained in omega")
    exhaust = exhaustion(omega)
    chain = ((f"stage {k}: ", decomp.E_list[k - 1], decomp.U_list[k - 1],
              exhaust(k).difference(decomp.U_list[k - 1], kind=OPEN), k)
             for k in range(1, decomp.n_max + 1))
    return _chain_series(chain, degree_cap, 0.0,
                         description=f"sigma-convex series, {decomp.n_max} stages")
