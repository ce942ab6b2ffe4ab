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
from itertools import groupby, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import (OPEN, Grid, RegionMask, bounding_box, distance_to,
                       exhaustion, polynomial_hull, set_distance)
from .series import CoefficientSeries

# budget for one chunk of the working memory of an evaluator: the cell
# chunks of both tail sups (_screen_chunks, by _chunk_cells), each (root
# or order x cell) array of _candidate_sup, each (member x cell) block of
# _fold_group, and each row block of gamma_table's gaps
TABLE_BYTES = 1 << 20

# the working rows kept per cell, in bytes, where every root reads the
# offset table: BlockStructure.tail_sup's top, floor, root sum, root log,
# x and y; _top_screen keeps three of them, its running sum, bound and
# bound max, as it adds each table root from a view
_TABLE_CELL_BYTES = 48

# the same where some root is read directly, which also allocates the
# complex difference, and the row's index and centres
_CELL_BYTES = 88

_UNIT_ROUNDOFF = 2.0 ** -53

# the least positive float, which the screen's margin adds for underflow
_TINY = 2.0 ** -1074

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


@lru_cache(maxsize=1)
def _offset_log_bound(grid: Grid) -> float:
    """The largest |entry| of grid's _offset_logs table but the -inf of
    offset (0, 0), its middle entry: a bound on |log|z - r|| over every
    two distinct cell centres z, r.  Read in place, without temporaries."""
    table = _offset_logs(grid)
    mid = table.size // 2
    return float(max(0.0, table.max(), -table[:mid].min(initial=np.inf),
                     -table[mid + 1:].min(initial=np.inf)))


class _RootLogRow:
    """row(root): log|z - r| over a set of cells z, for one root r.

    The cells are the centres of all a grid's cells, a rectangle row in
    grid shape, or else the points z, in z's shape.  row[keep] is the row
    over part of them, flat: at a slice, mask or index array, or, on a
    rectangle row, at a pair of slices (rows, cols), which gives the
    rectangle row over those cells in that shape.  A grid row's ``cells``
    hold its flat grid indices, in grid order.

    A root is a complex, or the flat index of a grid cell, which stands
    for that cell's centre; row.locate(roots) names each root that is
    exactly a cell centre of the row's grid by that index.  Each root
    takes one of three reads, all of the same complex values through the
    same abs and log, so their bits agree:
    * a complex root, or any root off an _offset_logs table, takes
      row.direct, _log_abs(z - r);
    * a cell root of an index row on a table takes row.gather, a take
      from the table by the cells' keys j (2W - 1) + i, and an array of
      them one take by 2D keys, their (root x cell) rows;
    * a cell root of a rectangle row on a table also takes row.gather, a
      view of the table's rectangle of the cells' offsets from the root,
      in the rectangle's shape, or its copy into ``out``; the other reads
      are flat.
    row.reads(roots, out) reads roots in turn into out, but gives a
    rectangle row's cell roots on a table as gather's views, uncopied.
    row.block(roots, out) fills the (root x cell) array out, in one
    gather where every root is a cell root of an index row on a table.
    row.log_bound(root, logs) bounds the magnitude of a read's finite
    entries, for the product series' margins.

    Its users: the running sum of _leja_steps (_LejaSum), over the
    rectangle of K and the stage targets and then over the index row of
    the cells still in play; the product series' tail sup, whose screen
    (_top_bounds) takes row.reads, and whose candidate step
    (_order_bounds) takes row.block;
    and BlockStructure.tail_sup, directly or as an interleave's child.
    conv_map and level_set hand those their grid.
    """

    def __init__(self, z: Grid | np.ndarray):
        if isinstance(z, Grid):
            self.grid, self.table = z, _offset_logs(z)
            self.shape = (z.height, z.width)
            self.cells = np.arange(z.width * z.height)
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
        """The row over the cells at ``keep``: a slice, mask or index
        array, flat, or a pair of slices, a rectangle in its shape.  A
        slice, or a rectangle that is a run of consecutive cells, views
        this row's index, key and centre arrays; the others copy them."""
        shape = None
        if isinstance(keep, tuple):
            keep = np.arange(self.size).reshape(self.shape)[keep]
            shape, keep = keep.shape, keep.ravel()
            if keep.size and keep[-1] - keep[0] + 1 == keep.size:
                keep = slice(keep[0], keep[-1] + 1)  # a run: views
        part = copy.copy(self)
        part.__dict__.pop("_origin", None)  # it moves with the first cell
        for name in ("cells", "keys", "points"):
            if self.__dict__.get(name) is not None:
                setattr(part, name, self.__dict__[name][keep])
        flat = part.points if part.cells is None else part.cells
        part.shape, part.size = shape or flat.shape, flat.size
        return part

    def locate(self, roots) -> list[int | complex]:
        """Each root as the flat index of the grid cell whose centre it
        is, else as a complex."""
        roots = np.asarray(roots, dtype=complex)
        if self.grid is None:
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

    def __call__(self, root: int | complex,
                 out: np.ndarray | None = None) -> np.ndarray:
        if isinstance(root, complex):
            return self.direct(root, out)
        if self.table is None:
            return self.direct(self.grid.centers().flat[root], out)
        return self.gather(root, out)

    def direct(self, root: complex,
               out: np.ndarray | None = None) -> np.ndarray:
        return _log_abs(self.points - root, out)

    def gather(self, root: int | np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """The row from the table, for the root at a flat cell index: on a
        rectangle row, a view in its shape, or its copy into ``out``.  On
        an index row, an array of roots gives their (root x cell) rows in
        one take."""
        w, h = self.grid.width, self.grid.height  # start = mid - key(root)
        if len(self.shape) == 2:  # from the offset of its first cell
            table, j, i = self._origin
            rj, ri = divmod(root, w)
            view = table[j - rj:j - rj + self.shape[0],
                         i - ri:i - ri + self.shape[1]]
            if out is None:
                return view
            np.copyto(out.reshape(self.shape), view)
            return out
        start = (h - 1) * (2 * w - 1) + w - 1 - root - root // w * (w - 1)
        # the keys are in range by construction; "clip" skips the checked
        # copy that "raise" makes into out
        if np.ndim(start):
            return self.table.take(np.add.outer(start, self.keys), out=out,
                                   mode="clip")
        return self.table[start:].take(self.keys, out=out, mode="clip")

    @cached_property
    def _origin(self) -> tuple[np.ndarray, int, int]:
        """A rectangle row's table as a 2D view, and the table index of its
        first cell's offset from cell 0: the rectangle of a root at grid
        (row rj, column ri) starts rj rows and ri columns before it."""
        w, h = self.grid.width, self.grid.height
        j, i = divmod(int(self.cells[0]), w)
        return (self.table.reshape(2 * h - 1, 2 * w - 1),
                j + h - 1, i + w - 1)

    def reads(self, roots: Sequence, out: np.ndarray) -> Iterator[np.ndarray]:
        """self(root, out) for each root in turn, all into out, but for a
        cell root of a rectangle row on a table: gather's view of the
        table, uncopied, in the rectangle's shape."""
        view = self.table is not None and len(self.shape) == 2
        for r in roots:
            yield (self.gather(r) if view and not isinstance(r, complex)
                   else self(r, out))

    def block(self, roots: Sequence, out: np.ndarray) -> np.ndarray:
        """out[k] = self(roots[k]) for each k, into the (root x cell)
        array out: one gather, a take by 2D keys, where the row is an
        index row on a table and every root a cell root; else root by
        root."""
        if (self.table is None or len(self.shape) == 2
                or any(isinstance(r, complex) for r in roots)):
            for r, logs in zip(roots, out):
                self(r, logs)
            return out
        return self.gather(np.array(roots, dtype=int), out)

    @cached_property
    def table_bound(self) -> float:
        """_offset_log_bound of the row's grid, looked up once per row."""
        return _offset_log_bound(self.grid)

    def log_bound(self, root: int | complex, logs: np.ndarray) -> float:
        """A bound M >= |x| over the finite entries x of logs = self(root):
        the table's (_offset_log_bound) where root reads it, else the
        larger of logs' max and minus its least finite entry, NaN where
        logs holds a NaN and +inf where it holds +inf."""
        if self.table is not None and not isinstance(root, complex):
            return self.table_bound
        least = logs.min()
        if least == -np.inf:  # the root is one of the cells
            least = logs.min(where=logs > -np.inf, initial=np.inf)
        return float(max(logs.max(), -least, 0.0))


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


def gamma_table(points: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_n, log C_n) for n = 1..len(points)-1 of a sequence of
    points, with log C_n = n * (log n - log gamma_n).  Raises ValueError
    unless the points are finite and pairwise distinct (0j and -0j are
    one point)."""
    # the least gap of each point n to the points before it, in row blocks
    # of at most TABLE_BYTES of complex differences; their running minimum
    # is exactly the pairwise minimum of the first n + 1 points, in O(n^2)
    # overall.  tests/conftest.py's gamma_sequence takes it from scratch
    pts = np.array(points, dtype=complex)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    n_max = len(pts) - 1
    gaps = np.empty(n_max)
    step = max(1, TABLE_BYTES // (16 * max(1, n_max)))
    for a in range(1, n_max + 1, step):
        ns = np.arange(a, min(a + step, n_max + 1))
        block = np.abs(pts[:ns[-1]] - pts[ns, None])  # row n, column j
        block[np.arange(ns[-1]) >= ns[:, None]] = np.inf  # only j < n
        gaps[a - 1:ns[-1]] = block.min(axis=1)
    np.minimum.accumulate(gaps, out=gaps)
    if n_max and gaps[-1] == 0.0:
        raise ValueError("points must be pairwise distinct")
    ns = np.arange(1, n_max + 1, dtype=float)
    gammas = np.minimum(0.5 * gaps, 1.0 / ns)
    log_c = ns * (np.log(ns) - np.log(gammas))
    return gammas, log_c


def _product_tail_sup(z: Grid | np.ndarray | complex, roots: np.ndarray,
                      log_c: np.ndarray, lo: int, hi: int,
                      divisors: np.ndarray | None = None) -> np.ndarray:
    """max over n = lo..hi of log|C_n * prod_{j<n} (z - roots[j])| divided
    by divisors[n - lo], which defaults to n and is positive, where log_c
    holds log C_n for n = lo..hi and 1 <= lo; a cell with a NaN order gets
    a NaN sup.  z is points, or a grid for all its cell centres.

    Every sup is bit-identical to the table's: a running np.maximum from
    -inf over the orders in turn, each order summed alone, from log C_n,
    adding the root terms in sequence, each root term read through one
    _RootLogRow, and divided by its divisor.  Two steps take the cells in
    turn, the second only the cells the first leaves, in chunks of at
    least one cell:
    * the screen (_top_screen), in _screen_chunks' chunks of _chunk_cells
      cells, one pass over the roots each, settles most of them;
    * the candidate step (_candidate_sup), in chunks of
      TABLE_BYTES // (8 (hi + 1)) cells, folds each cell's candidates, the
      orders that its bounds leave in reach of the sup.

    That sum of order n is a recursive summation of the n + 1 terms
    log C_n, t_0, ..., t_{n-1} with t_j = log|z - roots[j]|, so at a cell
    where they are finite its value E_n is within gamma_n T_n of their
    exact sum, where T_n = |log C_n| + A_n, A_n = |t_0| + ... + |t_{n-1}|,
    gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, sections 2.2 and 4.2); a recursive
    sum of terms >= 0 is at least (1 - gamma_n) times theirs.  Addition
    and subtraction satisfy fl(x) = x (1 + e), |e| <= u, also below
    2^-1022, where they are exact; a product may lose up to 2^-1075 more
    to underflow.  Below, n u < 1/4, so that gamma_n <= 4/3 n u < 1/3.
    Both bounding steps bound each root's terms over a chunk by one float
    M_j >= |t_j| at every cell where t_j is finite
    (_RootLogRow.log_bound) and sum them into a running
    S_n = fl(M_0 + ... + M_{n-1}) >= (1 - gamma_n) A_n.

    The screen keeps one running sum per cell, top_n: log C_hi, then
    t_0, ..., t_{n-1} in sequence, within gamma_n (|log C_hi| + A_n) of
    log C_hi + t_0 + ... + t_{n-1}; top_hi is E_hi.  Each order n < hi of
    the window takes the margin m'_n = fl(fl(W'_n 8 (n + 2) u) + 2^-1074),
    with W'_n = fl(fl(|log C_n| + |log C_hi|) + 2 S_n), the scalar
    s_n = fl(fl(log C_n - log C_hi) + m'_n), and the upper bound
    UB'_n = fl(fl(top_n + s_n) r_n) at every cell of the chunk, where
    r_n = fl(1 / d_n) where that is a normal float, so that
    r_n = (1 + e) / d_n with |e| <= u, and NaN otherwise.

    UB'_n >= fl(E_n / d_n) wherever t_0, ..., t_{n-1}, log C_n and
    log C_hi are finite and so are m'_n and r_n.  Let
    W = |log C_n| + |log C_hi| + 2 A_n, X = top_n + s_n and D = X - E_n.
    As fl(log C_n - log C_hi) and s_n each round once,
    s_n >= log C_n - log C_hi + m'_n (1 - u) - (2u + u^2)(|log C_n| +
    |log C_hi|), and with the two sums' errors,
    D >= m'_n (1 - u) - (gamma_n + 2u + u^2) W.  Next,
    W'_n >= (1 - u)^2 (1 - gamma_n) W >= 2/3 (1 - u)^2 W, the product
    8 (n + 2) u is exact, and the 2^-1074 covers the 2^-1075 that the
    product W'_n 8 (n + 2) u may lose, so
    m'_n (1 - u) >= 16/3 (1 - u)^5 (n + 2) u W >= 5.3 (n + 2) u W and
    D >= (5.3 (n + 2) - 4/3 n - 2.1) u W >= 5 u W.  Since
    |E_n| <= (1 + gamma_n) T_n <= 4/3 W, D >= 3u (|E_n| + D)
    >= (2u + u^2) |X|, so fl(X) - u |fl(X)| >= X - (2u + u^2) |X| >= E_n,
    hence fl(X) (1 + e) >= E_n and fl(X) r_n >= E_n / d_n, and as rounding
    is monotone, UB'_n >= fl(E_n / d_n).  Otherwise: a log C_n or
    log C_hi that is not finite makes m'_n +inf or NaN, and so does a +inf
    or NaN term t_j, j < n, through M_j (a root at infinity's, say).  Then
    s_n is +inf or NaN, and so are fl(top_n + s_n) and UB'_n; a NaN r_n
    makes UB'_n NaN.  What is left is a -inf term over finite others,
    where E_n = -inf and UB'_n is -inf or NaN.  E_n is NaN only where a
    NaN, or a +inf and a -inf, lie among log C_n and the terms.  So at
    every cell and order n < hi, UB'_n is +inf or NaN, or E_n is not NaN
    and UB'_n >= fl(E_n / d_n), for the interleave's divisors 2n and
    2n + 1 among them.

    The screen folds UB'_n of the orders lo..hi-1 into their running max
    U, and divides top_hi by d_hi as the table does.  Where
    U < E_hi / d_hi, U is neither NaN nor +inf, so every other order lies
    strictly below the top one, and the sup is E_hi / d_hi, bit for bit.
    A NaN order makes U NaN or +inf and the cell unsettled; so does an
    exact tie with the top order.  Every sup is thus an exact order sum or
    the table's, and the margins' width decides only how many cells the
    candidate step takes, and how many candidates each.

    Where U = -inf, every UB'_n is -inf, neither +inf nor NaN, so every
    order n < hi has fl(E_n / d_n) <= -inf: it is -inf, and a running
    np.maximum from -inf gives the top order's bits, whatever they are.
    So the screen settles every cell where U < E_hi / d_hi or U = -inf.
    A window of one order, lo = hi, has U = -inf everywhere.  So do the
    cells z on a root, z = roots[k] with k < lo, where log C_n, r_n and
    the other terms are finite: every order of the window adds
    log|z - roots[k]| = log 0 = -inf.  On a root k >= lo the orders up to
    k are finite in general, over top_hi = -inf, and the candidate step
    takes the cell.

    The candidate step bounds every window order from both sides with
    the running sum P_n of the root terms, within gamma_{n-1} A_n of
    theirs, so |E_n - (log C_n + P_n)| <= 2 gamma_n T_n.  Order n takes
    one margin m_n = fl(fl(|log C_n| + S_n) 4 (n + 2) u) (_order_margin),
    the upper bound B_n = fl(P_n + fl(log C_n + m_n)) and the lower bound
    A'_n = fl(P_n + fl(log C_n - m_n)) at every cell of the chunk.

    A'_n <= E_n <= B_n wherever the n + 1 terms and m_n are finite.  As
    fl(|log C_n| + S_n) >= (1 - u)(1 - gamma_n) T_n,
    m_n (1 - u) >= 8/3 (n + 2)(1 - 3u) u T_n exceeds (2 gamma_n + u) T_n
    by more than 2 u T_n.  Then
    P_n + fl(log C_n + m_n) >= P_n + log C_n + m_n (1 - u) - u |log C_n|
    >= E_n, and as rounding is monotone, B_n >= fl(E_n) = E_n.  The same
    margin mirrors this below: P_n + fl(log C_n - m_n) <=
    P_n + log C_n - m_n (1 - u) + u |log C_n| <= E_n, so A'_n <= E_n.  An
    addition whose result lies below 2^-1021 in magnitude is exact, so a
    rounding error in the sums needs T_n > 2^-1022, and the margin's
    product then loses at most 2^-1075 <= u T_n to underflow, within that
    room.  An infinite margin over finite terms makes B_n = +inf and
    A'_n = -inf.  A +inf or NaN term makes M_j and every later margin
    +inf or NaN, and an infinite log C_n makes m_n +inf.  Where a term or
    log C_n is not finite, neither is E_n, and where E_n is NaN, A'_n is
    NaN too (log C_n = +inf gives fl(log C_n - m_n) = NaN).  Where
    E_n = +inf, B_n = +inf unless it is NaN.  Where E_n = -inf, log C_n
    or P_n is -inf and no term is +inf or NaN, so A'_n = -inf unless it
    is NaN, and B_n = -inf, or NaN where log C_n = -inf or m_n is not
    finite.  So at every order: A'_n is NaN, or A'_n <= E_n <= B_n, or
    B_n is NaN and A'_n = E_n = -inf.  As rounding is monotone, dividing
    by a positive d_n keeps all three: LB_n = fl(A'_n / d_n) and
    UB_n = fl(B_n / d_n) bound fl(E_n / d_n) so.

    The candidate step takes L = max LB_n over the window at a cell, NaN
    if any LB_n is.  The cell's candidates are the orders with UB_n >= L,
    or every order where L is NaN.  Each pass takes every cell's lowest
    candidate n left, sums E_n as the table sums its row n, and folds
    fl(E_n / d_n) into the cell's running np.maximum from -inf.  Where L
    is NaN that is the table's fold.  Elsewhere no LB_n is NaN, so no
    order is: each has LB_n <= E_n / d_n <= UB_n, or a NaN UB_n and
    E_n = -inf.  L is some LB_m, so L <= M, the max over the orders, and
    every order but the candidates lies strictly below L, or is -inf.  If
    M = -inf, both folds give -inf.  Otherwise every order equal to M,
    +-0 alike, is a candidate.  A running np.maximum takes the first such
    order's bits over anything strictly below it, and then keeps its bits
    against all that lies below M, so its result depends only on the
    orders equal to M, in their order: the fold has the table's bits.
    A cell costs one pass per candidate: one where a single order can
    hold the sup, and hi - lo + 1, the table's O(N^2) adds, where L is
    NaN.
    """
    row = _RootLogRow(z)
    if divisors is None:
        divisors = np.arange(lo, hi + 1, dtype=float)
    located = row.locate(roots[:hi])
    sup = np.empty(row.size)
    settled = np.empty(row.size, dtype=bool)
    for at, cells in _screen_chunks(row, _chunk_cells(row, located)):
        sup[at], settled[at] = _top_screen(cells, located, log_c, lo, hi,
                                           divisors)
    rest = np.flatnonzero(~settled)
    step = max(1, TABLE_BYTES // (8 * (hi + 1)))
    for at in (rest[k:k + step] for k in range(0, rest.size, step)):
        sup[at] = _candidate_sup(row[at], located, log_c, lo, hi, divisors)
    return sup.reshape(row.shape)


def _chunk_cells(row: _RootLogRow, roots: Sequence) -> int:
    """The cells per chunk of a screen over ``row`` that reads ``roots``,
    as located on it: TABLE_BYTES // _TABLE_CELL_BYTES where every root
    reads the row's offset table, else TABLE_BYTES // _CELL_BYTES, and at
    least one."""
    direct = row.table is None or any(isinstance(r, complex) for r in roots)
    return max(1, TABLE_BYTES // (_CELL_BYTES if direct
                                  else _TABLE_CELL_BYTES))


def _screen_chunks(row: _RootLogRow, step: int
                   ) -> Iterator[tuple[slice, _RootLogRow]]:
    """The row in consecutive chunks of at most ``step`` cells, each with
    its flat slice, for both structures' tail sups.  A grid's row goes in
    rectangle rows of whole grid rows, or of part of one where a grid row
    holds more than ``step`` cells: each reads a table root as one strided
    copy of the table's rectangle, where a flat chunk takes a key's."""
    if row.grid is None:
        for start in range(0, row.size, step):
            yield slice(start, start + step), row[start:start + step]
        return
    h, w = row.shape
    rows, cols = max(1, step // w), min(step, w)
    for j in range(0, h, rows):
        for i in range(0, w, cols):
            cells = row[j:j + rows, i:i + cols]
            yield slice(j * w + i, j * w + i + cells.size), cells


def _top_screen(cells: _RootLogRow, roots: list, log_c: np.ndarray,
                lo: int, hi: int, divisors: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """(top, settled) over a row of cells: top[k] is the top order's
    E_hi / d_hi at cell k, with the table's bits, and settled[k] says that
    it is the sup over lo..hi there (see _product_tail_sup).  One running
    sum, from log C_hi, takes each root term once (_top_bounds); the upper
    bound UB'_n of each lower order n of the window costs one add, one
    multiply and one max."""
    top = np.full(cells.size, log_c[hi - lo])
    upper = np.full(cells.size, -np.inf)
    # a +inf or NaN margin over a -inf sum is NaN: unsettled, not an error
    with np.errstate(divide="ignore", invalid="ignore"):
        for _, bound in _top_bounds(cells, roots, top, log_c, lo, hi,
                                    divisors):
            np.maximum(upper, bound, out=upper)
        top /= divisors[hi - lo]
        return top, (upper < top) | (upper == -np.inf)


def _top_bounds(cells: _RootLogRow, roots: list, top: np.ndarray,
                log_c: np.ndarray, lo: int, hi: int, divisors: np.ndarray
                ) -> Iterator[tuple[int, np.ndarray]]:
    """(n, UB'_n) for each order n = lo..hi-1 in turn, over a row of
    cells: top, which starts at log C_hi, takes the root terms t_0, ...,
    t_{n-1} in sequence, each read once (_RootLogRow.reads), and
    UB'_n = fl(fl(top + s_n) r_n) (see _product_tail_sup).  After the
    last root, top holds E_hi.  UB'_n is written into one buffer, which
    the next order overwrites."""
    shaped, term = top.reshape(cells.shape), np.empty(cells.size)
    bound = np.empty(cells.size)
    log_cs, size = log_c.tolist(), 0.0
    c_hi = log_cs[-1]
    with np.errstate(over="ignore"):
        # r_n: a reciprocal that is not normal has no relative error
        # bound, and its bounds are NaN
        scales = 1.0 / divisors
        scales = np.where((scales > 2.0 ** -1022) & (scales < np.inf),
                          scales, np.nan).tolist()
    roots = roots[:hi]
    for n, (r, logs) in enumerate(zip(roots, cells.reads(roots, term)),
                                  start=1):
        shaped += logs.reshape(shaped.shape)
        size += cells.log_bound(r, logs)
        if n < lo or n == hi:
            continue
        c = log_cs[n - lo]
        margin = (abs(c) + abs(c_hi) + 2 * size) * (
            8 * (n + 2) * _UNIT_ROUNDOFF) + _TINY
        np.add(top, (c - c_hi) + margin, out=bound)
        bound *= scales[n - lo]
        yield n, bound


def _order_margin(log_c_n: float | np.ndarray, size: float | np.ndarray,
                  n: int | np.ndarray) -> float | np.ndarray:
    """The margin m_n = fl(fl(|log C_n| + S_n) 4 (n + 2) u) of order n,
    from the running sum S_n = size of its root terms' bounds: floats, or
    arrays over the orders."""
    return (abs(log_c_n) + size) * (4 * (n + 2) * _UNIT_ROUNDOFF)


def _order_bounds(cells: _RootLogRow, roots: list, log_c: np.ndarray,
                  lo: int, hi: int, divisors: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(terms, lower, upper) over a row of cells: the (root x cell) array
    of the root terms t_j, j < hi, each read once, in its rows j + 1,
    under a row of zeros, and the (order x cell) arrays of LB_n and UB_n
    for n = lo..hi (see _product_tail_sup).  Row n of the sequential
    np.add.accumulate of terms is the running root sum P_n."""
    terms = np.zeros((hi + 1, cells.size))
    cells.block(roots[:hi], terms[1:])
    sizes, size = np.empty(hi), 0.0
    for j, r in enumerate(roots[:hi]):
        size += cells.log_bound(r, terms[j + 1])
        sizes[j] = size
    margin = _order_margin(log_c, sizes[lo - 1:], np.arange(lo, hi + 1))
    with np.errstate(invalid="ignore"):
        sums = np.add.accumulate(terms, axis=0)[lo:]  # P_n, n = lo..hi
        lower = sums + (log_c - margin)[:, None]
        lower /= divisors[:, None]
        sums += (log_c + margin)[:, None]
        sums /= divisors[:, None]
    return terms, lower, sums


def _candidate_sup(cells: _RootLogRow, roots: list, log_c: np.ndarray,
                   lo: int, hi: int, divisors: np.ndarray) -> np.ndarray:
    """The table's sup over a row of cells, folded over each cell's
    candidate orders alone (see _product_tail_sup).  Each pass puts log C_n
    of every cell's lowest candidate n left over a copy of the root terms
    of _order_bounds, in place of their row of zeros, and sums it by one
    sequential np.add.accumulate, whose row n is E_n."""
    terms, lower, upper = _order_bounds(cells, roots, log_c, lo, hi,
                                        divisors)
    sup = np.full(cells.size, -np.inf)
    with np.errstate(invalid="ignore"):
        floor = lower.max(axis=0)
        left = (upper >= floor) | np.isnan(floor)  # every order at a NaN
        del lower, upper  # free the bounds before the sums
        at = np.flatnonzero(left.any(axis=0))
        while at.size:
            n = left[:, at].argmax(axis=0)  # each cell's lowest, minus lo
            sums = terms[:lo + int(n.max()) + 1, at]
            sums[0] = log_c[n]
            np.add.accumulate(sums, axis=0, out=sums)
            sup[at] = np.maximum(sup[at], sums[n + lo, np.arange(at.size)]
                                 / divisors[n])
            left[n, at] = False
            at = at[left[:, at].any(axis=0)]
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


def countable_set_series(points: Sequence[complex]) -> CoefficientSeries:
    """Series whose n-th coefficient is C_n * prod_{j=1..n} (z - z_j), for
    a sequence of pairwise distinct points z_1, z_2, ... (any sequence of
    numbers, stored as a tuple of complex).

    At z_k every coefficient of index n >= k contains the root z_k, so its
    log-magnitude is exactly -inf; away from the whole sequence the scaling
    C_n = (n / gamma_n)^n forces growth exponents >= log n along a
    subsequence.  At truncation order N the tail window [ceil(N/2), N] is
    therefore all -inf at z_k exactly when k <= ceil(N/2).  Supports
    coefficient orders up to len(points) - 1.
    """
    points = tuple(map(complex, points))
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    gammas, log_c = gamma_table(points)
    return countable_series_from_tables(CountableStructure(
        points, (0.0, *log_c), tuple(gammas)))


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
        the larger of the two, and a zero the bits of folding each order
        alone in turn (_zero_signs).  F_1 = g_0 is an order no tail_sup
        takes, so it is the odd series' f0_log_mag.
        """
        if divisors is None:
            divisors = np.arange(lo, hi + 1, dtype=float)
        sup = np.full((z.height, z.width) if isinstance(z, Grid)
                      else np.shape(z), -np.inf)
        suspect = np.zeros(sup.shape, dtype=bool)  # a child's -0.0
        for child, parity in ((self.even, 0), (self.odd, 1)):
            a, b = (lo - parity + 1) // 2, (hi - parity) // 2
            parts = []
            if a == 0:  # lo = 1: F_1 = g_0
                parts.append(child.structure.f0_log_mag / divisors[0])
                a = 1
            if a <= b:
                parts.append(child.structure.tail_sup(
                    z, a, b, divisors[2 * a + parity - lo::2]))
            for part in parts:
                np.maximum(sup, part, out=sup)
                suspect |= (part == 0) & np.signbit(part)
        return _zero_signs(self.tail_sup, z, lo, hi, divisors, sup, suspect)


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


def _rectangle(mask: RegionMask) -> tuple[slice, slice]:
    """The rows and columns of a non-empty mask's bounding box."""
    r0, r1, c0, c1 = bounding_box(mask)
    return slice(r0, r1 + 1), slice(c0, c1 + 1)


# a lockstep group's running sum leaves its rectangle for the index row
# over K's cells and the cells some running stage still needs once those
# are fewer than this share of the row.  In process, a half, a third, a
# quarter and an eighth timed alike on the sigma scene of seed 6, and a
# half made the 256x256 decompose scene of seed 8 about 6% slower
_KEEP_SHARE = 0.25


class _LejaSum:
    """The running root-log sum of _leja_steps over a _RootLogRow ``row``
    of cells of K's grid, flat, in the grid's order: total holds the sum
    of log|z - r| over the sequence's points r so far, on_k marks K's
    cells, at the positions ``inside``.  keep(mask) shrinks all four to
    the cells at mask, K's among them.
    """

    def __init__(self, K: RegionMask, row: _RootLogRow):
        self.row = row
        self.on_k = K.bits.ravel()[row.cells]
        self.inside = np.flatnonzero(self.on_k)
        self.total = np.zeros(row.size)

    def keep(self, mask: np.ndarray) -> None:
        """Shrink the row to the cells at ``mask``, which holds K's."""
        self.row, self.total = self.row[mask], self.total[mask]
        self.on_k = self.on_k[mask]
        self.inside = np.flatnonzero(self.on_k)


def _leja_steps(K: RegionMask, row: _RootLogRow
                ) -> Iterator[tuple[complex, float, _LejaSum]]:
    """For d = 1, 2, ...: Leja point d of a non-empty K, its log sup over
    K, and the running root-log sum of points 1..d (_LejaSum, one object
    added to in place) over ``row``, a row of K's grid that holds K's
    cells, or the cells its consumer keeps of them.  Each point adds the
    row's read of its cell: a rectangle row's comes in the rectangle's
    shape, which the flat sum takes as a view.

    Point 1 maximizes |z| over K's cell centres, and point d + 1 the sum
    after d points over K's cells, ties going to the lowest flat index;
    that sum's max is the log sup of prod_{i<=d} |z - z_i| over them.
    The steps stop after yielding a -inf sup: every K cell is then a
    point."""
    sums, zs = _LejaSum(K, row), K.cell_centers()
    cells = np.flatnonzero(K.bits)
    k = int(np.argmax(np.abs(zs)))
    while True:
        term = sums.row(int(cells[k]))
        total = sums.total.reshape(term.shape)  # a view
        total += term
        on_k = sums.total.take(sums.inside)
        nxt = int(np.argmax(on_k))
        yield complex(zs[k]), float(on_k[nxt]), sums
        if on_k[nxt] == -np.inf:
            return
        k = nxt


def leja_points(K: RegionMask, count: int) -> tuple[complex, ...]:
    """The first ``count`` Leja points of K (_leja_steps over the
    rectangle row of K's bounding box), as the tuple of complex that a
    BlockStructure stores; fewer if the sequence saturates first: every
    K cell a point, so any count of at least K.count() gives them all."""
    if K.is_empty():
        raise ValueError("leja_points requires a non-empty mask")
    if count < 1:
        raise ValueError("count must be >= 1")
    row = _RootLogRow(K.grid)[_rectangle(K)]
    return tuple(z for z, _, _ in islice(_leja_steps(K, row),
                                         min(count, K.count())))


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

    Multi-cell stages share one Leja sequence and its running root-log
    sum (_leja_steps), which grows only while some stage runs, over a
    _RootLogRow that starts as the rectangle row that bounds K and their
    targets.  Each stage keeps its own level m, ``need`` mask over the
    row (the target cells it has not reached yet) and their count, and
    leaves the loop once it has reached them all.  Its normalized polynomial reaches
    log m where fl(sum - norm) >= log m, that is where
    sum >= _sum_threshold(norm, log m), one comparison per cell.  After a
    degree that reaches cells, once K's cells and the union of the
    running stages' needs are fewer than _KEEP_SHARE of the row, the row
    and every mask keep only those cells (_LejaSum.keep).  The stage
    tests, the masks, K's positions and the Leja argmax read the one flat
    row, whose order is the grid's, and the logs are elementwise, so each
    family is the one its stage alone would get, bit for bit.  A stage
    still running at the end writes its need into its uncovered report
    at the row's cells.
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
        # the running sum's rectangle bounds K and the running targets
        box = _rectangle(RegionMask(grid, np.logical_or.reduce(
            [K.bits, *(stages[i][3].bits for i in live)]), OPEN))
        need = {i: stages[i][3].bits[box].flatten() for i in live}
        left = {i: np.count_nonzero(need[i]) for i in live}
        hit = np.empty(need[live[0]].size, dtype=bool)
        points: list[complex] = []
        # the steps end after K's last cell, and islice takes no stop
        # above sys.maxsize
        for point, norm, sums in islice(_leja_steps(
                K, _RootLogRow(grid)[box]), min(degree_cap, K.count())):
            if norm == -np.inf:
                break  # every K cell is a root; higher degrees are identically 0
            points.append(point)
            member = None
            for i in live:
                np.greater_equal(sums.total, _sum_threshold(
                    norm, math.log(stages[i][4])), out=hit)
                hit &= need[i]
                reached = np.count_nonzero(hit)
                if reached:
                    member = member or RootPolynomial(tuple(points), -norm)
                    members[i].append(member)
                    need[i] ^= hit
                    left[i] -= reached
                    sequence = member.roots
            live = [i for i in live if left[i]]
            if not live:
                break
            # the targets are disjoint from K, so K's cells and the largest
            # need bound the cells still in play from below
            share = _KEEP_SHARE * sums.total.size
            if member and sums.inside.size + max(map(left.get, live)) < share:
                still = sums.on_k.copy()
                for i in live:
                    still |= need[i]
                if np.count_nonzero(still) < share:
                    sums.keep(still)
                    for i in live:
                        need[i] = need[i][still]
                    hit = np.empty(sums.total.size, dtype=bool)
        for i in live:  # a view: uncovered[i] is C order
            uncovered[i].ravel()[sums.row.cells] = need[i]

    return sequence, [SeparatingFamily(found, RegionMask(grid, bits, OPEN))
                      for found, bits in zip(members, uncovered)]


def _zero_signs(tail_sup, z: Grid | np.ndarray | complex, lo: int, hi: int,
                divisors: np.ndarray, sup: np.ndarray,
                suspect: np.ndarray) -> np.ndarray:
    """sup, a tail sup over orders lo..hi at z, with each zero at a
    ``suspect`` cell, one where some order may be -0.0, given the bits of
    folding each order alone in turn: a running np.maximum over the
    orders lo..hi, from -inf.  At a tie of zeros np.maximum keeps one of
    them by numpy's rule (its second operand, the later order, on numpy
    2.4), so a fold in any other order can end on another zero's sign;
    those cells are evaluated again one order at a time.  Where no order
    is -0.0 every zero is +0.0 already."""
    redo = suspect & (sup == 0)
    if lo < hi and redo.any():
        cells = np.asarray(z.centers() if isinstance(z, Grid) else z,
                           dtype=complex)[redo]
        folded = np.full(cells.shape, -np.inf)
        for n in range(lo, hi + 1):
            np.maximum(folded, tail_sup(cells, n, n, divisors[n - lo:][:1]),
                       out=folded)
        sup[redo] = folded
    return sup


def _fold_group(best: np.ndarray, x: np.ndarray, ells: np.ndarray,
                divisors: np.ndarray) -> np.ndarray:
    """best with the exponents fl(fl(ell x) / d) of one group's members,
    (ell, d) over zip(ells, divisors), folded in at each cell, where x
    holds the group's x.  The (member x cell) block goes TABLE_BYTES at a
    time, and np.maximum propagates a NaN.  The caller runs it under
    np.errstate, as an exponent may overflow to inf."""
    step = max(1, TABLE_BYTES // (8 * x.size))
    for k in range(0, ells.size, step):
        values = ells[k:k + step, None] * x
        values /= divisors[k:k + step, None]
        np.maximum(best, values.max(axis=0), out=best)
    return best


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
    term is evaluated twice per sequence and cell, however many share it;
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
        member.  The cells go in _screen_chunks' chunks of _chunk_cells
        cells, however many groups there are, in two passes.  In each,
        each sequence with a member in the window sums its root logs (a
        _RootLogRow's) from zero, adding the roots in order, and each
        group in turn takes x = fl(sum + log_scale), with
        log_scale folded in last as RootPolynomial.log_abs does.  Member
        ell of the group, with divisor d, has the exponent
        v = fl(fl(ell x) / d), bit-identical to evaluating it alone.  Pass
        one takes the screen's top (below); pass two, with the same adds
        and so the same x, folds only the members of the groups that
        reach the screen's floor at a cell (_fold_group).

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
        y below the floor top - 4w |top| - 4h holds no max: each v is lower;
        the slack in w and h absorbs the roundings of this threshold.
        Every other group is folded exactly, and their max is the max of
        all.  No v is NaN there, and x is never -0.0 (the sums start from
        +0.0), so the fold order changes no bits, short of the sign of a
        zero max, which needs a quotient that underflows; _zero_signs
        gives it the bits of folding each order alone in turn.  Only a
        folded group can hold a zero max: pass two flags where its x is in
        [tiny, 0).

        A cell takes no screen, and folds every group (a -inf floor),
        where top is NaN, so that the NaN propagates, infinite, or beyond
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
        window_divisors = divisors
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
        members = np.split(np.stack((ells, divisors)), starts[1:], axis=1)
        sup = np.full(row.size, -np.inf)
        # a member's exponent is -0.0 only where fl(ell x) / d underflows
        suspect = np.zeros(row.size, dtype=bool)
        tiny = -divisors.max() * 2.0 ** -1074

        def logs(cells: _RootLogRow) -> Iterator[tuple[int, np.ndarray]]:
            # each group g and its x over the cells, in one buffer
            term, x = np.empty(cells.size), np.empty(cells.size)
            for roots, folds in runs:
                total, done = np.zeros(cells.size), 0
                for g, d, scale in folds:
                    for r in roots[done:d]:
                        total += cells(r, out=term)
                    done = d
                    yield g, np.add(total, scale, out=x)

        with np.errstate(over="ignore", invalid="ignore"):
            for at, cells in _screen_chunks(row, _chunk_cells(
                    row, [r for roots, _ in runs for r in roots])):
                top = np.full(cells.size, -np.inf)
                for g, x in logs(cells):
                    np.maximum(top, r_hi[g] * x, out=top)
                floor = np.where(np.abs(top) <= big,
                                 top - 4 * w * np.abs(top) - 4 * h, -np.inf)
                best, flag = sup[at], suspect[at]
                for g, x in logs(cells):
                    c = np.flatnonzero(~(r_hi[g] * x < floor))
                    if c.size:
                        x = x[c]
                        best[c] = _fold_group(best[c], x, *members[g])
                        flag[c] |= (x < 0) & (x >= tiny)
        return _zero_signs(self.tail_sup, z, lo, hi, window_divisors,
                           sup.reshape(row.shape), suspect.reshape(row.shape))


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
