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
  normalized root polynomials, grouped in stage blocks (separating families
  on a compact set, or on the pieces of an ascending decomposition);
* parity interleave: F_2m = f_m, F_{2m+1} = g_m, whose convergence behavior
  is the intersection of the two inputs'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Sequence

import numpy as np

from .geometry import (OPEN, RegionMask, distance_to, exhaustion,
                       polynomial_hull, set_distance)
from .series import CoefficientSeries

# budget for one chunk of the working memory of an evaluator: the two passes
# of _product_tail_sup over a chunk of cells, the (order x cell) table that
# product series fill when a cell needs every order (_table_sup), and the
# (member x cell) block that block series fold at one degree
# (BlockStructure.tail_sup)
TABLE_BYTES = 1 << 20

# the working rows that _bound_orders and _order_sums keep per cell, in bytes
_CELL_BYTES = 128

_UNIT_ROUNDOFF = 2.0 ** -53


def _log_abs(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


@dataclass(frozen=True)
class PointSequence:
    """Ordered points; leja_points also sets saturated and log_sups."""

    points: tuple[complex, ...]
    saturated: bool = False
    log_sups: tuple[float, ...] = ()

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


def gamma_sequence(points: PointSequence, n: int) -> float:
    """Separation scale of the first n+1 points:
    min( half the minimum pairwise distance, 1/n )."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(points) < n + 1:
        raise ValueError(f"gamma_{n} needs at least {n + 1} points")
    pts = points.as_array()[:n + 1]
    diff = np.abs(pts[:, None] - pts[None, :])
    min_gap = float(diff[np.triu_indices(n + 1, k=1)].min())
    if min_gap == 0.0:
        raise ValueError("points must be pairwise distinct")
    return min(0.5 * min_gap, 1.0 / n)


def gamma_table(points: PointSequence) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_n, log C_n) for n = 1..len(points)-1, with
    log C_n = n * (log n - log gamma_n)."""
    # a running minimum of each new point's gaps to the earlier points is
    # exactly gamma_sequence's pairwise minimum, in O(n^2) overall
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


def _product_table(cells: np.ndarray, roots: np.ndarray, log_c: np.ndarray,
                   lo: int, hi: int) -> np.ndarray:
    """(order x cell) table of log|C_n * prod_{j<n} (z - roots[j])| for
    n = lo..hi over a flat cell array, where log_c holds log C_n.

    Each root's log row is evaluated once and added to every order it
    enters, instead of once per order.  Every order still starts at log C_n
    and adds its roots in sequence, so every entry is bit-identical to
    evaluating that order alone.
    """
    acc = np.repeat(log_c[:, None], cells.size, axis=1)
    for j, r in enumerate(roots[:hi]):
        acc[max(0, j + 1 - lo):] += _log_abs(cells - r)
    return acc


def _product_tail_sup(z: np.ndarray | complex, roots: np.ndarray,
                      log_c: np.ndarray, lo: int, hi: int,
                      divisors: np.ndarray | None = None) -> np.ndarray:
    """max over n = lo..hi of log|C_n * prod_{j<n} (z - roots[j])| divided
    by divisors[n - lo], which defaults to n, where log_c holds log C_n for
    n = lo..hi and 1 <= lo; a cell with a NaN order gets a NaN sup.

    Cells go in chunks of TABLE_BYTES // _CELL_BYTES, with two passes over
    the roots each, and every sup is bit-identical to the max over the
    (order x cell) table of _product_table.

    That table sums order n by recursive summation of the n + 1 terms
    log C_n, log|z - roots[0]|, ..., log|z - roots[n-1]|, so its value E_n
    is within gamma_n * sum|terms| of their exact sum, with
    gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, section 4.2).  The first pass (_bound_orders)
    keeps one running sum P_n of the root terms for all orders; A_n =
    log C_n + P_n sums the same terms recursively in another order, so
    |E_n - A_n| <= 2 gamma_n * sum|terms|.  With S_n the running sum of
    the root terms' magnitudes, the margin m_n = 4 (n + 2) u (|log C_n| +
    S_n) exceeds that bound after its own roundings while n u < 1/4, and as
    rounding is monotone, (A_n - m_n) / d_n <= E_n / d_n <= (A_n + m_n) /
    d_n holds for the rounded quotients too.  A non-finite A_n equals E_n:
    finite terms, at most about 745 in magnitude, never overflow a sum,
    and a sum with an infinite or NaN term has the same value in any
    order.  The order whose lower bound is highest wins.  Its E_n / d_n is
    the max when every other order's upper bound is below that lower
    bound, or when that lower bound is infinite and no upper bound exceeds
    it.  The second pass (_order_sums) sums only the winner, term by term
    as the table does, so the bits are the table's.  A cell where the
    bounds overlap instead (a tie, or a NaN order) takes the table's max
    (_table_sup).
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    if divisors is None:
        divisors = np.arange(lo, hi + 1, dtype=float)
    sup = np.empty(flat.shape)
    step = max(1, TABLE_BYTES // _CELL_BYTES)
    for start in range(0, flat.size, step):
        cells = flat[start:start + step]
        out = sup[start:start + step]
        best, exact = _bound_orders(cells, roots, log_c, lo, hi, divisors)
        if exact.any():
            orders = best[exact]
            out[exact] = (_order_sums(cells[exact], roots, log_c, lo, orders)
                          / divisors[orders - lo])
        if not exact.all():
            out[~exact] = _table_sup(cells[~exact], roots, log_c, lo, hi,
                                     divisors)
    return sup.reshape(zs.shape)


def _table_sup(cells: np.ndarray, roots: np.ndarray, log_c: np.ndarray,
               lo: int, hi: int, divisors: np.ndarray) -> np.ndarray:
    """_product_tail_sup over a flat cell array from the (order x cell)
    table of _product_table, filled TABLE_BYTES at a time."""
    sup = np.empty(cells.shape)
    step = max(1, TABLE_BYTES // (8 * (hi - lo + 1)))
    for start in range(0, cells.size, step):
        acc = _product_table(cells[start:start + step], roots, log_c, lo, hi)
        acc /= divisors[:, None]
        sup[start:start + step] = acc.max(axis=0)
    return sup


def _bound_orders(cells: np.ndarray, roots: np.ndarray, log_c: np.ndarray,
                  lo: int, hi: int, divisors: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(best, exact) over a flat cell array: best[k] is the order in
    lo..hi with the highest lower bound on its exponent at cell k, and
    exact[k] says that the best order's exponent is the max there (see
    _product_tail_sup for the bounds).

    The second largest upper bound is below the best lower bound only
    when the largest belongs to the best order.  A NaN order's NaN upper
    bound fails both tests of exact, so its cell is never exact.
    """
    total = np.zeros(cells.size)
    size = np.zeros(cells.size)
    best = np.full(cells.size, lo)
    best_lower = np.full(cells.size, -np.inf)
    upper1 = np.full(cells.size, -np.inf)
    upper2 = np.full(cells.size, -np.inf)
    for j, r in enumerate(roots[:hi]):
        term = _log_abs(cells - r)
        total += term
        size += np.abs(term)
        n = j + 1
        if n < lo:
            continue
        c, d = log_c[n - lo], divisors[n - lo]
        mid = c + total
        margin = 4 * (n + 2) * _UNIT_ROUNDOFF * (abs(c) + size)
        margin[~np.isfinite(mid)] = 0.0  # exact, and inf - inf is NaN
        lower = (mid - margin) / d
        upper = (mid + margin) / d
        gain = lower > best_lower
        best[gain] = n
        best_lower[gain] = lower[gain]
        np.maximum(upper2, np.minimum(upper1, upper), out=upper2)
        np.maximum(upper1, upper, out=upper1)
    exact = (upper2 < best_lower) | (np.isinf(best_lower)
                                     & (upper1 == best_lower))
    return best, exact


def _order_sums(cells: np.ndarray, roots: np.ndarray, log_c: np.ndarray,
                lo: int, orders: np.ndarray) -> np.ndarray:
    """log|C_n * prod_{j<n} (z - roots[j])| with n = orders[k] at each cell
    k, summed as _product_table sums it: from log C_n, adding the root
    terms in sequence, so bit for bit the same."""
    acc = log_c[orders - lo]
    for j, r in enumerate(roots[:orders.max()]):
        np.add(acc, _log_abs(cells - r), out=acc, where=j < orders)
    return acc


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

    def tail_sup(self, z: np.ndarray | complex, lo: int, hi: int,
                 divisors: np.ndarray | None = None) -> np.ndarray:
        """Tail sup of the exponents over orders lo..hi (see
        _product_tail_sup)."""
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

    def tail_sup(self, z: np.ndarray | complex, lo: int, hi: int,
                 divisors: np.ndarray | None = None) -> np.ndarray:
        """max over n = lo..hi of log|F_n(z)| divided by divisors[n - lo],
        which defaults to n, with 1 <= lo; a cell with a NaN order gets a
        NaN sup.

        Each child's tail_sup takes the child orders m in the window, each
        with the divisor of its order here, 2m or 2m + 1, and the sup is
        the larger of the two.  F_1 = g_0 is an order no tail_sup takes,
        so it is the odd series' f0_log_mag.
        """
        zs = np.asarray(z, dtype=complex)
        if divisors is None:
            divisors = np.arange(lo, hi + 1, dtype=float)
        sup = np.full(zs.shape, -np.inf)
        for child, parity in ((self.even, 0), (self.odd, 1)):
            a, b = (lo - parity + 1) // 2, (hi - parity) // 2
            if a == 0:  # lo = 1: F_1 = g_0
                np.maximum(sup, child.structure.f0_log_mag / divisors[0],
                           out=sup)
                a = 1
            if a <= b:
                np.maximum(sup, child.structure.tail_sup(
                    zs, a, b, divisors[2 * a + parity - lo::2]), out=sup)
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
    sequence stops early, flagged saturated, with a last log sup of -inf."""
    if K.is_empty():
        raise ValueError("leja_points requires a non-empty mask")
    if count < 1:
        raise ValueError("count must be >= 1")
    zs = K.cell_centers()
    accum = np.zeros(zs.shape)
    nxt, chosen, log_sups = int(np.argmax(np.abs(zs))), [], []
    while True:
        chosen.append(complex(zs[nxt]))
        accum += _log_abs(zs - zs[nxt])
        nxt = int(np.argmax(accum))
        log_sups.append(float(accum[nxt]))
        if len(chosen) == count or log_sups[-1] == -np.inf:
            break
    return PointSequence(tuple(chosen), saturated=len(chosen) < count,
                         log_sups=tuple(log_sups))


@dataclass
class SeparatingFamily:
    """Polynomials bounded by 1 on K that exceed m on a target set.

    ``uncovered`` collects the target cells no member reaches (empty when
    the family fully separates).  ``verify`` re-checks both bounds with an
    independent evaluation pass.
    """

    m: int
    members: list[RootPolynomial]
    K_ref: RegionMask
    target_ref: RegionMask
    uncovered: RegionMask
    note: str = ""

    def verify(self) -> bool:
        log_m = math.log(self.m)
        zs_K = self.K_ref.cell_centers()
        for p in self.members:
            if self.K_ref.count() and np.max(p.log_abs(zs_K)) > 0.0:
                return False
        if self.target_ref.is_empty():
            return self.uncovered.is_empty()
        zs_t = self.target_ref.cell_centers()
        best = np.full(zs_t.shape, -np.inf)
        for p in self.members:
            np.maximum(best, p.log_abs(zs_t), out=best)
        covered_ok = best >= log_m
        expect_uncovered = self.uncovered.bits[self.target_ref.bits]
        return bool(np.array_equal(~covered_ok, expect_uncovered))


def separating_family(K: RegionMask, U: RegionMask, target: RegionMask,
                      m: int, degree_cap: int) -> SeparatingFamily:
    """Build a separating family for (K, target) at separation level m.

    Monic polynomials with greedy extremal roots on K are normalized so
    their sup over K's cells is exactly 1; each degree whose normalized
    polynomial reaches log m on a not-yet-covered target cell joins the
    family.  Degrees past ``degree_cap`` are not tried; remaining target
    cells go into the uncovered report.
    """
    return _separating_families(K, [("", U, target, m)], degree_cap)[1][0]


def _separating_families(
        K: RegionMask, stages: Sequence[tuple[str, RegionMask, RegionMask, int]],
        degree_cap: int) -> tuple[tuple[complex, ...], list[SeparatingFamily]]:
    """separating_family for each (label, U, target, m) stage over one K,
    with K's convexity checked once and errors prefixed by the label, and
    the sequence every member is a prefix of, up to the highest degree.

    Multi-cell stages share one Leja sequence, whose log_sups give each
    degree's sup over K, and one target-side root-log row per degree; each
    keeps its own level m, early stop and ``need`` mask over the row: the
    target cells it has not reached yet.  The row starts as the union of
    their targets, and whenever the cells some running stage still needs
    fall to half the row or fewer, the row and every mask are compacted
    down to those cells.  The logs are elementwise, so each
    family is the one its stage alone would get, bit for bit.
    """
    for i, (label, U, target, m) in enumerate(stages):
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
    notes = [""] * len(stages)
    sequence: tuple[complex, ...] = ()
    live: list[int] = []
    for i, (label, _, target, m) in enumerate(stages):
        if target.is_empty():
            notes[i] = "empty target"
        elif K.is_empty():
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
            notes[i] = (f"single-cell K: member (z - a)/rho with rho = "
                        f"{rho!r} (set_distance/m, shaved 1e-12)")
        else:
            live.append(i)

    if live:
        leja = leja_points(K, degree_cap)
        # the target row: flat grid indices of its cells, and per running
        # stage the cells of the row it still needs
        cells = np.flatnonzero(np.logical_or.reduce(
            [stages[i][2].bits for i in live]))
        need = {i: stages[i][2].bits.ravel()[cells] for i in live}
        zs_t, sum_t = grid.centers().ravel()[cells], np.zeros(cells.size)
        for d, norm in enumerate(leja.log_sups, start=1):
            if norm == -np.inf:
                break  # every K cell is a root; higher degrees are identically 0
            sum_t += _log_abs(zs_t - leja.points[d - 1])
            lifted = sum_t - norm
            member = RootPolynomial(tuple(leja.points[:d]), -norm)
            for i in live:
                reached = need[i] & (lifted >= math.log(stages[i][3]))
                if reached.any():
                    members[i].append(member)
                    need[i] &= ~reached
                    sequence = member.roots
            live = [i for i in live if need[i].any()]
            if not live:
                break
            still = np.logical_or.reduce([need[i] for i in live])
            if 2 * np.count_nonzero(still) <= still.size:
                cells, zs_t, sum_t = cells[still], zs_t[still], sum_t[still]
                for i in live:
                    need[i] = need[i][still]
        for i in live:
            uncovered[i].flat[cells[need[i]]] = True

    return sequence, [SeparatingFamily(m, found, K, target,
                                       RegionMask(grid, bits, OPEN), note)
                      for (_, _, target, m), found, bits, note
                      in zip(stages, members, uncovered, notes)]


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
    term is evaluated once per sequence and cell, however many share it.
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

    def tail_sup(self, z: np.ndarray | complex, lo: int, hi: int,
                 divisors: np.ndarray | None = None) -> np.ndarray:
        """max over n = lo..hi of log|f_n(z)| divided by divisors[n - lo],
        which defaults to n, in z's shape, with 1 <= lo; a cell with a NaN
        order gets a NaN sup.

        For each chunk of cells, each sequence with a member in the window
        keeps one running root sum.  At each degree,
        the window members of that degree fold in as
        ell * (running + log_scale), divided by their divisors;
        members with one log_scale (the stages of a lockstep group share
        each degree's member) add it to the running sum once.  The sum
        starts from zero and adds the roots in order, with log_scale
        folded in last as RootPolynomial.log_abs does, so every exponent
        is bit-identical to evaluating its member alone.  The (member x
        cell) block of one log_scale is filled TABLE_BYTES at a time.
        """
        zs = np.asarray(z, dtype=complex)
        flat = zs.ravel()
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
        groups = np.split(order, np.flatnonzero(changes) + 1)
        runs: dict[int, list[tuple[int, float, np.ndarray]]] = {}
        for group in groups:
            i = group[0]
            runs.setdefault(int(seq[i]), []).append(
                (int(degree[i]), scales[i], ells[group, None],
                 divisors[group, None]))
        sup = np.full(flat.shape, -np.inf)
        step = max(1, TABLE_BYTES // (8 * max(map(len, groups))))
        for start in range(0, flat.size, step):
            cells, best = flat[start:start + step], sup[start:start + step]
            for s, folds in runs.items():
                total, done = np.zeros(cells.shape), 0
                for d, scale, ell, divisor in folds:
                    for r in self.sequences[s][done:d]:
                        total += _log_abs(cells - r)
                    done = d
                    block = ell * (total + scale)
                    block /= divisor
                    np.maximum(best, block.max(axis=0), out=best)
        return sup.reshape(zs.shape)


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


def _stage_blocks(
        groups: Sequence[tuple[tuple[complex, ...], list[SeparatingFamily]]],
        f0_log_mag: float, description: str) -> CoefficientSeries:
    """Block series of the families' members, one stage block per family,
    from each lockstep group's (sequence, families); a group without
    members has an empty sequence, which is not stored."""
    stored = [(sequence, group) for sequence, group in groups if sequence]
    members = [(s, p) for s, (_, group) in enumerate(stored)
               for family in group for p in family.members]
    families = [family for _, group in groups for family in group]
    return block_series_from_tables(
        [sequence for sequence, _ in stored],
        [(s, p.degree) for s, p in members], [p.log_scale for _, p in members],
        [len(family.members) for family in families], f0_log_mag,
        description, [family.uncovered.count() for family in families])


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
    grid = K.grid
    dist_k = distance_to(K)
    abs_z = np.abs(grid.centers())
    # U_m is the closed 1/m-dilation of K, so the usable shell is the strict
    # excess; every stage separates the same K, hence one lockstep group
    plan = [("", RegionMask(grid, dist_k <= 1.0 / m, OPEN),
             RegionMask(grid, (dist_k > 1.0 / m) & (abs_z <= m), OPEN), m)
            for m in range(1, stages + 1)]
    return _stage_blocks(
        [_separating_families(K, plan, degree_cap)], -math.inf,
        description=f"compact-set series, {stages} stages on {K.count()} cells")


def sigma_convex_series(decomp, omega: RegionMask,
                        degree_cap: int) -> CoefficientSeries:
    """Series converging on the union of an ascending decomposition's pieces
    and diverging elsewhere in the domain.

    Stage k separates E_k from the k-th domain exhaustion piece minus the
    shrinking open cover U_k, at separation level k; the constant term is 1.
    Consecutive stages with equal E_k build their families in lockstep.
    """
    if omega.grid != decomp.grid:
        raise ValueError("omega does not live on the decomposition's grid")
    exhaust = exhaustion(omega)
    groups = []
    for _, group in groupby(range(1, decomp.n_max + 1),
                            key=lambda k: decomp.E_list[k - 1].bits.tobytes()):
        ks = list(group)
        groups.append(_separating_families(
            decomp.E_list[ks[0] - 1],
            [(f"stage {k}: ", decomp.U_list[k - 1],
              exhaust(k).difference(decomp.U_list[k - 1], kind=OPEN), k)
             for k in ks], degree_cap))
    return _stage_blocks(groups, 0.0,
                         description=f"sigma-convex series, {decomp.n_max} stages")

