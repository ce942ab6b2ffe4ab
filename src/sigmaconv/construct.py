"""Constructors for series with prescribed convergence behavior.

Three constructions are implemented.  Each produces a CoefficientSeries
whose structure is its one evaluator: it yields log-magnitudes for whole
order ranges, vectorized over point arrays.

* product series: coefficients C_n * prod_{j<=n} (z - z_j), either with
  the countable-set scaling C_n = (n / gamma_n)^n, which forces divergence
  away from the point set while every z_k kills all coefficients of index
  >= k exactly, or with caller-chosen scales;
* block series of powered polynomials: f_l = h_l^l for a member list h_l of
  normalized root polynomials, grouped in stage blocks (separating families
  on a compact set, or on the pieces of an ascending decomposition);
* parity interleave: F_2m = f_m, F_{2m+1} = g_m, whose convergence behavior
  is the intersection of the two inputs'.

A greedy dense-set enumeration reorders a point sample so that scaled
products along a prescribed coefficient-magnitude sequence stay small near
chosen anchor points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .geometry import (OPEN, RegionMask, distance_to, exhaustion,
                       polynomial_hull, set_distance)
from .series import CoefficientSeries, _log_mags

# budget for one chunk of the (order x cell) table that product series fill
# when they evaluate an order range; see _product_tail_sup
TABLE_BYTES = 1 << 20


def _log_abs(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


@dataclass(frozen=True)
class PointSequence:
    """Ordered tuple of points; order is meaningful everywhere it is used."""

    points: tuple[complex, ...]
    saturated: bool = False

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
                      log_c: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """max over n = lo..hi of (1/n) * log|C_n * prod_{j<n} (z - roots[j])|,
    where log_c holds log C_n for n = lo..hi and 1 <= lo; a cell with a NaN
    order gets a NaN sup.

    The (order x cell) table of _product_table is filled TABLE_BYTES at a
    time, in chunks of cells.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    ns = np.arange(lo, hi + 1, dtype=float)[:, None]
    sup = np.empty(flat.shape)
    step = max(1, TABLE_BYTES // (8 * (hi - lo + 1)))
    for start in range(0, flat.size, step):
        acc = _product_table(flat[start:start + step], roots, log_c, lo, hi)
        acc /= ns
        sup[start:start + step] = acc.max(axis=0)
    return sup.reshape(zs.shape)


def _product_log_mags(z: np.ndarray | complex, roots: np.ndarray,
                      log_c: np.ndarray, lo: int, hi: int):
    """Yield log|C_n * prod_{j<n} (z - roots[j])| for n = lo..hi, in z's
    shape, where log_c holds log C_n for n = lo..hi and 0 <= lo.

    The (order x cell) table of _product_table is filled TABLE_BYTES at a
    time, in chunks of orders: one chunk for a single point, so the whole
    range costs hi root logs instead of one per (order, root) pair.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    step = max(1, TABLE_BYTES // (8 * max(1, flat.size)))
    for a in range(lo, hi + 1, step):
        b = min(hi, a + step - 1)
        table = _product_table(flat, roots, log_c[a - lo:b - lo + 1], a, b)
        for row in table:
            yield row.reshape(zs.shape)


@dataclass(frozen=True)
class CountableStructure:
    """Product series f_n = C_n * prod_{j<n} (z - points[j]) for
    n = 0..len(log_c) - 1, with ``log_c`` holding log C_n from n = 0.

    ``gammas`` holds the separation scales gamma_n (n >= 1) of a
    countable-set series, whose log C_0 is 0 and whose last point is never
    a root; it is None for caller-chosen scales (enumeration_series).
    """

    points: tuple[complex, ...]
    log_c: tuple[float, ...]
    gammas: tuple[float, ...] | None = None

    def tail_sup(self, z: np.ndarray | complex, lo: int,
                 hi: int) -> np.ndarray:
        """Tail sup of the exponents over orders lo..hi (see
        _product_tail_sup)."""
        return _product_tail_sup(z, np.array(self.points, dtype=complex),
                                 np.array(self.log_c[lo:hi + 1]), lo, hi)

    def log_mags(self, z: np.ndarray | complex, lo: int, hi: int):
        """Yield log|f_n(z)| for n = lo..hi (see _product_log_mags)."""
        return _product_log_mags(z, np.array(self.points, dtype=complex),
                                 np.array(self.log_c[lo:hi + 1]), lo, hi)


def countable_series_from_tables(structure: CountableStructure) -> CoefficientSeries:
    """The product series of stored tables.

    The structure evaluates the stored log C_n values directly, so a series
    loaded from disk reproduces the original maps bit for bit.
    """
    n_points = len(structure.points)
    n_max = n_points if structure.gammas is None else n_points - 1
    if len(structure.log_c) != n_max + 1:
        raise ValueError(f"log_c table must have {n_max + 1} entries "
                         f"(orders 0..{n_max}), got {len(structure.log_c)}")
    if structure.gammas is None:
        kind = "scaled product series"
    else:
        kind = "countable-set series"
        if len(structure.gammas) != n_max:
            raise ValueError("gammas table must have len(points) - 1 entries")
        if not all(g > 0 for g in structure.gammas):
            raise ValueError("gammas entries must be > 0")
    return CoefficientSeries(description=f"{kind} on {n_points} points",
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

    def log_mags(self, z: np.ndarray | complex, lo: int, hi: int):
        """Yield log|F_n(z)| for n = lo..hi: the even orders from the even
        series' own evaluator and the odd orders from the odd one's."""
        evens = _log_mags(self.even, z, (lo + 1) // 2, hi // 2)
        odds = _log_mags(self.odd, z, lo // 2, (hi - 1) // 2)
        for n in range(lo, hi + 1):
            yield next(odds if n % 2 else evens)[1]


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
    """Greedy extremal points on K's cell centers.

    The first point maximizes |z|; each next point maximizes the sum of log
    distances to the points already chosen.  Ties break to the lowest flat
    cell index.  If no fresh maximizer exists (all candidates at -inf, e.g.
    a single-cell K exhausted), the sequence stops early and is flagged
    saturated.
    """
    if K.is_empty():
        raise ValueError("leja_points requires a non-empty mask")
    if count < 1:
        raise ValueError("count must be >= 1")
    zs = K.cell_centers()
    first = int(np.argmax(np.abs(zs)))
    chosen = [complex(zs[first])]
    accum = _log_abs(zs - zs[first])
    saturated = False
    while len(chosen) < count:
        nxt = int(np.argmax(accum))
        if accum[nxt] == -np.inf:
            saturated = True
            break
        chosen.append(complex(zs[nxt]))
        accum += _log_abs(zs - zs[nxt])
    return PointSequence(tuple(chosen), saturated=saturated)


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
        zs_k = self.K_ref.cell_centers()
        for p in self.members:
            if self.K_ref.count() and np.max(p.log_abs(zs_k)) > 0.0:
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
    return _separating_families(K, [("", U, target, m)], degree_cap)[0]


def _separating_families(K: RegionMask,
                         stages: Sequence[tuple[str, RegionMask, RegionMask, int]],
                         degree_cap: int) -> list[SeparatingFamily]:
    """separating_family for each (label, U, target, m) stage over one K,
    with K's convexity checked once and errors prefixed by the label.

    Multi-cell stages share one Leja sequence and one root-log row per
    degree over the union of their targets; each keeps its own covered
    cells, level m and early stop.  Logs over a superset, indexed down, are
    the same floats, so each family is the one its stage alone would get.
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
    covered = [np.zeros(target.count(), dtype=bool) for _, _, target, _ in stages]
    notes = [""] * len(stages)
    live: list[int] = []
    for i, (_, _, target, m) in enumerate(stages):
        if target.is_empty():
            notes[i] = "empty target"
        elif K.count() == 1:
            # no monic polynomial separates from a one-cell K (sup over K of
            # |z - a| is 0), so scale the linear factor directly; the nearest
            # target cell sits exactly at value m, which float rounding can
            # drop an ulp below the threshold, hence the relative shave
            a = complex(K.cell_centers()[0])
            rho = (set_distance(K, target) / m) * (1.0 - 1e-12)
            members[i].append(RootPolynomial((a,), -math.log(rho)))
            covered[i] = np.asarray(members[i][0].log_abs(
                target.cell_centers())) >= math.log(m)
            notes[i] = (f"single-cell K: member (z - a)/rho with rho = "
                        f"{rho!r} (set_distance/m, shaved 1e-12)")
        else:
            live.append(i)

    if live:
        try:
            leja = leja_points(K, degree_cap)
        except ValueError as exc:
            raise ValueError(f"{stages[live[0]][0]}{exc}") from exc
        union = np.logical_or.reduce([stages[i][2].bits for i in live])
        picks = {i: stages[i][2].bits[union] for i in live}
        zs_k, zs_t = K.cell_centers(), grid.centers()[union]
        sum_k, sum_t = np.zeros(zs_k.shape), np.zeros(zs_t.shape)
        for d, root in enumerate(leja.points, start=1):
            sum_k += _log_abs(zs_k - root)
            sum_t += _log_abs(zs_t - root)
            norm = float(np.max(sum_k))
            if norm == -np.inf:
                break  # every K cell is a root; higher degrees are identically 0
            lifted = sum_t - norm
            member = RootPolynomial(tuple(leja.points[:d]), -norm)
            for i in live:
                reaches = lifted[picks[i]] >= math.log(stages[i][3])
                if (reaches & ~covered[i]).any():
                    members[i].append(member)
                    covered[i] |= reaches
            live = [i for i in live if not covered[i].all()]
            if not live:
                break

    families: list[SeparatingFamily] = []
    for (_, _, target, m), found, cov, note in zip(stages, members, covered,
                                                   notes):
        uncovered_bits = np.zeros((grid.height, grid.width), dtype=bool)
        uncovered_bits[target.bits] = ~cov
        families.append(SeparatingFamily(
            m, found, K, target, RegionMask(grid, uncovered_bits, OPEN), note))
    return families


@dataclass(frozen=True)
class BlockStructure:
    """Members of a powered block series, with stage block sizes.

    Member l (1-based) gives coefficient f_l = h_l^l; block k holds members
    with index in (n_1+..+n_{k-1}, n_1+..+n_k].  ``f0_log_mag`` is the
    log-magnitude of the constant term.
    """

    members: tuple[RootPolynomial, ...]
    block_sizes: tuple[int, ...]
    f0_log_mag: float
    uncovered_counts: tuple[int, ...] = ()

    def block_of(self, ell: int) -> tuple[int, int]:
        """Map member index l >= 1 to (stage k, position j), both 1-based."""
        if not 1 <= ell <= len(self.members):
            raise ValueError(f"member index {ell} out of range")
        acc = 0
        for k, size in enumerate(self.block_sizes, start=1):
            if ell <= acc + size:
                return k, ell - acc
            acc += size
        raise AssertionError("block sizes inconsistent with member count")

    def index_of(self, k: int, j: int) -> int:
        """Inverse of block_of."""
        if not 1 <= k <= len(self.block_sizes):
            raise ValueError(f"stage {k} out of range")
        if not 1 <= j <= self.block_sizes[k - 1]:
            raise ValueError(f"position {j} out of range for stage {k}")
        return sum(self.block_sizes[:k - 1]) + j

    def log_mags(self, z: np.ndarray | complex, lo: int, hi: int):
        """Yield log|f_n(z)| for n = lo..hi, in order, with 0 <= lo.

        Order 0 is the constant term, f0_log_mag everywhere.  Consecutive
        members whose roots extend one another (the members of a
        separating-family stage are prefixes of one Leja sequence) share a
        running root sum, so each root term is evaluated once per run of
        such members.  The sum starts from zero, adds roots in order and
        folds log_scale in last, exactly as RootPolynomial.log_abs does, so
        every value is bit-identical to the per-member evaluation.
        """
        zs = np.asarray(z, dtype=complex)
        if lo == 0 <= hi:
            yield np.full(zs.shape, self.f0_log_mag)
        prefix: tuple[complex, ...] = ()
        total = np.zeros(zs.shape)
        for ell in range(max(lo, 1), hi + 1):
            h = self.members[ell - 1]
            if h.roots[:len(prefix)] != prefix:
                prefix, total = (), np.zeros(zs.shape)
            for r in h.roots[len(prefix):]:
                total += _log_abs(zs - r)
            prefix = h.roots
            yield ell * (total + h.log_scale)


def block_series(members: Sequence[RootPolynomial],
                 block_sizes: Sequence[int], f0_log_mag: float,
                 description: str,
                 uncovered_counts: Sequence[int] = ()) -> CoefficientSeries:
    """Series with coefficients f_0 = e^{f0_log_mag}, f_l = h_l^l."""
    members = tuple(members)
    if sum(block_sizes) != len(members):
        raise ValueError("block sizes do not sum to the member count")
    structure = BlockStructure(members, tuple(block_sizes), f0_log_mag,
                               tuple(uncovered_counts))
    return CoefficientSeries(description=description,
                             max_supported_n=len(members),
                             structure=structure)


def _stage_blocks(families: Sequence[SeparatingFamily], f0_log_mag: float,
                  description: str) -> CoefficientSeries:
    """Block series of the families' members, one stage block per family."""
    return block_series(
        [p for family in families for p in family.members],
        [len(family.members) for family in families], f0_log_mag,
        description=description,
        uncovered_counts=[family.uncovered.count() for family in families])


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
        _separating_families(K, plan, degree_cap), -math.inf,
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
    families: list[SeparatingFamily] = []
    for _, group in groupby(range(1, decomp.n_max + 1),
                            key=lambda k: decomp.E_list[k - 1].bits.tobytes()):
        ks = list(group)
        families += _separating_families(
            decomp.E_list[ks[0] - 1],
            [(f"stage {k}: ", decomp.U_list[k - 1],
              exhaust(k).difference(decomp.U_list[k - 1], kind=OPEN), k)
             for k in ks], degree_cap)
    return _stage_blocks(families, 0.0,
                         description=f"sigma-convex series, {decomp.n_max} stages")


class SaturationError(RuntimeError):
    """The sample cannot supply a point within the required radius."""

    def __init__(self, level: int, slot: int, message: str):
        super().__init__(message)
        self.level = level
        self.slot = slot


@dataclass(frozen=True)
class SlotRecord:
    index: int              # 1-based position in the output sequence
    level: int              # l
    slot: int               # i in 1..k for anchor slots, 0 for sweep slots
    chosen: complex
    source_index: int       # position in the input sample
    required_log_radius: float
    attained_log_distance: float


@dataclass
class DenseEnumeration:
    sequence: PointSequence
    achieved_level: int
    steps: list[SlotRecord]
    saturated_at: tuple[int, int] | None = None


def dense_enumeration_for_targets(S: PointSequence,
                                  C: Sequence[float] | Callable[[int], float],
                                  A: PointSequence,
                                  level_target: int | None = None) -> DenseEnumeration:
    """Greedy reorder of a dense sample around anchor points.

    With k anchors a_1..a_k of diameter d and a positive scale sequence C,
    level l contributes k anchor slots (index l*(k+1)+i takes the unused
    sample point closest to a_i, required to satisfy |z - a_i| < d and
    C_{l(k+1)+i+p} * |z - a_i| < d/(l+2)! for p = 0..k) and, for l >= 1,
    one sweep slot (index l*(k+1) takes the earliest unused sample point
    within l*d of some anchor).  Levels proceed until the sample runs dry
    (the result reports the last complete level) or ``level_target`` is
    reached; with a ``level_target`` set, saturation raises SaturationError
    naming the failing (level, slot).
    """
    k = len(A)
    if k < 2:
        raise ValueError("need at least 2 anchor points (positive diameter)")
    anchors = A.as_array()
    d = float(np.abs(anchors[:, None] - anchors[None, :]).max())
    if d <= 0:
        raise ValueError("anchor points must have positive diameter")
    if callable(C):
        c_of = C
    else:
        seq = list(C)

        def c_of(n: int) -> float:
            if n >= len(seq):
                raise SaturationError(-1, -1,
                                      f"C sequence too short for index {n}")
            return seq[n]

    def log_c(n: int) -> float:
        val = float(c_of(n))
        if not val > 0:
            raise ValueError(f"C_{n} must be positive, got {val!r}")
        return math.log(val)

    sample = S.as_array()
    used = np.zeros(len(sample), dtype=bool)
    anchor_dists = np.abs(sample[:, None] - anchors[None, :])
    nearest_anchor = anchor_dists.min(axis=1)
    log_d = math.log(d)

    chosen: list[complex] = []
    steps: list[SlotRecord] = []

    def take_anchor_slot(level: int, i: int) -> bool:
        idx = level * (k + 1) + i
        worst_c = max(log_c(idx + p) for p in range(k + 1))
        bound = min(log_d, log_d - math.lgamma(level + 3) - worst_c)
        dists = anchor_dists[:, i - 1].copy()
        dists[used] = np.inf
        cand = int(np.argmin(dists))
        if np.isinf(dists[cand]):
            return False  # every sample point is already used
        with np.errstate(divide="ignore"):
            attained = float(np.log(dists[cand])) if dists[cand] > 0 else -math.inf
        if not attained < bound:
            return False
        used[cand] = True
        chosen.append(complex(sample[cand]))
        steps.append(SlotRecord(idx, level, i, complex(sample[cand]),
                                cand, bound, attained))
        return True

    def take_sweep_slot(level: int) -> bool:
        idx = level * (k + 1)
        limit = level * d
        ok = ~used & (nearest_anchor < limit)
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            return False
        cand = int(hits[0])  # earliest sample index, per the sweep rule
        used[cand] = True
        chosen.append(complex(sample[cand]))
        with np.errstate(divide="ignore"):
            attained = (float(np.log(nearest_anchor[cand]))
                        if nearest_anchor[cand] > 0 else -math.inf)
        steps.append(SlotRecord(idx, level, 0, complex(sample[cand]),
                                cand, math.log(limit), attained))
        return True

    achieved = -1
    saturated_at: tuple[int, int] | None = None
    level = 0
    while True:
        if level_target is not None and level > level_target:
            break
        if level > 0:
            if not take_sweep_slot(level):
                saturated_at = (level, 0)
                break
        failed = None
        for i in range(1, k + 1):
            if not take_anchor_slot(level, i):
                failed = (level, i)
                break
        if failed is not None:
            saturated_at = failed
            break
        achieved = level
        level += 1

    if level_target is not None and achieved < level_target:
        lvl, slot = saturated_at if saturated_at else (level, 0)
        raise SaturationError(
            lvl, slot,
            f"sample cannot supply a point for slot (l={lvl}, i={slot}); "
            f"achieved level {achieved}")

    # trim to the last complete level so every retained index satisfies its
    # slot condition
    keep = achieved * (k + 1) + k if achieved >= 0 else 0
    return DenseEnumeration(
        PointSequence(tuple(chosen[:keep])),
        achieved, steps[:keep], saturated_at)


def enumeration_series(points: PointSequence,
                       C: Sequence[float] | Callable[[int], float]) -> CoefficientSeries:
    """Series with coefficients C_n * prod_{j=1..n} (z - z_j) over an
    explicit point order and scale sequence (the countable-set layout with
    caller-chosen scales)."""
    if callable(C):
        c_vals = [float(C(n)) for n in range(len(points) + 1)]
    else:
        c_vals = [float(c) for c in list(C)[:len(points) + 1]]
    if len(c_vals) != len(points) + 1:
        raise ValueError(f"need {len(points) + 1} scale values, "
                         f"got {len(c_vals)}")
    for n, c in enumerate(c_vals):
        if not 0 < c < math.inf:
            raise ValueError(f"C_{n} must be positive and finite, got {c!r}")
    log_c = tuple(math.log(c) for c in c_vals)
    return countable_series_from_tables(
        CountableStructure(points.points, log_c))
