"""Constructors for series with prescribed convergence behavior.

Three constructions are implemented, all producing CoefficientSeries whose
oracles work in log space and vectorize over point arrays:

* countable-set series: coefficients C_n * prod_{j<=n} (z - z_j) whose
  scaling C_n = (n / gamma_n)^n forces divergence away from the point set
  while every z_k kills all coefficients of index >= k exactly;
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
from typing import Callable, Sequence

import numpy as np

from .geometry import (OPEN, Grid, RegionMask, distance_to, empty_mask,
                       neighborhood, polynomial_hull, set_distance)
from .series import CoefficientSeries, reject_nan

# budget for one chunk of the (order x cell) table that product series fill
# when they evaluate a tail window; see _product_tail_sup
TABLE_BYTES = 1 << 20


def _log_abs(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


@dataclass(frozen=True)
class PointSequence:
    """Ordered tuple of points; order is meaningful everywhere it is used."""

    points: tuple[complex, ...]
    verified_distinct: bool = False
    saturated: bool = False

    @classmethod
    def from_points(cls, pts, require_distinct: bool = True) -> "PointSequence":
        tup = tuple(complex(p) for p in pts)
        if require_distinct:
            if len(set(tup)) != len(tup):
                raise ValueError("point sequence contains duplicate points")
            return cls(tup, verified_distinct=True)
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


def _product_log_mag(z: np.ndarray | complex, roots: np.ndarray,
                     log_c_n: float, n: int) -> np.ndarray:
    """log|C_n * prod_{j<n} (z - roots[j])|: log C_n first, then the roots
    in order."""
    zs = np.asarray(z, dtype=complex)
    total = np.full(zs.shape, log_c_n)
    for r in roots[:n]:
        total += _log_abs(zs - r)
    return total


def _product_tail_sup(z: np.ndarray | complex, roots: np.ndarray,
                      log_c: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """max over n = lo..hi of (1/n) * log|C_n * prod_{j<n} (z - roots[j])|,
    where log_c holds log C_n for n = lo..hi and 1 <= lo.

    Each root's log row is evaluated once per chunk of cells and added to
    every order it enters, instead of once per order.  Every order still
    starts at log C_n and adds its roots in sequence, exactly as
    _product_log_mag does, so the result is bit-identical to the per-order
    evaluation.  The (order x cell) table is filled TABLE_BYTES at a time.
    """
    width = hi - lo + 1
    if lo < 1 or hi > len(roots) or len(log_c) != width:
        raise ValueError(f"orders {lo}..{hi} outside the series' tables")
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    ns = np.arange(lo, hi + 1, dtype=float)[:, None]
    sup = np.empty(flat.shape)
    bad_n = hi + 1  # first order with a NaN, over all chunks
    step = max(1, TABLE_BYTES // (8 * width))
    for start in range(0, flat.size, step):
        cells = flat[start:start + step]
        acc = np.repeat(log_c[:, None], cells.size, axis=1)
        for j, r in enumerate(roots[:hi]):
            acc[max(0, j + 1 - lo):] += _log_abs(cells - r)
        nan_rows = np.isnan(acc).any(axis=1)
        if nan_rows.any():
            bad_n = min(bad_n, lo + int(np.argmax(nan_rows)))
            continue
        acc /= ns
        sup[start:start + step] = acc.max(axis=0)
    if bad_n <= hi:
        # re-evaluate the first offending order whole, so the error names
        # the same entry the per-order oracle would
        reject_nan(_product_log_mag(zs, roots, log_c[bad_n - lo], bad_n),
                   bad_n)
    return sup.reshape(zs.shape)


@dataclass(frozen=True)
class CountableStructure:
    points: tuple[complex, ...]
    gammas: tuple[float, ...]
    log_c: tuple[float, ...]  # log C_n for n = 1..len(points) - 1

    def tail_sup(self, z: np.ndarray | complex, lo: int,
                 hi: int) -> np.ndarray:
        """Tail sup of the exponents over orders lo..hi (see
        _product_tail_sup); order n uses log_c[n - 1]."""
        return _product_tail_sup(z, np.array(self.points, dtype=complex),
                                 np.array(self.log_c[lo - 1:hi]), lo, hi)


def countable_series_from_tables(structure: CountableStructure) -> CoefficientSeries:
    """Rebuild the countable-set series from stored tables.

    The oracle consumes the stored log C_n values directly, so a series
    loaded from disk reproduces the original maps bit for bit.
    """
    pts = np.array(structure.points, dtype=complex)
    log_c = np.array(structure.log_c, dtype=float)
    if len(log_c) != len(pts) - 1:
        raise ValueError("log_c table must have len(points) - 1 entries")
    if len(structure.gammas) != len(pts) - 1:
        raise ValueError("gammas table must have len(points) - 1 entries")
    if not all(g > 0 for g in structure.gammas):
        raise ValueError("gammas entries must be > 0")

    def oracle(n: int, z):
        if n == 0:
            return np.zeros(np.shape(z))
        return _product_log_mag(z, pts, log_c[n - 1], n)

    return CoefficientSeries(
        oracle,
        description=f"countable-set series on {len(pts)} points",
        max_supported_n=len(pts) - 1,
        structure=structure,
    )


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
    if not points.verified_distinct:
        points = PointSequence.from_points(points.points)
    gammas, log_c = gamma_table(points)
    return countable_series_from_tables(
        CountableStructure(points.points, tuple(gammas), tuple(log_c)))


@dataclass(frozen=True)
class InterleaveStructure:
    even: CoefficientSeries
    odd: CoefficientSeries


def interleave(f: CoefficientSeries, g: CoefficientSeries) -> CoefficientSeries:
    """Parity merge: F_n = f_{n/2} for even n, g_{(n-1)/2} for odd n.

    The merged series converges at z exactly when both inputs do (their
    exponent tails appear at doubled indices, halving the exponents of
    both)."""

    def oracle(n: int, z):
        if n % 2 == 0:
            return f.log_mag(n // 2, z)
        return g.log_mag((n - 1) // 2, z)

    fmax = math.inf if f.max_supported_n is None else f.max_supported_n
    gmax = math.inf if g.max_supported_n is None else g.max_supported_n
    merged = 2 * min(fmax, gmax)
    return CoefficientSeries(
        oracle,
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
    return PointSequence(tuple(chosen), verified_distinct=True,
                         saturated=saturated)


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
    if m < 1:
        raise ValueError("m must be >= 1")
    if degree_cap < 1:
        raise ValueError("degree_cap must be >= 1")
    if not polynomial_hull(K).same_cells(K):
        raise ValueError("K is not polynomially convex on the raster")
    if not K.subset_of(U):
        raise ValueError("K must be contained in U")
    if not target.intersect(U).is_empty():
        raise ValueError("target must be disjoint from U")

    grid = K.grid
    log_m = math.log(m)
    if target.is_empty():
        return SeparatingFamily(m, [], K, target, empty_mask(grid, OPEN),
                                note="empty target")

    if K.count() == 1:
        # no monic polynomial separates from a one-cell K (sup over K of
        # |z - a| is 0), so scale the linear factor directly; the nearest
        # target cell sits exactly at value m, which float rounding can
        # drop an ulp below the threshold, hence the relative shave
        a = complex(K.cell_centers()[0])
        rho = (set_distance(K, target) / m) * (1.0 - 1e-12)
        member = RootPolynomial((a,), -math.log(rho))
        reaches = np.asarray(member.log_abs(target.cell_centers())) >= log_m
        unc_bits = np.zeros((grid.height, grid.width), dtype=bool)
        unc_bits[target.bits] = ~reaches
        return SeparatingFamily(
            m, [member], K, target, RegionMask(grid, unc_bits, OPEN),
            note=f"single-cell K: member (z - a)/rho with rho = {rho!r} "
                 "(set_distance/m, shaved 1e-12)")

    leja = leja_points(K, degree_cap)
    zs_k = K.cell_centers()
    zs_t = target.cell_centers()
    sum_k = np.zeros(zs_k.shape)
    sum_t = np.zeros(zs_t.shape)
    covered = np.zeros(zs_t.shape, dtype=bool)
    members: list[RootPolynomial] = []
    for d, root in enumerate(leja.points, start=1):
        sum_k += _log_abs(zs_k - root)
        sum_t += _log_abs(zs_t - root)
        norm = float(np.max(sum_k))
        if norm == -np.inf:
            break  # every K cell is a root; higher degrees are identically 0
        reaches = sum_t - norm >= log_m
        if (reaches & ~covered).any():
            members.append(RootPolynomial(tuple(leja.points[:d]), -norm))
            covered |= reaches
            if covered.all():
                break

    uncovered_bits = np.zeros((grid.height, grid.width), dtype=bool)
    uncovered_bits[target.bits] = ~covered
    return SeparatingFamily(m, members, K, target,
                            RegionMask(grid, uncovered_bits, OPEN))


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
        """Yield log|f_n(z)| for n = lo..hi, in order, with 1 <= lo.

        Consecutive members whose roots extend one another (the members of
        a separating-family stage are prefixes of one Leja sequence) share
        a running root sum, so each root term is evaluated once per run of
        such members.  The sum starts from zero, adds roots in order and
        folds log_scale in last, exactly as RootPolynomial.log_abs does, so
        every value is bit-identical to the per-member evaluation.
        """
        if lo < 1 or hi > len(self.members):
            raise ValueError(
                f"orders {lo}..{hi} outside 1..{len(self.members)}")
        zs = np.asarray(z, dtype=complex)
        prefix: tuple[complex, ...] = ()
        total = np.zeros(zs.shape)
        for ell in range(lo, hi + 1):
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

    def oracle(ell: int, z):
        zs = np.asarray(z, dtype=complex)
        if ell == 0:
            return np.full(zs.shape, f0_log_mag)
        h = members[ell - 1]
        return ell * np.asarray(h.log_abs(zs))

    return CoefficientSeries(oracle, description=description,
                             max_supported_n=len(members),
                             structure=structure)


def compact_set_series(K: RegionMask, grid: Grid, stages: int,
                       degree_cap: int) -> CoefficientSeries:
    """Series converging on a polynomially convex K, diverging on shells
    pulled away from it.

    Stage m = 1..stages separates K from the shell of cells at distance
    > 1/m from K with |z| <= m; coefficients are the powered members
    h_l^l in stage block order, and the constant term is 0.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if K.grid != grid:
        raise ValueError("K does not live on the given grid")
    if not polynomial_hull(K).same_cells(K):
        raise ValueError("K is not polynomially convex on the raster")
    dist_k = distance_to(K)
    abs_z = np.abs(grid.centers())
    members: list[RootPolynomial] = []
    sizes: list[int] = []
    uncovered: list[int] = []
    for m in range(1, stages + 1):
        U = neighborhood(K, 1.0 / m)
        # shell cells at distance >= 1/m; cells exactly at 1/m belong to the
        # closed dilation U, so the usable target is the strict excess
        shell = (dist_k > 1.0 / m) & (abs_z <= m) & ~U.bits
        target = RegionMask(grid, shell, OPEN)
        family = separating_family(K, U, target, m, degree_cap)
        members.extend(family.members)
        sizes.append(len(family.members))
        uncovered.append(family.uncovered.count())
    return block_series(
        members, sizes, -math.inf,
        description=f"compact-set series, {stages} stages on {K.count()} cells",
        uncovered_counts=uncovered)


def sigma_convex_series(decomp, omega: RegionMask,
                        degree_cap: int) -> CoefficientSeries:
    """Series converging on the union of an ascending decomposition's pieces
    and diverging elsewhere in the domain.

    Stage k separates E_k from the k-th domain exhaustion piece minus the
    shrinking open cover U_k, at separation level k; the constant term is 1.
    """
    from .geometry import omega_exhaustion  # local to avoid name shadowing
    if omega.grid != decomp.grid:
        raise ValueError("omega does not live on the decomposition's grid")
    members: list[RootPolynomial] = []
    sizes: list[int] = []
    uncovered: list[int] = []
    for k in range(1, decomp.n_max + 1):
        E_k = decomp.E_list[k - 1]
        U_k = decomp.U_list[k - 1]
        target = omega_exhaustion(omega, k).difference(U_k, kind=OPEN)
        try:
            family = separating_family(E_k, U_k, target, k, degree_cap)
        except ValueError as exc:
            raise ValueError(f"stage {k}: {exc}") from exc
        members.extend(family.members)
        sizes.append(len(family.members))
        uncovered.append(family.uncovered.count())
    return block_series(
        members, sizes, 0.0,
        description=f"sigma-convex series, {decomp.n_max} stages",
        uncovered_counts=uncovered)


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
        PointSequence(tuple(chosen[:keep]), verified_distinct=True),
        achieved, steps[:keep], saturated_at)


@dataclass(frozen=True)
class ScaledProductStructure:
    points: tuple[complex, ...]
    log_c: tuple[float, ...]  # log C_n for n = 0..len(points)

    def tail_sup(self, z: np.ndarray | complex, lo: int,
                 hi: int) -> np.ndarray:
        """Tail sup of the exponents over orders lo..hi (see
        _product_tail_sup); order n uses log_c[n]."""
        return _product_tail_sup(z, np.array(self.points, dtype=complex),
                                 np.array(self.log_c[lo:hi + 1]), lo, hi)


def scaled_product_from_tables(structure: ScaledProductStructure) -> CoefficientSeries:
    pts = np.array(structure.points, dtype=complex)
    log_c = np.array(structure.log_c, dtype=float)
    if len(log_c) != len(pts) + 1:
        raise ValueError("log_c table must have len(points) + 1 entries")

    def oracle(n: int, z):
        return _product_log_mag(z, pts, log_c[n], n)

    return CoefficientSeries(
        oracle,
        description=f"scaled product series on {len(pts)} points",
        max_supported_n=len(pts),
        structure=structure)


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
    return scaled_product_from_tables(
        ScaledProductStructure(points.points, log_c))
