"""Ascending hull decompositions and related compact-set surgery.

Given finitely many polynomially convex compacts K_1..K_J, stage n keeps
K_1 whole and pulls each later K_j back from the closed 1/n-neighborhood of
its predecessors; hulls of the pieces accumulate into an ascending chain
E_n whose shrinking neighborhoods U_n trap the union.  The same module
carries the annular-cut surgery that turns a compact with finitely many
holes into polynomially convex slices, plus the finite-components report
and the triangle-fractal mask used by the hull-escape exhibit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import (COMPACT, OPEN, ComponentReport, Grid, RegionMask,
                       complement_components, distance_to, holomorphic_hull,
                       polynomial_hull, set_distance)
from .shapes import (SQRT3_2, ResolutionWarning, _polygon_even_odd,
                     _segment_distance, inverted_triangle_holes,
                     sierpinski_membership)

VERIFIED = "verified"
SKIPPED = "skipped"
MAX_COMPONENTS = 256  # most holes slice_holomorphically_convex will cut


@dataclass
class Decomposition:
    """Stage tables of an ascending decomposition.

    ``L[(n, j)]`` is piece j at stage n (1-based, j <= min(n, len(K_list))),
    ``F[(n, j)]`` its polynomial hull, ``E_list[n-1]`` the stage union of
    hulls, ``U_list[n-1]`` its closed 1/(3n)-neighborhood.
    ``hull_identity[n-1]`` records whether E_n = hull(union of pieces) was
    checked ("verified") or skipped because pieces came within 2 pixels of
    each other.  Pieces with equal cells are one shared object, and so are
    their hulls and equal consecutive stage unions.
    """

    grid: Grid
    K_list: list[RegionMask]
    n_max: int
    L: dict[tuple[int, int], RegionMask]
    F: dict[tuple[int, int], RegionMask]
    E_list: list[RegionMask]
    U_list: list[RegionMask]
    hull_identity: list[str]

    def pieces(self, n: int) -> list[RegionMask]:
        j_hi = min(n, len(self.K_list))
        return [self.L[(n, j)] for j in range(1, j_hi + 1)]


def ascending_decomposition(K_list: list[RegionMask],
                            n_max: int) -> Decomposition:
    """Build stages 1..n_max of the ascending decomposition.

    Stage pieces: L_{n,1} = K_1 and L_{n,j} = K_j minus the closed
    1/n-neighborhood of K_1 | .. | K_{j-1}; F_{n,j} = hull(L_{n,j});
    E_n = union of the F_{n,j}; U_n = closed 1/(3n)-neighborhood of E_n.

    Each K_j must be its own polynomial hull.  The chain E_n is verified
    ascending cell-exact.  Per stage, the identity E_n = hull(union of
    pieces) is verified whenever the nonempty pieces are pairwise more than
    2 pixels apart, and reported skipped otherwise.
    """
    if not K_list:
        raise ValueError("K_list must be non-empty")
    grid = K_list[0].grid

    # one hull per distinct mask, and one RegionMask per distinct piece, both
    # keyed by bits: once 1/n drops below the gaps the pieces stop changing
    hulls: dict[bytes, RegionMask] = {}
    interned: dict[bytes, RegionMask] = {}

    def hull_of(mask: RegionMask) -> RegionMask:
        key = mask.bits.tobytes()
        if key not in hulls:
            hulls[key] = polynomial_hull(mask)
        return hulls[key]

    def piece(bits: np.ndarray) -> RegionMask:
        key = bits.tobytes()
        if key not in interned:
            interned[key] = RegionMask(grid, bits, COMPACT)
        return interned[key]

    for j, K in enumerate(K_list, start=1):
        if K.grid != grid:
            raise ValueError(f"K_{j} lives on a different grid")
        if not hull_of(K).same_cells(K):
            raise ValueError(f"K_{j} is not polynomially convex on the raster")
    J = len(K_list)
    if n_max < J:
        raise ValueError(f"n_max={n_max} is below the number of compacts {J}")

    # distance from each cell to the prefix union K_1 | .. | K_j; prefix
    # distances are reused by every stage
    prefix_dist: list[np.ndarray] = []
    acc = K_list[0]
    prefix_dist.append(distance_to(acc))
    for K in K_list[1:-1]:
        acc = acc.union(K)
        prefix_dist.append(distance_to(acc))

    # pairs (a, b), a < b, of nonempty compacts within 2 px, in lexicographic
    # order; one transform of K_b, dropped after use, gives the floats of
    # set_distance(K_a, K_b) for every earlier a.  Piece separations only
    # grow (pieces are subsets of their K), so every other pair stays apart
    # at every stage
    pix2 = 2.0 * grid.pixel
    close: list[tuple[int, int]] = []
    for b in range(1, J):
        if K_list[b].is_empty():
            continue
        d_b = distance_to(K_list[b])
        close += [(a, b) for a in range(b) if not K_list[a].is_empty()
                  and d_b[K_list[a].bits].min() <= pix2]
    close.sort()

    L: dict[tuple[int, int], RegionMask] = {}
    F: dict[tuple[int, int], RegionMask] = {}
    E_list: list[RegionMask] = []
    U_list: list[RegionMask] = []
    status: list[str] = []

    # E_n and its status change only with the pieces, and the transform of
    # E_n only with E_n (the chain ascends, so equal E's are consecutive)
    seen: tuple[int, ...] = ()
    for n in range(1, n_max + 1):
        j_hi = min(n, J)
        pieces = [K_list[0]] + [
            piece(K_list[j].bits & (prefix_dist[j - 1] > 1.0 / n))
            for j in range(1, j_hi)]
        for j in range(1, j_hi + 1):
            L[(n, j)], F[(n, j)] = pieces[j - 1], hull_of(pieces[j - 1])
        if tuple(map(id, pieces)) != seen:
            seen = tuple(map(id, pieces))
            E = reduce(RegionMask.union, (hull_of(p) for p in pieces))
            if not E_list or not E.same_cells(E_list[-1]):
                d_E = distance_to(E)
            else:
                E = E_list[-1]
            separated = all(
                set_distance(pieces[a], pieces[b]) > pix2
                for a, b in close if b < j_hi
                and not (pieces[a].is_empty() or pieces[b].is_empty()))
            if separated and not hull_of(
                    reduce(RegionMask.union, pieces)).same_cells(E):
                raise AssertionError(
                    f"stage {n}: union-of-hulls differs from hull-of-union "
                    f"despite pieces separated by > 2 px")
        E_list.append(E)
        U_list.append(RegionMask(grid, d_E <= 1.0 / (3.0 * n), OPEN))
        status.append(VERIFIED if separated else SKIPPED)

    for n in range(1, n_max):
        if not E_list[n - 1].subset_of(E_list[n]):
            raise AssertionError(f"ascending chain broken: E_{n} is not "
                                 f"contained in E_{n + 1}")

    return Decomposition(grid, list(K_list), n_max, L, F, E_list, U_list,
                         status)


def u_neighborhood_trap(decomp: Decomposition, m: int) -> RegionMask:
    """Intersection of the stage neighborhoods U_m & .. & U_{n_max}.

    As n_max grows this traps down toward the union of the compacts: the
    trap stays within 1/(3m) plus a pixel band of K_1 | .. | K_J.
    """
    if not 1 <= m <= decomp.n_max:
        raise ValueError(f"m must be in 1..{decomp.n_max}")
    out = decomp.U_list[m - 1]
    for U in decomp.U_list[m:]:
        out = out.intersect(U)
    return out


@dataclass(frozen=True)
class FiniteComponentsReport:
    """Complement component census of a compact mask relative to a domain.

    A bounded complement component wholly inside omega certifies that the
    mask is not holomorphically convex there (its hull would fill it), so
    ``holomorphically_convex`` is True exactly when ``bounded_in_omega`` is
    empty.
    """

    component_count: int
    bounded_count: int
    bounded_in_omega: tuple[int, ...]
    holomorphically_convex: bool
    report: ComponentReport


def check_finite_components(K: RegionMask,
                            omega: RegionMask) -> FiniteComponentsReport:
    """Census the complement components of K and flag the bounded ones
    contained in omega."""
    if not K.subset_of(omega):
        raise ValueError("K must be contained in omega")
    report = complement_components(K)
    inside: list[int] = []
    outside_labels = np.unique(report.labels[~omega.bits])
    outside_labels = set(int(x) for x in outside_labels if x > 0)
    for label in report.bounded_labels():
        if int(label) not in outside_labels:
            inside.append(int(label))
    return FiniteComponentsReport(report.count,
                                  int(report.bounded_flags.sum()),
                                  tuple(inside), not inside, report)


def _hole_annuli(K: RegionMask, pad: float) -> list[tuple[complex, float, float]]:
    """(center, r, R) per bounded complement component: centroid of the hole,
    min/max distance from it to K's cells, padded outward by ``pad``."""
    report = complement_components(K)
    zs = K.grid.centers()
    k_cells = K.cell_centers()
    out: list[tuple[complex, float, float]] = []
    for label in report.bounded_labels():
        hole = zs[report.labels == label]
        a = complex(hole.mean())
        d = np.abs(k_cells - a)
        out.append((a, max(float(d.min()) - pad, 0.0), float(d.max()) + pad))
    return out


def slice_holomorphically_convex(K: RegionMask, omega: RegionMask,
                                 j_max: int) -> list[RegionMask]:
    """Cut a holomorphically convex compact into polynomially convex slices.

    Each bounded complement component (hole) gets an annular sector cut:
    around the hole's centroid, cells at radius between the hole's inner and
    outer K-distances (2-pixel padded) and polar angle past (1 - 1/j) of a
    full turn are removed.  Slice j applies every hole's cut at level j; the
    returned list covers j = 2..j_max, and a holeless K comes back as [K].
    Every slice is verified to be its own polynomial hull.
    """
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    if not holomorphic_hull(K, omega).same_cells(K):
        raise ValueError("K is not holomorphically convex in omega")
    annuli = _hole_annuli(K, pad=2.0 * K.grid.pixel)
    if len(annuli) > MAX_COMPONENTS:
        raise ValueError(
            f"complement has {len(annuli)} bounded components, more than "
            f"the declared maximum {MAX_COMPONENTS}")
    if not annuli:
        return [K]

    zs = K.grid.centers()
    slices: list[RegionMask] = []
    for j in range(2, j_max + 1):
        keep = K.bits.copy()
        cut_angle = (1.0 - 1.0 / j) * 2.0 * math.pi
        for a, r, R in annuli:
            rel = zs - a
            rho = np.abs(rel)
            theta = np.mod(np.angle(rel), 2.0 * math.pi)
            sector = (rho > r) & (rho < R) & (theta > cut_angle)
            keep = keep & ~sector
        sl = RegionMask(K.grid, keep, COMPACT)
        if not polynomial_hull(sl).same_cells(sl):
            raise AssertionError(
                f"slice j={j} failed the hull fixed-point check")
        slices.append(sl)
    return slices


@dataclass(frozen=True)
class HoleEscape:
    """One removed triangle's hull-escape record.

    ``ring`` rasterizes the triangle's boundary (cells within 0.75 pixel of
    an edge, which keeps the digital curve 4-connected); ``escaped`` states
    whether the polynomial hull of the ring contains every interior cell.
    Unresolvable holes (side under 4 pixels, or no interior cell survives
    the ring) carry escaped = None.
    """

    level: int
    vertices: tuple[complex, complex, complex]
    side: float
    resolvable: bool
    interior_cells: int
    escaped: bool | None


def hull_escape_exhibit(depth: int, grid: Grid) -> list[HoleEscape]:
    """Check the hull-escape step on every removed triangle of the depth-k
    approximant: the hull of any set containing a hole's boundary must pick
    up the hole's interior, so the approximant chain can never separate
    those cells."""
    if depth < 1:
        raise ValueError("depth must be >= 1 (depth 0 has no holes)")
    zs = grid.centers()
    ring_width = 0.75 * grid.pixel
    out: list[HoleEscape] = []
    for level, (p, q, r) in inverted_triangle_holes(depth):
        side = abs(q - p)
        edge_dist = np.minimum(
            _segment_distance(zs, p, q),
            np.minimum(_segment_distance(zs, q, r),
                       _segment_distance(zs, r, p)))
        ring_bits = edge_dist <= ring_width
        inside = _polygon_even_odd(zs, (p.real, q.real, r.real),
                                   (p.imag, q.imag, r.imag))
        interior_bits = inside & ~ring_bits
        n_interior = int(interior_bits.sum())
        resolvable = side >= 4.0 * grid.pixel and n_interior > 0
        if not resolvable:
            out.append(HoleEscape(level, (p, q, r), side, False, n_interior,
                                  None))
            continue
        ring = RegionMask(grid, ring_bits & ~grid.frame(), COMPACT)
        hull = polynomial_hull(ring)
        escaped = bool(np.all(hull.bits[interior_bits]))
        out.append(HoleEscape(level, (p, q, r), side, True, n_interior,
                              escaped))
    return out


def sierpinski_mask(depth: int, grid: Grid) -> RegionMask:
    """Depth-k triangle-fractal approximant on the unit triangle with
    vertices 0, 1, (1 + i*sqrt(3))/2."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x0, y0 = grid.origin.real, grid.origin.imag
    x1 = x0 + grid.pixel * grid.width
    y1 = y0 + grid.pixel * grid.height
    if not (x0 <= 0.0 and x1 >= 1.0 and y0 <= 0.0 and y1 >= SQRT3_2):
        raise ValueError("grid does not cover the unit triangle")
    if grid.pixel > 0.5 ** depth:
        warnings.warn(
            f"pixel {grid.pixel:g} is coarser than the depth-{depth} "
            f"triangle side {0.5 ** depth:g}", ResolutionWarning,
            stacklevel=2)
    bits = sierpinski_membership(grid.centers(), depth)
    bits = bits & ~grid.frame()
    return RegionMask(grid, bits, COMPACT)
