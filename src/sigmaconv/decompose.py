"""Ascending hull decompositions and related compact-set surgery.

Given finitely many polynomially convex compacts K_1..K_J, stage n keeps
K_1 whole and pulls each later K_j back from the closed 1/n-neighborhood of
its predecessors; hulls of the pieces accumulate into an ascending chain
E_n whose shrinking neighborhoods U_n trap the union.  The same module
carries the annular-cut surgery that turns a compact with finitely many
holes into polynomially convex slices, and the triangle-fractal mask used
by the hull-escape exhibit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import (_EIGHT, COMPACT, OPEN, Grid, RegionMask, bounding_box,
                       distance_to, hole_labels, holomorphic_hull,
                       polynomial_hull, set_distance)
from .shapes import (SQRT3_2, SierpinskiShape, _polygon_even_odd,
                     _segment_distance, inverted_triangle_holes,
                     rasterize_scene)

VERIFIED = "verified"
SKIPPED = "skipped"
MAX_COMPONENTS = 256  # most holes slice_holomorphically_convex will cut


@dataclass
class Decomposition:
    """Stage tables of an ascending decomposition.

    ``L[(n, j)]`` is piece j at stage n (1-based, j <= min(n, len(K_list))),
    ``E_list[n-1]`` the stage union of the pieces' polynomial hulls,
    ``U_list[n-1]`` its closed 1/(3n)-neighborhood, cell-exact as from a
    full-grid transform of E_n, though each stage transforms only a window.
    ``hull_identity[n-1]`` records whether E_n = hull(union of pieces) was
    checked ("verified") or skipped because pieces came within 2 pixels of
    each other.  Equal pieces of one compact are one shared object (K_j
    itself while it is kept whole), and so are equal consecutive stage
    unions.
    """

    grid: Grid
    K_list: list[RegionMask]
    n_max: int
    L: dict[tuple[int, int], RegionMask]
    E_list: list[RegionMask]
    U_list: list[RegionMask]
    hull_identity: list[str]


def _box_gap(a: tuple[int, int, int, int],
             b: tuple[int, int, int, int]) -> int:
    """Gap in cells on the larger axis: every cell of box a and cell of box
    b are at least this many rows or this many columns apart."""
    return max(a[0] - b[1], b[0] - a[1], a[2] - b[3], b[2] - a[3], 0)


def _apart(gap: float, pixel: float, r: float) -> bool:
    """Whether every distance_to value between cells ``gap`` cells apart
    exceeds r, without running the transform.

    The transform's value is the float sqrt(fl(dy*p)^2 + fl(dx*p)^2) over
    the integer offsets to the nearest true cell, and here |dx| >= gap or
    |dy| >= gap.  With x = fl(gap*p) it is then >= sqrt(fl(x*x)), which is
    x exactly when x*x is a normal double (and inf when x*x overflows), so
    x > r settles it.  Below the normal range nothing is settled.
    """
    x = gap * pixel
    return x > r and x * x >= sys.float_info.min


def _refresh_distance(d: np.ndarray, E: RegionMask, changed: np.ndarray,
                      r: float) -> None:
    """Bring ``d`` from the previous stage union's distances to E's, exact
    when thresholded at r or any smaller radius; ``changed`` is E XOR the
    previous union.

    With g the least pad such that cells g + 1 rows or columns apart are
    beyond r (``_apart``), every cell outside the changed cells' box padded
    by g (the window W) is beyond r of every changed cell, so its threshold
    is the same for both unions.  A cell of E within r of a cell of W is at
    most g rows and g columns from it, so on W the transform of E over W
    padded by another g decides the threshold exactly.  E itself is
    transformed, not the added cells with a min against the old values: on
    a pixel that is not a power of two, a tie between equally near cells
    can round the two ways an ulp apart.
    """
    box = bounding_box(RegionMask(E.grid, changed, OPEN))
    if box is None:
        return
    row0, row1, col0, col1 = box
    height, width = d.shape
    limit = max(height, width)  # a pad this wide covers the grid
    g = max(int(min(r / E.grid.pixel, limit)) - 2, 0)
    while g < limit and not _apart(g + 1, E.grid.pixel, r):
        g += 1

    def window(pad: int) -> tuple[slice, slice]:
        return (slice(max(row0 - pad, 0), min(row1 + pad + 1, height)),
                slice(max(col0 - pad, 0), min(col1 + pad + 1, width)))

    inner, outer = window(g), window(2 * g)
    d[inner] = distance_to(E, outer)[tuple(
        slice(i.start - o.start, i.stop - o.start)
        for i, o in zip(inner, outer))]


def _or_bits(masks: list[RegionMask]) -> np.ndarray:
    out = np.zeros_like(masks[0].bits)
    for m in masks:
        out |= m.bits
    return out


def ascending_decomposition(K_list: list[RegionMask],
                            n_max: int) -> Decomposition:
    """Build stages 1..n_max of the ascending decomposition.

    Stage pieces: L_{n,1} = K_1 and L_{n,j} = K_j minus the closed
    1/n-neighborhood of K_1 | .. | K_{j-1}; E_n = union of the hulls
    hull(L_{n,j}); U_n = closed 1/(3n)-neighborhood of E_n.  One distance
    array serves every U_n: each distinct E_n transforms only the window
    around the cells it changes (see ``_refresh_distance``).

    Each K_j must be its own polynomial hull.  The chain E_n is verified
    ascending cell-exact.  Per stage, the identity E_n = hull(union of
    pieces) is verified whenever the nonempty pieces are pairwise more than
    2 pixels apart, and reported skipped otherwise.
    """
    if not K_list:
        raise ValueError("K_list must be non-empty")
    grid = K_list[0].grid

    # one hull per distinct mask, keyed by bits
    hulls: dict[bytes, RegionMask] = {}

    def hull_of(mask: RegionMask) -> RegionMask:
        key = mask.bits.tobytes()
        if key not in hulls:
            hulls[key] = polynomial_hull(mask)
        return hulls[key]

    for j, K in enumerate(K_list, start=1):
        if K.grid != grid:
            raise ValueError(f"K_{j} lives on a different grid")
        if not hull_of(K).same_cells(K):
            raise ValueError(f"K_{j} is not polynomially convex on the raster")
    J = len(K_list)
    if n_max < J:
        raise ValueError(f"n_max={n_max} is below the number of compacts {J}")
    boxes = [bounding_box(K) for K in K_list]

    # distances from K_j's cells to the prefix union K_1 | .. | K_{j-1},
    # which every stage n >= j thresholds at 1/n.  None when K_j is empty
    # or its box gap to the earlier boxes already exceeds 1/j: then every
    # stage keeps K_j whole
    prefix_dist: list[np.ndarray | None] = [None]
    prefix = np.zeros_like(K_list[0].bits)
    for j in range(1, J):
        prefix |= K_list[j - 1].bits
        if boxes[j] is not None and not _apart(
                min((_box_gap(boxes[j], box) for box in boxes[:j]
                     if box is not None), default=math.inf),
                grid.pixel, 1.0 / (j + 1)):
            d = distance_to(RegionMask(grid, prefix, COMPACT))
            prefix_dist.append(d[K_list[j].bits])
        else:
            prefix_dist.append(None)

    # pairs (a, b), a < b, of nonempty compacts within 2 px, in lexicographic
    # order; one transform of K_b, dropped after use, gives the floats of
    # set_distance(K_a, K_b) for every earlier a whose box may be that close.
    # Piece separations only grow (pieces are subsets of their K), so every
    # other pair stays apart at every stage
    pix2 = 2.0 * grid.pixel
    close: list[tuple[int, int]] = []
    for b in range(1, J):
        if boxes[b] is None:
            continue
        near = [a for a in range(b) if boxes[a] is not None and not _apart(
            _box_gap(boxes[a], boxes[b]), grid.pixel, pix2)]
        if near:
            d_b = distance_to(K_list[b])
            close += [(a, b) for a in near
                      if d_b[K_list[a].bits].min() <= pix2]
    close.sort()

    L: dict[tuple[int, int], RegionMask] = {}
    E_list: list[RegionMask] = []
    U_list: list[RegionMask] = []
    status: list[str] = []

    # the cells of K_j that a piece keeps only grow with n, so an unchanged
    # count is an unchanged piece; E_n and its status change only with the
    # pieces.  d_E, the distance to E_n thresholded for U_n, is refreshed
    # only when E_n changes (the chain ascends, so equal E's are
    # consecutive), and only on the window around the changed cells: the
    # radius 1/(3n) only shrinks
    pieces: list[RegionMask] = []
    piece_hulls: list[RegionMask] = []
    kept: list[int] = []
    prev_E = np.zeros_like(K_list[0].bits)
    d_E = np.full(prev_E.shape, np.inf)
    for n in range(1, n_max + 1):
        changed = len(pieces) < min(n, J)
        if changed:
            K = K_list[n - 1]
            pieces.append(K)
            piece_hulls.append(K)  # its own hull, checked above
            kept.append(K.count())
        for j, d in enumerate(prefix_dist[:len(pieces)]):
            if d is None:
                continue
            keep = d > 1.0 / n
            count = int(np.count_nonzero(keep))
            if count != kept[j]:
                bits = np.zeros_like(K_list[j].bits)
                bits[K_list[j].bits] = keep
                pieces[j] = RegionMask(grid, bits, COMPACT)
                piece_hulls[j] = hull_of(pieces[j])
                kept[j] = count
                changed = True
        for j, p in enumerate(pieces, start=1):
            L[(n, j)] = p
        if changed:
            E = RegionMask(grid, _or_bits(piece_hulls), COMPACT)
            if not E_list or not E.same_cells(E_list[-1]):
                _refresh_distance(d_E, E, E.bits ^ prev_E, 1.0 / (3.0 * n))
                prev_E = E.bits
            else:
                E = E_list[-1]
            separated = all(
                set_distance(pieces[a], pieces[b]) > pix2
                for a, b in close if b < len(pieces)
                and not (pieces[a].is_empty() or pieces[b].is_empty()))
            if separated and not hull_of(RegionMask(
                    grid, _or_bits(pieces), COMPACT)).same_cells(E):
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

    return Decomposition(grid, list(K_list), n_max, L, E_list, U_list, status)


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


def _hole_annuli(K: RegionMask, pad: float) -> list[tuple[complex, float, float]]:
    """(center, r, R) per hole of K (see ``hole_labels``): centroid of the
    hole, min/max distance from it to the cells of the components of K that
    border the hole, padded outward by ``pad``."""
    labels, _ = hole_labels(K)
    parts, _ = ndimage.label(K.bits)
    k_parts = parts[K.bits]
    zs = K.grid.centers()
    k_cells = K.cell_centers()
    out: list[tuple[complex, float, float]] = []
    for label, (rows, cols) in enumerate(ndimage.find_objects(labels),
                                         start=1):
        # a hole never reaches the frame, so its box padded by one cell
        # fits, and holds every cell of K that touches the hole
        crop = (slice(rows.start - 1, rows.stop + 1),
                slice(cols.start - 1, cols.stop + 1))
        hole = labels[crop] == label
        rim = ndimage.binary_dilation(hole, structure=_EIGHT) & K.bits[crop]
        a = complex(zs[crop][hole].mean())
        d = np.abs(k_cells[np.isin(k_parts, parts[crop][rim])] - a)
        out.append((a, max(float(d.min()) - pad, 0.0), float(d.max()) + pad))
    return out


def slice_holomorphically_convex(K: RegionMask, omega: RegionMask,
                                 j_max: int) -> list[RegionMask]:
    """Cut a holomorphically convex compact into polynomially convex slices.

    Each bounded complement component (hole) gets an annular sector cut:
    around the hole's centroid, cells at radius between the least and
    greatest distances to the components of K bordering the hole (2-pixel
    padded) and polar angle past (1 - 1/j) of a full turn are removed.
    Slice j applies every hole's cut at level j; the returned list covers
    j = 2..j_max, and a holeless K comes back as [K].
    Every slice is verified to be its own polynomial hull; one that is not,
    as a cut under a pixel wide leaves its ring closed, is a ValueError.
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
            raise ValueError(
                f"slice j={j} fails the hull fixed-point check: its cut is "
                f"under a pixel at this resolution")
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
    x0, y0 = grid.origin.real, grid.origin.imag
    x1 = x0 + grid.pixel * grid.width
    y1 = y0 + grid.pixel * grid.height
    if not (x0 <= 0.0 and x1 >= 1.0 and y0 <= 0.0 and y1 >= SQRT3_2):
        raise ValueError("grid does not cover the unit triangle")
    return rasterize_scene([(1, SierpinskiShape(depth))], grid, kind=COMPACT)
