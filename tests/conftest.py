"""Shared test helpers: seeded random blob masks, small series builders,
the per-order reference evaluation of a series, the reference separation
scale gamma_sequence, a one-stage separating family with an independent
re-check of it, the cell-centre formula, the full-grid labelling of a
mask's complement and a decoder of the PGM layout the writers use."""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage

from sigmaconv import (COMPACT, BlockStructure, CoefficientSeries, Grid,
                       InterleaveStructure, RegionMask, RootPolynomial,
                       block_series)
from sigmaconv.construct import _separating_families


def random_polyomino(rng, grid, n_cells):
    """Connected random mask grown cell by cell from a seed (4-neighbor
    growth, frame ring left clear)."""
    h, w = grid.height, grid.width
    bits = np.zeros((h, w), dtype=bool)
    j0 = int(rng.integers(2, h - 2))
    i0 = int(rng.integers(2, w - 2))
    bits[j0, i0] = True
    frontier = [(j0, i0)]
    for _ in range(n_cells - 1):
        if not frontier:
            break
        idx = int(rng.integers(0, len(frontier)))
        j, i = frontier[idx]
        nbrs = [(j + dj, i + di)
                for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 1 <= j + dj < h - 1 and 1 <= i + di < w - 1
                and not bits[j + dj, i + di]]
        if not nbrs:
            frontier.pop(idx)
            continue
        jj, ii = nbrs[int(rng.integers(0, len(nbrs)))]
        bits[jj, ii] = True
        frontier.append((jj, ii))
    return RegionMask(grid, bits, COMPACT)


def disk_growth_series(center, radius, count):
    """Series f_l = ((z - center)/radius)^l: every growth exponent equals
    log|z - center| - log radius, so its verdict map is a disk."""
    h = RootPolynomial((complex(center),), -math.log(radius))
    return block_series([h] * count, [count], 0.0,
                        f"disk growth series about {center}")


@dataclass(frozen=True)
class OracleStructure:
    """Ad-hoc structure: log|f_n(z)| = fn(n, z) for n >= 1, one order at a
    time, and the constant log|f_0| = f0_log_mag."""

    fn: Callable
    f0_log_mag: float = 0.0

    def tail_sup(self, z, lo, hi, divisors=None):
        zs = (z.centers() if isinstance(z, Grid)
              else np.asarray(z, dtype=complex))
        if divisors is None:
            divisors = np.arange(lo, hi + 1, dtype=float)
        sup = np.full(zs.shape, -np.inf)
        for n, d in zip(range(lo, hi + 1), divisors):
            np.maximum(sup, self.fn(n, zs) / d, out=sup)
        return sup


def oracle_series(fn, **kw):
    """Series whose coefficient log-magnitudes come from fn(n, z)."""
    return CoefficientSeries(OracleStructure(fn), **kw)


def _log_abs(z):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.asarray(z, dtype=complex)))


def reference_log_mag(series, n, z):
    """log|f_n(z)| of a block, product, interleave or oracle series at order
    n alone, independently of the structure's tail_sup: a block member
    through RootPolynomial.log_abs, a product order from log C_n through
    its roots in sequence, as the stored rows are summed."""
    s = series.structure
    if isinstance(s, InterleaveStructure):
        return reference_log_mag(s.odd if n % 2 else s.even, n // 2, z)
    zs = np.asarray(z, dtype=complex)
    if n == 0:
        return np.full(zs.shape, s.f0_log_mag)
    if isinstance(s, OracleStructure):
        return np.asarray(s.fn(n, zs), dtype=float)
    if isinstance(s, BlockStructure):
        return n * np.asarray(s.members[n - 1].log_abs(zs))
    total = np.full(zs.shape, s.log_c[n])  # log C_n, then roots in order
    for r in s.points[:n]:
        total += _log_abs(zs - r)
    return total


def gamma_sequence(points, n: int) -> float:
    """Separation scale of the first n+1 points:
    min( half the minimum pairwise distance, 1/n ), from all pairs at
    once; the reference for gamma_table's running minimum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(points) < n + 1:
        raise ValueError(f"gamma_{n} needs at least {n + 1} points")
    pts = np.array(points[:n + 1], dtype=complex)
    diff = np.abs(pts[:, None] - pts[None, :])
    min_gap = float(diff[np.triu_indices(n + 1, k=1)].min())
    if min_gap == 0.0:
        raise ValueError("points must be pairwise distinct")
    return min(0.5 * min_gap, 1.0 / n)


def cell_center(grid, i, j):
    """Centre of the grid cell in column i and row j, by the Grid
    docstring's formula; the reference for Grid.centers."""
    return grid.origin + grid.pixel * complex(i + 0.5, j + 0.5)


def separating_family(K, U, target, m, degree_cap):
    """The separating family of one stage (K, U, target, m) built alone."""
    return _separating_families([("", K, U, target, m)], degree_cap)[1][0]


def verify_family(family, K, target, m) -> bool:
    """Re-check both bounds of the SeparatingFamily of a stage with E = K,
    target and level m with an independent evaluation pass: each member is
    at most 1 on K, and the uncovered report holds exactly the target cells
    no member lifts to level m."""
    log_m = math.log(m)
    zs_K = K.cell_centers()
    for p in family.members:
        if K.count() and np.max(p.log_abs(zs_K)) > 0.0:
            return False
    if target.is_empty():
        return family.uncovered.is_empty()
    zs_t = target.cell_centers()
    best = np.full(zs_t.shape, -np.inf)
    for p in family.members:
        np.maximum(best, p.log_abs(zs_t), out=best)
    covered_ok = best >= log_m
    expect_uncovered = family.uncovered.bits[target.bits]
    return bool(np.array_equal(~covered_ok, expect_uncovered))


def pgm_fields_and_pixels(path):
    """(fields, pixels) of a PGM that sigmaconv.pgmio wrote: the key=value
    fields of its tag comment, as text, and its pixels in grid order,
    bottom row first.  The writer's header is four lines (P5, the comment,
    width and height, 255); nothing is validated."""
    _, comment, size, _, body = Path(path).read_bytes().split(b"\n", 4)
    width, height = map(int, size.split())
    fields = dict(word.split("=") for word in comment.decode().split()[2:])
    return fields, np.frombuffer(body, np.uint8).reshape(height, width)[::-1]


def flood_fill_hull(mask):
    """Reference polynomial hull: breadth-first flood over complement cells
    (8-connected) from the frame; complement cells the flood never reaches
    are bounded, so the hull adds them.  Pure Python on purpose: an
    independent route from the packaged implementation."""
    h, w = mask.grid.height, mask.grid.width
    solid = mask.bits
    seen = np.zeros((h, w), dtype=bool)
    queue = []
    for i in range(w):
        for j in (0, h - 1):
            if not solid[j, i] and not seen[j, i]:
                seen[j, i] = True
                queue.append((j, i))
    for j in range(h):
        for i in (0, w - 1):
            if not solid[j, i] and not seen[j, i]:
                seen[j, i] = True
                queue.append((j, i))
    while queue:
        j, i = queue.pop()
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                jj, ii = j + dj, i + di
                if 0 <= jj < h and 0 <= ii < w and not solid[jj, ii] \
                        and not seen[jj, ii]:
                    seen[jj, ii] = True
                    queue.append((jj, ii))
    filled = solid | ~seen
    return RegionMask(mask.grid, filled & ~mask.grid.frame(), COMPACT)



def complement_components(mask):
    """(labels, count, bounded): the 8-connected components of the mask's
    complement labelled 1..count over the whole grid (0 on mask cells), and
    the labels of those that miss the frame.  The reference for the holes
    that geometry.hole_labels reads off the cropped polynomial hull."""
    labels, count = ndimage.label(~mask.bits, structure=np.ones((3, 3), bool))
    edges = np.concatenate((labels[0], labels[-1], labels[:, 0], labels[:, -1]))
    return labels, count, np.setdiff1d(np.arange(1, count + 1), edges)


def oracle_holomorphic_hull(mask, omega):
    """Mask plus every bounded complement component, from the full-grid
    labelling, that meets no cell outside omega."""
    labels, _, bounded = complement_components(mask)
    fill = np.setdiff1d(bounded, labels[~omega.bits])
    return mask.bits | np.isin(labels, fill)

LEAF_TEXTS = ('"x"', "null", "-1", "1e400", "NaN", "[]", "{}")
MARKER = "@corrupt-leaf@"


def leaf_paths(obj, path=()):
    """Key paths of every non-container value in a JSON object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def corrupt_leaf(obj, paths, rng) -> str:
    """JSON text of ``obj`` with the leaf at one of ``paths``, picked by
    ``rng``, replaced by a malformed value."""
    path = rng.choice(paths)
    copy = json.loads(json.dumps(obj))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = MARKER
    return json.dumps(copy).replace(f'"{MARKER}"', rng.choice(LEAF_TEXTS))
