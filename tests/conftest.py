"""Shared test helpers: seeded random blob masks, small series builders and
the per-order reference evaluation of a series."""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sigmaconv import (COMPACT, BlockStructure, CoefficientSeries,
                       InterleaveStructure, RegionMask, RootPolynomial,
                       block_series)


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
        zs = np.asarray(z, dtype=complex)
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
