"""Raster model of plane sets.

A Grid fixes a rectangular lattice of square cells; a RegionMask is a boolean
raster over one grid.  True cells are 4-connected, complement cells are
8-connected, so a closed curve of true cells separates inside from outside.
Masks carry a kind tag:

* ``compact-approx`` - stands in for a compact set; never touches the frame
  (the outermost ring of cells), so the complement always has exactly one
  unbounded component.
* ``open-approx`` - stands in for an open set (dilations, neighborhoods).
* ``domain`` - stands in for the ambient domain of holomorphy.

All metric operations use exact Euclidean distances between cell centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import ndimage

COMPACT = "compact-approx"
OPEN = "open-approx"
DOMAIN = "domain"

_KINDS = (COMPACT, OPEN, DOMAIN)

# 8-connectivity structure for complement labeling.
_EIGHT = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class Grid:
    """Square-cell lattice.

    Cell (i, j) has center ``origin + pixel*(i + 1/2) + 1j*pixel*(j + 1/2)``
    with i the column index (0..width-1, real direction) and j the row index
    (0..height-1, imaginary direction).  Arrays over the grid are indexed
    ``[j, i]``; the flat cell index is ``j*width + i``.
    """

    origin: complex
    pixel: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.pixel > 0 and math.isfinite(self.pixel)):
            raise ValueError("pixel must be positive and finite")
        if self.width < 2 or self.height < 2:
            raise ValueError("grid must be at least 2x2")
        top = self.origin + self.pixel * complex(self.width, self.height)
        if not (math.isfinite(self.origin.real) and math.isfinite(self.origin.imag)
                and math.isfinite(top.real) and math.isfinite(top.imag)):
            raise ValueError("grid corners must be finite")

    @classmethod
    def from_box(cls, x0: float, y0: float, x1: float, y1: float,
                 width: int, height: int) -> "Grid":
        """Grid covering the box [x0,x1] x [y0,y1] with square cells.

        The box aspect ratio must match width:height (relative tolerance
        1e-9); cells are always square.
        """
        if not (x1 > x0 and y1 > y0):
            raise ValueError("box must have positive extent")
        if width < 2 or height < 2:
            raise ValueError("grid must be at least 2x2")
        px = (x1 - x0) / width
        py = (y1 - y0) / height
        if abs(px - py) > 1e-9 * max(px, py):
            raise ValueError("box aspect ratio does not give square cells")
        return cls(complex(x0, y0), px, width, height)

    def centers(self) -> np.ndarray:
        """Complex array of cell centers, shape (height, width)."""
        return _centers(self)

    def index_of(self, z: complex) -> tuple[int, int]:
        """(i, j) of the cell whose closed box contains z (floor convention)."""
        i = int(math.floor((z.real - self.origin.real) / self.pixel))
        j = int(math.floor((z.imag - self.origin.imag) / self.pixel))
        return i, j

    def contains_index(self, i: int, j: int) -> bool:
        return 0 <= i < self.width and 0 <= j < self.height

    def frame(self) -> np.ndarray:
        """Boolean array marking the outermost ring of cells."""
        f = np.zeros((self.height, self.width), dtype=bool)
        f[0, :] = f[-1, :] = True
        f[:, 0] = f[:, -1] = True
        return f

    def half_width(self) -> float:
        """Half the larger side length, in coordinate units."""
        return 0.5 * self.pixel * max(self.width, self.height)


@lru_cache(maxsize=64)
def _centers(grid: Grid) -> np.ndarray:
    i = np.arange(grid.width)
    j = np.arange(grid.height)
    re = grid.origin.real + grid.pixel * (i + 0.5)
    im = grid.origin.imag + grid.pixel * (j + 0.5)
    z = re[None, :] + 1j * im[:, None]
    z.setflags(write=False)
    return z


def _edges(a: np.ndarray) -> np.ndarray:
    """The values of a 2-D array on its outermost ring (the frame cells of a
    grid array), corners repeated: four edge reads instead of a frame mask."""
    return np.concatenate((a[0], a[-1], a[:, 0], a[:, -1]))


@dataclass(frozen=True)
class RegionMask:
    """Boolean raster over a grid, with a set-kind tag.

    Treat instances as immutable after construction; all operations return
    new masks.  Safe for concurrent readers.
    """

    grid: Grid
    bits: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown mask kind {self.kind!r}")
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.grid.height, self.grid.width):
            raise ValueError("mask shape does not match grid")
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if self.kind == COMPACT and bool(_edges(bits).any()):
            raise ValueError("compact-approx mask touches the grid frame")

    # -- basic set algebra (same grid required) -------------------------

    def _check_same_grid(self, other: "RegionMask") -> None:
        if self.grid != other.grid:
            raise ValueError("masks live on different grids")

    def union(self, other: "RegionMask", kind: str | None = None) -> "RegionMask":
        self._check_same_grid(other)
        return RegionMask(self.grid, self.bits | other.bits, kind or self.kind)

    def intersect(self, other: "RegionMask", kind: str | None = None) -> "RegionMask":
        self._check_same_grid(other)
        return RegionMask(self.grid, self.bits & other.bits, kind or self.kind)

    def difference(self, other: "RegionMask", kind: str | None = None) -> "RegionMask":
        self._check_same_grid(other)
        return RegionMask(self.grid, self.bits & ~other.bits, kind or self.kind)

    def subset_of(self, other: "RegionMask") -> bool:
        self._check_same_grid(other)
        return bool(np.all(~self.bits | other.bits))

    def same_cells(self, other: "RegionMask") -> bool:
        self._check_same_grid(other)
        return bool(np.array_equal(self.bits, other.bits))

    def count(self) -> int:
        return int(self.bits.sum())

    def is_empty(self) -> bool:
        return not bool(self.bits.any())

    def cell_centers(self) -> np.ndarray:
        """Centers of the true cells, flat order (j*width + i ascending)."""
        return self.grid.centers()[self.bits]


def empty_mask(grid: Grid, kind: str = COMPACT) -> RegionMask:
    return RegionMask(grid, np.zeros((grid.height, grid.width), dtype=bool), kind)


def full_domain(grid: Grid) -> RegionMask:
    return RegionMask(grid, np.ones((grid.height, grid.width), dtype=bool), DOMAIN)


def bounding_box(mask: RegionMask) -> tuple[int, int, int, int] | None:
    """(first row, last row, first column, last column) of the true cells,
    or None for an empty mask."""
    rows = np.flatnonzero(mask.bits.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.bits.any(axis=0))
    return int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])


def polynomial_hull(mask: RegionMask) -> RegionMask:
    """Mask plus every bounded component of its complement.

    The result has exactly one complement component (the unbounded one),
    hence is a fixed point of this operation.  The complement is labelled
    on the mask's bounding box padded by one cell only: that ring lies in
    the complement and joins the frame, so a component is bounded in the
    crop exactly when it is bounded in the grid.
    """
    if mask.kind != COMPACT:
        raise ValueError("polynomial_hull requires a compact-approx mask")
    box = bounding_box(mask)
    if box is None:
        return mask
    # a compact mask never touches the frame, so the padded box fits
    row0, row1, col0, col1 = box
    crop = (slice(row0 - 1, row1 + 2), slice(col0 - 1, col1 + 2))
    labels, _ = ndimage.label(~mask.bits[crop], structure=_EIGHT)
    bits = mask.bits.copy()
    bits[crop] = labels != labels[0, 0]
    return RegionMask(mask.grid, bits, COMPACT)


def hole_labels(mask: RegionMask) -> tuple[np.ndarray, int]:
    """The holes of a compact-approx mask: the cells its polynomial hull
    adds, labelled 1..count over the grid by 8-connected component (0 on
    every other cell).  Two holes never touch, so these components are
    exactly the bounded components of the mask's complement, numbered in
    raster order of their first cell."""
    added = polynomial_hull(mask).bits & ~mask.bits
    labels, count = ndimage.label(added, structure=_EIGHT)
    return labels, int(count)


def holomorphic_hull(mask: RegionMask, omega: RegionMask) -> RegionMask:
    """Mask plus each of its holes that meets no cell outside omega: the
    polynomial hull minus the holes that reach omega's complement."""
    if omega.kind != DOMAIN:
        raise ValueError("omega must be tagged domain")
    if not mask.subset_of(omega):
        raise ValueError("mask is not contained in omega")
    labels, count = hole_labels(mask)
    fill = np.ones(count + 1, dtype=bool)
    fill[labels[~omega.bits]] = False
    fill[0] = False  # cells in no hole
    return RegionMask(mask.grid, mask.bits | fill[labels], COMPACT)


def distance_to(mask: RegionMask,
                window: tuple[slice, slice] | None = None) -> np.ndarray:
    """Euclidean distance from every cell center to the nearest true cell
    center of ``mask`` (exact, in coordinate units; +inf for an empty mask).

    With ``window``, a (rows, columns) pair of slices, only the window's
    cells are transformed, from the true cells inside it: the result has
    the window's shape, and no value is below the whole grid's transform
    there.  Where a nearest true cell lies in the window, the value is
    that cell's distance.
    """
    bits = mask.bits if window is None else mask.bits[window]
    if not bits.any():
        return np.full(bits.shape, np.inf)
    return ndimage.distance_transform_edt(~bits, sampling=mask.grid.pixel)


def neighborhood(mask: RegionMask, r: float) -> RegionMask:
    """Cells whose center lies within distance r of a true cell center.

    Closed dilation: distance exactly r is included, and r = 0 returns the
    input unchanged.  Results for r > 0 are tagged open-approx.
    """
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and >= 0")
    if r == 0:
        return mask
    return RegionMask(mask.grid, distance_to(mask) <= r, OPEN)


def set_distance(a: RegionMask, b: RegionMask) -> float:
    """Minimum center-to-center distance between true cells of a and b."""
    a._check_same_grid(b)
    if a.is_empty() or b.is_empty():
        which = "first" if a.is_empty() else "second"
        raise ValueError(f"set_distance undefined: {which} mask is empty")
    return float(distance_to(b)[a.bits].min())


def omega_exhaustion(omega: RegionMask, m: int) -> RegionMask:
    """The m-th compact exhaustion piece of a domain mask.

    Keeps omega cells with |z| <= m whose distance to the nearest non-omega
    cell center is >= 1/m; when omega meets the frame the frame ring counts
    as boundary too (the rasterized domain is then clipped, not closed).
    """
    return exhaustion(omega)(m)


def exhaustion(omega: RegionMask) -> Callable[[int], RegionMask]:
    """m -> omega_exhaustion(omega, m), with the domain's boundary distance
    transform computed once for every m."""
    if omega.kind != DOMAIN:
        raise ValueError("omega_exhaustion requires a domain mask")
    grid = omega.grid
    frame = grid.frame()
    obstacle = ~omega.bits
    if bool(omega.bits[frame].any()):
        obstacle = obstacle | frame
    bd = distance_to(RegionMask(grid, obstacle, OPEN))
    abs_z = np.abs(grid.centers())

    def piece(m: int) -> RegionMask:
        if m < 1:
            raise ValueError("m must be >= 1")
        bits = omega.bits & (abs_z <= m) & (bd >= 1.0 / m)
        return RegionMask(grid, bits, COMPACT)
    return piece

