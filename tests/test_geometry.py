"""Raster geometry: grids, masks, hulls, distances, exhaustions.

The polynomial hull is cross-checked against an independent pure-Python
flood fill (tests/conftest.py) on seeded random masks.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from sigmaconv import (COMPACT, DOMAIN, OPEN, Grid, RegionMask,
                       complement_components, distance_to, empty_mask,
                       full_domain, holomorphic_hull, neighborhood,
                       omega_exhaustion, polynomial_hull, rasterize_scene,
                       set_distance, shapes)
from sigmaconv.geometry import exhaustion
from conftest import cell_center, flood_fill_hull, random_polyomino


def disk_mask(grid, cx, cy, r):
    return rasterize_scene([(1, shapes.Disk(cx, cy, r))], grid, kind=COMPACT)


# ---------------------------------------------------------------- grid


def test_from_box_dimensions():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    assert g.width == 64 and g.height == 64
    assert g.pixel == pytest.approx(4.0 / 64)
    assert g.origin == complex(-2.0, -2.0)


def test_from_box_rejects_anisotropic_boxes():
    with pytest.raises(ValueError):
        Grid.from_box(0.0, 0.0, 4.0, 2.0, 64, 64)


def test_cell_center_index_round_trip():
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 32, 32)
    for i, j in [(0, 0), (31, 31), (5, 17)]:
        z = cell_center(g, i, j)
        assert g.index_of(z) == (i, j)


def test_centers_ordering_matches_cell_center():
    g = Grid.from_box(0.0, 0.0, 1.0, 1.0, 8, 8)
    zs = g.centers()
    assert zs.shape == (8, 8)
    assert zs[0, 0] == cell_center(g, 0, 0)
    assert zs[3, 5] == cell_center(g, 5, 3)  # [row j, column i]


def test_half_width():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    assert g.half_width() == pytest.approx(2.0)


# ---------------------------------------------------------------- masks


def test_compact_mask_may_not_touch_frame():
    g = Grid.from_box(0.0, 0.0, 8.0, 6.0, 8, 6)
    # a cell on each edge of a grid that is not square, and a corner
    for cell in [(0, 3), (5, 3), (2, 0), (2, 7), (5, 7)]:
        bits = np.zeros((6, 8), dtype=bool)
        bits[cell] = True
        with pytest.raises(ValueError, match="touches the grid frame"):
            RegionMask(g, bits, COMPACT)
        RegionMask(g, bits, OPEN)  # open masks may
    bits = np.zeros((6, 8), dtype=bool)
    bits[1:5, 1:7] = True
    RegionMask(g, bits, COMPACT)  # every cell inside the frame


def test_set_operations():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    a = disk_mask(g, -0.5, 0.0, 0.6)
    b = disk_mask(g, 0.5, 0.0, 0.6)
    u = a.union(b)
    assert np.array_equal(u.bits, a.bits | b.bits)
    assert np.array_equal(a.intersect(b).bits, a.bits & b.bits)
    assert np.array_equal(a.difference(b).bits, a.bits & ~b.bits)
    assert a.subset_of(u) and b.subset_of(u)
    assert not u.subset_of(a)


def test_cell_centers_flat_order():
    g = Grid.from_box(0.0, 0.0, 1.0, 1.0, 8, 8)
    bits = np.zeros((8, 8), dtype=bool)
    bits[2, 5] = bits[4, 1] = True
    m = RegionMask(g, bits, COMPACT)
    got = m.cell_centers()
    assert got[0] == cell_center(g, 5, 2)  # lower row first
    assert got[1] == cell_center(g, 1, 4)


def test_disk_cell_count_matches_area():
    # unit disk area pi; cell count * pixel^2 should agree within 2%
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 256, 256)
    d = disk_mask(g, 0.0, 0.0, 1.0)
    assert d.count() * g.pixel ** 2 == pytest.approx(math.pi, rel=0.02)


# ---------------------------------------------------------------- components


def test_disk_complement_is_one_unbounded_component():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    rep = complement_components(disk_mask(g, 0.0, 0.0, 1.0))
    assert rep.count == 1
    assert rep.bounded_labels().size == 0


def test_annulus_complement_has_one_bounded_component():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 128, 128)
    ann = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.5, 1.0))], g,
                          kind=COMPACT)
    rep = complement_components(ann)
    assert rep.count == 2
    assert rep.bounded_labels().size == 1


def test_hull_of_annulus_is_disk():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 128, 128)
    ann = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.5, 1.0))], g,
                          kind=COMPACT)
    assert polynomial_hull(ann).same_cells(disk_mask(g, 0.0, 0.0, 1.0))


def test_hull_matches_flood_fill_oracle_on_seeded_masks():
    rng = np.random.default_rng(404)
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 40, 40)
    for _ in range(40):
        m = random_polyomino(rng, g, int(rng.integers(5, 240)))
        assert polynomial_hull(m).same_cells(flood_fill_hull(m))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n_cells=st.integers(4, 120))
def test_hull_laws_property(seed, n_cells):
    rng = np.random.default_rng(seed)
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 24, 24)
    k = random_polyomino(rng, g, n_cells)
    h = polynomial_hull(k)
    assert k.subset_of(h)
    assert polynomial_hull(h).same_cells(h)
    bigger = k.union(random_polyomino(rng, g, n_cells))
    assert h.subset_of(polynomial_hull(bigger))


def full_grid_hull(mask):
    """The hull by labelling the whole complement: mask plus every
    component that misses the frame."""
    rep = complement_components(mask)
    return mask.bits | np.isin(rep.labels, rep.bounded_labels())


def ring_mask(h, w, rings):
    """Square outlines on an h x w grid, one per (row0, row1, col0, col1)."""
    bits = np.zeros((h, w), dtype=bool)
    for j0, j1, i0, i1 in rings:
        bits[j0:j1 + 1, [i0, i1]] = True
        bits[[j0, j1], i0:i1 + 1] = True
    return RegionMask(Grid(0j, 1.0, w, h), bits, COMPACT)


@st.composite
def compact_masks(draw):
    """Random interior cells plus up to three square outlines, on a grid of
    3..14 cells a side; outlines may reach the cells next to the frame."""
    h, w = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    rows, cols = st.integers(1, h - 2), st.integers(1, w - 2)
    rings = [(*sorted(r), *sorted(c)) for r, c in draw(st.lists(
        st.tuples(st.tuples(rows, rows), st.tuples(cols, cols)), max_size=3))]
    mask = ring_mask(h, w, rings)
    bits = mask.bits.copy()
    for j, i in draw(st.lists(st.tuples(rows, cols), max_size=30)):
        bits[j, i] = True
    return RegionMask(mask.grid, bits, COMPACT)


@settings(max_examples=150, deadline=None)
@given(mask=compact_masks())
@example(mask=ring_mask(12, 12, [(1, 10, 1, 10), (3, 8, 3, 8),
                                 (5, 6, 5, 6)]))  # nested, padded to frame
@example(mask=ring_mask(9, 13, [(1, 7, 2, 6), (3, 5, 8, 11)]))
@example(mask=ring_mask(5, 5, [(1, 3, 1, 3)]))  # one hole cell
@example(mask=ring_mask(6, 7, []))  # empty
def test_cropped_hull_matches_the_full_grid_fill(mask):
    hull = polynomial_hull(mask)
    assert hull.kind == COMPACT and hull.grid == mask.grid
    assert np.array_equal(hull.bits, full_grid_hull(mask))


def test_holomorphic_hull_fills_hole_inside_domain():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 128, 128)
    ann = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.5, 1.0))], g,
                          kind=COMPACT)
    filled = holomorphic_hull(ann, full_domain(g))
    assert filled.same_cells(disk_mask(g, 0.0, 0.0, 1.0))


def test_holomorphic_hull_keeps_hole_meeting_domain_complement():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 128, 128)
    ann = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.5, 1.0))], g,
                          kind=COMPACT)
    omega = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.2, 1.5))], g,
                            kind=DOMAIN)
    assert holomorphic_hull(ann, omega).same_cells(ann)


def test_holomorphic_hull_requires_containment():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    k = disk_mask(g, 0.0, 0.0, 1.0)
    omega = rasterize_scene([(1, shapes.Disk(1.0, 0.0, 0.5))], g, kind=DOMAIN)
    with pytest.raises(ValueError):
        holomorphic_hull(k, omega)


# ---------------------------------------------------------------- distances


def two_cells(g, sep_px):
    bits = np.zeros((g.height, g.width), dtype=bool)
    bits[10, 10] = True
    bits[10, 10 + sep_px] = True
    return RegionMask(g, bits, COMPACT)


def test_distance_to_exact_axis_aligned():
    g = Grid.from_box(0.0, 0.0, 4.0, 4.0, 32, 32)
    bits = np.zeros((32, 32), dtype=bool)
    bits[10, 10] = True
    m = RegionMask(g, bits, COMPACT)
    d = distance_to(m)
    assert d[10, 10] == 0.0
    assert d[10, 15] == pytest.approx(5 * g.pixel)
    assert d[13, 14] == pytest.approx(5 * g.pixel)  # 3-4-5 triangle


def test_distance_to_empty_mask_is_infinite():
    g = Grid.from_box(0.0, 0.0, 1.0, 1.0, 8, 8)
    assert np.all(np.isinf(distance_to(empty_mask(g))))


def test_set_distance_exact():
    g = Grid.from_box(0.0, 0.0, 4.0, 4.0, 32, 32)
    bits_a = np.zeros((32, 32), dtype=bool)
    bits_a[10, 10] = True
    bits_b = np.zeros((32, 32), dtype=bool)
    bits_b[10, 15] = True
    a = RegionMask(g, bits_a, COMPACT)
    b = RegionMask(g, bits_b, COMPACT)
    assert set_distance(a, b) == pytest.approx(5 * g.pixel)


def test_set_distance_rejects_empty_side():
    g = Grid.from_box(0.0, 0.0, 1.0, 1.0, 8, 8)
    bits = np.zeros((8, 8), dtype=bool)
    bits[3, 3] = True
    m = RegionMask(g, bits, COMPACT)
    with pytest.raises(ValueError, match="empty"):
        set_distance(m, empty_mask(g))


def test_neighborhood_zero_radius_is_identity():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    d = disk_mask(g, 0.0, 0.0, 0.8)
    assert neighborhood(d, 0.0).same_cells(d)


def test_neighborhood_of_an_empty_mask_is_empty_and_open():
    # distance_to an empty mask is +inf, beyond any finite radius
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 16, 16)
    grown = neighborhood(empty_mask(g), 10.0)
    assert grown.is_empty() and grown.kind == OPEN


def test_neighborhood_is_closed():
    # a cell at distance exactly r joins the dilation
    g = Grid.from_box(0.0, 0.0, 4.0, 4.0, 32, 32)
    bits = np.zeros((32, 32), dtype=bool)
    bits[10, 10] = True
    m = RegionMask(g, bits, COMPACT)
    grown = neighborhood(m, 3 * g.pixel)
    assert grown.bits[10, 13]
    assert not grown.bits[10, 14]


@pytest.mark.parametrize("r1,r2", [(0.0, 0.1), (0.1, 0.3), (0.3, 0.31)])
def test_neighborhood_monotone_in_radius(r1, r2):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    d = disk_mask(g, 0.3, -0.2, 0.5)
    assert neighborhood(d, r1).subset_of(neighborhood(d, r2))


# ---------------------------------------------------------------- exhaustion


def test_omega_exhaustion_radius_bound():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 128, 128)
    ex = omega_exhaustion(full_domain(g), 2)
    zs = g.centers()
    assert np.all(np.abs(zs[ex.bits]) <= 2.0)
    # interior cells away from the frame: modulus is the only constraint
    assert ex.count() * g.pixel ** 2 == pytest.approx(math.pi * 4.0, rel=0.02)


def test_omega_exhaustion_ascends():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 128, 128)
    omega = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.4, 3.0))], g,
                            kind=DOMAIN)
    prev = omega_exhaustion(omega, 1)
    for m in (2, 3, 5, 8):
        cur = omega_exhaustion(omega, m)
        assert prev.subset_of(cur)
        prev = cur


def test_omega_exhaustion_keeps_boundary_margin():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 128, 128)
    omega = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.4, 3.0))], g,
                            kind=DOMAIN)
    ex = omega_exhaustion(omega, 2)
    hole = RegionMask(g, ~omega.bits, OPEN)
    d = distance_to(hole)
    assert np.all(d[ex.bits] >= 1 / 2)


def _reference_exhaustion(omega, m):
    """The m-th exhaustion piece straight from its definition, with its own
    boundary transform."""
    g = omega.grid
    obstacle = ~omega.bits
    if omega.bits[g.frame()].any():
        obstacle = obstacle | g.frame()
    bd = ndimage.distance_transform_edt(~obstacle, sampling=g.pixel)
    return omega.bits & (np.abs(g.centers()) <= m) & (bd >= 1.0 / m)


@pytest.mark.parametrize("touches_frame", [True, False])
def test_exhaustion_shares_one_boundary_transform(touches_frame, monkeypatch):
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 64, 64)
    shape = (shapes.Annulus(0.0, 0.0, 0.4, 9.0) if touches_frame
             else shapes.Disk(0.3, -0.2, 3.1))
    omega = rasterize_scene([(1, shape)], g, kind=DOMAIN)
    assert bool(omega.bits[g.frame()].any()) == touches_frame
    reference = [_reference_exhaustion(omega, m) for m in range(1, 9)]
    for m, bits in enumerate(reference, start=1):
        assert np.array_equal(omega_exhaustion(omega, m).bits, bits), m
    transforms = []
    edt = ndimage.distance_transform_edt

    def counted(*args, **kwargs):
        transforms.append(args)
        return edt(*args, **kwargs)
    monkeypatch.setattr(ndimage, "distance_transform_edt", counted)
    piece = exhaustion(omega)
    for m, bits in enumerate(reference, start=1):
        assert np.array_equal(piece(m).bits, bits), m
    assert len(transforms) == 1
    with pytest.raises(ValueError, match="m must be >= 1"):
        piece(0)

