"""Ascending decompositions, neighborhood traps, annular slicing, and the
hole-escape exhibit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmaconv import (COMPACT, DOMAIN, OPEN, Grid, RegionMask, Verdict,
                       ascending_decomposition, compact_set_series,
                       conv_map, distance_to, empty_mask,
                       export_decomposition, full_domain,
                       hull_escape_exhibit, load_decomposition,
                       neighborhood, omega_exhaustion, polynomial_hull, rasterize_scene,
                       set_distance, shapes, sierpinski_mask,
                       sigma_convex_series, slice_holomorphically_convex,
                       u_neighborhood_trap)

SKIPPED = "skipped"
VERIFIED = "verified"


def disk(g, cx, cy, r):
    return polynomial_hull(
        rasterize_scene([(1, shapes.Disk(cx, cy, r))], g, kind=COMPACT))


# ------------------------------------------------------------ stages


def test_single_compact_stages_are_constant():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K = disk(g, 0.0, 0.0, 0.7)
    dec = ascending_decomposition([K], 5)
    assert sorted(dec.L) == [(n, 1) for n in range(1, 6)]
    for n in range(1, 6):
        assert dec.L[(n, 1)].same_cells(K)
        assert polynomial_hull(dec.L[(n, 1)]).same_cells(K)
        assert dec.E_list[n - 1].same_cells(K)
    assert dec.hull_identity == [VERIFIED] * 5
    # shrinking closed neighborhoods nest downward
    for n in range(1, 5):
        assert dec.U_list[n].subset_of(dec.U_list[n - 1])
        assert K.subset_of(dec.U_list[n])


def test_well_separated_pair_keeps_second_piece():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K1, K2 = disk(g, -1.0, 0.0, 0.4), disk(g, 1.0, 0.0, 0.4)
    dec = ascending_decomposition([K1, K2], 6)
    # stage n only uses j <= n
    assert sorted(dec.L) == [(1, 1)] + [(n, j) for n in range(2, 7)
                                        for j in (1, 2)]
    for n in range(2, 7):
        assert dec.L[(n, 1)].same_cells(K1)
        # erosion radius 1/n stays below the 1.2 gap, so nothing is removed
        assert dec.L[(n, 2)].same_cells(K2)
        assert dec.E_list[n - 1].same_cells(K1.union(K2))
    assert dec.hull_identity == [VERIFIED] * 6


def test_nested_disks_erode_then_hull_back():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K1, K2 = disk(g, 0.0, 0.0, 0.2), disk(g, 0.0, 0.0, 1.0)
    dec = ascending_decomposition([K1, K2], 6)
    prev = None
    for n in range(2, 7):
        piece = dec.L[(n, 2)]
        # the second piece loses an interior disk around K1 but its hull
        # fills the hole back in
        assert piece.count() < K2.count()
        assert piece.subset_of(K2)
        assert polynomial_hull(piece).same_cells(K2)
        assert dec.E_list[n - 1].same_cells(K2)
        if prev is not None:
            assert prev.subset_of(piece)  # erosion radius 1/n shrinks
        prev = piece
    assert dec.hull_identity == [VERIFIED] * 6


def test_close_pair_skips_hull_identity_at_late_stages():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    K1, K2 = disk(g, -0.5, 0.0, 0.45), disk(g, 0.5, 0.0, 0.45)
    assert set_distance(K1, K2) <= 2.0 * g.pixel
    dec = ascending_decomposition([K1, K2], 6)
    assert dec.hull_identity == [VERIFIED] * 4 + [SKIPPED] * 2


def test_ascending_chain_is_cell_exact():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    parts = [disk(g, -1.0, 0.5, 0.3), disk(g, 1.0, 0.0, 0.4),
             disk(g, 0.0, -1.0, 0.35)]
    dec = ascending_decomposition(parts, 9)
    for n in range(1, 9):
        assert dec.E_list[n - 1].subset_of(dec.E_list[n])


def _reference_stages(K_list, n_max):
    """Stage tables straight from the definitions: each piece is K_j minus
    the closed 1/n-neighborhood of its prefix union, and a stage is verified
    when every pair of nonempty pieces is more than 2 pixels apart."""
    g = K_list[0].grid
    L, E_list, U_list, status = {}, [], [], []
    for n in range(1, n_max + 1):
        j_hi = min(n, len(K_list))
        pieces = [K_list[0]]
        for j in range(2, j_hi + 1):
            prefix = K_list[0]
            for K in K_list[1:j - 1]:
                prefix = prefix.union(K)
            pieces.append(K_list[j - 1].difference(neighborhood(prefix,
                                                                1.0 / n)))
        E = empty_mask(g)
        for j, piece in enumerate(pieces, start=1):
            L[(n, j)] = piece
            E = E.union(polynomial_hull(piece))
        E_list.append(E)
        U_list.append(neighborhood(E, 1.0 / (3.0 * n)))
        live = [p for p in pieces if not p.is_empty()]
        separated = all(set_distance(p, q) > 2.0 * g.pixel
                        for i, p in enumerate(live) for q in live[i + 1:])
        status.append(VERIFIED if separated else SKIPPED)
    return L, E_list, U_list, status


def rect(g, rows, cols):
    """Compact of the cells in the inclusive row and column ranges."""
    bits = np.zeros((g.height, g.width), dtype=bool)
    bits[rows[0]:rows[1] + 1, cols[0]:cols[1] + 1] = True
    return RegionMask(g, bits, COMPACT)


def box_gap(a, b):
    """Gap in cells on the larger axis between the boxes of a and b."""
    (ra, ca), (rb, cb) = np.nonzero(a.bits), np.nonzero(b.bits)
    return max(rb.min() - ra.max(), ra.min() - rb.max(),
               cb.min() - ca.max(), ca.min() - cb.max(), 0)


# (rows, cols) per compact, on the 32x32 grid of [-2, 2]^2 (pixel 1/8)
RECT_SCENES = {
    # K_2 is exactly 2 cells (2 px, a close pair) from K_1, K_3 exactly 3
    # cells from K_2: its box alone settles that they stay apart
    "boxes": [((4, 8), (4, 8)), ((4, 8), (10, 14)), ((4, 8), (17, 21))],
    # K_2 meets K_1 at a corner (sqrt 2 px); K_3 is 2 rows and 2 columns
    # from K_1 (2 sqrt 2 px), so it is transformed and then found apart
    "diagonal": [((10, 14), (10, 14)), ((15, 19), (15, 19)),
                 ((4, 8), (16, 20)), ((22, 26), (4, 8))],
    # K_2 is 4 cells = 1/2 from K_1: stage 2 pulls it back by one column
    "prefix-gap-exact": [((12, 18), (4, 8)), ((12, 18), (12, 16))],
    # one cell wider: every stage keeps K_2 whole
    "prefix-gap-wider": [((12, 18), (4, 8)), ((12, 18), (13, 17))],
}


def _stage_scene(name):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    if name.endswith("-odd-pixel"):  # a pixel that is not a power of two
        g = Grid.from_box(-2.2, -2.2, 2.2, 2.2, 32, 32)
        name = name.removesuffix("-odd-pixel")
    if name in RECT_SCENES:
        return [rect(g, rows, cols) for rows, cols in RECT_SCENES[name]]
    if name == "apart":
        # on the 4/32 pixel K1, K2 are 1 px apart and K3, K4 exactly 2 px;
        # every other pair of nonempty compacts is more than 2 px apart
        return [disk(g, -0.5, 0.0, 0.45), disk(g, 0.5, 0.0, 0.45),
                disk(g, -0.3, -1.35, 0.3), disk(g, 0.45, -1.35, 0.3),
                disk(g, 0.0, 1.3, 0.35)]
    if name == "nested":
        return [disk(g, 0.0, 0.0, 0.2), disk(g, 0.0, 0.0, 1.0),
                disk(g, 1.45, 1.45, 0.25)]
    return [disk(g, -1.0, 0.0, 0.4), empty_mask(g), disk(g, 0.0, 0.0, 0.5),
            disk(g, 1.0, 0.0, 0.4)]


@pytest.mark.parametrize("name", [
    "apart", "apart-odd-pixel", "nested", "empty-middle", "boxes",
    "boxes-odd-pixel", "diagonal", "prefix-gap-exact", "prefix-gap-wider",
    "prefix-gap-exact-odd-pixel"])
def test_stage_tables_match_the_definitions(name):
    K_list = _stage_scene(name)
    n_max = 9
    dec = ascending_decomposition(K_list, n_max)
    L, E_list, U_list, status = _reference_stages(K_list, n_max)
    assert dec.L.keys() == L.keys()
    for key in L:
        assert dec.L[key].same_cells(L[key]), key
    for n in range(n_max):
        assert dec.E_list[n].same_cells(E_list[n]), n + 1
        assert dec.U_list[n].same_cells(U_list[n]), n + 1
    assert dec.hull_identity == status
    if name.startswith(("apart", "boxes")):
        assert VERIFIED in status and SKIPPED in status
    if name.startswith("prefix-gap"):
        whole = dec.L[(2, 2)].same_cells(K_list[1])
        assert whole == (name != "prefix-gap-exact")


def spy_on(monkeypatch, module, name, calls):
    """Record the bits of every mask passed to module.name."""
    fn = getattr(module, name)

    def wrapped(mask, *args):
        calls.append(mask.bits.tobytes())
        return fn(mask, *args)
    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("name,prefixes,singles", [
    ("boxes", [2], [2]),
    ("boxes-odd-pixel", [2], [2]),
    ("diagonal", [2, 3], [2, 3]),
    ("prefix-gap-exact", [2], []),
    ("prefix-gap-wider", [], []),
])
def test_box_gaps_settle_the_transforms_they_skip(monkeypatch, name, prefixes,
                                                  singles):
    """The transform of K_1 | .. | K_{j-1} runs for each j in ``prefixes``
    and that of K_b for each b in ``singles``; the boxes settle the rest.
    Then one transform per distinct E_n, in stage order."""
    from sigmaconv import decompose
    calls = []
    spy_on(monkeypatch, decompose, "distance_to", calls)
    K_list = _stage_scene(name)
    dec = ascending_decomposition(K_list, 9)
    K_bits = [K.bits for K in K_list]
    expected = [np.logical_or.reduce(K_bits[:j - 1]).tobytes()
                for j in prefixes]
    expected += [K_bits[b - 1].tobytes() for b in singles]
    expected += [E.bits.tobytes() for n, E in enumerate(dec.E_list)
                 if n == 0 or not E.same_cells(dec.E_list[n - 1])]
    assert calls == expected


def test_rect_scenes_have_the_gaps_they_name():
    boxes = _stage_scene("boxes")
    assert [box_gap(boxes[0], boxes[1]), box_gap(boxes[1], boxes[2])] == [2, 3]
    diagonal = _stage_scene("diagonal")
    assert [box_gap(diagonal[0], K) for K in diagonal[1:]] == [1, 2, 8]
    g = diagonal[0].grid
    assert set_distance(diagonal[0], diagonal[1]) == math.sqrt(2) * g.pixel
    exact, wider = _stage_scene("prefix-gap-exact"), _stage_scene(
        "prefix-gap-wider")
    assert box_gap(*exact) * g.pixel == 1.0 / 2 == set_distance(*exact)
    assert box_gap(*wider) == 5


def test_stage_work_is_done_once_per_distinct_input(monkeypatch):
    """Hulls, transforms and Leja sequences run once per distinct piece, E_n
    and E_k group, and equal pieces are one shared object."""
    from sigmaconv import construct, decompose
    calls = {"hull": [], "dist": [], "leja": []}
    spy_on(monkeypatch, decompose, "polynomial_hull", calls["hull"])
    spy_on(monkeypatch, decompose, "distance_to", calls["dist"])
    spy_on(monkeypatch, construct, "leja_points", calls["leja"])

    K_list = _stage_scene("nested")
    n_max = 9
    dec = ascending_decomposition(K_list, n_max)
    assert len(calls["hull"]) == len(set(calls["hull"]))
    distinct_E = {E.bits.tobytes() for E in dec.E_list}
    # K_3's box is 3 cells (3/8 > 1/3) from K_2's and farther from K_1's,
    # so only K_2 needs its prefix union K_1 transformed, and only K_2 its
    # own transform for the 2-pixel test; then one per distinct E_n
    assert [box_gap(K_list[0], K_list[2]), box_gap(K_list[1], K_list[2])] \
        == [9, 3]
    assert len(calls["dist"]) == 1 + 1 + len(distinct_E) == 5
    for (n, j), piece in dec.L.items():
        for n2 in range(j, n_max + 1):
            if dec.L[(n2, j)].same_cells(piece):
                assert dec.L[(n2, j)] is piece

    omega = full_domain(dec.grid)
    sigma_convex_series(dec, omega, degree_cap=16)
    groups = {}
    for k, E in enumerate(dec.E_list, start=1):
        target = omega_exhaustion(omega, k).difference(dec.U_list[k - 1])
        key = E.bits.tobytes()
        groups[key] = groups.get(key, False) or (
            E.count() > 1 and not target.is_empty())
    assert len(distinct_E) < n_max
    assert len(calls["leja"]) == sum(groups.values()) > 0


@st.composite
def stage_scenes(draw):
    """2-5 polynomially convex compacts (clipped disks, rectangles, single
    cells) on a 32-48 cell grid of half-width 2 or 2.2, some reaching the
    second ring from the frame so that the stage windows clip, and n_max."""
    side = draw(st.integers(32, 48))
    half = draw(st.sampled_from([2.0, 2.2]))
    g = Grid.from_box(-half, -half, half, half, side, side)
    lo, hi = 1, side - 2
    index = st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))
    rows, cols = np.indices((side, side))
    inside = (rows >= lo) & (rows <= hi) & (cols >= lo) & (cols <= hi)
    K_list = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["disk", "rect", "cell"]))
        r0, c0 = draw(index), draw(index)
        if kind == "disk":
            radius = draw(st.integers(1, 8))
            bits = inside & ((rows - r0) ** 2 + (cols - c0) ** 2
                             <= radius ** 2)
            K_list.append(polynomial_hull(RegionMask(g, bits, COMPACT)))
        elif kind == "rect":
            r1, c1 = draw(index), draw(index)
            K_list.append(rect(g, sorted((r0, r1)), sorted((c0, c1))))
        else:
            K_list.append(rect(g, (r0, r0), (c0, c0)))
    return K_list, draw(st.integers(len(K_list), 12))


def window_edge_scene():
    """K_1 is one cell and K_2 a 2x3 block 3 rows below it (pixel 1/8).
    Stage 2 (radius 1/6, so g = 1) keeps 4 cells of K_2, and the outer
    window around them ends one row short of K_1: cell (24, 10) lies in
    U_2 only through K_1, 1/8 away."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    return [rect(g, (23, 23), (10, 10)), rect(g, (26, 27), (11, 13))], 9


@settings(max_examples=80, deadline=None)
@given(scene=stage_scenes())
@example(scene=window_edge_scene())
def test_stage_windows_match_the_definitions(scene):
    """Each U_n is refreshed only on a window around the cells E_n changes,
    yet every stage table equals the full-grid definitions, on dyadic and
    non-dyadic pixels alike."""
    K_list, n_max = scene
    dec = ascending_decomposition(K_list, n_max)
    _, E_list, U_list, status = _reference_stages(K_list, n_max)
    for n in range(n_max):
        assert dec.E_list[n].same_cells(E_list[n]), n + 1
        assert dec.U_list[n].same_cells(U_list[n]), n + 1
    assert dec.hull_identity == status


def test_late_far_compact_is_transformed_over_its_window(monkeypatch):
    """Stage 3 adds K_3 whole, far from the others: E_3 is transformed over
    K_3's box padded by 2g per side, not the grid, with g the least pad
    such that cells g + 1 rows or columns apart are more than 1/9 apart."""
    from sigmaconv import decompose
    calls = []
    fn = decompose.distance_to

    def wrapped(mask, *args):
        calls.append((mask.bits.tobytes(), args))
        return fn(mask, *args)
    monkeypatch.setattr(decompose, "distance_to", wrapped)
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)  # pixel 1/16
    K_list = [disk(g, -1.2, -1.2, 0.4), disk(g, -1.2, 0.4, 0.3),
              rect(g, (52, 55), (50, 54))]
    dec = ascending_decomposition(K_list, 3)
    # K_3's box is over 1/3 from the others, so only the E_n are transformed
    assert [bits for bits, _ in calls] == [E.bits.tobytes()
                                           for E in dec.E_list]
    # 2/16 > 1/9 >= 1/16, so g = 1 and the window is 4 + 4 by 5 + 4 cells
    assert calls[-1][1] == ((slice(50, 58), slice(48, 57)),)
    assert dec.U_list[2].same_cells(neighborhood(dec.E_list[2], 1.0 / 9))


def test_decomposition_preconditions():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K = disk(g, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="non-empty"):
        ascending_decomposition([], 3)
    with pytest.raises(ValueError, match="below the number of compacts"):
        ascending_decomposition([K, disk(g, 1.2, 0.0, 0.2)], 1)
    ann = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.5, 0.9))], g,
                          kind=COMPACT)
    with pytest.raises(ValueError, match="K_1 is not polynomially convex"):
        ascending_decomposition([ann], 3)
    g2 = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    with pytest.raises(ValueError, match="different grid"):
        ascending_decomposition([K, disk(g2, 1.0, 0.0, 0.3)], 4)


# ------------------------------------------------------------ traps


def test_trap_of_single_compact_is_last_neighborhood():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K = disk(g, 0.0, 0.0, 0.7)
    dec = ascending_decomposition([K], 8)
    for m in (1, 2, 5, 8):
        trap = u_neighborhood_trap(dec, m)
        # nested U's collapse the intersection onto the innermost one
        assert trap.same_cells(dec.U_list[-1])
        assert K.subset_of(trap)
        assert trap.subset_of(neighborhood(K, 1.0 / (3.0 * m) + 2 * g.pixel))


def test_trap_tightens_toward_the_union():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    parts = [disk(g, -1.0, 0.0, 0.4), disk(g, 1.0, 0.0, 0.4)]
    union = parts[0].union(parts[1])
    dec = ascending_decomposition(parts, 10)
    for m in (1, 2, 5, 10):
        trap = u_neighborhood_trap(dec, m)
        if m >= len(parts):
            # before stage J the later compacts are not active yet, so only
            # traps starting at m >= J contain the whole union
            assert union.subset_of(trap)
        assert trap.subset_of(
            neighborhood(union, 1.0 / (3.0 * m) + 2 * g.pixel))


def test_trap_range_is_validated():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    dec = ascending_decomposition([disk(g, 0.0, 0.0, 0.5)], 3)
    with pytest.raises(ValueError, match="1..3"):
        u_neighborhood_trap(dec, 0)
    with pytest.raises(ValueError, match="1..3"):
        u_neighborhood_trap(dec, 4)


# ------------------------------------------------------------ slicing


def make_annulus_setting():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 128, 128)
    K = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.6, 1.2))], g,
                        kind=COMPACT)
    omega = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.3, 1.6))], g,
                            kind=DOMAIN)
    return g, K, omega


def test_slice_holeless_compact_is_returned_whole():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K = disk(g, 0.0, 0.0, 0.8)
    slices = slice_holomorphically_convex(K, full_domain(g), 5)
    assert len(slices) == 1
    assert slices[0].same_cells(K)


def test_slice_annulus_coverage_grows_like_one_minus_one_over_j():
    g, K, omega = make_annulus_setting()
    slices = slice_holomorphically_convex(K, omega, 6)
    assert len(slices) == 5
    last = 0.0
    for j, sl in zip(range(2, 7), slices):
        assert sl.subset_of(K)
        assert polynomial_hull(sl).same_cells(sl)
        cov = sl.count() / K.count()
        # each slice keeps the (1 - 1/j) sector of the ring, up to raster
        # rounding on the cut edges
        assert cov >= 1.0 - 1.0 / j - 0.005
        assert cov >= last
        last = cov


def test_each_hole_sector_cuts_only_its_own_ring():
    """Three rings, each around its own hole: a hole's sector reaches out to
    the components of K bordering that hole, so it cuts only its ring."""
    from sigmaconv.decompose import _hole_annuli
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 96, 96)
    centers = [complex(-0.9, 0.0), complex(0.9, 0.1), complex(0.0, -1.3)]
    rings = [rasterize_scene([(1, shapes.Annulus(c.real, c.imag, 0.25,
                                                 0.45))], g, kind=COMPACT)
             for c in centers]
    K = rings[0].union(rings[1]).union(rings[2])
    # a point of each hole lies outside omega, so no hole fills in
    omega = rasterize_scene([(1, shapes.Disk(0.0, 0.0, 3.0))] + [
        (-1, shapes.Disk(c.real, c.imag, 0.1)) for c in centers], g,
        kind=DOMAIN)
    j_max = 6
    slices = slice_holomorphically_convex(K, omega, j_max)
    annuli = _hole_annuli(K, pad=2.0 * g.pixel)
    assert len(annuli) == 3
    zs = g.centers()
    for j, sl in zip(range(2, j_max + 1), slices):
        assert polynomial_hull(sl).same_cells(sl)
        cut = np.zeros_like(K.bits)
        for a, r, R in annuli:
            own = min(range(3), key=lambda i: abs(centers[i] - a))
            assert R < 0.45 + 4 * g.pixel
            rel = zs - a
            sector = ((np.abs(rel) > r) & (np.abs(rel) < R)
                      & (np.mod(np.angle(rel), 2.0 * math.pi)
                         > (1.0 - 1.0 / j) * 2.0 * math.pi))
            assert not np.any(sector & K.bits & ~rings[own].bits), (j, own)
            assert np.any(sector & rings[own].bits)
            cut |= sector
        assert np.array_equal(sl.bits, K.bits & ~cut)


def test_slice_cut_under_a_pixel_is_an_error():
    """On a 96^2 raster the cut of a ring of outer radius 1 opens the ring
    for every j up to 150; at j = 183 it is under a pixel wide and leaves
    the ring closed."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 96, 96)
    K = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.6, 1.0))], g,
                        kind=COMPACT)
    omega = rasterize_scene([(1, shapes.Disk(0.0, 0.0, 3.0)),
                             (-1, shapes.Disk(0.0, 0.0, 0.3))], g,
                            kind=DOMAIN)
    assert omega.same_cells(RegionMask(g, np.abs(g.centers()) > 0.3, OPEN))
    assert len(slice_holomorphically_convex(K, omega, 150)) == 149
    with pytest.raises(ValueError, match="j=183 .* under a pixel"):
        slice_holomorphically_convex(K, omega, 200)


def test_slice_preconditions():
    g, K, omega = make_annulus_setting()
    with pytest.raises(ValueError, match="j_max"):
        slice_holomorphically_convex(K, omega, 1)
    with pytest.raises(ValueError, match="not holomorphically convex"):
        slice_holomorphically_convex(K, full_domain(g), 4)


# ------------------------------------------------------------ hole escape


def test_hole_escape_depth_one():
    g = Grid.from_box(-0.1, -0.1, 1.1, 1.1, 128, 128)
    records = hull_escape_exhibit(1, g)
    assert len(records) == 1
    rec = records[0]
    assert rec.level == 1
    assert rec.resolvable
    assert rec.escaped is True
    assert rec.side == pytest.approx(0.5)
    assert rec.interior_cells > 0


def test_hole_escape_depth_two_covers_all_holes():
    g = Grid.from_box(-0.1, -0.1, 1.1, 1.1, 256, 256)
    records = hull_escape_exhibit(2, g)
    assert len(records) == 4
    assert all(r.escaped is True for r in records)
    assert sorted(r.level for r in records) == [1, 2, 2, 2]


def test_hole_escape_marks_unresolvable_holes():
    g = Grid.from_box(-0.1, -0.1, 1.1, 1.1, 24, 24)  # pixel 0.05
    records = hull_escape_exhibit(3, g)
    small = [r for r in records if r.level == 3]  # side 0.125 = 2.5 px
    assert small and all(not r.resolvable and r.escaped is None
                         for r in small)
    big = [r for r in records if r.level == 1]
    assert big[0].resolvable


def test_hole_escape_rejects_depth_zero():
    g = Grid.from_box(-0.1, -0.1, 1.1, 1.1, 32, 32)
    with pytest.raises(ValueError, match="depth"):
        hull_escape_exhibit(0, g)


def test_triangle_mask_matches_primitive_rasterization():
    g = Grid.from_box(-0.1, -0.1, 1.1, 1.1, 64, 64)
    direct = sierpinski_mask(2, g)
    via_scene = rasterize_scene([(1, shapes.SierpinskiShape(2))], g,
                                kind=COMPACT)
    assert direct.same_cells(via_scene)


def test_triangle_mask_requires_covering_grid():
    g = Grid.from_box(0.0, 0.0, 0.9, 0.9, 64, 64)
    with pytest.raises(ValueError, match="cover"):
        sierpinski_mask(1, g)


# ------------------------------------------------------------ series routes


def test_sigma_series_wraps_stage_errors():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    dec = ascending_decomposition([disk(g, 0.0, 0.0, 0.5)], 3)
    with pytest.raises(ValueError, match="stage 1: degree_cap"):
        sigma_convex_series(dec, full_domain(g), degree_cap=0)


def test_sigma_series_refuses_compacts_outside_omega(tmp_path):
    """The convergence set lies in omega: a compact that leaves it is
    refused, and so is a reloaded decomposition, which keeps no compacts,
    whose E_{n_max} leaves it."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    omega = rasterize_scene([(1, shapes.Disk(0.0, 0.0, 1.0))], g,
                            kind=DOMAIN)
    K_list = [disk(g, -0.5, 0.0, 0.3), disk(g, 0.9, 0.0, 0.5)]
    with pytest.raises(ValueError, match="^K_2 is not contained in omega"):
        sigma_convex_series(ascending_decomposition(K_list, 4), omega,
                            degree_cap=8)
    export_decomposition(ascending_decomposition(K_list, 4), tmp_path / "dec")
    reloaded = load_decomposition(tmp_path / "dec")
    assert reloaded.K_list == []
    with pytest.raises(ValueError, match="^E_4 is not contained in omega"):
        sigma_convex_series(reloaded, omega, degree_cap=8)
    sigma_convex_series(ascending_decomposition(K_list[:1], 2), omega,
                        degree_cap=8)


def test_sigma_route_agrees_with_compact_route_on_one_disk():
    """One polynomially convex compact can be fed to either constructor;
    away from a 3-pixel boundary band the two verdict maps coincide."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 96, 96)
    K = disk(g, 0.0, 0.0, 0.7)
    f_compact = compact_set_series(K, stages=6, degree_cap=32)
    dec = ascending_decomposition([K], 6)
    f_sigma = sigma_convex_series(dec, full_domain(g), degree_cap=32)
    assert f_compact.max_supported_n == 46
    assert f_sigma.max_supported_n == 92
    B, M = math.log(1.2), math.log(1.8)
    m_c = conv_map(f_compact, g, N=f_compact.max_supported_n, B=B, M=M)
    m_s = conv_map(f_sigma, g, N=f_sigma.max_supported_n, B=B, M=M)
    d_in = distance_to(K)
    d_out = distance_to(RegionMask(g, ~K.bits, OPEN))
    clear = (d_in > 3 * g.pixel) | (d_out > 3 * g.pixel)
    assert np.array_equal(m_c.verdicts[clear], m_s.verdicts[clear])
    assert np.all(m_c.verdicts[K.bits] == Verdict.CONVERGE)
    assert np.all(m_s.verdicts[K.bits] == Verdict.CONVERGE)
