"""Ascending decompositions, neighborhood traps, annular slicing, and the
hole-escape exhibit."""

import math

import numpy as np
import pytest

from sigmaconv import (COMPACT, DOMAIN, OPEN, Grid, RegionMask, Verdict,
                       ascending_decomposition, check_finite_components,
                       compact_set_series, conv_map, distance_to, empty_mask,
                       full_domain, hull_escape_exhibit, neighborhood,
                       polynomial_hull, rasterize_scene, set_distance, shapes,
                       sierpinski_mask, sigma_convex_series,
                       slice_holomorphically_convex, u_neighborhood_trap)

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
    for n in range(1, 6):
        assert dec.pieces(n) == [dec.L[(n, 1)]]
        assert dec.L[(n, 1)].same_cells(K)
        assert dec.F[(n, 1)].same_cells(K)
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
    assert dec.pieces(1) == [dec.L[(1, 1)]]  # stage n only uses j <= n
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
        assert dec.F[(n, 2)].same_cells(K2)
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
    L, F, E_list, U_list, status = {}, {}, [], [], []
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
            L[(n, j)], F[(n, j)] = piece, polynomial_hull(piece)
            E = E.union(F[(n, j)])
        E_list.append(E)
        U_list.append(neighborhood(E, 1.0 / (3.0 * n)))
        live = [p for p in pieces if not p.is_empty()]
        separated = all(set_distance(p, q) > 2.0 * g.pixel
                        for i, p in enumerate(live) for q in live[i + 1:])
        status.append(VERIFIED if separated else SKIPPED)
    return L, F, E_list, U_list, status


def _stage_scene(name):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    if name == "apart-odd-pixel":  # a pixel that is not a power of two
        g = Grid.from_box(-2.2, -2.2, 2.2, 2.2, 32, 32)
    if name.startswith("apart"):
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


@pytest.mark.parametrize("name", ["apart", "apart-odd-pixel", "nested",
                                  "empty-middle"])
def test_stage_tables_match_the_definitions(name):
    K_list = _stage_scene(name)
    n_max = 9
    dec = ascending_decomposition(K_list, n_max)
    L, F, E_list, U_list, status = _reference_stages(K_list, n_max)
    assert dec.L.keys() == L.keys() and dec.F.keys() == F.keys()
    for key in L:
        assert dec.L[key].same_cells(L[key]), key
        assert dec.F[key].same_cells(F[key]), key
    for n in range(n_max):
        assert dec.E_list[n].same_cells(E_list[n]), n + 1
        assert dec.U_list[n].same_cells(U_list[n]), n + 1
    assert dec.hull_identity == status
    if name.startswith("apart"):
        assert VERIFIED in status and SKIPPED in status


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


# ------------------------------------------------------------ components


def make_annulus_setting():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 128, 128)
    K = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.6, 1.2))], g,
                        kind=COMPACT)
    omega = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.3, 1.6))], g,
                            kind=DOMAIN)
    return g, K, omega


def test_components_hole_meeting_domain_complement_is_harmless():
    g, K, omega = make_annulus_setting()
    rep = check_finite_components(K, omega)
    assert rep.component_count == 2
    assert rep.bounded_count == 1
    assert rep.bounded_in_omega == ()
    assert rep.holomorphically_convex


def test_components_hole_inside_full_domain_blocks_convexity():
    g, K, _ = make_annulus_setting()
    rep = check_finite_components(K, full_domain(g))
    assert rep.bounded_count == 1
    assert len(rep.bounded_in_omega) == 1
    assert not rep.holomorphically_convex


def test_components_of_solid_disk():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    rep = check_finite_components(disk(g, 0.0, 0.0, 0.8), full_domain(g))
    assert rep.component_count == 1
    assert rep.bounded_count == 0
    assert rep.holomorphically_convex


def test_components_requires_containment():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    omega = rasterize_scene([(1, shapes.Disk(-1.0, 0.0, 0.4))], g, kind=DOMAIN)
    with pytest.raises(ValueError, match="contained in omega"):
        check_finite_components(disk(g, 0.5, 0.0, 0.3), omega)


# ------------------------------------------------------------ slicing


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


def test_sigma_route_agrees_with_compact_route_on_one_disk():
    """One polynomially convex compact can be fed to either constructor;
    away from a 3-pixel boundary band the two verdict maps coincide."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 96, 96)
    K = disk(g, 0.0, 0.0, 0.7)
    f_compact = compact_set_series(K, g, stages=6, degree_cap=32)
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
