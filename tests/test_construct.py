"""Constructed series: countable-set products, interleaving, separating
families, powered block series, and the greedy dense enumeration."""

import math

import numpy as np
import pytest

from sigmaconv import (COMPACT, OPEN, Grid, PointSequence, SaturationError,
                       Verdict, block_series, classify_point,
                       compact_set_series, conv_map, countable_set_series,
                       dense_enumeration_for_targets, empty_mask,
                       enumeration_series, full_domain, gamma_sequence,
                       gamma_table, growth_exponent, interleave, leja_points,
                       neighborhood, polynomial_hull, rasterize_scene,
                       separating_family, shapes)
from sigmaconv.construct import (_separating_families,
                                 countable_series_from_tables)
from conftest import disk_growth_series, oracle_series


def P(points):
    return PointSequence.from_points(tuple(points))


# ------------------------------------------------------------ gamma


def test_gamma_hand_values():
    assert gamma_sequence(P([0, 1]), 1) == pytest.approx(0.5)
    assert gamma_sequence(P([0, 1, 1j]), 2) == pytest.approx(0.5)
    assert gamma_sequence(P([0, 3]), 1) == pytest.approx(1.0)  # 1/n cap


def test_gamma_needs_enough_points():
    with pytest.raises(ValueError, match="at least 3 points"):
        gamma_sequence(P([0, 1]), 2)


def test_duplicate_points_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        P([0, 1, 0])


def test_countable_series_rejects_repeated_points():
    # a PointSequence built directly skips from_points' duplicate check
    with pytest.raises(ValueError, match="pairwise distinct"):
        countable_set_series(PointSequence((0j, 1 + 0j, 0j)))


def test_gamma_table_matches_stepwise():
    pts = P([0, 1, 1j, 2 - 1j, -0.5 + 0.25j])
    gammas, _ = gamma_table(pts)
    for n in range(1, len(pts)):
        assert gammas[n - 1] == gamma_sequence(pts, n)


# ------------------------------------------------------------ countable


def test_countable_coefficient_hand_values():
    f3 = countable_set_series(P([0, 1, 1j]))
    assert float(f3.log_mag(2, 2.0 + 0.0j)) == pytest.approx(math.log(32))
    f2 = countable_set_series(P([0, 1]))
    assert float(f2.log_mag(1, 1.0 + 0.0j)) == pytest.approx(math.log(2))


def test_countable_root_coefficients_vanish_exactly():
    pts = [0.3 + 0.1j, -0.7 + 0.2j, 0.5 - 0.5j, 1.1 + 0.9j]
    f = countable_set_series(P(pts))
    for k, z in enumerate(pts, start=1):
        for n in range(k, f.max_supported_n + 1):
            assert float(f.log_mag(n, z)) == -math.inf
        if k > 1:
            assert float(f.log_mag(k - 1, z)) > -math.inf


def test_countable_divergence_exponents_off_the_set():
    # spec'd growth inequality: wherever z clears every point by gamma_n,
    # the order-n exponent is at least log n
    pts = [complex(x, y) for x in (-0.6, 0.0, 0.6) for y in (-0.6, 0.0, 0.6)]
    f = countable_set_series(P(pts))
    gammas = f.structure.gammas
    for z in (1.8 + 1.3j, -1.5 - 1.1j, 0.3 + 1.7j):
        delta = min(abs(z - w) for w in pts)
        prof = growth_exponent(f, z, N=f.max_supported_n)
        for n in range(1, f.max_supported_n + 1):
            if gammas[n - 1] <= delta:
                assert prof.exponents[n - 1] >= math.log(n) - 1e-9


def test_countable_rebuild_is_bit_identical():
    pts = [0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j, 0.8 + 0.8j, -1.0 - 1.0j]
    f = countable_set_series(P(pts))
    g = countable_series_from_tables(f.structure)
    zs = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32).centers()
    for n in range(f.max_supported_n + 1):
        assert np.array_equal(f.log_mag(n, zs), g.log_mag(n, zs))


def test_countable_needs_two_points():
    with pytest.raises(ValueError):
        countable_set_series(P([0.5]))


# ------------------------------------------------------------ interleave


def test_interleave_parity_rule():
    def const_series(base):
        def oracle(n, z):
            return np.full(np.shape(np.asarray(z)), n * math.log(base))
        return oracle_series(oracle, max_supported_n=40)

    f = const_series(2.0)
    g = const_series(3.0)
    F = interleave(f, g)
    z = 0.7 + 0.1j
    assert float(F.log_mag(0, z)) == float(f.log_mag(0, z))
    assert float(F.log_mag(1, z)) == float(g.log_mag(0, z))
    assert float(F.log_mag(2, z)) == float(f.log_mag(1, z))
    assert float(F.log_mag(3, z)) == float(g.log_mag(1, z))
    assert F.max_supported_n == 80


def test_interleave_with_itself_keeps_decided_verdicts():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    f = disk_growth_series(0.1 + 0.0j, 0.7, 32)
    F = interleave(f, f)
    B, M = math.log(1.1), math.log(1.6)
    base = conv_map(f, g, N=32, B=B, M=M)
    # doubled even indices halve every base exponent exactly, so the halved
    # budget reproduces the converge set bit for bit; odd entries run below
    # the scaled divergence threshold, so only base-undetermined cells can
    # pick up a new verdict
    lo, hi = (64 + 1) // 2, 64
    m_lo = min((n - 1) // 2 for n in range(lo, hi + 1) if n % 2 == 1)
    merged = conv_map(F, g, N=64, B=B / 2, M=(M * m_lo) / (2 * m_lo + 1))
    decided = base.verdicts != Verdict.UNDETERMINED
    assert np.array_equal(base.verdicts[decided], merged.verdicts[decided])
    assert np.array_equal(base.verdicts == Verdict.CONVERGE,
                          merged.verdicts == Verdict.CONVERGE)


def test_interleave_lens_is_cellwise_and():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    f = disk_growth_series(-0.45 + 0.0j, 0.8, 16)
    h = disk_growth_series(0.45 + 0.0j, 0.8, 16)
    F = interleave(f, h)
    B, M = math.log(1.05), math.log(1.5)
    mf = conv_map(f, g, N=16, B=B, M=M)
    mh = conv_map(h, g, N=16, B=B, M=M)
    lo, hi = (32 + 1) // 2, 32
    m_lo = min((n - 1) // 2 for n in range(lo, hi + 1) if n % 2 == 1)
    mF = conv_map(F, g, N=32, B=B / 2, M=(M * m_lo) / (2 * m_lo + 1))
    decided = (mf.verdicts != Verdict.UNDETERMINED) \
        & (mh.verdicts != Verdict.UNDETERMINED)
    both = (mf.verdicts == Verdict.CONVERGE) & (mh.verdicts == Verdict.CONVERGE)
    want = np.where(both, np.int8(Verdict.CONVERGE), np.int8(Verdict.DIVERGE))
    assert np.array_equal(mF.verdicts[decided], want[decided])
    assert int(both.sum()) > 0  # the lens is nonempty


# ------------------------------------------------------------ leja


def test_leja_segment_picks_endpoints():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    seg = rasterize_scene([(1, shapes.Segment(-1.0, 0.0, 1.0, 0.0))], g,
                          kind=COMPACT)
    pts = leja_points(seg, 2)
    xs = sorted(z.real for z in pts.points)
    assert xs[0] == pytest.approx(-1.0, abs=2 * g.pixel)
    assert xs[1] == pytest.approx(1.0, abs=2 * g.pixel)
    assert not pts.saturated


def test_leja_single_cell_saturates():
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 16, 16)
    one = rasterize_scene([(1, shapes.Points((0.2 + 0.2j,)))], g, kind=COMPACT)
    pts = leja_points(one, 5)
    assert len(pts) == 1
    assert pts.saturated


def test_leja_disk_points_sit_on_the_boundary():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    disk = rasterize_scene([(1, shapes.Disk(0.0, 0.0, 1.0))], g, kind=COMPACT)
    pts = leja_points(disk, 3)
    for z in pts.points:
        assert abs(z) >= 0.9
    gaps = [abs(a - b) for i, a in enumerate(pts.points)
            for b in pts.points[i + 1:]]
    assert min(gaps) >= 1.0  # pairwise separation at least the radius


def test_leja_rejects_empty_set():
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 16, 16)
    from sigmaconv import empty_mask
    with pytest.raises(ValueError):
        leja_points(empty_mask(g), 1)


# ------------------------------------------------------------ families


def build_disk_ring(m=4, cap=16):
    g = Grid.from_box(-3.0, -3.0, 3.0, 3.0, 128, 128)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 1.0))], g,
                                        kind=COMPACT))
    U = neighborhood(K, 0.25)
    ring = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 1.9, 2.1))], g,
                           kind=COMPACT)
    return g, K, U, ring, separating_family(K, U, ring, m=m, degree_cap=cap)


def test_family_disk_to_ring():
    g, K, U, ring, fam = build_disk_ring()
    assert [p.degree for p in fam.members] == [3, 4]
    assert fam.uncovered.is_empty()
    assert fam.verify()


def test_family_bounds_are_cell_exact():
    g, K, U, ring, fam = build_disk_ring()
    zk = K.cell_centers()
    zt = ring.cell_centers()
    log_m = math.log(fam.m)
    best = np.full(zt.shape, -np.inf)
    for p in fam.members:
        assert float(np.max(p.log_abs(zk))) <= 0.0
        np.maximum(best, p.log_abs(zt), out=best)
    assert np.all(best >= log_m)


def test_family_single_cell_degenerate_rule():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    a = g.cell_center(*g.index_of(0.03 + 0.03j))
    K = rasterize_scene([(1, shapes.Points((a,)))], g, kind=COMPACT)
    T = rasterize_scene([(1, shapes.Points((a + 1.0,)))], g, kind=COMPACT)
    fam = separating_family(K, neighborhood(K, 0.1), T, m=10, degree_cap=8)
    assert len(fam.members) == 1
    p = fam.members[0]
    assert p.roots == (a,)
    assert "single-cell" in fam.note
    value = math.exp(p.log_abs(complex(T.cell_centers()[0])))
    assert value == pytest.approx(10.0, rel=1e-9)
    assert fam.uncovered.is_empty()
    assert fam.verify()


def test_family_two_disks_cover_surrounding_ring():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 128, 128)
    K = polynomial_hull(
        rasterize_scene([(1, shapes.Disk(-1.0, 0.0, 0.4)),
                         (1, shapes.Disk(1.0, 0.0, 0.4))], g, kind=COMPACT))
    U = neighborhood(K, 0.3)
    ring = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 3.0, 3.4))], g,
                           kind=COMPACT)
    fam = separating_family(K, U, ring, m=2, degree_cap=64)
    assert fam.uncovered.is_empty()
    assert sum(p.degree for p in fam.members) <= 64
    assert fam.verify()


def test_family_empty_target():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.5))], g,
                                        kind=COMPACT))
    from sigmaconv import empty_mask
    fam = separating_family(K, neighborhood(K, 0.2), empty_mask(g), m=3,
                            degree_cap=8)
    assert fam.members == []
    assert fam.note == "empty target"
    assert fam.verify()


def test_family_preconditions():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    ann = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.5, 0.9))], g,
                          kind=COMPACT)
    disk = polynomial_hull(ann)
    ring = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 1.5, 1.8))], g,
                           kind=COMPACT)
    with pytest.raises(ValueError, match="polynomially convex"):
        separating_family(ann, neighborhood(ann, 0.2), ring, 2, 8)
    with pytest.raises(ValueError, match="contained"):
        separating_family(disk, rasterize_scene(
            [(1, shapes.Disk(1.0, 1.0, 0.2))], g, kind=COMPACT), ring, 2, 8)
    with pytest.raises(ValueError, match="disjoint"):
        separating_family(disk, neighborhood(disk, 0.2),
                          neighborhood(disk, 0.1), 2, 8)


def assert_same_family(got, alone):
    assert [p.roots for p in got.members] == [p.roots for p in alone.members]
    assert [p.log_scale for p in got.members] == \
        [p.log_scale for p in alone.members]
    assert np.array_equal(got.uncovered.bits, alone.uncovered.bits)
    assert got.note == alone.note and got.m == alone.m


def lockstep_matches_one_by_one(K, stages, cap):
    group = _separating_families(K, stages, cap)
    assert len(group) == len(stages)
    for got, (_, U, target, m) in zip(group, stages):
        assert_same_family(got, separating_family(K, U, target, m, cap))
    return group


def test_lockstep_families_equal_their_stages_alone():
    g = Grid.from_box(-3.0, -3.0, 3.0, 3.0, 64, 64)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 1.0))], g,
                                        kind=COMPACT))
    U = neighborhood(K, 0.25)

    def region(*shape_list):
        return rasterize_scene([(1, s) for s in shape_list], g, kind=COMPACT)

    ring = region(shapes.Annulus(0.0, 0.0, 1.9, 2.1))
    # targets that are not nested: a ring, a disk partly inside it and a
    # disk on the far side, plus an empty target in the middle of the group
    stages = [("a: ", U, ring, 2),
              ("b: ", U, region(shapes.Disk(2.0, 0.0, 0.5)), 40),
              ("c: ", U, empty_mask(g), 3),
              ("d: ", U, region(shapes.Disk(-2.2, 1.0, 0.4)), 7)]
    group = lockstep_matches_one_by_one(K, stages, 24)
    degrees = [max((p.degree for p in f.members), default=0) for f in group]
    # stage a covers its ring early and stops while b runs on
    assert group[0].uncovered.is_empty() and degrees[0] < degrees[1]
    assert group[2].note == "empty target" and group[2].members == []


def test_lockstep_families_on_a_single_cell_K():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    a = g.cell_center(*g.index_of(0.03 + 0.03j))
    K = rasterize_scene([(1, shapes.Points((a,)))], g, kind=COMPACT)
    U = neighborhood(K, 0.1)
    far = rasterize_scene([(1, shapes.Disk(1.0, 0.5, 0.3))], g, kind=COMPACT)
    near = rasterize_scene([(1, shapes.Disk(-0.6, 0.0, 0.2))], g,
                           kind=COMPACT)
    group = lockstep_matches_one_by_one(
        K, [("", U, far, 3), ("", U, empty_mask(g), 4), ("", U, near, 10)], 8)
    assert "single-cell" in group[0].note and "single-cell" in group[2].note


def test_lockstep_families_name_the_failing_stage():
    g, K, U, ring, _ = build_disk_ring()
    bad_U = neighborhood(K, 0.25).intersect(
        rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.5))], g, kind=COMPACT),
        kind=OPEN)
    with pytest.raises(ValueError, match="^stage 5: K must be contained"):
        _separating_families(K, [("stage 4: ", U, ring, 4),
                                 ("stage 5: ", bad_U, ring, 5)], 16)


# ------------------------------------------------------------ block series


def test_block_series_powers_members():
    from sigmaconv import RootPolynomial
    h1 = RootPolynomial((0.0 + 0.0j,), 0.0)
    h2 = RootPolynomial((1.0 + 0.0j,), 0.0)
    f = block_series([h1, h2], [1, 1], -math.inf, "two members")
    z = 3.0 + 0.0j
    assert float(f.log_mag(0, z)) == -math.inf
    assert float(f.log_mag(1, z)) == pytest.approx(math.log(3.0))
    assert float(f.log_mag(2, z)) == pytest.approx(2 * math.log(2.0))
    assert f.max_supported_n == 2


def test_block_index_bijection():
    from sigmaconv import RootPolynomial
    members = [RootPolynomial((0j,), 0.0)] * 10
    f = block_series(members, [2, 5, 3], 0.0, "blocks")
    st = f.structure
    rng = np.random.default_rng(3)
    for ell in rng.integers(1, 11, size=20):
        k, j = st.block_of(int(ell))
        assert st.index_of(k, j) == ell
    assert st.block_of(1) == (1, 1)
    assert st.block_of(2) == (1, 2)
    assert st.block_of(3) == (2, 1)
    assert st.block_of(10) == (3, 3)
    with pytest.raises(ValueError):
        st.block_of(11)


def test_block_sizes_must_sum():
    from sigmaconv import RootPolynomial
    with pytest.raises(ValueError):
        block_series([RootPolynomial((0j,), 0.0)], [2], 0.0, "bad")


# ------------------------------------------------------------ compact series


def test_compact_series_converges_on_K_diverges_off():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 96, 96)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.7))], g,
                                        kind=COMPACT))
    f = compact_set_series(K, stages=6, degree_cap=32)
    zk = K.cell_centers()
    for n in range(1, f.max_supported_n + 1):
        assert float(np.max(f.log_mag(n, zk))) <= 0.0
    cmap = conv_map(f, g, N=f.max_supported_n, B=math.log(1.2),
                    M=math.log(1.8))
    assert np.all(cmap.verdicts[K.bits] == Verdict.CONVERGE)
    far = np.abs(g.centers()) >= 1.7  # distance >= 1 from K
    assert float((cmap.verdicts[far] == Verdict.DIVERGE).mean()) >= 0.99


def test_compact_series_single_stage_cannot_classify():
    # the m=1 shell {dist >= 1, |z| <= 1} is empty for any K containing 0,
    # so one stage yields no members: too few coefficients for any verdict
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 96, 96)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.7))], g,
                                        kind=COMPACT))
    f = compact_set_series(K, stages=1, degree_cap=16)
    assert f.max_supported_n == 0
    with pytest.raises(ValueError):
        conv_map(f, g, N=8, B=0.0, M=1.0)


def test_compact_series_requires_hull_fixed_K():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    ann = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.5, 0.9))], g,
                          kind=COMPACT)
    with pytest.raises(ValueError, match="polynomially convex"):
        compact_set_series(ann, stages=2, degree_cap=8)


# ------------------------------------------------------------ enumeration


def anchor_pair():
    return P([0.0 + 0.0j, 1.0 + 0.0j])


def cluster_sample(depth, per_ring=3, fillers=30):
    pts = []
    for a in (0.0, 1.0):
        for jj in range(1, depth + 1):
            r = 0.5 ** jj
            for t in range(per_ring):
                ang = (0.3, 2.1, 4.0)[t]
                pts.append(a + r * complex(math.cos(ang), math.sin(ang)))
    for t in range(fillers):
        pts.append(complex(0.15 + 0.7 * (t / (fillers - 1)), 0.2))
    return P(pts)


def test_enumeration_slot_bound_hand_value():
    # k=2, d=1, C_n = 2^n: the level-0 slot for the second anchor needs
    # |z - a_1| < 1 / (2! * 2^3) = 1/16
    enum = dense_enumeration_for_targets(cluster_sample(40),
                                         lambda n: 2.0 ** n, anchor_pair())
    rec = next(s for s in enum.steps if s.index == 1)
    assert rec.level == 0 and rec.slot == 1
    assert rec.required_log_radius == pytest.approx(-4 * math.log(2),
                                                    abs=1e-12)
    assert rec.attained_log_distance < rec.required_log_radius
    assert enum.achieved_level == 6
    assert len(enum.sequence) == 6 * 3 + 2  # complete levels only


def test_enumeration_sweep_takes_earliest_unused():
    enum = dense_enumeration_for_targets(cluster_sample(40),
                                         lambda n: 2.0 ** n, anchor_pair())
    sweeps = [s for s in enum.steps if s.slot == 0]
    assert sweeps, "levels past 0 must include sweep slots"
    indices = [s.source_index for s in sweeps]
    assert indices == sorted(indices)


def test_enumeration_saturation_names_the_slot():
    with pytest.raises(SaturationError) as exc:
        dense_enumeration_for_targets(cluster_sample(40), lambda n: 2.0 ** n,
                                      anchor_pair(), level_target=11)
    assert exc.value.level == 7
    assert exc.value.slot == 1
    assert "achieved level 6" in str(exc.value)


def test_enumeration_rejects_degenerate_anchors():
    S = cluster_sample(10)
    with pytest.raises(ValueError):
        dense_enumeration_for_targets(S, lambda n: 1.0, P([0.5]))
    with pytest.raises(ValueError):
        dense_enumeration_for_targets(S, lambda n: -1.0, anchor_pair())


def test_enumeration_series_converges_at_both_anchors():
    """Shrinking scales leave room for deep levels; the rebuilt series then
    certifies convergence at both anchors within the (2d)^n envelope."""
    S = cluster_sample(60, fillers=40)
    enum = dense_enumeration_for_targets(S, lambda n: 0.5 ** n, anchor_pair())
    assert enum.achieved_level * 3 + 2 >= 64
    F = enumeration_series(enum.sequence, lambda n: 0.5 ** n)
    d = 1.0
    B = math.log(4 * d)
    for z in (0.0 + 0.0j, 1.0 + 0.0j):
        assert classify_point(F, z, N=64, B=B, M=B + 1.0) == Verdict.CONVERGE


def test_enumeration_series_validates_scales():
    pts = P([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="positive"):
        enumeration_series(pts, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="scale values"):
        enumeration_series(pts, [1.0, 1.0])
    # a scale that overflows to inf would store log C_n = inf, which the
    # series loader rejects, so the constructor refuses it up front
    with pytest.raises(ValueError, match="C_2 must be positive and finite"):
        enumeration_series(pts, [1.0, 1e200, 1e200 * 1e200, 1.0])
