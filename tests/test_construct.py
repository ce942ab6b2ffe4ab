"""Constructed series: countable-set products, interleaving, separating
families, powered block series, and the greedy dense enumeration."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from sigmaconv import (COMPACT, OPEN, Grid, PointSequence, RegionMask,
                       RootPolynomial, Verdict, block_series,
                       compact_set_series, conv_map, countable_set_series,
                       distance_to, empty_mask, full_domain, gamma_table,
                       interleave, leja_points,
                       neighborhood, polynomial_hull, rasterize_scene,
                       set_distance, shapes)
from sigmaconv.construct import (SeparatingFamily, _offset_logs,
                                 _RootLogRow, _separating_families,
                                 _sum_threshold, countable_series_from_tables)
from conftest import (_log_abs, cell_center, disk_growth_series,
                      gamma_sequence, oracle_series, reference_log_mag,
                      separating_family, verify_family)


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
    assert float(reference_log_mag(f3, 2, 2.0 + 0.0j)) == pytest.approx(
        math.log(32))
    f2 = countable_set_series(P([0, 1]))
    assert float(reference_log_mag(f2, 1, 1.0 + 0.0j)) == pytest.approx(
        math.log(2))


def test_countable_root_coefficients_vanish_exactly():
    pts = [0.3 + 0.1j, -0.7 + 0.2j, 0.5 - 0.5j, 1.1 + 0.9j]
    f = countable_set_series(P(pts))
    for k, z in enumerate(pts, start=1):
        for n in range(k, f.max_supported_n + 1):
            assert float(reference_log_mag(f, n, z)) == -math.inf
        if k > 1:
            assert float(reference_log_mag(f, k - 1, z)) > -math.inf


def test_countable_divergence_exponents_off_the_set():
    # spec'd growth inequality: wherever z clears every point by gamma_n,
    # the order-n exponent is at least log n
    pts = [complex(x, y) for x in (-0.6, 0.0, 0.6) for y in (-0.6, 0.0, 0.6)]
    f = countable_set_series(P(pts))
    gammas = f.structure.gammas
    for z in (1.8 + 1.3j, -1.5 - 1.1j, 0.3 + 1.7j):
        delta = min(abs(z - w) for w in pts)
        for n in range(1, f.max_supported_n + 1):
            if gammas[n - 1] <= delta:
                assert f.structure.tail_sup(z, n, n) >= math.log(n) - 1e-9


def test_countable_rebuild_is_bit_identical():
    pts = [0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j, 0.8 + 0.8j, -1.0 - 1.0j]
    f = countable_set_series(P(pts))
    g = countable_series_from_tables(f.structure)
    zs = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32).centers()
    for n in range(f.max_supported_n + 1):
        assert np.array_equal(reference_log_mag(f, n, zs),
                              reference_log_mag(g, n, zs))


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
    assert F.structure.f0_log_mag == f.structure.f0_log_mag
    for n, child in ((1, g), (2, f), (3, g), (4, f)):
        assert float(F.structure.tail_sup(z, n, n)) == float(
            reference_log_mag(child, n // 2, z) / n)
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
    assert len(pts) == 2  # not saturated: it reaches count


def test_leja_single_cell_saturates():
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 16, 16)
    one = rasterize_scene([(1, shapes.Points((0.2 + 0.2j,)))], g, kind=COMPACT)
    pts = leja_points(one, 5)
    assert len(pts) == 1
    assert len(pts) < 5  # saturated


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


THREE_POINTS = shapes.Points((-0.5 + 0j, 0.5 + 0j, 0.5j))


@pytest.mark.parametrize("shape,count,saturated", [
    (shapes.Disk(0.3, 0.0, 1.0), 12, False),
    (shapes.Segment(-1.0, 0.5, 1.0, -0.5), 9, False),
    (THREE_POINTS, 16, True),
    (THREE_POINTS, 3, False),  # exactly count cells: exhausted, not saturated
])
def test_leja_log_sups_are_the_prefix_sups(shape, count, saturated):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    K = rasterize_scene([(1, shape)], g, kind=COMPACT)
    leja = leja_points(K, count)
    assert (len(leja) < count) is saturated
    assert len(leja.log_sups) == len(leja) == min(count, K.count())
    zs = K.cell_centers()
    for d in range(1, len(leja) + 1):
        sup = float(np.max(RootPolynomial(leja.points[:d], 0.0).log_abs(zs)))
        assert leja.log_sups[d - 1] == sup, d
    # the last entry is -inf exactly when every K cell is a chosen point
    assert (leja.log_sups[-1] == -math.inf) is (len(leja) == K.count())


def reference_leja(K, count):
    """leja_points by its definition, each log distance taken directly
    from the cell centres: accum += log|zs - zs[nxt]|."""
    zs, cells = K.cell_centers(), np.flatnonzero(K.bits)
    accum = np.zeros(zs.shape)
    nxt, chosen, log_sups = int(np.argmax(np.abs(zs))), [], []
    while True:
        chosen.append(nxt)
        accum += _log_abs(zs - zs[nxt])
        nxt = int(np.argmax(accum))
        log_sups.append(float(accum[nxt]))
        if len(chosen) == count or log_sups[-1] == -math.inf:
            break
    return PointSequence(tuple(complex(zs[k]) for k in chosen),
                         log_sups=tuple(log_sups),
                         cells=tuple(int(cells[k]) for k in chosen))


# a grid whose root logs are gathered from the offset table (64) and one
# whose rows subtract the root from the centres (48), on box -2..2
ROW_GRIDS = [48, 64]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("n", ROW_GRIDS)
@pytest.mark.parametrize("shape,count", [
    (shapes.Disk(0.3, 0.0, 1.0), 40),
    (shapes.Segment(-1.0, 0.5, 1.0, -0.5), 12),
    (THREE_POINTS, 16),
    (shapes.Disk(-0.5, 0.4, 0.3), 200),  # every K cell becomes a point
])
def test_leja_points_match_the_reference(n, shape, count):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, n, n)
    assert (_offset_logs(g) is None) is (n == 48)
    K = rasterize_scene([(1, shape)], g, kind=COMPACT)
    got, want = leja_points(K, count), reference_leja(K, count)
    assert got == want
    assert same_bits(got.log_sups, want.log_sups)
    assert (len(got) < count) is (count > K.count())
    assert np.array_equal(g.centers().ravel()[list(got.cells)], got.points)


# ------------------------------------------------------------ root-log rows


@pytest.mark.parametrize("box,n,table", [
    *[((-2.0, -2.0, 2.0, 2.0), n, True) for n in (16, 32, 64, 128, 256)],
    ((-2.0, -2.0, 2.0, 2.0), 48, False),
    ((-2.0, -2.0, 2.0, 2.0), 96, False),
    ((-1.3, -0.7, 1.7, 2.3), 64, False),
])
def test_root_log_rows_gather_from_the_offset_table_on_exact_grids(box, n,
                                                                   table):
    g = Grid.from_box(*box, n, n)
    row = _RootLogRow(g, np.arange(n * n))
    assert (row.table is not None) is table
    if table:
        assert row.table.nbytes == 8 * (2 * n - 1) ** 2
    for root in (0, n * n - 1, n * (n // 2) + 3):
        assert same_bits(row(root), _log_abs(g.centers().ravel()
                                             - g.centers().flat[root]))


COORDS = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.75]),
                   st.floats(-3.0, 3.0))
PIXELS = st.one_of(st.sampled_from([2.0 ** -k for k in range(-1, 8)]),
                   st.floats(1e-3, 2.0))


@settings(max_examples=200, deadline=None)
@given(x0=COORDS, y0=COORDS, pixel=PIXELS, w=st.integers(2, 12),
       h=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
@example(x0=-2.0, y0=-2.0, pixel=0.5, w=2, h=2, seed=0)
@example(x0=-1.3, y0=-0.7, pixel=0.1, w=7, h=3, seed=1)
def test_root_log_row_is_bit_identical_to_the_direct_row(x0, y0, pixel, w,
                                                         h, seed):
    g = Grid(complex(x0, y0), pixel, w, h)
    centres, rng = g.centers().ravel(), np.random.default_rng(seed)
    # the four corners give the offsets +-(W - 1) and +-(H - 1); each root
    # is also a row cell, where the log is -inf
    corners = [0, w - 1, (h - 1) * w, h * w - 1]
    roots = [*corners, int(rng.integers(w * h))]
    cells = np.union1d(np.flatnonzero(rng.random(w * h) < 0.5), roots)
    row = _RootLogRow(g, cells)
    for _ in range(2):
        for root in roots:
            got = row(root)
            assert same_bits(got, _log_abs(centres[cells] - centres[root]))
            assert (got[cells == root] == -math.inf).all()
        keep = rng.random(cells.size) < 0.5
        row = row[keep]
        cells = cells[keep]
        assert np.array_equal(row.cells, cells)


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
    assert verify_family(fam, K, ring, 4)


def test_family_verify_rejects_a_broken_family():
    # verify evaluates both bounds afresh, so it sees a member above 1 on K
    # and an uncovered mask that disagrees with what the members reach
    g, K, U, ring, fam = build_disk_ring()
    first, *rest = fam.members
    raised = RootPolynomial(first.roots, first.log_scale + 0.01)
    assert not verify_family(dataclasses.replace(
        fam, members=[raised, *rest]), K, ring, 4)
    bits = fam.uncovered.bits.copy()
    j, i = np.argwhere(ring.bits)[0]
    bits[j, i] = True
    flipped = RegionMask(g, bits, fam.uncovered.kind)
    assert not verify_family(dataclasses.replace(fam, uncovered=flipped),
                             K, ring, 4)


def test_family_bounds_are_cell_exact():
    g, K, U, ring, fam = build_disk_ring()
    zk = K.cell_centers()
    zt = ring.cell_centers()
    log_m = math.log(4)
    best = np.full(zt.shape, -np.inf)
    for p in fam.members:
        assert float(np.max(p.log_abs(zk))) <= 0.0
        np.maximum(best, p.log_abs(zt), out=best)
    assert np.all(best >= log_m)


def test_family_single_cell_degenerate_rule():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    a = cell_center(g, *g.index_of(0.03 + 0.03j))
    K = rasterize_scene([(1, shapes.Points((a,)))], g, kind=COMPACT)
    T = rasterize_scene([(1, shapes.Points((a + 1.0,)))], g, kind=COMPACT)
    fam = separating_family(K, neighborhood(K, 0.1), T, m=10, degree_cap=8)
    assert len(fam.members) == 1
    p = fam.members[0]
    assert p.roots == (a,) and single_cell_member(fam, K)
    value = math.exp(p.log_abs(complex(T.cell_centers()[0])))
    assert value == pytest.approx(10.0, rel=1e-9)
    assert fam.uncovered.is_empty()
    assert verify_family(fam, K, T, 10)


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
    assert verify_family(fam, K, ring, 2)


def test_family_empty_target():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.5))], g,
                                        kind=COMPACT))
    from sigmaconv import empty_mask
    fam = separating_family(K, neighborhood(K, 0.2), empty_mask(g), m=3,
                            degree_cap=8)
    assert fam.members == []
    assert verify_family(fam, K, empty_mask(g), 3)


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


def single_cell_member(family, K):
    """Whether the family is one degree-1 member whose root is K's one
    cell, as a one-cell K gets."""
    return [p.roots for p in family.members] == [
        (complex(K.cell_centers()[0]),)]


def assert_members_on_sequence(sequence, group):
    """Every member is the group sequence's prefix of its degree, and the
    sequence ends at the highest member degree."""
    degrees = [p.degree for family in group for p in family.members]
    assert len(sequence) == max(degrees, default=0)
    for family in group:
        for p in family.members:
            assert p.roots == sequence[:p.degree]


def chain(K, stages):
    """The (label, E, U, target, m) stages of (label, U, target, m) stages
    over one E = K."""
    return [(label, K, U, target, m) for label, U, target, m in stages]


def lockstep_matches_one_by_one(K, stages, cap):
    sequence, group = _separating_families(chain(K, stages), cap)
    assert len(group) == len(stages)
    assert_members_on_sequence(sequence, group)
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
    assert group[2].members == [] and group[2].uncovered.is_empty()


def test_lockstep_families_on_a_single_cell_K():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    a = cell_center(g, *g.index_of(0.03 + 0.03j))
    K = rasterize_scene([(1, shapes.Points((a,)))], g, kind=COMPACT)
    U = neighborhood(K, 0.1)
    far = rasterize_scene([(1, shapes.Disk(1.0, 0.5, 0.3))], g, kind=COMPACT)
    near = rasterize_scene([(1, shapes.Disk(-0.6, 0.0, 0.2))], g,
                           kind=COMPACT)
    group = lockstep_matches_one_by_one(
        K, [("", U, far, 3), ("", U, empty_mask(g), 4), ("", U, near, 10)], 8)
    assert single_cell_member(group[0], K) and single_cell_member(group[2], K)


def reference_family(K, target, m, cap):
    """One stage's family by its definition, apart from any lockstep group.

    Degree d normalizes the Leja polynomial on leja[:d] by its max over K
    and joins when it reaches log m on a target cell no earlier member
    reached.  Returns (family, unreached), where unreached holds the target
    cells still unreached after each degree tried, as grid masks.
    """
    def family(members):
        return SeparatingFamily(members, RegionMask(K.grid, uncovered, OPEN))

    uncovered = np.zeros_like(target.bits)
    if target.is_empty():
        return family([]), []
    zs_k, zs_t = K.cell_centers(), target.cell_centers()
    if K.count() == 1:
        a = complex(zs_k[0])
        rho = (set_distance(K, target) / m) * (1.0 - 1e-12)
        members = [RootPolynomial((a,), -math.log(rho))]
        uncovered[target.bits] = ~(members[0].log_abs(zs_t) >= math.log(m))
        return family(members), []
    leja = leja_points(K, cap).points
    members, covered, unreached = [], np.zeros(zs_t.shape, dtype=bool), []
    for d in range(1, len(leja) + 1):
        norm = float(np.max(RootPolynomial(leja[:d], 0.0).log_abs(zs_k)))
        if norm == -math.inf:
            break
        p = RootPolynomial(leja[:d], -norm)
        reaches = p.log_abs(zs_t) >= math.log(m)
        if (reaches & ~covered).any():
            members.append(p)
            covered |= reaches
        uncovered[target.bits] = ~covered
        unreached.append(uncovered.copy())
        if covered.all():
            break
    return family(members), unreached


def target_box(stages):
    """The rows and columns of the bounding box of the stages' targets, as
    the slices a _RootLogRow.box read takes, or None if every target is
    empty."""
    bits = np.logical_or.reduce([t.bits for _, _, t, _ in stages])
    rows, cols = np.flatnonzero(bits.any(axis=1)), np.flatnonzero(
        bits.any(axis=0))
    return None if rows.size == 0 else (slice(rows[0], rows[-1] + 1),
                                        slice(cols[0], cols[-1] + 1))


def matches_reference(K, stages, cap):
    """The lockstep families equal reference_family stage by stage, and
    each degree the group tries reads one rectangle: the bounding box of
    its multi-cell stages' targets; returns the group."""
    boxes, box = [], _RootLogRow.box

    def spy(self, root, rows, cols):
        boxes.append((rows, cols))
        return box(self, root, rows, cols)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_RootLogRow, "box", spy)
        sequence, group = _separating_families(chain(K, stages), cap)
    assert len(group) == len(stages)
    assert_members_on_sequence(sequence, group)
    tried = 0
    for got, (_, _, target, m) in zip(group, stages):
        reference, unreached = reference_family(K, target, m, cap)
        assert_same_family(got, reference)
        tried = max(tried, len(unreached))
    # a one-cell K tries no degree, so only multi-cell stages read a box
    assert boxes == [target_box(stages)] * tried
    return group


def shell_stages(K, ms):
    """compact_set_series' stages: the cells farther than 1/m from K with
    |z| <= m, at level m."""
    dist, abs_z = distance_to(K), np.abs(K.grid.centers())
    return [("", RegionMask(K.grid, dist <= 1.0 / m, OPEN),
             RegionMask(K.grid, (dist > 1.0 / m) & (abs_z <= m), OPEN), m)
            for m in ms]


@pytest.mark.parametrize("n", ROW_GRIDS)
def test_families_match_reference_on_nested_shells(n):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, n, n)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.2, -0.1, 0.6))],
                                        g, kind=COMPACT))
    group = matches_reference(K, shell_stages(K, range(1, 6)), 24)
    assert group[0].uncovered.is_empty()


@pytest.mark.parametrize("n", ROW_GRIDS)
def test_families_match_reference_when_stages_run_to_the_cap(n):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, n, n)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.5))],
                                        g, kind=COMPACT))
    stages = shell_stages(K, [2, 6, 9, 12])
    group = matches_reference(K, stages, 8)
    # the last stages stop at the cap with part of their target unreached,
    # so their uncovered cells come from the box's still-needed cells
    for family, (_, _, target, _) in zip(group[1:], stages[1:]):
        assert 0 < family.uncovered.count() < target.count()


@pytest.mark.parametrize("n", ROW_GRIDS)
def test_families_match_reference_when_leja_saturates(n):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, n, n)
    K = rasterize_scene([(1, shapes.Points((-0.5 + 0j, 0.5 + 0j, 0.5j)))], g,
                        kind=COMPACT)
    assert K.count() == 3 and len(leja_points(K, 16)) < 16  # saturated
    U = neighborhood(K, 0.2)
    far = rasterize_scene([(1, shapes.Disk(1.4, 1.4, 0.3))], g, kind=COMPACT)
    ring = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 1.2, 1.5))], g,
                           kind=COMPACT)
    group = matches_reference(K, [("", U, far, 2), ("", U, ring, 50)], 16)
    # degree 3 makes every K cell a root, so no member has degree 3 or more
    assert all(p.degree < 3 for f in group for p in f.members)
    assert not group[1].uncovered.is_empty()


@pytest.mark.parametrize("n", ROW_GRIDS)
def test_families_match_reference_on_empty_targets_and_one_cell_K(n):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, n, n)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.6))],
                                        g, kind=COMPACT))
    U = neighborhood(K, 0.2)
    ring = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 1.2, 1.6))], g,
                           kind=COMPACT)
    group = matches_reference(
        K, [("", U, ring, 2), ("", U, empty_mask(g), 3), ("", U, ring, 5)],
        16)
    assert group[1].members == [] and group[1].uncovered.is_empty()
    a = cell_center(g, *g.index_of(0.03 + 0.03j))
    point = rasterize_scene([(1, shapes.Points((a,)))], g, kind=COMPACT)
    group = matches_reference(
        point, [("", neighborhood(point, 0.1), ring, 4),
                ("", neighborhood(point, 0.1), empty_mask(g), 4)], 8)
    assert single_cell_member(group[0], point)


@functools.lru_cache(maxsize=None)
def lockstep_scene(n):
    """K, U and targets around K on the n x n grid of box -2..2: a ring,
    a thinner ring and a half ring nested in it, a disk disjoint from
    both, a far ring, and a scatter of single cells over the grid."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, n, n)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.1, -0.1, 0.45))],
                                        g, kind=COMPACT))
    U = neighborhood(K, 0.2)

    def target(bits):
        return RegionMask(g, bits & ~U.bits, OPEN)

    def region(shape):
        return rasterize_scene([(1, shape)], g, kind=COMPACT).bits

    ring = region(shapes.Annulus(0.0, 0.0, 1.0, 1.4))
    scatter = np.random.default_rng(n).random((n, n)) < 0.01
    targets = [target(ring),
               target(region(shapes.Annulus(0.0, 0.0, 1.1, 1.3))),
               target(ring & (g.centers().real > 0)),
               target(region(shapes.Disk(-1.5, 1.5, 0.35))),
               target(region(shapes.Annulus(0.0, 0.0, 1.75, 1.9))),
               target(scatter & (distance_to(K) > 0.6))]
    return K, U, targets


@pytest.mark.parametrize("n", ROW_GRIDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lockstep_groups_match_reference_families(n, data):
    """Stages with identical, nested or disjoint targets, equal or
    different levels, and caps low enough to stop them early or high
    enough to cover them, against reference_family each."""
    K, U, targets = lockstep_scene(n)
    assert (_offset_logs(K.grid) is None) is (n == 48)
    picks = data.draw(st.lists(st.tuples(
        st.integers(0, len(targets) - 1),
        st.sampled_from([2, 3, 3, 5, 12, 60])), min_size=1, max_size=4))
    cap = data.draw(st.sampled_from([2, 5, 12, 32]))
    group = matches_reference(
        K, [("", U, targets[t], m) for t, m in picks], cap)
    event("a stage stops at the cap" if any(
        not f.uncovered.is_empty() for f in group) else "all covered")


@pytest.mark.parametrize("n", ROW_GRIDS)
def test_lockstep_group_covers_a_disk_and_stops_at_the_cap(n):
    """One group of the kind drawn above, with both: two stages on the
    same disk that cover it and leave the loop, while the scatter, over
    the same box, stays partly unreached at the cap."""
    K, U, targets = lockstep_scene(n)
    group = matches_reference(
        K, [("", U, targets[3], 3), ("", U, targets[3], 3),
            ("", U, targets[5], 60)], 5)
    assert [f.uncovered.is_empty() for f in group] == [True, True, False]


def test_family_reaches_a_cell_whose_root_sum_equals_the_threshold():
    """At m = 1 the threshold is the norm itself, and the target cell t,
    K's degree-1 maximizer k mirrored across the first Leja point's grid
    column, has |t - r| = |k - r| bit for bit (the offset table's columns
    at -a and a hold -x and x), so degree 1 reaches t on the threshold."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    assert _offset_logs(g) is not None
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.5, 0.0, 0.4))],
                                        g, kind=COMPACT))
    U = neighborhood(K, 0.2)
    leja = leja_points(K, 1)
    jr, ir = divmod(leja.cells[0], g.width)
    row = _RootLogRow(g, np.flatnonzero(K.bits))
    jk, ik = divmod(int(row.cells[np.argmax(row(leja.cells[0]))]), g.width)
    bits = np.zeros_like(K.bits)
    bits[jk, 2 * ir - ik] = True
    target = RegionMask(g, bits, OPEN)
    assert target.intersect(U).is_empty()
    norm = leja.log_sups[0]
    assert _sum_threshold(norm, math.log(1)) == norm
    reached = _RootLogRow(g, np.flatnonzero(bits))(leja.cells[0])
    assert reached.tolist() == [norm]
    group = matches_reference(K, [("", U, target, 1)], 4)
    assert [p.degree for p in group[0].members] == [1]
    assert group[0].uncovered.is_empty()


@settings(max_examples=300, deadline=None)
@given(norm=st.one_of(st.floats(-800.0, 800.0), st.floats(-1e-9, 1e-9)),
       level=st.one_of(st.just(0.0), st.floats(0.0, 10.0),
                       st.integers(1, 200).map(math.log)),
       cancel=st.booleans(), ulps=st.integers(-3, 3))
@example(norm=-math.log(2), level=math.log(2), cancel=False, ulps=0)
@example(norm=-math.log(2), level=math.log(2), cancel=False, ulps=-1)
@example(norm=0.0, level=0.0, cancel=False, ulps=0)
@example(norm=-0.0, level=0.0, cancel=False, ulps=1)
def test_sum_threshold_is_the_least_sum_that_reaches_the_level(norm, level,
                                                              cancel, ulps):
    """T - norm >= level and nextafter(T, -inf) - norm < level, so a sum
    s passes s >= T exactly when fl(s - norm) >= level; ``cancel`` sets
    norm next to -level, where s - norm cancels."""
    if cancel:
        norm = -level
        for _ in range(abs(ulps)):
            norm = math.nextafter(norm, math.copysign(math.inf, ulps))
    t = _sum_threshold(norm, level)
    assert t - norm >= level
    assert math.nextafter(t, -math.inf) - norm < level
    for s in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf),
              -math.inf, math.inf, math.nan, level + norm):
        assert (s >= t) is (s - norm >= level)


def test_lockstep_families_name_the_failing_stage():
    g, K, U, ring, _ = build_disk_ring()
    bad_U = neighborhood(K, 0.25).intersect(
        rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.5))], g, kind=COMPACT),
        kind=OPEN)
    with pytest.raises(ValueError, match="^stage 5: K must be contained"):
        _separating_families([("stage 4: ", K, U, ring, 4),
                              ("stage 5: ", K, bad_U, ring, 5)], 16)


def test_lockstep_families_name_the_stage_with_an_empty_K():
    g, _, U, ring, _ = build_disk_ring()
    with pytest.raises(ValueError, match="^stage 4: "):
        _separating_families(chain(empty_mask(g), [
            ("stage 3: ", U, empty_mask(g), 3), ("stage 4: ", U, ring, 4),
            ("stage 5: ", U, ring, 5)]), 16)


# ------------------------------------------------------------ block series


def test_block_series_powers_members():
    from sigmaconv import RootPolynomial
    h1 = RootPolynomial((0.0 + 0.0j,), 0.0)
    h2 = RootPolynomial((1.0 + 0.0j,), 0.0)
    f = block_series([h1, h2], [1, 1], -math.inf, "two members")
    z = 3.0 + 0.0j
    assert float(reference_log_mag(f, 0, z)) == -math.inf
    assert float(reference_log_mag(f, 1, z)) == pytest.approx(math.log(3.0))
    assert float(reference_log_mag(f, 2, z)) == pytest.approx(
        2 * math.log(2.0))
    assert f.max_supported_n == 2


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
        assert float(np.max(reference_log_mag(f, n, zk))) <= 0.0
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

