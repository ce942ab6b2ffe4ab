"""Growth exponents, three-way verdicts, verdict maps, and level sets."""

import math
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmaconv import (COMPACT, Grid, Verdict,
                       classify_point, classify_points, conv_map, default_b,
                       full_domain, level_set, rasterize_scene, shapes,
                       tail_window)
from sigmaconv import (RootPolynomial, ascending_decomposition,
                       block_series, compact_set_series, countable_set_series,
                       leja_points, load_series, omega_exhaustion,
                       polynomial_hull, save_series, sigma_convex_series)
from sigmaconv import construct
from sigmaconv.construct import (BlockStructure, CountableStructure,
                                 countable_series_from_tables)
from sigmaconv.series import MIN_N, _sup, reject_nan
from conftest import (_log_abs, cell_center, gamma_sequence, oracle_series,
                      reference_log_mag)
from test_construct import row_reads
from test_io import (compact_series, countable_series, hand_block_series,
                     loaded_hand_block_series, make_decomposition,
                     sigma_series)


def power_series():
    """f_n(z) = z^n."""
    return oracle_series(lambda n, z: n * _log_abs(z), description="z^n")


def super_series():
    """f_n(z) = n^n z^n."""

    def oracle(n, z):
        base = n * _log_abs(z)
        if n == 0:
            return np.zeros_like(base)
        return n * math.log(n) + base

    return oracle_series(oracle, description="n^n z^n")


def test_tail_window_examples():
    assert tail_window(8) == (4, 8)
    assert tail_window(49) == (25, 49)
    assert tail_window(64) == (32, 64)


def test_growth_exponent_of_power_series():
    z = np.array([2.0 + 0.0j])
    assert _sup(power_series(), z, *tail_window(32)) == pytest.approx(
        math.log(2))
    assert _sup(power_series(), z, 1, 32) == pytest.approx(math.log(2))


def test_growth_exponent_of_super_series():
    z = np.array([1.0 + 0.0j])
    assert _sup(super_series(), z, *tail_window(32)) == pytest.approx(
        math.log(32))


def test_growth_exponent_all_zero_tail():
    zero = oracle_series(lambda n, z: np.full(np.shape(np.asarray(z)),
                                              -np.inf))
    assert _sup(zero, np.array([0.3 + 0.1j]), *tail_window(16)) == -math.inf


def test_classify_power_series_converges():
    v = classify_point(power_series(), 2.0 + 0.0j, N=32, B=math.log(4),
                       M=math.log(100))
    assert v == Verdict.CONVERGE


def test_classify_super_series_diverges_with_enough_budget():
    v = classify_point(super_series(), 1.0 + 0.0j, N=64, B=math.log(4),
                       M=math.log(32))
    assert v == Verdict.DIVERGE


def test_classify_super_series_undetermined_when_short():
    v = classify_point(super_series(), 1.0 + 0.0j, N=8, B=math.log(4),
                       M=math.log(100))
    assert v == Verdict.UNDETERMINED


def test_budget_validation():
    f = power_series()
    with pytest.raises(ValueError):
        classify_point(f, 1.0, N=4, B=0.0, M=1.0)   # N below minimum
    with pytest.raises(ValueError):
        classify_point(f, 1.0, N=16, B=1.0, M=1.0)  # needs B < M
    capped = oracle_series(lambda n, z: n * _log_abs(z),
                           max_supported_n=10)
    with pytest.raises(ValueError):
        classify_point(capped, 1.0, N=16, B=0.0, M=1.0)


def test_nan_oracle_rejected():
    bad = oracle_series(
        lambda n, z: np.full(np.shape(np.asarray(z)), np.nan))
    with pytest.raises(RuntimeError, match=r"NaN at n=4, .* index \(\)$"):
        classify_point(bad, 1.0, N=8, B=0.0, M=1.0)


def test_nan_before_the_tail_window_only_level_set_reads():
    # verdicts read only the tail window [8, 16], at one point as over a
    # grid; level_set reads orders 1..16, so the NaN at order 2 raises there
    def oracle(n, z):
        return np.full(np.shape(np.asarray(z)), np.nan if n == 2 else -1.0)

    f = oracle_series(oracle)
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 4, 4)
    cmap = conv_map(f, g, N=16, B=0.0, M=1.0)
    assert int((cmap.verdicts == Verdict.CONVERGE).sum()) == 16
    z = complex(g.centers()[0, 0])
    assert classify_point(f, z, N=16, B=0.0, M=1.0) == Verdict.CONVERGE
    with pytest.raises(RuntimeError, match=r"NaN at n=2, .* \(0, 0\)$"):
        level_set(f, 1, 16, full_domain(g))


def test_conv_map_super_series_five_by_five():
    # center cell sits exactly at the origin: all coefficients vanish there;
    # every other center has |z| >= pixel and diverges at this budget
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 5, 5)
    cmap = conv_map(super_series(), g, N=64, B=default_b(g), M=math.log(32))
    assert cmap.verdicts[2, 2] == Verdict.CONVERGE
    off = np.ones((5, 5), dtype=bool)
    off[2, 2] = False
    assert np.all(cmap.verdicts[off] == Verdict.DIVERGE)
    counts = cmap.counts()
    assert counts["converge"] == 1
    assert counts["diverge"] == 24
    assert counts["undetermined"] == 0


def test_conv_map_power_series_converges_everywhere():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 16, 16)
    cmap = conv_map(power_series(), g, N=32, B=math.log(4), M=math.log(100))
    assert np.all(cmap.verdicts == Verdict.CONVERGE)


def test_conv_map_agrees_with_classify_point():
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 6, 6)
    f = super_series()
    cmap = conv_map(f, g, N=16, B=math.log(2), M=math.log(8))
    for j in range(6):
        for i in range(6):
            z = cell_center(g, i, j)
            assert cmap.verdicts[j, i] == classify_point(
                f, z, N=16, B=math.log(2), M=math.log(8))


def test_classify_points_matches_scalar_route():
    f = super_series()
    zs = np.array([0.1 + 0.2j, 1.5 - 0.3j, 0.0 + 0.0j, -2.0 + 1.0j])
    vec = classify_points(f, zs, N=32, B=math.log(2), M=math.log(16))
    for z, v in zip(zs, vec):
        assert v == classify_point(f, complex(z), N=32, B=math.log(2),
                                   M=math.log(16))


def test_level_set_of_power_series_is_a_disk():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 128, 128)
    E = level_set(power_series(), j=2, N=32, omega=full_domain(g))
    zs = g.centers()
    inside = E.bits
    assert np.all(np.abs(zs[inside]) <= 2.0)
    # every exhaustion cell with |z| <= 2 passes the coefficient bound
    from sigmaconv import omega_exhaustion
    ex = omega_exhaustion(full_domain(g), 2)
    expect = ex.bits & (np.abs(zs) <= 2.0)
    assert np.array_equal(inside, expect)


def test_level_set_empty_when_coefficients_large():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 64, 64)
    big = oracle_series(
        lambda n, z: np.full(np.shape(np.asarray(z)), n * math.log(3.0)))
    E = level_set(big, j=1, N=16, omega=full_domain(g))
    assert E.is_empty()


def test_level_set_index_starts_at_one():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 16, 16)
    with pytest.raises(ValueError, match="^level index j must be >= 1$"):
        level_set(power_series(), 0, 16, full_domain(g))


def test_level_sets_ascend():
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 64, 64)
    f = power_series()
    prev = level_set(f, 1, 16, full_domain(g))
    for j in (2, 3, 5):
        cur = level_set(f, j, 16, full_domain(g))
        assert prev.subset_of(cur)
        prev = cur


def test_level_set_keeps_roots_of_countable_series():
    pts = (0.0 + 0.0j, 1.0 + 0.0j, 0.0 + 1.0j)
    f = countable_set_series(pts)
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 64, 64)
    E = level_set(f, j=8, N=f.max_supported_n, omega=full_domain(g))
    i, j = g.index_of(pts[0])
    # z_1's cell center is not exactly the root; check the root cell joins
    # once j clears the finite coefficient values there
    assert E.bits[j, i] or not E.is_empty()


def test_monotone_truncation_on_stored_exponents():
    """Verdicts from the tail sup at growing N: a diverge verdict never
    flips to converge (the countable-set series has eventually increasing
    exponents off the root set)."""
    pts = tuple(complex(x, y) for x in (-0.5, 0.0, 0.5, 1.0)
                for y in (-0.5, 0.5)) + (0.25 + 0.0j, -0.25 + 0.0j)
    f = countable_set_series(pts)
    B, M = 0.0, math.log(4.0)
    for z in (1.7 + 1.1j, -1.3 - 0.8j, 0.1 + 1.9j):
        seen_diverge = False
        for N in range(8, f.max_supported_n + 1):
            sup = f.structure.tail_sup(z, *tail_window(N))
            if sup >= M:
                seen_diverge = True
            elif seen_diverge and sup <= B:
                pytest.fail(f"diverge flipped to converge at N={N}, z={z}")


def test_default_b_scales_with_grid():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    assert default_b(g) == pytest.approx(math.log(8.0))
    g2 = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 64, 64)
    assert default_b(g2) == pytest.approx(math.log(16.0))


# ------------------------------------------------ structure-owned evaluation


def _per_order_sup(series, zs, lo, hi):
    """Reference sup over orders lo..hi: order by order through
    reference_log_mag, divided by n."""
    sup = np.full(np.shape(zs), -np.inf)
    for n in range(lo, hi + 1):
        np.maximum(sup, reference_log_mag(series, n, zs) / n, out=sup)
    return sup


def _per_order_nan(series, zs, lo, hi):
    """The per-order NaN report: reject_nan on each order's reference
    values, lo..hi in turn."""
    for n in range(lo, hi + 1):
        reject_nan(reference_log_mag(series, n, zs), n)


def _assert_tail_sup_matches_oracle(series, grid, N):
    cmap = conv_map(series, grid, N, B=0.0, M=1.0)
    assert np.array_equal(cmap.exponents, _per_order_sup(
        series, grid.centers(), *tail_window(N)))


def _disk(g, x, y, r):
    return polynomial_hull(rasterize_scene([(1, shapes.Disk(x, y, r))], g,
                                           kind=COMPACT))


def test_block_evaluator_matches_oracle_from_mid_stage():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
    f = compact_set_series(_disk(g, 0.0, 0.0, 0.7), stages=5,
                           degree_cap=24)
    starts = {1 + s for s in accumulate(f.structure.block_sizes, initial=0)}
    mid = [N for N in range(MIN_N, f.max_supported_n + 1)
           if tail_window(N)[0] not in starts]
    assert mid, "no tail window starts inside a stage"
    _assert_tail_sup_matches_oracle(f, g, mid[0])
    _assert_tail_sup_matches_oracle(f, g, f.max_supported_n)


def test_block_evaluator_matches_oracle_after_round_trip(tmp_path):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    dec = ascending_decomposition([_disk(g, -0.8, 0.0, 0.4),
                                   _disk(g, 0.8, 0.0, 0.4)], 4)
    f = sigma_convex_series(dec, full_domain(g), degree_cap=24)
    save_series(f, tmp_path / "series.json")
    loaded = load_series(tmp_path / "series.json")
    N = loaded.max_supported_n
    _assert_tail_sup_matches_oracle(loaded, g, N)
    assert np.array_equal(conv_map(loaded, g, N, 0.0, 1.0).exponents,
                          conv_map(f, g, N, 0.0, 1.0).exponents)


def _unshared_block_series():
    a, b, c, d = 0.3 + 0.1j, -0.5 + 0.2j, 0.1 - 0.7j, -0.2 - 0.2j
    members = [RootPolynomial((a,), 0.1), RootPolynomial((b, c), -0.2),
               RootPolynomial((b,), 0.3), RootPolynomial((b,), 0.0),
               RootPolynomial((d, a, c), -0.4), RootPolynomial((d, a), 0.2),
               RootPolynomial((c, d, a, b), -1.0), RootPolynomial((), 0.5),
               RootPolynomial((a, b), 0.0)]
    return block_series(members, [4, 5], 0.0, "no shared prefixes")


def test_block_evaluator_restarts_when_members_share_no_prefix():
    f = _unshared_block_series()
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 16, 16)
    for N in (MIN_N, f.max_supported_n):
        _assert_tail_sup_matches_oracle(f, g, N)


def test_block_evaluator_rejects_nan_in_window():
    h = RootPolynomial((0.2 + 0.0j,), 0.0)
    members = [h] * 9 + [RootPolynomial(h.roots, math.nan)] + [h] * 6
    f = block_series(members, [16], 0.0, "NaN member at order 10")
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    with pytest.raises(RuntimeError, match="NaN at n=10"):
        conv_map(f, g, 16, B=0.0, M=1.0)


def _points_on_and_off_roots(series):
    """A 48 x 48 grid's centers, then every member root: the exponents of
    a cell on a root are -inf from that member's degree on."""
    roots = {r for h in series.structure.members for r in h.roots}
    centers = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48).centers().ravel()
    return np.concatenate([centers, np.array(sorted(roots, key=repr))])


def _windows(n):
    """lo = 1, single orders at both ends, tail windows, the full range."""
    return sorted({(1, 1), (1, n), (n, n), (1, n // 2), tail_window(n),
                   tail_window(max(n // 2, 2)), (2, n - 1)})


@pytest.mark.parametrize("build", [hand_block_series, loaded_hand_block_series,
                                   sigma_series, compact_series],
                         ids=["hand-blocks", "loaded-hand-blocks", "sigma",
                              "compact"])
def test_block_tail_sup_is_bit_identical_to_the_per_order_loop(build):
    f = build()
    zs = _points_on_and_off_roots(f)
    on_root = False
    for lo, hi in _windows(f.max_supported_n):
        got = f.structure.tail_sup(zs, lo, hi)
        assert got.tobytes() == _per_order_sup(f, zs, lo, hi).tobytes()
        on_root |= bool(np.isneginf(got).any())
    assert on_root


@pytest.mark.parametrize("build", [hand_block_series, loaded_hand_block_series,
                                   sigma_series],
                         ids=["hand-blocks", "loaded-hand-blocks", "sigma"])
def test_block_log_mags_are_bit_identical_to_each_member_alone(build):
    # one order k read as tail_sup(zs, k, k) with divisor 1 is log|f_k|
    # itself, so no division can hide a difference in its bits
    f = build()
    zs = _points_on_and_off_roots(f)
    for k in range(1, f.max_supported_n + 1):
        got = f.structure.tail_sup(zs, k, k, np.ones(1))
        assert got.tobytes() == reference_log_mag(f, k, zs).tobytes()


def test_block_tail_sup_keeps_its_shape_and_scalar_points():
    f = hand_block_series()
    zs = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8).centers()[:5, 1:]
    got = f.structure.tail_sup(zs, 2, 9)
    assert got.shape == zs.shape
    assert got.tobytes() == _per_order_sup(f, zs, 2, 9).tobytes()
    z = 0.5 + 0.25j  # a root of the first four members
    assert f.structure.tail_sup(z, 1, 9).tobytes() == _per_order_sup(
        f, np.asarray(z), 1, 9).tobytes()


@pytest.mark.parametrize("build", [hand_block_series, loaded_hand_block_series,
                                   sigma_series],
                         ids=["hand-blocks", "loaded-hand-blocks", "sigma"])
def test_block_tail_sup_is_bit_identical_across_cell_chunks(build,
                                                            monkeypatch):
    # an 800-byte budget takes the 2304 + roots points in chunks of
    # 800 // _CELL_BYTES = 16 cells, the last one partial, and folds a
    # group's members at most 100 // cells at a time
    f = build()
    zs = _points_on_and_off_roots(f)
    monkeypatch.setattr(construct, "TABLE_BYTES", 800)
    for lo, hi in (tail_window(f.max_supported_n), (1, f.max_supported_n)):
        got = f.structure.tail_sup(zs, lo, hi)
        assert got.tobytes() == _per_order_sup(f, zs, lo, hi).tobytes()


# roots for drawn block series: four cell centres of _SCREEN_GRID, whose
# cells take -inf from that root's degree on, and two points off the grid
_SCREEN_GRID = Grid.from_box(-1.4, -1.0, 1.4, 1.0, 7, 5)
_SCREEN_ROOTS = (*_SCREEN_GRID.centers().ravel()[[3, 11, 17, 30]].tolist(),
                 0.31 + 0.17j, -0.52 - 0.4j)


@st.composite
def screened_block_series(draw):
    """A block series of up to 16 members on up to three sequences, a
    sequence possibly a copy of the one before, so that its groups tie
    with that one's exactly.  Members share each of two (sequence, degree)
    keys per sequence, and take log_scales from one drawn value, its two
    one-ulp neighbours and -inf, and perhaps NaN, +-1e300 (beyond the
    screen's range), +-1.5e307 (whose exponents overflow from order 12
    on) and +-1e-310 (subnormal)."""
    sequences = []
    for _ in range(draw(st.integers(1, 3))):
        if sequences and draw(st.booleans()):
            sequences.append(sequences[-1])
        else:
            roots = draw(st.permutations(_SCREEN_ROOTS))
            sequences.append(tuple(roots[:draw(st.integers(0, 6))]))
    keys = [(s, draw(st.integers(0, len(seq))))
            for s, seq in enumerate(sequences) for _ in range(2)]
    base = draw(st.floats(-3.0, 3.0))
    scales = [base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
              -math.inf]
    scales += draw(st.lists(st.sampled_from(
        [math.nan, 1e300, -1e300, 1.5e307, -1.5e307, 1e-310, -1e-310]),
        max_size=2))
    count = draw(st.integers(1, 16))
    return construct.block_series_from_tables(
        sequences, draw(st.lists(st.sampled_from(keys), min_size=count,
                                 max_size=count)),
        draw(st.lists(st.sampled_from(scales), min_size=count,
                      max_size=count)), [count], 0.0, "drawn blocks")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_block_tail_sup_screen_is_bit_identical_to_the_per_order_loop(data):
    # an interleave passes its children the divisors 2m and 2m + 1; the
    # smallest table makes one-cell chunks and folds one pair at a time
    f = data.draw(screened_block_series(), label="series")
    if data.draw(st.booleans(), label="interleave"):
        f = construct.interleave(f, data.draw(screened_block_series(),
                                              label="odd series"))
    hi = data.draw(st.integers(1, f.max_supported_n), label="hi")
    lo = data.draw(st.integers(1, hi), label="lo")
    table = data.draw(st.sampled_from([8, 56, construct.TABLE_BYTES]),
                      label="TABLE_BYTES")
    zs = np.concatenate([_SCREEN_GRID.centers().ravel(), _SCREEN_ROOTS])
    with mock.patch.object(construct, "TABLE_BYTES", table):
        got = f.structure.tail_sup(zs, lo, hi)
    with np.errstate(over="ignore"):
        want = _per_order_sup(f, zs, lo, hi)
    assert got.tobytes() == want.tobytes()


_NO = -math.inf


@pytest.mark.parametrize("even,odd", [
    ([0.0, -5e-324], [_NO, _NO]), ([_NO, _NO], [0.0, -5e-324]),
    ([0.0, -5e-324, 0.0], [_NO] * 3), ([_NO] * 3, [0.0, -5e-324, 0.0]),
    ([-5e-324, 0.0, -5e-324], [_NO] * 3),
    ([_NO] * 3, [-5e-324, 0.0, -5e-324]),
    ([_NO, -5e-324], [0.0, _NO]),  # the odd child's zero comes first
])
def test_a_zero_tail_sup_takes_the_bits_of_the_order_by_order_fold(even,
                                                                   odd):
    # as an interleave child, a scale of -5e-324 at order m gives
    # fl(m x) / 2m or / (2m + 1) = -0.0, and a scale of 0.0 gives +0.0;
    # the sup has the bits of a running np.maximum over the orders one at
    # a time, from -inf.  At a tie of zeros np.maximum returns its second
    # operand, so that fold keeps the last zero's sign, at one cell or
    # many; a numpy that changed this rule shows up here first
    folds = [np.signbit(np.maximum(np.maximum(np.full(size, -np.inf), a), b))
             for size in (1, 67) for a, b in ((-0.0, 0.0), (0.0, -0.0))]
    assert [fold.tolist() for fold in folds] == [
        [False], [True], [False] * 67, [True] * 67]
    F = construct.interleave(*(construct.block_series_from_tables(
        [()], [(0, 0)] * len(scales), scales, [len(scales)], 0.0, "zeros")
        for scales in (even, odd)))
    zs = np.zeros(2, dtype=complex)
    got = F.structure.tail_sup(zs, 2, F.max_supported_n)
    want = _per_order_sup(F, zs, 2, F.max_supported_n)
    assert got.tobytes() == want.tobytes()
    assert want[0] == 0


def test_block_tail_sup_keeps_a_group_one_ulp_below_the_top():
    # x = s at order 6 and x = s + 1 ulp at order 29, so the second group's
    # x is the largest; yet fl(6 s) / 6 rounds up to s + 1 ulp, and
    # fl(29 (s + 1 ulp)) / 29 down to s, so the max is the first group's
    s = 2.684666985234739
    up = float(np.nextafter(s, np.inf))
    scales = [-1.0] * 29
    scales[5], scales[28] = s, up
    f = construct.block_series_from_tables([()], [(0, 0)] * 29, scales,
                                           [29], 0.0, "one ulp apart")
    got = f.structure.tail_sup(np.zeros(3, dtype=complex), 1, 29)
    assert (6 * s) / 6 == up and (29 * up) / 29 == s
    assert got.tolist() == [up] * 3


def test_block_tail_sup_takes_no_screen_where_an_exponent_overflows():
    # order 1 holds the largest x, 1.6e307, but 20 * 1.5e307 overflows, so
    # order 20's exponent is inf: the cell must fold every group
    scales = [-1.0] * 20
    scales[0], scales[19] = 1.6e307, 1.5e307
    f = construct.block_series_from_tables([()], [(0, 0)] * 20, scales,
                                           [20], 0.0, "overflow at order 20")
    with np.errstate(over="ignore"):
        assert 20 * 1.5e307 == math.inf
    got = f.structure.tail_sup(np.zeros(3, dtype=complex), 1, 20)
    assert got.tolist() == [math.inf] * 3


def test_block_tail_sup_folds_the_contending_groups_alone(monkeypatch):
    # on the sigma series' tail window the screen leaves about one group
    # per cell to fold, of the window's 15; each group's members hold
    # orders of their own, so its least order names it
    f = sigma_series()
    zs = _points_on_and_off_roots(f)
    lo, hi = tail_window(f.max_supported_n)
    folded = []
    fold = construct._fold_group

    def spy(best, x, ells, divisors):
        folded.append((ells.min(), x.size))
        return fold(best, x, ells, divisors)

    monkeypatch.setattr(construct, "_fold_group", spy)
    got = f.structure.tail_sup(zs, lo, hi)
    assert got.tobytes() == _per_order_sup(f, zs, lo, hi).tobytes()
    assert len({group for group, _ in folded}) > 4
    assert sum(cells for _, cells in folded) < 1.1 * zs.size


def test_block_tail_sup_reads_each_window_root_twice_per_chunk(monkeypatch):
    # 64 members on three sequences, each with a log_scale of its own, so
    # the tail windows hold 33 and 17 groups; a budget of 24 cells per
    # chunk takes the 16 x 8 grid in chunks of one grid row, where chunks
    # of TABLE_BYTES // (8 groups) cells would be smaller.  Each chunk
    # takes two passes over the window's roots, one read per root each,
    # however many groups share them
    grid = Grid.from_box(-1.0, -0.5, 1.0, 0.5, 16, 8)
    centres = grid.centers().ravel()
    sequences = [(*centres[[3, 40, 77, 120]], 0.3 + 0.1j, -0.6 - 0.2j),
                 (0.1 - 0.4j, *centres[[9, 100]]), tuple(centres[[64, 5]])]
    rng = np.random.default_rng(5)
    placement = [(s, int(rng.integers(0, len(sequences[s]) + 1)))
                 for s in rng.integers(0, 3, 64).tolist()]
    f = construct.block_series_from_tables(
        sequences, placement, rng.uniform(-2.0, 2.0, 64).tolist(), [64],
        0.0, "three sequences")
    monkeypatch.setattr(construct, "TABLE_BYTES", construct._CELL_BYTES * 24)
    chunks = len(list(construct._screen_chunks(construct._RootLogRow(grid))))
    assert chunks == 8
    for lo, hi in (tail_window(64), tail_window(32)):
        window = np.array(placement[lo - 1:hi])
        roots = sum(window[window[:, 0] == s, 1].max(initial=0)
                    for s in range(3))
        assert 8 * (hi - lo + 1) > construct._CELL_BYTES
        reads = []
        with row_reads(lambda *_: reads.append(1)):
            got = f.structure.tail_sup(grid, lo, hi)
        assert len(reads) == 2 * roots * chunks
        assert got.tobytes() == _per_order_sup(
            f, grid.centers(), lo, hi).tobytes()


def test_loaded_hand_series_places_each_member_on_one_sequence():
    members = hand_block_series().structure.members
    loaded = loaded_hand_block_series().structure
    # (a, b, c, a + b) takes the first three members, (c, a) the next three
    # (degree 0 included), 0.0 + 1j the next one and (-0.0 + 1j, b, a) the
    # last two: the text keeps -0.0 apart from 0.0
    assert [len(s) for s in loaded.sequences] == [4, 2, 1, 3]
    assert loaded.placement.tolist() == [[0, 3], [0, 2], [0, 4], [1, 1],
                                         [1, 0], [1, 2], [2, 1], [3, 2],
                                         [3, 3]]
    assert loaded.log_scales.tolist() == [h.log_scale for h in members]
    for h, (s, d) in zip(members, loaded.placement):
        assert list(map(repr, loaded.sequences[s][:d])) == list(map(repr,
                                                                    h.roots))


def test_sigma_members_of_a_lockstep_group_share_one_sequence():
    # each stored sequence is the Leja sequence of one run of stages with
    # equal E_k, and every member of those stages sits on it, each stage's
    # members at ascending degrees
    _, dec = make_decomposition()
    s = sigma_series().structure
    assert len(s.sequences) < len(s.block_sizes)
    starts = list(accumulate(s.block_sizes, initial=0))
    stage_sequence = {}
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        seq, degree = s.placement[a:b].T
        if a < b:
            assert len(set(seq.tolist())) == 1
            assert (np.diff(degree) > 0).all()
            stage_sequence[k] = int(seq[0])
    for k, i in stage_sequence.items():
        E = dec.E_list[k]
        same_E = {j for j in stage_sequence
                  if dec.E_list[j].same_cells(E)}
        assert {stage_sequence[j] for j in same_E} == {i}
        assert s.sequences[i] == leja_points(E, 16)[:len(s.sequences[i])]
    assert sorted(set(stage_sequence.values())) == list(range(len(s.sequences)))


def test_level_set_of_block_series_matches_oracle():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
    f = compact_set_series(_disk(g, 0.0, 0.0, 0.7), stages=4,
                           degree_cap=24)
    omega = full_domain(g)
    N = f.max_supported_n
    E = level_set(f, 2, N, omega)
    zs = g.centers()
    ok = np.ones(zs.shape, dtype=bool)
    for n in range(1, N + 1):
        ok &= reference_log_mag(f, n, zs) / n <= math.log(2)
    assert np.array_equal(E.bits, omega_exhaustion(omega, 2).bits & ok)


def _product_series_on_cells():
    """A countable-set series on 21 points, 12 of them exact
    cell centers of the returned 15 x 13 grid (so those cells sit on roots
    and get exact -inf terms), the rest off the cell lattice."""
    g = Grid.from_box(-1.5, -1.3, 1.5, 1.3, 15, 13)
    centers = g.centers().ravel()
    rng = np.random.default_rng(4)
    on = centers[rng.choice(centers.size, 12, replace=False)]
    off = rng.uniform(-1.4, 1.4, 9) + 1j * rng.uniform(-1.2, 1.2, 9)
    pts = [complex(z) for pair in zip(on, off) for z in pair]
    pts += [complex(z) for z in on[len(off):]]
    return countable_set_series(pts), g


@pytest.mark.parametrize("kind", ["countable"])
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_product_evaluator_matches_oracle(kind, chunk, monkeypatch):
    # chunk None keeps the default budget (all 195 cells in one chunk); 1
    # makes every chunk of _product_tail_sup's screen and candidate step
    # one cell; 7 leaves a partial last screen chunk
    f, g = _product_series_on_cells()
    calls = []
    helper = construct._product_tail_sup

    def spy(*args):
        calls.append(args[3:5])
        return helper(*args)

    monkeypatch.setattr(construct, "_product_tail_sup", spy)
    for N in (MIN_N, (MIN_N + f.max_supported_n) // 2, f.max_supported_n):
        lo, hi = tail_window(N)
        if chunk is not None:
            monkeypatch.setattr(construct, "TABLE_BYTES",
                                construct._CELL_BYTES * chunk)
        _assert_tail_sup_matches_oracle(f, g, N)
        assert calls[-1] == (lo, hi)
    on_roots = np.isin(g.centers(), f.structure.points)
    assert on_roots.sum() == 12
    cmap = conv_map(f, g, f.max_supported_n, 0.0, 1.0)
    assert np.isneginf(cmap.exponents[on_roots]).any()


@pytest.mark.parametrize("kind", ["countable"])
def test_product_conv_map_agrees_with_classify_point(kind):
    f, g = _product_series_on_cells()
    N, B, M = f.max_supported_n, 0.0, math.log(4.0)
    cmap = conv_map(f, g, N, B, M)
    assert (cmap.verdicts == Verdict.CONVERGE).any()
    assert (cmap.verdicts == Verdict.DIVERGE).any()
    for j in range(g.height):
        for i in range(g.width):
            z = complex(g.centers()[j, i])
            assert cmap.verdicts[j, i] == classify_point(f, z, N, B, M)


def _nan_countable_series(g):
    """A product series whose orders n >= 2 are NaN on the centre a of g's
    cell (5, 2) and there only: they add log|a - a| = -inf to the +inf of
    a root at infinity."""
    a = complex(g.centers()[5, 2])
    pts = (a, complex(math.inf, 0.0)) + tuple(
        complex(0.1 * k, -0.05 * k) for k in range(1, 16))
    return countable_series_from_tables(CountableStructure(
        pts, tuple(0.5 * n for n in range(17)), (0.5,) * 16))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_product_evaluator_rejects_nan_with_the_oracle_message():
    # the first offending tail order is lo itself
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    f = _nan_countable_series(g)
    N = f.max_supported_n
    lo, _ = tail_window(N)
    with pytest.raises(RuntimeError, match=f"NaN at n={lo},") as fast:
        conv_map(f, g, N, B=0.0, M=1.0)
    with pytest.raises(RuntimeError) as slow:
        _per_order_nan(f, g.centers(), lo, N)
    assert str(fast.value) == str(slow.value)
    # level_set's sup starts at order 1, so its first offending order is 2
    with pytest.raises(RuntimeError, match="NaN at n=2,") as fast:
        level_set(f, 1, N, full_domain(g))
    with pytest.raises(RuntimeError) as slow:
        _per_order_nan(f, g.centers(), 1, N)
    assert str(fast.value) == str(slow.value)


def _order_table_reference(cells, roots, log_c, lo, hi, divisors=None):
    """The (order x cell) table whose row n = lo..hi is log C_n plus the
    root terms log|z - roots[j]|, j < n, added in sequence, and divided by
    the divisors, which default to n."""
    if divisors is None:
        divisors = np.arange(lo, hi + 1, dtype=float)
    table = np.repeat(log_c[:, None], cells.size, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(lo, hi + 1):
            for r in roots[:n]:
                table[n - lo] += np.log(np.abs(cells - r))
    return table / divisors[:, None]


def _table_sup_reference(cells, roots, log_c, lo, hi, divisors=None):
    """max over the orders of _order_table_reference, as the product
    series' tail sup defines it: a running np.maximum over the orders in
    turn, from -inf.  A max reduction can keep the other zero at a tie of
    +0.0 and -0.0."""
    sup = np.full(np.shape(cells), -np.inf)
    for sums in _order_table_reference(cells, roots, log_c, lo, hi,
                                       divisors):
        np.maximum(sup, sums, out=sup)
    return sup


def _first_roots(cells, roots):
    """Per cell, the least k with cells == roots[k], and len(roots) where
    no root is; a NaN root is at no cell."""
    hit = np.equal.outer(roots, cells)
    return np.where(hit.any(axis=0), hit.argmax(axis=0), len(roots))


def _candidates(lower, upper):
    """Per cell, the number of candidate orders that the bounds of
    construct._order_bounds leave it, one pass of the candidate step
    each: those whose UB_n reaches L = max LB_n, or every order where L
    is NaN."""
    floor = lower.max(axis=0)
    with np.errstate(invalid="ignore"):
        return ((upper >= floor) | np.isnan(floor)).sum(axis=0)


def _steps_spy(monkeypatch, every=False):
    """The cell arrays that reach the candidate step (the cells the screen
    leaves), one per call, and each call's _candidates.  every=True makes
    every LB_n NaN, so that every order of every cell is a candidate."""
    stepped, passes = [], []
    step, bounds = construct._candidate_sup, construct._order_bounds

    def step_spy(cells, *args):
        stepped.append(cells.points.copy())
        return step(cells, *args)

    def bounds_spy(*args):
        terms, lower, upper = bounds(*args)
        if every:
            lower = np.full_like(lower, np.nan)
        passes.append(_candidates(lower, upper))
        return terms, lower, upper

    monkeypatch.setattr(construct, "_candidate_sup", step_spy)
    monkeypatch.setattr(construct, "_order_bounds", bounds_spy)
    return stepped, passes


def _screen_spy(monkeypatch):
    """The settled masks construct._top_screen returns, one per call."""
    calls = []
    screen = construct._top_screen

    def spy(*args):
        top, settled = screen(*args)
        calls.append(settled)
        return top, settled

    monkeypatch.setattr(construct, "_top_screen", spy)
    return calls


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_on=st.integers(0, 9),
       n_off=st.integers(0, 9), data=st.data())
def test_product_tail_sup_is_bit_identical_to_the_table(seed, n_on, n_off,
                                                        data):
    # points on cell centres give exact -inf terms from their order on;
    # windows include lo = 1, divisors the default n and the interleave's
    # 2m and 2m + 1.  TABLE_BYTES makes screen chunks down to one cell, or
    # candidate step chunks down to one cell, or a budget below one cell's
    # candidate arrays, where those chunks are clamped to one cell.
    # Besides the plain path, the screen can be made to settle nothing, so
    # that the candidate step sees every cell, and every LB_n can be made
    # NaN, so that every order of every cell it takes is a candidate: the
    # table's O(N^2) fold.  Either way exactly the cells the screen leaves
    # reach the candidate step, in chunks of its own step
    g = Grid.from_box(-1.4, -1.0, 1.4, 1.0, 7, 5)
    cells = g.centers().ravel()
    rng = np.random.default_rng(seed)
    on = cells[rng.choice(cells.size, n_on, replace=False)]
    off = rng.uniform(-1.5, 1.5, n_off) + 1j * rng.uniform(-1.1, 1.1, n_off)
    pts = rng.permutation(np.concatenate([on, off, [1.5 + 1.5j, -2.0]]))
    s = countable_set_series(pts).structure
    lo = data.draw(st.integers(1, len(pts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(pts) - 1), label="hi")
    parity = data.draw(st.sampled_from([None, 0, 1]), label="parity")
    divisors = None if parity is None else np.arange(
        2.0 * lo + parity, 2.0 * hi + parity + 1, 2.0)
    rows = 8 * (hi + 1)  # one cell's bytes in each candidate array
    chunk = data.draw(st.integers(1, cells.size + 1), label="chunk")
    budget = data.draw(st.sampled_from(
        [construct._CELL_BYTES * chunk, rows * chunk, rows - 1]),
        label="TABLE_BYTES")
    nothing = data.draw(st.sampled_from(["", "screen"]),
                        label="settle nothing")
    every = data.draw(st.booleans(), label="every order a candidate")
    roots, log_c = np.array(s.points), np.array(s.log_c[lo:hi + 1])
    screen, settled = construct._top_screen, []

    def screen_spy(*args):
        top, done = screen(*args)
        if nothing:
            done = np.zeros_like(done)
        settled.append(done)
        return top, done

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "TABLE_BYTES", budget)
        patch.setattr(construct, "_top_screen", screen_spy)
        stepped, passes = _steps_spy(patch, every)
        got = construct._product_tail_sup(cells, roots, log_c, lo, hi,
                                          divisors)
    want = _table_sup_reference(cells, roots, log_c, lo, hi, divisors)
    assert got.tobytes() == want.tobytes()
    screened = cells[~np.concatenate(settled)]
    step = max(1, budget // rows)
    assert [c.tolist() for c in stepped] == [
        screened[k:k + step].tolist() for k in range(0, screened.size, step)]
    if every:
        assert [p.tolist() for p in passes] == [
            [hi - lo + 1] * c.size for c in stepped]


# every centre of the dyadic grid is an odd multiple of 1/16, so it has an
# offset table, whose least entry, log 1/8, is the largest in magnitude;
# the other grid's pixel 0.4 leaves it without one
SCREEN_GRIDS = {"dyadic": Grid.from_box(-1.0, -0.5, 1.0, 0.5, 16, 8),
                "non-dyadic": Grid.from_box(-1.4, -1.0, 1.4, 1.0, 7, 5)}


def _grid_points(g, seed, n_on, n_off):
    """n_on of g's cell centres, n_off points off its lattice and two
    points outside its box, in a seeded order."""
    cells = g.centers().ravel()
    rng = np.random.default_rng(seed)
    on = cells[rng.choice(cells.size, n_on, replace=False)]
    off = rng.uniform(-1.0, 1.0, n_off) + 1j * rng.uniform(-0.5, 0.5, n_off)
    return rng.permutation(np.concatenate([on, off, [2.5 + 1.5j, -3.0]]))


@pytest.mark.parametrize("kind", sorted(SCREEN_GRIDS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_on=st.integers(0, 9),
       n_off=st.integers(0, 9), data=st.data())
def test_product_tail_sup_on_grid_rows_is_bit_identical_to_the_table(
        kind, seed, n_on, n_off, data):
    # a grid's row names each root that is a cell centre by its cell: on
    # the dyadic grid it gathers those roots' logs from the offset table
    # and reads only the others directly, and on the non-dyadic grid it
    # reads every root directly.  Chunks go down to one cell, where a cell
    # on a root holds the row's one -inf, and divisors include the
    # interleave's 2m and 2m + 1.  The screen's chunks take the grid's
    # cells in order, within the budget of _CELL_BYTES a cell
    g = SCREEN_GRIDS[kind]
    row = construct._RootLogRow(g)
    assert (row.table is not None) is (kind == "dyadic")
    pts = _grid_points(g, seed, n_on, n_off)
    assert sum(not isinstance(r, complex) for r in row.locate(pts)) == n_on
    s = countable_set_series(pts).structure
    lo = data.draw(st.integers(1, len(pts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(pts) - 1), label="hi")
    parity = data.draw(st.sampled_from([None, 0, 1]), label="parity")
    divisors = None if parity is None else np.arange(
        2.0 * lo + parity, 2.0 * hi + parity + 1, 2.0)
    chunk = data.draw(st.integers(1, row.size), label="chunk")
    roots, log_c = np.array(s.points), np.array(s.log_c[lo:hi + 1])
    screen, screened = construct._top_screen, []

    def screen_spy(cells, *args):
        screened.append(cells.cells)
        return screen(cells, *args)

    with mock.patch.object(construct, "TABLE_BYTES",
                           construct._CELL_BYTES * chunk), \
            mock.patch.object(construct, "_top_screen", screen_spy):
        got = construct._product_tail_sup(g, roots, log_c, lo, hi, divisors)
    want = _table_sup_reference(g.centers().ravel(), roots, log_c, lo, hi,
                                divisors)
    assert got.shape == (g.height, g.width)
    assert got.tobytes() == want.reshape(got.shape).tobytes()
    assert max(c.size for c in screened) <= chunk
    assert np.concatenate(screened).tolist() == list(range(row.size))


@pytest.mark.parametrize("kind", [*sorted(SCREEN_GRIDS), "points"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_on=st.integers(0, 9),
       n_off=st.integers(0, 9), data=st.data())
def test_product_tail_sup_order_margin_covers_each_cell_margin(
        kind, seed, n_on, n_off, data):
    # the one margin the candidate step gives order n over a chunk, from
    # the running sum of its roots' bounds, is at least the margin
    # 4 (n + 2) u (|log C_n| + S_n) from the running sum S_n of a cell's
    # own |root terms|, at every cell of the chunk where S_n is finite:
    # over the table's roots, the ones read directly, and the cells on a
    # root, whose -inf the bound skips
    g = SCREEN_GRIDS["dyadic" if kind == "points" else kind]
    pts = _grid_points(g, seed, n_on, n_off)
    log_c = countable_set_series(pts).structure.log_c
    row = construct._RootLogRow(g.centers() if kind == "points" else g)
    start = data.draw(st.integers(0, row.size - 1), label="start")
    chunk = row[start:data.draw(st.integers(start + 1, row.size),
                                label="stop")]
    size, cell_size = 0.0, np.zeros(chunk.size)
    for n, r in enumerate(chunk.locate(pts[:-1]), start=1):
        logs = chunk(r, out=np.empty(chunk.size))
        size += chunk.log_bound(r, logs)
        cell_size += np.abs(logs)
        margin = construct._order_margin(log_c[n], size, n)
        finite = np.isfinite(cell_size)
        cell_margin = (cell_size[finite] + abs(log_c[n])) * (
            4 * (n + 2) * 2.0 ** -53)
        assert (margin >= cell_margin).all()


@pytest.mark.parametrize("kind", [*sorted(SCREEN_GRIDS), "points"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_on=st.integers(0, 9),
       n_off=st.integers(0, 9), data=st.data())
def test_product_tail_sup_one_order_step_is_bit_identical_to_the_table(
        kind, seed, n_on, n_off, data):
    # the screen is made to settle nothing, so the candidate step takes
    # every cell: over the dyadic grid it gathers the roots on the lattice
    # from the offset table and reads the others directly, and over the
    # non-dyadic grid and the points it reads every root directly.  Most
    # cells have one candidate order, one pass.  A cell on a root k < lo
    # is -inf in every order, so every order reaches its -inf floor and is
    # a candidate; a cell on a root k >= lo is finite up to order k.
    # Divisors include the interleave's, and chunks go down to one cell.
    # Every cell has the table's bits
    g = SCREEN_GRIDS["dyadic" if kind == "points" else kind]
    cells = g.centers().ravel()
    pts = _grid_points(g, seed, n_on, n_off)
    s = countable_set_series(pts).structure
    lo = data.draw(st.integers(1, len(pts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(pts) - 1), label="hi")
    parity = data.draw(st.sampled_from([None, 0, 1]), label="parity")
    divisors = None if parity is None else np.arange(
        2.0 * lo + parity, 2.0 * hi + parity + 1, 2.0)
    chunk = data.draw(st.integers(1, cells.size), label="chunk")
    rows = 8 * (hi + 1)  # one cell's bytes in each candidate array
    roots, log_c = np.array(s.points), np.array(s.log_c[lo:hi + 1])
    screen = construct._top_screen

    def settle_nothing(*args):
        top, done = screen(*args)
        return top, np.zeros_like(done)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "TABLE_BYTES", rows * chunk)
        patch.setattr(construct, "_top_screen", settle_nothing)
        stepped, passes = _steps_spy(patch)
        got = construct._product_tail_sup(
            g.centers() if kind == "points" else g, roots, log_c, lo, hi,
            divisors)
    want = _table_sup_reference(cells, roots, log_c, lo, hi, divisors)
    assert got.shape == (g.height, g.width)
    assert got.ravel().tobytes() == want.tobytes()
    assert max(part.size for part in stepped) <= chunk
    assert np.concatenate(stepped).tolist() == cells.tolist()
    passes = np.concatenate(passes)
    k = _first_roots(cells, roots[:hi])
    assert (passes[k < lo] == hi - lo + 1).all()
    assert (passes >= 1).all()


@pytest.mark.parametrize("case", ["tie", "signed-zero-tie", "nan-order",
                                  "nan-root"])
def test_product_tail_sup_one_order_step_leaves_ties_and_nan_to_the_table(
        case, monkeypatch):
    # every root term at 0 is log 1 = 0, so order n sums to log C_n.
    # "tie": orders 1 and 2 are exactly 1 and the top order 3 is 0, so the
    # screen leaves the cell, and both tied orders reach the step's floor:
    # two candidates, two passes.  "signed-zero-tie": the interleave's
    # divisors 2 and 3 make orders 1 and 2 -0.0 and +0.0, equal as floats,
    # over a top order of -1: the sup takes the sign that the table's
    # running np.maximum over the orders gives, from -inf, as the
    # reference does.  "nan-order": log C_2 is NaN, and "nan-root":
    # roots[1] is NaN, so orders 2 and 3 are NaN there, and so is the sup;
    # the NaN floor makes all three orders candidates
    z, roots = np.array([0j]), _roots_on_circle(1.0, 4)
    lo, hi, divisors = 1, 3, np.ones(3)
    log_c = np.array([1.0, 1.0, 0.0])
    if case == "signed-zero-tie":
        log_c, divisors = np.array([-5e-324, 5e-324, -1.0]), np.array(
            [2.0, 3.0, 1.0])
        assert (log_c[:2] / divisors[:2]).tolist() == [0.0, 0.0]
        assert np.signbit(log_c[:2] / divisors[:2]).tolist() == [True, False]
    elif case == "nan-order":
        log_c[1] = np.nan
    elif case == "nan-root":
        roots[1] = complex(np.nan, 0.0)
    settled, (stepped, passes) = (_screen_spy(monkeypatch),
                                  _steps_spy(monkeypatch))
    with np.errstate(invalid="ignore"):
        got = construct._product_tail_sup(z, roots, log_c, lo, hi, divisors)
    want = _table_sup_reference(z, roots, log_c, lo, hi, divisors)
    assert got.tobytes() == want.tobytes()
    assert [done.tolist() for done in settled] == [[False]]
    assert [c.tolist() for c in stepped] == [[0j]]
    assert [p.tolist() for p in passes] == [[3 if case.startswith("nan-")
                                             else 2]]
    if case.startswith("nan-"):
        assert np.isnan(got[0])
    else:
        assert got[0] == log_c[0] / divisors[0]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", [*sorted(SCREEN_GRIDS), "points"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_on=st.integers(0, 9),
       n_off=st.integers(0, 9), data=st.data())
def test_product_tail_sup_order_bounds_hold_at_every_cell_and_order(
        kind, seed, n_on, n_off, data):
    # over any chunk of the row, the candidate step's LB_n and UB_n bound
    # the table's E_n / d_n at every cell and order n = lo..hi, with the
    # interleave's divisors too: on the cells on a root, whose later
    # orders are -inf, and, as drawn, with a root at infinity (+inf
    # terms, NaN on a cell on a root) and a -inf, +inf or NaN log C_n.
    # There LB_n is NaN, or LB_n <= E_n / d_n <= UB_n, or UB_n is NaN and
    # LB_n = E_n / d_n = -inf.  The root terms come back as read, under a
    # row of zeros
    g = SCREEN_GRIDS["dyadic" if kind == "points" else kind]
    pts = _grid_points(g, seed, n_on, n_off)
    s = countable_set_series(pts).structure
    roots, log_c = np.array(s.points), np.array(s.log_c)
    if data.draw(st.booleans(), label="root at infinity"):
        roots[data.draw(st.integers(0, roots.size - 1), label="at")] = (
            complex(np.inf, 0.0))
    lo = data.draw(st.integers(1, len(pts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(pts) - 1), label="hi")
    log_c = log_c[lo:hi + 1]
    for value in data.draw(st.lists(st.sampled_from(
            [-np.inf, np.inf, np.nan]), max_size=2), label="log C"):
        log_c[data.draw(st.integers(0, hi - lo), label="order")] = value
    parity = data.draw(st.sampled_from([None, 0, 1]), label="parity")
    divisors = (np.arange(lo, hi + 1, dtype=float) if parity is None
                else np.arange(2.0 * lo + parity, 2.0 * hi + parity + 1, 2.0))
    row = construct._RootLogRow(g.centers() if kind == "points" else g)
    start = data.draw(st.integers(0, row.size - 1), label="start")
    at = np.arange(start, data.draw(st.integers(start + 1, row.size),
                                    label="stop"))
    chunk = row[at]
    terms, lower, upper = construct._order_bounds(
        chunk, chunk.locate(roots[:hi]), log_c, lo, hi, divisors)
    assert not terms[0].any()
    with np.errstate(divide="ignore", invalid="ignore"):
        assert terms[1:].tobytes() == np.log(np.abs(
            chunk.points - roots[:hi, None])).tobytes()
    want = _order_table_reference(chunk.points, roots, log_c, lo, hi,
                                  divisors)
    assert lower.shape == upper.shape == want.shape
    bounded = (lower <= want) & (want <= upper)
    floored = np.isnan(upper) & (lower == -np.inf) & (want == -np.inf)
    assert (np.isnan(lower) | bounded | floored).all()
    if np.isfinite(log_c).all() and np.isfinite(roots[:hi]).all():
        assert bounded.all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", [*sorted(SCREEN_GRIDS), "points"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_on=st.integers(0, 9),
       n_off=st.integers(0, 9), data=st.data())
def test_product_tail_sup_screen_bounds_hold_at_every_cell_and_order(
        kind, seed, n_on, n_off, data):
    # over any chunk the screen takes (_screen_chunks, down to one cell or
    # one partial grid row), its UB'_n bounds the table's E_n / d_n at
    # every cell and order n = lo..hi-1: under the default divisors, the
    # interleave's 2n and 2n + 1, and a divisor whose reciprocal is not a
    # normal float; on the cells on a root k < lo or k >= lo, whose orders
    # above k are -inf; and, as drawn, with a root at infinity (+inf
    # terms, NaN on a cell on a root) and a -inf, +inf or NaN log C_n.
    # There UB'_n is +inf or NaN, or E_n / d_n is not NaN and at most
    # UB'_n.  After the last order the running sum is the table's top
    # order, E_hi
    g = SCREEN_GRIDS["dyadic" if kind == "points" else kind]
    pts = _grid_points(g, seed, n_on, n_off)
    s = countable_set_series(pts).structure
    roots, log_c = np.array(s.points), np.array(s.log_c)
    if data.draw(st.booleans(), label="root at infinity"):
        roots[data.draw(st.integers(0, roots.size - 1), label="at")] = (
            complex(np.inf, 0.0))
    lo = data.draw(st.integers(1, len(pts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(pts) - 1), label="hi")
    log_c = log_c[lo:hi + 1]
    for value in data.draw(st.lists(st.sampled_from(
            [-np.inf, np.inf, np.nan]), max_size=2), label="log C"):
        log_c[data.draw(st.integers(0, hi - lo), label="order")] = value
    parity = data.draw(st.sampled_from([None, 0, 1, "huge"]), label="parity")
    divisors = np.arange(lo, hi + 1, dtype=float)
    if parity in (0, 1):
        divisors = np.arange(2.0 * lo + parity, 2.0 * hi + parity + 1, 2.0)
    elif parity == "huge":
        divisors[0] = 2.0 ** 1023  # a subnormal reciprocal
    row = construct._RootLogRow(g.centers() if kind == "points" else g)
    step = data.draw(st.integers(1, row.size), label="step")
    with mock.patch.object(construct, "TABLE_BYTES",
                           construct._CELL_BYTES * step):
        chunks = list(construct._screen_chunks(row))
    _, chunk = chunks[data.draw(st.integers(0, len(chunks) - 1),
                                label="chunk")]
    want = _order_table_reference(chunk.points, roots, log_c, lo, hi,
                                  divisors)
    exact = np.isfinite(log_c).all() and np.isfinite(roots[:hi]).all() and (
        parity != "huge")
    top, orders = np.full(chunk.size, log_c[-1]), []
    with np.errstate(invalid="ignore"):
        for n, bound in construct._top_bounds(
                chunk, chunk.locate(roots[:hi]), top, log_c, lo, hi,
                divisors):
            orders.append(n)
            e = want[n - lo]
            assert (np.isposinf(bound) | np.isnan(bound)
                    | (~np.isnan(e) & (e <= bound))).all()
            if exact:
                assert (e <= bound).all()
    assert orders == list(range(lo, hi))
    top /= divisors[-1]  # the same bits, or NaN both
    assert ((top.view(np.int64) == want[-1].view(np.int64))
            | (np.isnan(top) & np.isnan(want[-1]))).all()


@pytest.mark.parametrize("case", ["subnormal", "tiny-divisor"])
def test_product_tail_sup_screen_bound_covers_underflow(case):
    # the root terms at 0 are log 1 = 0, so order 1 is log C_1 / d_1.
    # "subnormal": log C_1 = 9 * 2^-1074 and d_1 = 6, so order 1 is the
    # tie 1.5 * 2^-1074, which rounds to even, 2 * 2^-1074; fl(1 / 6) is
    # below 1 / 6, so without the margin's 2^-1074, which the product's
    # underflow takes from a margin this small, the bound would be
    # 2^-1074.  "tiny-divisor": 1 / d_1 overflows, so d_1 takes no bound
    # (NaN), where an infinite reciprocal would give -inf below order 1's
    # -1e-10
    z, roots = np.array([0j]), np.array([1.0, -1.0, 1j])
    log_c, divisors = np.array([9 * 2.0 ** -1074, 0.0]), np.array([6.0, 1.0])
    if case == "tiny-divisor":
        log_c[0], divisors[0] = -1e-320, 1e-310
    row = construct._RootLogRow(z)
    want = _order_table_reference(z, roots, log_c, 1, 2, divisors)[0]
    [(n, bound)] = construct._top_bounds(row, row.locate(roots[:2]),
                                         np.full(1, log_c[-1]), log_c, 1, 2,
                                         divisors)
    assert n == 1
    if case == "subnormal":
        assert want[0] == 2 * 2.0 ** -1074 <= bound[0]
    else:
        assert want[0] == log_c[0] / divisors[0] and np.isnan(bound[0])


@pytest.mark.parametrize("kind", ["dyadic", "non-dyadic"])
def test_product_tail_sup_first_roots_on_a_grid_match_the_points(kind):
    # a grid row names the roots at cell centres by their cells, and a row
    # of its centres as points reads every root directly: on both, each
    # cell whose least k with roots[k] at it is in the window, k >= lo,
    # reaches the candidate step, and each cell on a root k < lo, the
    # repeated roots[3] = roots[0] among them, is settled by the screen,
    # at -inf, or at NaN where the top order reads the NaN roots[4].  The
    # sups have the same bits; the other cells the screen leaves may
    # differ, as a row of points bounds each root's direct reads alone
    g = SCREEN_GRIDS[kind]
    centres = g.centers().ravel()
    roots = np.array([centres[9], 0.123 + 0.5j, centres[3], centres[9],
                      complex(np.nan, 0.0), centres[3], centres[20], 7.0])
    if kind == "dyadic":
        assert construct._RootLogRow(g).table is not None
    for lo, hi in ((2, 4), (2, 5)):
        log_c = SQUARES[lo - 1:hi]
        k = _first_roots(centres, roots[:hi])
        assert k[[9, 3, 20]].tolist() == [0, 2, hi]
        sups = []
        for z in (g, g.centers()):
            with pytest.MonkeyPatch.context() as patch:
                settled = _screen_spy(patch)
                stepped, _ = _steps_spy(patch)
                sup = construct._product_tail_sup(z, roots, log_c, lo, hi)
            done = np.concatenate(settled)
            assert done[k < lo].all()
            assert not done[(lo <= k) & (k < hi)].any()
            assert np.isin(centres[(lo <= k) & (k < hi)],
                           np.concatenate(stepped)).all()
            before = sup.ravel()[k < lo]
            assert (np.isneginf(before) if hi == 4 else np.isnan(before)).all()
            sups.append(sup)
        assert sups[0].tobytes() == sups[1].tobytes()
        want = _table_sup_reference(centres, roots, log_c, lo, hi)
        assert sups[0].tobytes() == want.reshape(sups[0].shape).tobytes()


@pytest.mark.parametrize("kind", ["index", "points"])
def test_product_tail_sup_block_reads_equal_per_root_reads(kind):
    # _RootLogRow.block, which the candidate step hands flat rows, fills
    # its (root x cell) array with the bits of reading each root alone,
    # for roots on the offset table's lattice mixed with complex ones off
    # it and outside the box, which every row reads root by root, and for
    # the lattice roots alone, which an index row takes in one gather, a
    # take by 2D keys
    g = SCREEN_GRIDS["dyadic"]
    row = construct._RootLogRow(g.centers() if kind == "points" else g)
    if kind == "index":
        row = row[np.array([0, 5, 17, 40, 41, 127])]
    roots = row.locate(_grid_points(g, 5, 6, 4))
    cell = [r for r in roots if not isinstance(r, complex)]
    assert len(cell) == (0 if kind == "points" else 6)
    for some in (roots, cell):
        reads = []
        with row_reads(lambda name, _, out: reads.append((name, out.shape))):
            got = row.block(some, np.empty((len(some), row.size)))
        want = np.array([row(r, np.empty(row.size)) for r in some])
        assert got.tobytes() == want.tobytes()
        if kind == "index" and some is cell:
            assert reads == [("gather", (6, row.size))]
        else:
            assert len(reads) == len(some)


@pytest.mark.parametrize("rows", [1, 2])
def test_product_tail_sup_gamma_table_takes_row_blocks(rows, monkeypatch):
    # gamma_table's gaps come in blocks of TABLE_BYTES of complex
    # differences: with blocks of one and of two rows, each gamma_n is
    # gamma_sequence's from all pairs at once, bit for bit, the 1 / n cap
    # included, and log C_n follows it.  A repeated point, 0j and -0j
    # among them, raises in whichever block it falls
    pts = [0j, 4.0, 4j, 0.3 - 0.2j, 2.0 + 2.0j, -0.31 + 0.5j, 0.29 - 0.21j,
           5.0, -1.0 - 1.0j]
    monkeypatch.setattr(construct, "TABLE_BYTES", 16 * (len(pts) - 1) * rows)
    gammas, log_c = construct.gamma_table(pts)
    assert gammas.tolist() == [gamma_sequence(pts, n)
                               for n in range(1, len(pts))]
    assert gammas[:2].tolist() == [1.0, 0.5]  # the cap
    assert gammas[-1] < 1 / (len(pts) - 1)
    ns = np.arange(1.0, len(pts))
    assert log_c.tobytes() == (ns * (np.log(ns) - np.log(gammas))).tobytes()
    for again in (pts[6], pts[2], -0j):
        for k in (2, 5, len(pts)):
            with pytest.raises(ValueError, match="pairwise distinct"):
                construct.gamma_table([*pts[:k], again, *pts[k:]])


# 128 x 128 grids, the size of countable-400's and sigma-classify's: the
# dyadic one has an offset table, the other one (pixel 0.021875) has none
CHUNK_GRIDS = {"dyadic": Grid.from_box(-1.0, -1.0, 1.0, 1.0, 128, 128),
               "non-dyadic": Grid.from_box(-1.4, -1.4, 1.4, 1.4, 128, 128)}


@pytest.mark.parametrize("kind", ["dyadic", "non-dyadic", "points"])
@pytest.mark.parametrize("series", ["countable", "blocks"])
def test_product_tail_sup_and_block_screens_chunk_by_read_kind(
        series, kind, monkeypatch):
    # both screens take TABLE_BYTES // _CELL_BYTES cells a chunk, 48 bytes
    # a cell, whatever the read kind: at the default budget of 21,845
    # cells the dyadic grid, whose cell roots all read its table, the
    # non-dyadic grid, whose cell roots are read directly, and its centres
    # as points each go in one chunk.  Each sup equals, bit for bit, the
    # one of a budget that makes every chunk one grid row of 128 cells
    g = CHUNK_GRIDS["dyadic" if kind == "points" else kind]
    centres = g.centers().ravel()
    roots = tuple(centres[np.random.default_rng(7).choice(centres.size, 12,
                                                          replace=False)])
    if series == "countable":
        f = countable_set_series(roots)
    else:
        f = construct.block_series_from_tables(
            [roots], [(0, d) for d in range(1, 13)],
            np.linspace(-1.0, 1.0, 12).tolist(), [12], 0.0, "12 members")
    z = g.centers() if kind == "points" else g
    lo, hi = tail_window(f.max_supported_n)
    sizes, chunks = [], construct._screen_chunks

    def spy(row):
        for at, cells in chunks(row):
            sizes.append(cells.size)
            yield at, cells

    monkeypatch.setattr(construct, "_screen_chunks", spy)
    got = f.structure.tail_sup(z, lo, hi)
    assert construct._CELL_BYTES == 48
    assert construct.TABLE_BYTES // construct._CELL_BYTES == 21845
    assert sizes == [g.width * g.height]
    sizes.clear()
    monkeypatch.setattr(construct, "TABLE_BYTES",
                        construct._CELL_BYTES * g.width)
    one_row = f.structure.tail_sup(z, lo, hi)
    assert sizes == [g.width] * g.height
    assert got.tobytes() == one_row.tobytes()


def _roots_on_circle(radius, count):
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


@pytest.mark.parametrize("case", ["tie", "zero-tie", "signed-zero-tie",
                                  "reversed-zero-tie", "absorbed"])
def test_product_tail_sup_fills_the_table_where_the_screen_cannot_settle(
        case, monkeypatch):
    # "tie": every root term at 0 is log 1 = 0, so orders 1 and 2 both have
    # exponent exactly 1.  "zero-tie": log C_n = 0 as well, so both orders
    # are exactly 0 at 0, and order 1's upper bound is only the margin's
    # 2^-1074 above the top order's exponent; a strict screen would leave
    # the cell to the candidate step even at no margin.  "signed-zero-tie",
    # at 0 alone: log C = (-5e-324, 5e-324) and the interleave's divisors
    # 2 and 3 make order 1 -0.0 and the top order +0.0, equal as floats,
    # so the screen, whose bound for order 1 is a zero too, leaves the
    # cell; "reversed-zero-tie" swaps log C, for +0.0 and -0.0.  Only the
    # order of the fold then decides the sign: the candidate step's
    # running max takes order 1, then order 2, as the reference does.
    # "absorbed", at 0 alone: every root term at 0 is about log 2 and
    # vanishes when added to 2^53, so the top order 10 sums to 2^53,
    # below order 1's 2^53 + 2, whose upper bound keeps the cell
    # unsettled: 0 must take the table's answer, 2^53 + 2, and both orders
    # are candidates, the -inf ones between them not.  3 + 4j has no tie,
    # but its lower order wins, so the screen leaves it as well, to the
    # candidate step, where that order is its one candidate.  Each tie
    # takes two passes
    z = np.array([0.0j, 3.0 + 4.0j])
    if case in ("tie", "zero-tie"):
        roots = _roots_on_circle(1.0, 4)
        lo, hi, divisors = 1, 2, None
        log_c = np.array([1.0, 2.0] if case == "tie" else [0.0, 0.0])
    elif case in ("signed-zero-tie", "reversed-zero-tie"):
        z, roots = z[:1], _roots_on_circle(1.0, 4)
        lo, hi, divisors = 1, 2, np.array([2.0, 3.0])
        log_c = np.array([-5e-324, 5e-324])
        if case == "reversed-zero-tie":
            log_c = -log_c
        orders = log_c / divisors
        assert np.signbit(orders).tolist() == [log_c[0] < 0, log_c[1] < 0]
    else:
        z = z[:1]
        roots = _roots_on_circle(2.0, 11)
        lo, hi, divisors = 1, 10, np.ones(10)
        log_c = np.array([2.0 ** 53 + 2] + [-np.inf] * 8 + [2.0 ** 53])
    settled, (stepped, passes) = (_screen_spy(monkeypatch),
                                  _steps_spy(monkeypatch))
    got = construct._product_tail_sup(z, roots, log_c, lo, hi, divisors)
    want = _table_sup_reference(z, roots, log_c, lo, hi, divisors)
    assert got.tobytes() == want.tobytes()
    assert [done.tolist() for done in settled] == [[False] * z.size]
    assert [c.tolist() for c in stepped] == [z.tolist()]
    assert [p.tolist() for p in passes] == [[2, 1][:z.size]]
    if case == "absorbed":
        assert got[0] == 2.0 ** 53 + 2
    elif case in ("signed-zero-tie", "reversed-zero-tie"):
        assert got[0] == 0
        assert got.tobytes() == np.maximum(np.maximum(-np.inf, orders[:1]),
                                           orders[1:]).tobytes()


SCREEN_ROOTS = np.array([0.4, -0.3 + 0.5j, 0.2 - 0.6j, 0.7j, -0.5,
                         0.9 + 0.1j])
SQUARES = np.arange(1.0, 7.0) ** 2  # log C_n = n^2: the top order wins


@pytest.mark.parametrize("case", ["root-in-window", "root-before-window",
                                  "root-single-order", "root-order-loses",
                                  "nan-order", "nan-top", "rounded-up"])
def test_product_tail_sup_screen_settles_only_where_the_top_order_wins(
        case, monkeypatch):
    # cell 0 is on roots[3] or roots[1], cell 1 = 0.1 + 0.1j is off every
    # root.  "root-in-window": orders 2..3 are finite at roots[3], 4..5
    # are -inf, so the top order 5 loses there and the screen leaves the
    # cell to the candidate step, where order 3 is its one candidate; it
    # settles cell 1.  "root-before-window": every order 3..5 is -inf at
    # roots[1], every bound too, and the screen settles the cell at -inf.
    # "root-single-order": lo = hi = 5, -inf at roots[3] with no other
    # order to compare, settled at -inf.
    # "root-order-loses": log C_2 = 100 puts order 2 above order 3 at
    # roots[3] and above order 5 off the roots, so no cell settles.
    # "nan-order" and "nan-top": log C_3 or log C_5 is NaN, so every
    # cell's sup is NaN.  "rounded-up": every root term at
    # 0 is log 3 > 1, half an ulp of 2^53, so each addition to 2^53 rounds
    # up by 2: order 10 sums to 2^53 + 20 and the top order 11 to
    # 2^53 + 18, but the screen's running sum from log C_11, shifted by
    # log C_10 - log C_11 = 2, reads 2^53 + 18 at order 10, below order
    # 10's own sum, so only the margin and the strict comparison keep the
    # cell from settling on the wrong order.  The cells the screen leaves
    # reach the candidate step, where both cells of "root-order-loses"
    # have one candidate, order 2; a NaN order makes every order a
    # candidate, and so do the two orders of "rounded-up", within their
    # margins of each other
    roots, divisors = SCREEN_ROOTS, None
    cells = np.array([roots[3], 0.1 + 0.1j])
    lo, hi, passes = 2, 5, []
    if case == "root-in-window":
        passes = [1]
    elif case == "root-before-window":
        cells[0], lo = roots[1], 3
    elif case == "root-single-order":
        lo = 5
    elif case == "root-order-loses":
        passes = [1, 1]
    elif case in ("nan-order", "nan-top"):
        passes = [4, 4]
    elif case == "rounded-up":
        cells, roots = np.array([0j]), _roots_on_circle(3.0, 11)
        lo, hi, divisors, passes = 10, 11, np.ones(2), [2]
    log_c = SQUARES[lo - 1:hi].copy()
    if case == "root-order-loses":
        log_c[0] = 100.0
    elif case == "nan-order":
        log_c[3 - lo] = np.nan
    elif case == "nan-top":
        log_c[-1] = np.nan
    elif case == "rounded-up":
        log_c = np.array([2.0 ** 53, 2.0 ** 53 - 2])
    stepped, candidates = _steps_spy(monkeypatch)
    got = construct._product_tail_sup(cells, roots, log_c, lo, hi, divisors)
    want = _table_sup_reference(cells, roots, log_c, lo, hi, divisors)
    assert got.tobytes() == want.tobytes()
    left = cells[:1] if case == "root-in-window" else cells
    assert [c.tolist() for c in stepped] == (
        [left.tolist()] if passes else [])
    assert [p.tolist() for p in candidates] == ([passes] if passes else [])
    if case in ("root-before-window", "root-single-order"):
        assert got[0] == -np.inf
    elif case.startswith("root-"):
        assert np.isfinite(got[0])
    elif case.startswith("nan-"):
        assert np.isnan(got).all()
    else:
        assert got[0] == 2.0 ** 53 + 20


@pytest.mark.parametrize("parity", [0, 1])
def test_product_tail_sup_screen_takes_interleave_divisors(parity,
                                                           monkeypatch):
    # an interleaved child divides order m by 2m or 2m + 1: the screen
    # compares each order's bound with the top order's exponent under
    # those divisors and settles most cells, every cell on a root k < lo
    # among them (-inf in every order); the candidate step takes the few
    # it leaves, the 8 cells on the window's roots k >= lo among them, in
    # one call, each with one candidate order
    f, g = _product_series_on_cells()
    cells, roots = g.centers().ravel(), np.array(f.structure.points)
    lo, hi = 5, f.max_supported_n
    log_c = np.array(f.structure.log_c[lo:hi + 1])
    divisors = np.arange(2.0 * lo + parity, 2.0 * hi + parity + 1, 2.0)
    calls, passes = _steps_spy(monkeypatch)
    got = construct._product_tail_sup(cells, roots, log_c, lo, hi, divisors)
    want = _table_sup_reference(cells, roots, log_c, lo, hi, divisors)
    assert got.tobytes() == want.tobytes()
    k = _first_roots(cells, roots[:hi])
    assert ((k < lo).sum(), (k < hi).sum()) == (3, 11)
    assert len(calls) == len(passes) == 1
    assert not np.isin(cells[k < lo], calls[0]).any()
    assert np.isin(cells[(lo <= k) & (k < hi)], calls[0]).all()
    assert 8 < calls[0].size < cells.size // 8
    assert (passes[0] == 1).all()


def _criterion_2_cells():
    """The criterion-2 scene: its 50 points, then 500 seeded samples at
    least 0.05 from every point."""
    pts = [complex(a, b) / 7 for a in range(-3, 4) for b in range(-3, 4)]
    pts.append(0.5 + 0.5j)
    rng = np.random.default_rng(2)
    samples = []
    while len(samples) < 500:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if min(abs(z - w) for w in pts) >= 0.05:
            samples.append(z)
    return pts, np.array(pts + samples)


def test_product_tail_sup_bounds_only_the_unsettled_cells(monkeypatch):
    # on the criterion-2 scene at N = 49 the screen settles each cell whose
    # top order wins, and the 25 cells on the roots before the window,
    # -inf in every order; the cells it leaves, the 24 on the window's
    # roots and a few others, reach the candidate step together, in one
    # call, each with one candidate order
    pts, cells = _criterion_2_cells()
    f = countable_set_series(pts)
    lo, hi = tail_window(49)
    settled = _screen_spy(monkeypatch)
    calls, passes = _steps_spy(monkeypatch)
    got = f.structure.tail_sup(cells, lo, hi)
    roots = np.array(f.structure.points)
    want = _table_sup_reference(cells, roots,
                                np.array(f.structure.log_c[lo:hi + 1]), lo,
                                hi)
    assert got.tobytes() == want.tobytes()
    done = np.concatenate(settled)
    assert (lo, hi) == (25, 49)
    assert done[:lo].all() and not done[lo:hi].any()
    assert [c.tolist() for c in calls] == [cells[~done].tolist()]
    assert (~done[hi:]).sum() < cells.size // 100
    assert all((p == 1).all() for p in passes)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_product_tail_sup_keeps_nan_and_inf_from_a_root_at_infinity():
    # from order 2 on every order holds the infinite root's +inf term: +inf
    # off the root a, NaN on it (-inf + inf); a NaN order makes a NaN sup.
    # Which NaN a max over a table returns depends on the table's shape,
    # so NaN entries are compared as NaN
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    cells = g.centers().ravel()
    a = cells[21]
    roots = np.array([a, complex(math.inf, 0.0)] + [
        complex(0.1 * k, -0.05 * k) for k in range(1, 16)])
    for lo, hi, divisors in ((1, 16, None), (1, 9, np.arange(2.0, 19.0, 2)),
                             (2, 16, None), (8, 16, None)):
        log_c = 0.5 * np.arange(lo, hi + 1, dtype=float)
        got = construct._product_tail_sup(cells, roots, log_c, lo, hi,
                                          divisors)
        want = _table_sup_reference(cells, roots, log_c, lo, hi, divisors)
        assert np.isnan(want[21]) and np.isposinf(np.delete(want, 21)).all()
        assert np.isnan(got[21])
        assert np.delete(got, 21).tobytes() == np.delete(want, 21).tobytes()


@pytest.mark.parametrize("kind", ["countable"])
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_product_log_mags_match_oracle(kind, chunk, monkeypatch):
    # chunk None keeps the default budget (all cells in one chunk); 1 makes
    # every chunk of _product_tail_sup's screen and candidate step one
    # cell; 7 leaves a partial last screen chunk.  One order n read as
    # tail_sup(z, n, n) with divisor 1 is log|f_n| itself
    f, g = _product_series_on_cells()
    N = f.max_supported_n
    zs = g.centers()
    sup_calls = []
    helper = construct._product_tail_sup

    def spy(*args):
        sup_calls.append(args[3:5])
        return helper(*args)

    monkeypatch.setattr(construct, "_product_tail_sup", spy)
    if chunk is not None:
        monkeypatch.setattr(construct, "TABLE_BYTES",
                            construct._CELL_BYTES * chunk)
    points = np.concatenate([zs.ravel()[::7], f.structure.points])
    for n in range(1, N + 1):
        got = f.structure.tail_sup(points, n, n, np.ones(1))
        assert got.tobytes() == reference_log_mag(f, n, points).tobytes()
    sup_calls.clear()
    omega = full_domain(g)
    for j in (2, 8):
        ok = np.ones(zs.shape, dtype=bool)
        for n in range(1, N + 1):
            ok &= reference_log_mag(f, n, zs) / n <= math.log(j)
        assert np.array_equal(level_set(f, j, N, omega).bits,
                              omega_exhaustion(omega, j).bits & ok)
    # level_set takes one chunked sup over orders 1..N, not an order walk
    assert sup_calls == [(1, N)] * 2


@pytest.mark.parametrize("pair", ["blocks-countable", "countable-blocks",
                                  "blocks-blocks"])
def test_interleave_evaluator_matches_children(pair, monkeypatch):
    # N = 16 and 17 start the tail window on an even and an odd order; each
    # child is evaluated once, by its own tail_sup over its orders in the
    # window, each divided by its interleaved order, and the product child
    # takes its candidate step over exactly the cells its screen leaves,
    # with at least one candidate order at each
    countable, g = _product_series_on_cells()
    compact = compact_set_series(_disk(g, 0.0, 0.0, 0.5), stages=4,
                                 degree_cap=16)
    even, odd = {"blocks-countable": (compact, countable),
                 "countable-blocks": (countable, compact),
                 "blocks-blocks": (compact, _unshared_block_series())}[pair]
    F = construct.interleave(even, odd)
    sups = []
    settled, (stepped, passes) = (_screen_spy(monkeypatch),
                                  _steps_spy(monkeypatch))

    def spy_on_tail_sup(cls):
        helper = cls.tail_sup

        def spy(self, z, lo, hi, divisors=None):
            sups.append((self is even.structure, self is odd.structure, lo,
                         hi, list(divisors)))
            return helper(self, z, lo, hi, divisors)

        monkeypatch.setattr(cls, "tail_sup", spy)

    spy_on_tail_sup(BlockStructure)
    spy_on_tail_sup(CountableStructure)
    for N in (16, 17, F.max_supported_n):
        lo, _ = tail_window(N)
        for calls in (sups, settled, stepped, passes):
            calls.clear()
        _assert_tail_sup_matches_oracle(F, g, N)
        a, b, c, d = (lo + 1) // 2, N // 2, lo // 2, (N - 1) // 2
        assert sups == [
            (True, False, a, b, [2.0 * m for m in range(a, b + 1)]),
            (False, True, c, d, [2.0 * m + 1 for m in range(c, d + 1)])]
        # one screen chunk over the grid's cells per product child
        assert [c.tolist() for c in stepped] == [
            g.centers().ravel()[~done].tolist() for done in settled
            if not done.all()]
        assert [p.size for p in passes] == [c.size for c in stepped]
        assert all((p >= 1).all() for p in passes)


def _interleave_points(F):
    """A 48 x 48 grid's centers, then every root and point of F's
    children."""
    roots = set()
    for child in (F.structure.even, F.structure.odd):
        s = child.structure
        roots |= set(s.points) if isinstance(s, CountableStructure) else {
            r for h in s.members for r in h.roots}
    centers = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48).centers().ravel()
    return np.concatenate([centers, np.array(sorted(roots, key=repr))])


@pytest.mark.parametrize("build", [
    lambda: construct.interleave(hand_block_series(), compact_series()),
    lambda: construct.interleave(countable_series(), sigma_series()),
], ids=["hand-blocks-compact", "countable-sigma"])
def test_interleave_tail_sup_is_bit_identical_to_the_per_order_loop(build):
    # _windows holds lo = 1, where F_1 = g_0 is read apart, and lo = 2
    F = build()
    zs = _interleave_points(F)
    windows = _windows(F.max_supported_n)
    assert {1, 2} <= {lo for lo, _ in windows}
    on_root = False
    for lo, hi in windows:
        got = F.structure.tail_sup(zs, lo, hi)
        assert got.tobytes() == _per_order_sup(F, zs, lo, hi).tobytes()
        on_root |= bool(np.isneginf(got).any())
    assert on_root


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_interleave_tail_sup_rejects_nan_with_the_per_order_message():
    # the countable child's orders m >= 2 are NaN on one cell, and the block
    # child's never; the message names the first offending interleaved
    # order, 2m + 1 for the odd child and 2m for the even one
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    nan = _nan_countable_series(g)
    for F, first in ((construct.interleave(hand_block_series(), nan), 9),
                     (construct.interleave(nan, hand_block_series()), 8)):
        assert np.isnan(F.structure.tail_sup(g.centers(), 8, 16)).any()
        with pytest.raises(RuntimeError, match=f"NaN at n={first},") as fast:
            conv_map(F, g, 16, B=0.0, M=1.0)
        with pytest.raises(RuntimeError) as slow:
            _per_order_nan(F, g.centers(), 8, 16)
        assert str(fast.value) == str(slow.value)


def test_interleave_of_an_oracle_child_matches_the_per_order_loop():
    # lo = 1 reads F_1 = g_0 from the odd series' f0_log_mag
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    f = oracle_series(lambda n, z: np.full(np.shape(z), 0.5 * n),
                      max_supported_n=20)
    for F in (construct.interleave(f, hand_block_series()),
              construct.interleave(construct.interleave(hand_block_series(),
                                                        f), f)):
        got = conv_map(F, g, 16, B=0.0, M=1.0).exponents
        assert got.tobytes() == _per_order_sup(F, g.centers(), 8,
                                               16).tobytes()
        got = F.structure.tail_sup(g.centers(), 1, 16)
        assert got.tobytes() == _per_order_sup(F, g.centers(), 1,
                                               16).tobytes()


@pytest.mark.parametrize("kind", ["blocks", "countable", "interleave"])
def test_entry_points_reject_orders_outside_the_series(kind):
    countable, g = _product_series_on_cells()
    blocks = _unshared_block_series()
    f = {"blocks": blocks, "countable": countable,
         "interleave": construct.interleave(blocks, countable)}[kind]
    top, z, omega = f.max_supported_n, 0.3 + 0.2j, full_domain(g)
    assert np.array_equal(f.structure.tail_sup(z, top, top, np.ones(1)),
                          reference_log_mag(f, top, z))
    with pytest.raises(ValueError, match="must be >= 1"):
        level_set(f, 2, 0, omega)
    for call in (lambda: classify_point(f, z, top + 1, B=0.0, M=1.0),
                 lambda: conv_map(f, g, top + 1, B=0.0, M=1.0),
                 lambda: level_set(f, 2, top + 1, omega)):
        with pytest.raises(ValueError, match=(
                f"N={top + 1} exceeds the series' supported range "
                rf"\(max_supported_n={top}\)")):
            call()


# ------------------------------------------------------------ NaN reports


NAN_GRID = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)


def _nan_blocks():
    # order 10 adds log|a - a| = -inf to the +inf of a root at infinity on
    # the centre a of cell (5, 2)
    h = RootPolynomial((0.2 + 0.0j,), 0.0)
    bad = RootPolynomial((complex(NAN_GRID.centers()[5, 2]),
                          complex(math.inf, 0.0)), 0.0)
    return block_series([h] * 9 + [bad] + [h] * 6, [16], 0.0,
                        "NaN on one cell at order 10")


def _nan_oracle():
    a = NAN_GRID.centers()[5, 2]
    return oracle_series(lambda n, z: np.where(
        (np.asarray(z) == a) & (n >= 3), np.nan, -1.0 * n))


def _nan_f0_interleave():
    # F_1 = g_0, and g's constant term is NaN on every cell
    g = block_series([RootPolynomial((0.2 + 0.0j,), 0.0)] * 9, [9], math.nan,
                     "NaN constant term")
    return construct.interleave(hand_block_series(), g)


# kind: (series, first NaN order in the tail window [8, 16] or None when
# it has none, first NaN order in 1..16, first NaN cell at that order)
NAN_CASES = {
    "blocks": (_nan_blocks, 10, 10, (5, 2)),
    "countable": (lambda: _nan_countable_series(NAN_GRID), 8, 2, (5, 2)),
    "oracle": (_nan_oracle, 8, 3, (5, 2)),
    "interleave-even": (lambda: construct.interleave(
        _nan_countable_series(NAN_GRID), hand_block_series()), 8, 4, (5, 2)),
    "interleave-odd": (lambda: construct.interleave(
        hand_block_series(), _nan_countable_series(NAN_GRID)), 9, 5, (5, 2)),
    "interleave-f0": (_nan_f0_interleave, None, 1, (0, 0)),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("kind", list(NAN_CASES))
def test_nan_is_reported_at_its_first_order_in_the_range_read(kind, chunked,
                                                              monkeypatch):
    # the messages are those each entry point gave while structures still
    # had a per-order evaluator, but with a plain int index, and with the
    # interleave's own order where that named its child's.  With
    # TABLE_BYTES = 128 every evaluator takes the cells in chunks, and the
    # NaN cell (5, 2), flat index 42, falls in a later one.
    # classify_points reads the cells from flat index 30 on
    if chunked:
        monkeypatch.setattr(construct, "TABLE_BYTES", construct._CELL_BYTES)
    build, window_n, full_n, cell = NAN_CASES[kind]
    f, zs = build(), NAN_GRID.centers()
    points = zs.ravel()[30:]
    reads = [(lambda: conv_map(f, NAN_GRID, 16, B=0.0, M=1.0), zs, 8,
              window_n, cell),
             (lambda: classify_points(f, points, 16, B=0.0, M=1.0), points,
              8, window_n, (cell[0] * 8 + cell[1] - 30,)),
             (lambda: level_set(f, 2, 16, full_domain(NAN_GRID)), zs, 1,
              full_n, cell)]
    for read, cells, lo, n, index in reads:
        if n is None:
            read()
            continue
        with pytest.raises(RuntimeError) as exc:
            read()
        assert str(exc.value) == ("coefficient oracle produced NaN at "
                                  f"n={n}, first offending entry index "
                                  f"{index}")
        with pytest.raises(RuntimeError) as slow:
            _per_order_nan(f, cells, lo, 16)
        assert str(exc.value) == str(slow.value)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("lo, hi", [(8, 16), (1, 16), (10, 10), (1, 10),
                                    (10, 16)])
def test_nan_report_bisects_the_range_with_tail_sup(lo, hi, monkeypatch):
    # one tail_sup over all cells, then the NaN cell alone: bisection for
    # order 10, the first NaN one, then order 10 by itself
    calls = []
    helper = BlockStructure.tail_sup

    def spy(self, z, a, b, divisors=None):
        calls.append((np.size(z), a, b))
        return helper(self, z, a, b, divisors)

    monkeypatch.setattr(BlockStructure, "tail_sup", spy)
    with pytest.raises(RuntimeError, match=r"NaN at n=10, .* \(5, 2\)$"):
        _sup(_nan_blocks(), NAN_GRID.centers(), lo, hi)
    assert len(calls) <= math.ceil(math.log2(hi - lo + 1)) + 2
    assert calls[0] == (64, lo, hi)
    assert calls[-1] == (1, 10, 10)
    assert {size for size, _, _ in calls[1:]} == {1}
