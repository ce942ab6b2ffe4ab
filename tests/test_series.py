"""Growth exponents, three-way verdicts, verdict maps, and level sets."""

import math
from itertools import accumulate

import numpy as np
import pytest

from sigmaconv import (COMPACT, Grid, Verdict,
                       classify_point, classify_points, conv_map, default_b,
                       full_domain, growth_exponent, level_set,
                       rasterize_scene, shapes, tail_window)
from sigmaconv import (PointSequence, RootPolynomial, ascending_decomposition,
                       block_series, compact_set_series, countable_set_series,
                       leja_points, load_series, omega_exhaustion,
                       polynomial_hull, save_series, sigma_convex_series)
from sigmaconv import construct
from sigmaconv.construct import (BlockStructure, CountableStructure,
                                 InterleaveStructure,
                                 countable_series_from_tables)
from sigmaconv.series import MIN_N, _log_mags, reject_nan
from conftest import oracle_series
from test_io import (compact_series, countable_series, hand_block_series,
                     loaded_hand_block_series, make_decomposition,
                     sigma_series)


def _log_abs(z):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.asarray(z, dtype=complex)))


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
    prof = growth_exponent(power_series(), 2.0 + 0.0j, N=32)
    assert prof.sup_estimate == pytest.approx(math.log(2))
    assert prof.tail_window == (16, 32)
    assert len(prof.exponents) == 32  # n = 1..N, n=0 excluded


def test_growth_exponent_of_super_series():
    prof = growth_exponent(super_series(), 1.0 + 0.0j, N=32)
    assert prof.sup_estimate == pytest.approx(math.log(32))


def test_growth_exponent_all_zero_tail():
    zero = oracle_series(lambda n, z: np.full(np.shape(np.asarray(z)),
                                              -np.inf))
    prof = growth_exponent(zero, 0.3 + 0.1j, N=16)
    assert prof.sup_estimate == -math.inf


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
    with pytest.raises(RuntimeError, match="NaN"):
        growth_exponent(bad, 1.0, N=8)


def test_nan_before_the_tail_window_only_classify_point_reads():
    # conv_map reads only the tail window [8, 16]; classify_point goes
    # through growth_exponent, which evaluates every order 1..16
    def oracle(n, z):
        return np.full(np.shape(np.asarray(z)), np.nan if n == 2 else -1.0)

    f = oracle_series(oracle)
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 4, 4)
    cmap = conv_map(f, g, N=16, B=0.0, M=1.0)
    assert int((cmap.verdicts == Verdict.CONVERGE).sum()) == 16
    with pytest.raises(RuntimeError, match="NaN at n=2,"):
        classify_point(f, complex(g.centers()[0, 0]), N=16, B=0.0, M=1.0)


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
            z = g.cell_center(i, j)
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
    f = countable_set_series(PointSequence.from_points(pts))
    g = Grid.from_box(-4.0, -4.0, 4.0, 4.0, 64, 64)
    E = level_set(f, j=8, N=f.max_supported_n, omega=full_domain(g))
    i, j = g.index_of(pts[0])
    # z_1's cell center is not exactly the root; check the root cell joins
    # once j clears the finite coefficient values there
    assert E.bits[j, i] or not E.is_empty()


def test_monotone_truncation_on_stored_exponents():
    """Rebuilding verdicts from one stored exponent profile at growing N:
    a diverge verdict never flips to converge (the countable-set series has
    eventually increasing exponents off the root set)."""
    pts = tuple(complex(x, y) for x in (-0.5, 0.0, 0.5, 1.0)
                for y in (-0.5, 0.5)) + (0.25 + 0.0j, -0.25 + 0.0j)
    f = countable_set_series(PointSequence.from_points(pts))
    B, M = 0.0, math.log(4.0)
    for z in (1.7 + 1.1j, -1.3 - 0.8j, 0.1 + 1.9j):
        full = growth_exponent(f, z, N=f.max_supported_n)
        exps = full.exponents  # exps[n-1] is the order-n exponent
        seen_diverge = False
        for N in range(8, f.max_supported_n + 1):
            lo, hi = tail_window(N)
            sup = max(exps[lo - 1:hi])
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


def _reference_log_mag(series, n, z):
    """log|f_n(z)| of a block, product or interleave series, evaluated for
    order n alone and independently of the structure's own evaluator."""
    s = series.structure
    if isinstance(s, InterleaveStructure):
        return _reference_log_mag(s.odd if n % 2 else s.even, n // 2, z)
    zs = np.asarray(z, dtype=complex)
    if isinstance(s, BlockStructure):
        if n == 0:
            return np.full(zs.shape, s.f0_log_mag)
        return n * np.asarray(s.members[n - 1].log_abs(zs))
    total = np.full(zs.shape, s.log_c[n])  # log C_n, then roots in order
    for r in s.points[:n]:
        total += _log_abs(zs - r)
    return reject_nan(total, n)


def _oracle_tail_sup(series, zs, N):
    """Reference tail sup: order by order through the reference values."""
    lo, _ = tail_window(N)
    sup = np.full(zs.shape, -np.inf)
    for n in range(lo, N + 1):
        np.maximum(sup, _reference_log_mag(series, n, zs) / n, out=sup)
    return sup


def _assert_tail_sup_matches_oracle(series, grid, N):
    cmap = conv_map(series, grid, N, B=0.0, M=1.0)
    assert np.array_equal(cmap.exponents,
                          _oracle_tail_sup(series, grid.centers(), N))


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


def _per_order_sup(series, zs, lo, hi):
    """The per-order loop of series._sup, over the structure's log_mags."""
    sup = np.full(zs.shape, -np.inf)
    for n, lm in _log_mags(series, zs, lo, hi):
        np.maximum(sup, lm / n, out=sup)
    return sup


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
    # the per-order loop above is the reference for tail_sup, so log_mags
    # itself is checked against evaluating each member on its own
    f = build()
    zs = _points_on_and_off_roots(f)
    n = f.max_supported_n
    for lo, hi in ((0, n), (n // 2, n), (2, 3)):
        got = list(f.structure.log_mags(zs, lo, hi))
        assert len(got) == hi - lo + 1
        for k, values in enumerate(got, lo):
            assert values.tobytes() == _reference_log_mag(f, k, zs).tobytes()


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
    # a 100-entry block budget splits the 2304 + roots cells into chunks of
    # at most 100, the last one partial
    f = build()
    zs = _points_on_and_off_roots(f)
    monkeypatch.setattr(construct, "TABLE_BYTES", 800)
    for lo, hi in (tail_window(f.max_supported_n), (1, f.max_supported_n)):
        got = f.structure.tail_sup(zs, lo, hi)
        assert got.tobytes() == _per_order_sup(f, zs, lo, hi).tobytes()


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
        assert s.sequences[i] == leja_points(E, 16).points[:len(
            s.sequences[i])]
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
        ok &= _reference_log_mag(f, n, zs) / n <= math.log(2)
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
    return countable_set_series(PointSequence.from_points(pts)), g


@pytest.mark.parametrize("kind", ["countable"])
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_product_evaluator_matches_oracle(kind, chunk, monkeypatch):
    # chunk None keeps the default table budget (all 195 cells in one
    # chunk); 1 makes every chunk one cell; 7 leaves a partial last chunk
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
                                8 * (hi - lo + 1) * chunk)
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_product_evaluator_rejects_nan_with_the_oracle_message():
    # order n >= 2 adds -inf (the cell on root a) to +inf (the infinite
    # root), so the first offending tail order is lo itself
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    a = complex(g.centers()[5, 2])
    pts = (a, complex(math.inf, 0.0)) + tuple(
        complex(0.1 * k, -0.05 * k) for k in range(1, 16))
    f = countable_series_from_tables(CountableStructure(
        pts, tuple(0.5 * n for n in range(17)), (0.5,) * 16))
    N = f.max_supported_n
    lo, _ = tail_window(N)
    with pytest.raises(RuntimeError, match=f"NaN at n={lo},") as fast:
        conv_map(f, g, N, B=0.0, M=1.0)
    with pytest.raises(RuntimeError) as slow:
        _oracle_tail_sup(f, g.centers(), N)
    assert str(fast.value) == str(slow.value)
    # level_set's sup starts at order 1, so its first offending order is 2
    with pytest.raises(RuntimeError, match="NaN at n=2,") as fast:
        level_set(f, 1, N, full_domain(g))
    with pytest.raises(RuntimeError) as slow:
        for n in range(1, N + 1):
            _reference_log_mag(f, n, g.centers())
    assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("kind", ["countable"])
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_product_log_mags_match_oracle(kind, chunk, monkeypatch):
    # chunk None keeps the default table budget (all orders, or all cells,
    # in one chunk); 1 makes every chunk one order (one cell for level_set);
    # 7 leaves a partial last chunk
    f, g = _product_series_on_cells()
    N = f.max_supported_n
    zs = g.centers()
    calls, sup_calls = [], []

    def spy_on(name, log):
        helper = getattr(construct, name)

        def spy(*args):
            log.append(args[3:5])
            return helper(*args)

        monkeypatch.setattr(construct, name, spy)

    spy_on("_product_log_mags", calls)
    spy_on("_product_tail_sup", sup_calls)
    if chunk is not None:
        monkeypatch.setattr(construct, "TABLE_BYTES", 8 * chunk)
    points = [complex(z) for z in zs.ravel()[::7]] + list(f.structure.points)
    for z in points:
        oracle = [_reference_log_mag(f, n, z) / n for n in range(1, N + 1)]
        assert np.array_equal(growth_exponent(f, z, N).exponents, oracle)
    assert calls == [(1, N)] * len(points)
    if chunk is not None:
        monkeypatch.setattr(construct, "TABLE_BYTES", 8 * N * chunk)
    omega = full_domain(g)
    for j in (2, 8):
        ok = np.ones(zs.shape, dtype=bool)
        for n in range(1, N + 1):
            ok &= _reference_log_mag(f, n, zs) / n <= math.log(j)
        assert np.array_equal(level_set(f, j, N, omega).bits,
                              omega_exhaustion(omega, j).bits & ok)
    # level_set takes one chunked sup over orders 1..N, not an order walk
    assert calls == [(1, N)] * len(points)
    assert sup_calls == [(1, N)] * 2


@pytest.mark.parametrize("pair", ["blocks-countable", "countable-blocks",
                                  "blocks-blocks"])
def test_interleave_evaluator_matches_children(pair, monkeypatch):
    # N = 16 and 17 start the tail window on an even and an odd order; each
    # child is evaluated once, by its own tail_sup over its orders in the
    # window, each divided by its interleaved order
    countable, g = _product_series_on_cells()
    compact = compact_set_series(_disk(g, 0.0, 0.0, 0.5), stages=4,
                                 degree_cap=16)
    even, odd = {"blocks-countable": (compact, countable),
                 "countable-blocks": (countable, compact),
                 "blocks-blocks": (compact, _unshared_block_series())}[pair]
    F = construct.interleave(even, odd)
    walks, sups, tables = [], [], []
    walk, table = construct._log_mags, construct._product_table

    def walk_spy(series, z, lo, hi):
        walks.append((series is even, series is odd, lo, hi))
        return walk(series, z, lo, hi)

    def table_spy(*args):
        tables.append(args[3:])
        return table(*args)

    def spy_on_tail_sup(cls):
        helper = cls.tail_sup

        def spy(self, z, lo, hi, divisors=None):
            sups.append((self is even.structure, self is odd.structure, lo,
                         hi, list(divisors)))
            return helper(self, z, lo, hi, divisors)

        monkeypatch.setattr(cls, "tail_sup", spy)

    monkeypatch.setattr(construct, "_log_mags", walk_spy)
    monkeypatch.setattr(construct, "_product_table", table_spy)
    spy_on_tail_sup(BlockStructure)
    spy_on_tail_sup(CountableStructure)
    for N in (16, 17, F.max_supported_n):
        lo, _ = tail_window(N)
        walks.clear()
        sups.clear()
        tables.clear()
        _assert_tail_sup_matches_oracle(F, g, N)
        assert walks == []  # no child is walked order by order
        a, b, c, d = (lo + 1) // 2, N // 2, lo // 2, (N - 1) // 2
        assert sups == [
            (True, False, a, b, [2.0 * m for m in range(a, b + 1)]),
            (False, True, c, d, [2.0 * m + 1 for m in range(c, d + 1)])]
        product_sups = [s[2:4] for s in sups
                        if (s[0] and even is countable)
                        or (s[1] and odd is countable)]
        assert tables == product_sups  # one table per child, not per order


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
    # the countable child's orders n >= 2 are NaN on a cell on its root a,
    # and the block child's never; the first offending interleaved order
    # is that of the child's first NaN order in the window
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    a = complex(g.centers()[5, 2])
    pts = (a, complex(math.inf, 0.0)) + tuple(
        complex(0.1 * k, -0.05 * k) for k in range(1, 16))
    nan = countable_series_from_tables(CountableStructure(
        pts, tuple(0.5 * n for n in range(17)), (0.5,) * 16))
    for F in (construct.interleave(hand_block_series(), nan),
              construct.interleave(nan, hand_block_series())):
        assert np.isnan(F.structure.tail_sup(g.centers(), 8, 16)).any()
        with pytest.raises(RuntimeError) as fast:
            conv_map(F, g, 16, B=0.0, M=1.0)
        with pytest.raises(RuntimeError) as slow:
            _per_order_sup(F, g.centers(), 8, 16)
        assert str(fast.value) == str(slow.value)


def test_interleave_without_a_child_tail_sup_walks_the_orders():
    g = Grid.from_box(-1.0, -1.0, 1.0, 1.0, 8, 8)
    f = oracle_series(lambda n, z: np.full(np.shape(z), 0.5 * n),
                      max_supported_n=20)
    for F in (construct.interleave(f, hand_block_series()),
              construct.interleave(construct.interleave(hand_block_series(),
                                                        f), f)):
        assert F.structure.tail_sup is None
        got = conv_map(F, g, 16, B=0.0, M=1.0).exponents
        assert got.tobytes() == _per_order_sup(F, g.centers(), 8,
                                               16).tobytes()


@pytest.mark.parametrize("kind", ["blocks", "countable", "interleave"])
def test_entry_points_reject_orders_outside_the_series(kind):
    countable, g = _product_series_on_cells()
    blocks = _unshared_block_series()
    f = {"blocks": blocks, "countable": countable,
         "interleave": construct.interleave(blocks, countable)}[kind]
    top, z, omega = f.max_supported_n, 0.3 + 0.2j, full_domain(g)
    assert np.array_equal(f.log_mag(top, z), _reference_log_mag(f, top, z))
    with pytest.raises(ValueError, match="must be >= 0"):
        f.log_mag(-1, z)
    for call in (lambda: f.log_mag(top + 1, z),
                 lambda: growth_exponent(f, z, top + 1),
                 lambda: level_set(f, 2, top + 1, omega)):
        with pytest.raises(ValueError, match=(
                f"N={top + 1} exceeds the series' supported range "
                rf"\(max_supported_n={top}\)")):
            call()
