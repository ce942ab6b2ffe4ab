"""Growth exponents, three-way verdicts, verdict maps, and level sets."""

import math

import numpy as np
import pytest

from sigmaconv import (COMPACT, CoefficientSeries, Grid, Verdict,
                       classify_point, classify_points, conv_map, default_b,
                       full_domain, growth_exponent, level_set,
                       rasterize_scene, shapes, tail_window)
from sigmaconv import (PointSequence, RootPolynomial, ascending_decomposition,
                       block_series, compact_set_series, countable_set_series,
                       enumeration_series, load_series, omega_exhaustion,
                       polynomial_hull, save_series, sigma_convex_series)
from sigmaconv import construct
from sigmaconv.construct import (ScaledProductStructure,
                                 scaled_product_from_tables)
from sigmaconv.series import MIN_N


def _log_abs(z):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.asarray(z, dtype=complex)))


def power_series():
    """f_n(z) = z^n."""
    return CoefficientSeries(lambda n, z: n * _log_abs(z),
                             description="z^n")


def super_series():
    """f_n(z) = n^n z^n."""

    def oracle(n, z):
        base = n * _log_abs(z)
        if n == 0:
            return np.zeros_like(base)
        return n * math.log(n) + base

    return CoefficientSeries(oracle, description="n^n z^n")


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
    zero = CoefficientSeries(lambda n, z: np.full(np.shape(np.asarray(z)),
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
    capped = CoefficientSeries(lambda n, z: n * _log_abs(z),
                               max_supported_n=10)
    with pytest.raises(ValueError):
        classify_point(capped, 1.0, N=16, B=0.0, M=1.0)


def test_nan_oracle_rejected():
    bad = CoefficientSeries(
        lambda n, z: np.full(np.shape(np.asarray(z)), np.nan))
    with pytest.raises(RuntimeError, match="NaN"):
        growth_exponent(bad, 1.0, N=8)


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
    big = CoefficientSeries(
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


def _oracle_tail_sup(series, zs, N):
    """Reference tail sup: order by order through the per-order oracle."""
    lo, _ = tail_window(N)
    sup = np.full(zs.shape, -np.inf)
    for n in range(lo, N + 1):
        np.maximum(sup, series.log_mag(n, zs) / n, out=sup)
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
    f = compact_set_series(_disk(g, 0.0, 0.0, 0.7), g, stages=5,
                           degree_cap=24)
    mid = [N for N in range(MIN_N, f.max_supported_n + 1)
           if f.structure.block_of(tail_window(N)[0])[1] > 1]
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


def test_block_evaluator_restarts_when_members_share_no_prefix():
    a, b, c, d = 0.3 + 0.1j, -0.5 + 0.2j, 0.1 - 0.7j, -0.2 - 0.2j
    members = [RootPolynomial((a,), 0.1), RootPolynomial((b, c), -0.2),
               RootPolynomial((b,), 0.3), RootPolynomial((b,), 0.0),
               RootPolynomial((d, a, c), -0.4), RootPolynomial((d, a), 0.2),
               RootPolynomial((c, d, a, b), -1.0), RootPolynomial((), 0.5),
               RootPolynomial((a, b), 0.0)]
    f = block_series(members, [4, 5], 0.0, "no shared prefixes")
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


def test_level_set_of_block_series_matches_oracle():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
    f = compact_set_series(_disk(g, 0.0, 0.0, 0.7), g, stages=4,
                           degree_cap=24)
    omega = full_domain(g)
    N = f.max_supported_n
    E = level_set(f, 2, N, omega)
    zs = g.centers()
    ok = np.ones(zs.shape, dtype=bool)
    for n in range(1, N + 1):
        ok &= f.log_mag(n, zs) / n <= math.log(2)
    assert np.array_equal(E.bits, omega_exhaustion(omega, 2).bits & ok)


def _product_series_on_cells(kind):
    """A countable or scaled-product series on 21 points, 12 of them exact
    cell centers of the returned 15 x 13 grid (so those cells sit on roots
    and get exact -inf terms), the rest off the cell lattice."""
    g = Grid.from_box(-1.5, -1.3, 1.5, 1.3, 15, 13)
    centers = g.centers().ravel()
    rng = np.random.default_rng(4)
    on = centers[rng.choice(centers.size, 12, replace=False)]
    off = rng.uniform(-1.4, 1.4, 9) + 1j * rng.uniform(-1.2, 1.2, 9)
    pts = [complex(z) for pair in zip(on, off) for z in pair]
    pts += [complex(z) for z in on[len(off):]]
    seq = PointSequence.from_points(pts)
    if kind == "countable":
        return countable_set_series(seq), g
    scales = [math.exp(0.7 * n) / (n + 1) for n in range(len(pts) + 1)]
    return enumeration_series(seq, scales), g


@pytest.mark.parametrize("kind", ["countable", "scaled-product"])
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_product_evaluator_matches_oracle(kind, chunk, monkeypatch):
    # chunk None keeps the default table budget (all 195 cells in one
    # chunk); 1 makes every chunk one cell; 7 leaves a partial last chunk
    f, g = _product_series_on_cells(kind)
    calls = []
    helper = construct._product_tail_sup

    def spy(*args):
        calls.append(args[3:])
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


@pytest.mark.parametrize("kind", ["countable", "scaled-product"])
def test_product_conv_map_agrees_with_classify_point(kind):
    f, g = _product_series_on_cells(kind)
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
        complex(0.1 * k, -0.05 * k) for k in range(1, 15))
    f = scaled_product_from_tables(
        ScaledProductStructure(pts, tuple(0.5 * n for n in range(17))))
    N = f.max_supported_n
    lo, _ = tail_window(N)
    with pytest.raises(RuntimeError, match=f"NaN at n={lo},") as fast:
        conv_map(f, g, N, B=0.0, M=1.0)
    with pytest.raises(RuntimeError) as slow:
        _oracle_tail_sup(f, g.centers(), N)
    assert str(fast.value) == str(slow.value)
