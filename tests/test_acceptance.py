"""Acceptance gate: eight end-to-end checks at fixed scenes and budgets.

Every test prints exactly one [PASS]/[FAIL] line (visible with ``pytest -s``
and in failure reports) and then asserts it.  All randomness is seeded, so
the verdicts and fractions below are reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from sigmaconv import (COMPACT, DOMAIN, OPEN, Grid,
                       RegionMask, Verdict, ascending_decomposition,
                       classify_points, compact_set_series,
                       conv_map, countable_set_series,
                       distance_to, hull_escape_exhibit,
                       interleave, load_series, neighborhood,
                       polynomial_hull, rasterize_scene, save_series,
                       set_distance, shapes,
                       slice_holomorphically_convex, tail_window,
                       u_neighborhood_trap)
from sigmaconv.harness import (construct_sigma, map_vs_mask_agreement,
                               parse_scene)
from conftest import (complement_components, disk_growth_series,
                      random_polyomino, separating_family, verify_family)


def _crit(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def box_grid(side):
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, side, side)


def test_criterion_1_hull_law_suite():
    """Containment, idempotence, no bounded complement, monotonicity, and
    disjoint additivity over 200 seeded random polyominoes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    sizes = [32, 64, 128, 256]
    violations = 0
    qualified = 0
    for i in range(100):
        side = sizes[i % 4]
        g = box_grid(side)
        A = random_polyomino(rng, g, max(12, side * side // 160))
        B = random_polyomino(rng, g, max(12, side * side // 160))
        hA, hB = polynomial_hull(A), polynomial_hull(B)
        if not (A.subset_of(hA) and B.subset_of(hB)):
            violations += 1
        if not polynomial_hull(hA).same_cells(hA):
            violations += 1
        if complement_components(hA)[2].size != 0:
            violations += 1
        hAB = polynomial_hull(A.union(B))
        if not hA.subset_of(hAB):
            violations += 1
        if set_distance(hA, hB) > 2 * g.pixel:
            qualified += 1
            if not hAB.same_cells(hA.union(hB)):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and qualified >= 30 and elapsed < 30.0
    assert _crit(1, ok,
                 f"200 masks, {violations} law violations, additivity on "
                 f"{qualified}/100 separated pairs, {elapsed:.1f}s")


def test_criterion_2_countable_root_verdicts():
    """Verdicts of the countable-set series at its 50 rational roots and at
    500 far samples, N = 49, M = log 16.

    The coefficient of order n vanishes at root z_k exactly when n >= k,
    and the classifier reads only the tail window [lo, N] = tail_window(49),
    lo = 25.  So the window is all -inf at z_k precisely for k <= lo: those
    roots must converge with the exact -inf certificate.  For k > lo the
    non-vanishing order k - 1 lies in the window and its scale C_{k-1} puts
    the finite tail sup above M: those roots must diverge.  Every far sample
    sees no vanishing at all, so at least 99% of them must diverge.
    """
    t0 = time.perf_counter()
    pts = [complex(a, b) / 7 for a in range(-3, 4) for b in range(-3, 4)]
    pts.append(0.5 + 0.5j)
    assert len(set(pts)) == 50
    f = countable_set_series(pts)
    B, M = 0.0, math.log(16.0)
    lo, _ = tail_window(49)
    root_verdicts = classify_points(f, np.array(pts), N=49, B=B, M=M)
    sups = f.structure.tail_sup(np.array(pts), *tail_window(49))
    early = range(lo)
    late = range(lo, len(pts))
    conv = sum(1 for i in early
               if root_verdicts[i] == Verdict.CONVERGE and sups[i] == -math.inf)
    div = sum(1 for i in late
              if root_verdicts[i] == Verdict.DIVERGE and math.isfinite(sups[i]))
    rng = np.random.default_rng(2)
    samples = []
    while len(samples) < 500:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if min(abs(z - w) for w in pts) >= 0.05:
            samples.append(z)
    far = classify_points(f, np.array(samples), N=49, B=B, M=M)
    div_frac = float((far == Verdict.DIVERGE).mean())
    elapsed = time.perf_counter() - t0
    ok = (conv == len(early) and div == len(late) and div_frac >= 0.99
          and elapsed < 10.0)
    assert _crit(2, ok,
                 f"converge {conv}/{len(early)} roots k <= {lo} (exact -inf), "
                 f"diverge {div}/{len(late)} roots k > {lo}, "
                 f"diverge {div_frac:.3f} of 500 far samples, {elapsed:.1f}s")


def test_criterion_3_interleave_is_exact_and(tmp_path):
    """Interleaving two stored disk-map series: the merged verdict map must
    equal the cell-wise AND wherever both inputs are decided, exactly."""
    t0 = time.perf_counter()
    g = box_grid(64)
    save_series(disk_growth_series(-0.45 + 0.0j, 0.8, 32), tmp_path / "a.json")
    save_series(disk_growth_series(0.45 + 0.0j, 0.8, 32), tmp_path / "b.json")
    fa = load_series(tmp_path / "a.json")
    fb = load_series(tmp_path / "b.json")
    F = interleave(fa, fb)
    B, M = math.log(1.05), math.log(1.5)
    ma = conv_map(fa, g, N=32, B=B, M=M)
    mb = conv_map(fb, g, N=32, B=B, M=M)
    # doubled indices halve the exponents; the odd entries in the merged
    # tail window carry index floor((n-1)/2) over n, smallest at m_lo
    m_lo = min((n - 1) // 2 for n in range(33, 65) if n % 2 == 1)
    mF = conv_map(F, g, N=64, B=B / 2, M=(M * m_lo) / (2 * m_lo + 1))
    decided = (ma.verdicts != Verdict.UNDETERMINED) \
        & (mb.verdicts != Verdict.UNDETERMINED)
    both = (ma.verdicts == Verdict.CONVERGE) & (mb.verdicts == Verdict.CONVERGE)
    want = np.where(both, np.int8(Verdict.CONVERGE), np.int8(Verdict.DIVERGE))
    exact = bool(np.array_equal(mF.verdicts[decided], want[decided]))
    elapsed = time.perf_counter() - t0
    ok = exact and int(both.sum()) > 0 and elapsed < 10.0
    assert _crit(3, ok,
                 f"AND exact on {int(decided.sum())} decided cells (lens "
                 f"{int(both.sum())} cells), {elapsed:.1f}s")


def test_criterion_4_unit_disk_families_and_map():
    """Unit disk on a 256x256 raster of [-2,2]^2, 8 stages, degree cap 64:
    stage families bounded by 1 on K and reaching m on their shells, and
    the final verdict map matching K away from a 3-pixel band."""
    t0 = time.perf_counter()
    g = box_grid(256)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 1.0))],
                                        g, kind=COMPACT))
    dist_k = distance_to(K)
    abs_z = np.abs(g.centers())
    fam_ok = True
    for m in range(1, 9):
        U = neighborhood(K, 1.0 / m)
        shell = RegionMask(g, (dist_k > 1.0 / m) & (abs_z <= m) & ~U.bits,
                           OPEN)
        fam = separating_family(K, shell, m, 64)
        fam_ok = (fam_ok and verify_family(fam, K, shell, m)
                  and fam.uncovered.is_empty())
    series = compact_set_series(K, stages=8, degree_cap=64)
    cmap = conv_map(series, g, N=series.max_supported_n,
                    B=math.log(1.2), M=math.log(1.8))
    d_out = distance_to(RegionMask(g, ~K.bits, OPEN))
    clear = (dist_k > 3 * g.pixel) | (d_out > 3 * g.pixel)
    want = np.where(K.bits, np.int8(Verdict.CONVERGE),
                    np.int8(Verdict.DIVERGE))
    agree = float((cmap.verdicts[clear] == want[clear]).mean())
    elapsed = time.perf_counter() - t0
    ok = fam_ok and agree >= 0.99 and elapsed < 120.0
    assert _crit(4, ok,
                 f"8 stage families verified (all covered), map agreement "
                 f"{agree:.6f} beyond band, {series.max_supported_n} "
                 f"members, {elapsed:.1f}s")


def test_criterion_5_three_disk_decomposition():
    """Three disks (two disjoint, one nested in the first): ascending
    stages to n = 20, near-total coverage of the union, and neighborhood
    traps within 1/(3m) plus a 2-pixel band."""
    t0 = time.perf_counter()
    g = box_grid(128)

    def disk(cx, cy, r):
        return polynomial_hull(rasterize_scene(
            [(1, shapes.Disk(cx, cy, r))], g, kind=COMPACT))

    K_list = [disk(-0.8, 0.0, 0.5), disk(0.9, 0.0, 0.4),
              disk(-0.8, 0.1, 0.2)]
    dec = ascending_decomposition(K_list, 20)
    ascending = all(dec.E_list[i].subset_of(dec.E_list[i + 1])
                    for i in range(19))
    union = K_list[0].union(K_list[1]).union(K_list[2])
    cover = dec.E_list[0]
    for E in dec.E_list[1:]:
        cover = cover.union(E)
    interior = union.bits & (
        distance_to(RegionMask(g, ~union.bits, OPEN)) > 2 * g.pixel)
    coverage = float(cover.bits[interior].mean())
    traps_ok = all(
        u_neighborhood_trap(dec, m).subset_of(
            neighborhood(union, 1.0 / (3.0 * m) + 2 * g.pixel))
        for m in (1, 2, 5, 10))
    elapsed = time.perf_counter() - t0
    ok = ascending and coverage >= 0.99 and traps_ok and elapsed < 60.0
    assert _crit(5, ok,
                 f"ascending={ascending}, coverage {coverage:.4f} of union "
                 f"minus band, traps ok={traps_ok}, {elapsed:.1f}s")


def test_criterion_6_sigma_convex_end_to_end():
    """Two disks plus 30 isolated points: the staged series converges on
    the target and diverges across the m = 5 exhaustion piece beyond a
    3-pixel band."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    pts = []
    while len(pts) < 30:
        z = complex(rng.uniform(-1.7, 1.7), rng.uniform(-1.7, 1.7))
        if abs(z - (-0.7)) < 0.5 or abs(z - 0.7) < 0.5:
            continue
        if any(abs(z - w) < 0.12 for w in pts):
            continue
        pts.append(z)
    lines = ["grid 128x128", "box -2 -2 2 2", "budget degree-cap 128",
             "budget nmax 64", "part disk -0.7 0 0.35",
             "part disk 0.7 0 0.35"]
    lines += [f"point {z.real!r} {z.imag!r}" for z in pts]
    scene = parse_scene("\n".join(lines))
    series, _ = construct_sigma(scene)
    cmap = conv_map(series, scene.grid, N=series.max_supported_n,
                    B=math.log(1.2), M=math.log(8.0))
    agree = map_vs_mask_agreement(cmap, scene.target_mask(),
                                  band=3 * scene.grid.pixel,
                                  domain=scene.domain_mask(), exhaustion_m=5)
    elapsed = time.perf_counter() - t0
    ok = (agree["converge_on_target"] >= 0.99
          and agree["diverge_off_target"] >= 0.99 and elapsed < 180.0)
    assert _crit(6, ok,
                 f"converge {agree['converge_on_target']:.4f} on target, "
                 f"diverge {agree['diverge_off_target']:.4f} on the m=5 "
                 f"piece beyond band, {series.max_supported_n} members, "
                 f"{elapsed:.1f}s")


def test_criterion_7_annulus_slices_are_hull_fixed():
    """Annular cuts at levels j = 2..16 all pass the polynomial-hull
    fixed-point check cell-exact."""
    t0 = time.perf_counter()
    g = box_grid(128)
    K = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.6, 1.2))], g,
                        kind=COMPACT)
    omega = rasterize_scene([(1, shapes.Annulus(0.0, 0.0, 0.3, 1.6))], g,
                            kind=DOMAIN)
    slices = slice_holomorphically_convex(K, omega, 16)
    fixed = sum(1 for sl in slices
                if polynomial_hull(sl).same_cells(sl))
    elapsed = time.perf_counter() - t0
    ok = len(slices) == 15 and fixed == 15 and elapsed < 10.0
    assert _crit(7, ok,
                 f"{fixed}/{len(slices)} slices hull-fixed (j = 2..16), "
                 f"{elapsed:.1f}s")


def test_criterion_8_triangle_fractal_hull_escape():
    """Depth-4 triangle-fractal approximant on a 512x512 raster: the hull
    of every resolvable removed triangle's boundary ring swallows its
    interior cells."""
    t0 = time.perf_counter()
    g = Grid.from_box(-0.1, -0.1, 1.1, 1.1, 512, 512)
    records = hull_escape_exhibit(4, g)
    resolvable = [r for r in records if r.resolvable]
    escaped = [r for r in resolvable if r.escaped]
    elapsed = time.perf_counter() - t0
    ok = (len(records) == 40 and len(resolvable) == 40
          and len(escaped) == len(resolvable) and elapsed < 30.0)
    assert _crit(8, ok,
                 f"{len(escaped)}/{len(resolvable)} resolvable holes "
                 f"escaped out of {len(records)} total, {elapsed:.1f}s")
