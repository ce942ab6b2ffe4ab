"""Scene parsing, the construct/verify pipelines, and the CLI subcommands
(driven through main(argv) with explicit exit codes)."""

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sigmaconv import (COMPACT, DEFAULT_M, DEFAULT_N, ConvergenceMap,
                       EmptyPrimitiveWarning, Grid,
                       RegionMask, ResolutionWarning, RootPolynomial,
                       Verdict, block_series,
                       countable_set_series, default_b, interleave,
                       load_series, save_series, shapes, write_mask_pgm)
from sigmaconv.cli import build_parser, main
from sigmaconv.harness import (Budgets, SceneParseError, _least_gap,
                               construct_compact, construct_countable,
                               construct_sigma, map_vs_mask_agreement,
                               parse_scene, verify)
from conftest import (complement_components, corrupt_leaf,
                      disk_growth_series, leaf_paths, oracle_holomorphic_hull,
                      pgm_fields_and_pixels, reference_log_mag)

FULL_SCENE = """\
name demo pair
grid 64x64
box -2 -2 2 2
budget N 32
budget B 0.1
budget M 1.0
budget stages 4
budget degree-cap 24
budget nmax 6
budget band 0.2
domain full
target disk -0.8 0 0.4
target add disk 0.8 0 0.4
target sub disk 0.8 0 0.2
point 1.5 1.5
point -1.5 1.5
part disk -0.8 0 0.4
part add disk -0.8 0 0.1
part disk 0.8 0 0.4
"""

VERIFY_SCENE = """\
name disk verify
grid 96x96
box -2 -2 2 2
target disk 0 0 0.7
budget stages 6
budget degree-cap 32
budget N 46
budget B 0.18232155679395463
budget M 0.5877866649021191
"""


# ------------------------------------------------------------ parsing


def test_parse_full_scene():
    s = parse_scene(FULL_SCENE)
    assert s.name == "demo pair"
    assert s.grid == Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    assert (s.budgets.N, s.budgets.B, s.budgets.M) == (32, 0.1, 1.0)
    assert (s.budgets.stages, s.budgets.degree_cap) == (4, 24)
    assert (s.budgets.n_max, s.budgets.band) == (6, 0.2)
    assert [sign for sign, _ in s.target_spec] == [1, 1, -1]
    assert s.points == [1.5 + 1.5j, -1.5 + 1.5j]
    assert [len(p) for p in s.parts] == [2, 1]
    assert len(s.domain_spec) == 1


def test_parse_comments_and_blank_lines():
    s = parse_scene("# heading\n\ngrid 16x16  # trailing\nbox 0 0 1 1\n")
    assert s.grid.width == 16


@pytest.mark.parametrize("line,fragment", [
    ("grid 64", "line 1"),
    ("grid 0x16", "^line 1: grid must be at least 2x2"),
    ("flavor cherry", "unknown directive"),
    ("budget q 3", "unknown budget key"),
    ("budget degree_cap 4", "unknown budget key 'degree_cap'"),
    ("point 1", "point takes x y"),
    ("part add disk 0 0 1", "before any part"),
    ("target blob 0 0", "unknown primitive"),
    ("target disk 0 0", "disk takes"),
    ("target annulus 0 0 1", "annulus takes cx cy r_inner r_outer"),
    ("target box 0 0 1", "box takes x0 y0 x1 y1"),
    ("target segment 0 0 1", r"segment takes x0 y0 x1 y1 \[halfwidth\]"),
    ("target sierpinski", "sierpinski takes depth"),
    ("target sierpinski 2.5", r"invalid literal for int\(\) with base 10: '2.5'"),
    ("target full 1", "full takes no arguments"),
    ("target polygon 0 0 1 1", "polygon takes >= 3 x y pairs"),
    ("point inf 0", "line 1: 'inf' is not a finite number"),
    ("point 0 nan", "'nan' is not a finite number"),
    ("box 0 0 1 -Infinity", "'-Infinity' is not a finite number"),
    ("target disk 0 0 1e400", "'1e400' is not a finite number"),
    ("domain sub box 0 0 1 inf", "'inf' is not a finite number"),
    ("part disk nan 0 1", "'nan' is not a finite number"),
    ("budget B inf", "'inf' is not a finite number"),
    ("budget M -inf", "'-inf' is not a finite number"),
    ("budget band NaN", "'NaN' is not a finite number"),
    ("target disk 0 0 0", "^line 1: disk field 'r' must be positive"),
    ("target annulus 0 0 1 0.5", "field 'r_outer' must exceed r_inner"),
    ("target box 1 0 0 1", "box field 'corners' must be ordered"),
    ("target segment 0 0 1 1 0", "segment field 'halfwidth' must be positive"),
    ("target sierpinski -1", "sierpinski field 'depth' must be >= 0"),
    ("grid abc", "^line 1: grid takes WxH$"),
    ("grid 8x8x8", "^line 1: grid takes WxH$"),
    ("grid x8", "^line 1: grid takes WxH$"),
    ("box 1 2 3", "^line 1: box takes x0 y0 x1 y1$"),
    ("target add", "^line 1: missing primitive"),
    ("target annulus 0 0 -1 1", "annulus field 'r_inner' must be >= 0"),
])
def test_parse_errors_name_the_line(line, fragment):
    with pytest.raises(SceneParseError, match=fragment):
        parse_scene(line + "\ngrid 16x16\nbox 0 0 1 1\n")


def test_parse_int_field_gives_an_int():
    s = parse_scene("grid 16x16\nbox 0 0 1 1\ntarget sierpinski 2\n")
    [(sign, shape)] = s.target_spec
    assert sign == 1 and type(shape.depth) is int and shape.depth == 2


def test_parse_requires_grid_and_box():
    with pytest.raises(SceneParseError, match="grid"):
        parse_scene("box 0 0 1 1\n")
    with pytest.raises(SceneParseError, match="box"):
        parse_scene("grid 16x16\n")
    with pytest.raises(SceneParseError, match="mismatch"):
        parse_scene("grid 64x32\nbox -2 -2 2 2\n")


def test_budget_defaults_resolve_against_grid():
    s = parse_scene("grid 64x64\nbox -2 -2 2 2\nbudget N auto\n")
    r = s.budgets.resolve(s.grid)
    assert r.N == DEFAULT_N
    assert r.B == default_b(s.grid) == math.log(8.0)
    assert r.M == DEFAULT_M
    assert (r.stages, r.degree_cap, r.n_max) == (8, 64, None)
    assert r.band == pytest.approx(3.0 * s.grid.pixel)
    # 'auto' stores None, as no line does, but the key is kept
    assert s.budget_keys == {"N"}
    assert parse_scene("grid 64x64\nbox -2 -2 2 2\n").budget_keys == set()


@pytest.mark.parametrize("text,fragment", [
    ("budget B 2\nbudget M 1\n", "B < M"),
    ("budget band -0.5\n", "band must be positive"),
    ("budget N 0\n", "positive"),
    ("budget nmax 0\n", "nmax must be positive"),
])
def test_budget_validation(text, fragment):
    s = parse_scene("grid 16x16\nbox 0 0 1 1\n" + text)
    with pytest.raises(ValueError, match=fragment):
        s.budgets.resolve(s.grid)


@pytest.mark.parametrize("name", ["B", "M", "band"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_budgets_resolve_rejects_non_finite(name, value):
    # the scene parser refuses these values first, so only a Budgets built
    # in code reaches this check; an infinite band would leave no cell off
    # target, and diverge-off-target would read 1.0 on any series
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 16, 16)
    message = f"{name} must be finite, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Budgets(**{name: value}).resolve(g)


@pytest.mark.parametrize("line,same_as,cells", [
    ("target box -0.5 -0.5 0.5 0.5",
     "target polygon -0.5 -0.5 0.5 -0.5 0.5 0.5 -0.5 0.5", 16),
    ("target segment 0 0 0 0 0.3", "target disk 0 0 0.3", 4),
], ids=["box-polygon", "zero-length-segment-disk"])
def test_scene_primitives_that_name_one_set_rasterize_alike(line, same_as,
                                                            cells):
    masks = [parse_scene(f"grid 16x16\nbox -2 -2 2 2\n{text}\n").target_mask()
             for text in (line, same_as)]
    assert masks[0].count() == cells
    assert np.array_equal(masks[0].bits, masks[1].bits)


def test_target_mask_merges_parts_and_points():
    s = parse_scene(FULL_SCENE)
    mask = s.target_mask()
    assert mask.kind == COMPACT
    for p in s.points:
        i, j = s.grid.index_of(p)
        assert mask.bits[j, i]
    assert mask.count() > 0


# ------------------------------------------------------------ pipelines


def test_countable_pipeline_needs_points():
    s = parse_scene("grid 64x64\nbox -2 -2 2 2\npoint 0 0\n")
    with pytest.raises(ValueError, match="at least 2 'point' lines"):
        construct_countable(s)


def test_countable_pipeline_warns_below_pixel_separation():
    s = parse_scene("grid 64x64\nbox -2 -2 2 2\n"
                    "point 0 0\npoint 1e-6 0\npoint 1 0\n")
    with pytest.warns(ResolutionWarning, match="below one pixel"):
        f = construct_countable(s)
    assert f.max_supported_n == 2


def test_countable_pipeline_is_quiet_on_a_two_pixel_lattice():
    """25 points two pixels apart: more than 1/pixel of them, so gamma_24
    (at most 1/24) is below the 1/16 pixel, yet every point resolves."""
    s = parse_scene("grid 64x64\nbox -2 -2 2 2\n" + "".join(
        f"point {x / 8} {y / 8}\n" for x in range(5) for y in range(5)))
    assert construct_countable(s).max_supported_n == 24


def test_least_gap_matches_all_pairs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 40, 200):
        # uniform points, and a coarse lattice where many share a real part
        for z in (rng.random(n) + 1j * rng.random(n),
                  rng.integers(0, 12, n) + 1j * rng.integers(0, 40, n)
                  + rng.random(n) * 1e-3):
            d = np.abs(z[:, None] - z[None, :])
            assert _least_gap(list(z)) == d[np.triu_indices(n, k=1)].min()


def test_compact_pipeline_needs_target():
    s = parse_scene("grid 64x64\nbox -2 -2 2 2\n")
    with pytest.raises(ValueError, match="non-empty target"):
        construct_compact(s)


OUTSIDE_DOMAIN = "grid 64x64\nbox -2 -2 2 2\ndomain disk 0 0 1\n"


def test_compact_pipeline_needs_target_in_the_domain():
    s = parse_scene(OUTSIDE_DOMAIN + "target disk 0.9 0 0.5\n")
    with pytest.raises(ValueError, match="target is not contained"):
        construct_compact(s)


def test_sigma_pipeline_defaults_nmax_to_twice_the_parts():
    s = parse_scene("grid 64x64\nbox -2 -2 2 2\n"
                    "part disk -0.8 0 0.3\npart disk 0.8 0 0.3\n"
                    "budget degree-cap 16\n")
    series, decomp = construct_sigma(s)
    assert decomp.n_max == 4
    assert len(decomp.K_list) == 2
    assert series.max_supported_n == len(series.structure.members)
    assert len(series.structure.block_sizes) == 4  # one block per stage


def test_sigma_pipeline_needs_parts():
    s = parse_scene("grid 64x64\nbox -2 -2 2 2\n")
    with pytest.raises(ValueError, match="'part' or 'point' lines"):
        construct_sigma(s)


# ------------------------------------------------------------ agreement


def synthetic_map(g, target, verdict_on, verdict_off):
    verdicts = np.full((g.height, g.width), int(verdict_off), dtype=np.int8)
    verdicts[target.bits] = int(verdict_on)
    exps = np.zeros((g.height, g.width))
    return ConvergenceMap(g, verdicts, exps, 8, 0.0, 1.0)


def test_agreement_fractions_on_synthetic_map():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    from sigmaconv import polynomial_hull, rasterize_scene
    target = polynomial_hull(rasterize_scene(
        [(1, shapes.Disk(0.0, 0.0, 0.7))], g, kind=COMPACT))
    cmap = synthetic_map(g, target, Verdict.CONVERGE, Verdict.DIVERGE)
    out = map_vs_mask_agreement(cmap, target, band=2 * g.pixel)
    assert out == {"converge_on_target": 1.0, "diverge_off_target": 1.0,
                   "undetermined": 0.0}
    # flip one target cell to undetermined
    j, i = np.argwhere(target.bits)[0]
    cmap.verdicts[j, i] = int(Verdict.UNDETERMINED)
    out = map_vs_mask_agreement(cmap, target, band=2 * g.pixel)
    assert out["converge_on_target"] == pytest.approx(
        1.0 - 1.0 / target.count())
    assert out["undetermined"] == pytest.approx(1.0 / 32 ** 2)


def test_agreement_is_vacuously_full_on_empty_regions():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    from sigmaconv import empty_mask
    target = empty_mask(g)
    cmap = synthetic_map(g, target, Verdict.CONVERGE, Verdict.DIVERGE)
    out = map_vs_mask_agreement(cmap, target, band=2 * g.pixel)
    assert out["converge_on_target"] == 1.0


def test_agreement_takes_the_exhaustion_without_a_domain():
    # without a domain the exhaustion piece of m is the whole grid's: a
    # compact series for a disk off the target, scored with m = 1, reads
    # what it reads with full_domain(grid), not what it reads without m
    from sigmaconv import compact_set_series, conv_map, full_domain
    from sigmaconv import polynomial_hull, rasterize_scene
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(1.3, 0.0, 0.4))], g,
                                        kind=COMPACT))
    f = compact_set_series(K, 4, 16)
    cmap = conv_map(f, g, f.max_supported_n, 0.0, 1.0)
    target = rasterize_scene([(1, shapes.Disk(-0.5, 0.0, 0.3))], g,
                             kind=COMPACT)
    band = 2 * g.pixel
    out = map_vs_mask_agreement(cmap, target, band, exhaustion_m=1)
    assert out == map_vs_mask_agreement(cmap, target, band, full_domain(g),
                                        exhaustion_m=1)
    assert out["diverge_off_target"] == pytest.approx(0.9359, abs=1e-4)
    assert map_vs_mask_agreement(cmap, target, band)[
        "diverge_off_target"] == pytest.approx(0.9434, abs=1e-4)


def test_verify_reports_structure():
    s = parse_scene(VERIFY_SCENE)
    f = construct_compact(s)
    report, cmap = verify(s, f)
    assert report.scene == "disk verify"
    assert report.map_agreement["converge_on_target"] == 1.0
    assert report.map_agreement["diverge_off_target"] == 1.0
    assert cmap.N == 46
    assert set(report.timings) == {"classify", "compare"}
    assert report.budgets["degree_cap"] == 32


# ------------------------------------------------------------ CLI


def write_scene(tmp_path, text, name="scene.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def written_masks(scene, out, *names):
    """The masks a command wrote to out, on the scene's grid."""
    grid = parse_scene(scene.read_text()).grid
    for name in names:
        fields, pixels = pgm_fields_and_pixels(out / name)
        yield RegionMask(grid, pixels == 255, fields["kind"])


def test_cli_hull_fills_annulus(tmp_path, capsys):
    scene = write_scene(tmp_path, "grid 64x64\nbox -2 -2 2 2\n"
                                  "target annulus 0 0 0.6 1.2\n")
    out = tmp_path / "out"
    assert main(["hull", str(scene), "--out", str(out)]) == 0
    hull, target = written_masks(scene, out, "hull.pgm", "target.pgm")
    assert target.count() < hull.count()
    # the hole is filled: hull has no bounded complement component
    assert complement_components(hull)[2].size == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "polynomial"
    assert report["filled_cells"] == hull.count() - target.count()
    assert "hull:" in capsys.readouterr().out


def test_cli_hull_respects_restricted_domain(tmp_path):
    scene = write_scene(tmp_path,
                        "grid 64x64\nbox -2 -2 2 2\n"
                        "domain annulus 0 0 0.3 1.6\n"
                        "target annulus 0 0 0.6 1.2\n")
    out = tmp_path / "out"
    assert main(["hull", str(scene), "--out", str(out)]) == 0
    hull, target = written_masks(scene, out, "hull.pgm", "target.pgm")
    # the hole meets the domain complement, so nothing is filled
    assert hull.same_cells(target)
    report = json.loads((out / "report.json").read_text())
    assert "domain-restricted" in report["mode"]


@pytest.mark.parametrize("argv", [["decompose"],
                                  ["construct", "--pipeline", "sigma"]])
def test_cli_broken_invariant_exits_2(tmp_path, capsys, monkeypatch, argv):
    """An internal check that fails is a verification failure: one
    'verification failure: ...' line on stderr and exit 2."""
    def broken(K_list, n_max):
        raise AssertionError("stage 3: union-of-hulls differs")

    monkeypatch.setattr("sigmaconv.harness.ascending_decomposition", broken)
    scene = write_scene(tmp_path, "grid 32x32\nbox -2 -2 2 2\n"
                                  "part disk -0.8 0 0.3\n")
    out = tmp_path / "out"
    assert main([argv[0], str(scene), *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "verification failure: stage 3: union-of-hulls differs\n"
    assert not (out / "series.json").exists()


def test_cli_sigma_scene_with_an_empty_first_part_exits_1(tmp_path, capsys):
    """A first part off the grid rasterizes to no cell, with a warning, and
    leaves stage 1 a target but an empty E_1: one 'error: ...' line, exit
    1."""
    scene = write_scene(tmp_path, "grid 32x32\nbox -2 -2 2 2\n"
                                  "part disk 5 5 0.3\npart disk 0.5 0 0.6\n")
    out = tmp_path / "out"
    with pytest.warns(EmptyPrimitiveWarning):
        code = main(["construct", str(scene), "--pipeline", "sigma",
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: stage 1: K is empty but the target is not\n")
    assert not (out / "series.json").exists()


FRAME_SCENE = """\
grid 64x64
box -2 -2 2 2
budget nmax 17
budget degree-cap 8
part box -1 0.5 1 1
part box 0.5 -1 1 1
part box -1 -1 1 -0.5
part box -1 -1 -0.5 1
"""


@pytest.mark.parametrize("argv", [["decompose"],
                                  ["construct", "--pipeline", "sigma"]])
def test_cli_stage_union_with_a_hole_is_bad_input(tmp_path, capsys, argv):
    """Four overlapping bars make a frame.  Each bar is its own hull, but
    at stage 17, where 1/n is under the 1/16 pixel, the bars' pieces touch
    (a skipped stage) and E_17 encloses the frame's hole.  The series
    builder's own-hull test refuses it: one 'error: ...' line, exit 1."""
    scene = write_scene(tmp_path, FRAME_SCENE)
    out = tmp_path / "out"
    assert main([argv[0], str(scene), *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: stage 17: K is not polynomially convex on the "
                   "raster\n")
    assert not (out / "series.json").exists()


@pytest.mark.parametrize("domain,mode", [
    ("domain full\ndomain sub disk 1 0 0.1\n",
     "holomorphic (domain-restricted)"),
    ("", "polynomial"),
])
def test_cli_hull_writes_the_oracle_hull(tmp_path, domain, mode):
    """hull's three files, byte for byte, from the full-grid labelling: two
    rings, one about a hole that meets the domain's complement (it stays
    open when there is a domain line) and one about a hole inside it."""
    text = ("grid 48x48\nbox -2 -2 2 2\n" + domain +
            "target annulus -1 0 0.3 0.7\ntarget annulus 1 0 0.3 0.7\n")
    out = tmp_path / "out"
    assert main(["hull", str(write_scene(tmp_path, text)), "--out",
                 str(out)]) == 0
    scene = parse_scene(text)
    target = scene.target_mask()
    hull = RegionMask(scene.grid, oracle_holomorphic_hull(
        target, scene.domain_mask()), COMPACT)
    # the left hole is always filled, the right one only without a domain
    holes = hull.bits & ~target.bits
    assert holes[:, :24].any() and holes[:, 24:].any() != bool(domain)
    for name, mask in (("target.pgm", target), ("hull.pgm", hull)):
        assert (out / name).read_bytes() == write_mask_pgm(
            mask, tmp_path / name)
    assert (out / "report.json").read_text() == json.dumps(
        {"scene": "scene", "mode": mode, "target_cells": target.count(),
         "hull_cells": hull.count(),
         "filled_cells": hull.count() - target.count()}, indent=1)


@pytest.mark.parametrize("line,argv", [
    ("part disk 0.9 0 0.5", ["construct", "--pipeline", "sigma"]),
    ("part disk 0.9 0 0.5", ["decompose"]),
    ("target disk 0.9 0 0.5", ["construct", "--pipeline", "compact"]),
])
def test_cli_compact_outside_the_domain_exits_1(tmp_path, capsys, line, argv):
    """The convergence set lies in the domain, so a part or target that
    leaves it is bad input, as hull already says."""
    scene = write_scene(tmp_path, OUTSIDE_DOMAIN + line + "\n")
    out = str(tmp_path / "out")
    assert main([argv[0], str(scene), *argv[1:], "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "not contained in" in err
    assert not (tmp_path / "out" / "series.json").exists()


def test_cli_construct_then_verify_round_trip(tmp_path, capsys):
    scene = write_scene(tmp_path, VERIFY_SCENE)
    out1, out2 = tmp_path / "c", tmp_path / "v"
    assert main(["construct", str(scene), "--pipeline", "compact",
                 "--out", str(out1)]) == 0
    assert main(["verify", str(scene), str(out1 / "series.json"),
                 "--out", str(out2)]) == 0
    text = capsys.readouterr().out
    assert "converge-on-target 1.0000" in text
    fields, pixels = pgm_fields_and_pixels(out2 / "map.pgm")
    assert fields["N"] == "46"
    assert (pixels == 255).any()  # converge
    report = json.loads((out2 / "report.json").read_text())
    assert report["map_agreement"]["diverge_off_target"] == 1.0


def test_cli_verify_mismatched_series_exits_2(tmp_path):
    scene = write_scene(tmp_path, VERIFY_SCENE)
    # a series converging on a much smaller disk cannot cover the target
    small = disk_growth_series(0.0, 0.3, 46)
    save_series(small, tmp_path / "small.json")
    code = main(["verify", str(scene), str(tmp_path / "small.json"),
                 "--out", str(tmp_path / "v"), "--min-agree", "0.99"])
    assert code == 2


def _set_first_root(obj):
    obj["members"][0]["roots"] = [[1]]


def _set_first_log_scale(obj):
    obj["members"][0]["log_scale"] = math.nan


def _set_f0(obj):
    obj["f0_log_mag"] = math.nan


def _set_first_log_c(obj):
    obj["log_c"][0] = math.nan


def _set_first_log_c_inf(obj):
    obj["log_c"][0] = math.inf


def _set_first_log_c_neg_inf(obj):
    obj["log_c"][0] = -math.inf


def _set_first_point_inf(obj):
    obj["points"][0] = [math.inf, 0.0]


def _set_first_gamma_inf(obj):
    obj["gammas"][0] = math.inf


def _set_first_gamma_zero(obj):
    obj["gammas"][0] = 0.0


def _drop_last_gamma(obj):
    obj["gammas"].pop()


def _drop_last_log_c(obj):
    obj["log_c"].pop()


def _top_level_list(obj):
    return []


def _set_first_roots_int(obj):
    obj["members"][0]["roots"] = 5


def _set_first_log_scale_null(obj):
    obj["members"][0]["log_scale"] = None


def _set_log_c_null(obj):
    obj["log_c"] = None


def _set_even_list(obj):
    obj["even"] = []


def _set_negative_block_size(obj):
    obj["block_sizes"] = [-1, sum(obj["block_sizes"]) + 1]


def _drop_first_log_scale(obj):
    del obj["members"][0]["log_scale"]


def _drop_f0(obj):
    del obj["f0_log_mag"]


def _drop_even(obj):
    del obj["even"]


def _drop_odd(obj):
    del obj["odd"]


def _three_blocks_seven_uncovered_counts(obj):
    obj["block_sizes"] = [1, 1, sum(obj["block_sizes"]) - 2]
    obj["uncovered_counts"] = [0] * 7


def _retag_scaled_product(obj):
    # the caller-scaled product file that older versions wrote
    return {"type": "scaled-product", "points": obj["points"],
            "log_c": [0.0] * (len(obj["points"]) + 1)}


def _set_third_log_scale_true(obj):
    obj["members"][2]["log_scale"] = True


def _set_f0_true(obj):
    obj["f0_log_mag"] = True


def _set_first_log_scale_string(obj):
    obj["members"][0]["log_scale"] = "0.3"


def _set_first_log_c_string(obj):
    obj["log_c"][0] = "-Infinity"


def _set_first_log_scale_huge_int(obj):
    obj["members"][0]["log_scale"] = 10 ** 400


def _set_first_root_bools(obj):
    obj["members"][0]["roots"] = [[True, False]]


def _set_second_root_bools(obj):
    # the second member repeats the first's root [0.0, 0.0], which false
    # equals, so only a loader that checks the shared pair catches it
    obj["members"][1]["roots"] = [[False, False]]


def _set_first_point_string(obj):
    obj["points"][0] = ["0.3", 0.0]


def _set_first_point_huge_int(obj):
    obj["points"][0] = [10 ** 400, 0.0]


def _set_description_number(obj):
    obj["description"] = 5


# the corruptions below return the file text in save_series' layout, which
# load_series decodes from the text, changed where the decoder reads it


def _cut_inside_members(obj):
    text = json.dumps(obj, indent=1)
    return text[:text.index('"log_scale"', text.index('"members"'))]


def _garbage_after_members(obj):
    text = json.dumps(obj, indent=1)
    return text.replace('\n ],\n "description"', '\n ] x,\n "description"')


def _nan_in_odd_members(obj):
    # the first pair of the interleave's nested block members
    text = json.dumps(obj, indent=1)
    first = text.index('"roots"', text.index('"odd"'))
    return text[:first] + text[first:].replace("0.0,", "NaN,", 1)


def _nan_in_new_root_pair(obj):
    # the last member's pair differs from the running sequence's, so the
    # decoder parses it
    text = json.dumps(obj, indent=1)
    last = text.rindex('"roots"')
    return text[:last] + text[last:].replace("0.0,", "NaN,", 1)


def _drop_comma_between_members(obj):
    text = json.dumps(obj, indent=1)
    return text.replace("\n  },\n  {", "\n  }\n  {", 1)


@pytest.mark.parametrize("kind,corrupt,fragment", [
    ("blocks", _set_first_root, "[re, im] pair"),
    ("blocks", _set_first_log_scale, "log_scale is NaN"),
    ("blocks", _set_f0, "f0_log_mag is NaN"),
    ("countable", _set_first_log_c, "log_c entry is NaN"),
    ("countable", _set_first_log_c_inf, "log_c entry is inf"),
    ("countable", _set_first_log_c_neg_inf, "log_c entry is -inf"),
    ("countable", _set_first_point_inf, "non-finite component"),
    ("countable", _set_first_gamma_inf, "gammas entry is inf"),
    ("countable", _set_first_gamma_zero, "gammas entries must be > 0"),
    ("countable", _drop_last_gamma, "gammas table must have"),
    ("countable", _drop_last_log_c, "log_c table must have"),
    ("countable", _top_level_list, "series must be a JSON object, got []"),
    ("blocks", _set_first_roots_int, "roots must be a list, got 5"),
    ("blocks", _set_first_log_scale_null,
     "member log_scale is not a number: None"),
    ("countable", _set_log_c_null, "log_c must be a list, got None"),
    ("interleave", _set_even_list, "series must be a JSON object, got []"),
    ("blocks", _set_negative_block_size,
     "block size must be a non-negative integer, got -1"),
    ("countable", _retag_scaled_product,
     "unknown series type 'scaled-product'"),
    ("blocks", _drop_first_log_scale, "member log_scale is not a number: None"),
    ("blocks", _drop_f0, "f0_log_mag is not a number: None"),
    ("interleave", _drop_even, "series must be a JSON object, got None"),
    ("interleave", _drop_odd, "series must be a JSON object, got None"),
    ("blocks", _three_blocks_seven_uncovered_counts,
     "uncovered counts must hold one entry per block"),
    ("blocks", _set_third_log_scale_true,
     "member log_scale is not a number: True"),
    ("blocks", _set_f0_true, "f0_log_mag is not a number: True"),
    ("blocks", _set_first_log_scale_string,
     "member log_scale is not a number: '0.3'"),
    ("countable", _set_first_log_c_string,
     "log_c entry is not a number: '-Infinity'"),
    ("blocks", _set_first_log_scale_huge_int, "member log_scale is inf"),
    ("blocks", _set_first_root_bools, "[re, im] pair, got [True, False]"),
    ("blocks", _set_second_root_bools, "[re, im] pair, got [False, False]"),
    ("countable", _set_first_point_string, "[re, im] pair, got ['0.3', 0.0]"),
    ("blocks", _set_description_number, "description must be a string, got 5"),
    ("countable", _set_first_point_huge_int, "non-finite component"),
    ("blocks", _cut_inside_members, "Expecting"),
    ("blocks", _garbage_after_members, "Expecting ',' delimiter"),
    ("blocks", _nan_in_new_root_pair,
     "non-finite component in complex pair [nan, 0.0]"),
    ("interleave", _nan_in_odd_members,
     "non-finite component in complex pair [nan, 0.0]"),
    ("blocks", _drop_comma_between_members, "Expecting ',' delimiter"),
])
def test_cli_verify_rejects_malformed_series(tmp_path, capsys, kind, corrupt,
                                             fragment):
    # each corrupt entry is either never evaluated by the classifier (outside
    # the tail window, or a table it does not read), so only the loader can
    # catch it and --min-agree 0 makes an undetected corruption exit 0, or,
    # for an infinite root, turns into an oracle NaN traceback; a malformed
    # shape used to end in a TypeError or AttributeError traceback
    scene = write_scene(tmp_path, VERIFY_SCENE)
    obj = _stored_series(tmp_path, kind)
    replaced = corrupt(obj)  # None when the corruption is in place
    path = tmp_path / "series.json"
    path.write_text(replaced if isinstance(replaced, str) else
                    json.dumps(obj if replaced is None else replaced))
    code = main(["verify", str(scene), str(path), "--out", str(tmp_path / "v"),
                 "--N", "15", "--min-agree", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert len(err.splitlines()) == 1


def _stored_series(tmp_path, kind):
    """The JSON object save_series writes for a small series of ``kind``."""
    points = [complex(x, y) for x in (-1, 0, 1, 2) for y in (-1, 0, 1, 2)]
    if kind == "blocks":
        series = disk_growth_series(0.0, 0.7, 46)
    elif kind == "countable":
        series = countable_set_series(points)
    else:
        series = interleave(countable_set_series(points),
                            disk_growth_series(0.0, 0.7, 46))
    path = tmp_path / "stored.json"
    save_series(series, path)
    return json.loads(path.read_text())


def _key_paths(obj, path=()):
    """The path of every key of every object in ``obj``; of each list only
    the first two entries (members) are visited."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj[:2]):
            yield from _key_paths(value, path + (i,))


@pytest.mark.parametrize("kind", ["blocks", "countable", "interleave"])
def test_cli_verify_series_missing_any_key(tmp_path, capsys, kind):
    # a stored series without one of its keys either loads, for the two
    # keys that have defaults, or ends in one error line with exit 1
    scene = write_scene(tmp_path, VERIFY_SCENE)
    obj = _stored_series(tmp_path, kind)
    path = tmp_path / "series.json"
    for key_path in _key_paths(obj):
        copy = json.loads(json.dumps(obj))
        node = copy
        for key in key_path[:-1]:
            node = node[key]
        del node[key_path[-1]]
        path.write_text(json.dumps(copy))
        code = main(["verify", str(scene), str(path), "--out",
                     str(tmp_path / "v"), "--N", "15", "--min-agree", "0"])
        err = capsys.readouterr().err
        if key_path[-1] in ("uncovered_counts", "description"):
            assert (code, err) == (0, ""), key_path
        else:
            assert code == 1, key_path
            assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_parse_error_exits_1(tmp_path, capsys):
    scene = write_scene(tmp_path, "grid 64x64\ntarget disk 0 0 1\n")  # no box
    code = main(["hull", str(scene), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_cli_missing_scene_exits_1(tmp_path, capsys):
    code = main(["hull", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "{scene}", "{tmp}"],  # series path is a directory
    ["hull", "{tmp}"],  # scene path is a directory
    ["hull", "{scene}", "--out", "{scene}"],  # --out names a file
], ids=["series-dir", "scene-dir", "out-is-file"])
def test_cli_unreadable_path_or_out_exits_1(tmp_path, capsys, argv):
    scene = write_scene(tmp_path, "grid 16x16\nbox -2 -2 2 2\n"
                                  "target disk 0 0 0.8\n")
    argv = [a.format(scene=scene, tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("grid_line", ["grid 0x16", "grid -4x-4"],
                         ids=["zero-width-scene", "negative-scene"])
def test_cli_grid_below_2x2_exits_1(tmp_path, capsys, grid_line):
    scene = write_scene(tmp_path, f"{grid_line}\nbox -2 -2 2 2\n"
                                  "target disk 0 0 0.8\n")
    assert main(["hull", str(scene), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "grid must be at least 2x2" in err


def test_cli_countable_needs_two_points_exit_1(tmp_path, capsys):
    scene = write_scene(tmp_path, "grid 64x64\nbox -2 -2 2 2\npoint 0 0\n")
    code = main(["construct", str(scene), "--pipeline", "countable",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "at least 2 'point' lines" in capsys.readouterr().err


def test_cli_countable_rejects_infinite_point_exit_1(tmp_path, capsys):
    scene = write_scene(tmp_path, "grid 16x16\nbox -2 -2 2 2\npoint 0 0\n"
                                  "point inf 0\npoint 1 1\n")
    code = main(["construct", str(scene), "--pipeline", "countable",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: line 4: 'inf' is not a finite number")
    assert not (tmp_path / "out" / "series.json").exists()


def test_cli_countable_rejects_a_repeated_point_exit_1(tmp_path, capsys):
    # -0.0 and 0 name one point
    scene = write_scene(tmp_path, "grid 16x16\nbox -2 -2 2 2\npoint 0 0\n"
                                  "point 1 1\npoint -0.0 0\n")
    code = main(["construct", str(scene), "--pipeline", "countable",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "pairwise distinct" in err
    assert not (tmp_path / "out" / "series.json").exists()


@pytest.mark.parametrize("pipeline", ["sigma", "compact"])
def test_cli_degree_cap_above_sys_maxsize_builds_the_uncapped_series(
        tmp_path, pipeline):
    """The Leja steps end after K's last cell, so every degree cap of at
    least K's cell count builds the same series, however large."""
    saved = []
    # 10**6 is above the grid's cell count, 10**20 above sys.maxsize
    for cap in (10**6, 10**20):
        scene = write_scene(tmp_path, "grid 32x32\nbox -2 -2 2 2\n"
                                      "budget stages 3\n"
                                      f"budget degree-cap {cap}\n"
                                      "target disk -0.8 0 0.4\n"
                                      "target add disk 0.8 0 0.4\n"
                                      "part disk -0.8 0 0.4\n"
                                      "part disk 0.8 0 0.4\n")
        out = tmp_path / str(cap)
        assert main(["construct", str(scene), "--pipeline", pipeline,
                     "--out", str(out)]) == 0
        saved.append((out / "series.json").read_bytes())
    assert saved[0] == saved[1]


def test_cli_decompose_writes_stage_exports(tmp_path):
    scene = write_scene(tmp_path,
                        "grid 64x64\nbox -2 -2 2 2\n"
                        "part disk -0.8 0 0.3\npart disk 0.8 0 0.3\n"
                        "budget degree-cap 16\n")
    out = tmp_path / "out"
    assert main(["decompose", str(scene), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pieces"] == 2
    assert report["n_max"] == 4
    manifest = json.loads(
        (out / "decomposition" / "manifest.json").read_text())
    assert len(manifest["files"]) == 8
    assert load_series(out / "series.json").max_supported_n >= 0


def test_cli_interleave(tmp_path, capsys):
    a = disk_growth_series(-0.5, 0.8, 12)
    b = disk_growth_series(0.5, 0.8, 12)
    save_series(a, tmp_path / "a.json")
    save_series(b, tmp_path / "b.json")
    out = tmp_path / "out"
    assert main(["interleave", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json"), "--out", str(out)]) == 0
    F = load_series(out / "series.json")
    assert F.max_supported_n == 24
    z = 1.4 + 0.2j
    assert float(reference_log_mag(F, 2, z)) == float(
        reference_log_mag(a, 1, z))
    assert float(reference_log_mag(F, 3, z)) == float(
        reference_log_mag(b, 1, z))
    assert capsys.readouterr().out == (
        f"constructed interleave series: {F.description}\n")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "interleave"


SIERPINSKI_SCENE = "grid 64x64\nbox -0.1 -0.1 1.1 1.1\n"


def test_cli_demo_sierpinski(tmp_path, capsys):
    scene = write_scene(tmp_path, SIERPINSKI_SCENE + "target sierpinski 1\n")
    out = tmp_path / "out"
    code = main(["demo-sierpinski", str(scene), "--out", str(out)])
    assert code == 0
    exhibit = json.loads((out / "exhibit.json").read_text())
    assert exhibit["depth"] == 1
    assert exhibit["holes"] == 1
    assert exhibit["escaped"] == 1
    assert (out / "approximant.pgm").exists()
    text = capsys.readouterr().out
    assert text.startswith(
        "Triangle-fractal approximant, depth 1, 64x64 cells of size 0.01875.\n")
    assert "Hull escape: 1 of 1" in text
    fields, pixels = pgm_fields_and_pixels(out / "approximant.pgm")
    assert fields["kind"] == COMPACT and (pixels == 255).any()


@pytest.mark.parametrize("lines,fragment", [
    ("grid 0x0\nbox -0.1 -0.1 1.1 1.1\n", "line 1: grid must be at least 2x2"),
    ("grid 64x64\nbox -0.1 -0.1 inf 1.1\n",
     "line 2: 'inf' is not a finite number"),
    ("grid 64x64\nbox -0.1 -0.1 1.1 nan\n",
     "line 2: 'nan' is not a finite number"),
    ("grid 64x64\nbox 0.2 0.2 1.1 1.1\n",
     "grid does not cover the unit triangle"),
], ids=["zero-grid", "infinite-box", "nan-box", "short-box"])
def test_cli_demo_sierpinski_rejects_bad_grid_or_box(tmp_path, capsys, lines,
                                                     fragment):
    # the demo's raster comes from the scene's grid and box lines
    scene = write_scene(tmp_path, lines + "target sierpinski 1\n")
    assert main(["demo-sierpinski", str(scene),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {fragment}\n"


@pytest.mark.parametrize("lines", [
    "",
    "target disk 0.5 0.3 0.2\n",
    "target sub sierpinski 2\n",
    "target sierpinski 2\ntarget sierpinski 3\n",
    "target sierpinski 2\ntarget add disk 0.5 0.3 0.2\n",
    "target sierpinski 2\npart disk 0.5 0.3 0.1\n",
    "target sierpinski 2\npoint 0.5 0.3\n",
    "target sierpinski 2\ndomain disk 0 0 0.1\n",
    "target sierpinski 2\nbudget N 5\n",
    "budget nmax 3\ntarget sierpinski 2\n",
    "target sierpinski 2\nbudget N auto\n",
], ids=["no-target", "disk", "negative", "two-depths", "added-disk", "part",
        "point", "domain", "budget", "budget-first", "budget-auto"])
def test_cli_demo_sierpinski_needs_one_sierpinski_target(tmp_path, capsys,
                                                         lines):
    scene = write_scene(tmp_path, SIERPINSKI_SCENE + lines)
    assert main(["demo-sierpinski", str(scene),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: demo-sierpinski needs one 'target sierpinski DEPTH' line "
        "and no other target, part, point, domain or budget line\n")
    assert not (tmp_path / "out").exists()


SUBCOMMAND_OPTIONS = {
    "hull": {"--out"},
    "construct": {"--pipeline", "--out"},
    "interleave": {"--out"},
    "verify": {"--min-agree", "--exhaust-m", "--N", "--out"},
    "decompose": {"--out"},
    "demo-sierpinski": {"--out"},
}


def parser_options() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings
                   if o not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def test_each_subcommand_takes_only_the_options_it_reads():
    assert parser_options() == SUBCOMMAND_OPTIONS


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_each_subcommand_options():
    # the README's option table, | `subcommand ...` | `--a`, `--b` |
    readme = README.read_text()
    rows = re.findall(r"^\| `([a-z-]+)[^`]*` \| (.*) \|$", readme, re.M)
    listed = {name: set(re.findall(r"`(--[A-Za-z-]+)`", cell))
              for name, cell in rows}
    assert listed == parser_options()


def test_readme_example_session_prints_what_it_says(tmp_path, monkeypatch,
                                                    capsys):
    # the session's heredoc scene, then each sigmaconv line through main()
    section = README.read_text().split("### Example session\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    name, scene = re.search(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", block,
                            re.S | re.M).groups()
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(scene)
    commands = re.findall(r"^sigmaconv (.*)$", block, re.M)
    assert len(commands) == 2
    for command in commands:
        capsys.readouterr()
        assert main(command.split()) == 0
    printed = re.search(r"The last command prints\n`([^`]*)`", section)[1]
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("argv,message", [
    (["hull", "s.txt", "--N", "5"], "unrecognized arguments: --N 5"),
    (["hull", "s.txt", "--seed", "7"], "unrecognized arguments: --seed 7"),
    (["construct", "s.txt", "--pipeline", "compact", "--band", "0.1"],
     "unrecognized arguments: --band 0.1"),
    (["verify", "s.txt", "f.json", "--stages", "3"],
     "unrecognized arguments: --stages 3"),
    (["decompose", "s.txt", "--budget-M", "1"],
     "unrecognized arguments: --budget-M 1"),
    (["demo-sierpinski", "s.txt", "--nmax", "2"],
     "unrecognized arguments: --nmax 2"),
    (["verify", "s.txt", "f.json", "--N", "abc"],
     "argument --N: invalid int value: 'abc'"),
    (["construct", "s.txt"],
     "the following arguments are required: --pipeline"),
    (["verify", "s.txt", "f.json", "--min-agree=-inf"],
     "argument --min-agree: '-inf' is not a number in [0, 1]"),
    (["verify", "s.txt", "f.json", "--min-agree", "-1"],
     "argument --min-agree: '-1' is not a number in [0, 1]"),
    (["verify", "s.txt", "f.json", "--min-agree", "nan"],
     "argument --min-agree: 'nan' is not a number in [0, 1]"),
    (["verify", "s.txt", "f.json", "--min-agree", "1.5"],
     "argument --min-agree: '1.5' is not a number in [0, 1]"),
    (["verify", "s.txt", "f.json", "--min-agree", "abc"],
     "argument --min-agree: 'abc' is not a number in [0, 1]"),
    (["interleave", "a.json"],
     "the following arguments are required: odd"),
    (["demo-sierpinski", "s.txt", "--depth", "4"],
     "unrecognized arguments: --depth 4"),
    (["construct", "s.txt", "--pipeline", "countable", "--series-a", "a.json"],
     "unrecognized arguments: --series-a a.json"),
    (["hull", "s.txt", "--grid", "8x8"], "unrecognized arguments: --grid 8x8"),
    (["verify", "s.txt", "f.json", "--budget-B", "1"],
     "unrecognized arguments: --budget-B 1"),
    (["construct", "s.txt", "--pipeline", "compact", "--nmax", "2"],
     "unrecognized arguments: --nmax 2"),
])
def test_cli_usage_errors_exit_1(tmp_path, capsys, argv, message):
    # the scene and series files need not exist: parsing fails first
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "1"])
def test_cli_min_agree_takes_both_ends_of_0_1(value):
    args = build_parser().parse_args(
        ["verify", "s.txt", "f.json", "--min-agree", value])
    assert args.min_agree == float(value)


def test_cli_missing_or_unknown_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == (
        "error: the following arguments are required: command\n")
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: ")
    assert err.count("\n") == 1


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--N N" in capsys.readouterr().out


def test_cli_manifest_has_no_seed(tmp_path):
    scene = write_scene(tmp_path, "grid 16x16\nbox -2 -2 2 2\n"
                                  "target disk 0 0 0.8\n")
    out = tmp_path / "out"
    assert main(["hull", str(scene), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"argv", "command"}


def test_cli_manifest_records_the_parsed_argv(tmp_path, monkeypatch):
    # an in-process call records its own argv, not the host process's
    scene = write_scene(tmp_path, "grid 16x16\nbox -2 -2 2 2\n"
                                  "target disk 0 0 0.8\n")
    out = tmp_path / "out"
    argv = ["hull", str(scene), "--out", str(out)]
    monkeypatch.setattr(sys, "argv", ["some-driver", "--flag"])
    assert main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["argv"] == argv
    monkeypatch.setattr(sys, "argv", ["sigmaconv", *argv])
    assert main() == 0
    assert json.loads((out / "manifest.json").read_text())["argv"] == argv


def test_cli_process_exit_code_on_usage_error(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-m", "sigmaconv.cli", "hull", "s.txt", "--N", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert run.stderr == "error: unrecognized arguments: --N 5\n"


def test_inputs_decode_as_utf8_under_a_c_locale(tmp_path):
    """A scene file and a series file are UTF-8 whatever the locale: under
    the C locale, with neither locale coercion nor UTF-8 mode, a scene
    whose comment holds a non-ASCII letter runs, and a series whose
    description is raw UTF-8 loads."""
    (tmp_path / "s.txt").write_bytes(
        "# \u03c3 scene\ngrid 16x16\nbox -2 -2 2 2\ntarget disk 0 0 0.8\n"
        .encode())
    series = block_series([RootPolynomial((0.5j,), 0.25)], [1], 0.0,
                          "\u03c3 series")
    save_series(series, tmp_path / "series.json")
    data = (tmp_path / "series.json").read_bytes()
    assert b"\\u03c3" in data  # json.dumps escapes it; a hand edit need not
    (tmp_path / "series.json").write_bytes(
        data.replace(b"\\u03c3", "\u03c3".encode()))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)
    run = subprocess.run(
        [sys.executable, "-m", "sigmaconv.cli", "hull", "s.txt", "--out",
         "out"], cwd=tmp_path, env=env, capture_output=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")
    check = ("import locale, sys; from sigmaconv import load_series; "
             "assert locale.getpreferredencoding(False) != 'UTF-8'; "
             "sys.exit(load_series('series.json').description "
             "!= '\\u03c3 series')")
    run = subprocess.run([sys.executable, "-c", check], cwd=tmp_path,
                         env=env, capture_output=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")


# ------------------------------------------------------------ corruption

CORRUPTION_SCENES = {
    "compact": "name compact\ngrid 16x16\nbox -2 -2 2 2\n"
               "target disk 0 0 0.9\nbudget stages 3\n"
               "budget degree-cap 8\nbudget N 8\n",
    "countable": "name countable\ngrid 16x16\nbox -2 -2 2 2\n" + "".join(
        f"point {0.3 * k - 1.4:g} {0.1 * k * (-1) ** k:g}\n"
        for k in range(10)) + "budget N 9\n",
}
SCENE_BYTES = bytes(range(32, 127)) + b"\t\n\r\x00\xff"


def _run_mutant(capsys, argv):
    """main(argv) must return 0, 1 or 2, and exit 1 with one error line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def _clean_run(tmp_path, pipeline):
    scene = write_scene(tmp_path, CORRUPTION_SCENES[pipeline])
    clean = tmp_path / "clean"
    assert main(["construct", str(scene), "--pipeline", pipeline,
                 "--out", str(clean)]) == 0
    assert main(["verify", str(scene), str(clean / "series.json"),
                 "--out", str(clean)]) in (0, 2)
    return scene, clean / "series.json"


@pytest.mark.filterwarnings("ignore::sigmaconv.ResolutionWarning")
@pytest.mark.filterwarnings("ignore::sigmaconv.EmptyPrimitiveWarning")
@pytest.mark.parametrize("pipeline", ["compact", "countable"])
def test_cli_survives_corrupt_scenes(tmp_path, capsys, pipeline):
    # 1-3 random byte replacements per scene, through construct and through
    # verify against the clean series; printable bytes mostly, so that most
    # mutants still decode and reach past the first line
    scene, series = _clean_run(tmp_path, pipeline)
    rng = random.Random(1)
    text = scene.read_bytes()
    mutant = tmp_path / "mutant.txt"
    for _ in range(400):
        data = bytearray(text)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.choice(SCENE_BYTES)
        mutant.write_bytes(bytes(data))
        out = str(tmp_path / "out")
        _run_mutant(capsys, ["construct", str(mutant), "--pipeline",
                             pipeline, "--out", out])
        _run_mutant(capsys, ["verify", str(mutant), str(series),
                             "--out", out])


@pytest.mark.filterwarnings("ignore::sigmaconv.ResolutionWarning")
@pytest.mark.filterwarnings("ignore::sigmaconv.EmptyPrimitiveWarning")
@pytest.mark.parametrize("pipeline", ["compact", "countable"])
def test_cli_survives_corrupt_series(tmp_path, capsys, pipeline):
    # one random JSON leaf of series.json replaced by a malformed value
    scene, series = _clean_run(tmp_path, pipeline)
    rng = random.Random(2)
    obj = json.loads(series.read_text())
    paths = list(leaf_paths(obj))
    mutant = tmp_path / "mutant.json"
    for _ in range(300):
        mutant.write_text(corrupt_leaf(obj, paths, rng))
        _run_mutant(capsys, ["verify", str(scene), str(mutant),
                             "--out", str(tmp_path / "out")])


@pytest.mark.filterwarnings("ignore::sigmaconv.ResolutionWarning")
@pytest.mark.parametrize("depth", [995, 5000])
def test_cli_reports_a_series_nested_too_deeply(tmp_path, capsys, depth):
    # an interleave nest deeper than the JSON parser recurses, built in
    # O(depth), through both commands that load a series
    scene, series = _clean_run(tmp_path, "countable")
    leaf = series.read_text()
    nest = tmp_path / "nest.json"
    nest.write_text('{"type": "interleave", "even": ' * depth + leaf
                    + (', "odd": ' + leaf + '}') * depth)
    capsys.readouterr()
    for argv in (["verify", str(scene), str(nest)],
                 ["interleave", str(nest), str(series)]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: series nests too deeply"]
