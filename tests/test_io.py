"""PGM image files and JSON persistence: round trips must be bit-exact."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sigmaconv import (COMPACT, DOMAIN, OPEN, Grid, RegionMask, Verdict,
                       ascending_decomposition, block_series,
                       compact_set_series, conv_map, countable_set_series,
                       enumeration_series, full_domain, interleave,
                       load_series, polynomial_hull, rasterize_scene,
                       read_map_pgm, read_mask_pgm, save_map, save_series,
                       series_from_json, series_to_json, shapes,
                       sigma_convex_series, write_map_pgm, write_mask_pgm,
                       PointSequence, RootPolynomial, export_decomposition,
                       load_decomposition)
from sigmaconv.serialize import grid_from_json, map_sidecar
from conftest import disk_growth_series, random_polyomino


def odd_grid():
    # origin and pixel that are not exactly representable in binary
    return Grid.from_box(-1.3, -0.7, 1.1, 1.7, 48, 48)


# ------------------------------------------------------------ mask PGM


@pytest.mark.parametrize("kind", [COMPACT, OPEN])
def test_mask_pgm_round_trip(tmp_path, kind):
    g = odd_grid()
    rng = np.random.default_rng(11)
    mask = RegionMask(g, random_polyomino(rng, g, 120).bits, kind)
    path = tmp_path / "m.pgm"
    write_mask_pgm(mask, path)
    back = read_mask_pgm(path)
    assert back.grid == g  # repr round-trip keeps the exact floats
    assert back.kind == kind
    assert np.array_equal(back.bits, mask.bits)


def test_domain_mask_round_trip(tmp_path):
    g = odd_grid()
    dom = full_domain(g)
    write_mask_pgm(dom, tmp_path / "d.pgm")
    back = read_mask_pgm(tmp_path / "d.pgm")
    assert back.kind == DOMAIN
    assert back.same_cells(dom)


def test_mask_pgm_rows_are_stored_top_down(tmp_path):
    g = Grid.from_box(0.0, 0.0, 1.0, 1.0, 8, 8)
    bits = np.zeros((8, 8), dtype=bool)
    bits[1, 2] = True  # near the bottom of the plane
    write_mask_pgm(RegionMask(g, bits, OPEN), tmp_path / "m.pgm")
    raw = (tmp_path / "m.pgm").read_bytes()
    data = raw[-64:]
    assert data.count(255) == 1
    # the bottom plane row must be the second-to-last image row
    assert data[(8 - 2) * 8 + 2] == 255


def test_mask_pgm_rejects_tampered_pixels(tmp_path):
    g = Grid.from_box(0.0, 0.0, 1.0, 1.0, 8, 8)
    write_mask_pgm(RegionMask(g, np.zeros((8, 8), dtype=bool), OPEN),
                   tmp_path / "m.pgm")
    raw = bytearray((tmp_path / "m.pgm").read_bytes())
    raw[-5] = 7
    (tmp_path / "m.pgm").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="0 or 255"):
        read_mask_pgm(tmp_path / "m.pgm")


def test_mask_pgm_header_errors(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="not a binary PGM"):
        read_mask_pgm(p)
    p.write_bytes(b"P5\n2 2\n254\n" + bytes(4))
    with pytest.raises(ValueError, match="maxval 255"):
        read_mask_pgm(p)
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ValueError, match="truncated"):
        read_mask_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))  # no metadata comment
    with pytest.raises(ValueError, match="metadata"):
        read_mask_pgm(p)


# ------------------------------------------------------------ map PGM


def small_map():
    g = Grid.from_box(-1.5, -1.5, 1.5, 1.5, 16, 16)
    f = disk_growth_series(0.0, 0.8, 8)
    return g, conv_map(f, g, N=8, B=math.log(1.1), M=math.log(1.5))


def test_map_pgm_round_trip(tmp_path):
    g, cmap = small_map()
    write_map_pgm(cmap, tmp_path / "v.pgm")
    grid, verdicts, budgets = read_map_pgm(tmp_path / "v.pgm")
    assert grid == g
    assert np.array_equal(verdicts, cmap.verdicts)
    assert budgets == {"N": 8, "B": cmap.B, "M": cmap.M}


def test_map_pgm_rejects_unknown_gray(tmp_path):
    g, cmap = small_map()
    write_map_pgm(cmap, tmp_path / "v.pgm")
    raw = bytearray((tmp_path / "v.pgm").read_bytes())
    raw[-1] = 3
    (tmp_path / "v.pgm").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="0, 128 or 255"):
        read_map_pgm(tmp_path / "v.pgm")


def test_save_map_writes_matching_sidecar(tmp_path):
    g, cmap = small_map()
    save_map(cmap, tmp_path / "v.pgm", tmp_path / "v.json")
    side = json.loads((tmp_path / "v.json").read_text())
    assert side["N"] == 8
    assert side["counts"] == cmap.counts()
    assert side["grid"]["width"] == 16
    assert map_sidecar(cmap)["counts"] == cmap.counts()


# ------------------------------------------------------------ series JSON


def grid_samples():
    return Grid.from_box(-2.0, -2.0, 2.0, 2.0, 24, 24).centers()


def assert_identical_series(f, g):
    zs = grid_samples()
    assert g.max_supported_n == f.max_supported_n
    for n in range(f.max_supported_n + 1):
        assert np.array_equal(f.log_mag(n, zs), g.log_mag(n, zs))


def test_countable_series_round_trip(tmp_path):
    f = countable_set_series(PointSequence.from_points(
        (0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j, 0.8 + 0.8j, -1.0 - 1.0j,
         0.05 - 0.85j)))
    save_series(f, tmp_path / "s.json")
    assert_identical_series(f, load_series(tmp_path / "s.json"))


def test_block_series_round_trip(tmp_path):
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 64, 64)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.6))], g,
                                        kind=COMPACT))
    f = compact_set_series(K, g, stages=3, degree_cap=16)
    save_series(f, tmp_path / "s.json")
    back = load_series(tmp_path / "s.json")
    assert_identical_series(f, back)
    assert back.structure.block_sizes == f.structure.block_sizes
    assert back.structure.uncovered_counts == f.structure.uncovered_counts
    assert back.structure.f0_log_mag == -math.inf  # json Infinity survives


def test_interleave_series_round_trip(tmp_path):
    f = countable_set_series(PointSequence.from_points(
        (0.0, 1.0, 1j, -1.0, -1j, 0.5 + 0.5j)))
    h = disk_growth_series(0.2 + 0.1j, 0.9, 5)
    F = interleave(f, h)
    save_series(F, tmp_path / "s.json")
    assert_identical_series(F, load_series(tmp_path / "s.json"))


def test_scaled_product_round_trip(tmp_path):
    f = enumeration_series(
        PointSequence.from_points((0.1, 0.5, 0.9, 0.3 + 0.4j)),
        [1.0, 2.0, 0.5, 4.0, 8.0])
    save_series(f, tmp_path / "s.json")
    assert_identical_series(f, load_series(tmp_path / "s.json"))


def test_structureless_series_is_not_serializable():
    from sigmaconv import CoefficientSeries
    f = CoefficientSeries(lambda n, z: np.zeros(np.shape(z)),
                          description="ad hoc", max_supported_n=4)
    with pytest.raises(TypeError, match="no serializable structure"):
        series_to_json(f)


def test_unknown_series_type_is_rejected():
    with pytest.raises(ValueError, match="unknown series type"):
        series_from_json({"type": "mystery"})


# ------------------------------------------------------------ series writer


def compact_series():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.6))], g,
                                        kind=COMPACT))
    return compact_set_series(K, g, stages=3, degree_cap=16)


def sigma_series():
    g, dec = make_decomposition()
    return sigma_convex_series(dec, full_domain(g), degree_cap=16)


def hand_block_series():
    a, b, c = 0.5 + 0.25j, -1.0 / 3 + 2j, 1e-300 - 7e22j
    members = [RootPolynomial((a, b, c), 0.1),
               RootPolynomial((a, b), -0.7),  # shrinks after a longer one
               RootPolynomial((a, b, c, a + b), 1.5),
               RootPolynomial((c,), 2.0),  # shares no prefix
               RootPolynomial((), 0.0),  # degree 0
               RootPolynomial((c, a), -math.inf),
               RootPolynomial((complex(0.0, 1.0),), 0.2),
               # == the previous root, but written -0.0
               RootPolynomial((complex(-0.0, 1.0), b), 0.3),
               RootPolynomial((complex(-0.0, 1.0), b, a), 0.4)]
    return block_series(members, [4, 5], 0.0,
                        description="\u03c3-convex \u2014 na\u00efve")


def countable_series():
    return countable_set_series(PointSequence.from_points(
        (0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j, 0.8 + 0.8j)))


def scaled_product_series():
    return enumeration_series(
        PointSequence.from_points((0.1, 0.5, 0.9, 0.3 + 0.4j)),
        [1.0, 2.0, 0.5, 4.0, 8.0])


@pytest.mark.parametrize("build", [
    sigma_series, compact_series, hand_block_series, countable_series,
    scaled_product_series,
    lambda: interleave(hand_block_series(), compact_series()),
    lambda: interleave(countable_series(), sigma_series()),
], ids=["sigma", "compact", "hand-blocks", "countable", "scaled-product",
        "interleave-blocks", "interleave-countable-blocks"])
def test_save_series_writes_json_indent_1(tmp_path, build):
    series = build()
    save_series(series, tmp_path / "s.json")
    text = (tmp_path / "s.json").read_text()
    assert text == json.dumps(series_to_json(series), indent=1)
    save_series(load_series(tmp_path / "s.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text


def test_hand_block_series_covers_the_writer_cases():
    obj = series_to_json(hand_block_series())
    assert [] in [m["roots"] for m in obj["members"]]
    assert -math.inf in [m["log_scale"] for m in obj["members"]]
    assert obj["f0_log_mag"] == 0.0
    assert not obj["description"].isascii()
    assert obj["members"][7]["roots"][0] == [-0.0, 1.0]
    assert math.copysign(1.0, obj["members"][7]["roots"][0][0]) == -1.0
    assert compact_series().structure.f0_log_mag == -math.inf


# ------------------------------------------------------------ decomposition


def make_decomposition():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
    K1 = polynomial_hull(rasterize_scene([(1, shapes.Disk(-0.8, 0.0, 0.4))],
                                         g, kind=COMPACT))
    K2 = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.8, 0.0, 0.4))],
                                         g, kind=COMPACT))
    return g, ascending_decomposition([K1, K2], 4)


def test_decomposition_export_and_reload(tmp_path):
    g, dec = make_decomposition()
    manifest = export_decomposition(dec, tmp_path / "out")
    assert manifest["n_max"] == 4
    assert len(manifest["files"]) == 8  # E and U per stage
    back = load_decomposition(tmp_path / "out")
    assert back.grid == g
    assert back.hull_identity == dec.hull_identity
    for n in range(4):
        assert back.E_list[n].same_cells(dec.E_list[n])
        assert back.U_list[n].same_cells(dec.U_list[n])


def test_decomposition_reload_rejects_tampering(tmp_path):
    _, dec = make_decomposition()
    export_decomposition(dec, tmp_path / "out")
    victim = tmp_path / "out" / "E_002.pgm"
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum mismatch for E_002.pgm"):
        load_decomposition(tmp_path / "out")


def _set(**fields):
    return lambda out, manifest: manifest.update(fields)


def _unlist(name):
    return lambda out, manifest: manifest["files"].pop(name)


def _unlisted_tampered_stage(out, manifest):
    """Drop E_001's checksum and rewrite it as a valid one-cell mask."""
    manifest["files"].pop("E_001.pgm")
    g = grid_from_json(manifest["grid"])
    bits = np.zeros((g.height, g.width), dtype=bool)
    bits[g.height // 2, g.width // 2] = True
    write_mask_pgm(RegionMask(g, bits, COMPACT), out / "E_001.pgm")


MANIFEST_CORRUPTIONS = {
    "unlisted tampered E_001": (_unlisted_tampered_stage,
                                "no checksum for E_001.pgm"),
    "unlisted U_004": (_unlist("U_004.pgm"), "no checksum for U_004.pgm"),
    "stages beyond the files": (_set(n_max=5, hull_identity=["verified"] * 5),
                                "no checksum for E_005.pgm"),
    "bogus status, n_max 2": (_set(n_max=2, hull_identity=["bogus"]),
                              "hull_identity must hold 2 entries"),
    "unknown status": (_set(hull_identity=["verified", "bogus"] * 2),
                       "hull_identity must hold 4 entries"),
    "short status": (_set(hull_identity=["verified"] * 3),
                     "hull_identity must hold 4 entries"),
    "n_max 0": (_set(n_max=0), "n_max must be a positive"),
    "n_max fractional": (_set(n_max=2.5), "n_max must be a positive"),
    "n_max string": (_set(n_max="4"), "n_max must be a positive"),
    "n_max bool": (_set(n_max=True), "n_max must be a positive"),
    "files not an object": (_set(files=[]), "files must be a JSON object"),
}


@pytest.mark.parametrize("case", list(MANIFEST_CORRUPTIONS))
def test_decomposition_reload_rejects_malformed_manifest(tmp_path, case):
    corrupt, message = MANIFEST_CORRUPTIONS[case]
    _, dec = make_decomposition()
    out = tmp_path / "out"
    manifest = export_decomposition(dec, out)
    corrupt(out, manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    with pytest.raises(ValueError, match=message):
        load_decomposition(out)
