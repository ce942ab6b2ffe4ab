"""PGM image files and JSON persistence: round trips must be bit-exact."""

import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sigmaconv import (COMPACT, DOMAIN, OPEN, Grid, RegionMask, Verdict,
                       ascending_decomposition, block_series,
                       compact_set_series, conv_map, countable_set_series,
                       full_domain, interleave, load_series, polynomial_hull,
                       rasterize_scene,
                       read_map_pgm, read_mask_pgm, save_map, save_series,
                       series_from_json, series_to_json, shapes,
                       sigma_convex_series, write_map_pgm, write_mask_pgm,
                       PointSequence, RootPolynomial, export_decomposition,
                       load_decomposition)
from sigmaconv import serialize
from sigmaconv.construct import (BlockStructure, InterleaveStructure,
                                 block_series_from_tables)
from sigmaconv.serialize import grid_from_json, map_sidecar
from conftest import (corrupt_leaf, disk_growth_series, leaf_paths,
                      oracle_series, random_polyomino, reference_log_mag)


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
    assert write_mask_pgm(mask, path) == path.read_bytes()
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
    p.write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="size -2x-2 is not positive"):
        read_mask_pgm(p)
    p.write_bytes(b"P5\n2a 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="size and maxval must be integers"):
        read_mask_pgm(p)
    p.write_bytes(b"P5\n# a comment without an end of line")
    with pytest.raises(ValueError, match="unterminated comment"):
        read_mask_pgm(p)
    good = tmp_path / "good.pgm"
    write_mask_pgm(RegionMask(Grid.from_box(0.0, 0.0, 1.0, 1.0, 8, 8),
                              np.zeros((8, 8), dtype=bool), OPEN), good)
    raw = good.read_bytes()
    # cut after the image height, before the maxval token
    p.write_bytes(raw[:raw.index(b"\n255\n")])
    with pytest.raises(ValueError, match="truncated PGM header"):
        read_mask_pgm(p)
    p.write_bytes(raw + bytes(64))
    with pytest.raises(ValueError, match="extra bytes after the pixel data"):
        read_mask_pgm(p)
    for field in ("origin", "pixel"):
        p.write_bytes(raw.replace(f" {field}=".encode(), b" x="))
        with pytest.raises(ValueError,
                           match=re.escape(f"metadata lacks ['{field}']")):
            read_mask_pgm(p)
    p.write_bytes(raw.replace(b"sigmaconv-mask", b"sigmaconv-map"))
    with pytest.raises(ValueError,
                       match=re.escape(f"{p}: metadata lacks ['B', 'M', 'N']")):
        read_map_pgm(p)
    # metadata the classifier would refuse, or that does not parse, names
    # the file
    write_map_pgm(small_map()[1], good)
    raw = good.read_bytes()
    for pattern, value, fragment in [
            (rb" N=\S+", b" N=-5", "budgets need N >= 8 and B < M, got N=-5"),
            (rb" N=\S+", b" N=0", "got N=0"),
            (rb" B=\S+ M=\S+", b" B=2.0 M=1.0", "got N=8 B=2.0 M=1.0"),
            (rb" B=\S+", b" B=inf", "non-finite budgets in metadata"),
            (rb" N=\S+", b" N=ab", "bad budget metadata"),
            (rb" pixel=\S+", b" pixel=x", "bad grid metadata"),
            (rb" B=", b" B=\xe9", "comment is not ASCII")]:
        p.write_bytes(re.sub(pattern, value, raw, count=1))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(p))}: .*{re.escape(fragment)}"):
            read_map_pgm(p)


@pytest.mark.parametrize("comment", [b"# created by an image editor\n",
                                     b"# \xe9\n"])
def test_pgm_foreign_header_comments_are_skipped(tmp_path, comment):
    # any comment but the tag comment is skipped unread, whatever it holds
    g = odd_grid()
    mask = RegionMask(g, random_polyomino(np.random.default_rng(5), g,
                                          60).bits, COMPACT)
    write_mask_pgm(mask, tmp_path / "m.pgm")
    write_map_pgm(small_map()[1], tmp_path / "v.pgm")
    for name in ("m.pgm", "v.pgm"):
        p = tmp_path / name
        p.write_bytes(p.read_bytes().replace(b"P5\n", b"P5\n" + comment, 1))
    back = read_mask_pgm(tmp_path / "m.pgm")
    assert (back.grid, back.kind) == (g, COMPACT)
    assert np.array_equal(back.bits, mask.bits)
    g, cmap = small_map()
    grid, verdicts, budgets = read_map_pgm(tmp_path / "v.pgm")
    assert grid == g and np.array_equal(verdicts, cmap.verdicts)
    assert budgets == {"N": 8, "B": cmap.B, "M": cmap.M}


@pytest.mark.parametrize("kind", ["mask", "map"])
def test_pgm_header_corruptions_load_or_raise_value_error(tmp_path, kind):
    # one random byte of the header replaced, 300 times: every mutant either
    # loads or raises ValueError
    path = tmp_path / "clean.pgm"
    if kind == "mask":
        g = odd_grid()
        write_mask_pgm(RegionMask(g, random_polyomino(
            np.random.default_rng(3), g, 40).bits, COMPACT), path)
        read = read_mask_pgm
    else:
        write_map_pgm(small_map()[1], path)
        read = read_map_pgm
    raw = path.read_bytes()
    header = raw.index(b"\n255\n") + 5
    rng = random.Random(0)
    mutant = tmp_path / "mutant.pgm"
    for _ in range(300):
        data = bytearray(raw)
        data[rng.randrange(header)] = rng.randrange(256)
        mutant.write_bytes(bytes(data))
        try:
            read(mutant)
        except ValueError:
            pass


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
        assert np.array_equal(reference_log_mag(f, n, zs),
                              reference_log_mag(g, n, zs))


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
    f = compact_set_series(K, stages=3, degree_cap=16)
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


def test_a_series_nested_too_deeply_to_write_is_a_value_error(tmp_path):
    # the writer recurses once per level, so a nest as deep as the
    # recursion limit cannot be written; interleave itself does not recurse
    f = countable_set_series(PointSequence.from_points((0.5, 0.25j)))
    F = f
    for _ in range(sys.getrecursionlimit()):
        F = interleave(F, f)
    with pytest.raises(ValueError, match="series nests too deeply"):
        save_series(F, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


def test_structureless_series_is_not_serializable():
    f = oracle_series(lambda n, z: np.zeros(np.shape(z)),
                      description="ad hoc", max_supported_n=4)
    with pytest.raises(TypeError, match="no serializable structure"):
        series_to_json(f)


def test_unknown_series_type_is_rejected():
    with pytest.raises(ValueError, match="unknown series type"):
        series_from_json({"type": "mystery"})
    # a caller-scaled product file, as older versions wrote them
    with pytest.raises(ValueError,
                       match="unknown series type 'scaled-product'"):
        series_from_json({"type": "scaled-product", "points": [[0.1, 0.0]],
                          "log_c": [0.0, 0.5]})


# ------------------------------------------------------------ series writer


def compact_series():
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.6))], g,
                                        kind=COMPACT))
    return compact_set_series(K, stages=3, degree_cap=16)


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


def loaded_hand_block_series():
    """hand_block_series after save_series and load_series: the text
    decoder places its members on shared sequences, which block_series
    never does, so the evaluators' folds that shrink, extend again and
    have degree 0 run on it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save_series(hand_block_series(), path)
        return load_series(path)


def countable_series():
    return countable_set_series(PointSequence.from_points(
        (0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j, 0.8 + 0.8j)))


def memberless_block_series():
    """Two stages without members: the members list is written []."""
    return block_series([], [0, 0], 0.0, "no members", [3, 0])


def lockstep_block_series():
    """Two lockstep stages that share each member: every (degree,
    log_scale) of one sequence is placed twice."""
    a, b, c = 0.5 + 0.25j, -1.0 / 3 + 2j, -0.0 - 1e-300j
    return block_series_from_tables(
        [(a, b, c)], [(0, 1), (0, 3), (0, 1), (0, 3)], [0.2, -1.5, 0.2, -1.5],
        [2, 2], 1.0, "lockstep stages")


WRITERS = {
    "sigma": sigma_series, "compact": compact_series,
    "hand-blocks": hand_block_series, "countable": countable_series,
    "interleave-blocks": lambda: interleave(hand_block_series(),
                                            compact_series()),
    "interleave-countable-blocks": lambda: interleave(countable_series(),
                                                      sigma_series()),
}
WRITER_BUILDS = pytest.mark.parametrize("build", list(WRITERS.values()),
                                        ids=list(WRITERS))


@pytest.mark.parametrize("build", [*WRITERS.values(), memberless_block_series,
                                   lockstep_block_series],
                         ids=[*WRITERS, "no-members", "lockstep-shared"])
def test_save_series_writes_json_indent_1(tmp_path, build):
    series = build()
    save_series(series, tmp_path / "s.json")
    data = (tmp_path / "s.json").read_bytes()
    assert data == json.dumps(series_to_json(series), indent=1).encode()
    save_series(load_series(tmp_path / "s.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == data


def _refuse_json_path(monkeypatch):
    def refuse(objs):
        raise AssertionError("members took the json path")

    monkeypatch.setattr(serialize, "_members_from_json", refuse)


def _block_structures(series):
    s = series.structure
    if isinstance(s, InterleaveStructure):
        return _block_structures(s.even) + _block_structures(s.odd)
    return [s] if isinstance(s, BlockStructure) else []


def _sequence_roots(obj):
    """The roots of the Leja sequences of a series object's block members,
    told apart by their stored pairs: a member that repeats a prefix of the
    running sequence adds none, one that extends it adds the rest."""
    if obj["type"] == "interleave":
        return _sequence_roots(obj["even"]) + _sequence_roots(obj["odd"])
    count, seq = 0, []
    for member in obj.get("members", []):
        pairs = [json.dumps(p) for p in member["roots"]]
        if pairs != seq[:len(pairs)]:
            count += len(pairs) - (len(seq) if pairs[:len(seq)] == seq else 0)
            seq = pairs
    return count


@WRITER_BUILDS
def test_every_written_series_loads_through_the_text_decoder(
        tmp_path, monkeypatch, build):
    series = build()
    path = tmp_path / "s.json"
    save_series(series, path)
    text = path.read_text()
    with monkeypatch.context() as patch:
        _refuse_json_path(patch)
        loaded = load_series(path)
    save_series(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    roots = {id(r) for s in _block_structures(loaded)
             for h in s.members for r in h.roots}
    assert len(roots) == _sequence_roots(json.loads(text))
    # the same object in other layouts takes the json path, to the same
    # members, zero signs included
    calls = []
    convert = serialize._members_from_json
    monkeypatch.setattr(serialize, "_members_from_json",
                        lambda objs: calls.append(1) or convert(objs))
    for indent in (2, None):
        path.write_text(json.dumps(json.loads(text), indent=indent))
        calls.clear()
        again = load_series(path)
        assert len(calls) == len(_block_structures(series))
        assert json.dumps(series_to_json(again)) == json.dumps(
            series_to_json(loaded))


@pytest.mark.parametrize("members,sequences,placement", [
    ([RootPolynomial((), 0.5), RootPolynomial((0.25 - 1j,), 0.0),
      RootPolynomial((), -math.inf)],
     [(), (0.25 - 1j,)], [[0, 0], [1, 1], [1, 0]]),
    ([RootPolynomial((), 0.5)] * 2, [()], [[0, 0], [0, 0]]),
], ids=["then-roots", "all-degree-0"])
def test_a_first_member_of_degree_0_loads_through_the_text_decoder(
        tmp_path, monkeypatch, members, sequences, placement):
    # the decoder opens an empty sequence for it
    series = block_series(members, [1, len(members) - 1], 0.0,
                          "degree 0 first")
    save_series(series, tmp_path / "s.json")
    _refuse_json_path(monkeypatch)
    loaded = load_series(tmp_path / "s.json").structure
    assert list(loaded.sequences) == sequences
    assert loaded.placement.tolist() == placement
    assert loaded.members == series.structure.members
    save_series(load_series(tmp_path / "s.json"), tmp_path / "again.json")
    assert ((tmp_path / "again.json").read_bytes()
            == (tmp_path / "s.json").read_bytes())


def _ones_series_text(tmp_path):
    # three equal members whose repeated first pair [1.0, 0.0] reads the
    # same as [true, 0.0] or [1.0, -0.0] to complex ==
    series = block_series([RootPolynomial((1.0 + 0.0j, 0.5j), 0.0)] * 3,
                          [3], 0.0, "ones")
    save_series(series, tmp_path / "s.json")
    return (tmp_path / "s.json").read_text()


def _tamper_last_member(text, old, new):
    """text with the first ``old`` in the last member replaced by ``new``."""
    start = text.rindex('"roots": [')
    assert old in text[start:]
    return text[:start] + text[start:].replace(old, new, 1)


@pytest.mark.parametrize("old,new,root", [
    ("1.0,", "3.0,", 3.0 + 0.0j),  # one digit
    ("0.0\n", "-0.0\n", complex(1.0, -0.0)),
])
def test_a_tampered_repeated_pair_loads_as_stored(tmp_path, monkeypatch, old,
                                                  new, root):
    text = _tamper_last_member(_ones_series_text(tmp_path), old, new)
    (tmp_path / "s.json").write_text(text)
    _refuse_json_path(monkeypatch)
    members = load_series(tmp_path / "s.json").structure.members
    assert [h.roots for h in members] == [(1.0, 0.5j)] * 2 + [(root, 0.5j)]
    assert math.copysign(1.0, members[0].roots[0].imag) == 1.0
    assert (math.copysign(1.0, members[2].roots[0].imag)
            == math.copysign(1.0, root.imag))
    assert members[0].roots[0] is members[1].roots[0]
    assert members[2].roots[0] is not members[0].roots[0]


def test_a_repeated_pair_written_true_is_rejected(tmp_path):
    text = _tamper_last_member(_ones_series_text(tmp_path), "1.0,", "true,")
    (tmp_path / "s.json").write_text(text)
    with pytest.raises(ValueError,
                       match=re.escape("[re, im] pair, got [True, 0.0]")):
        load_series(tmp_path / "s.json")


@pytest.mark.parametrize("old,new", [
    ("\n    ]\n   ],", "\n    ],\n   ],"),  # a trailing comma in roots
    ("1.0,", "1.,"),  # not a JSON number
    ("1.0,", "1.0 ,"),  # a space json.loads skips
    ("0.0\n  }", "0.0,\n   \"x\": 1\n  }"),  # a key the loader ignores
    ("0.0\n  }", "-0\n  }"),  # an integer log_scale
    ("0.0\n  }", "NaN\n  }"),
    ("0.0\n  }", "1e400\n  }"),
    ("0.0\n  }", "[]\n  }"),
    ("\"log_scale\": ", "\"log_scale\":"),  # a key in another layout
    ("\n  }\n ],", "\n  },\n ],"),  # a trailing comma in members
    ("\n ],", "\n ]5,"),  # a number right after the list
    # roots that stop inside a pair of the running sequence
    (",\n     0.5\n    ]\n   ],", "\n   ],"),
    ("0.0\n  }\n ],", "0.0\n ],"),  # a last member that never closes
])
def test_the_text_decoder_reads_what_json_loads_reads(tmp_path, old, new):
    # a file that save_series' layout no longer quite fits loads, or is
    # rejected, exactly as json.loads and series_from_json take it
    path = tmp_path / "s.json"
    path.write_text(_tamper_last_member(_ones_series_text(tmp_path), old,
                                        new))

    def outcome(load):
        try:
            return json.dumps(series_to_json(load()))
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    assert outcome(lambda: load_series(path)) == outcome(
        lambda: series_from_json(json.loads(path.read_text())))


def test_an_integer_that_opens_like_a_decoded_list_is_read_as_one(tmp_path):
    path = tmp_path / "s.json"
    big = int(serialize._PLACEHOLDER + "0")
    path.write_text(_ones_series_text(tmp_path).replace(
        '"f0_log_mag": 0.0', f'"f0_log_mag": {big}'))
    assert load_series(path).structure.f0_log_mag == float(big)


def test_hand_block_series_covers_the_writer_cases():
    obj = series_to_json(hand_block_series())
    assert [] in [m["roots"] for m in obj["members"]]
    assert -math.inf in [m["log_scale"] for m in obj["members"]]
    assert obj["f0_log_mag"] == 0.0
    assert not obj["description"].isascii()
    assert obj["members"][7]["roots"][0] == [-0.0, 1.0]
    assert math.copysign(1.0, obj["members"][7]["roots"][0][0]) == -1.0
    assert compact_series().structure.f0_log_mag == -math.inf


def test_loaded_members_share_the_roots_of_their_sequence(tmp_path):
    # hand_block_series shrinks after a longer member, re-extends, starts
    # over on a member with no shared prefix, and repeats a root as -0.0
    series = hand_block_series()
    save_series(series, tmp_path / "s.json")
    text = (tmp_path / "s.json").read_text()
    loaded = load_series(tmp_path / "s.json")
    save_series(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    roots = [h.roots for h in loaded.structure.members]
    assert roots == [h.roots for h in series.structure.members]
    assert roots[0][0] is roots[1][0] is roots[2][0]
    assert roots[0][2] is roots[2][2]
    assert roots[3][0] is roots[5][0]
    assert roots[7][0] is roots[8][0] and roots[7][1] is roots[8][1]
    # 0.0 + 1j and -0.0 + 1j compare equal but keep their own signs
    assert math.copysign(1.0, roots[6][0].real) == 1.0
    assert math.copysign(1.0, roots[7][0].real) == -1.0


def test_loaded_members_of_a_sigma_series_convert_each_root_once(tmp_path):
    series = sigma_series()
    save_series(series, tmp_path / "s.json")
    loaded = load_series(tmp_path / "s.json").structure
    distinct = {id(r) for h in loaded.members for r in h.roots}
    assert len(distinct) == sum(map(len, loaded.sequences))


def memberless_compact_series():
    """A one-stage compact series whose shell is empty: its group has no
    member and stores no sequence."""
    g = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.0, 0.0, 0.2))], g,
                                        kind=COMPACT))
    return compact_set_series(K, stages=1, degree_cap=4)


@pytest.mark.parametrize("build", [sigma_series, compact_series,
                                   memberless_compact_series],
                         ids=["sigma", "compact", "memberless"])
def test_loaded_block_series_stores_the_constructed_sequences(tmp_path,
                                                              build):
    built = build().structure
    save_series(build(), tmp_path / "s.json")
    loaded = load_series(tmp_path / "s.json").structure
    # repr tells -0.0 from 0.0, which complex == does not
    assert list(map(repr, loaded.sequences)) == list(map(repr,
                                                         built.sequences))
    assert loaded.placement.tolist() == built.placement.tolist()
    assert loaded.log_scales.tobytes() == built.log_scales.tobytes()
    assert loaded.block_sizes == built.block_sizes


def test_shared_prefix_pairs_are_still_checked():
    # a pair equal to the one before it, as JSON false equals 0.0 and true
    # 1.0, is still checked on its own
    obj = series_to_json(block_series(
        [RootPolynomial((1.0 + 0.0j, 0.5j), 0.0)] * 3, [3], 0.0, "ones"))
    assert obj["members"][1]["roots"][0] == [True, False]
    obj["members"][1]["roots"][0] = [True, False]
    with pytest.raises(ValueError, match=r"\[re, im\] pair"):
        series_from_json(obj)
    obj["members"][1]["roots"][0] = [1, 0]  # JSON integers are numbers
    assert series_from_json(obj).structure.members[1].roots[0] == 1.0


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


def test_series_replays_from_the_exported_decomposition(tmp_path):
    """The export replays the series: dec's 4 stages share 2 E objects and
    the reloaded ones hold 4, yet both build the same 2 lockstep groups,
    as the builder groups stages by E's cells, and save the same bytes."""
    g, dec = make_decomposition()
    export_decomposition(dec, tmp_path / "out")
    back = load_decomposition(tmp_path / "out")
    assert len({id(E) for E in dec.E_list}) == 2
    assert len({id(E) for E in back.E_list}) == 4
    sequences = []
    for d, name in ((dec, "series.json"), (back, "replay.json")):
        series = sigma_convex_series(d, full_domain(g), degree_cap=16)
        save_series(series, tmp_path / name)
        sequences.append(len(series.structure.sequences))
    assert sequences == [2, 2]
    assert (tmp_path / "replay.json").read_bytes() == \
        (tmp_path / "series.json").read_bytes()


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


def _drop(*path):
    def corrupt(out, manifest):
        node = manifest
        for key in path[:-1]:
            node = node[key]
        node.pop(path[-1])
    return corrupt


def _unlisted_tampered_stage(out, manifest):
    """Drop E_001's checksum and rewrite it as a valid one-cell mask."""
    manifest["files"].pop("E_001.pgm")
    g = grid_from_json(manifest["grid"])
    bits = np.zeros((g.height, g.width), dtype=bool)
    bits[g.height // 2, g.width // 2] = True
    write_mask_pgm(RegionMask(g, bits, COMPACT), out / "E_001.pgm")


def _list_file(name, digest):
    return lambda out, manifest: manifest["files"].update({name: digest})


def _outside_file(out, manifest):
    """List a file beside the export directory, with its true checksum."""
    (out.parent / "outside.txt").write_text("not a stage mask\n")
    _list_file("../outside.txt",
               serialize._sha256(out.parent / "outside.txt"))(out, manifest)


MANIFEST_CORRUPTIONS = {
    "unlisted tampered E_001": (_unlisted_tampered_stage,
                                "no checksum for E_001.pgm"),
    "unlisted U_004": (_drop("files", "U_004.pgm"), "no checksum for U_004.pgm"),
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
    "grid missing": (_drop("grid"), "grid must be a JSON object"),
    "grid without pixel": (_drop("grid", "pixel"), "grid pixel is not a number"),
    "file outside the export": (_outside_file, "lists '../outside.txt'"),
    "missing file outside the export": (_list_file("../missing.pgm", "0" * 64),
                                        "lists '../missing.pgm'"),
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


def test_manifest_corruptions_load_or_raise_value_error(tmp_path):
    # one random JSON leaf of manifest.json replaced by a malformed value,
    # 300 times: every mutant either loads or raises ValueError
    _, dec = make_decomposition()
    out = tmp_path / "out"
    manifest = export_decomposition(dec, out)
    paths = list(leaf_paths(manifest))
    rng = random.Random(0)
    for _ in range(300):
        (out / "manifest.json").write_text(corrupt_leaf(manifest, paths, rng))
        try:
            load_decomposition(out)
        except ValueError:
            pass
