"""PGM image files and JSON persistence: series round trips must be
bit-exact, and the PGM and export writers keep their layout."""

import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sigmaconv import (COMPACT, DOMAIN, OPEN, Decomposition, Grid,
                       RegionMask, Verdict, ascending_decomposition,
                       block_series, compact_set_series, conv_map,
                       countable_set_series, full_domain, interleave,
                       load_series, polynomial_hull, rasterize_scene,
                       save_map, save_series, series_from_json,
                       series_to_json, shapes, sigma_convex_series,
                       write_map_pgm, write_mask_pgm, RootPolynomial,
                       export_decomposition)
from sigmaconv import serialize
from sigmaconv.construct import (BlockStructure, InterleaveStructure,
                                 block_series_from_tables)
from sigmaconv.serialize import map_sidecar
from conftest import (disk_growth_series, oracle_series,
                      pgm_fields_and_pixels, random_polyomino,
                      reference_log_mag)


def odd_grid():
    # origin and pixel that are not exactly representable in binary
    return Grid.from_box(-1.3, -0.7, 1.1, 1.7, 48, 48)


# ------------------------------------------------------------ mask PGM


def header(tag, fields, grid):
    """The writer's four header lines for a grid and tag fields."""
    words = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"P5\n# {tag} {words}\n{grid.width} {grid.height}\n255\n".encode()


def grid_fields(grid):
    """Origin and pixel as their float reprs, which keep the exact floats."""
    return {"origin": f"{grid.origin.real!r},{grid.origin.imag!r}",
            "pixel": repr(grid.pixel)}


@pytest.mark.parametrize("kind", [COMPACT, OPEN])
def test_mask_pgm_round_trip(tmp_path, kind):
    g = odd_grid()
    rng = np.random.default_rng(11)
    mask = RegionMask(g, random_polyomino(rng, g, 120).bits, kind)
    path = tmp_path / "m.pgm"
    assert write_mask_pgm(mask, path) == path.read_bytes()
    fields = {**grid_fields(g), "kind": kind}
    assert path.read_bytes() == header("sigmaconv-mask", fields, g) + \
        (mask.bits[::-1] * np.uint8(255)).tobytes()
    ox, oy = map(float, fields["origin"].split(","))
    assert Grid(complex(ox, oy), float(fields["pixel"]), 48, 48) == g


def test_domain_mask_round_trip(tmp_path):
    g = odd_grid()
    dom = full_domain(g)
    write_mask_pgm(dom, tmp_path / "d.pgm")
    fields, pixels = pgm_fields_and_pixels(tmp_path / "d.pgm")
    assert fields == {**grid_fields(g), "kind": DOMAIN}
    assert np.array_equal(pixels, dom.bits * np.uint8(255))


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


# ------------------------------------------------------------ map PGM


def small_map():
    g = Grid.from_box(-1.5, -1.5, 1.5, 1.5, 16, 16)
    f = disk_growth_series(0.4j, 0.8, 8)  # off the row axis: rows differ
    return g, conv_map(f, g, N=8, B=math.log(1.1), M=math.log(1.5))


def test_map_pgm_round_trip(tmp_path):
    g, cmap = small_map()
    write_map_pgm(cmap, tmp_path / "v.pgm")
    fields = {**grid_fields(g), "N": "8", "B": repr(cmap.B),
              "M": repr(cmap.M)}
    raw = (tmp_path / "v.pgm").read_bytes()
    head = header("sigmaconv-map", fields, g)
    assert raw.startswith(head) and len(raw) == len(head) + 16 * 16
    got, pixels = pgm_fields_and_pixels(tmp_path / "v.pgm")
    assert got == fields
    assert (float(got["B"]), float(got["M"])) == (cmap.B, cmap.M)
    # grid order after the decoder's flip: the file's rows run top-down
    assert not np.array_equal(cmap.verdicts, cmap.verdicts[::-1])
    for verdict, value in ((Verdict.DIVERGE, 0), (Verdict.UNDETERMINED, 128),
                           (Verdict.CONVERGE, 255)):
        assert (cmap.verdicts == verdict).any()
        assert np.array_equal(pixels == value, cmap.verdicts == verdict)


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
    f = countable_set_series(
        (0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j, 0.8 + 0.8j, -1.0 - 1.0j,
         0.05 - 0.85j))
    save_series(f, tmp_path / "s.json")
    assert_identical_series(f, load_series(tmp_path / "s.json"))


def test_countable_series_takes_any_sequence_of_points(tmp_path):
    """A list, a tuple and an array of the same points save the same
    bytes: countable_set_series stores them as one tuple of complex."""
    pts = [0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j, 0.8 + 0.8j, -1.0 - 1.0j]
    saved = []
    for i, points in enumerate([pts, tuple(pts), np.array(pts)]):
        save_series(countable_set_series(points), tmp_path / f"{i}.json")
        saved.append((tmp_path / f"{i}.json").read_bytes())
    assert saved[0] == saved[1] == saved[2]


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
    f = countable_set_series((0.0, 1.0, 1j, -1.0, -1j, 0.5 + 0.5j))
    h = disk_growth_series(0.2 + 0.1j, 0.9, 5)
    F = interleave(f, h)
    save_series(F, tmp_path / "s.json")
    assert_identical_series(F, load_series(tmp_path / "s.json"))


def test_a_series_nested_too_deeply_to_write_is_a_value_error(tmp_path):
    # the writer recurses once per level, so a nest as deep as the
    # recursion limit cannot be written; interleave itself does not recurse
    f = countable_set_series((0.5, 0.25j))
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
    return countable_set_series((0.1 + 0.2j, -0.4 + 0.9j, 1.2 - 0.3j,
                                 0.8 + 0.8j))


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


def test_the_text_decoder_parses_each_sequence_once(tmp_path, monkeypatch):
    # one json.loads per stored sequence and one for the rest of the file;
    # every log_scale is a float the decoder reads without one
    series = sigma_series()
    save_series(series, tmp_path / "s.json")
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda text, **kw: calls.append(text) or loads(
                            text, **kw))
    _refuse_json_path(monkeypatch)
    loaded = load_series(tmp_path / "s.json").structure
    assert len(loaded.sequences) > 1
    assert len(calls) == len(loaded.sequences) + 1
    assert list(map(repr, loaded.sequences)) == list(map(
        repr, series.structure.sequences))
    assert loaded.placement.tolist() == series.structure.placement.tolist()
    assert loaded.log_scales.tobytes() == series.structure.log_scales.tobytes()


def _growing_series_text(tmp_path):
    # each member extends the one before by one root
    a, b, c = 0.5 + 1j, -0.25 + 0.75j, 1.5 - 2j
    series = block_series([RootPolynomial((a,), 0.125),
                           RootPolynomial((a, b), -0.5),
                           RootPolynomial((a, b, c), -0.25)], [3], 0.0,
                          "grow")
    save_series(series, tmp_path / "s.json")
    return (tmp_path / "s.json").read_text()


@pytest.mark.parametrize("old,new,message", [
    # the root the last member adds to the running sequence
    ("-2.0\n", '"x"\n', "expected an [re, im] pair, got [1.5, 'x']"),
    ("-0.25\n  }", "1e400\n  }", "member log_scale is inf"),
])
def test_a_malformed_value_of_a_growing_sequence_is_rejected(
        tmp_path, old, new, message):
    path = tmp_path / "s.json"
    path.write_text(_tamper_last_member(_growing_series_text(tmp_path), old,
                                        new))
    with pytest.raises(ValueError, match=re.escape(message)):
        series_from_json(json.loads(path.read_text()))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_series(path)


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


def reloaded_decomposition(g, out, manifest):
    """A K-less Decomposition of the stage masks decoded from an export."""
    def decoded(name):
        fields, pixels = pgm_fields_and_pixels(out / name)
        return RegionMask(g, pixels == 255, fields["kind"])

    E_list = [decoded(f"E_{n:03d}.pgm") for n in range(1, 5)]
    U_list = [decoded(f"U_{n:03d}.pgm") for n in range(1, 5)]
    return Decomposition(g, [], manifest["n_max"], {}, E_list, U_list,
                         manifest["hull_identity"])


def test_decomposition_export_and_reload(tmp_path):
    """The manifest lists exactly E_nnn and U_nnn for stages 1..n_max, each
    with the sha256 of its file, and the decoded files hold the stages."""
    g, dec = make_decomposition()
    out = tmp_path / "out"
    manifest = export_decomposition(dec, out)
    names = [f"{p}_{n:03d}.pgm" for n in range(1, 5) for p in "EU"]
    assert json.loads((out / "manifest.json").read_text()) == manifest
    assert manifest == {"n_max": 4, "grid": serialize.grid_to_json(g),
                        "pixel_band": 2.0 * g.pixel,
                        "hull_identity": list(dec.hull_identity),
                        "files": manifest["files"]}
    assert sorted(manifest["files"]) == sorted(names)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        names + ["manifest.json"])
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    back = reloaded_decomposition(g, out, manifest)
    for mine, theirs in zip(back.E_list + back.U_list,
                            dec.E_list + dec.U_list):
        assert mine.kind == theirs.kind and mine.same_cells(theirs)


def test_series_replays_from_the_exported_decomposition(tmp_path):
    """The export replays the series: dec's 4 stages share 2 E objects and
    the decoded ones are 4, yet both build the same 2 lockstep groups, as
    the builder groups stages by E's cells, and save the same bytes."""
    g, dec = make_decomposition()
    manifest = export_decomposition(dec, tmp_path / "out")
    back = reloaded_decomposition(g, tmp_path / "out", manifest)
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
