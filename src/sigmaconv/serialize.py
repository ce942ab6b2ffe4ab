"""JSON persistence for series; the verdict map and decomposition writers.

Series files store the constructive data (point tables, member roots and
scales, parity splits), not sampled values; loading rebuilds the structure,
which is the series' one evaluator, through the same factories the
constructors use, so a reloaded series reproduces verdict maps bit for bit.
Malformed series files raise ValueError.  Log scales may be -Infinity (the
Python json dialect); complex numbers are stored as [re, im] pairs.
Verdict maps, their sidecars and decomposition exports are outputs only:
no command reads them back.

save_series writes json.dumps(series_to_json(series), indent=1): json.dumps
writes everything but the members lists, which are written from their
stored sequences.  Each sequence's root pairs are formatted and encoded
once, and each member's roots go out as a memoryview of those bytes, so a
file is written in one buffered binary pass without joining its text.
load_series reads each members list in that layout (_layout) from the
file's bytes: a member repeating a prefix of the running sequence's text is
placed on it, and each sequence's text is parsed once.  Any other layout
goes through json.loads, with the same checks.  Every file is UTF-8,
whatever the locale.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import re
from itertools import accumulate
from pathlib import Path

from . import pgmio
from .construct import (BlockStructure, CountableStructure,
                        InterleaveStructure, block_series_from_tables,
                        countable_series_from_tables, interleave)
from .decompose import Decomposition
from .geometry import Grid
from .series import CoefficientSeries, ConvergenceMap


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _number(value) -> bool:
    # JSON true/false load as bools, which float() and complex() take as 1, 0
    return type(value) is int or type(value) is float


def _j2c(pair) -> complex:
    if (type(pair) is not list or len(pair) != 2
            or not all(map(_number, pair))):
        raise ValueError(f"expected an [re, im] pair, got {pair!r:.60}")
    try:
        z = complex(*pair)
    except OverflowError:
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite component in complex pair {pair!r:.60}")
    return z


def _real(value, name: str, finite: bool = False) -> float:
    # NaN or +inf would load silently and, outside the tail window, never
    # reach the classifier's own NaN check; -inf stays allowed (vanishing
    # terms) unless the value must be finite
    if not _number(value):
        raise ValueError(f"{name} is not a number: {value!r:.60}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf if value > 0 else -math.inf
    if x != x:
        raise ValueError(f"{name} is NaN")
    if x == math.inf or (finite and x == -math.inf):
        raise ValueError(f"{name} is {x}")
    return x


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r:.40}")
    return value


def _list(obj: dict, key: str, default: list | None = None) -> list:
    value = obj.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r:.40}")
    return value


def _count(value, name: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def grid_to_json(grid: Grid) -> dict:
    return {"origin": _c2j(grid.origin), "pixel": grid.pixel,
            "width": grid.width, "height": grid.height}


def _members_from_json(objs: list) -> tuple[list, list, list]:
    """The (sequences, placement, log_scales) tables of a block series
    file's members, each member on a sequence of its own, as block_series
    places them, and each pair converted by _j2c.

    load_series decodes the files save_series writes from their text
    (_decode_members); this reads every other layout, and the objects
    passed to series_from_json directly.
    """
    sequences, log_scales = [], []
    for obj in objs:
        obj = _object(obj, "member")
        sequences.append(tuple(_j2c(p) for p in _list(obj, "roots")))
        log_scales.append(_real(obj.get("log_scale"), "member log_scale"))
    return (sequences, [(k, len(roots)) for k, roots in enumerate(sequences)],
            log_scales)


_MEMBERS_KEY = '"members": '
# no file text holds this digit run (load_series checks), so an integer
# literal opening with it is one that save_series or load_series put in
_PLACEHOLDER = "9" * 24
# the buffer of save_series' one binary pass over a file's pieces
_WRITE_BUFFER = 1 << 20


def _layout(level: int) -> tuple[str, str, tuple[str, str], str, str]:
    """The text json.dumps(indent=1) writes around the items of a members
    list whose key line is indented ``level``: before each member's roots
    (head), each root pair after a comma (a %-template of its re and im),
    between the roots and the log_scale (without roots, with roots),
    after the log_scale (tail), and the list's close."""
    ind = [" " * (level + i) for i in range(5)]
    scale_key = f'],\n{ind[2]}"log_scale": '  # json.dumps writes [] inline
    return (f'\n{ind[1]}{{\n{ind[2]}"roots": [',
            f",\n{ind[3]}[\n{ind[4]}%s,\n{ind[4]}%s\n{ind[3]}]",
            (scale_key, f"\n{ind[2]}{scale_key}"),
            f"\n{ind[1]}}}", f"\n{ind[0]}]")


class _Decoded(tuple):
    """The (sequences, placement, log_scales) _decode_members read."""


# the JSON numbers with a fraction or an exponent, which json.loads reads
# by float() (an integer, -0 among them, it reads by int())
_JSON_FLOAT = re.compile(
    rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")


def _decode_members(data: bytes, start: int,
                    level: int) -> tuple[_Decoded, int] | None:
    """The tables of the members list that opens at data[start], written
    as _members_bytes(s, level) writes it, and the index after the list;
    None for any other layout or an invalid value, which json.loads and
    _members_from_json then read, and reject, as for any other file.

    A member whose roots text repeats a prefix of the running sequence's
    text, ending on a pair boundary, is placed on that sequence; text that
    extends the sequence only adds the boundaries of its pairs, each a
    pair's last ], and a member with any other text starts a sequence.
    Each sequence's text goes through json.loads and _j2c once, when the
    list closes; a valid pair holds only numbers, so its last ] is its
    only one, and the boundaries are the pairs'.  The comparison is of
    text, where -0.0 is not 0.0 and true is not 1.0, so each root keeps
    the pair it was stored as.  No text marks where a lockstep group ends,
    so a group whose sequence text is a prefix of the one before, or
    extends it, shares that sequence.  Each log_scale goes through _real
    once per distinct text, read by float() where it is a JSON number
    with a fraction or an exponent (_JSON_FLOAT) and by json.loads
    otherwise.
    """
    head, _, (scale_key, roots_end), tail, close = _layout(level)
    head, scale_key, roots_end, tail, close = (
        t.encode() for t in (head, scale_key, roots_end, tail, close))
    texts: list[bytes] = []  # each sequence's roots text
    placement: list[tuple[int, int]] = []
    log_scales: list[float] = []
    seq = b""  # the running sequence's roots text
    prefixes = memoryview(seq)  # its prefixes, compared without a copy
    degrees = {0: 0}  # offset in seq after each whole pair -> pairs so far
    scales: dict[bytes, float] = {}
    pos = start + 1
    try:
        while True:
            if not data.startswith(head, pos):
                return None
            pos += len(head)
            if data.startswith(scale_key, pos):
                pos, d = pos + len(scale_key), 0
            else:
                end = data.find(roots_end, pos)
                if end < 0:
                    return None
                n = end - pos
                # a prefix of the sequence's text, if it ends on a pair
                d = degrees.get(n)
                if d is None or not data.startswith(prefixes[:n], pos):
                    # new pairs after the sequence's text and a comma
                    # extend it; any other text starts a sequence
                    at = len(seq) + 1
                    if not (seq and n > at and data.startswith(seq, pos)
                            and data.startswith(b",", pos + len(seq))):
                        at, degrees = 0, {0: 0}
                        texts.append(b"")
                    seq = texts[-1] = data[pos:end]
                    prefixes = memoryview(seq)
                    while at := seq.find(b"]", at) + 1:
                        degrees[at] = len(degrees)
                    d = degrees.get(n)
                    if d is None:
                        return None
                pos = end + len(roots_end)
            end = data.find(tail, pos)
            if end < 0:
                return None
            value, pos = data[pos:end], end + len(tail)
            if value not in scales:
                scales[value] = _real(
                    float(value) if _JSON_FLOAT.fullmatch(value)
                    else json.loads(value), "member log_scale")
            if not texts:
                texts.append(b"")
            placement.append((len(texts) - 1, d))
            log_scales.append(scales[value])
            if data.startswith(close, pos):
                break
            if not data.startswith(b",", pos):
                return None
            pos += 1
        sequences = [tuple(map(_j2c, json.loads(b"[" + text + b"]")))
                     for text in texts]
    except ValueError:
        return None
    return _Decoded((sequences, placement, log_scales)), pos + len(close)


def _series_json(series: CoefficientSeries, members) -> dict:
    """series_to_json(series) with members(s) as the members value of each
    block structure s."""
    s = series.structure
    if isinstance(s, CountableStructure):
        # log C_0 of a countable-set series is 0 and is not stored
        return {"type": "countable",
                "points": [_c2j(p) for p in s.points],
                "gammas": list(s.gammas),
                "log_c": list(s.log_c[1:])}
    if isinstance(s, BlockStructure):
        return {"type": "blocks",
                "f0_log_mag": s.f0_log_mag,
                "block_sizes": list(s.block_sizes),
                "uncovered_counts": list(s.uncovered_counts),
                "members": members(s),
                "description": series.description}
    if isinstance(s, InterleaveStructure):
        return {"type": "interleave",
                "even": _series_json(s.even, members),
                "odd": _series_json(s.odd, members)}
    raise TypeError(
        f"series has no serializable structure: {series.description!r}")


def series_to_json(series: CoefficientSeries) -> dict:
    """Serialize a series built by the constructors in this package."""
    return _series_json(series, lambda s: [
        {"roots": [_c2j(r) for r in h.roots], "log_scale": h.log_scale}
        for h in s.members])


def series_from_json(obj) -> CoefficientSeries:
    kind = _object(obj, "series").get("type")
    if kind == "countable":
        log_c = tuple(_real(c, "log_c entry", finite=True)
                      for c in _list(obj, "log_c"))
        return countable_series_from_tables(CountableStructure(
            tuple(_j2c(p) for p in _list(obj, "points")), (0.0, *log_c),
            tuple(_real(g, "gammas entry", finite=True)
                  for g in _list(obj, "gammas"))))
    if kind == "blocks":
        description = obj.get("description", "block series")
        if type(description) is not str:
            raise ValueError(
                f"description must be a string, got {description!r:.40}")
        members = obj.get("members")
        if type(members) is not _Decoded:
            members = _members_from_json(_list(obj, "members"))
        return block_series_from_tables(
            *members,
            [_count(b, "block size") for b in _list(obj, "block_sizes")],
            _real(obj.get("f0_log_mag"), "f0_log_mag"), description,
            [_count(u, "uncovered count")
             for u in _list(obj, "uncovered_counts", [])])
    if kind == "interleave":
        return interleave(series_from_json(obj.get("even")),
                          series_from_json(obj.get("odd")))
    raise ValueError(f"unknown series type {kind!r}")


def _float_text(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _members_bytes(s: BlockStructure, level: int) -> list:
    """The json indent=1 text of s's members list, its key line indented
    ``level``, as series_to_json writes it, in pieces to write in turn.

    Each sequence's root pairs are formatted, each after a comma, and
    encoded once; a member of degree d writes a memoryview of the first d
    pairs of its sequence's bytes, without the first comma, so no roots
    are copied.  json.dumps writes ASCII, so the offsets of the text are
    those of its bytes.
    """
    if not s.log_scales.size:
        return [b"[]"]
    head, pair, roots_end, tail, close = _layout(level)
    texts, offsets = [], []  # per sequence: its pairs, the end of each
    for sequence in s.sequences:
        pairs = [pair % (_float_text(r.real), _float_text(r.imag))
                 for r in sequence]
        texts.append(memoryview("".join(pairs).encode()))
        offsets.append(list(accumulate(map(len, pairs), initial=0)))
    out, head = [b"["], head.encode()
    for (k, d), log_scale in zip(s.placement.tolist(), s.log_scales.tolist()):
        out += (head, texts[k][1:offsets[k][d]],
                f"{roots_end[d > 0]}{_float_text(log_scale)}{tail},".encode())
    out[-1] = out[-1][:-1] + close.encode()  # the last member ends the list
    return out


def save_series(series: CoefficientSeries, path: str | Path) -> None:
    """Write json.dumps(series_to_json(series), indent=1).

    json.dumps writes the series with an integer literal that opens with
    _PLACEHOLDER as each block structure's members list, and each literal
    is then replaced by _members_bytes, at the indent of its key's line.
    The pattern '"members": ' followed by a digit is an object key and its
    value (in a string the quote before the colon is escaped), and only
    block structures have that key.  The pieces go out in one buffered
    binary pass, and no text of the whole file is ever joined.  A series
    nested too deeply for the writer's recursion is a ValueError, and no
    file is opened.
    """
    blocks: list[BlockStructure] = []
    try:
        text = json.dumps(_series_json(
            series, lambda s: blocks.append(s) or int(_PLACEHOLDER)),
            indent=1)
    except RecursionError:
        raise ValueError("series nests too deeply") from None
    pieces = text.split(_MEMBERS_KEY + _PLACEHOLDER)
    out = [pieces[0].encode()]
    for s, before, after in zip(blocks, pieces, pieces[1:]):
        level = len(before) - len(before.rstrip(" "))
        out += (_MEMBERS_KEY.encode(), *_members_bytes(s, level),
                after.encode())
    with open(path, "wb", buffering=_WRITE_BUFFER) as f:
        f.writelines(out)


def load_series(path: str | Path) -> CoefficientSeries:
    """Read a series file, UTF-8 JSON; a ValueError if it nests too deeply
    for the parser's recursion."""
    try:
        return series_from_json(_parse_series(Path(path).read_bytes()))
    except RecursionError:
        raise ValueError("series nests too deeply") from None


def _parse_series(data: bytes):
    """The JSON value of a series file's bytes.

    Each members list in save_series' own layout is decoded from the bytes
    (_decode_members) and replaced by an integer literal that opens with
    _PLACEHOLDER, which the one json.loads of the rest reads back as the
    decoded members; series_from_json then checks the whole as for any
    file.  Text in any other layout goes through json.loads as it is.
    Only the rest is decoded from UTF-8, and the whole file where the rest
    does not parse.

    In any text that json.loads accepts, '"members": [' is an object key
    and the list that is its value.  Each decoded list is a JSON list
    itself, so the file parses exactly when the rest does, to the same
    values.
    """
    kept, decoded = [], []
    at = find = 0
    key, placeholder = (_MEMBERS_KEY + "[").encode(), _PLACEHOLDER.encode()
    while (i := data.find(key, find)) >= 0:
        opens, line = i + len(_MEMBERS_KEY), data.rfind(b"\n", 0, i) + 1
        # the layout indents the key by its level, on a line of its own
        found = (_decode_members(data, opens, i - line)
                 if line and data.count(b" ", line, i) == i - line else None)
        if found is None:
            find = i + 1
            continue
        kept.append(data[at:opens])
        decoded.append(found[0])
        at = find = found[1]
    kept.append(data[at:])
    if not decoded or any(placeholder in piece for piece in kept):
        return json.loads(data.decode())
    # the space ends the literal whatever follows the list
    rest = b"".join(piece + b"%s%d " % (placeholder, k)
                    for k, piece in enumerate(kept[:-1])) + kept[-1]

    def parse_int(literal: str):
        if literal.startswith(_PLACEHOLDER):
            return decoded[int(literal[len(_PLACEHOLDER):])]
        return int(literal)

    try:
        return json.loads(rest.decode(), parse_int=parse_int)
    except ValueError:
        # the file is malformed too; report where in the file
        return json.loads(data.decode())


def map_sidecar(cmap: ConvergenceMap) -> dict:
    return {"grid": grid_to_json(cmap.grid), "N": cmap.N, "B": cmap.B,
            "M": cmap.M, "counts": cmap.counts()}


def save_map(cmap: ConvergenceMap, pgm_path: str | Path,
             json_path: str | Path) -> None:
    pgmio.write_map_pgm(cmap, pgm_path)
    Path(json_path).write_text(json.dumps(map_sidecar(cmap), indent=1))


def export_decomposition(decomp: Decomposition, outdir: str | Path) -> dict:
    """Write one PGM per stage union E_n and neighborhood U_n, as
    E_nnn.pgm and U_nnn.pgm for n = 1..n_max, and a manifest.json that
    lists each file with the sha256 of its bytes, the grid, the pixel band
    and each stage's hull-identity status.  The stage masks are the input
    sigma_convex_series builds the series from; no command reads them
    back."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for n in range(1, decomp.n_max + 1):
        for prefix, mask in (("E", decomp.E_list[n - 1]),
                             ("U", decomp.U_list[n - 1])):
            name = f"{prefix}_{n:03d}.pgm"
            data = pgmio.write_mask_pgm(mask, outdir / name)
            files[name] = hashlib.sha256(data).hexdigest()
    manifest = {"n_max": decomp.n_max,
                "grid": grid_to_json(decomp.grid),
                "pixel_band": 2.0 * decomp.grid.pixel,
                "hull_identity": list(decomp.hull_identity),
                "files": files}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def save_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=1))
