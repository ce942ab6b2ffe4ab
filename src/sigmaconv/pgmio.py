"""Binary PGM (P5) readers and writers for masks and verdict maps.

Images are written top row first, so row 0 of the file is the grid's top
row (largest imaginary part).  The first header comment whose first word
is the tag (``sigmaconv-mask`` or ``sigmaconv-map``) carries the grid
geometry (origin, pixel) plus the mask kind or the map budgets as
``key=value`` fields; floats are stored via repr and round-trip exactly.
Other header comments are skipped unread.

Pixel values: masks use 0 (off) / 255 (on); verdict maps use 0 (diverge),
128 (undetermined), 255 (converge).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .geometry import COMPACT, DOMAIN, OPEN, Grid, RegionMask
from .series import MIN_N, ConvergenceMap, Verdict

MASK_TAG = "sigmaconv-mask"
MAP_TAG = "sigmaconv-map"
# one header lexeme: whitespace, a comment to EOL, or a token
_HEADER_LEXEME = re.compile(rb"\s+|#[^\n]*\n|[^\s#]+")

_MAP_VALUES = {Verdict.DIVERGE: 0, Verdict.UNDETERMINED: 128,
               Verdict.CONVERGE: 255}
_MAP_VERDICTS = {v: k for k, v in _MAP_VALUES.items()}


def _meta_line(tag: str, fields: dict[str, str]) -> str:
    parts = [tag] + [f"{k}={v}" for k, v in fields.items()]
    return " ".join(parts)


def _grid_fields(grid: Grid) -> dict[str, str]:
    return {"origin": f"{grid.origin.real!r},{grid.origin.imag!r}",
            "pixel": repr(grid.pixel)}


def _grid_from_fields(path: str | Path, fields: dict[str, str], width: int,
                      height: int) -> Grid:
    try:
        ox, _, oy = fields["origin"].partition(",")
        return Grid(complex(float(ox), float(oy)), float(fields["pixel"]),
                    width, height)
    except ValueError as exc:
        raise ValueError(f"{path}: bad grid metadata ({exc})") from None


def _write_pgm(path: str | Path, rows: np.ndarray, comment: str) -> bytes:
    """Write the image and return the bytes written."""
    height, width = rows.shape
    header = f"P5\n# {comment}\n{width} {height}\n255\n"
    # file rows run top-down; grid rows run bottom-up
    body = np.ascontiguousarray(rows[::-1, :]).tobytes()
    data = header.encode("ascii") + body
    Path(path).write_bytes(data)
    return data


def _read_pgm(path: str | Path, tag: str, keys: tuple[str, ...] = ()
              ) -> tuple[Grid, np.ndarray, dict[str, str]]:
    """(grid, grid-order rows, fields of the first ``tag`` metadata
    comment, which must hold the grid's fields and every key in ``keys``)."""
    data = Path(path).read_bytes()
    tokens: list[bytes] = []
    fields: dict[str, str] | None = None
    pos = 0
    # header = 4 whitespace-separated tokens, with '#' comments to EOL;
    # only the first comment whose first word is the tag is read
    while len(tokens) < 4:
        m = _HEADER_LEXEME.match(data, pos)
        if m is None:  # at the end of the data, or a comment without EOL
            raise ValueError(f"{path}: unterminated comment" if pos < len(data)
                             else f"{path}: truncated PGM header")
        lexeme, pos = m.group(), m.end()
        if lexeme.startswith(b"#"):
            words = lexeme[1:].split()
            if fields is None and words[:1] == [tag.encode()]:
                try:
                    pairs = [w.decode("ascii").partition("=") for w in words[1:]]
                except UnicodeDecodeError:
                    raise ValueError(f"{path}: comment is not ASCII") from None
                bad = [k for k, eq, _ in pairs if not eq]
                if bad:
                    raise ValueError(f"{path}: malformed metadata field "
                                     f"{bad[0]!r}")
                fields = {k: v for k, _, v in pairs}
        elif not lexeme.isspace():
            tokens.append(lexeme)
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise ValueError(f"{path}: image size and maxval must be integers, "
                         f"got {b' '.join(tokens[1:4])!r}") from None
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image size {width}x{height} is not positive")
    if not data[pos:pos + 1].isspace():
        raise ValueError(f"{path}: maxval must end in one whitespace byte")
    body = data[pos + 1:]
    if len(body) < width * height:
        raise ValueError(f"{path}: pixel data truncated")
    if len(body) > width * height:
        raise ValueError(f"{path}: extra bytes after the pixel data")
    if fields is None:
        raise ValueError(f"{path}: missing {tag} metadata comment")
    missing = {"origin", "pixel", *keys} - fields.keys()
    if missing:
        raise ValueError(f"{path}: metadata lacks {sorted(missing)}")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    return (_grid_from_fields(path, fields, width, height),
            rows[::-1, :].copy(), fields)


def write_mask_pgm(mask: RegionMask, path: str | Path) -> bytes:
    """Write the mask as a PGM and return the bytes written."""
    fields = _grid_fields(mask.grid)
    fields["kind"] = mask.kind
    rows = mask.bits.view(np.uint8) * np.uint8(255)  # bits are bool: 0, 1
    return _write_pgm(path, rows, _meta_line(MASK_TAG, fields))


def read_mask_pgm(path: str | Path) -> RegionMask:
    grid, rows, meta = _read_pgm(path, MASK_TAG)
    kind = meta.get("kind", COMPACT)
    if kind not in (COMPACT, OPEN, DOMAIN):
        raise ValueError(f"{path}: unknown mask kind {kind!r}")
    bad = ~np.isin(rows, (0, 255))
    if bad.any():
        raise ValueError(f"{path}: mask pixels must be 0 or 255")
    return RegionMask(grid, rows == 255, kind)


def write_map_pgm(cmap: ConvergenceMap, path: str | Path) -> None:
    fields = _grid_fields(cmap.grid)
    fields["N"] = str(cmap.N)
    fields["B"] = repr(cmap.B)
    fields["M"] = repr(cmap.M)
    lut = np.zeros(256, dtype=np.uint8)
    for verdict, value in _MAP_VALUES.items():
        lut[int(verdict)] = value
    _write_pgm(path, lut[cmap.verdicts], _meta_line(MAP_TAG, fields))


def read_map_pgm(path: str | Path) -> tuple[Grid, np.ndarray, dict[str, float]]:
    """Returns (grid, verdict array, budgets {'N', 'B', 'M'}).

    Tail-sup exponents are not stored in the image; reports and sidecars
    carry any further detail.
    """
    grid, rows, meta = _read_pgm(path, MAP_TAG, ("N", "B", "M"))
    bad = ~np.isin(rows, (0, 128, 255))
    if bad.any():
        raise ValueError(f"{path}: map pixels must be 0, 128 or 255")
    verdicts = np.empty(rows.shape, dtype=np.int8)
    for value, verdict in _MAP_VERDICTS.items():
        verdicts[rows == value] = verdict
    try:
        N, B, M = int(meta["N"]), float(meta["B"]), float(meta["M"])
    except ValueError as exc:
        raise ValueError(f"{path}: bad budget metadata ({exc})") from None
    if not math.isfinite(B) or not math.isfinite(M):
        raise ValueError(f"{path}: non-finite budgets in metadata")
    # the budgets conv_map accepts
    if N < MIN_N or not B < M:
        raise ValueError(f"{path}: budgets need N >= {MIN_N} and B < M, got "
                         f"N={N} B={B!r} M={M!r}")
    return grid, verdicts, {"N": N, "B": B, "M": M}
