"""Binary PGM (P5) writers for masks and verdict maps.

Every image has a four-line header: ``P5``, one comment, the width and
height, and ``255``.  The comment's first word is the tag
(``sigmaconv-mask`` or ``sigmaconv-map``); the rest are ``key=value``
fields holding the grid geometry (origin, pixel) plus the mask kind or the
map budgets, floats as their repr.  Rows are written top row first, so
row 0 of the file is the grid's top row (largest imaginary part).

Pixel values: masks use 0 (off) / 255 (on); verdict maps use 0 (diverge),
128 (undetermined), 255 (converge).  No command reads these files back.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import Grid, RegionMask
from .series import ConvergenceMap, Verdict

MASK_TAG = "sigmaconv-mask"
MAP_TAG = "sigmaconv-map"

_MAP_VALUES = {Verdict.DIVERGE: 0, Verdict.UNDETERMINED: 128,
               Verdict.CONVERGE: 255}


def _meta_line(tag: str, fields: dict[str, str]) -> str:
    parts = [tag] + [f"{k}={v}" for k, v in fields.items()]
    return " ".join(parts)


def _grid_fields(grid: Grid) -> dict[str, str]:
    return {"origin": f"{grid.origin.real!r},{grid.origin.imag!r}",
            "pixel": repr(grid.pixel)}


def _write_pgm(path: str | Path, rows: np.ndarray, comment: str) -> bytes:
    """Write the image and return the bytes written."""
    height, width = rows.shape
    header = f"P5\n# {comment}\n{width} {height}\n255\n"
    # file rows run top-down; grid rows run bottom-up
    body = np.ascontiguousarray(rows[::-1, :]).tobytes()
    data = header.encode("ascii") + body
    Path(path).write_bytes(data)
    return data


def write_mask_pgm(mask: RegionMask, path: str | Path) -> bytes:
    """Write the mask as a PGM and return the bytes written."""
    fields = _grid_fields(mask.grid)
    fields["kind"] = mask.kind
    rows = mask.bits.view(np.uint8) * np.uint8(255)  # bits are bool: 0, 1
    return _write_pgm(path, rows, _meta_line(MASK_TAG, fields))


def write_map_pgm(cmap: ConvergenceMap, path: str | Path) -> None:
    fields = _grid_fields(cmap.grid)
    fields["N"] = str(cmap.N)
    fields["B"] = repr(cmap.B)
    fields["M"] = repr(cmap.M)
    lut = np.zeros(256, dtype=np.uint8)
    for verdict, value in _MAP_VALUES.items():
        lut[int(verdict)] = value
    _write_pgm(path, lut[cmap.verdicts], _meta_line(MAP_TAG, fields))
