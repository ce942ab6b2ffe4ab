"""JSON persistence for series, verdict maps, and decompositions.

Series files store the constructive data (point tables, member roots and
scales, parity splits), not sampled values; loading rebuilds the oracle
through the same factories the constructors use, so a reloaded series
reproduces verdict maps bit for bit.  Log scales may be -Infinity (the
Python json dialect); complex numbers are stored as [re, im] pairs.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

from . import pgmio
from .construct import (BlockStructure, CountableStructure,
                        InterleaveStructure, RootPolynomial,
                        ScaledProductStructure, block_series,
                        countable_series_from_tables, interleave,
                        scaled_product_from_tables)
from .decompose import Decomposition
from .geometry import Grid, RegionMask
from .series import CoefficientSeries, ConvergenceMap


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _j2c(pair) -> complex:
    try:
        x, y = pair
    except (TypeError, ValueError):
        raise ValueError(f"expected an [re, im] pair, got {pair!r}") from None
    z = complex(x, y)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite component in complex pair {pair!r}")
    return z


def _real(value, name: str, finite: bool = False) -> float:
    # NaN or +inf would load silently and, outside the tail window, never
    # reach the classifier's own NaN check; -inf stays allowed (vanishing
    # terms) unless the value must be finite
    x = float(value)
    if x != x:
        raise ValueError(f"{name} is NaN")
    if x == math.inf or (finite and x == -math.inf):
        raise ValueError(f"{name} is {x}")
    return x


def grid_to_json(grid: Grid) -> dict:
    return {"origin": _c2j(grid.origin), "pixel": grid.pixel,
            "width": grid.width, "height": grid.height}


def grid_from_json(obj: dict) -> Grid:
    return Grid(_j2c(obj["origin"]), float(obj["pixel"]),
                int(obj["width"]), int(obj["height"]))


def _member_to_json(member: RootPolynomial) -> dict:
    return {"roots": [_c2j(r) for r in member.roots],
            "log_scale": member.log_scale}


def _member_from_json(obj: dict) -> RootPolynomial:
    return RootPolynomial(tuple(_j2c(r) for r in obj["roots"]),
                          _real(obj["log_scale"], "member log_scale"))


def series_to_json(series: CoefficientSeries) -> dict:
    """Serialize a series built by the constructors in this package."""
    s = series.structure
    if isinstance(s, CountableStructure):
        return {"type": "countable",
                "points": [_c2j(p) for p in s.points],
                "gammas": list(s.gammas),
                "log_c": list(s.log_c)}
    if isinstance(s, BlockStructure):
        return {"type": "blocks",
                "f0_log_mag": s.f0_log_mag,
                "block_sizes": list(s.block_sizes),
                "uncovered_counts": list(s.uncovered_counts),
                "members": [_member_to_json(m) for m in s.members],
                "description": series.description}
    if isinstance(s, InterleaveStructure):
        return {"type": "interleave",
                "even": series_to_json(s.even),
                "odd": series_to_json(s.odd)}
    if isinstance(s, ScaledProductStructure):
        return {"type": "scaled-product",
                "points": [_c2j(p) for p in s.points],
                "log_c": list(s.log_c)}
    raise TypeError(
        f"series has no serializable structure: {series.description!r}")


def series_from_json(obj: dict) -> CoefficientSeries:
    kind = obj.get("type")
    if kind == "countable":
        return countable_series_from_tables(CountableStructure(
            tuple(_j2c(p) for p in obj["points"]),
            tuple(_real(g, "gammas entry", finite=True)
                  for g in obj["gammas"]),
            tuple(_real(c, "log_c entry", finite=True)
                  for c in obj["log_c"])))
    if kind == "blocks":
        return block_series(
            [_member_from_json(m) for m in obj["members"]],
            [int(b) for b in obj["block_sizes"]],
            _real(obj["f0_log_mag"], "f0_log_mag"),
            obj.get("description", "block series"),
            [int(u) for u in obj.get("uncovered_counts", [])])
    if kind == "interleave":
        return interleave(series_from_json(obj["even"]),
                          series_from_json(obj["odd"]))
    if kind == "scaled-product":
        return scaled_product_from_tables(ScaledProductStructure(
            tuple(_j2c(p) for p in obj["points"]),
            tuple(_real(c, "log_c entry", finite=True)
                  for c in obj["log_c"])))
    raise ValueError(f"unknown series type {kind!r}")


def save_series(series: CoefficientSeries, path: str | Path) -> None:
    Path(path).write_text(json.dumps(series_to_json(series), indent=1))


def load_series(path: str | Path) -> CoefficientSeries:
    return series_from_json(json.loads(Path(path).read_text()))


def map_sidecar(cmap: ConvergenceMap) -> dict:
    return {"grid": grid_to_json(cmap.grid), "N": cmap.N, "B": cmap.B,
            "M": cmap.M, "counts": cmap.counts()}


def save_map(cmap: ConvergenceMap, pgm_path: str | Path,
             json_path: str | Path) -> None:
    pgmio.write_map_pgm(cmap, pgm_path)
    Path(json_path).write_text(json.dumps(map_sidecar(cmap), indent=1))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def export_decomposition(decomp: Decomposition, outdir: str | Path) -> dict:
    """Write one PGM per stage union E_n and neighborhood U_n plus a
    manifest with checksums; the manifest suffices to replay the powered
    block series over the stored stages."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for n in range(1, decomp.n_max + 1):
        for prefix, mask in (("E", decomp.E_list[n - 1]),
                             ("U", decomp.U_list[n - 1])):
            name = f"{prefix}_{n:03d}.pgm"
            pgmio.write_mask_pgm(mask, outdir / name)
            files[name] = _sha256(outdir / name)
    manifest = {"n_max": decomp.n_max,
                "grid": grid_to_json(decomp.grid),
                "pixel_band": 2.0 * decomp.grid.pixel,
                "hull_identity": list(decomp.hull_identity),
                "files": files}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def load_decomposition(outdir: str | Path) -> Decomposition:
    """Rebuild the stage masks from an export directory.

    Only the stage tables needed for replay (E_n, U_n) are restored; the
    per-piece tables and the original compact list are not persisted.
    Checksums are verified before any mask is parsed.
    """
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        actual = _sha256(outdir / name)
        if actual != digest:
            raise ValueError(f"checksum mismatch for {name}: manifest "
                             f"{digest[:12]}.., file {actual[:12]}..")
    grid = grid_from_json(manifest["grid"])
    n_max = int(manifest["n_max"])
    E_list: list[RegionMask] = []
    U_list: list[RegionMask] = []
    for n in range(1, n_max + 1):
        E_list.append(pgmio.read_mask_pgm(outdir / f"E_{n:03d}.pgm"))
        U_list.append(pgmio.read_mask_pgm(outdir / f"U_{n:03d}.pgm"))
        if E_list[-1].grid != grid or U_list[-1].grid != grid:
            raise ValueError(f"stage {n} masks disagree with manifest grid")
    return Decomposition(grid, [], n_max, {}, {}, E_list, U_list,
                         list(manifest["hull_identity"]))


def save_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=1))
