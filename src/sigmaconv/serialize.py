"""JSON persistence for series, verdict maps, and decompositions.

Series files store the constructive data (point tables, member roots and
scales, parity splits), not sampled values; loading rebuilds the structure,
which is the series' one evaluator, through the same factories the
constructors use, so a reloaded series reproduces verdict maps bit for bit.
Malformed files raise ValueError.  Log scales may be -Infinity (the
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
                        InterleaveStructure, RootPolynomial, block_series,
                        countable_series_from_tables, interleave)
from .decompose import SKIPPED, VERIFIED, Decomposition
from .geometry import Grid, RegionMask
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


def grid_from_json(obj) -> Grid:
    obj = _object(obj, "grid")
    return Grid(_j2c(obj.get("origin")), _real(obj.get("pixel"), "grid pixel"),
                _count(obj.get("width"), "grid width"),
                _count(obj.get("height"), "grid height"))


def _member_to_json(member: RootPolynomial) -> dict:
    return {"roots": [_c2j(r) for r in member.roots],
            "log_scale": member.log_scale}


def _members_from_json(objs: list) -> list[RootPolynomial]:
    """The members of a block series file.

    Consecutive members whose roots extend one another (the members of a
    separating-family stage are prefixes of one Leja sequence) share the
    converted roots of their running sequence: a member that is a prefix
    of it takes a slice, and only the pairs that extend it are converted.
    Stored pairs are compared as loaded; where a root has a 0 or 1
    component, which equal JSON false or true and do not tell -0.0 from
    0.0, the pair is converted again and its zero signs (_signs) must
    match, so each root keeps the pair it was stored as.
    """
    pairs: list = []  # the stored pairs of the running sequence
    roots: tuple[complex, ...] = ()  # and their roots
    # (index, zero signs) of the roots with a 0 or 1 component
    marks: list[tuple[int, tuple[float, float]]] = []
    members = []
    for obj in objs:
        obj = _object(obj, "member")
        stored = _list(obj, "roots")
        k = min(len(stored), len(pairs))
        if stored[:k] != pairs[:k] or any(
                _signs(_j2c(stored[i])) != signs for i, signs in marks
                if i < k):
            pairs, roots, marks, k = [], (), [], 0
        if len(stored) > k:
            new = tuple(_j2c(p) for p in stored[k:])
            marks += [(i, _signs(r)) for i, r in enumerate(new, k)
                      if r.real in (0.0, 1.0) or r.imag in (0.0, 1.0)]
            pairs, roots = stored, roots + new
        members.append(RootPolynomial(
            roots[:len(stored)],
            _real(obj.get("log_scale"), "member log_scale")))
    return members


def series_to_json(series: CoefficientSeries) -> dict:
    """Serialize a series built by the constructors in this package."""
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
                "members": [_member_to_json(m) for m in s.members],
                "description": series.description}
    if isinstance(s, InterleaveStructure):
        return {"type": "interleave",
                "even": series_to_json(s.even),
                "odd": series_to_json(s.odd)}
    raise TypeError(
        f"series has no serializable structure: {series.description!r}")


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
        return block_series(
            _members_from_json(_list(obj, "members")),
            [_count(b, "block size") for b in _list(obj, "block_sizes")],
            _real(obj.get("f0_log_mag"), "f0_log_mag"), description,
            [_count(u, "uncovered count")
             for u in _list(obj, "uncovered_counts", [])])
    if kind == "interleave":
        return interleave(series_from_json(obj.get("even")),
                          series_from_json(obj.get("odd")))
    raise ValueError(f"unknown series type {kind!r}")


def _json_text(value, level: int) -> str:
    """json.dumps(value, indent=1) as it reads nested ``level`` deep."""
    return json.dumps(value, indent=1).replace("\n", "\n" + " " * level)


def _object_text(fields: list[tuple[str, str]], level: int) -> str:
    """A json indent=1 object from (key, value text) pairs."""
    pad = "\n" + " " * (level + 1)
    items = ("," + pad).join(f'"{key}": {text}' for key, text in fields)
    return "{" + pad + items + "\n" + " " * level + "}"


def _float_text(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _signs(r) -> tuple[float, float]:
    # complex == cannot tell -0.0 from 0.0, but json writes them apart
    return math.copysign(1.0, r.real), math.copysign(1.0, r.imag)


def _members_text(members, level: int) -> str:
    """The json indent=1 text of [_member_to_json(m) for m in members],
    for a list nested ``level`` deep.

    Consecutive members whose roots extend one another (the members of a
    separating-family stage are prefixes of one Leja sequence) share the
    text of their common root pairs, so each pair is formatted once per
    run of such members, as _members_from_json converts it once.  A root
    whose zero signs differ from the run's starts a new run, since
    complex == cannot tell them apart.
    """
    if not members:
        return "[]"
    ind = [" " * (level + i) for i in range(5)]
    pair = f"\n{ind[3]}[\n{ind[4]}%s,\n{ind[4]}%s\n{ind[3]}]"
    head = f"\n{ind[1]}{{\n{ind[2]}\"roots\": ["
    roots_end = f"\n{ind[2]}],\n{ind[2]}\"log_scale\": "
    empty = f"\n{ind[1]}{{\n{ind[2]}\"roots\": [],\n{ind[2]}\"log_scale\": "
    tail = f"\n{ind[1]}}}"
    prefix: tuple = ()
    zeros: list[tuple[int, tuple[float, float]]] = []  # signs in prefix
    body = ""  # the pairs of prefix, comma-separated
    out = []
    for m in members:
        roots = m.roots
        if roots[:len(prefix)] != prefix or any(
                _signs(roots[i]) != signs for i, signs in zeros):
            prefix, zeros, body = (), [], ""
        start = len(prefix)
        new = ",".join(pair % (_float_text(float(r.real)),
                               _float_text(float(r.imag)))
                       for r in roots[start:])
        if new:
            zeros += [(i, _signs(r))
                      for i, r in enumerate(roots[start:], start)
                      if r.real == 0 or r.imag == 0]
            body = body + "," + new if body else new
        prefix = roots
        log_scale = json.dumps(m.log_scale)
        if roots:
            out += (head, body, roots_end, log_scale, tail, ",")
        else:
            out += (empty, log_scale, tail, ",")
    out[-1] = f"\n{ind[0]}]"  # the last member ends the list, not a comma
    return "[" + "".join(out)


def _series_text(series: CoefficientSeries, level: int) -> str:
    """json.dumps(series_to_json(series), indent=1), nested ``level``
    deep, without the pure-Python encoder's per-token work on members."""
    s = series.structure
    if isinstance(s, BlockStructure):
        inner = level + 1
        return _object_text([
            ("type", '"blocks"'),
            ("f0_log_mag", json.dumps(s.f0_log_mag)),
            ("block_sizes", _json_text(list(s.block_sizes), inner)),
            ("uncovered_counts", _json_text(list(s.uncovered_counts), inner)),
            ("members", _members_text(s.members, inner)),
            ("description", json.dumps(series.description))], level)
    if isinstance(s, InterleaveStructure):
        return _object_text([
            ("type", '"interleave"'),
            ("even", _series_text(s.even, level + 1)),
            ("odd", _series_text(s.odd, level + 1))], level)
    return _json_text(series_to_json(series), level)


def save_series(series: CoefficientSeries, path: str | Path) -> None:
    """Write series_to_json(series) as json.dumps(..., indent=1) would."""
    Path(path).write_text(_series_text(series, 0))


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
    Every stage mask E_n, U_n (n = 1..n_max) must be listed in the manifest,
    and checksums are verified before any mask is parsed.
    """
    outdir = Path(outdir)
    manifest = _object(json.loads((outdir / "manifest.json").read_text()),
                       "manifest")
    n_max = manifest.get("n_max")
    if type(n_max) is not int or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    status = _list(manifest, "hull_identity")
    if len(status) != n_max or any(s not in (VERIFIED, SKIPPED)
                                   for s in status):
        raise ValueError(f"hull_identity must hold {n_max} entries, each "
                         f"{VERIFIED!r} or {SKIPPED!r}, got {status!r:.60}")
    files = _object(manifest.get("files"), "files")
    for name in (f"{p}_{n:03d}.pgm" for n in range(1, n_max + 1)
                 for p in "EU"):
        if name not in files:
            raise ValueError(f"manifest lists no checksum for {name}")
    for name, digest in files.items():
        actual = _sha256(outdir / name)
        if actual != digest:
            raise ValueError(f"checksum mismatch for {name}: manifest "
                             f"{str(digest)[:12]}.., file {actual[:12]}..")
    grid = grid_from_json(manifest.get("grid"))
    E_list: list[RegionMask] = []
    U_list: list[RegionMask] = []
    for n in range(1, n_max + 1):
        E_list.append(pgmio.read_mask_pgm(outdir / f"E_{n:03d}.pgm"))
        U_list.append(pgmio.read_mask_pgm(outdir / f"U_{n:03d}.pgm"))
        if E_list[-1].grid != grid or U_list[-1].grid != grid:
            raise ValueError(f"stage {n} masks disagree with manifest grid")
    return Decomposition(grid, [], n_max, {}, E_list, U_list, status)


def save_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=1))
