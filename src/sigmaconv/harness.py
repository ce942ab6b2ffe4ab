"""Scene files, budget resolution, and end-to-end pipelines.

A scene is a small line-oriented text file describing a grid, a domain,
and a target (shapes, isolated points, or a list of compact parts),
plus classification budgets.  Example:

    name three-disks
    grid 256x256
    box -2 -2 2 2
    budget nmax 20
    part disk -0.8 0.0 0.55
    part disk 0.9 0.3 0.4
    part disk -0.8 0.1 0.25

Pipelines tie the constructors to the classifier: build a series from the
scene's target, classify every cell, and compare the verdict map against
the rasterized target up to a boundary band.
"""

from __future__ import annotations

import math
import re
import time
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import shapes
from .construct import (compact_set_series, countable_set_series,
                        sigma_convex_series)
from .decompose import Decomposition, ascending_decomposition
from .geometry import (COMPACT, DOMAIN, Grid, RegionMask, distance_to,
                       empty_mask, omega_exhaustion)
from .series import (DEFAULT_M, DEFAULT_N, CoefficientSeries, ConvergenceMap,
                     Verdict, conv_map, default_b)
from .shapes import ResolutionWarning, rasterize_scene


class SceneParseError(ValueError):
    """Scene text rejected; the message starts with the offending line."""


@dataclass
class Budgets:
    """Budget fields; None means resolve a default against the grid.

    ``resolve`` returns a copy with every default filled in except
    ``n_max``, whose None means two stages per compact.
    """

    N: int | None = None
    B: float | None = None
    M: float | None = None
    stages: int | None = None
    degree_cap: int | None = None
    n_max: int | None = None
    band: float | None = None

    def resolve(self, grid: Grid) -> "Budgets":
        r = Budgets(
            N=self.N if self.N is not None else DEFAULT_N,
            B=self.B if self.B is not None else default_b(grid),
            M=self.M if self.M is not None else DEFAULT_M,
            stages=self.stages if self.stages is not None else 8,
            degree_cap=self.degree_cap if self.degree_cap is not None else 64,
            n_max=self.n_max,
            band=self.band if self.band is not None else 3.0 * grid.pixel)
        if r.N < 1 or r.stages < 1 or r.degree_cap < 1:
            raise ValueError("count budgets must be positive")
        if r.n_max is not None and r.n_max < 1:
            raise ValueError("nmax must be positive")
        for name in ("B", "M", "band"):
            if not math.isfinite(getattr(r, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(r, name)!r}")
        if r.band <= 0:
            raise ValueError("band must be positive")
        if not r.B < r.M:
            raise ValueError("budgets must satisfy B < M")
        return r

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SceneSpec:
    """A parsed scene; ``budget_keys`` holds the key of every budget line
    it read, 'auto' values included, which ``budgets`` stores as None."""

    name: str
    grid: Grid
    budgets: Budgets
    domain_spec: list = field(default_factory=list)
    target_spec: list = field(default_factory=list)
    points: list[complex] = field(default_factory=list)
    parts: list[list] = field(default_factory=list)
    budget_keys: set[str] = field(default_factory=set)

    def domain_mask(self) -> RegionMask:
        spec = self.domain_spec or [(1, shapes.FullPlane())]
        return rasterize_scene(spec, self.grid, kind=DOMAIN)

    def target_mask(self) -> RegionMask:
        """Every target shape, part and isolated point, as one compact mask."""
        spec = list(self.target_spec)
        for part in self.parts:
            spec.extend(part)
        if self.points:
            spec.append((1, shapes.Points(tuple(self.points))))
        if not spec:
            return empty_mask(self.grid, COMPACT)
        return rasterize_scene(spec, self.grid, kind=COMPACT)


def _finite(token: str) -> float:
    """float(token), rejecting inf and nan, which float() accepts."""
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"{token!r} is not a finite number")
    return x


_BUDGET_KEYS = {"N": ("N", int), "B": ("B", _finite), "M": ("M", _finite),
                "stages": ("stages", int), "degree-cap": ("degree_cap", int),
                "nmax": ("n_max", int), "band": ("band", _finite)}


_PRIMITIVES = {"disk": shapes.Disk, "annulus": shapes.Annulus,
               "box": shapes.BoxShape, "segment": shapes.Segment,
               "sierpinski": shapes.SierpinskiShape, "full": shapes.FullPlane}


def _parse_primitive(tokens: list[str]):
    """One primitive from its keyword and its fields' tokens, in field
    order; a field typed int parses with int, every other with _finite."""
    kind, rest = tokens[0], tokens[1:]
    if kind == "polygon":
        args = [_finite(t) for t in rest]
        if len(args) < 6 or len(args) % 2:
            raise ValueError("polygon takes >= 3 x y pairs")
        return shapes.Polygon(tuple(args[0::2]), tuple(args[1::2]))
    if kind not in _PRIMITIVES:
        raise ValueError(f"unknown primitive {kind!r}")
    params = fields(_PRIMITIVES[kind])
    required = [f for f in params if f.default is MISSING]
    if not len(required) <= len(rest) <= len(params):
        names = [f.name if f in required else f"[{f.name}]" for f in params]
        raise ValueError(f"{kind} takes {' '.join(names) or 'no arguments'}")
    # shapes annotates with postponed evaluation, so each type is a string
    return _PRIMITIVES[kind](*(int(t) if f.type == "int" else _finite(t)
                               for f, t in zip(params, rest)))


def _signed_primitive(tokens: list[str]) -> tuple[int, object]:
    sign = 1
    if tokens and tokens[0] in ("add", "sub"):
        sign = 1 if tokens[0] == "add" else -1
        tokens = tokens[1:]
    if not tokens:
        raise ValueError("missing primitive")
    return sign, _parse_primitive(tokens)


# two integers joined by one x; the signs reach the 2x2 check
_GRID_DIMS = re.compile(r"([+-]?[0-9]+)x([+-]?[0-9]+)")


def parse_scene(text: str, name: str = "scene") -> SceneSpec:
    """Parse scene text; raises SceneParseError naming the bad line."""
    grid_dims: tuple[int, int] | None = None
    box: tuple[float, float, float, float] | None = None
    budgets = Budgets()
    budget_keys: set[str] = set()
    domain_spec: list = []
    target_spec: list = []
    points: list[complex] = []
    parts: list[list] = []

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, rest = tokens[0], tokens[1:]
        try:
            if key == "name":
                if not rest:
                    raise ValueError("name requires a value")
                name = " ".join(rest)
            elif key == "grid":
                dims = _GRID_DIMS.fullmatch(rest[0]) if len(rest) == 1 else None
                if dims is None:
                    raise ValueError("grid takes WxH")
                grid_dims = (int(dims[1]), int(dims[2]))
                if min(grid_dims) < 2:
                    raise ValueError("grid must be at least 2x2")
            elif key == "box":
                if len(rest) != 4:
                    raise ValueError("box takes x0 y0 x1 y1")
                box = tuple(_finite(t) for t in rest)
            elif key == "budget":
                if len(rest) != 2:
                    raise ValueError("budget takes key value")
                if rest[0] not in _BUDGET_KEYS:
                    raise ValueError(f"unknown budget key {rest[0]!r}")
                attr, conv = _BUDGET_KEYS[rest[0]]
                value = None if rest[1] == "auto" else conv(rest[1])
                setattr(budgets, attr, value)
                budget_keys.add(rest[0])
            elif key == "domain":
                domain_spec.append(_signed_primitive(rest))
            elif key == "target":
                target_spec.append(_signed_primitive(rest))
            elif key == "point":
                if len(rest) != 2:
                    raise ValueError("point takes x y")
                points.append(complex(_finite(rest[0]), _finite(rest[1])))
            elif key == "part":
                if rest and rest[0] in ("add", "sub"):
                    if not parts:
                        raise ValueError("part add/sub before any part")
                    parts[-1].append(_signed_primitive(rest))
                else:
                    parts.append([_signed_primitive(rest)])
            else:
                raise ValueError(f"unknown directive {key!r}")
        except (ValueError, TypeError) as exc:
            raise SceneParseError(f"line {ln}: {exc}") from exc

    if grid_dims is None:
        raise SceneParseError("scene is missing a 'grid WxH' line")
    if box is None:
        raise SceneParseError("scene is missing a 'box x0 y0 x1 y1' line")
    try:
        grid = Grid.from_box(*box, grid_dims[0], grid_dims[1])
    except ValueError as exc:
        raise SceneParseError(f"grid/box mismatch: {exc}") from exc
    return SceneSpec(name, grid, budgets, domain_spec, target_spec, points,
                     parts, budget_keys)


def load_scene(path) -> SceneSpec:
    from pathlib import Path
    p = Path(path)
    return parse_scene(p.read_text(encoding="utf-8"), name=p.stem)


# -- pipelines ----------------------------------------------------------


def _least_gap(points: list[complex]) -> float:
    """Least distance between two of the points, in O(n) memory: with the
    points sorted by real part, each is compared with its k-th successor
    for k = 1, 2, .. until every k-th successor is at least the least
    distance so far away in real part alone."""
    z = np.sort_complex(np.asarray(points, dtype=complex))
    best = math.inf
    for k in range(1, z.size):
        if float((z[k:].real - z[:-k].real).min()) >= best:
            break
        best = min(best, float(np.abs(z[k:] - z[:-k]).min()))
    return best


def construct_countable(scene: SceneSpec) -> CoefficientSeries:
    if len(scene.points) < 2:
        raise ValueError("countable pipeline needs at least 2 'point' lines")
    series = countable_set_series(scene.points)
    # points resolve when they are two pixels apart; gamma_n is no measure
    # of that, being capped at 1/n
    half_gap = 0.5 * _least_gap(scene.points)
    if half_gap < scene.grid.pixel:
        warnings.warn(
            f"half the least point gap, {half_gap:.3g}, is below one pixel "
            f"({scene.grid.pixel:.3g}); verdicts near clustered points will "
            "not resolve on this grid",
            ResolutionWarning, stacklevel=2)
    return series


def construct_compact(scene: SceneSpec) -> CoefficientSeries:
    target = scene.target_mask()
    if target.is_empty():
        raise ValueError("compact pipeline needs a non-empty target")
    if not target.subset_of(scene.domain_mask()):
        raise ValueError("target is not contained in the domain")
    b = scene.budgets.resolve(scene.grid)
    return compact_set_series(target, b.stages, b.degree_cap)


def construct_sigma(scene: SceneSpec) -> tuple[CoefficientSeries, Decomposition]:
    """Ascending decomposition of the scene parts (plus single-cell masks
    for isolated points), then the powered block series over its stages."""
    K_list = [rasterize_scene(part, scene.grid, kind=COMPACT)
              for part in scene.parts]
    for p in scene.points:
        K_list.append(rasterize_scene(shapes.Points((p,)), scene.grid,
                                      kind=COMPACT))
    if not K_list:
        raise ValueError("sigma pipeline needs 'part' or 'point' lines")
    b = scene.budgets.resolve(scene.grid)
    n_max = b.n_max if b.n_max is not None else 2 * len(K_list)
    decomp = ascending_decomposition(K_list, n_max)
    series = sigma_convex_series(decomp, scene.domain_mask(), b.degree_cap)
    return series, decomp


@dataclass
class VerificationReport:
    scene: str
    map_agreement: dict[str, float]
    band: float
    timings: dict[str, float]
    budgets: dict

    def to_json(self) -> dict:
        return asdict(self)


def map_vs_mask_agreement(cmap: ConvergenceMap, target: RegionMask,
                          band: float, domain: RegionMask | None = None,
                          exhaustion_m: int | None = None) -> dict[str, float]:
    """Agreement fractions between a verdict map and a target mask.

    converge_on_target: converge verdicts among target cells;
    diverge_off_target: diverge verdicts among cells farther than ``band``
    from the target (restricted to the domain, and to its m-th exhaustion
    piece when ``exhaustion_m`` is given); undetermined: over all cells.
    A vacuous region yields fraction 1.0.
    """
    verdicts = cmap.verdicts
    on = target.bits
    if domain is None:
        off = np.ones(verdicts.shape, dtype=bool)
    elif exhaustion_m is None:
        off = domain.bits.copy()
    else:
        off = omega_exhaustion(domain, exhaustion_m).bits.copy()
    if target.is_empty():
        off_far = off
    else:
        off_far = off & (distance_to(target) > band)

    def frac(region: np.ndarray, verdict: Verdict) -> float:
        total = int(region.sum())
        if total == 0:
            return 1.0
        return float((verdicts[region] == verdict).sum() / total)

    return {
        "converge_on_target": frac(on, Verdict.CONVERGE),
        "diverge_off_target": frac(off_far, Verdict.DIVERGE),
        "undetermined": float((verdicts == Verdict.UNDETERMINED).mean()),
    }


def verify(scene: SceneSpec, series: CoefficientSeries,
           exhaustion_m: int | None = None) -> tuple[VerificationReport,
                                                     ConvergenceMap]:
    """Classify the whole grid and compare against the scene target."""
    b = scene.budgets.resolve(scene.grid)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    cmap = conv_map(series, scene.grid, b.N, b.B, b.M)
    timings["classify"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    target = scene.target_mask()
    agreement = map_vs_mask_agreement(cmap, target, b.band,
                                      scene.domain_mask(), exhaustion_m)
    timings["compare"] = time.perf_counter() - t0
    report = VerificationReport(scene.name, agreement, b.band, timings,
                                b.to_json())
    return report, cmap
