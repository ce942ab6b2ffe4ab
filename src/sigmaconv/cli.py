"""Command-line entry point.

Each subcommand writes its artifacts (PGM masks/maps, JSON series/reports,
manifest) into --out; concurrent runs should use distinct directories.
hull takes --out, --grid and --box; construct adds --pipeline, --series-a,
--series-b, --stages, --degree-cap and --nmax; verify adds --min-agree,
--exhaust-m, --N, --budget-B, --budget-M and --band; decompose adds
--degree-cap and --nmax; demo-sierpinski adds --depth.  Exit codes: 0 on
success with thresholds met, 2 on a verification failure, 1 on bad input
or a usage error (one ``error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import pgmio, serialize
from .construct import interleave
from .decompose import hull_escape_exhibit, sierpinski_mask
from .geometry import Grid, holomorphic_hull, polynomial_hull
from .harness import (SceneParseError, SceneSpec, construct_compact,
                      construct_countable, construct_sigma, load_scene, verify)


def _parse_grid(text: str) -> tuple[int, int]:
    w, sep, h = text.partition("x")
    if not sep:
        raise ValueError("--grid takes WxH")
    return int(w), int(h)


def _parse_box(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--box takes x0,y0,x1,y1")
    return tuple(float(p) for p in parts)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it like any bad input
        raise ValueError(message)


_BUDGET_FLAGS = {
    "N": ("--N", int, "truncation order"),
    "B": ("--budget-B", float, "converge threshold (log scale)"),
    "M": ("--budget-M", float, "diverge threshold (log scale)"),
    "stages": ("--stages", int, None),
    "degree_cap": ("--degree-cap", int, None),
    "n_max": ("--nmax", int, None),
    "band": ("--band", float, "comparison band in coordinate units"),
}


def _add_common(p: argparse.ArgumentParser, *budgets: str) -> None:
    """--out, --grid, --box and the flags of the named Budgets fields."""
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="override grid dimensions, WxH")
    p.add_argument("--box", type=_parse_box, default=None,
                   help="override grid box, x0,y0,x1,y1")
    for name in budgets:
        flag, kind, text = _BUDGET_FLAGS[name]
        p.add_argument(flag, dest=name, type=kind, default=None, help=text)


def _apply_overrides(scene: SceneSpec, args) -> SceneSpec:
    grid = scene.grid
    if args.grid is not None or args.box is not None:
        if args.box is not None:
            x0, y0, x1, y1 = args.box
        else:
            x0, y0 = grid.origin.real, grid.origin.imag
            x1 = x0 + grid.pixel * grid.width
            y1 = y0 + grid.pixel * grid.height
        w, h = args.grid if args.grid is not None else (grid.width,
                                                       grid.height)
        grid = Grid.from_box(x0, y0, x1, y1, w, h)
    overrides = {name: getattr(args, name) for name in _BUDGET_FLAGS
                 if getattr(args, name, None) is not None}
    budgets = dataclasses.replace(scene.budgets, **overrides)
    return dataclasses.replace(scene, grid=grid, budgets=budgets)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(args, out: Path, extra: dict | None = None) -> None:
    data = {"argv": [a for a in sys.argv[1:]] if sys.argv else []}
    if extra:
        data.update(extra)
    (out / "manifest.json").write_text(json.dumps(data, indent=1))


def cmd_hull(args) -> int:
    scene = _apply_overrides(load_scene(args.scene), args)
    out = _outdir(args)
    target = scene.target_mask()
    if scene.domain_spec:
        omega = scene.domain_mask()
        hull = holomorphic_hull(target, omega)
        mode = "holomorphic (domain-restricted)"
    else:
        hull = polynomial_hull(target)
        mode = "polynomial"
    pgmio.write_mask_pgm(target, out / "target.pgm")
    pgmio.write_mask_pgm(hull, out / "hull.pgm")
    serialize.save_report(
        {"scene": scene.name, "mode": mode, "target_cells": target.count(),
         "hull_cells": hull.count(),
         "filled_cells": hull.count() - target.count()},
        out / "report.json")
    _manifest(args, out, {"command": "hull"})
    print(f"hull: {target.count()} -> {hull.count()} cells ({mode})")
    return 0


def cmd_construct(args) -> int:
    scene = _apply_overrides(load_scene(args.scene), args)
    out = _outdir(args)
    if args.pipeline == "countable":
        series = construct_countable(scene)
    elif args.pipeline == "compact":
        series = construct_compact(scene)
    elif args.pipeline == "sigma":
        series, decomp = construct_sigma(scene)
        serialize.export_decomposition(decomp, out / "decomposition")
    else:  # interleave, the last of the parser's choices
        if not (args.series_a and args.series_b):
            raise ValueError("interleave needs --series-a and --series-b")
        series = interleave(serialize.load_series(args.series_a),
                            serialize.load_series(args.series_b))
    serialize.save_series(series, out / "series.json")
    _manifest(args, out, {"command": "construct", "pipeline": args.pipeline,
                          "scene": scene.name})
    print(f"constructed {args.pipeline} series: {series.description}")
    return 0


def cmd_verify(args) -> int:
    scene = _apply_overrides(load_scene(args.scene), args)
    out = _outdir(args)
    series = serialize.load_series(args.series)
    report, cmap = verify(scene, series, exhaustion_m=args.exhaust_m)
    serialize.save_map(cmap, out / "map.pgm", out / "map.json")
    serialize.save_report(report.to_json(), out / "report.json")
    _manifest(args, out, {"command": "verify", "scene": scene.name,
                          "series": str(args.series)})
    agree = report.map_agreement
    print(f"verify {scene.name}: converge-on-target "
          f"{agree['converge_on_target']:.4f}, diverge-off-target "
          f"{agree['diverge_off_target']:.4f} (band {report.band:g})")
    ok = (agree["converge_on_target"] >= args.min_agree
          and agree["diverge_off_target"] >= args.min_agree)
    return 0 if ok else 2


def cmd_decompose(args) -> int:
    scene = _apply_overrides(load_scene(args.scene), args)
    out = _outdir(args)
    series, decomp = construct_sigma(scene)
    serialize.export_decomposition(decomp, out / "decomposition")
    serialize.save_series(series, out / "series.json")
    serialize.save_report(
        {"scene": scene.name, "n_max": decomp.n_max,
         "pieces": len(decomp.K_list),
         "hull_identity": decomp.hull_identity,
         "stage_cells": [E.count() for E in decomp.E_list]},
        out / "report.json")
    _manifest(args, out, {"command": "decompose", "scene": scene.name})
    print(f"decomposition of {len(decomp.K_list)} compacts, "
          f"{decomp.n_max} stages; final union {decomp.E_list[-1].count()} "
          f"cells")
    return 0


def cmd_demo_sierpinski(args) -> int:
    w, h = args.grid if args.grid is not None else (512, 512)
    box = args.box if args.box is not None else (-0.1, -0.1, 1.1, 1.1)
    grid = Grid.from_box(*box, w, h)
    out = _outdir(args)
    mask = sierpinski_mask(args.depth, grid)
    pgmio.write_mask_pgm(mask, out / "approximant.pgm")
    exhibit = hull_escape_exhibit(args.depth, grid) if args.depth >= 1 else []
    resolvable = [h for h in exhibit if h.resolvable]
    escaped = [h for h in resolvable if h.escaped]
    serialize.save_report(
        {"depth": args.depth, "holes": len(exhibit),
         "resolvable": len(resolvable), "escaped": len(escaped),
         "per_hole": [{"level": h.level, "side": h.side,
                       "resolvable": h.resolvable,
                       "interior_cells": h.interior_cells,
                       "escaped": h.escaped} for h in exhibit]},
        out / "exhibit.json")
    lines = [
        f"Triangle-fractal approximant, depth {args.depth}, "
        f"{grid.width}x{grid.height} cells of size {grid.pixel:g}.",
        f"Approximant mask: {mask.count()} cells "
        f"(written to approximant.pgm).",
        f"Removed triangles: {len(exhibit)}; resolvable at this "
        f"resolution: {len(resolvable)}.",
        f"Hull escape: {len(escaped)} of {len(resolvable)} resolvable "
        f"holes have their interior swallowed by the hull of their "
        f"boundary ring.",
        "Because every compact set containing a hole's boundary pulls the "
        "hole's interior into its polynomial hull, no ascending chain of "
        "polynomially convex compacts can exhaust the approximant: the "
        "interior cells never separate from the boundary.",
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    _manifest(args, out, {"command": "demo-sierpinski", "depth": args.depth})
    print("\n".join(lines))
    return 0 if len(escaped) == len(resolvable) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigmaconv",
        description="Series with prescribed convergence sets on plane "
                    "rasters: hulls, constructions, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hull", help="rasterize a scene target and hull it")
    p.add_argument("scene", help="scene file")
    _add_common(p)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("construct", help="build a series from a scene")
    p.add_argument("scene", help="scene file")
    p.add_argument("--pipeline", required=True,
                   choices=("countable", "compact", "sigma", "interleave"))
    p.add_argument("--series-a", default=None,
                   help="first stored series (interleave)")
    p.add_argument("--series-b", default=None,
                   help="second stored series (interleave)")
    _add_common(p, "stages", "degree_cap", "n_max")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="classify a stored series against a "
                                      "scene target")
    p.add_argument("scene", help="scene file")
    p.add_argument("series", help="stored series JSON")
    p.add_argument("--min-agree", type=float, default=0.99)
    p.add_argument("--exhaust-m", type=int, default=None,
                   help="restrict the off-target check to the m-th "
                        "exhaustion piece of the domain")
    _add_common(p, "N", "B", "M", "band")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="ascending decomposition of scene "
                                         "parts, with stage exports")
    p.add_argument("scene", help="scene file")
    _add_common(p, "degree_cap", "n_max")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("demo-sierpinski",
                       help="triangle-fractal hull-escape exhibit")
    p.add_argument("--depth", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_demo_sierpinski)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SceneParseError, FileNotFoundError, NotADirectoryError,
            ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
