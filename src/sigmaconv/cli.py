"""Command-line entry point.

Each subcommand writes its artifacts (PGM masks/maps, JSON series/reports,
manifest) into --out; concurrent runs should use distinct directories.
Inputs are scene files, the one source of grid, box, budgets and the
demo's depth, and stored series (``interleave``, ``verify``); ``sigmaconv
SUBCOMMAND --help`` lists the few options each subcommand takes.  Exit
codes: 0 on success with thresholds met, 2 on a verification failure, 1 on
bad input, a usage error or any I/O failure (one ``error: ...`` line on
stderr).  A scene or series path that cannot be read, or an --out
directory that cannot be made, is bad input; a failed write (a full disk,
a closed stdout) also ends in exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import pgmio, serialize, shapes
from .construct import interleave
from .decompose import hull_escape_exhibit, sierpinski_mask
from .geometry import holomorphic_hull
from .harness import (SceneSpec, construct_compact, construct_countable,
                      construct_sigma, load_scene, verify)


def _fraction(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not 0.0 <= x <= 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]")
    return x


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it like any bad input
        raise ValueError(message)

    def parse_args(self, args=None, namespace=None):
        # the namespace keeps the list parsed, for the manifest
        argv = sys.argv[1:] if args is None else list(args)
        parsed = super().parse_args(argv, namespace)
        parsed.argv = argv
        return parsed


def _apply_overrides(scene: SceneSpec, args) -> SceneSpec:
    """The scene, with verify's --N as its N budget: the order a stored
    series supports is known only once it is built."""
    if getattr(args, "N", None) is None:
        return scene
    budgets = dataclasses.replace(scene.budgets, N=args.N)
    return dataclasses.replace(scene, budgets=budgets)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(args, out: Path, extra: dict | None = None) -> None:
    data = {"argv": args.argv}
    if extra:
        data.update(extra)
    (out / "manifest.json").write_text(json.dumps(data, indent=1))


def cmd_hull(args) -> int:
    scene = _apply_overrides(load_scene(args.scene), args)
    out = _outdir(args)
    target = scene.target_mask()
    # without a domain line the domain is the full plane: the polynomial hull
    hull = holomorphic_hull(target, scene.domain_mask())
    mode = ("holomorphic (domain-restricted)" if scene.domain_spec
            else "polynomial")
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
    else:  # sigma, the last of the parser's choices
        series, decomp = construct_sigma(scene)
        serialize.export_decomposition(decomp, out / "decomposition")
    serialize.save_series(series, out / "series.json")
    _manifest(args, out, {"command": "construct", "pipeline": args.pipeline,
                          "scene": scene.name})
    print(f"constructed {args.pipeline} series: {series.description}")
    return 0


def cmd_interleave(args) -> int:
    out = _outdir(args)
    series = interleave(serialize.load_series(args.even),
                        serialize.load_series(args.odd))
    serialize.save_series(series, out / "series.json")
    _manifest(args, out, {"command": "interleave"})
    print(f"constructed interleave series: {series.description}")
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
    scene = load_scene(args.scene)
    target = scene.target_spec
    if (len(target) != 1 or scene.parts or scene.points or target[0][0] != 1
            or not isinstance(target[0][1], shapes.SierpinskiShape)
            or scene.domain_spec or scene.budget_keys):
        raise ValueError("demo-sierpinski needs one 'target sierpinski "
                         "DEPTH' line and no other target, part, point, "
                         "domain or budget line")
    depth, grid = target[0][1].depth, scene.grid
    out = _outdir(args)
    mask = sierpinski_mask(depth, grid)
    pgmio.write_mask_pgm(mask, out / "approximant.pgm")
    exhibit = hull_escape_exhibit(depth, grid) if depth >= 1 else []
    resolvable = [h for h in exhibit if h.resolvable]
    escaped = [h for h in resolvable if h.escaped]
    serialize.save_report(
        {"depth": depth, "holes": len(exhibit),
         "resolvable": len(resolvable), "escaped": len(escaped),
         "per_hole": [{"level": h.level, "side": h.side,
                       "resolvable": h.resolvable,
                       "interior_cells": h.interior_cells,
                       "escaped": h.escaped} for h in exhibit]},
        out / "exhibit.json")
    lines = [
        f"Triangle-fractal approximant, depth {depth}, "
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
    _manifest(args, out, {"command": "demo-sierpinski", "depth": depth})
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
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("construct", help="build a series from a scene")
    p.add_argument("scene", help="scene file")
    p.add_argument("--pipeline", required=True,
                   choices=("countable", "compact", "sigma"))
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("interleave", help="splice two stored series; the "
                                          "splice converges where both do")
    p.add_argument("even", help="stored series JSON for the even orders")
    p.add_argument("odd", help="stored series JSON for the odd orders")
    p.set_defaults(func=cmd_interleave)

    p = sub.add_parser("verify", help="classify a stored series against a "
                                      "scene target")
    p.add_argument("scene", help="scene file")
    p.add_argument("series", help="stored series JSON")
    p.add_argument("--min-agree", type=_fraction, default=0.99)
    p.add_argument("--exhaust-m", type=int, default=None,
                   help="restrict the off-target check to the m-th "
                        "exhaustion piece of the domain")
    p.add_argument("--N", type=int, default=None,
                   help="truncation order, in place of the scene's N budget")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="ascending decomposition of scene "
                                         "parts, with stage exports")
    p.add_argument("scene", help="scene file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("demo-sierpinski",
                       help="triangle-fractal hull-escape exhibit")
    p.add_argument("scene", help="scene file with one 'target sierpinski "
                                 "DEPTH' line")
    p.set_defaults(func=cmd_demo_sierpinski)

    for p in sub.choices.values():
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:  # bad input or any I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
