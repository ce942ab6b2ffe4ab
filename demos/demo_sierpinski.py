"""
Why the triangle fractal admits no ascending exhaustion
=======================================================

Each depth-k approximant of the triangle fractal is the solid triangle
with 3^0 + .. + 3^(k-1) inverted triangles removed.  Any compact subset
of the approximant that is fixed by the polynomial hull cannot contain
the full boundary ring of a removed hole: the hull of such a ring swallows
the hole's interior, which the approximant lacks.  We verify that escape
on every hole of a depth-3 approximant.
"""

from sigmaconv import (COMPACT, Grid, hull_escape_exhibit, rasterize_scene,
                       shapes)

depth = 3
grid = Grid.from_box(-0.1, -0.1, 1.1, 1.1, 256, 256)

mask = rasterize_scene([(1, shapes.SierpinskiShape(depth))], grid,
                       kind=COMPACT)
print(f"depth-{depth} approximant on a 256x256 raster: "
      f"{mask.count()} cells, {3 ** 0 + 3 ** 1 + 3 ** 2} holes")

records = hull_escape_exhibit(depth, grid)
print("\nlevel   side      interior cells   hull swallows interior")
for rec in records:
    tag = {True: "yes", False: "NO", None: "unresolvable"}[rec.escaped]
    print(f"{rec.level:>5}   {rec.side:>7.4f}   {rec.interior_cells:>14}   "
          f"{tag}")

resolvable = [r for r in records if r.resolvable]
escaped = [r for r in resolvable if r.escaped]
print(f"\n{len(escaped)} of {len(resolvable)} resolvable holes escaped.")

# Consequence: an ascending chain of hull-fixed compacts inside the
# approximant must avoid some boundary ring at every hole, so its union
# can never exhaust the approximant.  The CLI runs the same check on the
# depth-4 approximant at 512x512 (CI runs it too); from the repository root:
#
#   python -W error -m sigmaconv.cli demo-sierpinski demos/sierpinski.scene \
#       --out "$(mktemp -d)"
#
# exiting 0 only when every resolvable hole escapes.
assert all(r.escaped for r in resolvable)
