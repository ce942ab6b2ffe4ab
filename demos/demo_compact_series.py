"""
A series whose convergence set is a prescribed compact set
==========================================================

For a polynomially convex compact K, each stage m finds polynomials that
stay below 1 on K yet exceed m on the shell of cells pulled 1/m away.
Raising the stage-m members to growing powers yields coefficients whose
growth exponents are nonpositive on K and at least log m on the shells:
the verdict map reproduces K.
"""

import math
from pathlib import Path

from sigmaconv import (COMPACT, Grid, Verdict, compact_set_series, conv_map,
                       polynomial_hull, rasterize_scene, save_map,
                       save_series, shapes)

grid = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 96, 96)
K = polynomial_hull(rasterize_scene(
    [(1, shapes.Disk(-0.3, 0.0, 0.55)), (1, shapes.Disk(0.55, 0.2, 0.4))],
    grid, kind=COMPACT))
print("target compact:", K.count(), "cells")

series = compact_set_series(K, stages=6, degree_cap=48)
st = series.structure
print("stage block sizes:", list(st.block_sizes))
print("uncovered shell cells per stage:", list(st.uncovered_counts))
print("total members:", series.max_supported_n)

cmap = conv_map(series, grid, N=series.max_supported_n,
                B=math.log(1.2), M=math.log(1.8))
counts = cmap.counts()
print("verdicts:", counts)

# Converge cells against K, cell by cell.
agree_on_K = int((cmap.verdicts[K.bits] == Verdict.CONVERGE).sum())
print(f"converge on {agree_on_K}/{K.count()} cells of K")

sym = {int(Verdict.CONVERGE): "O", int(Verdict.DIVERGE): ".",
       int(Verdict.UNDETERMINED): "?"}
for j in range(grid.height - 1, -1, -3):
    print("".join(sym[int(cmap.verdicts[j, i])]
                  for i in range(0, grid.width, 3)))

# Everything persists: the series as constructive JSON (rebuilding it
# reproduces this map bit for bit), the map as a PGM with a sidecar.
out = Path("demo_out")
out.mkdir(exist_ok=True)
save_series(series, out / "compact_series.json")
save_map(cmap, out / "compact_map.pgm", out / "compact_map.json")
print(f"\nwrote {out}/compact_series.json and {out}/compact_map.pgm")
