"""
A series that converges exactly on a prescribed countable set
=============================================================

Coefficients C_n * (z - z_1) ... (z - z_n) vanish identically at each z_k
from order k onward, so at z_k the series is a polynomial in disguise and
converges.  The scales C_n = (n / gamma_n)^n, built from the separation of
the first points, force the growth exponent above log n everywhere off the
sequence.  The classifier sees both effects in the tail window.
"""

import math

import numpy as np

from sigmaconv import (PointSequence, Verdict, classify_point, conv_map,
                       countable_set_series, Grid, tail_window)

pts = [complex(a, b) / 3 for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 1)]
series = countable_set_series(PointSequence.from_points(pts))
print(f"{len(pts)} prescribed points, coefficients up to order "
      f"{series.max_supported_n}")

# The verdict at each prescribed point: an all-vanishing tail gives the
# exact -inf certificate.  With N = 14 the tail window is orders 8..14,
# so the certificate exists for the first 8 points; for later points the
# window still contains pre-root coefficients, which the scales blow up.
N, B, M = 14, 0.0, math.log(16.0)
for k, z in enumerate(pts, start=1):
    sup = float(series.structure.tail_sup(z, *tail_window(N)))
    verdict = classify_point(series, z, N=N, B=B, M=M)
    tag = "exact -inf tail" if sup == -math.inf else f"tail sup {sup:+.2f}"
    print(f"  z_{k:<2} = {z.real:+.3f}{z.imag:+.3f}i  {verdict.name:<12} {tag}")

# Far from the set, the scales dominate: growth exponent at least log n.
far = 1.5 + 1.2j
exponent = float(series.structure.tail_sup(far, N, N))
print(f"\nat {far} the order-{N} exponent is {exponent:.2f} "
      f"(log {N} = {math.log(N):.2f})")
print("verdict:", classify_point(series, far, N=N, B=B, M=M).name)

# A whole-grid map.  Converge cells hug the prescribed points; everything
# else in range diverges.
grid = Grid.from_box(-1.5, -1.5, 1.5, 1.5, 48, 48)
cmap = conv_map(series, grid, N=N, B=B, M=M)
print("\nverdict counts over the grid:", cmap.counts())
sym = {int(Verdict.CONVERGE): "O", int(Verdict.DIVERGE): ".",
       int(Verdict.UNDETERMINED): "?"}
for j in range(grid.height - 1, -1, -2):
    print("".join(sym[int(cmap.verdicts[j, i])]
                  for i in range(0, grid.width, 2)))
