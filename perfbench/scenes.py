"""Seeded scene files for the benchmark workloads.

A run's ``--seed`` picks one of ``SCENE_POOL`` scenes per workload, so that
every scene a run can meet has golden values recorded in ``golden.json``.
Smoke scenes keep each pipeline but shrink the grid side eightfold; the
countable set shrinks with it, because its points must stay on distinct
lattice cells.
"""

from __future__ import annotations

import math

import numpy as np

SCENE_POOL = 16
BOX = (-2.0, -2.0, 2.0, 2.0)


def scene_index(seed: int) -> int:
    return seed % SCENE_POOL


def _side(full: int, smoke: bool) -> int:
    return full // 8 if smoke else full


def _header(side: int, budgets: dict) -> list[str]:
    lines = [f"grid {side}x{side}", "box " + " ".join(f"{v:g}" for v in BOX)]
    lines += [f"budget {k} {v!r}" for k, v in budgets.items()]
    return lines


def _point_lines(pts) -> list[str]:
    return [f"point {z.real!r} {z.imag!r}" for z in pts]


def sigma_classify(index: int, smoke: bool = False) -> str:
    """Acceptance criterion 6: two disks and 30 isolated points; index 6
    is the criterion's own scene."""
    rng = np.random.default_rng(index)
    pts: list[complex] = []
    while len(pts) < 30:
        z = complex(rng.uniform(-1.7, 1.7), rng.uniform(-1.7, 1.7))
        if abs(z - (-0.7)) < 0.5 or abs(z - 0.7) < 0.5:
            continue
        if any(abs(z - w) < 0.12 for w in pts):
            continue
        pts.append(z)
    lines = _header(_side(128, smoke), {"degree-cap": 128, "nmax": 64,
                                        "B": math.log(1.2),
                                        "M": math.log(8.0)})
    lines += ["part disk -0.7 0 0.35", "part disk 0.7 0 0.35"]
    return "\n".join(lines + _point_lines(pts)) + "\n"


def countable_points(index: int, smoke: bool = False) -> tuple[int, list[complex]]:
    """Distinct cell centres on the stride-2 lattice inside [-1.5, 1.5]^2."""
    side = _side(128, smoke)
    count = 25 if smoke else 400
    pixel = (BOX[2] - BOX[0]) / side
    axis = [i for i in range(0, side, 2)
            if abs(BOX[0] + (i + 0.5) * pixel) <= 1.5]
    sites = [(i, j) for j in axis for i in axis]
    rng = np.random.default_rng(1000 + index)
    picks = rng.choice(len(sites), size=count, replace=False)
    pts = [complex(BOX[0] + (sites[k][0] + 0.5) * pixel,
                   BOX[1] + (sites[k][1] + 0.5) * pixel) for k in picks]
    return side, pts


def countable(index: int, smoke: bool = False) -> str:
    """N = points - 1, B = 0, M = log 16: only the first ceil(N/2) roots can
    converge (README, criterion 2), so half the target converges."""
    side, pts = countable_points(index, smoke)
    lines = _header(side, {"N": len(pts) - 1, "B": 0.0,
                           "M": math.log(16.0)})
    return "\n".join(lines + _point_lines(pts)) + "\n"


def decompose_export(index: int, smoke: bool = False) -> str:
    """Six r = 0.3 disks at seeded positions, one segment and 20 isolated
    points, each part kept clear of the others."""
    rng = np.random.default_rng(2000 + index)
    seg_y = -1.75
    disks: list[complex] = []
    while len(disks) < 6:
        c = complex(rng.uniform(-1.45, 1.45), rng.uniform(-1.2, 1.45))
        if all(abs(c - d) >= 0.8 for d in disks):
            disks.append(c)
    pts: list[complex] = []
    while len(pts) < 20:
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.6, 1.8))
        if any(abs(z - d) < 0.45 for d in disks):
            continue
        if any(abs(z - w) < 0.15 for w in pts):
            continue
        pts.append(z)
    lines = _header(_side(256, smoke), {"degree-cap": 64, "nmax": 48})
    lines += [f"part disk {c.real!r} {c.imag!r} 0.3" for c in disks]
    lines.append(f"part segment -1.5 {seg_y!r} 1.5 {seg_y!r}")
    return "\n".join(lines + _point_lines(pts)) + "\n"
