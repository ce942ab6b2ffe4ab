"""A grid handed to tail_sup classifies bit for bit as its cell centres
passed as points.

conv_map and level_set hand the structure their grid, and every root log
then comes from one construct._RootLogRow: gathered from the grid's
offset table where the root is exactly a cell centre of a grid that has
one, and log|z - r| computed directly otherwise, which is also the only
branch points take.  Each case below spies on both branches, so it states
which one the grid path took and cannot pass without running it.  The
same complex values go through the same abs and log either way, within
one numpy dispatch target; CI runs this file under the AVX2 and x86-64-v2
targets too.
"""

import math
from collections import Counter

import numpy as np
import pytest

from sigmaconv import (COMPACT, Grid, compact_set_series,
                       conv_map, countable_set_series, full_domain,
                       interleave, level_set, omega_exhaustion,
                       polynomial_hull, rasterize_scene, shapes, tail_window)
from sigmaconv.construct import (CountableStructure, _offset_logs,
                                 _RootLogRow, countable_series_from_tables)
from sigmaconv.series import _sup

TABLE_GRID = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 32, 32)
NO_TABLE_GRID = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 48, 48)
# its centres are odd multiples of 1/8, TABLE_GRID's odd multiples of 1/16
OTHER_GRID = Grid.from_box(-2.0, -2.0, 2.0, 2.0, 16, 16)


@pytest.fixture
def branches(monkeypatch):
    """Calls of each root-log branch, keyed by (row over a grid, branch)."""
    seen = Counter()
    for name in ("gather", "direct"):
        method = getattr(_RootLogRow, name)

        def spy(self, root, out=None, _name=name, _method=method):
            seen[self.grid is not None, _name] += 1
            return _method(self, root, out)

        monkeypatch.setattr(_RootLogRow, name, spy)
    return seen


def countable_on(grid, on, off, seed=3):
    """A countable-set series on ``on`` of the grid's cell centres and
    ``off`` points off its lattice, interleaved."""
    rng = np.random.default_rng(seed)
    centres = grid.centers().ravel()
    pts = list(centres[rng.choice(centres.size, on, replace=False)])
    for k in range(off):
        z = complex(*rng.uniform(-1.9, 1.9, 2))
        assert not (centres == z).any()
        pts.insert(2 * k + 1, z)
    return countable_set_series(pts)


def compact_on(grid):
    """A compact-set series whose 4 stages build in lockstep: every member
    is a prefix of one Leja sequence on the grid's cell centres."""
    K = polynomial_hull(rasterize_scene([(1, shapes.Disk(0.2, -0.1, 0.6))],
                                        grid, kind=COMPACT))
    f = compact_set_series(K, stages=4, degree_cap=16)
    assert len(f.structure.sequences) == 1 < f.max_supported_n
    return f


def grid_path(series, grid, N, branches):
    """conv_map's exponents on the grid, after checking them bit for bit
    against _sup over the centres as points, and the branches the grid
    path took."""
    branches.clear()
    got = conv_map(series, grid, N, B=0.0, M=1.0).exponents
    taken = Counter(branches)
    branches.clear()
    want = _sup(series, grid.centers().ravel(), *tail_window(N))
    assert got.shape == (grid.height, grid.width)
    assert got.tobytes() == want.reshape(got.shape).tobytes()
    # points never gather, and they reach no row over a grid
    assert branches[False, "direct"] > 0
    assert branches[False, "gather"] == 0
    assert branches[True, "direct"] == branches[True, "gather"] == 0
    return taken


def test_offset_tables_of_the_grids():
    assert _offset_logs(TABLE_GRID) is not None
    assert _offset_logs(OTHER_GRID) is not None
    assert _offset_logs(NO_TABLE_GRID) is None


@pytest.mark.parametrize("N", [None, 9])
def test_countable_on_the_lattice_gathers_every_root(N, branches):
    f = countable_on(TABLE_GRID, 24, 0)
    taken = grid_path(f, TABLE_GRID, N or f.max_supported_n, branches)
    assert taken[True, "gather"] > 0
    assert taken[True, "direct"] == 0


def test_countable_off_the_lattice_takes_both_branches(branches):
    f = countable_on(TABLE_GRID, 14, 9)
    taken = grid_path(f, TABLE_GRID, f.max_supported_n, branches)
    assert taken[True, "gather"] > 0
    assert taken[True, "direct"] > 0


def test_lockstep_block_series_gathers_every_root(branches):
    f = compact_on(TABLE_GRID)
    for N in (f.max_supported_n, f.max_supported_n // 2):
        taken = grid_path(f, TABLE_GRID, N, branches)
        assert taken[True, "gather"] > 0
        assert taken[True, "direct"] == 0


@pytest.mark.parametrize("pair", ["countable-blocks", "blocks-countable"])
def test_interleave_hands_its_children_the_grid(pair, branches):
    countable, blocks = countable_on(TABLE_GRID, 24, 0), compact_on(TABLE_GRID)
    F = (interleave(countable, blocks) if pair == "countable-blocks"
         else interleave(blocks, countable))
    for N in (F.max_supported_n, 17):
        taken = grid_path(F, TABLE_GRID, N, branches)
        assert taken[True, "gather"] > 0
        assert taken[True, "direct"] == 0


def test_grid_without_a_table_takes_the_direct_branch(branches):
    for f in (countable_on(NO_TABLE_GRID, 24, 0), compact_on(NO_TABLE_GRID)):
        taken = grid_path(f, NO_TABLE_GRID, f.max_supported_n, branches)
        assert taken[True, "direct"] > 0
        assert taken[True, "gather"] == 0


def test_block_series_on_another_grid_takes_the_direct_branch(branches):
    f = compact_on(TABLE_GRID)
    taken = grid_path(f, OTHER_GRID, f.max_supported_n, branches)
    assert taken[True, "direct"] > 0
    assert taken[True, "gather"] == 0


@pytest.mark.parametrize("build", [
    lambda: countable_on(TABLE_GRID, 14, 9),
    lambda: compact_on(TABLE_GRID),
], ids=["countable", "blocks"])
def test_level_set_takes_the_grid(build, branches):
    f = build()
    omega = full_domain(TABLE_GRID)
    N = f.max_supported_n
    sup = _sup(f, TABLE_GRID.centers().ravel(), 1, N).reshape(
        TABLE_GRID.height, TABLE_GRID.width)
    for j in (1, 2, 8):
        branches.clear()
        got = level_set(f, j, N, omega)
        assert branches[True, "gather"] > 0
        assert np.array_equal(got.bits, omega_exhaustion(omega, j).bits
                              & (sup <= math.log(j)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_order_bisects_over_points_with_the_same_report(branches):
    # orders n >= 2 are NaN on the cell centre a, and only there: they add
    # log|a - a| = -inf to the +inf of a root at infinity.  The grid path
    # gathers a's row and takes the infinite root directly; the bisection
    # then reads the NaN cell as a point
    a = complex(TABLE_GRID.centers()[5, 2])
    pts = (a, complex(math.inf, 0.0)) + tuple(
        complex(0.1 * k, -0.05 * k) for k in range(1, 10))
    f = countable_series_from_tables(CountableStructure(
        pts, tuple(0.5 * n for n in range(11)), (0.5,) * 10))
    N = f.max_supported_n
    branches.clear()
    with pytest.raises(RuntimeError, match=r"NaN at n=5, .* \(5, 2\)$") \
            as from_grid:
        conv_map(f, TABLE_GRID, N, B=0.0, M=1.0)
    assert branches[True, "gather"] > 0
    assert branches[True, "direct"] > 0
    assert branches[False, "direct"] > 0
    with pytest.raises(RuntimeError) as from_points:
        _sup(f, TABLE_GRID.centers().ravel(), *tail_window(N))
    assert str(from_grid.value).replace("(5, 2)", "(162,)") == str(
        from_points.value)
