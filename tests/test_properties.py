"""The theorem's properties over random sigma scenes: level sets that are
their own polynomial hulls and ascend, stored series that classify as
built, and a CLI that ends every construct-then-verify run in an exit
code it documents."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sigmaconv import (conv_map, level_set, load_series, parse_scene,
                       polynomial_hull, save_series)
from sigmaconv.cli import main
from sigmaconv.harness import construct_sigma
from sigmaconv.series import MIN_N

# coordinates on a 0.01 lattice inside the box -2..2, short of its frame
COORD = st.integers(-160, 160).map(lambda i: i / 100)
SIZE = st.integers(10, 60).map(lambda i: i / 100)


@st.composite
def sigma_scenes(draw):
    """A 48x48 to 64x64 scene on the box -2..2 with 1-4 parts (disks,
    boxes, and segments of half-width 0.06) and 0-5 points, degree cap 48
    and the default nmax, as scene text."""
    side = draw(st.integers(48, 64))
    lines = [f"grid {side}x{side}", "box -2 -2 2 2", "budget degree-cap 48"]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["disk", "box", "segment"]))
        x, y = draw(COORD), draw(COORD)
        if kind == "disk":
            lines.append(f"part disk {x} {y} {draw(SIZE)}")
        elif kind == "box":
            lines.append(f"part box {x} {y} {x + draw(SIZE) * 1.5:.2f} "
                         f"{y + draw(SIZE) * 1.5:.2f}")
        else:
            lines.append(f"part segment {x} {y} {draw(COORD)} {draw(COORD)} "
                         "0.06")
    for _ in range(draw(st.integers(0, 5))):
        lines.append(f"point {draw(COORD)} {draw(COORD)}")
    return "\n".join(lines) + "\n"


def run_cli(argv):
    """main(argv)'s exit code and stderr; an exception that main lets
    through fails the test with its traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(text=sigma_scenes())
def test_random_sigma_scenes_keep_the_theorem_and_the_cli_contract(text):
    """Level sets are hull-fixed and ascend in j, save then load keeps the
    exponent bytes at N = members wherever members >= MIN_N, and construct
    then verify ends in exit 0, 1 or 2, with one 'error:' line on exit 1,
    and construct exits 0 exactly when the series builds in process.  The
    agreement fractions are separation quality, not a law, and are not
    asserted."""
    scene = parse_scene(text)
    with warnings.catch_warnings(record=True), \
            tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("always")  # record, do not raise
        tmp = Path(tmp)
        try:
            series, _ = construct_sigma(scene)
        except ValueError:
            series = None
        if series is not None:
            members = series.max_supported_n
            omega = scene.domain_mask()
            levels = [level_set(series, j, members, omega)
                      for j in (1, 2, 3, 4, 8)]
            assert all(polynomial_hull(L).same_cells(L) for L in levels)
            for low, high in zip(levels, levels[1:]):
                assert low.subset_of(high)
            if members >= MIN_N:
                save_series(series, tmp / "series.json")
                again = load_series(tmp / "series.json")
                b = scene.budgets.resolve(scene.grid)
                want, got = (conv_map(s, scene.grid, members, b.B, b.M)
                             for s in (series, again))
                assert got.exponents.tobytes() == want.exponents.tobytes()

        (tmp / "scene.txt").write_text(text)
        code, err = run_cli(["construct", str(tmp / "scene.txt"),
                             "--pipeline", "sigma", "--out", str(tmp / "c")])
        assert code in (0, 1) and (code == 0) is (series is not None)
        if code == 0:
            code, err = run_cli(["verify", str(tmp / "scene.txt"),
                                 str(tmp / "c" / "series.json"), "--N",
                                 str(series.max_supported_n),
                                 "--out", str(tmp / "v")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ") and len(err.splitlines()) == 1
