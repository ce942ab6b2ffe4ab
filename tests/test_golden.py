"""Golden hashes of constructed series files.

Each hash is the sha256 of the ``series.json`` that ``construct`` writes for
a fixed scene, recorded before the separating-family row was compacted to
the cells still needed; any change to members, log scales, uncovered counts
or the file layout shows up here.  The compact pipeline puts all its stages
into one lockstep family group, which perfbench never runs.

numpy picks its log and complex abs kernels by the highest x86-64 level
(``X86_V2``, ``X86_V3``, ``X86_V4``) it dispatches to, and they round
differently under x86-64-v2 than above it, so the hashes are recorded per
level.  A numpy that names no level (an older release, or another
architecture) reads the ``X86_V4`` set.
"""

import hashlib
import re

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

from sigmaconv.cli import main

DISK_PAIR = """\
name golden disk pair
grid 64x64
box -2 -2 2 2
budget stages 8
budget degree-cap 32
target disk -0.7 0 0.4
target add disk 0.7 0 0.4
part disk -0.7 0 0.4
part disk 0.7 0 0.4
point 1.5 1.5
point -1.5 1.2
"""

DISK_AND_POINT = """\
name golden disk and points
grid 48x48
box -2 -2 2 2
budget stages 5
budget degree-cap 24
budget nmax 8
domain disk 0 0 1.9
target disk 0.2 -0.1 0.6
part disk 0.2 -0.1 0.6
part disk -1.0 0.9 0.2
point 1.1 1.0
"""


SCENES = {"pair-compact": (DISK_PAIR, "compact"),
          "pair-sigma": (DISK_PAIR, "sigma"),
          "point-compact": (DISK_AND_POINT, "compact"),
          "point-sigma": (DISK_AND_POINT, "sigma")}

# recorded under AVX-512; X86_V3 (AVX2) writes the same bytes
ABOVE_V2 = {
    "pair-compact":
        "69eb432a91ed90a239b4aaa7246bf7927b3ddfe1e902b8fadc6680d08e932828",
    "pair-sigma":
        "7894157a1fff576b91efde8bf56669d7d2c3f429ea942fd8580164496d5e860e",
    "point-compact":
        "96add42c725ded48c83c65640d51ceff9f41b0bd00a9f6dd010356685982f5f2",
    "point-sigma":
        "1accca1c57cdd5c6eba605003f5289fa03fb36fa5569da287130e8e10aea332c",
}
# recorded under NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
V2 = {
    "pair-compact":
        "7fa15be60ec84ee27fb3344e53e0fb52a0eb982c505c1995adc5e2f471e46d11",
    "pair-sigma":
        "e86f574dc841dc920d07617d0c5fb27e582f2ab0418dcba84ae05a1e244ac303",
    "point-compact":
        "c05bae973414eaa429d528a360657e974b39b87fc46be8ebfe32e2b71ed6d527",
    "point-sigma":
        "55cc80a294043217ffef3e95b06fa2e5217231fab51dc17003dbb948b3c8af9c",
}
GOLDEN = {"X86_V4": ABOVE_V2, "X86_V3": ABOVE_V2, "X86_V2": V2}


def dispatch_level(features):
    """The highest enabled X86_V* feature, or X86_V4 where none is."""
    return max((name for name, on in features.items()
                if on and re.fullmatch(r"X86_V\d", name)), default="X86_V4")


def test_dispatch_level():
    assert dispatch_level({"X86_V2": True, "X86_V3": True,
                           "X86_V4": False}) == "X86_V3"
    assert dispatch_level({"SSE42": True, "AVX2": True}) == "X86_V4"


@pytest.mark.parametrize("case", list(SCENES))
def test_series_file_matches_golden_hash(tmp_path, case):
    level = dispatch_level(__cpu_features__)
    if level not in GOLDEN:
        pytest.fail(f"no golden hashes recorded for dispatch level {level}")
    scene, pipeline = SCENES[case]
    path = tmp_path / "scene.txt"
    path.write_text(scene)
    out = tmp_path / "out"
    assert main(["construct", str(path), "--pipeline", pipeline,
                 "--out", str(out)]) == 0
    data = (out / "series.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[level][case]
