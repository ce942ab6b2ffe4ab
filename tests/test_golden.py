"""Golden hashes of constructed series files.

Each hash is the sha256 of the ``series.json`` that ``construct`` writes for
a fixed scene, recorded before the separating-family row was compacted to
the cells still needed; any change to members, log scales, uncovered counts
or the file layout shows up here.  The compact pipeline puts all its stages
into one lockstep family group, which perfbench never runs.
"""

import hashlib

import pytest

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


@pytest.mark.parametrize("scene,pipeline,sha256", [
    (DISK_PAIR, "compact",
     "69eb432a91ed90a239b4aaa7246bf7927b3ddfe1e902b8fadc6680d08e932828"),
    (DISK_PAIR, "sigma",
     "7894157a1fff576b91efde8bf56669d7d2c3f429ea942fd8580164496d5e860e"),
    (DISK_AND_POINT, "compact",
     "96add42c725ded48c83c65640d51ceff9f41b0bd00a9f6dd010356685982f5f2"),
    (DISK_AND_POINT, "sigma",
     "1accca1c57cdd5c6eba605003f5289fa03fb36fa5569da287130e8e10aea332c"),
], ids=["pair-compact", "pair-sigma", "point-compact", "point-sigma"])
def test_series_file_matches_golden_hash(tmp_path, scene, pipeline, sha256):
    path = tmp_path / "scene.txt"
    path.write_text(scene)
    out = tmp_path / "out"
    assert main(["construct", str(path), "--pipeline", pipeline,
                 "--out", str(out)]) == 0
    data = (out / "series.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256
