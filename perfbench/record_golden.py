"""Record the golden outcome of every pooled scene, full and smoke.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs define correctness.  It
rewrites ``perfbench/golden.json`` for every workload.  A pass that raises
stops the recording.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path.cwd() / "src"))
    import scenes
    import workloads

    golden = {"pool": scenes.SCENE_POOL, "full": {}, "smoke": {}}
    work = HERE / "out" / "golden"
    for name, wl in sorted(workloads.WORKLOADS.items()):
        for mode in ("smoke", "full"):
            table = golden[mode][name] = {}
            for index in range(scenes.SCENE_POOL):
                work.mkdir(parents=True, exist_ok=True)
                scene_path = work / "scene.txt"
                scene_path.write_text(wl.scene(index, mode == "smoke"))
                p = workloads.cli_pass(wl, scene_path, work / "pass")
                table[str(index)] = p.outcome
                print(name, mode, index, p.outcome, flush=True)
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
