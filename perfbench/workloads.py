"""The benchmark's workloads: one scene each, run through ``sigmaconv.cli``
in process exactly as a user would type the commands, and the outcome every
run is checked against."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import scenes
from sigmaconv import cli


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Callable[[int, bool], str]
    pipeline: str | None  # `construct --pipeline`; None runs `decompose`
    verify_args: Callable[[Path], list[str]] | None  # from the stored series


def _sigma_verify_args(series_path: Path) -> list[str]:
    # --N is the stored member count, read from the series the run just
    # wrote, as a user would read it
    members = json.loads(series_path.read_text())["members"]
    return ["--N", str(len(members)), "--exhaust-m", "5"]


WORKLOADS = {
    "sigma-classify": Workload("sigma-classify", scenes.sigma_classify,
                               "sigma", _sigma_verify_args),
    "countable-400": Workload("countable-400", scenes.countable,
                              "countable", lambda series_path: []),
    "decompose-export": Workload("decompose-export", scenes.decompose_export,
                                 None, None),
}


@dataclass
class Pass:
    """One scene-to-output pass: wall times, sizes and the checked outcome."""

    construct_s: float
    verify_s: float | None
    cells: int
    series_bytes: int
    written_bytes: int
    outcome: dict


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def outcome_of(wl: Workload, out: Path, exit_codes: list[int],
               exponents) -> dict:
    """The golden-checked fields: exit codes, plus the exponent hash, verdict
    counts and agreement fractions of a verify, or the manifest and series
    hashes of a decompose."""
    result: dict = {"exit_codes": exit_codes}
    if wl.verify_args is None:
        result["manifest_sha256"] = sha256_bytes(
            (out / "decomposition" / "manifest.json").read_bytes())
        result["series_sha256"] = sha256_bytes(
            (out / "series.json").read_bytes())
        return result
    result["exponents_sha256"] = sha256_bytes(exponents.tobytes())
    result["counts"] = json.loads((out / "map.json").read_text())["counts"]
    result["agreement"] = json.loads(
        (out / "report.json").read_text())["map_agreement"]
    return result


def _timed_main(argv: list[str]) -> tuple[float, int]:
    """``sigmaconv <argv>`` in this process; its stdout is discarded."""
    sys.argv = ["sigmaconv", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return time.perf_counter() - t0, rc


@contextlib.contextmanager
def _keep_verify_result(kept: list):
    """Pass-through around the ``verify`` that ``cli`` calls, keeping the
    returned map so that its exponents can be hashed after the timing."""
    original = cli.verify

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        kept.append(result)
        return result

    cli.verify = keep
    try:
        yield
    finally:
        cli.verify = original


def cli_pass(wl: Workload, scene_path: Path, out: Path) -> Pass:
    """Run the workload's commands once into a fresh ``out``."""
    if out.exists():
        shutil.rmtree(out)
    series_path = out / "series.json"
    if wl.pipeline is None:
        construct_s, rc = _timed_main(
            ["decompose", str(scene_path), "--out", str(out)])
        return Pass(construct_s, None, 0, series_path.stat().st_size,
                    tree_bytes(out), outcome_of(wl, out, [rc], None))
    construct_s, rc_c = _timed_main(
        ["construct", str(scene_path), "--pipeline", wl.pipeline,
         "--out", str(out)])
    argv = ["verify", str(scene_path), str(series_path), "--out", str(out)]
    argv += wl.verify_args(series_path)
    kept: list = []
    with _keep_verify_result(kept):
        verify_s, rc_v = _timed_main(argv)
    cmap = kept[0][1]
    return Pass(construct_s, verify_s, cmap.verdicts.size,
                series_path.stat().st_size, tree_bytes(out),
                outcome_of(wl, out, [rc_c, rc_v], cmap.exponents))
