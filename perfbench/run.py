"""sigmaconv benchmark: scene to verified map, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sigma-classify --seed 6 \\
        --seconds 10 --trace 0

Each run is one closed-loop, single-client process.  The seed picks the
workload's scene (see ``scenes.py``); the program receives only the scene
file.  The run sets up (imports, writes the scene and warms up on the smoke
scene, several times), then repeats the workload's ``sigmaconv`` commands
in process for about ``--seconds`` and checks every pass against
``golden.json``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` spends half the time untraced and half on
traced passes (``tracing.py``) and reports the per-layer metrics.
``--smoke`` runs the smoke scenes instead.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
results, with provenance, go to ``perfbench/out/<run>/results.json`` and a
traced run's spans to ``spans.json`` beside it; the commands' own outputs
are kept there only when a pass failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
PERCENTILES = (99, 95, 90, 75, 50)

# metrics that repeat exactly on a given scene, whatever the hardware
COMPUTED_UNITS = ("count", "bytes")
# reported in results.json and stdout only, like the construct_s and
# verify_s timings: decompose-export has no verify step, every end-to-end
# metric of BENCHMARK.json must apply to every workload, and sigma-classify
# gives construct_s one sample of a few seconds per run, too few to hold a
# bound on a shared host
EXTRA_UNITS = {"cells_per_s": "1/s"}


def high_percentile(values: list[float]) -> dict:
    """Median, and the highest listed percentile with >= 10 samples beyond
    it (None when there are too few samples)."""
    n = len(values)
    summary = {"median": statistics.median(values), "samples": n,
               "percentile": None, "value": None}
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            summary["percentile"] = p
            summary["value"] = sorted(values)[min(n - 1, int(n * p / 100))]
            break
    return summary


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True).stdout.strip()
    return head or None


def source_sha256(src: Path) -> str:
    """Identifies the code measured where there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Checker:
    """Counts passes and compares each outcome with its golden value."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, outcome: dict | None, error: str = "") -> None:
        self.attempted += 1
        if outcome is None:
            self.failures.append(f"{label}: {error}")
        elif self.golden is None:
            self.failures.append(f"{label}: no golden value for this scene")
        elif outcome != self.golden:
            self.failures.append(f"{label}: {outcome} != golden {self.golden}")

    def run(self, label: str, one_pass):
        """``one_pass()`` returning (outcome, result); a pass that raises is
        a failure, not a stop.  Returns the result, or None if it raised."""
        try:
            outcome, result = one_pass()
        except Exception as exc:
            self.check(label, None, f"{type(exc).__name__}: {exc}")
            return None
        self.check(label, outcome)
        return result


def timed_loop(budget_s: float, one_pass) -> list:
    """Call ``one_pass(i)`` at least once, and again while the previous
    pass's wall time still fits in ``budget_s``; drop passes that failed."""
    results = []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start + last <= budget_s:
        t0 = time.perf_counter()
        results.append(one_pass(i))
        last = time.perf_counter() - t0
        i += 1
    return [r for r in results if r is not None]


def set_up(wl, index: int, smoke: bool, work: Path, checker: Checker):
    """Write the scene and make one warm-up pass on the smoke scene,
    ``SETUP_REPS`` times; returns the scene path and each repetition's
    wall time."""
    import workloads
    scene_path = work / "scene.txt"
    warm_path = work / "warmup-scene.txt"
    reps = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        scene_path.write_text(wl.scene(index, smoke))
        warm_path.write_text(wl.scene(index, True))
        checker.run(f"warm-up {rep}", lambda: (
            workloads.cli_pass(wl, warm_path, work / "warmup").outcome, None))
        reps.append(time.perf_counter() - t0)
    return scene_path, reps


def traced_values(wl, scene_path: Path, work: Path, budget_s: float,
                  checker: Checker, untraced_run_s: float):
    """Per-layer values from traced passes, and the tracer holding their
    spans; None when every traced pass failed."""
    import tracing
    checker.attempted += 1
    drifted = tracing.drift(wl, work / "warmup-scene.txt", work / "drift")
    if drifted:
        checker.failures.append(f"drift guard: {drifted}")
    tracer = tracing.Tracer()
    counts_seen: list[dict] = []

    def traced(i: int):
        tracer.run_id = i
        outcome, counts = tracing.traced_pass(wl, scene_path,
                                              work / "traced", tracer)
        if counts_seen and counts != counts_seen[0]:
            raise RuntimeError(f"computed counts {counts} differ from the "
                               f"first traced pass's {counts_seen[0]}")
        counts_seen.append(counts)
        return outcome, tracer.self_times(i)

    runs = timed_loop(budget_s, lambda i: checker.run(
        f"traced {i}", lambda: traced(i)))
    if not runs:
        return None, tracer
    values = {metric: statistics.median(selfs.get(span, 0.0)
                                        for selfs, _ in runs)
              for metric, span in tracing.TIME_LAYERS.items()}
    values.update(counts_seen[0])
    totals = [total for _, total in runs]
    values["series.root_log_evals_per_s"] = (
        values["series.root_log_evals"] / values["series.conv_map_s"]
        if values["series.conv_map_s"] > 0 else 0.0)
    values["trace.overhead_s"] = statistics.median(totals) - untraced_run_s
    values["trace.coverage"] = statistics.median(
        (total - selfs.get(tracing.ROOT, 0.0)) / total
        for selfs, total in runs)
    return values, tracer


def provenance(root: Path) -> dict:
    import numpy
    import scipy
    import sigmaconv
    return {"git_commit": git_commit(root),
            "source_sha256": source_sha256(root / "src"),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sigmaconv": sigmaconv.__version__,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's smoke scene")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "sigmaconv" / "__init__.py").is_file():
        print("error: src/sigmaconv not found; run from the root of a "
              "sigmaconv checkout", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(whys)}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    t_import = time.perf_counter()
    import sigmaconv.cli
    import_s = time.perf_counter() - t_import
    if Path(sigmaconv.cli.__file__).parent.resolve() != \
            (root / "src" / "sigmaconv").resolve():
        print(f"error: imported sigmaconv from {sigmaconv.cli.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2

    import scenes
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    index = scenes.scene_index(args.seed)
    golden = json.loads((HERE / "golden.json").read_text())
    mode = "smoke" if args.smoke else "full"
    checker = Checker(golden[mode].get(wl.name, {}).get(str(index)))
    warm_checker = Checker(golden["smoke"].get(wl.name, {}).get(str(index)))
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + (
        "-smoke" if args.smoke else "")
    work = HERE / "out" / tag
    work.mkdir(parents=True, exist_ok=True)

    scene_path, setup_reps = set_up(wl, index, args.smoke, work, warm_checker)
    setup_s = import_s + statistics.median(setup_reps)

    def one_pass():
        p = workloads.cli_pass(wl, scene_path, work / "pass")
        return p.outcome, p

    def untraced(i: int):
        return checker.run(f"pass {i}", one_pass)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_loop(budget, untraced)
    if not passes:
        print("error: every pass raised:\n  " + "\n  ".join(checker.failures),
              file=sys.stderr)
        return 1
    run_s = [p.construct_s + (p.verify_s or 0.0) for p in passes]
    timings = {"run_s": high_percentile(run_s),
               "construct_s": high_percentile([p.construct_s for p in passes])}
    values: dict[str, float] = {}
    if wl.verify_args is not None:
        timings["verify_s"] = high_percentile([p.verify_s for p in passes])
        values["cells_per_s"] = passes[-1].cells / timings["verify_s"]["median"]

    spans_file = None
    if args.trace:
        declared = spec["per_layer"]
        layer_values, tracer = traced_values(
            wl, scene_path, work, args.seconds / 2, checker,
            timings["run_s"]["median"])
        if layer_values is None:
            print("error: every traced pass raised:\n  "
                  + "\n  ".join(checker.failures), file=sys.stderr)
            return 1
        values.update(layer_values)
        spans_file = work / "spans.json"
        spans_file.write_text(json.dumps(tracer.to_json()))
    else:
        declared = spec["end_to_end"]
        values["run_s"] = timings["run_s"]["median"]
        values["series_bytes"] = passes[-1].series_bytes
        values["written_bytes"] = passes[-1].written_bytes
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        values["setup_s"] = setup_s

    failures = warm_checker.failures + checker.failures
    attempted = warm_checker.attempted + checker.attempted
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    units.update(EXTRA_UNITS)
    labelled = {name: {"value": v, "unit": units[name],
                       "kind": ("computed" if units[name] in COMPUTED_UNITS
                                else "measured")}
                for name, v in values.items()}
    (work / "results.json").write_text(json.dumps({
        "workload": wl.name, "why": whys[wl.name], "seed": args.seed,
        "scene_index": index, "smoke": args.smoke, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(root),
        "loop": "closed, one client, one process",
        "import_s": import_s, "setup_reps_s": setup_reps,
        "timings": timings, "run_s_samples": run_s, "metrics": labelled,
        "attempted": attempted, "failed": len(failures),
        "error_frac": len(failures) / attempted, "failures": failures,
        "spans_file": str(spans_file.relative_to(root)) if spans_file else None,
    }, indent=1))
    if not failures:  # a failed run keeps its artifacts for inspection
        for name in ("warmup", "pass", "traced", "drift"):
            shutil.rmtree(work / name, ignore_errors=True)

    print(f"{wl.name} seed {args.seed} (scene {index}"
          f"{', smoke' if args.smoke else ''}), trace {args.trace}, "
          f"{len(passes)} untraced passes: {whys[wl.name]}")
    for name, t in timings.items():
        tail = (f", p{t['percentile']} {t['value']:.6g} s"
                if t["percentile"] is not None else "")
        print(f"  {name:<34} median {t['median']:.6g} s{tail} "
              f"({t['samples']} samples)")
    for name, m in labelled.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']} ({m['kind']})")
    print(f"  error_frac {len(failures)}/{attempted}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
