"""The traced run: the CLI's pipeline called one layer at a time through the
modules' public functions, with a span around each call.

Spans are kept in memory and written out when the benchmark ends.  Only a
traced pass rebinds ``polynomial_hull``, ``distance_to`` and ``leja_points``
at their import sites in ``decompose`` and ``construct``, with wrappers that
count calls and open a span each; untraced passes call unmodified code.

The traced pass is a copy of ``cli.main``, ``cli.cmd_construct``,
``cli.cmd_verify``, ``cli.cmd_decompose``, ``harness.construct_sigma`` and
``harness.verify``, split at the layer calls.  ``drift()`` fails a traced run
when the copy and those functions stop calling the same sigmaconv functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from sigmaconv import cli, construct, decompose, harness, serialize, shapes
from sigmaconv.geometry import COMPACT
from sigmaconv.harness import VerificationReport
from sigmaconv.series import conv_map, tail_window

import workloads

ROOT = "cli"  # a command's root span; its self time is cli.self_s

# per-layer time metrics, from the span names that feed them
TIME_LAYERS = {
    "shapes.rasterize_s": "shapes.rasterize",
    "geometry.polynomial_hull_s": "geometry.polynomial_hull",
    "geometry.distance_to_s": "geometry.distance_to",
    "decompose.ascending_s": "decompose.ascending",
    "construct.family_s": "construct.family",
    "construct.leja_s": "construct.leja",
    "construct.countable_s": "construct.countable",
    "series.conv_map_s": "series.conv_map",
    "serialize.save_series_s": "serialize.save_series",
    "serialize.load_series_s": "serialize.load_series",
    "serialize.export_s": "serialize.export",
    "pgmio.save_map_s": "pgmio.save_map",
    "harness.parse_s": "harness.parse",
    "harness.compare_s": "harness.compare",
    "cli.self_s": ROOT,
}

# (module, attribute, span name) rebound during a traced pass
_WRAPPED = [
    (decompose, "polynomial_hull", "geometry.polynomial_hull"),
    (decompose, "distance_to", "geometry.distance_to"),
    (construct, "polynomial_hull", "geometry.polynomial_hull"),
    (construct, "distance_to", "geometry.distance_to"),
    (construct, "leja_points", "construct.leja"),
]


@dataclass
class Tracer:
    """Spans as (name, start, end, parent index, run id), plus call counts."""

    spans: list[tuple[str, float, float, int, int]] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, self.spans[index][1],
                                 time.perf_counter(), parent, self.run_id)

    def wrap(self, fn, name: str):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            with self.span(name):
                return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def wrappers(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _WRAPPED]
        for mod, attr, name in _WRAPPED:
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))
        try:
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_times(self, run_id: int) -> tuple[dict[str, float], float]:
        """Self time per span name in one run, and the run's root total."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child[parent] += t1 - t0
        selfs: Counter = Counter()
        total = 0.0
        for i, (name, t0, t1, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                selfs[name] += (t1 - t0) - child[i]
                if parent < 0:
                    total += t1 - t0
        return dict(selfs), total

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p, "run": r}
                for n, t0, t1, p, r in self.spans]


def _mask_key(mask) -> bytes:
    return hashlib.sha256(mask.bits.tobytes()).digest()


def _root_terms_per_order(series) -> list[int]:
    """Root factors of coefficient n = 1..max_supported_n."""
    s = series.structure
    if isinstance(s, construct.BlockStructure):
        return [len(m.roots) for m in s.members]
    if isinstance(s, construct.CountableStructure):
        return list(range(1, series.max_supported_n + 1))
    raise TypeError(f"no root-term count for {type(s).__name__}")


@dataclass
class _Run:
    """State one traced pass carries between its commands."""

    tracer: Tracer
    out: Path
    counts: dict = field(default_factory=dict)


def _parse(run: _Run, argv: list[str]):
    """What ``cli.main`` and the start of each ``cli.cmd_*`` do."""
    sys.argv = ["sigmaconv", *argv]
    args = cli.build_parser().parse_args(argv)
    with run.tracer.span("harness.parse"):
        scene = harness.load_scene(args.scene)
    return args, cli._apply_overrides(scene, args)


def _record_construction(run: _Run, series, decomp) -> None:
    """Computed counts of a construction, taken outside its spans."""
    run.counts["construct.members"] = series.max_supported_n
    run.counts["construct.root_terms"] = sum(_root_terms_per_order(series))
    run.counts["construct.uncovered_cells"] = sum(
        getattr(series.structure, "uncovered_counts", ()))
    if decomp is None:
        return
    run.counts["decompose.stages"] = decomp.n_max
    run.counts["decompose.pieces"] = len(decomp.L)
    run.counts["decompose.distinct_pieces"] = len(
        {_mask_key(m) for m in decomp.L.values()})
    run.counts["decompose.distinct_E"] = len(
        {_mask_key(m) for m in decomp.E_list})
    run.counts["serialize.export_bytes"] = workloads.tree_bytes(
        run.out / "decomposition")


def _record_classification(run: _Run, series, cmap, N: int,
                           out: Path) -> None:
    """Computed counts of a classification, taken outside its spans."""
    lo, hi = tail_window(N)
    terms = _root_terms_per_order(series)
    run.counts["series.cells"] = cmap.verdicts.size
    run.counts["series.tail_orders"] = hi - lo + 1
    run.counts["series.root_log_evals"] = (cmap.verdicts.size
                                           * sum(terms[lo - 1:hi]))
    run.counts["pgmio.map_bytes"] = ((out / "map.pgm").stat().st_size
                                     + (out / "map.json").stat().st_size)


def _sigma(run: _Run, scene):
    """``harness.construct_sigma`` split into its layers."""
    t = run.tracer
    with t.span("shapes.rasterize"):
        K_list = [shapes.rasterize_scene(part, scene.grid, kind=COMPACT)
                  for part in scene.parts]
        for p in scene.points:
            K_list.append(shapes.rasterize_scene(
                shapes.Points((p,)), scene.grid, kind=COMPACT))
    b = scene.budgets.resolve(scene.grid)
    n_max = b.n_max if b.n_max is not None else 2 * len(K_list)
    with t.span("decompose.ascending"):
        decomp = decompose.ascending_decomposition(K_list, n_max)
    with t.span("shapes.rasterize"):
        omega = scene.domain_mask()
    with t.span("construct.family"):
        series = construct.sigma_convex_series(decomp, omega, b.degree_cap)
    with t.span("serialize.export"):
        serialize.export_decomposition(decomp, run.out / "decomposition")
    return series, decomp


def _construct(run: _Run, argv: list[str]) -> int:
    """``cli.cmd_construct`` for the countable and sigma pipelines."""
    t = run.tracer
    with t.span(ROOT):
        args, scene = _parse(run, argv)
        out = cli._outdir(args)
        decomp = None
        if args.pipeline == "countable":
            with t.span("construct.countable"):
                series = harness.construct_countable(scene)
        else:
            series, decomp = _sigma(run, scene)
        with t.span("serialize.save_series"):
            serialize.save_series(series, out / "series.json")
        cli._manifest(args, out, {"command": "construct",
                                  "pipeline": args.pipeline,
                                  "scene": scene.name})
    _record_construction(run, series, decomp)
    return 0


def _decompose(run: _Run, argv: list[str]) -> int:
    """``cli.cmd_decompose``."""
    t = run.tracer
    with t.span(ROOT):
        args, scene = _parse(run, argv)
        out = cli._outdir(args)
        series, decomp = _sigma(run, scene)
        with t.span("serialize.save_series"):
            serialize.save_series(series, out / "series.json")
        serialize.save_report(
            {"scene": scene.name, "n_max": decomp.n_max,
             "pieces": len(decomp.K_list),
             "hull_identity": decomp.hull_identity,
             "stage_cells": [E.count() for E in decomp.E_list]},
            out / "report.json")
        cli._manifest(args, out, {"command": "decompose",
                                  "scene": scene.name})
    _record_construction(run, series, decomp)
    return 0


def _verify(run: _Run, argv: list[str]):
    """``cli.cmd_verify`` with ``harness.verify`` split into its layers."""
    t = run.tracer
    with t.span(ROOT):
        args, scene = _parse(run, argv)
        out = cli._outdir(args)
        with t.span("serialize.load_series"):
            series = serialize.load_series(args.series)
        b = scene.budgets.resolve(scene.grid)
        t0 = time.perf_counter()
        with t.span("series.conv_map"):
            cmap = conv_map(series, scene.grid, b.N, b.B, b.M)
        t1 = time.perf_counter()
        with t.span("shapes.rasterize"):
            target = scene.target_mask()
            domain = scene.domain_mask()
        with t.span("harness.compare"):
            agree = harness.map_vs_mask_agreement(cmap, target, b.band,
                                                  domain, args.exhaust_m)
        timings = {"classify": t1 - t0, "compare": time.perf_counter() - t1}
        with t.span("pgmio.save_map"):
            serialize.save_map(cmap, out / "map.pgm", out / "map.json")
        report = VerificationReport(scene.name, agree, b.band, timings,
                                    b.to_json())
        serialize.save_report(report.to_json(), out / "report.json")
        cli._manifest(args, out, {"command": "verify", "scene": scene.name,
                                  "series": str(args.series)})
        ok = (agree["converge_on_target"] >= args.min_agree
              and agree["diverge_off_target"] >= args.min_agree)
    _record_classification(run, series, cmap, b.N, out)
    return (0 if ok else 2), cmap


COUNTS = ["geometry.polynomial_hull_calls", "geometry.distance_to_calls",
          "construct.leja_calls", "decompose.stages", "decompose.pieces",
          "decompose.distinct_pieces", "decompose.distinct_E",
          "construct.members", "construct.root_terms",
          "construct.uncovered_cells", "series.cells", "series.tail_orders",
          "series.root_log_evals", "serialize.export_bytes",
          "pgmio.map_bytes"]


def traced_pass(wl: workloads.Workload, scene_path: Path, out: Path,
                tracer: Tracer) -> tuple[dict, dict]:
    """One traced pass of the workload's commands into a fresh ``out``.

    Returns the checked outcome and the computed counts; a layer that does
    not run counts 0.
    """
    if out.exists():
        shutil.rmtree(out)
    run = _Run(tracer, out)
    series_path = out / "series.json"
    scene = str(scene_path)
    with tracer.wrappers():
        if wl.pipeline is None:
            rc = _decompose(run, ["decompose", scene, "--out", str(out)])
            outcome = workloads.outcome_of(wl, out, [rc], None)
        else:
            rc_c = _construct(run, ["construct", scene, "--pipeline",
                                    wl.pipeline, "--out", str(out)])
            argv = ["verify", scene, str(series_path), "--out", str(out)]
            argv += wl.verify_args(series_path)
            rc_v, cmap = _verify(run, argv)
            outcome = workloads.outcome_of(wl, out, [rc_c, rc_v],
                                           cmap.exponents)
    counts = {name: 0 for name in COUNTS}
    counts.update(run.counts)
    counts["geometry.polynomial_hull_calls"] = tracer.calls[
        "geometry.polynomial_hull"]
    counts["geometry.distance_to_calls"] = tracer.calls["geometry.distance_to"]
    counts["construct.leja_calls"] = tracer.calls["construct.leja"]
    tracer.calls.clear()
    return outcome, counts


# the cli and harness functions the copies above follow, and the copies;
# drift() checks that both call the same sigmaconv functions
_ORIGINALS = (cli.main, cli.cmd_construct, cli.cmd_verify, cli.cmd_decompose,
              harness.construct_sigma, harness.verify)
_COPIES = (_parse, _sigma, _construct, _decompose, _verify)
_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def _sigmaconv_callees(callers, fn) -> set[str]:
    """The sigmaconv functions, other than the originals, that ``callers``
    call directly (or from a comprehension) while ``fn()`` runs."""
    codes = {f.__code__ for f in callers}
    skip = {f.__code__ for f in _ORIGINALS}
    src = str(Path(cli.__file__).parent) + "/"
    called: set[str] = set()

    def on_call(frame, event, arg):  # a new Python frame; no line tracing
        code = frame.f_code
        if (not code.co_filename.startswith(src) or code in skip
                or code.co_name in _COMPREHENSIONS):
            return None
        caller = frame.f_back
        while caller is not None and caller.f_code.co_name in _COMPREHENSIONS:
            caller = caller.f_back
        if caller is not None and caller.f_code in codes:
            called.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")
        return None

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return called


def drift(wl: workloads.Workload, scene_path: Path, out: Path) -> str:
    """How the sigmaconv functions a traced pass calls on ``scene_path``
    differ from those ``cli.main`` calls; empty when they are the same, so
    that the traced layers are the ones the CLI runs."""
    original = _sigmaconv_callees(
        _ORIGINALS, lambda: workloads.cli_pass(wl, scene_path, out))
    copy = _sigmaconv_callees(
        _COPIES, lambda: traced_pass(wl, scene_path, out, Tracer()))
    if original == copy:
        return ""
    return (f"the traced copy misses {sorted(original - copy)} and adds "
            f"{sorted(copy - original)}")
