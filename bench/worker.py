"""Run one benchmark workload in this process and print one JSON line.

Started by ``run.py`` with the BLAS thread count pinned through the
environment; not meant to be run by hand. Modes:

* ``setup``  -- import, build the seeded inputs, run one warm-up op, stop.
* ``timed``  -- set up, then run whole passes over the inputs until
  ``--seconds`` have gone by, timing every op; tracing stays off.
* ``traced`` -- set up, run one untraced pass to warm every path, then
  alternate one untraced and one traced pass until ``--seconds`` have gone
  by, and reduce the spans to per-layer totals.

``setup_s`` runs from ``--launched`` (the launcher's ``CLOCK_MONOTONIC``
reading just before it started this process) to the first timed op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
MAX_LOGGED = 5  # oracle violations described in the result, per run


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def numpy_facts() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        **{
            lib: f"{deps.get(lib, {}).get('name', '?')} {deps.get(lib, {}).get('version', '?')}"
            for lib in ("blas", "lapack")
        },
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


class Run:
    """Op outcomes of the timed or traced phase."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, i: int, out, error) -> None:
        self.attempted += 1
        problem = f"raised {error!r}" if error is not None else self.wl.check(i, out)
        if problem:
            self.failed += 1
            if len(self.problems) < MAX_LOGGED:
                self.problems.append(f"{self.wl.name} slot {i}: {problem}")

    def untraced_pass(self) -> list[float]:
        times = []
        for i in range(len(self.wl)):
            out = error = None
            t0 = perf_counter()
            try:
                out = self.wl.op(i)
            except Exception as exc:  # an op failure is counted, not fatal
                error = exc
            times.append(perf_counter() - t0)
            self.record(i, out, error)
        return times


def timed_phase(wl, seconds: float) -> dict:
    run = Run(wl)
    op_s: list[float] = []
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        op_s += run.untraced_pass()
        passes += 1
    wrappers = tracer.installed_wrappers()
    return {
        "op_s": op_s,
        "passes": passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems + [f"tracer wrapper installed: {w}" for w in wrappers],
        "checks_ok": not wrappers,
    }


def traced_phase(wl, seconds: float, spans_path: str | None) -> dict:
    run = Run(wl)
    spans = tracer.Tracer()
    totals: dict[str, float] = {}
    problems: list[str] = []
    base_s = traced_s = 0.0
    passes = 0
    start = perf_counter()
    # the first pass over each input runs cold; keep it out of the overhead ratio
    run.untraced_pass()
    while passes == 0 or perf_counter() - start < seconds:
        base_s += sum(run.untraced_pass())
        spans.clear()
        patched = spans.install()
        try:
            seen = len(tracer.installed_wrappers())
            if seen != patched:
                problems.append(f"{patched} bindings wrapped but {seen} found installed")
            for i in range(len(wl)):
                out, error, dt = spans.root(wl.label(i), wl.op, i)
                traced_s += dt
                run.record(i, out, error)
                spans.counts["cli.bytes_written"] += wl.bytes_written(i)
        finally:
            spans.uninstall()
        left = tracer.installed_wrappers()
        if left:
            problems.append(f"wrappers left after uninstall: {left}")
        summary = spans.summary()
        problems += check_accounting(summary)
        _accumulate(totals, summary)
        passes += 1
    if spans_path:
        Path(spans_path).write_text(json.dumps(spans.spans()), encoding="utf-8")
    metrics = per_layer_metrics(totals, passes)
    metrics["trace.overhead_ratio"] = traced_s / base_s
    return {
        "metrics": metrics,
        "passes": passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems + problems,
        "checks_ok": not problems,
    }


def check_accounting(summary: dict) -> list[str]:
    """Self times must be nonnegative and, with the unwrapped remainder, add up
    to the traced wall time."""
    wall = summary["wall_s"]
    wrapped = sum(s for n, s in summary["self_s"].items() if n in tracer.TARGETS)
    unwrapped = summary["unwrapped_s"]
    problems = []
    if summary["min_self_s"] < -1e-9:
        problems.append(f"negative self time {summary['min_self_s']:.3e} s")
    if abs(wrapped + unwrapped - wall) > 1e-9 * max(1.0, wall) + 1e-9:
        problems.append(f"self times {wrapped + unwrapped!r} s do not add up to wall {wall!r} s")
    return problems


def _accumulate(totals: dict, summary: dict) -> None:
    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for name, n in summary["calls"].items():
        add(f"{name}.calls", n)
    for name, s in summary["self_s"].items():
        add(f"{name}.self_s", s)
    for name, n in summary["counts"].items():
        add(name, n)
    add("operators.spectral_decompose.distinct", summary["distinct"])
    add("trace.wall_s", summary["wall_s"])
    add("trace.unwrapped_s", summary["unwrapped_s"])


def per_layer_metrics(totals: dict, passes: int) -> dict:
    """Per-pass values for every per-layer metric, 0 where a layer did not run."""
    def per_pass(key):
        return totals.get(key, 0) / passes

    out = {}
    for target in tracer.TARGETS:
        out[f"{target}.calls"] = per_pass(f"{target}.calls")
        out[f"{target}.self_s"] = per_pass(f"{target}.self_s")
    for name in tracer.COUNTS:
        out[name] = per_pass(name)
    decomposed = totals.get("operators.spectral_decompose.calls", 0)
    out["operators.spectral_decompose.distinct_ratio"] = (
        totals.get("operators.spectral_decompose.distinct", 0) / decomposed if decomposed else 0.0
    )
    atoms_in = totals.get("protocol.atoms_in", 0)
    out["protocol.atoms_kept_ratio"] = (
        totals.get("protocol.atoms_kept", 0) / atoms_in if atoms_in else 0.0
    )
    for name in tracer.CRITERIA:
        out[f"acceptance.{name}.self_s"] = per_pass(f"acceptance.{name}.self_s")
    out["trace.wall_s"] = per_pass("trace.wall_s")
    out["trace.unwrapped_s"] = per_pass("trace.unwrapped_s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import tauwork

    src = (ROOT / "src").resolve()
    if src not in Path(tauwork.__file__).resolve().parents:
        print(f"error: imported tauwork from {tauwork.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        wl = workloads.make(args.workload, args.seed, args.smoke, Path(tmp), ROOT)
        warm = Run(wl)
        out = error = None
        try:
            out = wl.op(wl.warmup)
        except Exception as exc:  # reported as a failed warm-up
            error = exc
        setup_s = _now() - args.launched
        warm.record(wl.warmup, out, error)
        result = {"setup_s": setup_s, "warmup_ok": warm.failed == 0, "problems": warm.problems}
        if args.mode == "timed":
            phase = timed_phase(wl, args.seconds)
        elif args.mode == "traced":
            phase = traced_phase(wl, args.seconds, args.spans)
        else:
            phase = {}
        result.update(phase, problems=warm.problems + phase.get("problems", []))
        result["slots"] = len(wl)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["facts"] = numpy_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
