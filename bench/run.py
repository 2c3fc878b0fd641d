"""tauwork benchmark: one closed-loop caller, each workload in fresh processes.

Run from the repository root:

    python3 bench/run.py --workload flat-kraus --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seconds 45     # every workload
    python3 bench/run.py --workload verify --trace 1     # per-layer metrics
    python3 bench/run.py --smoke                         # tiny sizes + own tests

Every op's output is checked against an oracle. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, and the machine facts. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("flat-kraus", "driven-steps", "cli-sweep", "verify")
# The end-to-end metrics in the JSON result. op_p50_ms, op_p90_ms and
# failed_fraction are printed above it but not gated; see README.md.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 2  # set-up-only processes before, and again after, the timed one
P90_MIN_OPS = 100  # op_p90_ms needs at least ten samples beyond it
DEADLINE_S = 170.0  # one workload, every process included
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SMOKE_SECONDS = 0.2


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    """One BLAS thread, and tauwork imported from this checkout's source."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(BLAS_ENV, "1"))
    return env


def launch(workload: str, mode: str, seed: int, seconds: float, deadline: float,
           smoke: bool = False, spans: str | None = None) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
    ]
    cmd += ["--smoke"] if smoke else []
    cmd += ["--spans", spans] if spans else []
    timeout = deadline - _now()
    if timeout <= 1.0:
        raise BenchError(f"{workload}: out of time before the {mode} process")
    launched = _now()
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} process killed after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload}: {mode} process exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float,
               smoke: bool = False) -> dict:
    """Run the timed process between set-up-only ones, so that the set-up
    samples straddle the timed phase."""
    repeats = 1 if smoke else SETUP_REPEATS
    before = [launch(workload, "setup", seed, seconds, deadline, smoke) for _ in range(repeats)]
    timed = launch(workload, "timed", seed, seconds, deadline, smoke)
    after = [launch(workload, "setup", seed, seconds, deadline, smoke) for _ in range(repeats)]
    setups = before + [timed] + after
    op_s = timed["op_s"]
    op_ms = [s * 1e3 for s in op_s]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "ops_per_s": (timed["attempted"] - timed["failed"]) / sum(op_s),
        "peak_rss_mb": timed["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{len(op_s)} ops in {timed['passes']} passes of {timed['slots']}",
    }
    extra = [("op_p50_ms", statistics.median(op_ms), "ms", f"{len(op_ms)} samples")]
    if len(op_ms) >= P90_MIN_OPS:
        p90 = statistics.quantiles(op_ms, n=10)[8]
        extra.append(("op_p90_ms", p90, "ms", f"{len(op_ms)} samples"))
    extra.append(("failed_fraction", timed["failed"] / timed["attempted"], "",
                  f"{timed['failed']}/{timed['attempted']} ops"))
    ok = timed["checks_ok"] and all(r["warmup_ok"] for r in setups)
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "notes": notes,
        "extra": extra,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "correct": ok and timed["failed"] == 0,
        "problems": sum((r["problems"] for r in setups), []),
        "facts": timed["facts"],
    }


def per_layer(workload: str, seed: int, seconds: float, deadline: float,
              smoke: bool = False, spans: str | None = None) -> dict:
    traced = launch(workload, "traced", seed, seconds, deadline, smoke, spans)
    metrics = traced["metrics"]
    return {
        "metrics": metrics,
        "units": {name: layer_unit(name) for name in metrics},
        "notes": {"trace.overhead_ratio": f"{traced['passes']} untraced/traced pass pairs"},
        "extra": [],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "correct": traced["checks_ok"] and traced["warmup_ok"] and traced["failed"] == 0,
        "problems": traced["problems"],
        "facts": traced["facts"],
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def machine_facts(worker_facts: dict, seed: int) -> dict:
    return {
        **worker_facts,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(),
    }


def print_block(workload: str, result: dict, args) -> None:
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(machine_facts(result["facts"], args.seed), sort_keys=True))
    rows = [(n, v, result["units"][n], result["notes"].get(n, "")) for n, v in result["metrics"].items()]
    for name, value, unit, note in rows + result["extra"]:
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")
    for problem in result["problems"]:
        print(f"  oracle/check failure: {problem}")


def measure(workload: str, args, deadline: float, smoke: bool = False) -> dict:
    if args.trace:
        return per_layer(workload, args.seed, args.seconds, deadline, smoke, args.spans)
    return end_to_end(workload, args.seed, args.seconds, deadline, smoke)


def run_smoke(args) -> int:
    """Every workload, oracle and trace path at tiny sizes, then the tests."""
    args.seconds = SMOKE_SECONDS
    ok = True
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.trace = trace
            result = measure(workload, args, _now() + DEADLINE_S, smoke=True)
            print_block(workload, result, args)
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    tests = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", str(BENCH), "-t", str(BENCH)],
        cwd=ROOT, env=child_env(), timeout=DEADLINE_S,
    )
    print(f"benchmark tests: {'passed' if tests.returncode == 0 else 'FAILED'}")
    ok = ok and tests.returncode == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tauwork benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1: write the last traced pass's spans as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for every workload, then the benchmark's tests")
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills the running worker before exiting
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tauwork" / "__init__.py").is_file():
        print(f"error: no tauwork source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    if args.spans:
        args.spans = str(Path(args.spans).resolve())
    try:
        if args.smoke:
            return run_smoke(args)
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in names:
            result = measure(workload, args, _now() + DEADLINE_S)
            print_block(workload, result, args)
            prefix = f"{workload}." if len(names) > 1 else ""
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({
                prefix + n: {"value": v, "unit": result["units"][n]}
                for n, v in result["metrics"].items()
            })
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
