"""Command-line frontend: run scenarios, sweep parameters, verify the build.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O error.
Inside ``run`` and ``sweep`` the helpers raise plain exceptions whose message
starts with what failed (a path, a sweep point), and ``main`` alone maps them
to a code: an ``OSError`` is 3 and a ``ValueError`` is 2, which includes a
scenario file that is not UTF-8.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, acceptance
from .operators import require
from .protocol import ProtocolReport, reduce_run, report_rows
from .scenarios import ScenarioConfig, build_scenario, parse_document

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

SWEEP_PARAMS = ("alpha", "beta", "omega", "c", "gamma")
# the atoms of one stacked ``estimate`` call, 256 KB per float64 array of the
# stack; a pending point's own objects, about 1 KB, count as POINT_ATOMS more
STACK_ATOMS, POINT_ATOMS = 2**15, 128


def _labelled(label: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``; an OSError or ValueError it raises gets ``label`` in front."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        raise OSError(f"{label}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def _parse_sweep(spec: str) -> tuple:
    try:
        param, rng = spec.split("=", 1)
        start_s, stop_s, count_s = rng.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ValueError(
            f"sweep spec must look like param=start:stop:count, got {spec!r}"
        ) from None
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")
    try:
        require(count=count)
    except ValueError as exc:
        raise ValueError(f"sweep {exc}") from None
    return (param, start, stop, count)


def _load_document(path: str, steps: int | None) -> ScenarioConfig:
    """Read a scenario file, apply the ``--steps`` override and validate it."""
    text = _labelled(f"cannot read scenario file {path}", Path(path).read_text, encoding="utf-8")
    document = _labelled(path, parse_document, text)
    if steps is not None and isinstance(document, dict) and document.get("pipeline") == "appendix":
        document = dict(document, steps=steps)
    return _labelled(path, ScenarioConfig.from_dict, document)


def _run_points(args, points: list, table: str | None = None) -> int:
    """Run validated ``(label, config)`` points, then write and print their reports.

    Every point runs before any report is written, so a failure leaves no
    report. ``table`` names the one file that holds every report (a sweep);
    without it each report gets a file named after its scenario_id.
    Each point is reduced once built, so no profile or run is kept, and joins
    a stack that runs as one ``estimate`` call before a point of another
    dimension or transition form or past ``STACK_ATOMS``, before a later
    point's error, and at the end. A stack that raises runs its points alone.
    """
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory not writable: {exc}") from None
    # points that share the system section share one decomposition
    memo: dict = {}
    reports, stack = [], []

    def flush():
        try:
            reports.extend(report_rows([run for _, run, _ in stack]) if stack else ())
        except ValueError:  # alone, in order, the first failing point names itself
            for label, run, _ in stack:
                reports.extend(_labelled(label, report_rows, [run]))
        stack.clear()

    for label, config in points:
        try:
            run = _labelled(label, lambda: reduce_run(build_scenario(config, memo)))
        except (OSError, ValueError):
            flush()  # an earlier point's error comes first
            raise
        form = run.final.size, run.transitions is None
        atoms = POINT_ATOMS + (run.final.size if run.transitions is None else run.transitions.size)
        if stack and (form != stack[-1][2] or (len(stack) + 1) * atoms > STACK_ATOMS):
            flush()
        stack.append((label, run, form))
    flush()
    files = [(table, reports)] if table else [(r.scenario_id, [r]) for r in reports]
    for stem, group in files:
        if args.format == "csv":
            text = "\n".join([ProtocolReport.csv_header()] + [r.to_csv_row() for r in group])
        else:
            payload = [r.to_dict() for r in group]
            text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
        path = out_dir / f"{stem}.{args.format}"
        _labelled(f"cannot write {path}", path.write_text, text + "\n", encoding="utf-8")
    for report in [] if args.quiet else reports:
        print(
            f"{report.scenario_id}: residual={report.residual:.3e} "
            f"entropy_production={report.entropy_production:.6g}"
        )
    return EXIT_OK


def cmd_run(args) -> int:
    if not args.scenario:
        raise ValueError("run needs at least one --scenario file")
    # every file is validated before anything runs; reports are named after
    # scenario_id, so two files with one id would overwrite
    points, paths_by_id = [], {}
    for path in args.scenario:
        config = _load_document(path, args.steps)
        if config.scenario_id in paths_by_id:
            raise ValueError(
                f"{paths_by_id[config.scenario_id]} and {path} both have scenario_id "
                f"{config.scenario_id!r}"
            )
        paths_by_id[config.scenario_id] = path
        points.append((path, config))
    return _run_points(args, points)


def _sweep_config(base: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """``base`` with the swept parameter set to ``value``, checked as the edited file would be.

    Each parameter edits one config field: ``beta`` and ``c`` themselves,
    ``omega`` the system, ``gamma`` the channel and ``alpha`` the worldline.
    """
    if param in ("beta", "c"):
        name, edited = param, value
    elif param == "omega":
        name, edited = "system", dict(base.system or {}, omega=value)
    elif param == "gamma":
        channel = base.channel or {}
        key = "lambda" if channel.get("preset") == "depolarizing" else "gamma"
        name, edited = "channel", dict(channel, **{key: value})
    else:
        # realize the requested final clock rate alpha with a potential ramp
        # read by a heavy particle: phi_end = (alpha - 1) c^2
        t_end, samples = 1.0, 101
        if base.worldline and "t_end" in base.worldline:
            t_end = base.worldline["t_end"]
            samples = base.worldline.get("samples", samples)
        name, edited = "worldline", {
            "preset": "uniform_gravity",
            "g": (value - 1.0) * base.c**2 / t_end,
            "t_end": t_end,
            "samples": samples,
            "gravitational_only": True,
        }
    return base.edited(name, edited, f"{base.scenario_id}@{param}={value:.9g}")


def cmd_sweep(args) -> int:
    param, start, stop, count = _parse_sweep(args.sweep)
    if len(args.scenario or ()) != 1:
        raise ValueError("sweep needs exactly one --scenario file")
    # the file is validated once; each point checks only the field it edits
    base = _load_document(args.scenario[0], args.steps)
    values = sorted(start + (stop - start) * k / (count - 1) for k in range(count))
    points = []
    for value in values:
        label = f"{param}={value}"
        config = _labelled(label, _sweep_config, base, param, value)
        # a row's scenario_id shows its value to 9 digits, so points may share
        # one; the values are sorted, so such points are neighbours
        if points and points[-1][1].scenario_id == config.scenario_id:
            first, sid = points[-1][0], config.scenario_id
            raise ValueError(f"sweep points {first} and {label} both have scenario_id {sid!r}")
        points.append((label, config))
    return _run_points(args, points, f"sweep_{param}")


def cmd_verify(quiet: bool = False) -> int:
    results = acceptance.run_all()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not quiet or not res.passed:
            print(f"[{status}] {res.name} ({res.seconds:.2f}s): {res.detail}")
        failed += 0 if res.passed else 1
    total = len(results)
    print(f"{total - failed}/{total} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauwork",
        description="Work statistics for quantum systems on worldlines with time dilation",
    )
    parser.add_argument("--version", action="version", version=f"tauwork {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", action="append", help="scenario JSON file (repeatable)")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--steps", type=int, default=None, help="driven-run steps, reported only")
        p.add_argument("--quiet", action="store_true")

    run_p = sub.add_parser("run", help="execute scenario files and write reports")
    common(run_p)
    sweep_p = sub.add_parser("sweep", help="vary one parameter over a linear grid")
    common(sweep_p)
    sweep_p.add_argument("--sweep", required=True, metavar="PARAM=START:STOP:COUNT")
    verify_p = sub.add_parser("verify", help="run the acceptance criteria battery")
    verify_p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(quiet=args.quiet)
    try:
        # checked once, before any file is read: a pipeline without steps ignores a valid one
        if args.steps is not None:
            try:
                require(steps=args.steps)
            except ValueError as exc:
                raise ValueError(f"--steps: {str(exc).removeprefix('steps ')}") from None
        return cmd_run(args) if args.command == "run" else cmd_sweep(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
