"""Command-line frontend: run scenarios, sweep parameters, verify the build.

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, acceptance
from .protocol import ProtocolReport
from .scenarios import ScenarioConfig, ScenarioValidationError, parse_document, run_scenario

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

SWEEP_PARAMS = ("alpha", "beta", "omega", "c", "gamma")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_sweep(spec: str) -> tuple:
    try:
        param, rng = spec.split("=", 1)
        start_s, stop_s, count_s = rng.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise CliError(
            f"sweep spec must look like param=start:stop:count, got {spec!r}",
            EXIT_VALIDATION,
        ) from None
    if param not in SWEEP_PARAMS:
        raise CliError(
            f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}",
            EXIT_VALIDATION,
        )
    if count < 2:
        raise CliError(f"sweep count must be >= 2, got {count}", EXIT_VALIDATION)
    return (param, start, stop, count)


def _validate(document, label: str) -> ScenarioConfig:
    try:
        return ScenarioConfig.from_dict(document)
    except ScenarioValidationError as exc:
        raise CliError(f"{label}: {exc}", EXIT_VALIDATION) from None


def _load_document(path: str, steps: int | None) -> tuple[dict, ScenarioConfig]:
    """Read a scenario file, apply the ``--steps`` override and validate it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read scenario file {path}: {exc}", EXIT_IO) from None
    try:
        document = parse_document(text)
    except ScenarioValidationError as exc:
        raise CliError(f"{path}: {exc}", EXIT_VALIDATION) from None
    if steps is not None and isinstance(document, dict) and document.get("pipeline") == "appendix":
        document = dict(document, steps=steps)
    return document, _validate(document, path)


def _prepare_out_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise CliError(f"output directory not writable: {exc}", EXIT_IO) from None


def _write_report_file(path: Path, reports: list[ProtocolReport], fmt: str) -> None:
    try:
        if fmt == "csv":
            lines = [ProtocolReport.csv_header()]
            lines += [r.to_csv_row() for r in reports]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            payload = [r.to_dict() for r in reports]
            body = payload[0] if len(payload) == 1 else payload
            path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from None


def _print_summaries(reports: list[ProtocolReport], quiet: bool) -> None:
    for report in [] if quiet else reports:
        print(
            f"{report.scenario_id}: residual={report.residual:.3e} "
            f"entropy_production={report.entropy_production:.6g}"
        )


def _execute(config: ScenarioConfig, label: str, memo: dict):
    try:
        return run_scenario(config, memo)
    except OSError as exc:
        raise CliError(f"{label}: {exc}", EXIT_IO) from None
    except ValueError as exc:
        raise CliError(f"{label}: {exc}", EXIT_VALIDATION) from None


def cmd_run(args) -> int:
    if not args.scenario:
        raise CliError("run needs at least one --scenario file", EXIT_VALIDATION)
    # every file is validated before anything runs and every scenario runs
    # before any report is written, so a failure leaves no report; reports are
    # named after scenario_id, so two files with one id would overwrite
    configs, paths_by_id = [], {}
    for path in args.scenario:
        _, config = _load_document(path, args.steps)
        if config.scenario_id in paths_by_id:
            raise CliError(
                f"{paths_by_id[config.scenario_id]} and {path} both have scenario_id "
                f"{config.scenario_id!r}",
                EXIT_VALIDATION,
            )
        paths_by_id[config.scenario_id] = path
        configs.append((path, config))
    out_dir = Path(args.out)
    _prepare_out_dir(out_dir)
    memo: dict = {}
    reports = [_execute(config, path, memo) for path, config in configs]
    for report in reports:
        _write_report_file(out_dir / f"{report.scenario_id}.{args.format}", [report], args.format)
    _print_summaries(reports, args.quiet)
    return EXIT_OK


def _sweep_point(document: dict, base: ScenarioConfig, param: str, value: float) -> dict:
    """The scenario document with the swept parameter set to ``value``."""
    point = dict(document, scenario_id=f"{base.scenario_id}@{param}={value:.9g}")
    if param in ("beta", "c"):
        point[param] = value
    elif param == "omega":
        point["system"] = dict(document.get("system") or {}, omega=value)
    elif param == "gamma":
        channel = document.get("channel") or {}
        key = "lambda" if channel.get("preset") == "depolarizing" else "gamma"
        point["channel"] = dict(channel, **{key: value})
    else:
        # realize the requested final clock rate alpha with a potential ramp
        # read by a heavy particle: phi_end = (alpha - 1) c^2
        t_end, samples = 1.0, 101
        if base.worldline and "t_end" in base.worldline:
            t_end = base.worldline["t_end"]
            samples = base.worldline.get("samples", samples)
        point["worldline"] = {
            "preset": "uniform_gravity",
            "g": (value - 1.0) * base.c**2 / t_end,
            "t_end": t_end,
            "samples": samples,
            "gravitational_only": True,
        }
    return point


def cmd_sweep(args) -> int:
    param, start, stop, count = _parse_sweep(args.sweep)
    if len(args.scenario or ()) != 1:
        raise CliError("sweep needs exactly one --scenario file", EXIT_VALIDATION)
    document, base = _load_document(args.scenario[0], args.steps)
    values = sorted(start + (stop - start) * k / (count - 1) for k in range(count))
    points = []
    for value in values:
        label = f"{param}={value}"
        points.append((label, _validate(_sweep_point(document, base, param, value), label)))
    out_dir = Path(args.out)
    _prepare_out_dir(out_dir)
    # points that share the system section share one decomposition
    memo: dict = {}
    reports = [_execute(config, label, memo) for label, config in points]
    _write_report_file(out_dir / f"sweep_{param}.{args.format}", reports, args.format)
    _print_summaries(reports, args.quiet)
    return EXIT_OK


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
        p.add_argument("--steps", type=int, default=None, help="override driven-pipeline steps")
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
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(quiet=args.quiet)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
