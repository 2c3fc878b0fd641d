"""Command-line frontend: run scenarios, sweep parameters, verify the build.

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, acceptance
from .protocol import ProtocolReport
from .scenarios import ScenarioConfig, ScenarioValidationError, run_scenario

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

SWEEP_PARAMS = ("alpha", "beta", "omega", "c", "gamma")


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """What one invocation is about to do; assembled from the parsed flags."""

    scenario_paths: tuple
    out_dir: Path
    fmt: str
    sweep: tuple | None  # (param, start, stop, count)
    steps: int | None
    quiet: bool

    @classmethod
    def from_args(cls, args) -> "RunManifest":
        sweep = None
        if getattr(args, "sweep", None):
            sweep = _parse_sweep(args.sweep)
        return cls(
            scenario_paths=tuple(args.scenario or ()),
            out_dir=Path(args.out),
            fmt=args.format,
            sweep=sweep,
            steps=getattr(args, "steps", None),
            quiet=args.quiet,
        )


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


def _load_config(path: str, manifest: RunManifest) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read scenario file {path}: {exc}", EXIT_IO) from None
    try:
        config = ScenarioConfig.from_json(text)
    except ScenarioValidationError as exc:
        raise CliError(f"{path}: {exc}", EXIT_VALIDATION) from None
    if manifest.steps is not None and config.pipeline == "appendix":
        config = dataclasses.replace(config, steps=manifest.steps)
    return config


def _prepare_out_dir(manifest: RunManifest) -> None:
    try:
        manifest.out_dir.mkdir(parents=True, exist_ok=True)
        probe = manifest.out_dir / ".write-probe"
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


def _summary_line(report: ProtocolReport) -> str:
    return (
        f"{report.scenario_id}: residual={report.residual:.3e} "
        f"entropy_production={report.entropy_production:.6g}"
    )


def _execute(config: ScenarioConfig, label: str):
    try:
        return run_scenario(config)
    except ScenarioValidationError as exc:
        raise CliError(f"{label}: {exc}", EXIT_VALIDATION) from None
    except OSError as exc:
        raise CliError(f"{label}: {exc}", EXIT_IO) from None
    except ValueError as exc:
        raise CliError(f"{label}: {exc}", EXIT_VALIDATION) from None


def cmd_run(manifest: RunManifest) -> int:
    if not manifest.scenario_paths:
        raise CliError("run needs at least one --scenario file", EXIT_VALIDATION)
    _prepare_out_dir(manifest)
    for path in manifest.scenario_paths:
        config = _load_config(path, manifest)
        report = _execute(config, path)
        ext = "csv" if manifest.fmt == "csv" else "json"
        _write_report_file(
            manifest.out_dir / f"{config.scenario_id}.{ext}", [report], manifest.fmt
        )
        if not manifest.quiet:
            print(_summary_line(report))
    return EXIT_OK


def _sweep_configs(config: ScenarioConfig, sweep: tuple) -> list[tuple[float, ScenarioConfig]]:
    param, start, stop, count = sweep
    values = [start + (stop - start) * k / (count - 1) for k in range(count)]
    values.sort()
    return [(v, _apply_sweep_value(config, param, v)) for v in values]


def _apply_sweep_value(config: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    if param == "beta":
        if value <= 0:
            raise CliError(f"swept beta must stay positive, got {value}", EXIT_VALIDATION)
        return dataclasses.replace(config, beta=value)
    if param == "c":
        if config.pipeline == "flat":
            raise CliError("sweeping c needs a worldline pipeline", EXIT_VALIDATION)
        if value <= 0:
            raise CliError(f"swept c must stay positive, got {value}", EXIT_VALIDATION)
        return dataclasses.replace(config, c=value)
    if param == "omega":
        if not (config.system and config.system.get("kind") == "harmonic"):
            raise CliError("sweeping omega needs a harmonic system", EXIT_VALIDATION)
        system = dict(config.system, omega=value)
        return dataclasses.replace(config, system=system)
    if param == "gamma":
        if not config.channel or config.channel.get("preset") not in (
            "amplitude_damping",
            "depolarizing",
        ):
            raise CliError(
                "sweeping gamma needs an amplitude_damping or depolarizing channel",
                EXIT_VALIDATION,
            )
        key = "gamma" if config.channel["preset"] == "amplitude_damping" else "lambda"
        channel = dict(config.channel)
        channel[key] = value
        return dataclasses.replace(config, channel=channel)
    if param == "alpha":
        if config.pipeline == "flat":
            raise CliError("sweeping alpha needs a worldline pipeline", EXIT_VALIDATION)
        if value <= 0:
            raise CliError(f"swept alpha must stay positive, got {value}", EXIT_VALIDATION)
        # realize the requested final clock rate with a potential ramp read by
        # a heavy particle: phi_end = (alpha - 1) c^2, so alpha_final = alpha
        t_end = 1.0
        samples = 101
        if config.worldline and "t_end" in config.worldline:
            t_end = config.worldline["t_end"]
            samples = config.worldline.get("samples", samples)
        worldline = {
            "preset": "uniform_gravity",
            "g": (value - 1.0) * config.c**2 / t_end,
            "t_end": t_end,
            "samples": samples,
            "gravitational_only": True,
        }
        return dataclasses.replace(config, worldline=worldline)
    raise CliError(f"unknown sweep parameter {param!r}", EXIT_VALIDATION)


def cmd_sweep(manifest: RunManifest) -> int:
    if len(manifest.scenario_paths) != 1:
        raise CliError("sweep needs exactly one --scenario file", EXIT_VALIDATION)
    if manifest.sweep is None:
        raise CliError("sweep needs a --sweep param=start:stop:count spec", EXIT_VALIDATION)
    _prepare_out_dir(manifest)
    base = _load_config(manifest.scenario_paths[0], manifest)
    param = manifest.sweep[0]
    reports = []
    for value, config in _sweep_configs(base, manifest.sweep):
        config = dataclasses.replace(
            config, scenario_id=f"{base.scenario_id}@{param}={value:.9g}"
        )
        report = _execute(config, f"{param}={value}")
        reports.append(report)
        if not manifest.quiet:
            print(_summary_line(report))
    ext = "csv" if manifest.fmt == "csv" else "json"
    _write_report_file(
        manifest.out_dir / f"sweep_{param}.{ext}", reports, manifest.fmt
    )
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
            return cmd_run(RunManifest.from_args(args))
        if args.command == "sweep":
            return cmd_sweep(RunManifest.from_args(args))
        return cmd_verify(quiet=args.quiet)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
