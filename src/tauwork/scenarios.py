"""Named scenarios: config files, analytic oracles and run assembly.

A scenario file is one JSON document. Validation is aggregated: every
violated constraint is collected with its field path before anything is
built, so a malformed file reports all its problems at once.

The harmonic oscillator doubles as the analytic benchmark. With level
spacing ``omega`` and final clock rate ``alpha`` the free-energy change and
mean work have closed forms (in units of the temperature):

    beta * dF = ln[ sinh(alpha * beta omega / 2) / sinh(beta omega / 2) ]
    beta * <W> = (alpha - 1) * (beta omega / 2) * coth(beta omega / 2)

The numerical pipeline works with a truncated level ladder; the truncation
helper picks enough levels for the discarded tail to be negligible at the
smallest effective inverse temperature in play.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    PropagatorSchedule,
    QuantumChannel,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from .operators import HermitianOperator, matrix_from_pairs, random_hermitian
from .protocol import AppendixRun, DilatedRun, FlatRun, ProtocolReport, run_protocol
from .spacetime import (
    StaticSpacetime,
    Worldline,
    comoving_worldline,
    cruise_worldline,
    dilation_profile,
    point_mass_worldline,
    uniform_gravity_worldline,
)

PIPELINES = ("flat", "dilated", "appendix")
DEFAULT_STEPS = 1000
DEFAULT_SAMPLES = 1001
TAIL_WEIGHT = 1e-12


class ScenarioValidationError(ValueError):
    """Raised with the full list of config violations."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {e}" for e in self.errors))


def oscillator_delta_F_analytic(beta_omega: float, alpha: float) -> float:
    """Closed-form beta * dF for the oscillator ladder under clock rate alpha."""
    if beta_omega <= 0:
        raise ValueError(f"beta_omega must be positive, got {beta_omega!r}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if alpha == 1.0:
        return 0.0
    return float(np.log(np.sinh(alpha * beta_omega / 2.0) / np.sinh(beta_omega / 2.0)))


def oscillator_mean_work_analytic(beta_omega: float, alpha: float) -> float:
    """Closed-form beta * <W> for the oscillator ladder under clock rate alpha."""
    if beta_omega <= 0:
        raise ValueError(f"beta_omega must be positive, got {beta_omega!r}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if alpha == 1.0:
        return 0.0
    return float((alpha - 1.0) * (beta_omega / 2.0) / np.tanh(beta_omega / 2.0))


def levels_for_tail(beta_omega: float, alpha_min: float = 1.0, tail: float = TAIL_WEIGHT) -> int:
    """Smallest ladder size whose discarded Boltzmann tail stays below ``tail``.

    The rescaled ladder at clock rate ``alpha_min`` has effective spacing
    ``alpha_min * beta_omega``; the tail bound must hold there too when
    alpha_min < 1.
    """
    eff = beta_omega * min(1.0, alpha_min)
    if eff <= 0:
        raise ValueError("effective beta*omega must be positive")
    return max(2, math.ceil(-math.log(tail) / eff) + 1)


def truncation_tail_weight(beta_omega: float, levels: int, alpha: float = 1.0) -> float:
    """Boltzmann weight of the first discarded level, relative to the ground level."""
    return float(np.exp(-min(1.0, alpha) * beta_omega * levels))


def harmonic_hamiltonian(omega: float, levels: int) -> HermitianOperator:
    """Truncated oscillator ladder: E_n = (n + 1/2) omega for n = 0..levels-1."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels!r}")
    return HermitianOperator.diagonal((np.arange(levels) + 0.5) * omega)


def two_level_hamiltonian(gap: float) -> HermitianOperator:
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap!r}")
    return HermitianOperator.diagonal([0.0, gap])


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters; see ``from_dict`` for the file schema."""

    scenario_id: str
    pipeline: str
    beta: float
    system: dict | None = None
    worldline: dict | None = None
    mass: float = 1.0
    c: float = 1.0
    channel: dict | None = None
    schedule: list | None = None
    steps: int = DEFAULT_STEPS
    final_basis: str = "evolved"

    KNOWN_FIELDS = (
        "scenario_id",
        "pipeline",
        "beta",
        "system",
        "worldline",
        "mass",
        "c",
        "channel",
        "schedule",
        "steps",
        "final_basis",
    )

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        errors: list[str] = []
        if not isinstance(raw, dict):
            raise ScenarioValidationError(["document: must be a JSON object"])
        for key in raw:
            if key not in cls.KNOWN_FIELDS:
                errors.append(f"{key}: unknown field")

        scenario_id = raw.get("scenario_id")
        if not isinstance(scenario_id, str) or not scenario_id:
            errors.append("scenario_id: required non-empty string")
            scenario_id = "?"
        pipeline = raw.get("pipeline")
        if pipeline not in PIPELINES:
            errors.append(f"pipeline: must be one of {PIPELINES}, got {pipeline!r}")
            raise ScenarioValidationError(errors)

        beta = _check_number(raw, "beta", errors, required=True, positive=True)
        mass = _check_number(raw, "mass", errors, default=1.0, positive=True)
        c = _check_number(raw, "c", errors, default=1.0, positive=True)
        steps = _check_int(raw, "steps", errors, default=DEFAULT_STEPS, minimum=1)
        final_basis = raw.get("final_basis", "evolved")
        if final_basis not in ("evolved", "instantaneous"):
            errors.append(
                f"final_basis: must be 'evolved' or 'instantaneous', got {final_basis!r}"
            )

        required = {
            "flat": ("system", "channel"),
            "dilated": ("system", "worldline"),
            "appendix": ("schedule", "worldline"),
        }[pipeline]
        forbidden = {
            "flat": ("worldline", "schedule", "steps", "final_basis", "mass", "c"),
            "dilated": ("channel", "schedule", "steps", "final_basis"),
            "appendix": ("system", "channel"),
        }[pipeline]
        for name in required:
            if name not in raw:
                errors.append(f"{name}: required for the {pipeline} pipeline")
        for name in forbidden:
            if name in raw:
                errors.append(f"{name}: not used by the {pipeline} pipeline")

        system = raw.get("system")
        if system is not None:
            _validate_system(system, errors)
        worldline = raw.get("worldline")
        if worldline is not None:
            _validate_worldline(worldline, errors)
        channel = raw.get("channel")
        if channel is not None:
            _validate_channel(channel, errors)
        schedule = raw.get("schedule")
        if schedule is not None:
            _validate_schedule(schedule, errors)

        if errors:
            raise ScenarioValidationError(errors)
        return cls(
            scenario_id=scenario_id,
            pipeline=pipeline,
            beta=beta,
            system=system,
            worldline=worldline,
            mass=mass,
            c=c,
            channel=channel,
            schedule=schedule,
            steps=steps,
            final_basis=final_basis,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioValidationError([f"document: malformed JSON ({exc})"]) from None
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _check_number(raw, name, errors, *, required=False, default=None, positive=False):
    if name not in raw:
        if required:
            errors.append(f"{name}: required")
            return 1.0
        return default
    value = raw[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        errors.append(f"{name}: must be a finite number, got {value!r}")
        return default if default is not None else 1.0
    if positive and value <= 0:
        errors.append(f"{name}: must be positive, got {value!r}")
    return float(value)


def _check_int(raw, name, errors, *, default, minimum=None):
    if name not in raw:
        return default
    value = raw[name]
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{name}: must be an integer, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{name}: must be >= {minimum}, got {value}")
        return default
    return value


def _is_number(value) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
    )


def _require_number(obj, key, errors, prefix, *, positive=False):
    if key not in obj:
        return
    value = obj[key]
    if not _is_number(value):
        errors.append(f"{prefix}.{key}: must be a finite number, got {value!r}")
    elif positive and value <= 0:
        errors.append(f"{prefix}.{key}: must be positive, got {value!r}")


def _require_int(obj, key, errors, prefix, *, minimum=None):
    if key not in obj:
        return
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{prefix}.{key}: must be an integer, got {value!r}")
    elif minimum is not None and value < minimum:
        errors.append(f"{prefix}.{key}: must be >= {minimum}, got {value}")


def _validate_system(system, errors, prefix="system"):
    if not isinstance(system, dict) or "kind" not in system:
        errors.append(f"{prefix}: must be an object with a 'kind' key")
        return
    kind = system["kind"]
    known = {
        "explicit": {"matrix"},
        "harmonic": {"omega", "levels"},
        "two_level": {"gap"},
        "random": {"dim", "seed"},
    }
    if kind not in known:
        errors.append(f"{prefix}.kind: unknown system kind {kind!r}")
        return
    extra = set(system) - known[kind] - {"kind"}
    for key in sorted(extra):
        errors.append(f"{prefix}.{key}: unknown field for kind {kind!r}")
    missing = known[kind] - set(system)
    for key in sorted(missing):
        errors.append(f"{prefix}.{key}: required for kind {kind!r}")
    _require_number(system, "omega", errors, prefix, positive=True)
    _require_number(system, "gap", errors, prefix, positive=True)
    _require_int(system, "levels", errors, prefix, minimum=2)
    _require_int(system, "dim", errors, prefix, minimum=2)
    _require_int(system, "seed", errors, prefix, minimum=0)
    if kind == "explicit" and "matrix" in system:
        try:
            matrix_from_pairs(system["matrix"], name=f"{prefix}.matrix")
        except ValueError as exc:
            errors.append(f"{prefix}.matrix: {exc}")


def _validate_worldline(worldline, errors, prefix="worldline"):
    if not isinstance(worldline, dict):
        errors.append(f"{prefix}: must be an object")
        return
    if "csv" in worldline:
        extra = set(worldline) - {"csv", "gravitational_only"}
        for key in sorted(extra):
            errors.append(f"{prefix}.{key}: unknown field alongside 'csv'")
        return
    preset = worldline.get("preset")
    known = {
        "comoving": {"t_end", "samples"},
        "uniform_gravity": {"g", "t_end", "samples", "p"},
        "point_mass": {"M", "r_start", "r_end", "t_end", "samples"},
        "cruise": {"p", "t_end", "samples"},
    }
    if preset not in known:
        errors.append(
            f"{prefix}.preset: must be one of {sorted(known)} (or give 'csv'), got {preset!r}"
        )
        return
    extra = set(worldline) - known[preset] - {"preset", "gravitational_only"}
    for key in sorted(extra):
        errors.append(f"{prefix}.{key}: unknown field for preset {preset!r}")
    if "t_end" not in worldline:
        errors.append(f"{prefix}.t_end: required")
    required = {"uniform_gravity": ["g"], "point_mass": ["M", "r_start", "r_end"], "cruise": ["p"]}
    for key in required.get(preset, []):
        if key not in worldline:
            errors.append(f"{prefix}.{key}: required for preset {preset!r}")
    _require_number(worldline, "t_end", errors, prefix, positive=True)
    _require_int(worldline, "samples", errors, prefix, minimum=2)
    for key in ("g", "M", "r_start", "r_end", "p"):
        _require_number(worldline, key, errors, prefix)
    if "gravitational_only" in worldline and not isinstance(
        worldline["gravitational_only"], bool
    ):
        errors.append(f"{prefix}.gravitational_only: must be true or false")


def _validate_channel(channel, errors, prefix="channel"):
    if not isinstance(channel, dict) or "preset" not in channel:
        errors.append(f"{prefix}: must be an object with a 'preset' key")
        return
    preset = channel["preset"]
    known = {
        "identity": set(),
        "amplitude_damping": {"gamma"},
        "depolarizing": {"lambda"},
        "unitary": {"matrix"},
        "kraus": {"matrices"},
    }
    if preset not in known:
        errors.append(f"{prefix}.preset: unknown channel preset {preset!r}")
        return
    extra = set(channel) - known[preset] - {"preset"}
    for key in sorted(extra):
        errors.append(f"{prefix}.{key}: unknown field for preset {preset!r}")
    missing = known[preset] - set(channel)
    for key in sorted(missing):
        errors.append(f"{prefix}.{key}: required for preset {preset!r}")
    for key in ("gamma", "lambda"):
        if key in channel:
            value = channel[key]
            if not _is_number(value) or not 0.0 <= value <= 1.0:
                errors.append(f"{prefix}.{key}: must be a number in [0, 1], got {value!r}")


def _validate_schedule(schedule, errors, prefix="schedule"):
    if not isinstance(schedule, list) or not schedule:
        errors.append(f"{prefix}: must be a non-empty list of segments")
        return
    for i, seg in enumerate(schedule):
        if not isinstance(seg, dict):
            errors.append(f"{prefix}[{i}]: must be an object")
            continue
        extra = set(seg) - {"tau_end", "system"}
        for key in sorted(extra):
            errors.append(f"{prefix}[{i}].{key}: unknown field")
        if "tau_end" not in seg:
            errors.append(f"{prefix}[{i}].tau_end: required")
        else:
            _require_number(seg, "tau_end", errors, f"{prefix}[{i}]", positive=True)
        if "system" not in seg:
            errors.append(f"{prefix}[{i}].system: required")
        else:
            _validate_system(seg["system"], errors, prefix=f"{prefix}[{i}].system")


def build_system(system: dict) -> HermitianOperator:
    kind = system["kind"]
    if kind == "explicit":
        return HermitianOperator(matrix_from_pairs(system["matrix"]))
    if kind == "harmonic":
        return harmonic_hamiltonian(system["omega"], system["levels"])
    if kind == "two_level":
        return two_level_hamiltonian(system["gap"])
    if kind == "random":
        return random_hermitian(system["dim"], int(system["seed"]))
    raise ValueError(f"unknown system kind {kind!r}")


def build_worldline(worldline: dict, mass: float) -> tuple[Worldline, bool]:
    """Build the sampled trajectory; returns it with the heavy-particle flag."""
    grav_only = bool(worldline.get("gravitational_only", False))
    if "csv" in worldline:
        return Worldline.from_csv(worldline["csv"], mass), grav_only
    preset = worldline["preset"]
    t_end = worldline["t_end"]
    samples = worldline.get("samples", DEFAULT_SAMPLES)
    if preset == "comoving":
        return comoving_worldline(t_end, samples=samples, mass=mass), grav_only
    if preset == "uniform_gravity":
        return (
            uniform_gravity_worldline(
                worldline["g"], t_end, samples=samples, p=worldline.get("p", 0.0), mass=mass
            ),
            grav_only,
        )
    if preset == "point_mass":
        return (
            point_mass_worldline(
                worldline["M"],
                worldline["r_start"],
                worldline["r_end"],
                t_end,
                samples=samples,
                mass=mass,
            ),
            grav_only,
        )
    if preset == "cruise":
        return cruise_worldline(worldline["p"], t_end, samples=samples, mass=mass), grav_only
    raise ValueError(f"unknown worldline preset {preset!r}")


def build_channel(channel: dict, dim: int) -> QuantumChannel:
    preset = channel["preset"]
    if preset == "identity":
        return identity_channel(dim)
    if preset == "amplitude_damping":
        return amplitude_damping_channel(channel["gamma"], dim=dim)
    if preset == "depolarizing":
        return depolarizing_channel(channel["lambda"], dim=dim)
    if preset == "unitary":
        return unitary_channel(matrix_from_pairs(channel["matrix"], name="channel.matrix"))
    if preset == "kraus":
        return QuantumChannel(
            [matrix_from_pairs(m, name="channel.matrices") for m in channel["matrices"]]
        )
    raise ValueError(f"unknown channel preset {preset!r}")


def build_scenario(config: ScenarioConfig):
    """Turn a validated config into a prepared run for :func:`run_protocol`."""
    if config.pipeline == "flat":
        h0 = build_system(config.system)
        channel = build_channel(config.channel, h0.dim)
        if channel.dim != h0.dim:
            raise ScenarioValidationError(
                [f"channel: dimension {channel.dim} does not match system dimension {h0.dim}"]
            )
        return FlatRun(
            scenario_id=config.scenario_id,
            beta=config.beta,
            h0=h0,
            h_final=h0,
            channel=channel,
        )

    worldline, grav_only = build_worldline(config.worldline, config.mass)
    profile = dilation_profile(
        worldline, StaticSpacetime(c=config.c), gravitational_only=grav_only
    )
    if config.pipeline == "dilated":
        return DilatedRun(
            scenario_id=config.scenario_id,
            beta=config.beta,
            h0=build_system(config.system),
            profile=profile,
        )

    segments = [
        (seg["tau_end"], build_system(seg["system"])) for seg in config.schedule
    ]
    schedule = PropagatorSchedule(segments, profile, config.steps)
    return AppendixRun(
        scenario_id=config.scenario_id,
        beta=config.beta,
        schedule=schedule,
        final_basis=config.final_basis,
    )


def run_scenario(config: ScenarioConfig | dict | str) -> ProtocolReport:
    """Validate (if needed), build and execute one scenario."""
    if isinstance(config, str):
        config = ScenarioConfig.from_file(config)
    elif isinstance(config, dict):
        config = ScenarioConfig.from_dict(config)
    return run_protocol(build_scenario(config))
