"""Named scenarios: config files, analytic oracles and run assembly.

A scenario file is one JSON document. Validation is aggregated: every
violated constraint is collected with its field path before anything is
built, so a malformed file reports all its problems at once. The schema is
data: ``PIPELINES``, ``FIELD_RULES`` and one table per family (``SYSTEMS``,
``WORLDLINES``, ``CHANNELS``) that also holds each entry's builder.

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
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .channels import (
    PropagatorSchedule,
    QuantumChannel,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from .operators import _INTEGER, MAX_DIM, RULES, HermitianOperator, Spectrum
from .operators import matrix_from_pairs, random_hermitian, require, spectral_decompose
from .protocol import AppendixRun, FlatRun, ProtocolReport, ReducedRun, reduce_run, report_rows
from .spacetime import (
    Clock,
    Worldline,
    comoving_worldline,
    cruise_worldline,
    dilation_profile,
    point_mass_worldline,
    uniform_gravity_worldline,
)

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
    require(beta_omega=beta_omega, alpha=alpha)
    if alpha == 1.0:
        return 0.0
    return float(np.log(np.sinh(alpha * beta_omega / 2.0) / np.sinh(beta_omega / 2.0)))


def oscillator_mean_work_analytic(beta_omega: float, alpha: float) -> float:
    """Closed-form beta * <W> for the oscillator ladder under clock rate alpha."""
    require(beta_omega=beta_omega, alpha=alpha)
    if alpha == 1.0:
        return 0.0
    return float((alpha - 1.0) * (beta_omega / 2.0) / np.tanh(beta_omega / 2.0))


def levels_for_tail(beta_omega: float, alpha_min: float = 1.0) -> int:
    """Smallest ladder size whose discarded Boltzmann tail stays below ``TAIL_WEIGHT``.

    The rescaled ladder at clock rate ``alpha_min`` has effective spacing
    ``alpha_min * beta_omega``; the tail bound must hold there too when
    alpha_min < 1. A ladder past ``MAX_DIM`` levels raises ``ValueError``.
    """
    require(beta_omega=beta_omega, alpha_min=alpha_min)
    eff = beta_omega * min(1.0, alpha_min)  # 0 if the product underflows
    need = -math.log(TAIL_WEIGHT) / eff if eff else math.inf
    if need > MAX_DIM - 1:
        raise ValueError(f"beta_omega * alpha_min = {eff!r} needs more than {MAX_DIM} levels")
    return max(2, math.ceil(need) + 1)


def truncation_tail_weight(beta_omega: float, levels: int, alpha: float = 1.0) -> float:
    """Boltzmann weight of the first discarded level, relative to the ground level."""
    require(beta_omega=beta_omega, alpha=alpha, levels=levels)
    return float(np.exp(-min(1.0, alpha) * beta_omega * levels))


def harmonic_hamiltonian(omega: float, levels: int) -> Spectrum:
    """Truncated oscillator ladder E_n = (n + 1/2) omega, n = 0..levels-1, in the standard basis."""
    require(omega=omega, levels=levels)
    return Spectrum((np.arange(levels) + 0.5) * omega)


def two_level_hamiltonian(gap: float) -> Spectrum:
    """Levels 0 and ``gap`` in the standard basis."""
    require(gap=gap)
    return Spectrum([0.0, gap])


def _pairs_matrix(value) -> bool:
    try:
        matrix_from_pairs(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


# pipeline -> (sections it requires, optional fields it reads), on top of the
# fields every scenario requires
PIPELINES = {
    "flat": (("system", "channel"), ()),
    "dilated": (("system", "worldline"), ("mass", "c")),
    "appendix": (("schedule", "worldline"), ("mass", "c", "steps", "final_basis")),
}

_STRING = (lambda v: isinstance(v, str) and v != "", "must be a non-empty string, got {!r}")

# field name -> stages (accepts, message), the same wherever the field appears;
# the numeric entries are the engine's own ``RULES``
FIELD_RULES = {
    **RULES,
    "gravitational_only": ((lambda v: isinstance(v, bool), "must be true or false"),),
    "csv": (_STRING,),
    "scenario_id": (
        _STRING,
        (
            lambda v: v not in (".", "..") and not any(ch in v for ch in "/\\\0"),
            "must be a file name: no '/', '\\' or NUL, not '.' or '..'; got {!r}",
        ),
    ),
    "pipeline": (
        (
            lambda v: isinstance(v, str) and v in PIPELINES,
            f"must be one of {tuple(PIPELINES)}, got {{!r}}",
        ),
    ),
    "matrix": ((_pairs_matrix, "must be a square, finite matrix of [re, im] pairs"),),
    "matrices": (
        (
            lambda v: isinstance(v, list) and v and all(map(_pairs_matrix, v)),
            "must be a non-empty list of square, finite matrices of [re, im] pairs",
        ),
    ),
}


@dataclass(frozen=True)
class _Entry:
    """One system kind or worldline/channel preset: its fields and builder.

    ``scale`` names the field a system's Hamiltonian or a worldline's potential
    is linear in, if any: H(x) = x * H(1), so every value of that field shares
    one eigenbasis, and phi(x) = x * phi(1), so it shares one ``Clock``.
    ``rule`` is an (accepts, message) stage across the entry's fields, checked
    once each field has passed its own rule.
    """

    required: tuple
    optional: tuple
    build: Callable
    scale: str | None = None
    rule: tuple | None = None


_TIMED = ("samples", "gravitational_only")

# each builder returns the system's spectrum
SYSTEMS = {
    "explicit": _Entry(
        ("matrix",),
        (),
        lambda s: spectral_decompose(HermitianOperator(matrix_from_pairs(s["matrix"]))),
    ),
    "harmonic": _Entry(
        ("omega", "levels"),
        (),
        lambda s: harmonic_hamiltonian(s["omega"], s["levels"]),
        scale="omega",
        rule=(
            lambda s: (s["levels"] - 0.5) * s["omega"] < math.inf,
            "the top level (levels - 1/2) * omega must be finite, "
            "got omega={omega!r} and levels={levels!r}",
        ),
    ),
    "two_level": _Entry(("gap",), (), lambda s: two_level_hamiltonian(s["gap"])),
    "random": _Entry(
        ("dim", "seed"), (), lambda s: spectral_decompose(random_hermitian(s["dim"], s["seed"]))
    ),
}

# a worldline without a preset is read from its ``csv`` table; each builder
# takes the object, the sample count and the particle mass
WORLDLINES = {
    "comoving": _Entry(("t_end",), _TIMED, lambda w, n, m: comoving_worldline(w["t_end"], n, m)),
    "uniform_gravity": _Entry(
        ("g", "t_end"),
        ("p", *_TIMED),
        lambda w, n, m: uniform_gravity_worldline(w["g"], w["t_end"], n, w.get("p", 0.0), m),
        scale="g",
    ),
    "point_mass": _Entry(
        ("M", "r_start", "r_end", "t_end"),
        _TIMED,
        lambda w, n, m: point_mass_worldline(w["M"], w["r_start"], w["r_end"], w["t_end"], n, m),
    ),
    "cruise": _Entry(
        ("p", "t_end"), _TIMED, lambda w, n, m: cruise_worldline(w["p"], w["t_end"], n, m)
    ),
    "csv": _Entry(
        ("csv",), ("gravitational_only",), lambda w, n, m: Worldline.from_csv(w["csv"], m)
    ),
}

CHANNELS = {
    "identity": _Entry((), (), lambda ch, dim: identity_channel(dim)),
    "amplitude_damping": _Entry(
        ("gamma",), (), lambda ch, dim: amplitude_damping_channel(ch["gamma"], dim)
    ),
    "depolarizing": _Entry(
        ("lambda",), (), lambda ch, dim: depolarizing_channel(ch["lambda"], dim)
    ),
    "unitary": _Entry(
        ("matrix",),
        (),
        lambda ch, dim: unitary_channel(matrix_from_pairs(ch["matrix"], name="channel.matrix")),
    ),
    "kraus": _Entry(
        ("matrices",),
        (),
        lambda ch, dim: QuantumChannel(
            [matrix_from_pairs(m, name="channel.matrices") for m in ch["matrices"]]
        ),
    ),
}

# object field -> (the field that names its entry, the entries, the entry used
# when that field is absent and the object carries a field of the entry's name)
_FAMILIES = {
    "system": ("kind", SYSTEMS, None),
    "worldline": ("preset", WORLDLINES, "csv"),
    "channel": ("preset", CHANNELS, None),
}


def _check(value, name: str, path: str, errors: list) -> None:
    """Append to ``errors`` what is wrong with field ``name``'s value at ``path``."""
    if name in _FAMILIES:
        tag, table, fallback = _FAMILIES[name]
        if not isinstance(value, dict):
            errors.append(f"{path}: must be an object with a {tag!r} key")
            return
        kind = value.get(tag, fallback if fallback in value else None)
        if not isinstance(kind, str) or kind not in table:
            errors.append(f"{path}.{tag}: must be one of {sorted(table)}, got {kind!r}")
            return
        entry, owner = table[kind], f" for {tag} {kind!r}"
        known = len(errors)
        _check_fields(value, path, entry.required, entry.optional, owner, tag, errors)
        if entry.rule and len(errors) == known and not entry.rule[0](value):
            errors.append(f"{path}: {entry.rule[1].format(**value)}")
    elif name == "schedule":
        if not isinstance(value, list) or not value:
            errors.append(f"{path}: must be a non-empty list of segments")
            return
        for i, segment in enumerate(value):
            _check_fields(segment, f"{path}[{i}]", ("tau_end", "system"), (), "", None, errors)
    else:
        for accepts, message in FIELD_RULES[name]:
            if not accepts(value):
                errors.append(f"{path}: {message.format(value)}")
                return


def _check_fields(obj, path, required, optional, owner, tag, errors) -> None:
    """Check an object's fields: none unknown (``tag`` names the entry), none
    of ``required`` missing, and each present one against its rule."""
    if not isinstance(obj, dict):
        errors.append(f"{path}: must be an object")
        return
    for key in obj:
        if key not in required and key not in optional and key != tag:
            errors.append(f"{path}.{key}: unknown field{owner}")
    for key in required:
        if key not in obj:
            errors.append(f"{path}.{key}: required{owner}")
    for key in required + optional:
        if key in obj:
            _check(obj[key], key, f"{path}.{key}", errors)


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

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Validate a scenario document against ``PIPELINES`` and the tables."""
        if not isinstance(raw, dict):
            raise ScenarioValidationError(["document: must be a JSON object"])
        errors: list[str] = []
        pipeline = raw.get("pipeline")
        _check(pipeline, "pipeline", "pipeline", errors)
        if errors:
            raise ScenarioValidationError(errors)
        sections, optional = PIPELINES[pipeline]
        required = _ALWAYS_REQUIRED + sections
        for key in raw:
            if key not in _FIELDS:
                errors.append(f"{key}: unknown field")
            elif key not in required and key not in optional:
                errors.append(f"{key}: not used by the {pipeline} pipeline")
        for key in required:
            if key not in raw:
                errors.append(f"{key}: required for the {pipeline} pipeline")
        for key in required + optional:
            if key in raw:
                _check(raw[key], key, key, errors)
        if errors:
            raise ScenarioValidationError(errors)
        return cls(**{name: _cast(name, raw.get(name, f.default)) for name, f in _FIELDS.items()})

    def edited(self, name: str, value, scenario_id: str) -> "ScenarioConfig":
        """This config with field ``name`` set to ``value`` and a new ``scenario_id``.

        Equals ``from_dict`` of the edited document, and fails with the same
        errors, but checks only the two edited fields: the rest were checked
        when this config was made.
        """
        sections, optional = PIPELINES[self.pipeline]
        used = name in _ALWAYS_REQUIRED + sections + optional
        errors = [] if used else [f"{name}: not used by the {self.pipeline} pipeline"]
        _check(scenario_id, "scenario_id", "scenario_id", errors)
        if used:
            _check(value, name, name, errors)
        if errors:
            raise ScenarioValidationError(errors)
        # set field by field, as __init__ sets them: ``dataclasses.replace`` would rerun
        # __init__, and filling ``vars(config)`` would hold 64 more bytes per sweep point
        config = object.__new__(type(self))
        for key, item in vars(self).items():
            object.__setattr__(config, key, item)
        object.__setattr__(config, "scenario_id", scenario_id)
        object.__setattr__(config, name, _cast(name, value))
        return config


_FIELDS = {f.name: f for f in fields(ScenarioConfig)}
_ALWAYS_REQUIRED = tuple(name for name, f in _FIELDS.items() if f.default is MISSING)
_INTEGER_FIELDS = frozenset(name for name, stages in RULES.items() if stages[0] is _INTEGER)


def _cast(name: str, value):
    """A validated value as the config holds it: each int of a field without an integer
    rule, in sections and segments too, as a float (numpy holds ints past 2**64 as objects)."""
    if isinstance(value, dict):
        return {key: _cast(key, item) for key, item in value.items()}
    if name == "schedule" and value is not None:
        return [_cast(name, segment) for segment in value]
    return float(value) if type(value) is int and name not in _INTEGER_FIELDS else value


def parse_document(text: str):
    """Parse the text of a scenario file; ``from_dict`` validates the result."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([f"document: malformed JSON ({exc})"]) from None
    except ValueError:  # an integer past Python's int conversion limit (4300 digits)
        raise ScenarioValidationError(["document: a number has too many digits"]) from None
    except RecursionError:
        raise ScenarioValidationError(["document: nested too deeply to parse"]) from None


def build_system(system: dict) -> Spectrum:
    return SYSTEMS[system["kind"]].build(system)


def build_trajectory(worldline: dict, mass: float) -> Worldline:
    """The sampled trajectory of a ``worldline`` section for a particle of ``mass``."""
    entry = WORLDLINES[worldline.get("preset", "csv")]
    return entry.build(worldline, worldline.get("samples", DEFAULT_SAMPLES), mass)


def alpha_ramp(base: ScenarioConfig, alpha) -> dict:
    """The worldline section that realizes the final clock rate ``alpha``, a number or a
    column, with a potential ramp read by a heavy particle: phi_end = (alpha - 1) c^2."""
    t_end, samples = 1.0, 101
    if base.worldline and "t_end" in base.worldline:
        t_end = base.worldline["t_end"]
        samples = base.worldline.get("samples", samples)
    g = (alpha - 1.0) * base.c**2 / t_end
    return dict(preset="uniform_gravity", g=g, t_end=t_end, samples=samples,
                gravitational_only=True)


def dilated_sweep(base: ScenarioConfig, param: str, values: list, ids: list):
    """The points of a sweep of a dilated ``base`` as reduced stacks for ``report_rows``,
    row k bit for bit point k run alone; or None, before anything runs, unless every
    value passes the rule of the field it edits. ``param`` edits as ``cli._sweep_config``
    does, and enters as a column where its field does: beta as the ensemble's betas,
    omega as ``omega * E(1)``, and c or alpha (as ramps of g) as a column of one clock."""
    if base.pipeline != "dilated" or param == "gamma":
        return None
    column = np.array(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range fails
        if param == "alpha":  # the ramp's one new number
            column = alpha_ramp(base, column)["g"]
            ok = np.isfinite(column)
        else:  # beta, c and omega are positive numbers
            ok = np.isfinite(column) & (column > 0.0)
        if param == "c":
            ok &= column * column < math.inf
        elif param == "omega":
            entry = SYSTEMS[base.system["kind"]]
            ok &= entry.scale == "omega" and entry.rule[0](dict(base.system, omega=column))
    return _dilated_stacks(base, param, column, ids) if ok.all() else None


# the elements of one stacked array, 256 KB in float64: the atoms of a stack of
# points in one ``estimate`` call
STACK_ATOMS = 2**15
# a point's own objects, its labels and its report row, about 1 KB, count as
# POINT_ATOMS more atoms of its stack
POINT_ATOMS = 128


def _dilated_stacks(base: ScenarioConfig, param: str, column: np.ndarray, ids: list):
    """The stacks of ``dilated_sweep`` over ``column`` (g for alpha), each within
    ``STACK_ATOMS`` atoms, ``POINT_ATOMS`` a point, with each row's final rate and
    proper time from one ``Clock``; a dilated config run alone is the one stack of
    its own beta. A stack whose final energies overflow raises before it is yielded."""
    # the worldline is read first, as a driven run's is; its clock is built at scale 1
    worldline = alpha_ramp(base, 1.0) if param == "alpha" else base.worldline
    scale = WORLDLINES[worldline.get("preset", "csv")].scale
    g, unit = (worldline[scale], dict(worldline, **{scale: 1.0})) if scale else (1.0, worldline)
    clock = Clock(build_trajectory(unit, base.mass), worldline.get("gravitational_only", False))
    ends = None if param in ("c", "alpha") else clock.ends(base.c, g)
    system = dict(base.system, omega=1.0) if param == "omega" else base.system
    energies = build_system(system).eigenvalues
    rows = max(1, STACK_ATOMS // (energies.size + POINT_ATOMS))
    for start in range(0, column.size, rows):
        stack = column[start : start + rows]
        if param in ("c", "alpha"):  # the points' one new number
            ends = clock.ends(stack, g) if param == "c" else clock.ends(base.c, stack)
        alpha, tau = (np.broadcast_to(x, stack.size) for x in ends)
        # C-order stacks, so that each row's sums run as its run's alone do
        initial = np.tile(energies, (stack.size, 1))
        if param == "omega":  # the bits of each row's ``scaled(omega)``
            initial *= stack[:, None]
        with np.errstate(over="ignore"):  # checked below, at each row's ends
            final = alpha[:, None] * initial
        if not np.isfinite(final[:, [0, -1]]).all():  # as ``Spectrum.scaled`` checks a run's
            raise ValueError("spectrum contains non-finite entries")
        betas = stack if param == "beta" else np.full(stack.size, base.beta)
        labels = dict(pipeline="dilated", dim=energies.size, final_basis="evolved", steps=0)
        labels = [dict(labels, scenario_id=sid, alpha_final=a, tau_total=t)
                  for sid, a, t in zip(ids[start : start + rows], alpha.tolist(), tau.tolist())]
        yield ReducedRun(initial, betas, final, None, 0.0, labels)


def build_channel(channel: dict, dim: int) -> QuantumChannel:
    return CHANNELS[channel["preset"]].build(channel, dim)


def build_scenario(config: ScenarioConfig) -> ReducedRun:
    """A validated config as its TPM inputs and report labels, a ``ReducedRun`` of
    one row for ``report_rows``.

    Each call builds every section anew. A dilated config is the one-row
    stack of ``_dilated_stacks`` that a sweep of its beta would make; a flat
    or driven config goes through ``reduce_run``. Only ``explicit`` and
    ``random`` systems decompose a matrix; a ladder or two levels is diagonal.
    """
    if config.pipeline == "dilated":
        return next(_dilated_stacks(config, "beta", np.array([config.beta]), [config.scenario_id]))
    if config.pipeline == "flat":
        spec = build_system(config.system)
        channel = build_channel(config.channel, spec.dim)
        if channel.dim != spec.dim:
            raise ScenarioValidationError(
                [f"channel: dimension {channel.dim} does not match system dimension {spec.dim}"]
            )
        return reduce_run(FlatRun(config.scenario_id, config.beta, spec, spec, channel))
    worldline = config.worldline
    trajectory = build_trajectory(worldline, config.mass)
    profile = dilation_profile(trajectory, config.c, worldline.get("gravitational_only", False))
    segments = [(seg["tau_end"], build_system(seg["system"])) for seg in config.schedule]
    schedule = PropagatorSchedule(segments, profile, config.steps)
    return reduce_run(AppendixRun(config.scenario_id, config.beta, schedule, config.final_basis))


def run_scenario(config: ScenarioConfig) -> ProtocolReport:
    """Build and execute one validated scenario."""
    return next(report_rows([build_scenario(config)]))
