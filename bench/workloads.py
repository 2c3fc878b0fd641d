"""The four benchmark workloads: seeded inputs, one op per input, an oracle.

A workload turns a seed into a fixed list of prepared inputs ("slots"). One
op runs one slot; a pass runs every slot once. The shape of each slot
(dimension, channel, step count, ladder size, worldline samples, sweep
parameter) is fixed by its position in the list, and the seed draws only
values: matrices, rates, temperatures and sweep ranges. The work in a pass
is therefore the same for every seed, so runs with different seeds can be
compared.

``check(i, output)`` returns ``None`` when the op's output passes its
oracle and a one-line description of the violation otherwise. Oracles run
between ops, off the clock, and use numpy or tauwork's analytic closed
forms rather than the timed functions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tauwork as tw
from tauwork import acceptance, cli

FLAT_TOL = 1e-10  # generalized equality (acceptance criterion 3)
DRIVEN_TOL = 1e-6  # driven residual at 1e4 steps (acceptance criterion 8)
DILATED_TOL = 1e-12  # dilated identity (acceptance criterion 1)
ANALYTIC_TOL = 1e-7  # oscillator closed form (acceptance criterion 2)
RESIDUAL_TOL = {"flat": FLAT_TOL, "dilated": DILATED_TOL, "appendix": DRIVEN_TOL}


def _log_sum_exp(x: np.ndarray) -> float:
    m = float(x.max())
    return m + math.log(float(np.exp(x - m).sum()))


def _scaled_hermitian(dim: int, rng: np.random.Generator) -> tw.HermitianOperator:
    """A seeded random Hamiltonian with a spectrum of width about 4 at any dim."""
    return tw.HermitianOperator(tw.random_hermitian(dim, rng).matrix / math.sqrt(dim))


def _random_kraus_channel(dim: int, n_kraus: int, rng: np.random.Generator):
    """A random CPTP map: a Haar isometry cut into ``n_kraus`` Kraus blocks."""
    a = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, r = np.linalg.qr(a)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return tw.QuantumChannel([q[j * dim : (j + 1) * dim, :] for j in range(n_kraus)])


def _finite(report, names=("lhs", "rhs", "residual", "mean_work", "delta_F")) -> str | None:
    bad = [n for n in names if not math.isfinite(getattr(report, n))]
    return f"non-finite {', '.join(bad)}" if bad else None


class Workload:
    name = ""
    warmup = 0  # slot run once during set-up

    def __len__(self) -> int:
        return len(self.slots)

    def label(self, i: int) -> str:
        return "bench.op"

    def bytes_written(self, i: int) -> int:
        return 0


# ---------------------------------------------------------------- flat-kraus

# (channel, dim, Kraus operators); depolarizing only at dim <= 16.
FLAT_SLOTS = (
    [("amplitude_damping", d, d) for d in (8, 12, 16, 24, 32, 40, 48, 64)]
    + [
        ("kraus", d, k)
        for d, k in (
            (8, 1), (10, 2), (12, 3), (16, 4), (20, 1), (24, 2),
            (28, 3), (32, 4), (40, 1), (48, 2), (56, 3), (64, 4),
        )
    ]
    + [("depolarizing", d, d * d) for d in (8, 10, 12, 14, 16)]
)
FLAT_SMOKE = (
    ("amplitude_damping", 2, 2),
    ("amplitude_damping", 4, 4),
    ("kraus", 3, 2),
    ("kraus", 4, 3),
    ("depolarizing", 2, 4),
    ("depolarizing", 4, 16),
)


class FlatKraus(Workload):
    """Each op is ``run_protocol(FlatRun(...))`` with random ``h0 != h_final``."""

    name = "flat-kraus"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.slots = []
        for i, (kind, dim, n_kraus) in enumerate(FLAT_SMOKE if smoke else FLAT_SLOTS):
            if kind == "amplitude_damping":
                channel = tw.amplitude_damping_channel(float(rng.uniform(0.1, 0.9)), dim)
            elif kind == "depolarizing":
                channel = tw.depolarizing_channel(float(rng.uniform(0.1, 0.9)), dim)
            else:
                channel = _random_kraus_channel(dim, n_kraus, rng)
            self.slots.append(
                tw.FlatRun(
                    scenario_id=f"flat-{i:02d}-{kind}-{dim}",
                    beta=float(rng.uniform(0.5, 2.0)),
                    h0=_scaled_hermitian(dim, rng),
                    h_final=_scaled_hermitian(dim, rng),
                    channel=channel,
                )
            )
        self._expected: dict[int, float] = {}

    def op(self, i: int):
        return tw.run_protocol(self.slots[i])

    def expected_rhs(self, i: int) -> float:
        """Z_f/Z_0 * (1 + Tr[(Theta(1) - 1) rho_f]), from numpy alone."""
        if i not in self._expected:
            run = self.slots[i]
            b = run.beta
            e0 = np.linalg.eigvalsh(run.h0.matrix)
            ef, vf = np.linalg.eigh(run.h_final.matrix)
            weights = np.exp(-b * (ef - ef[0]))
            rho_f = (vf * (weights / weights.sum())) @ vf.conj().T
            theta_one = sum(k @ k.conj().T for k in run.channel.kraus_ops)
            correction = float(np.trace((theta_one - np.eye(run.channel.dim)) @ rho_f).real)
            ratio = math.exp(_log_sum_exp(-b * ef) - _log_sum_exp(-b * e0))
            self._expected[i] = ratio * (1.0 + correction)
        return self._expected[i]

    def check(self, i: int, report) -> str | None:
        problem = _finite(report)
        if problem:
            return problem
        dev = abs(report.lhs - self.expected_rhs(i))
        if dev > FLAT_TOL or abs(report.residual) > FLAT_TOL:
            return f"|lhs - rhs| = {dev:.3e}, residual {report.residual:.3e} > {FLAT_TOL:g}"
        return None


# -------------------------------------------------------------- driven-steps

STEP_GRID = tuple(int(s) for s in np.geomspace(1e3, 3e4, 25).round())
SAMPLE_GRID = (1000, 1778, 3162, 5623, 10000)
DRIVEN_DIMS = (2, 3, 4, 6, 8, 12, 16)
PRESETS = ("uniform_gravity", "point_mass", "cruise")


@dataclass(frozen=True)
class DrivenShape:
    dim: int
    segments: int
    steps: int
    samples: int
    final_basis: str
    preset: str


def driven_shapes(smoke: bool) -> list[DrivenShape]:
    """Slot shapes; coprime strides mix dims, segment counts and step counts."""
    if smoke:
        return [
            DrivenShape(2, 2, 20, 20, "evolved", "uniform_gravity"),
            DrivenShape(3, 3, 50, 50, "instantaneous", "point_mass"),
            DrivenShape(4, 2, 100, 100, "evolved", "cruise"),
            DrivenShape(4, 3, 70, 30, "instantaneous", "uniform_gravity"),
        ]
    return [
        DrivenShape(
            dim=DRIVEN_DIMS[i % 7],
            segments=2 + (3 * i) % 7,
            steps=STEP_GRID[(7 * i) % 25],
            samples=SAMPLE_GRID[(2 * i) % 5],
            final_basis=tw.protocol.FINAL_BASES[i % 2],
            preset=PRESETS[i % 3],
        )
        for i in range(25)
    ]


def _worldline(preset: str, samples: int, rng: np.random.Generator) -> tw.Worldline:
    """A weak-field worldline whose clock rate stays within about 0.67-1.33."""
    t_end = 10.0
    if preset == "uniform_gravity":
        g = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.005, 0.03))
        return tw.uniform_gravity_worldline(g, t_end, samples, p=float(rng.uniform(0.0, 0.2)))
    if preset == "point_mass":
        r_start, r_end = rng.uniform(2.0, 6.0, size=2)
        return tw.point_mass_worldline(
            float(rng.uniform(0.2, 0.5)), float(r_start), float(r_end), t_end, samples
        )
    return tw.cruise_worldline(float(rng.uniform(0.1, 0.6)), t_end, samples)


@dataclass(frozen=True)
class DrivenSlot:
    shape: DrivenShape
    beta: float
    worldline: tw.Worldline
    hamiltonians: tuple
    fractions: tuple  # interior segment bounds as fractions of the proper time


class DrivenSteps(Workload):
    """Each op profiles the worldline, builds the schedule and runs
    ``run_protocol(AppendixRun(...))``."""

    name = "driven-steps"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.slots = []
        for shape in driven_shapes(smoke):
            self.slots.append(
                DrivenSlot(
                    shape=shape,
                    beta=float(rng.uniform(0.5, 2.0)),
                    worldline=_worldline(shape.preset, shape.samples, rng),
                    hamiltonians=tuple(
                        _scaled_hermitian(shape.dim, rng) for _ in range(shape.segments)
                    ),
                    fractions=tuple(np.sort(rng.uniform(0.05, 0.95, shape.segments - 1))),
                )
            )

    def op(self, i: int):
        slot = self.slots[i]
        profile = tw.dilation_profile(slot.worldline)
        total = profile.tau_total
        bounds = [f * total for f in slot.fractions] + [total]
        schedule = tw.PropagatorSchedule(
            list(zip(bounds, slot.hamiltonians)), profile, slot.shape.steps
        )
        return tw.run_protocol(
            tw.AppendixRun(
                scenario_id=f"driven-{i:02d}",
                beta=slot.beta,
                schedule=schedule,
                final_basis=slot.shape.final_basis,
            )
        )

    def check(self, i: int, report) -> str | None:
        slot = self.slots[i]
        problem = _finite(report)
        if problem:
            return problem
        if report.steps != slot.shape.steps or report.dim != slot.shape.dim:
            return f"report steps/dim {report.steps}/{report.dim} differ from the input"
        if abs(report.residual) > DRIVEN_TOL:
            return f"|residual| = {abs(report.residual):.3e} > {DRIVEN_TOL:g}"
        if slot.shape.final_basis == "instantaneous":
            e0 = np.linalg.eigvalsh(slot.hamiltonians[0].matrix)
            ef = report.alpha_final * np.linalg.eigvalsh(slot.hamiltonians[-1].matrix)
            rhs = math.exp(_log_sum_exp(-slot.beta * ef) - _log_sum_exp(-slot.beta * e0))
            if abs(report.rhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
                return f"rhs {report.rhs!r} differs from Z_f/Z_0 = {rhs!r}"
        return None


# ----------------------------------------------------------------- cli-sweep

# (system kind, levels or dim, worldline samples, swept parameter)
SWEEP_SLOTS = (
    ("harmonic", 20, 100, "alpha"),
    ("harmonic", 20, 1000, "beta"),
    ("harmonic", 20, 10000, "c"),
    ("harmonic", 32, 300, "omega"),
    ("harmonic", 32, 3000, "alpha"),
    ("harmonic", 50, 100, "beta"),
    ("harmonic", 50, 1000, "c"),
    ("harmonic", 80, 300, "omega"),
    ("harmonic", 80, 100, "alpha"),
    ("harmonic", 128, 100, "beta"),
    ("harmonic", 128, 300, "c"),
    ("harmonic", 200, 100, "omega"),
    ("harmonic", 200, 1000, "alpha"),
    ("two_level", 2, 1000, "beta"),
    ("two_level", 2, 10000, "alpha"),
    ("two_level", 2, 100, "c"),
    ("random", 8, 300, "beta"),
    ("random", 16, 3000, "alpha"),
    ("random", 32, 100, "c"),
    ("random", 64, 1000, "beta"),
)
SWEEP_SMOKE = (
    ("harmonic", 4, 20, "alpha"),
    ("harmonic", 4, 30, "omega"),
    ("two_level", 2, 50, "c"),
    ("random", 3, 100, "beta"),
)
SWEEP_POINTS = 50
DEMO_FILES = (
    "flat_damping.json",
    "comoving.json",
    "cruise_redshift.json",
    "oscillator_blueshift.json",
    "driven_two_segment.json",
)
DEMO_SMOKE = ("flat_damping.json", "cruise_redshift.json", "driven_two_segment.json")
SMOKE_STEPS = 50


@dataclass(frozen=True)
class CliSlot:
    argv: tuple
    report: Path  # the file the call writes
    scenario: dict  # the scenario document the call reads
    sweep: tuple | None  # (param, values in row order)


def _sweep_scenario(i, kind, size, samples, rng) -> dict:
    """A dilated scenario whose every sweep point stays at rounding level."""
    if kind == "random":
        # raw GUE spectra span about +-2 sqrt(dim): keep beta * (alpha - 1) small
        system = {"kind": "random", "dim": size, "seed": int(rng.integers(0, 2**31))}
        beta, g = rng.uniform(0.3, 1.0), rng.uniform(0.002, 0.005)
    else:
        if kind == "harmonic":
            system = {"kind": "harmonic", "omega": float(rng.uniform(0.8, 1.5)), "levels": size}
        else:
            system = {"kind": "two_level", "gap": float(rng.uniform(0.5, 2.0))}
        beta, g = rng.uniform(1.0, 3.0), rng.uniform(0.01, 0.03)
    return {
        "scenario_id": f"bench-{i:02d}-{kind}",
        "pipeline": "dilated",
        "beta": float(beta),
        "system": system,
        "worldline": {
            "preset": "uniform_gravity",
            "g": float(rng.choice((-1.0, 1.0)) * g),
            "t_end": 10.0,
            "samples": samples,
            "p": float(rng.uniform(0.0, 0.3)),
        },
        "mass": 1.0,
    }


def _sweep_range(kind, param, rng) -> tuple[float, float]:
    if kind == "random":
        ranges = {"alpha": ((0.9, 0.95), (1.05, 1.1)), "beta": ((0.2, 0.5), (0.8, 1.0))}
    else:
        ranges = {"alpha": ((0.7, 0.9), (1.1, 1.3)), "beta": ((0.5, 1.0), (2.0, 4.0))}
    ranges.update({"c": ((1.0, 2.0), (5.0, 20.0)), "omega": ((0.5, 1.0), (1.5, 2.5))})
    lo, hi = ranges[param]
    return float(rng.uniform(*lo)), float(rng.uniform(*hi))


class CliSweep(Workload):
    """Each op is one in-process ``tauwork.cli.main([...])`` call."""

    name = "cli-sweep"

    def __init__(self, seed: int, smoke: bool = False, workdir: Path = None, root: Path = None):
        rng = np.random.default_rng(seed)
        points = 2 if smoke else SWEEP_POINTS
        self.slots = []
        for i, (kind, size, samples, param) in enumerate(SWEEP_SMOKE if smoke else SWEEP_SLOTS):
            scenario = _sweep_scenario(i, kind, size, samples, rng)
            path = workdir / f"scenario-{i:02d}.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            start, stop = _sweep_range(kind, param, rng)
            out = workdir / f"out-{i:02d}"
            argv = (
                "sweep", "--scenario", str(path), "--out", str(out), "--quiet",
                "--sweep", f"{param}={start!r}:{stop!r}:{points}",
            )
            values = sorted(start + (stop - start) * k / (points - 1) for k in range(points))
            self.slots.append(CliSlot(argv, out / f"sweep_{param}.csv", scenario, (param, values)))
        for name in DEMO_SMOKE if smoke else DEMO_FILES:
            path = root / "demos" / "scenarios" / name
            scenario = json.loads(path.read_text(encoding="utf-8"))
            out = workdir / f"out-{len(self.slots):02d}"
            argv = ("run", "--scenario", str(path), "--out", str(out), "--quiet")
            if smoke and scenario["pipeline"] == "appendix":
                argv += ("--steps", str(SMOKE_STEPS))
            self.slots.append(CliSlot(argv, out / f"{scenario['scenario_id']}.csv", scenario, None))
        self._first: dict[int, bytes] = {}
        self._size: dict[int, int] = {}

    def op(self, i: int):
        return cli.main(list(self.slots[i].argv))

    def bytes_written(self, i: int) -> int:
        return self._size.get(i, 0)

    def check(self, i: int, code) -> str | None:
        slot = self.slots[i]
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        data = slot.report.read_bytes()
        self._size[i] = len(data)
        # identical inputs must give byte-identical reports
        if self._first.setdefault(i, data) != data:
            return f"{slot.report.name} differs from the first run of the same inputs"
        reader = csv.DictReader(data.decode("utf-8").splitlines())
        if tuple(reader.fieldnames or ()) != tw.protocol.CSV_COLUMNS:
            return f"{slot.report.name}: wrong header {reader.fieldnames}"
        rows = list(reader)
        if slot.sweep is None:
            expected = [(slot.scenario["scenario_id"], None)]
        else:
            param, values = slot.sweep
            base = slot.scenario["scenario_id"]
            expected = [(f"{base}@{param}={v:.9g}", v) for v in values]
        if len(rows) != len(expected):
            return f"{slot.report.name}: {len(rows)} rows, expected {len(expected)}"
        for row, (scenario_id, value) in zip(rows, expected):
            problem = self._check_row(slot, row, scenario_id, value)
            if problem:
                return f"{slot.report.name} {scenario_id}: {problem}"
        return None

    def _check_row(self, slot, row, scenario_id, value) -> str | None:
        if row["scenario_id"] != scenario_id:
            return f"row is {row['scenario_id']!r}"
        nums = {k: float(row[k]) for k in ("beta", "alpha_final", "lhs", "rhs", "residual",
                                           "mean_work", "delta_F", "entropy_production")}
        bad = [k for k, v in nums.items() if not math.isfinite(v)]
        if bad:
            return f"non-finite {', '.join(bad)}"
        pipeline = row["pipeline"]
        tol = RESIDUAL_TOL[pipeline]
        if abs(nums["residual"]) > tol:
            return f"|residual| = {abs(nums['residual']):.3e} > {tol:g}"
        param = slot.sweep[0] if slot.sweep else None
        if param == "beta" and nums["beta"] != value:
            return f"beta {nums['beta']!r} is not the grid value {value!r}"
        if param == "alpha" and abs(nums["alpha_final"] - value) > 1e-12:
            return f"alpha_final {nums['alpha_final']!r} is not the grid value {value!r}"
        system = slot.scenario.get("system") or {}
        if pipeline == "dilated" and system.get("kind") == "harmonic":
            omega = value if param == "omega" else system["omega"]
            beta_omega, alpha = nums["beta"] * omega, nums["alpha_final"]
            if system["levels"] >= tw.levels_for_tail(beta_omega, alpha_min=alpha):
                analytic = tw.oscillator_delta_F_analytic(beta_omega, alpha)
                dev = abs(nums["beta"] * nums["delta_F"] - analytic)
                if dev > ANALYTIC_TOL:
                    return f"|beta dF - closed form| = {dev:.3e} > {ANALYTIC_TOL:g}"
        return None


# -------------------------------------------------------------------- verify

VERIFY_SMOKE = (
    "criterion_comoving_null",
    "criterion_potential_difference",
    "criterion_newtonian_limit",
)


class Verify(Workload):
    """Each op is one acceptance criterion; the battery's seeds are frozen."""

    name = "verify"

    def __init__(self, seed: int, smoke: bool = False):
        self.slots = [
            fn for fn in acceptance.ALL_CRITERIA if not smoke or fn.__name__ in VERIFY_SMOKE
        ]
        self.warmup = [fn.__name__ for fn in self.slots].index("criterion_comoving_null")

    def label(self, i: int) -> str:
        return f"acceptance.{self.slots[i].__name__}"

    def op(self, i: int):
        return self.slots[i]()

    def check(self, i: int, result) -> str | None:
        return None if result.passed else f"{result.name}: {result.detail}"


def make(name: str, seed: int, smoke: bool, workdir: Path, root: Path) -> Workload:
    if name == "flat-kraus":
        return FlatKraus(seed, smoke)
    if name == "driven-steps":
        return DrivenSteps(seed, smoke)
    if name == "cli-sweep":
        return CliSweep(seed, smoke, workdir, root)
    if name == "verify":
        return Verify(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
