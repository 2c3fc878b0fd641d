"""Release-gate checks: every analytic identity the engine must reproduce.

Each criterion is a function returning a :class:`CriterionResult` built
from its :class:`Check` rows, so the same battery backs both ``tauwork
verify`` and the test suite. The numbers come from the code the CLI runs:
``protocol.run_protocol`` or its estimator tail ``protocol.estimate``.
Tolerances are fixed here, each in its check, not configurable: they encode
what "machine precision" means for each identity.
"""

from __future__ import annotations

import functools
import io
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import protocol, scenarios, spacetime, thermo
from .channels import (
    PropagatorSchedule,
    QuantumChannel,
    amplitude_damping_channel,
    unitary_channel,
)
from .operators import (
    HermitianOperator,
    random_hermitian,
    random_unitary,
    spectral_decompose,
)

SEED = 20260809


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class Check:
    """One measured value of a criterion and the bound it must meet.

    The check passes when ``value < bound``, or ``value >= bound`` for a
    ``lower`` bound. A check without a bound is a property that holds when
    ``value`` is true.
    """

    label: str
    value: float | bool
    bound: float | None = None
    lower: bool = False

    @property
    def passed(self) -> bool:
        if self.bound is None:
            return bool(self.value)
        return self.value >= self.bound if self.lower else self.value < self.bound

    def __str__(self) -> str:
        if self.bound is None:
            text = f"{self.label}: {self.value}"
        else:
            text = f"{self.label} = {self.value:.3e} ({'>=' if self.lower else '<'} {self.bound:g})"
        return text if self.passed else f"{text} FAILED"


def _criterion(name: str):
    """Make a function that returns ``Check`` rows a timed criterion: it passes
    when every check does, and its detail lists every check."""

    def decorate(checks_fn):
        @functools.wraps(checks_fn)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            checks = checks_fn()
            passed = all(check.passed for check in checks)
            detail = "; ".join(str(check) for check in checks)
            return CriterionResult(name, passed, detail, time.perf_counter() - t0)

        return criterion

    return decorate


def _dilated(gibbs: thermo.ThermalEnsemble, alpha: float) -> protocol.Estimates:
    """The dilated pipeline's estimators: every eigenvalue rescaled by ``alpha``."""
    return protocol.estimate(gibbs, alpha * gibbs.spectrum.eigenvalues)


def _random_grid(seed: int):
    """Estimators of 200 random systems (dim 2-8, energies measured from the
    ground state) x 3 temperatures x 5 clock rates, one ensemble per temperature."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        spec = spectral_decompose(random_hermitian(dim, rng))
        spec = spec.shifted(-spec.eigenvalues[0])
        for beta in (0.5, 1.0, 2.0):
            gibbs = thermo.thermal_state(spec, beta)
            for alpha in (0.5, 0.8, 1.0, 1.2, 1.5):
                yield _dilated(gibbs, alpha)


def _oscillator_grid():
    """``(beta * omega, alpha, estimators)`` on the 44-point oscillator grid."""
    for beta_omega in (0.5, 1.0, 2.0, 5.0):
        for alpha in [round(0.5 + 0.1 * k, 1) for k in range(11)]:
            levels = scenarios.levels_for_tail(beta_omega, alpha_min=alpha)
            spec = scenarios.harmonic_hamiltonian(1.0, levels)
            yield beta_omega, alpha, _dilated(thermo.thermal_state(spec, beta_omega), alpha)


@_criterion("dilated work identity (200 systems x 5 rates x 3 temperatures)")
def criterion_dilated_identity() -> list[Check]:
    """Exponential work average equals the rescaled-spectrum free-energy factor.

    The identity is algebraic, so the residual budget is pure rounding.
    """
    worst = max(abs(est.lhs - est.rhs) for est in _random_grid(SEED))
    return [Check("max |lhs - rhs|", worst, 1e-12)]


@_criterion("oscillator free energy vs closed form (44-point grid)")
def criterion_oscillator_closed_form() -> list[Check]:
    """Truncated-ladder free energies match the sinh closed form."""
    tol = 1e-7
    # ln(sinh(1.2) / sinh(1)), frozen so that the sinh formula is checked too
    frozen = 0.2503135073
    worst = 0.0
    spot = np.nan
    for beta_omega, alpha, est in _oscillator_grid():
        numeric = beta_omega * est.delta_f
        worst = max(worst, abs(numeric - scenarios.oscillator_delta_F_analytic(beta_omega, alpha)))
        if beta_omega == 2.0 and alpha == 1.2:
            spot = numeric
    return [
        Check("max |numeric - analytic|", worst, tol),
        Check(
            f"spot beta*dF(bo=2, a=1.2) {spot:.10f} vs {frozen}, |difference|",
            abs(spot - frozen),
            tol,
        ),
    ]


@_criterion("generalized work equality with non-unital correction")
def criterion_nonunital_correction() -> list[Check]:
    """Generalized equality with the unitality correction holds for damping
    and random channels; unitary channels have zero correction."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    cases = [(2, amplitude_damping_channel(gamma)) for gamma in (0.1, 0.5, 0.9)]
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        cases.append((dim, _random_channel(dim, rng)))
    for dim, channel in cases:
        h0 = random_hermitian(dim, rng)
        h_final = random_hermitian(dim, rng)
        beta = float(rng.uniform(0.2, 2.0))
        run = protocol.FlatRun("nonunital", beta, h0, h_final, channel)
        worst = max(worst, abs(protocol.run_protocol(run).residual))
    worst_unitary = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        channel = unitary_channel(random_unitary(dim, rng))
        g = np.max(np.abs(protocol.unitality_deviation(channel)))
        worst_unitary = max(worst_unitary, g)
    return [
        Check("max |lhs - rhs|", worst, 1e-10),
        Check("max |unitality deviation| over unitaries", worst_unitary, 1e-12),
    ]


def _random_channel(dim: int, rng: np.random.Generator) -> QuantumChannel:
    """Random CPTP map from a Haar isometry split into Kraus blocks."""
    n_kraus = int(rng.integers(1, 5))
    a = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return QuantumChannel([q[j * dim : (j + 1) * dim, :] for j in range(n_kraus)])


@_criterion("second law with time dilation (red- and blue-shift grids)")
def criterion_second_law() -> list[Check]:
    """Mean entropy production stays nonnegative across both sweep grids,
    including clock rates below 1."""
    oscillators = (est for _, _, est in _oscillator_grid())
    worst = min(est.entropy_production for est in chain(_random_grid(SEED + 2), oscillators))
    return [Check("min <Sigma>", worst, -1e-12, lower=True)]


def _oscillator_scenario(scenario_id: str, worldline: dict, **fields):
    """The config of a dilated run of the 40-level oscillator at beta = 2 along ``worldline``."""
    system = {"kind": "harmonic", "omega": 1.0, "levels": 40}
    raw = {"scenario_id": scenario_id, "pipeline": "dilated", "beta": 2.0, "system": system}
    raw.update(worldline=worldline, mass=1.0, **fields)
    return scenarios.ScenarioConfig.from_dict(raw)


@_criterion("comoving null result")
def criterion_comoving_null() -> list[Check]:
    """A clock comoving with the static observers produces nothing."""
    comoving = {"preset": "comoving", "t_end": 5.0, "samples": 11}
    report = scenarios.run_scenario(_oscillator_scenario("comoving-null", comoving))
    worst = max(
        abs(report.delta_F),
        abs(report.mean_work),
        abs(report.entropy_production),
        abs(report.lhs - 1.0),
        abs(report.rhs - 1.0),
    )
    return [Check("max |dF|, |<W>|, |<Sigma>|, |lhs-1|, |rhs-1|", worst, 1e-12)]


@_criterion("Newtonian limit c -> infinity")
def criterion_newtonian_limit() -> list[Check]:
    """Both dilation effects vanish as c grows: |<W>| decreases to rounding level."""
    ramp = {"preset": "uniform_gravity", "g": 0.02, "t_end": 10.0, "samples": 101, "p": 0.2}
    works = [
        abs(scenarios.run_scenario(_oscillator_scenario(f"newtonian-c-{c}", ramp, c=c)).mean_work)
        for c in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)
    ]
    return [
        Check(
            f"|<W>| decreasing from {works[0]:.3e} at c=1",
            all(a > b for a, b in zip(works, works[1:])),
        ),
        Check("|<W>| at c=1e6", works[-1], 1e-10),
    ]


@_criterion("potential difference read from mean work")
def criterion_potential_difference() -> list[Check]:
    """For a heavy particle at rest the relative mean work reads off the
    potential difference between the measurement points."""
    ramp = {"preset": "uniform_gravity", "g": 0.03, "t_end": 10.0, "samples": 101}
    ramp["gravitational_only"] = True
    report = scenarios.run_scenario(_oscillator_scenario("potential-read", ramp))
    spec = scenarios.harmonic_hamiltonian(1.0, 40)
    ratio = report.mean_work / thermo.thermal_state(spec, 2.0).mean_energy()
    phi_difference = 0.3
    return [
        Check(
            f"<W>/<E> {ratio!r} vs phi(q) - phi(p) {phi_difference}, |difference|",
            abs(ratio - phi_difference),
            1e-10,
        )
    ]


def _two_level_schedule_segments():
    """A generic weakly non-commuting five-segment drive (frozen parameters)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    base = 0.9 * sz + 0.4 * sx + 0.6 * np.eye(2)
    rng = np.random.default_rng(7)
    hams = [HermitianOperator(base)]
    for _ in range(4):
        inc = 0.03 * (rng.normal() * sx + rng.normal() * sy + rng.normal() * sz)
        hams.append(HermitianOperator(hams[-1].matrix + inc))
    return hams


def _ramp_profile():
    w = spacetime.uniform_gravity_worldline(0.02, 10.0, samples=2001)
    return spacetime.dilation_profile(w)


@_criterion("driven-pipeline convergence (constant + non-commuting schedules)")
def criterion_appendix_convergence() -> list[Check]:
    """Driven pipeline: constant drive reproduces the time-independent one at
    any step count; a non-commuting drive converges first order in steps."""
    prof = _ramp_profile()
    beta = 1.0
    h = scenarios.harmonic_hamiltonian(1.0, 3)

    dilated = protocol.run_protocol(
        protocol.DilatedRun(scenario_id="ref", beta=beta, h0=h, profile=prof)
    )
    worst_const = 0.0
    for steps in (1, 13, 1000):
        sched = PropagatorSchedule.constant(h, prof, steps=steps)
        rep = protocol.run_protocol(
            protocol.AppendixRun(scenario_id="const", beta=beta, schedule=sched)
        )
        worst_const = max(
            worst_const,
            abs(rep.lhs - dilated.lhs),
            abs(rep.delta_F - dilated.delta_F),
            abs(rep.mean_work - dilated.mean_work),
        )

    hams = _two_level_schedule_segments()
    total = prof.tau_total
    fracs = sorted([1 / np.sqrt(7), 1 / np.sqrt(3), 1 / np.sqrt(2), 1 / np.sqrt(1.44)])
    bounds = [f * total for f in fracs] + [total]

    def run_steps(steps: int):
        sched = PropagatorSchedule(list(zip(bounds, hams)), prof, steps)
        return protocol.run_protocol(
            protocol.AppendixRun(scenario_id="driven", beta=beta, schedule=sched)
        )

    reference = run_steps(320000).lhs
    step_grid = (1250, 2500, 5000, 10000)
    reports = [run_steps(n) for n in step_grid]
    errors = [abs(rep.lhs - reference) for rep in reports]
    tol_10k = 1e-6
    return [
        Check("constant-schedule max deviation", worst_const, 1e-10),
        Check("|lhs - rhs| at 1e4 steps", abs(reports[-1].residual), tol_10k),
        Check("error at 1e4 steps vs 3.2e5-step reference", errors[-1], tol_10k),
        Check(
            f"step-halving errors {['%.3e' % e for e in errors]} nonincreasing",
            all(a >= b * (1.0 - 1e-9) for a, b in zip(errors, errors[1:])),
        ),
        Check("total decrease", errors[0] / max(errors[-1], 1e-300), 4.0, lower=True),
    ]


@_criterion("Monte Carlo estimator consistency")
def criterion_monte_carlo() -> list[Check]:
    """Sampled work values reproduce the exact exponential average within
    4 standard errors, deterministically for a fixed seed."""
    beta = 2.0
    spec = scenarios.harmonic_hamiltonian(1.0, 40)
    est = _dilated(thermo.thermal_state(spec, beta), 1.2)
    wd = est.atoms
    n = 100_000
    draws = protocol.sample_outcomes(wd, n, seed=SEED)
    weights = np.exp(-beta * draws)
    estimate = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n))
    again = protocol.sample_outcomes(wd, n, seed=SEED)
    buf1, buf2 = io.StringIO(), io.StringIO()
    for buf in (buf1, buf2):
        np.savetxt(buf, protocol.sample_outcomes(wd, 1000, seed=SEED))
    reproducible = bool(np.array_equal(draws, again)) and buf1.getvalue() == buf2.getvalue()
    return [
        Check("|estimate - exact| vs 4*stderr", abs(estimate - est.lhs), 4 * stderr),
        Check("fixed-seed reproducible", reproducible),
    ]


ALL_CRITERIA = (
    criterion_dilated_identity,
    criterion_oscillator_closed_form,
    criterion_nonunital_correction,
    criterion_second_law,
    criterion_comoving_null,
    criterion_newtonian_limit,
    criterion_potential_difference,
    criterion_appendix_convergence,
    criterion_monte_carlo,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
