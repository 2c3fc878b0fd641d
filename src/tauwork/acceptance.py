"""Release-gate checks: every analytic identity the engine must reproduce.

Each criterion is a function returning a :class:`CriterionResult` built
from its :class:`Check` rows, so the same battery backs both ``tauwork
verify`` and the test suite. The numbers come from the code the CLI runs:
``protocol.run_protocol`` or its estimator tail ``protocol.estimate``. Per
dimension, the random grids decompose their systems in one ``eigh`` call and
call the tail once, for a stack of 15 runs per system, and get one column per
estimator, entry i bit for bit run i alone. The estimators are sums over each
run's sorted, unmerged atoms; criterion 9 draws from ``atoms.row()``, the
merged atoms as a one-run ``WorkRows``, and compares its draws as bytes.
Each criterion folds its values with numpy, which keeps a nan that Python's
``max`` and ``min`` drop. Tolerances are fixed here, each in its check, not
configurable: they encode what "machine precision" means for each identity.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import protocol, scenarios, spacetime, thermo
from .channels import (
    PropagatorSchedule,
    QuantumChannel,
    amplitude_damping_channel,
    time_ordered_propagator,
    unitary_channel,
)
from .operators import (
    HermitianOperator,
    random_hermitian,
    random_unitary,
    stacked_eigenvalues,
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
    return protocol.estimate(gibbs, alpha * gibbs.energies)


def _random_grid(seed: int):
    """Estimators of 200 random systems (dim 2-8, energies measured from the
    ground state) x 3 temperatures x 5 clock rates.

    The systems are drawn first, then each dimension is one ``eigh`` call on
    its systems' stack, one stacked ensemble and one ``estimate`` call, 7 of
    each: its systems in draw order, each repeated as 15 (beta, alpha) rows,
    and yields its ``Estimates`` of columns. The oscillator grid stays one
    call per point: its ladder size changes with alpha.
    """
    rng = np.random.default_rng(seed)
    betas, alphas = np.repeat([0.5, 1.0, 2.0], 5), np.tile([0.5, 0.8, 1.0, 1.2, 1.5], 3)
    by_dim: dict[int, list] = {}
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        by_dim.setdefault(dim, []).append(random_hermitian(dim, rng))
    for _, systems in sorted(by_dim.items()):
        levels = stacked_eigenvalues(systems)
        levels = np.repeat(levels - levels[:, :1], 15, 0)
        gibbs = thermo.ThermalEnsemble(np.tile(betas, len(systems)), levels)
        yield protocol.estimate(gibbs, np.tile(alphas, len(systems))[:, None] * gibbs.energies)


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
    worst = np.max(np.abs(np.concatenate([est.residual for est in _random_grid(SEED)])))
    return [Check("max |lhs - rhs|", float(worst), 1e-12)]


@_criterion("oscillator free energy vs closed form (44-point grid)")
def criterion_oscillator_closed_form() -> list[Check]:
    """Truncated-ladder free energies match the sinh closed form."""
    tol = 1e-7
    # ln(sinh(1.2) / sinh(1)), frozen so that the sinh formula is checked too
    frozen = 0.2503135073
    misses = []
    spot = np.nan
    for beta_omega, alpha, est in _oscillator_grid():
        numeric = beta_omega * est.delta_f
        misses.append(numeric - scenarios.oscillator_delta_F_analytic(beta_omega, alpha))
        if beta_omega == 2.0 and alpha == 1.2:
            spot = numeric
    return [
        Check("max |numeric - analytic|", float(np.max(np.abs(misses))), tol),
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
    residuals = []
    cases = [(2, amplitude_damping_channel(gamma)) for gamma in (0.1, 0.5, 0.9)]
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        cases.append((dim, _random_channel(dim, rng)))
    for dim, channel in cases:
        h0 = random_hermitian(dim, rng)
        h_final = random_hermitian(dim, rng)
        beta = float(rng.uniform(0.2, 2.0))
        run = protocol.FlatRun("nonunital", beta, h0, h_final, channel)
        residuals.append(protocol.run_protocol(run).residual)
    deviations = []
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        channel = unitary_channel(random_unitary(dim, rng))
        deviations.append(np.max(np.abs(protocol.unitality_deviation(channel))))
    return [
        Check("max |lhs - rhs|", float(np.max(np.abs(residuals))), 1e-10),
        Check("max |unitality deviation| over unitaries", float(np.max(deviations)), 1e-12),
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
    grids = [est.entropy_production for est in _random_grid(SEED + 2)]
    oscillators = [est.entropy_production for _, _, est in _oscillator_grid()]
    worst = np.min(np.concatenate([*grids, oscillators]))
    return [Check("min <Sigma>", float(worst), -1e-12, lower=True)]


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
    values = (report.delta_F, report.mean_work, report.entropy_production)
    worst = np.max(np.abs([*values, report.lhs - 1.0, report.rhs - 1.0]))
    return [Check("max |dF|, |<W>|, |<Sigma>|, |lhs-1|, |rhs-1|", float(worst), 1e-12)]


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


@_criterion("driven-pipeline exactness (constant + non-commuting schedules)")
def criterion_appendix_convergence() -> list[Check]:
    """Driven pipeline: a constant drive reproduces the time-independent one,
    and a non-commuting drive is the ordered product of its segments' closed
    forms, at every step count."""
    prof = _ramp_profile()
    beta = 1.0
    h = scenarios.harmonic_hamiltonian(1.0, 3)

    dilated = protocol.run_protocol(
        protocol.DilatedRun(scenario_id="ref", beta=beta, h0=h, profile=prof)
    )
    deviations = []
    for steps in (1, 13, 1000):
        sched = PropagatorSchedule.constant(h, prof, steps=steps)
        rep = protocol.run_protocol(
            protocol.AppendixRun(scenario_id="const", beta=beta, schedule=sched)
        )
        deviations += [rep.lhs - dilated.lhs, rep.delta_F - dilated.delta_F,
                       rep.mean_work - dilated.mean_work]

    hams = _two_level_schedule_segments()
    total = prof.tau_total
    fracs = sorted([1 / np.sqrt(7), 1 / np.sqrt(3), 1 / np.sqrt(2), 1 / np.sqrt(1.44)])
    bounds = [f * total for f in fracs] + [total]
    exact = np.eye(2)
    for ham, d_tau in zip(hams, np.diff(bounds, prepend=0.0)):
        # exp(-i H t), H = a + n.sigma, no eigensolver: e^(-i a t) (cos|n|t - i sin|n|t n.sigma/|n|)
        a = 0.5 * np.trace(ham.matrix).real
        n_sigma = ham.matrix - a * np.eye(2)
        x = np.sqrt(0.5 * np.sum(np.abs(n_sigma) ** 2)) * d_tau  # |n| t: |n.sigma|_F^2 = 2 |n|^2
        rotation = np.cos(x) * np.eye(2) - 1j * np.sin(x) * d_tau / x * n_sigma
        exact = np.exp(-1j * a * d_tau) * rotation @ exact
    grid = [PropagatorSchedule(list(zip(bounds, hams)), prof, n) for n in (1, 1250, 10**4, 320000)]
    u_error = np.max([np.abs(time_ordered_propagator(s) - exact) for s in grid])
    reports = [protocol.run_protocol(protocol.AppendixRun("driven", beta, s)) for s in grid]
    at_10k, reference = reports[2:]
    return [
        Check("constant-schedule max deviation", float(np.max(np.abs(deviations))), 1e-10),
        Check("|lhs - rhs| at 1e4 steps", abs(at_10k.residual), 1e-6),
        Check("error at 1e4 steps vs 3.2e5-step reference", abs(at_10k.lhs - reference.lhs), 1e-6),
        Check("max |U - closed-form segment product| at 1 to 3.2e5 steps", float(u_error), 1e-13),
        # compared as bytes, which also tell -0.0 from 0.0
        Check("lhs bit-identical at 1 to 3.2e5 steps", len({r.lhs.hex() for r in reports}) == 1),
    ]


@_criterion("Monte Carlo estimator consistency")
def criterion_monte_carlo() -> list[Check]:
    """Sampled work values reproduce the exact exponential average within
    4 standard errors, deterministically for a fixed seed."""
    beta = 2.0
    spec = scenarios.harmonic_hamiltonian(1.0, 40)
    est = _dilated(thermo.thermal_state(spec, beta), 1.2)
    wd = est.atoms.row()
    n = 100_000
    draws = protocol.sample_outcomes(wd, n, seed=SEED)
    weights = np.exp(-beta * draws)
    estimate = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n))
    again = protocol.sample_outcomes(wd, n, seed=SEED)
    short = [protocol.sample_outcomes(wd, 1000, seed=SEED).tobytes() for _ in range(2)]
    # bytes, not text: they also tell -0.0 from 0.0 and one nan payload from another
    reproducible = draws.tobytes() == again.tobytes() and short[0] == short[1]
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
