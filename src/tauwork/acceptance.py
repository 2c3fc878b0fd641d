"""Release-gate checks: every analytic identity the engine must reproduce.

Each criterion is a function returning a :class:`CriterionResult` with the
measured residuals, so the same battery backs both ``tauwork verify`` and
the test suite. Tolerances are fixed here, not configurable: they encode
what "machine precision" means for each identity.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

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


def _result(name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(name, bool(passed), detail, time.perf_counter() - t0)


def _ground_shifted_spectrum(h: HermitianOperator):
    """Spectrum with the ground energy moved to zero (choice of energy origin)."""
    spec = spectral_decompose(h)
    return spec.shifted(-spec.eigenvalues[0])


def criterion_dilated_identity() -> CriterionResult:
    """Exponential work average equals the rescaled-spectrum free-energy factor.

    200 random systems (dim 2-8, energies measured from the ground state) x
    5 clock rates x 3 temperatures; the identity is algebraic, so the
    residual budget is pure rounding.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        spec = _ground_shifted_spectrum(random_hermitian(dim, rng))
        for alpha in (0.5, 0.8, 1.0, 1.2, 1.5):
            for beta in (0.5, 1.0, 2.0):
                wd = protocol.work_distribution_dilated(spec, alpha, beta)
                lhs = protocol.jarzynski_lhs(wd, beta)
                rhs = float(np.exp(-beta * thermo.free_energy_difference(spec, alpha, beta)))
                worst = max(worst, abs(lhs - rhs))
    return _result(
        "dilated work identity (200 systems x 5 rates x 3 temperatures)",
        worst < 1e-12,
        f"max |lhs - rhs| = {worst:.3e} (tol 1e-12)",
        t0,
    )


def criterion_oscillator_closed_form() -> CriterionResult:
    """Truncated-ladder free energies match the sinh closed form to 1e-7."""
    t0 = time.perf_counter()
    worst = 0.0
    spot = None
    alphas = [round(0.5 + 0.1 * k, 1) for k in range(11)]
    for beta_omega in (0.5, 1.0, 2.0, 5.0):
        for alpha in alphas:
            levels = scenarios.levels_for_tail(beta_omega, alpha_min=alpha)
            spec = spectral_decompose(scenarios.harmonic_hamiltonian(1.0, levels))
            numeric = beta_omega * thermo.free_energy_difference(spec, alpha, beta_omega)
            analytic = scenarios.oscillator_delta_F_analytic(beta_omega, alpha)
            worst = max(worst, abs(numeric - analytic))
            if beta_omega == 2.0 and alpha == 1.2:
                spot = numeric
    # frozen spot value computed from the sinh formula: ln(sinh(1.2)/sinh(1))
    spot_ok = spot is not None and abs(spot - 0.2503135073) < 1e-7
    return _result(
        "oscillator free energy vs closed form (44-point grid)",
        worst < 1e-7 and spot_ok,
        f"max |numeric - analytic| = {worst:.3e} (tol 1e-7); "
        f"spot beta*dF(bo=2, a=1.2) = {spot:.10f} vs 0.2503135073",
        t0,
    )


def criterion_nonunital_correction() -> CriterionResult:
    """Generalized equality with the unitality correction holds for damping
    and random channels; unitary channels have zero correction."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    cases = []
    for gamma in (0.1, 0.5, 0.9):
        cases.append((2, amplitude_damping_channel(gamma)))
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        cases.append((dim, _random_channel(dim, rng)))
    for dim, channel in cases:
        h0 = random_hermitian(dim, rng)
        h_final = random_hermitian(dim, rng)
        beta = float(rng.uniform(0.2, 2.0))
        wd = protocol.work_distribution_flat(h0, h_final, channel, beta)
        lhs = protocol.jarzynski_lhs(wd, beta)
        delta_f = thermo.free_energy_difference_from_values(
            spectral_decompose(h_final).eigenvalues,
            spectral_decompose(h0).eigenvalues,
            beta,
        )
        rhs = protocol.generalized_jarzynski_rhs(h_final, channel, beta, delta_f)
        worst = max(worst, abs(lhs - rhs))
    worst_unitary = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        channel = unitary_channel(random_unitary(dim, rng))
        g = np.max(np.abs(protocol.unitality_deviation(channel)))
        worst_unitary = max(worst_unitary, g)
    return _result(
        "generalized work equality with non-unital correction",
        worst < 1e-10 and worst_unitary < 1e-12,
        f"max |lhs - rhs| = {worst:.3e} (tol 1e-10); "
        f"max |unitality deviation| over unitaries = {worst_unitary:.3e} (tol 1e-12)",
        t0,
    )


def _random_channel(dim: int, rng: np.random.Generator) -> QuantumChannel:
    """Random CPTP map from a Haar isometry split into Kraus blocks."""
    n_kraus = int(rng.integers(1, 5))
    a = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return QuantumChannel([q[j * dim : (j + 1) * dim, :] for j in range(n_kraus)])


def criterion_second_law() -> CriterionResult:
    """Mean entropy production stays nonnegative across both sweep grids,
    including clock rates below 1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    worst = np.inf
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        spec = _ground_shifted_spectrum(random_hermitian(dim, rng))
        for alpha in (0.5, 0.8, 1.0, 1.2, 1.5):
            for beta in (0.5, 1.0, 2.0):
                wd = protocol.work_distribution_dilated(spec, alpha, beta)
                delta_f = thermo.free_energy_difference(spec, alpha, beta)
                sigma = protocol.entropy_production(wd.mean(), delta_f, beta)
                worst = min(worst, sigma)
    for beta_omega in (0.5, 1.0, 2.0, 5.0):
        for alpha in [round(0.5 + 0.1 * k, 1) for k in range(11)]:
            levels = scenarios.levels_for_tail(beta_omega, alpha_min=alpha)
            spec = spectral_decompose(scenarios.harmonic_hamiltonian(1.0, levels))
            wd = protocol.work_distribution_dilated(spec, alpha, beta_omega)
            delta_f = thermo.free_energy_difference(spec, alpha, beta_omega)
            sigma = protocol.entropy_production(wd.mean(), delta_f, beta_omega)
            worst = min(worst, sigma)
    return _result(
        "second law with time dilation (red- and blue-shift grids)",
        worst >= -1e-12,
        f"min <Sigma> = {worst:.3e} (tol -1e-12)",
        t0,
    )


def criterion_comoving_null() -> CriterionResult:
    """A clock comoving with the static observers produces nothing."""
    t0 = time.perf_counter()
    report = scenarios.run_scenario(
        {
            "scenario_id": "comoving-null",
            "pipeline": "dilated",
            "beta": 2.0,
            "system": {"kind": "harmonic", "omega": 1.0, "levels": 40},
            "worldline": {"preset": "comoving", "t_end": 5.0, "samples": 11},
            "mass": 1.0,
        }
    )
    worst = max(
        abs(report.delta_F),
        abs(report.mean_work),
        abs(report.entropy_production),
        abs(report.lhs - 1.0),
        abs(report.rhs - 1.0),
    )
    return _result(
        "comoving null result",
        worst < 1e-12,
        f"max |dF|, |<W>|, |<Sigma>|, |lhs-1|, |rhs-1| = {worst:.3e} (tol 1e-12)",
        t0,
    )


def _newtonian_limit_scenario(c: float) -> dict:
    return {
        "scenario_id": f"newtonian-c-{c}",
        "pipeline": "dilated",
        "beta": 2.0,
        "system": {"kind": "harmonic", "omega": 1.0, "levels": 40},
        "worldline": {
            "preset": "uniform_gravity",
            "g": 0.02,
            "t_end": 10.0,
            "samples": 101,
            "p": 0.2,
        },
        "mass": 1.0,
        "c": c,
    }


def criterion_newtonian_limit() -> CriterionResult:
    """Both dilation effects vanish as c grows: |<W>| decreases to < 1e-10."""
    t0 = time.perf_counter()
    cs = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    works = [abs(scenarios.run_scenario(_newtonian_limit_scenario(c)).mean_work) for c in cs]
    monotone = all(a > b for a, b in zip(works, works[1:]))
    return _result(
        "Newtonian limit c -> infinity",
        monotone and works[-1] < 1e-10,
        f"|<W>| from {works[0]:.3e} down to {works[-1]:.3e}, "
        f"monotone={monotone} (tol 1e-10 at c=1e6)",
        t0,
    )


def criterion_potential_difference() -> CriterionResult:
    """For a heavy particle at rest the relative mean work reads off the
    potential difference between the measurement points."""
    t0 = time.perf_counter()
    report = scenarios.run_scenario(
        {
            "scenario_id": "potential-read",
            "pipeline": "dilated",
            "beta": 2.0,
            "system": {"kind": "harmonic", "omega": 1.0, "levels": 40},
            "worldline": {
                "preset": "uniform_gravity",
                "g": 0.03,
                "t_end": 10.0,
                "samples": 101,
                "gravitational_only": True,
            },
            "mass": 1.0,
        }
    )
    spec = spectral_decompose(scenarios.harmonic_hamiltonian(1.0, 40))
    mean_energy = thermo.thermal_state(spec, 2.0).mean_energy()
    ratio = report.mean_work / mean_energy
    return _result(
        "potential difference read from mean work",
        abs(ratio - 0.3) < 1e-10,
        f"<W>/<E> = {ratio!r} vs phi(q) - phi(p) = 0.3 (tol 1e-10)",
        t0,
    )


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


def criterion_appendix_convergence() -> CriterionResult:
    """Driven pipeline: constant drive reproduces the time-independent one at
    any step count; a non-commuting drive converges first order in steps."""
    t0 = time.perf_counter()
    prof = _ramp_profile()
    beta = 1.0
    h = HermitianOperator.diagonal([0.5, 1.5, 2.5])

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
    residual_10k = abs(reports[-1].residual)
    nonincreasing = all(a >= b * (1.0 - 1e-9) for a, b in zip(errors, errors[1:]))
    first_order = errors[0] / max(errors[-1], 1e-300) >= 4.0
    ok = (
        worst_const < 1e-10
        and residual_10k < 1e-6
        and errors[-1] < 1e-6
        and nonincreasing
        and first_order
    )
    return _result(
        "driven-pipeline convergence (constant + non-commuting schedules)",
        ok,
        f"constant-schedule max deviation = {worst_const:.3e} (tol 1e-10); "
        f"|lhs - rhs| at 1e4 steps = {residual_10k:.3e} (tol 1e-6); "
        f"step-halving errors {['%.3e' % e for e in errors]} vs 3.2e5-step reference "
        f"(nonincreasing={nonincreasing}, "
        f"total decrease x{errors[0] / max(errors[-1], 1e-300):.1f})",
        t0,
    )


def criterion_monte_carlo() -> CriterionResult:
    """Sampled work values reproduce the exact exponential average within
    4 standard errors, deterministically for a fixed seed."""
    t0 = time.perf_counter()
    beta = 2.0
    spec = spectral_decompose(scenarios.harmonic_hamiltonian(1.0, 40))
    wd = protocol.work_distribution_dilated(spec, 1.2, beta)
    exact = protocol.jarzynski_lhs(wd, beta)
    n = 100_000
    draws = protocol.sample_outcomes(wd, n, seed=SEED)
    weights = np.exp(-beta * draws)
    estimate = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n))
    again = protocol.sample_outcomes(wd, n, seed=SEED)
    reproducible = bool(np.array_equal(draws, again))
    buf1, buf2 = io.StringIO(), io.StringIO()
    for buf in (buf1, buf2):
        np.savetxt(buf, protocol.sample_outcomes(wd, 1000, seed=SEED))
    byte_identical = buf1.getvalue() == buf2.getvalue()
    dev = abs(estimate - exact)
    return _result(
        "Monte Carlo estimator consistency",
        dev < 4 * stderr and reproducible and byte_identical,
        f"|estimate - exact| = {dev:.3e} vs 4*stderr = {4 * stderr:.3e}; "
        f"fixed-seed reproducible={reproducible and byte_identical}",
        t0,
    )


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
