"""Release-gate battery: one test per criterion, with printed residuals.

Run with ``pytest tests/test_acceptance.py -s`` to see the measured numbers,
or use ``tauwork verify`` for the same battery outside pytest.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tauwork import acceptance, protocol, scenarios, spacetime, thermo
from tauwork.acceptance import Check
from tauwork.operators import random_hermitian, spectral_decompose
from test_protocol import bits, ground_at_zero

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


@pytest.fixture(scope="module")
def battery():
    """One timed run of the whole battery: (results by criterion, seconds)."""
    start = time.perf_counter()
    results = acceptance.run_all()
    elapsed = time.perf_counter() - start
    return dict(zip(acceptance.ALL_CRITERIA, results)), elapsed


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda fn: fn.__name__
)
def test_criterion(criterion, battery):
    result = battery[0][criterion]
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_battery_runs_in_budget(battery):
    results, elapsed = battery
    assert all(r.passed for r in results.values())
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"


def test_injected_fault_is_caught(monkeypatch):
    # flip the sign of the potential term in the clock-rate formula that
    # dilation_factor and dilation_profile share; the potential-difference
    # criterion must notice
    def broken(phi, p, mass, column, c):
        return 1.0 - phi / c**2 - p * p / (2.0 * mass * mass * c * c)

    monkeypatch.setattr(spacetime, "_rates", broken)
    result = acceptance.criterion_potential_difference()
    assert not result.passed


@pytest.mark.parametrize(
    "criterion",
    [
        acceptance.criterion_dilated_identity,
        acceptance.criterion_nonunital_correction,
        acceptance.criterion_second_law,
    ],
    ids=lambda fn: fn.__name__,
)
def test_gate_checks_the_production_tail(criterion, monkeypatch):
    # a dF off by 1e-6 inside the estimator tail that run_protocol uses must
    # fail the criteria built on lhs - rhs and on the entropy production
    original = protocol.free_energy_difference_from_log_z
    shapes = []

    def shifted(final_evals, log_z, beta):
        shapes.append(np.shape(final_evals))
        return original(final_evals, log_z, beta) + 1e-6

    monkeypatch.setattr(protocol, "free_energy_difference_from_log_z", shifted)
    tail, calls = protocol.estimate, []

    def spy(gibbs, *args):
        calls.append((gibbs, *args, tail(gibbs, *args)))
        return calls[-1][-1]

    monkeypatch.setattr(protocol, "estimate", spy)
    assert not criterion().passed
    # the random grids reach the tail as one stack per dimension (2-8), 3,000
    # (system, beta, alpha) rows in all, and get back one Estimates of columns per
    # stack, each entry its run alone; the flat runs one run at a time
    stacks = [shape for shape in shapes if len(shape) == 2]
    stacked = [call for call in calls if call[0].energies.ndim == 2]
    if criterion is acceptance.criterion_nonunital_correction:
        assert not stacks and shapes and not stacked
    else:
        assert sorted(dim for _, dim in stacks) == list(range(2, 9))
        assert sum(rows for rows, _ in stacks) == 3000
        assert len(stacked) == 7
        for gibbs, finals, est in stacked:
            for i in (0, len(finals) // 2, len(finals) - 1):
                alone = thermo.ThermalEnsemble(float(gibbs.beta[i]), gibbs.energies[i])
                assert bits(est, i) == bits(tail(alone, finals[i]))


def test_grid_rows_are_each_system_alone():
    # the grid groups its systems by dimension; a system rebuilt alone from the
    # same rng stream gives, bit for bit, the 15 rows the grid yields for it. A
    # row paired with another system's ensemble would pass the criteria's max()
    rng = np.random.default_rng(acceptance.SEED)
    systems = []
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        spec = spectral_decompose(random_hermitian(dim, rng))
        systems.append(ground_at_zero(spec))
    # the grid's order: dimensions ascending, systems in draw order within each;
    # the grid yields one stacked Estimates per dimension, one entry per row
    order = sorted(range(200), key=lambda k: systems[k].dim)
    stacks = list(acceptance._random_grid(acceptance.SEED))
    assert [est.atoms.values.shape[1] for est in stacks] == list(range(2, 9))
    grid = [(est, i) for est in stacks for i in range(len(est.beta))]
    assert len(grid) == 3000
    for k in (0, 1, 57, 123, 199):
        at, spec = 15 * order.index(k), systems[k]
        alone = [
            protocol.estimate(thermo.thermal_state(spec, beta), alpha * spec.eigenvalues)
            for beta in (0.5, 1.0, 2.0)
            for alpha in (0.5, 0.8, 1.0, 1.2, 1.5)
        ]
        assert [bits(est, i) for est, i in grid[at : at + 15]] == [bits(est) for est in alone]


@pytest.mark.parametrize(
    "criterion, owner, name, call, field, row",
    [
        (acceptance.criterion_dilated_identity, protocol, "estimate", 3, "lhs", 7),
        (acceptance.criterion_second_law, protocol, "estimate", 3, "mean_work", 7),
        (acceptance.criterion_oscillator_closed_form, protocol, "estimate", 5, "delta_f", None),
        (acceptance.criterion_nonunital_correction, protocol, "run_protocol", 5, "residual", None),
        (acceptance.criterion_comoving_null, scenarios, "run_scenario", 1, "mean_work", None),
        (acceptance.criterion_appendix_convergence, protocol, "run_protocol", 3, "lhs", None),
    ],
    ids=["dilated_identity", "second_law", "oscillator_closed_form", "nonunital_correction",
         "comoving_null", "appendix_convergence"],
)
def test_a_nan_fails_its_criterion(criterion, owner, name, call, field, row, monkeypatch):
    # a nan that is not the first value a criterion folds: Python's max and min
    # would drop it and pass. It is one field of one call's result, or one entry
    # of a stack's column (row 7 of the third stack of a random grid)
    original, seen = getattr(owner, name), []

    def spy(*args):
        result = original(*args)
        seen.append(result)
        if len(seen) != call:
            return result
        value = np.nan
        if row is not None:
            value = getattr(result, field).copy()
            value[row] = np.nan
        return dataclasses.replace(result, **{field: value})

    monkeypatch.setattr(owner, name, spy)
    result = criterion()
    assert len(seen) >= call
    assert not result.passed and "nan" in result.detail


def test_report_and_gate_read_residual_and_production_from_estimates(monkeypatch):
    # Estimates holds the only copy of lhs - rhs and of beta (<W> - dF): a
    # shift of either moves that report column, and nothing else, in every
    # pipeline and final basis, and fails the criteria that read it. The
    # shift is downward so that the lower bound on <Sigma> sees it too.
    shift = -1e-6
    docs = [
        json.loads((DEMO_SCENARIOS / f"{name}.json").read_text())
        for name in ("flat_damping", "oscillator_blueshift", "driven_two_segment")
    ]
    docs.append(dict(docs[-1], final_basis="instantaneous"))
    runs = [scenarios.build_scenario(scenarios.ScenarioConfig.from_dict(d)) for d in docs]
    plain = [next(protocol.report_rows([run])) for run in runs]
    for name in ("residual", "entropy_production"):
        exact = getattr(protocol.Estimates, name).fget
        monkeypatch.setattr(
            protocol.Estimates, name, property(lambda est, exact=exact: exact(est) + shift)
        )
    for before, run in zip(plain, runs):
        after = next(protocol.report_rows([run]))
        assert after.residual == before.residual + shift
        assert after.entropy_production == before.entropy_production + shift
        restored = dataclasses.replace(
            after, residual=before.residual, entropy_production=before.entropy_production
        )
        assert restored == before
    assert not acceptance.criterion_dilated_identity().passed
    assert not acceptance.criterion_second_law().passed


def test_one_failing_check_fails_its_criterion():
    checks = [
        Check("max |lhs - rhs|", 1e-14, 1e-12),
        Check("min <Sigma>", -1e-9, -1e-12, lower=True),
        Check("reproducible", True),
    ]
    result = acceptance._criterion("demo")(lambda: checks)()
    assert result.name == "demo" and not result.passed
    assert "min <Sigma> = -1.000e-09 (>= -1e-12) FAILED" in result.detail
    assert result.detail.count("FAILED") == 1
    assert acceptance._criterion("demo")(lambda: checks[::2])().passed
    assert not acceptance._criterion("demo")(lambda: [Check("monotone", False)])().passed
