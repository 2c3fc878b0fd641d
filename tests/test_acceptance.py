"""Release-gate battery: one test per criterion, with printed residuals.

Run with ``pytest tests/test_acceptance.py -s`` to see the measured numbers,
or use ``tauwork verify`` for the same battery outside pytest.
"""

import time

import pytest

from tauwork import acceptance, spacetime


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
    # flip the sign of the potential term in the clock-rate formula; the
    # potential-difference criterion must notice
    def broken(phi, p, mass, c=1.0):
        return 1.0 - phi / c**2 - p * p / (2.0 * mass * mass * c * c)

    monkeypatch.setattr(spacetime, "dilation_factor", broken)
    result = acceptance.criterion_potential_difference()
    assert not result.passed
