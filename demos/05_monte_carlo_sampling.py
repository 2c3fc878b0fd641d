#!/usr/bin/env python3
"""Monte Carlo sampling of the exact work distribution.

The protocol produces an exact discrete distribution, so sampling is only a
front-end (for interfacing with estimators that expect trajectories). This
script draws work values for the blue-shifted oscillator and watches the
empirical exponential average converge to the exact atom sum at the
expected 1/sqrt(n) rate.
"""

import numpy as np

from tauwork import (
    estimate,
    harmonic_hamiltonian,
    sample_outcomes,
    thermal_state,
)

beta, alpha = 2.0, 1.2
spec = harmonic_hamiltonian(1.0, 40)
est = estimate(thermal_state(spec, beta), alpha * spec.eigenvalues)
wd, exact = est.atoms, est.lhs

print(f"oscillator, beta*omega = 2, alpha = {alpha}: {wd.size} work atoms")
print(f"exact <e^-bW> = {exact:.12f}")
print()
print(f"{'n':>9} {'estimate':>14} {'|err|':>10} {'4*stderr':>10}")
for n in (100, 1000, 10_000, 100_000, 1_000_000):
    draws = sample_outcomes(wd, n, seed=42)
    weights = np.exp(-beta * draws)
    est = weights.mean()
    se = weights.std(ddof=1) / np.sqrt(n)
    print(f"{n:9d} {est:14.10f} {abs(est - exact):10.2e} {4 * se:10.2e}")

print()
again = sample_outcomes(wd, 1000, seed=42)
print(f"fixed seed is reproducible: {np.array_equal(sample_outcomes(wd, 1000, seed=42), again)}")
