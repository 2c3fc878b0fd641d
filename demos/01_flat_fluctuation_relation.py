#!/usr/bin/env python3
"""Flat-spacetime work statistics for a driven two-level system.

Walks through the two-point-measurement protocol on a two-level system:
thermal preparation, a projective energy measurement, evolution through a
quantum channel, and a second measurement. For unitary (more generally,
unital) channels the exponential work average lands exactly on the
free-energy factor; for a non-unital channel (amplitude damping) the
correction term Tr[(Theta(1) - 1) w_final] restores the equality.
"""

import numpy as np

from tauwork import (
    FlatRun,
    amplitude_damping_channel,
    conditional_probabilities,
    estimate,
    run_protocol,
    thermal_state,
    two_level_hamiltonian,
    unitary_channel,
)

beta = 1.0
spec = two_level_hamiltonian(1.0)

print("two-level system, gap 1.0, beta = 1.0")
print()

# --- a unitary drive: the classic equality -------------------------------
sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
flip = unitary_channel(sigma_x)
# the estimator tail, fed the flat pipeline's inputs: the initial Gibbs
# ensemble, the final energies and the channel's transition matrix between the bases
gibbs = thermal_state(spec, beta)
est = estimate(gibbs, spec.eigenvalues, conditional_probabilities(spec, spec, flip))
# est.atoms holds the sorted atoms the estimators sum; row() merges them into a
# one-run WorkRows, the same record, without the zero-weight atoms
wd = est.atoms.row()
atoms = [(round(float(w), 6), round(float(p), 6)) for w, p in zip(wd.values, wd.probs)]
print("deterministic spin flip (unitary, hence unital):")
print(f"  work atoms        : {atoms}")
print(f"  <e^-bW>           : {est.lhs:.12f}")
print(f"  e^-b dF           : {est.rhs:.12f}")
print(f"  residual          : {est.lhs - est.rhs:.3e}")
print(f"  <W>               : {est.mean_work:.6f}  (positive: the drive pumps energy in)")
print(f"  <Sigma>           : {est.entropy_production:.6f}")
print()

# --- amplitude damping: a non-unital channel ------------------------------
print("amplitude damping, gamma sweep (non-unital):")
print(f"  {'gamma':>6} {'<e^-bW>':>14} {'rhs w/ correction':>18} {'residual':>10} {'<Sigma>':>10}")
for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
    # the whole flat pipeline, as `tauwork run` executes it
    rep = run_protocol(FlatRun("damping", beta, spec, spec, amplitude_damping_channel(gamma)))
    print(
        f"  {gamma:6.1f} {rep.lhs:14.10f} {rep.rhs:18.10f} {rep.residual:10.1e} "
        f"{rep.entropy_production:10.6f}"
    )
print()
print("the correction term grows with gamma; without it the damping channel")
print("would appear to violate the equality.")
