#!/usr/bin/env python3
"""Proper-time-dependent internal Hamiltonian: the driven pipeline.

When the internal Hamiltonian changes along the worldline, the evolution is
a time-ordered product and the final measurement basis must be chosen. Two
readings are supported: the transported initial eigenbasis ('evolved', with
final energies read as expectation values of the laboratory-frame
Hamiltonian) and the eigenbasis of the final laboratory-frame Hamiltonian
('instantaneous'). The work equality holds exactly in either reading,
because the free-energy side is built from the same final energy list as
the work atoms. The propagator is the exact ordered product of one
exponential per segment, so the step count changes no number: each basis
prints the same row at 100, 1,000 and 10,000 steps (``steps`` is still
accepted, validated and reported).
"""

import numpy as np

from tauwork import (
    AppendixRun,
    HermitianOperator,
    PropagatorSchedule,
    dilation_profile,
    run_protocol,
    uniform_gravity_worldline,
)

prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=2001))
total = prof.tau_total
print(f"worldline: uniform-gravity ramp, tau_total = {total:.4f}, "
      f"alpha_final = {prof.alpha_final:.4f}")

sx = np.array([[0, 1], [1, 0]], dtype=complex)
sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
h1 = HermitianOperator(0.9 * np.diag([1.0, -1.0]).astype(complex) + 0.4 * sx + 0.6 * np.eye(2))
h2 = HermitianOperator(h1.matrix + 0.3 * sy)
bounds = [total / np.sqrt(2.0), total]
beta = 1.0

print("two-segment non-commuting drive, break at tau_total/sqrt(2)")
print()
print(f"{'steps':>7} {'basis':>14} {'dF':>12} {'<W>':>12} {'<Sigma>':>12} {'|lhs-rhs|':>10}")
for basis in ("evolved", "instantaneous"):
    for steps in (100, 1000, 10000):
        sched = PropagatorSchedule(list(zip(bounds, [h1, h2])), prof, steps)
        rep = run_protocol(AppendixRun(scenario_id="driven", beta=beta,
                                       schedule=sched, final_basis=basis))
        print(f"{steps:7d} {basis:>14} {rep.delta_F:12.8f} {rep.mean_work:12.8f} "
              f"{rep.entropy_production:12.8f} {abs(rep.residual):10.1e}")
    print()

print("the two bases disagree at finite driving (the transported basis is no")
print("longer an eigenbasis of the final Hamiltonian), but each is internally")
print("consistent: the equality residual is at rounding level for both. No")
print("number depends on the step count: the propagator is the exact product")
print("of one exponential per segment.")
