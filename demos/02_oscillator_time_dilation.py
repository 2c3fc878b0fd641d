#!/usr/bin/env python3
"""Harmonic oscillator carried along a worldline: dilation rescales the clock.

The internal oscillator of a particle moving through a static weak field
runs at the proper-time rate dtau/dt = alpha. At the second measurement all
energy eigenvalues appear rescaled by alpha, and the work statistics close
in analytic form:

    beta dF   = ln[ sinh(alpha beta w / 2) / sinh(beta w / 2) ]
    beta <W>  = (alpha - 1) (beta w / 2) coth(beta w / 2)

This script scans alpha across red-shift (alpha < 1), comoving (alpha = 1)
and blue-shift (alpha > 1) conditions and compares the truncated-ladder
numerics against the closed forms. Entropy production stays nonnegative on
both sides of alpha = 1: the sign of the work flips together with the sign
of the free-energy change.
"""

import numpy as np

from tauwork import (
    estimate,
    harmonic_hamiltonian,
    levels_for_tail,
    oscillator_delta_F_analytic,
    oscillator_mean_work_analytic,
    thermal_state,
)
from tauwork.scenarios import truncation_tail_weight

beta_omega = 2.0
alphas = np.round(np.arange(0.5, 1.51, 0.1), 2)
levels = levels_for_tail(beta_omega, alpha_min=float(alphas.min()))
spec = harmonic_hamiltonian(1.0, levels)
# one Gibbs ensemble serves every clock rate
gibbs = thermal_state(spec, beta_omega)

print(f"oscillator ladder: beta*omega = {beta_omega}, {levels} levels")
print(f"truncation tail weight: {truncation_tail_weight(beta_omega, levels, float(alphas.min())):.2e}")
print()
print(f"{'alpha':>6} {'b*dF num':>12} {'b*dF exact':>12} {'b*<W> num':>12} "
      f"{'b*<W> exact':>12} {'b*<Sigma>':>10} {'|lhs-rhs|':>10}")
for alpha in alphas:
    alpha = float(alpha)
    # time dilation rescales every eigenvalue by alpha at the second measurement
    est = estimate(gibbs, alpha * spec.eigenvalues)
    df_num = beta_omega * est.delta_f
    df_exact = oscillator_delta_F_analytic(beta_omega, alpha)
    mw_num = beta_omega * est.mean_work
    mw_exact = oscillator_mean_work_analytic(beta_omega, alpha)
    print(f"{alpha:6.2f} {df_num:12.7f} {df_exact:12.7f} {mw_num:12.7f} "
          f"{mw_exact:12.7f} {mw_num - df_num:10.7f} {abs(est.lhs - est.rhs):10.1e}")

print()
print("alpha < 1: the system does work against the field, dF < 0, <W> < 0;")
print("alpha > 1: eigenvalues blue-shift, dF > 0, <W> > 0;")
print("in both cases beta(<W> - dF) >= 0: time dilation is irreversible.")
