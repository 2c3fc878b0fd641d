#!/usr/bin/env python3
"""Worldline presets, proper-time accumulation and the Newtonian limit.

Shows the clock-rate factor dtau/dt for the bundled trajectory presets
(comoving, uniform-gravity climb, radial approach to a point mass, constant
cruise), the accumulated proper time, and the c -> infinity check: at fixed
potential and momentum, all dilation-driven work vanishes as the speed of
light grows.
"""

import numpy as np

from tauwork import (
    ScenarioConfig,
    comoving_worldline,
    cruise_worldline,
    dilation_factor,
    dilation_profile,
    point_mass_worldline,
    run_scenario,
    uniform_gravity_worldline,
)

print("preset worldlines over t in [0, 10]:")
presets = {
    "comoving": comoving_worldline(10.0, samples=101),
    "uniform gravity g=0.02": uniform_gravity_worldline(0.02, 10.0, samples=101),
    "point mass M=0.05, r 4->2": point_mass_worldline(0.05, 4.0, 2.0, 10.0, samples=101),
    "cruise |p|=0.3": cruise_worldline(0.3, 10.0, samples=101),
}
for name, w in presets.items():
    prof = dilation_profile(w, c=1.0)
    print(f"  {name:28s} alpha_final = {prof.alpha_final:+.6f}  tau_total = {prof.tau_total:.6f}")
print()

print("single-point clock rates (m = 1, c = 1):")
for phi, p in ((0.0, 0.0), (0.2, 0.0), (0.0, 0.2), (0.1, 0.3), (-0.1, 0.0)):
    print(f"  phi={phi:+.2f} p={p:.2f}: dtau/dt = {dilation_factor(phi, p, 1.0):.6f}")
print()

print("Newtonian limit: fixed phi=0.2, p=0.2, growing c")
scenario = {
    "scenario_id": "newtonian",
    "pipeline": "dilated",
    "beta": 2.0,
    "system": {"kind": "harmonic", "omega": 1.0, "levels": 40},
    "worldline": {"preset": "uniform_gravity", "g": 0.02, "t_end": 10.0,
                  "samples": 101, "p": 0.2},
    "mass": 1.0,
}
print(f"  {'c':>10} {'alpha_final':>14} {'<W>':>12} {'<Sigma>':>12}")
for c in (1.0, 10.0, 100.0, 1e4, 1e6):
    config = ScenarioConfig.from_dict(dict(scenario, c=c, scenario_id=f"newtonian-c{c:g}"))
    rep = run_scenario(config)
    print(f"  {c:10g} {rep.alpha_final:14.10f} {rep.mean_work:12.3e} "
          f"{rep.entropy_production:12.3e}")
print()
print("both the gravitational and the kinetic contribution scale as 1/c^2,")
print("so every dilation effect dies out and the comoving result is recovered.")
