"""Gibbs ensembles, partition functions and free-energy differences.

Partition sums are evaluated with the largest Boltzmann factor pulled out so
that intermediate terms never overflow; free energies are handled in log
space throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import Spectrum, require


def log_sum_exp(x: np.ndarray) -> float | np.ndarray:
    """ln sum(e^x) along the last axis, with the largest term pulled out: a
    scalar for a 1-D ``x``, one value per row for a stack of rows."""
    x = np.asarray(x, dtype=float)
    m = np.maximum.reduce(x, -1)
    # a stack's maxima subtract as a column; one row's maximum is a scalar
    return m + np.log(np.add.reduce(np.exp(x - (m[..., None] if x.ndim > 1 else m)), -1))


@dataclass(frozen=True)
class ThermalEnsemble:
    """Gibbs weights over an eigenspectrum at inverse temperature beta.

    ``log_z`` is ln Z from the sum that normalizes the weights, with the bits
    of ``log_sum_exp(-beta * E)``, so dF between equal spectra is exactly 0.
    """

    beta: float
    spectrum: Spectrum
    probs: np.ndarray
    log_z: float

    def __init__(self, beta: float, spectrum: Spectrum):
        require(beta=beta)
        lo, hi = float(spectrum.eigenvalues[0]), float(spectrum.eigenvalues[-1])
        # -beta * E and its spread below overflow exactly when this does
        if not math.isfinite(beta * lo - beta * hi):
            bounds = f"beta={float(beta)!r}, energies {lo!r} to {hi!r}"
            raise ValueError(f"beta * energy overflows a float: {bounds}")
        x = -beta * spectrum.eigenvalues
        w = np.exp(x - x[0])
        total = w.sum()
        probs = w / total
        probs.flags.writeable = False
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "log_z", float(x[0]) + float(np.log(total)))

    def mean_energy(self) -> float:
        return float(self.probs @ self.spectrum.eigenvalues)


def thermal_state(spec: Spectrum, beta: float) -> ThermalEnsemble:
    """Gibbs ensemble of ``spec`` at inverse temperature ``beta``."""
    return ThermalEnsemble(beta, spec)


def free_energy_difference_from_values(
    final_evals: np.ndarray, initial_evals: np.ndarray, beta: float
) -> float:
    """-(1/beta) ln(Z_final / Z_initial) for two explicit energy lists."""
    require(beta=beta)
    lz_i = log_sum_exp(-beta * np.asarray(initial_evals, float))
    return free_energy_difference_from_log_z(final_evals, lz_i, beta)


def free_energy_difference_from_log_z(
    final_evals: np.ndarray, log_z: float | np.ndarray, beta: float | np.ndarray
) -> float | np.ndarray:
    """-(1/beta) ln(Z_final / Z_initial) given ``log_z = ln Z_initial``.

    Stacked: with ``beta`` and ``log_z`` arrays of shape (r,) and
    ``final_evals`` of shape (r, d), entry i is the value for row i of each.
    """
    column = beta[..., None] if isinstance(beta, np.ndarray) else beta
    return (log_z - log_sum_exp(-column * np.asarray(final_evals, float))) / beta


def free_energy_difference(spec0: Spectrum, alpha_final: float, beta: float) -> float:
    """Free-energy change when every eigenvalue is rescaled by ``alpha_final``.

    This is the equilibrium reference for a clock rate ``alpha_final`` at the
    end point of the worldline. Returns exactly +0.0 for ``alpha_final == 1``.
    """
    require(alpha_final=alpha_final)
    return free_energy_difference_from_values(
        alpha_final * spec0.eigenvalues, spec0.eigenvalues, beta
    )
