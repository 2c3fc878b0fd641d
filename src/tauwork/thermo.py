"""Gibbs ensembles, partition functions and free-energy differences.

Partition sums are evaluated with the largest Boltzmann factor pulled out so
that intermediate terms never overflow; free energies are handled in log
space throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DensityOperator, HermitianOperator, Spectrum, spectral_decompose


def log_sum_exp(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    m = float(x.max())
    return m + float(np.log(np.exp(x - m).sum()))


def log_partition_function(spec: Spectrum | np.ndarray, beta: float) -> float:
    """ln Tr e^(-beta H) from the eigenvalues."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    evals = spec.eigenvalues if isinstance(spec, Spectrum) else np.asarray(spec, float)
    return log_sum_exp(-beta * evals)


@dataclass(frozen=True)
class ThermalEnsemble:
    """Gibbs weights over an eigenspectrum at inverse temperature beta."""

    beta: float
    spectrum: Spectrum
    probs: np.ndarray
    log_z: float

    def __init__(self, beta: float, spectrum: Spectrum):
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta!r}")
        x = -beta * (spectrum.eigenvalues - spectrum.eigenvalues[0])
        w = np.exp(x)
        probs = w / w.sum()
        probs.flags.writeable = False
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "log_z", log_partition_function(spectrum, beta))

    def mean_energy(self) -> float:
        return float(self.probs @ self.spectrum.eigenvalues)

    def density_operator(self) -> DensityOperator:
        """e^(-beta H)/Z as a validated state."""
        v = self.spectrum.eigenvectors
        return DensityOperator((v * self.probs) @ v.conj().T)


def thermal_state(h: HermitianOperator | Spectrum, beta: float) -> ThermalEnsemble:
    """Gibbs ensemble of ``h`` at inverse temperature ``beta``."""
    spec = h if isinstance(h, Spectrum) else spectral_decompose(h)
    return ThermalEnsemble(beta, spec)


def free_energy_difference_from_values(
    final_evals: np.ndarray, initial_evals: np.ndarray, beta: float
) -> float:
    """-(1/beta) ln(Z_final / Z_initial) for two explicit energy lists."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    lz_f = log_sum_exp(-beta * np.asarray(final_evals, float))
    lz_i = log_sum_exp(-beta * np.asarray(initial_evals, float))
    return (lz_i - lz_f) / beta


def free_energy_difference(spec0: Spectrum, alpha_final: float, beta: float) -> float:
    """Free-energy change when every eigenvalue is rescaled by ``alpha_final``.

    This is the equilibrium reference for a clock rate ``alpha_final`` at the
    end point of the worldline. Returns exactly +0.0 for ``alpha_final == 1``.
    """
    if alpha_final <= 0:
        raise ValueError(f"alpha_final must be positive, got {alpha_final!r}")
    return free_energy_difference_from_values(
        alpha_final * spec0.eigenvalues, spec0.eigenvalues, beta
    )
