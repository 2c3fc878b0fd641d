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
    """Gibbs weights over energy levels at inverse temperature beta.

    One run has a number ``beta`` and energies of shape (d,). A stack has r
    betas and energies of shape (r, d); its fields are read-only arrays, row
    i bit for bit ``thermal_state`` of run i alone. Each row's energies are
    finite with the least first, as an ascending spectrum's are.

    ``log_z`` is ln Z from the sum that normalizes the weights, with the bits
    of ``log_sum_exp(-beta * E)``, so dF between equal spectra is exactly 0.
    """

    beta: float | np.ndarray
    energies: np.ndarray
    probs: np.ndarray
    log_z: float | np.ndarray

    def __init__(self, beta, energies):
        energies = np.array(energies, dtype=float, order="C")
        if energies.ndim not in (1, 2) or not energies.size:
            raise ValueError(f"energies must have shape (d,) or (r, d), got {energies.shape}")
        if one := energies.ndim == 1:  # a run keeps its checks in Python floats
            require(beta=beta)
            beta, low, high = float(beta), float(energies[0]), float(energies[energies.argmax()])
            # argmin finds the first least entry, or the first nan
            if not (energies.argmin() == 0 and math.isfinite(low) and math.isfinite(high)):
                raise ValueError("energies must be finite with the least first")
            # -beta * E and its spread below overflow exactly when this does
            if not math.isfinite(beta * low - beta * high):
                bounds = f"beta={beta!r}, energies {low!r} to {high!r}"
                raise ValueError(f"beta * energy overflows a float: {bounds}")
        else:  # a stack checks as arrays; a bad row raises the error of its run alone
            # numpy would read a True among floats as 1.0: a list's entries are checked alone
            beta = beta if isinstance(beta, np.ndarray) else np.array(beta, dtype=object)
            low, high = energies[:, 0], np.maximum.reduce(energies, -1)
            if beta.shape != low.shape:
                raise ValueError(f"{len(low)} rows of energies need one beta each: {beta.shape}")
            ok = np.zeros(beta.shape, bool)  # so is an array that is not of real numbers
            if beta.dtype.kind in "fiu":
                with np.errstate(over="ignore", invalid="ignore"):
                    ok = (beta > 0) & np.isfinite(beta * low - beta * high)
                ok &= energies.argmin(-1) == 0
            for i in np.flatnonzero(~ok).tolist():
                ThermalEnsemble(beta.item(i), energies[i])
            beta = beta.astype(float)
        x = -(beta if one else beta[:, None]) * energies
        w = np.exp(x - x[..., :1])
        total = np.add.reduce(w, -1)
        probs = w / (total if one else total[:, None])
        log_z = x.T[0] + np.log(total)  # x.T[0]: a run's first entry, a stack's first column
        for array in (energies, probs) if one else (beta, energies, probs, log_z):
            array.flags.writeable = False
        log_z = float(log_z) if one else log_z
        vars(self).update(beta=beta, energies=energies, probs=probs, log_z=log_z)

    def mean_energy(self) -> float:
        """<E> of a run."""
        return float(self.probs @ self.energies)


def thermal_state(spec: Spectrum, beta: float) -> ThermalEnsemble:
    """Gibbs ensemble of ``spec`` at inverse temperature ``beta``."""
    return ThermalEnsemble(beta, spec.eigenvalues)


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
