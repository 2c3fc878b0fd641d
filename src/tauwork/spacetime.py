"""Static weak-field spacetimes, worldlines and proper-time bookkeeping.

A worldline is a sampled table ``(t, phi, p)``: laboratory coordinate time,
Newtonian potential at the position of the particle, and the magnitude of
its center-of-mass momentum. From this and a static metric in the Newtonian
limit, g_tt = -(1 + 2 phi) with a flat space part, we compute the clock-rate
factor ``dtau/dt`` per sample and accumulate proper time by trapezoidal
quadrature. Tables keep the thermodynamic protocol decoupled from any
trajectory integrator and make runs exactly reproducible.

Units: c enters explicitly (default 1) so the non-relativistic limit
``c -> infinity`` is directly testable; ``phi`` and ``p`` are given in the
c = 1 convention and are rescaled internally.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .operators import require

WEAK_FIELD_MAX_PHI = 0.5  # |phi|/c^2 beyond this is outside the expansion


class WeakFieldViolationError(ValueError):
    """The requested point is outside the weak-field regime of validity."""


def dilation_factor(phi, p, mass: float, c: float = 1.0):
    """Clock rate dtau/dt of the particle relative to the static observers.

    First order in the potential and in (p/mc)^2:
    ``1 + phi/c^2 - p^2 / (2 m^2 c^2)``. Exactly 1 for a particle at rest
    where the potential vanishes. Scalars give a float; arrays give the
    per-element array. Raises :class:`WeakFieldViolationError` naming the
    first sample whose rate is not positive, which signals inputs outside the
    regime where the expansion makes sense.
    """
    require(mass=mass, c=c)
    phi, p = np.broadcast_arrays(np.asarray(phi, dtype=float), np.asarray(p, dtype=float))
    alpha = 1.0 + phi / c**2 - p * p / (2.0 * mass * mass * c * c)
    bad = np.flatnonzero(alpha <= 0.0)
    if bad.size:
        i = bad[0]
        raise WeakFieldViolationError(
            f"dtau/dt = {alpha.flat[i]:.3g} <= 0 for phi={float(phi.flat[i])!r}, "
            f"p={float(p.flat[i])!r}: outside the weak-field / slow-motion regime"
        )
    return float(alpha) if alpha.ndim == 0 else alpha


@dataclass(frozen=True)
class Worldline:
    """Sampled trajectory data: strictly increasing t, potential and |p| per sample."""

    t: np.ndarray
    phi: np.ndarray
    p: np.ndarray
    mass: float

    def __init__(self, t, phi, p, mass: float):
        t = np.array(t, dtype=float)
        phi = np.array(phi, dtype=float)
        p = np.array(p, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("worldline needs at least 2 samples")
        if phi.shape != t.shape or p.shape != t.shape:
            raise ValueError("t, phi, p must have identical lengths")
        if not (np.isfinite(t).all() and np.isfinite(phi).all() and np.isfinite(p).all()):
            raise ValueError("worldline samples must be finite")
        if ((t[1:] - t[:-1]) <= 0).any():
            raise ValueError("t must be strictly increasing")
        require(mass=mass)
        for arr in (t, phi, p):
            arr.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mass", float(mass))

    @property
    def samples(self) -> int:
        return self.t.size

    @classmethod
    def from_csv(cls, path, mass: float) -> "Worldline":
        """Load a ``t,phi,p`` table file (header required, strictly increasing t)."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip() for c in rows[0]] != ["t", "phi", "p"]:
            raise ValueError("worldline CSV must start with header 't,phi,p'")
        body = [r for r in rows[1:] if r]
        try:
            data = np.array([[float(x) for x in r] for r in body], dtype=float)
        except ValueError as exc:
            raise ValueError(f"worldline CSV has a non-numeric entry: {exc}") from None
        if data.ndim != 2 or data.shape[1] != 3:
            raise ValueError("worldline CSV rows must have exactly 3 columns")
        return cls(data[:, 0], data[:, 1], data[:, 2], mass)


def comoving_worldline(t_end: float, samples: int = 2, mass: float = 1.0) -> Worldline:
    """At rest next to the static observers: phi = 0, p = 0, so dtau/dt = 1."""
    require(samples=samples)
    t = np.linspace(0.0, t_end, samples)
    z = np.zeros_like(t)
    return Worldline(t, z, z, mass)


def uniform_gravity_worldline(
    g: float, t_end: float, samples: int = 1001, p: float = 0.0, mass: float = 1.0
) -> Worldline:
    """Steady climb in a uniform field: phi(t) = g * t (height grows linearly)."""
    require(samples=samples)
    t = np.linspace(0.0, t_end, samples)
    return Worldline(t, g * t, np.full_like(t, p), mass)


def point_mass_worldline(
    big_m: float,
    r_start: float,
    r_end: float,
    t_end: float,
    samples: int = 1001,
    mass: float = 1.0,
) -> Worldline:
    """Radial move in the field of a point mass: phi = -M/r along linear r(t)."""
    require(r_start=r_start, r_end=r_end, samples=samples)
    t = np.linspace(0.0, t_end, samples)
    r = r_start + (r_end - r_start) * (t / t_end)
    p = mass * abs(r_end - r_start) / t_end
    return Worldline(t, -big_m / r, np.full_like(t, p), mass)


def cruise_worldline(
    p: float, t_end: float, samples: int = 2, mass: float = 1.0
) -> Worldline:
    """Constant-speed motion far from sources: phi = 0, |p| fixed."""
    require(samples=samples)
    t = np.linspace(0.0, t_end, samples)
    return Worldline(t, np.zeros_like(t), np.full_like(t, p), mass)


@dataclass(frozen=True)
class DilationProfile:
    """Per-sample clock rate and the accumulated proper time along a worldline.

    ``tau`` is the running trapezoidal integral of ``alpha`` over ``t`` with
    tau[0] = 0.
    """

    t: np.ndarray
    alpha: np.ndarray
    tau: np.ndarray

    def __init__(self, t, alpha, tau):
        t = np.array(t, dtype=float)
        alpha = np.array(alpha, dtype=float)
        tau = np.array(tau, dtype=float)
        if not (t.shape == alpha.shape == tau.shape) or t.ndim != 1 or t.size < 2:
            raise ValueError("profile arrays must be equal-length with >= 2 samples")
        if (alpha <= 0).any():
            raise WeakFieldViolationError("dilation factor must stay positive")
        if tau[0] != 0.0 or ((tau[1:] - tau[:-1]) <= 0).any():
            raise ValueError("tau must start at 0 and increase strictly")
        for arr in (t, alpha, tau):
            arr.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)

    @property
    def tau_total(self) -> float:
        return float(self.tau[-1])

    @property
    def alpha_final(self) -> float:
        return float(self.alpha[-1])


def dilation_profile(
    worldline: Worldline, c: float = 1.0, gravitational_only: bool = False
) -> DilationProfile:
    """Evaluate dtau/dt per sample at speed of light ``c`` and integrate proper time.

    Raises :class:`WeakFieldViolationError` when the largest ``|phi|/c^2``
    reaches ``WEAK_FIELD_MAX_PHI``, before any rate is computed.
    ``gravitational_only`` drops the kinetic term (the heavy-particle limit),
    leaving ``alpha = 1 + phi/c^2`` exactly; useful to isolate the
    equivalence-principle effect.
    """
    require(c=c)
    ratio = np.max(np.abs(worldline.phi)) / c**2
    if ratio >= WEAK_FIELD_MAX_PHI:
        raise WeakFieldViolationError(
            f"|phi|/c^2 = {ratio:.3g} exceeds the weak-field bound {WEAK_FIELD_MAX_PHI}"
        )
    p = 0.0 if gravitational_only else worldline.p
    alpha = dilation_factor(worldline.phi, p, worldline.mass, c)
    dt = worldline.t[1:] - worldline.t[:-1]
    tau = np.concatenate(([0.0], np.cumsum(0.5 * (alpha[1:] + alpha[:-1]) * dt)))
    return DilationProfile(worldline.t, alpha, tau)
