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
import math
from dataclasses import dataclass

import numpy as np

from .operators import require

WEAK_FIELD_MAX_PHI = 0.5  # |phi|/c^2 beyond this is outside the expansion
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


class WeakFieldViolationError(ValueError):
    """The requested point is outside the weak-field regime of validity."""


def _speeds(c) -> list | None:
    """A column of ``c`` as a list of Python numbers, None for one number; each is checked."""
    column = not isinstance(c, float) and np.ndim(c) == 1
    speeds = np.asarray(c, dtype=object).tolist() if column else [c]
    for value in speeds:
        require(c=value)
    return speeds if column else None


def dilation_factor(phi, p, mass: float, c=1.0):
    """Clock rate dtau/dt of the particle relative to the static observers.

    First order in the potential and in (p/mc)^2:
    ``1 + phi/c^2 - p^2 / (2 m^2 c^2)``, where a term whose numerator is 0 is 0
    even if its denominator underflows. Scalars give a float; arrays give the
    per-element array. ``c`` is a number, or a column of r numbers, one per
    row of (r, n) samples, each row bit for bit what it gives at its own ``c``.
    Raises :class:`WeakFieldViolationError` naming the first sample whose rate
    is not positive and finite, which signals inputs outside the regime where
    the expansion makes sense.
    """
    require(mass=mass)
    return _rates(phi, p, mass, _speeds(c), c)


def _rates(phi, p, mass: float, column: list | None, c):
    """``dilation_factor`` of a checked ``mass`` and ``c``, ``column`` its ``_speeds(c)``."""
    phi, p = np.asarray(phi, dtype=float), np.asarray(p, dtype=float)
    phi = np.broadcast_to(phi, np.broadcast_shapes(phi.shape, p.shape))
    # the direct expression is exact to rounding while c^2 and each partial product of
    # 2 m^2 c^2 are normal floats: a p^2 that underflows then stands for a term below an ulp of 1
    m2 = 2.0 * mass * mass
    rows = [(v, v**2, m2 * v * v) for v in map(float, column or [c])]
    normal = [_TINY <= min(c2, m2, m2 * v, den) and max(c2, m2, m2 * v, den) < math.inf
              for v, c2, den in rows]
    c, c2, den, normal = (np.array(x)[:, None] if column else x[0] for x in (*zip(*rows), normal))
    with np.errstate(all="ignore"):  # a rate that is not finite is computed again, then checked
        alpha = phi / c2  # 1 + phi/c^2 - p^2/den, in place
        alpha += 1.0
        if p.ndim or p:  # a gravitational-only profile's p is the number 0
            alpha -= p * p / den
        axis = -1 if column else None  # each row's least and greatest rate, nan if it holds one
        low = np.min(alpha, axis, keepdims=True, initial=math.inf)
        high = np.max(alpha, axis, keepdims=True, initial=-math.inf)
        ok = normal & (low > -math.inf) & (high < math.inf)
        slow = not ok.all()
        if slow:  # a term under- or overflowed in some rows: those rows are redone
            kinetic = np.where(p == 0.0, 0.0, 0.5 * (p / mass / c) ** 2)
            alpha = np.where(ok, alpha, 1.0 + np.where(phi == 0.0, 0.0, phi / c / c) - kinetic)
    scan = slow or (low <= 0.0).any()  # else every rate is in (0, inf)
    bad = np.flatnonzero(~((alpha > 0.0) & (alpha < math.inf))) if scan else ()
    if len(bad):
        i, rate = bad[0], alpha.flat[bad[0]]
        phi, p = (np.broadcast_to(x, np.shape(alpha)) for x in (phi, p))
        raise WeakFieldViolationError(
            f"dtau/dt = {rate:.3g} {'<= 0' if rate <= 0.0 else 'is not finite'} for "
            f"phi={float(phi.flat[i])!r}, p={float(p.flat[i])!r}: outside the weak-field / "
            "slow-motion regime"
        )
    return float(alpha) if alpha.ndim == 0 else alpha


@dataclass(frozen=True)
class Worldline:
    """Sampled trajectory data: strictly increasing t, potential and |p| per sample;
    a stack of r worldlines shares its grid ``t`` and has ``phi`` and ``p`` of shape (r, n)."""

    t: np.ndarray
    phi: np.ndarray
    p: np.ndarray
    mass: float

    def __init__(self, t, phi, p, mass: float):
        vars(self).update(vars(_worldline(*(np.array(x, dtype=float) for x in (t, phi, p)), mass)))

    @property
    def samples(self) -> int:
        """The samples a profile evaluates: n, times r for a stack."""
        return self.phi.size

    def repeated(self, rows: int) -> "Worldline":
        """A stack of ``rows`` copies of this worldline, read-only views of its arrays."""
        stack, shape = object.__new__(Worldline), (rows, self.t.size)
        phi, p = (np.broadcast_to(x, shape) for x in (self.phi, self.p))
        vars(stack).update(t=self.t, phi=phi, p=p, mass=self.mass)
        return stack

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


def _worldline(t: np.ndarray, phi: np.ndarray, p: np.ndarray, mass: float) -> Worldline:
    """A worldline of float arrays, checked and made read-only, not copied."""
    if t.ndim != 1 or t.size < 2:
        raise ValueError("worldline needs at least 2 samples")
    if phi.shape != p.shape or phi.shape[-1:] != t.shape or phi.ndim > 2:
        raise ValueError("t, phi, p must have identical lengths")
    # an array whose rows (or entries) all view its first, as a broadcast's do, is checked there
    if not all(np.isfinite(x if x.strides[0] else x[:1]).all() for x in (t, phi, p)):
        raise ValueError("worldline samples must be finite")
    if (t[1:] <= t[:-1]).any():
        raise ValueError("t must be strictly increasing")
    require(mass=mass)
    for arr in (t, phi, p):
        arr.flags.writeable = False
    line = object.__new__(Worldline)
    vars(line).update(t=t, phi=phi, p=p, mass=float(mass))
    return line


def comoving_worldline(t_end: float, samples: int = 2, mass: float = 1.0) -> Worldline:
    """At rest next to the static observers: phi = 0, p = 0, so dtau/dt = 1."""
    require(samples=samples)
    t = np.linspace(0.0, t_end, samples)
    z = np.zeros_like(t)
    return _worldline(t, z, z, mass)


@np.errstate(over="ignore")  # a potential past the float range fails the Worldline check
def uniform_gravity_worldline(
    g: float, t_end: float, samples: int = 1001, p: float = 0.0, mass: float = 1.0
) -> Worldline:
    """Steady climb in a uniform field: phi(t) = g * t (height grows linearly); a
    column of r values of ``g`` gives a stack of r worldlines."""
    require(samples=samples)
    t = np.linspace(0.0, t_end, samples)
    phi = np.multiply.outer(g, t)
    return _worldline(t, phi, np.broadcast_to(float(p), phi.shape), mass)


@np.errstate(over="ignore")  # a potential past the float range fails the Worldline check
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
    return _worldline(t, -big_m / r, np.full_like(t, p), mass)


def cruise_worldline(
    p: float, t_end: float, samples: int = 2, mass: float = 1.0
) -> Worldline:
    """Constant-speed motion far from sources: phi = 0, |p| fixed."""
    require(samples=samples)
    t = np.linspace(0.0, t_end, samples)
    return _worldline(t, np.zeros_like(t), np.full_like(t, p), mass)


@dataclass(frozen=True)
class DilationProfile:
    """Per-sample clock rate and the accumulated proper time along a worldline.

    ``tau`` is the running trapezoidal integral of ``alpha`` over the
    worldline's ``t`` with tau[0] = 0. A stack of r worldlines has ``alpha``
    and ``tau`` of shape (r, n), row i that worldline's.
    """

    alpha: np.ndarray
    tau: np.ndarray

    def __init__(self, alpha, tau):
        alpha = np.array(alpha, dtype=float)
        tau = np.array(tau, dtype=float)
        if alpha.shape != tau.shape or alpha.ndim not in (1, 2) or alpha.shape[-1] < 2:
            raise ValueError("profile arrays must be equal-length with >= 2 samples")
        # written so that a nan fails each test
        if not ((alpha > 0.0) & (alpha < math.inf)).all():
            raise WeakFieldViolationError("dilation factor must stay positive and finite")
        vars(self).update(vars(_profile(alpha, tau)))

    @property
    def tau_total(self) -> float:
        return float(self.tau[-1])

    @property
    def alpha_final(self) -> float:
        return float(self.alpha[-1])


def _profile(alpha: np.ndarray, tau: np.ndarray) -> DilationProfile:
    """A profile of rates ``alpha``, checked already, and of ``tau``, checked here
    (tau.T[k] is sample k of each row); both are made read-only, not copied."""
    if not (
        (tau.T[0] == 0.0).all() and (tau.T[1:] > tau.T[:-1]).all() and (tau.T[-1] < math.inf).all()
    ):
        raise ValueError("tau must start at 0 and increase strictly to a finite total")
    alpha.flags.writeable = tau.flags.writeable = False
    prof = object.__new__(DilationProfile)
    vars(prof).update(alpha=alpha, tau=tau)
    return prof


def dilation_profile(
    worldline: Worldline, c=1.0, gravitational_only: bool = False
) -> DilationProfile:
    """Evaluate dtau/dt per sample at speed of light ``c`` and integrate proper time.

    Raises :class:`WeakFieldViolationError` when the largest ``|phi|/c^2``
    reaches ``WEAK_FIELD_MAX_PHI``, before any rate is computed.
    ``gravitational_only`` drops the kinetic term (the heavy-particle limit),
    leaving ``alpha = 1 + phi/c^2`` exactly; useful to isolate the
    equivalence-principle effect.

    A stack of r worldlines, a column of r values of ``c``, or both, give a
    stack of r profiles in one pass, row i bit for bit what row i gives alone.
    A stack that fails runs its rows alone, in order, so the first failing
    row raises its own error.
    """
    phi, p = worldline.phi, 0.0 if gravitational_only else worldline.p
    try:
        column = _speeds(c)
        if column:  # rows that view one row, as a repeated worldline's do, are read once
            phi, p = (x[0] if np.ndim(x) == 2 and not x.strides[0] else x for x in (phi, p))
        # an underflowed c^2 gives a huge ratio (or 0); one past the float range is inf
        c2 = [max(float(value) ** 2, math.ulp(0.0)) for value in column or [c]]
        with np.errstate(over="ignore"):
            ratios = np.maximum(phi.max(-1), -phi.min(-1)) / (c2 if column else c2[0])
        over = ratios[ratios >= WEAK_FIELD_MAX_PHI]
        if over.size:
            raise WeakFieldViolationError(
                f"|phi|/c^2 = {over[0]:.3g} exceeds the weak-field bound {WEAK_FIELD_MAX_PHI}"
            )
        alpha = _rates(phi, p, worldline.mass, column, c)  # the worldline checked its mass
        # tau is 0, then the running sum of 0.5 (alpha_k + alpha_k+1) dt_k, in one buffer
        t, tau = worldline.t, np.zeros(alpha.shape)
        with np.errstate(over="ignore"):  # a tau past the float range fails the profile's check
            steps = np.add(alpha[..., 1:], alpha[..., :-1], out=tau[..., 1:])
            steps *= 0.5
            steps *= t[1:] - t[:-1]
            np.cumsum(steps, -1, out=steps)
        return _profile(alpha, tau)
    except ValueError:
        rows = np.broadcast_shapes(worldline.phi.shape[:-1], np.shape(c))
        for i in range(rows[0] if rows else 0):
            phi, p = (x[i] if x.ndim == 2 else x for x in (worldline.phi, worldline.p))
            ci = np.asarray(c, dtype=object)[i] if np.ndim(c) == 1 else c
            dilation_profile(Worldline(worldline.t, phi, p, worldline.mass), ci, gravitational_only)
        raise
