"""Static weak-field spacetimes, worldlines and proper-time bookkeeping.

A worldline is a sampled table ``(t, phi, p)``: laboratory coordinate time,
Newtonian potential at the position of the particle, and the magnitude of
its center-of-mass momentum. From this and a static metric in the Newtonian
limit, g_tt = -(1 + 2 phi) with a flat space part, we compute the clock-rate
factor ``dtau/dt`` per sample and accumulate proper time by trapezoidal
quadrature. Tables keep the thermodynamic protocol decoupled from any
trajectory integrator and make runs exactly reproducible.

``dilation_profile`` gives the rate and the proper time at every sample; a
dilated run reads only their final values, which ``Clock`` gives from three
trajectory integrals, with the profile's checks and errors.

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


def dilation_factor(phi, p, mass: float, c: float = 1.0):
    """Clock rate dtau/dt of the particle relative to the static observers.

    First order in the potential and in (p/mc)^2: ``1 + phi/c^2 - p^2 / (2 m^2 c^2)``,
    where a term whose numerator is 0 is 0 even if its denominator underflows. Scalars
    give a float; arrays give the per-element array. Raises :class:`WeakFieldViolationError`
    naming the first sample whose rate is not positive and finite, which signals inputs
    outside the regime where the expansion makes sense.
    """
    require(mass=mass, c=c)
    return _rates(phi, p, mass, None, c)


def _rates(phi, p, mass: float, column: list | None, c):
    """``dilation_factor`` of a checked ``mass``; ``column`` is None for the one number
    ``c``, else a list of r values of c, one per row of (r, n) samples (or of samples
    that broadcast to them), each row bit for bit what it gives at its own c."""
    phi, p = np.asarray(phi, dtype=float), np.asarray(p, dtype=float)
    if p.ndim and p.shape != phi.shape:
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
        ok = normal & np.isfinite(alpha).all(-1 if column else None, keepdims=True)
        slow = not ok.all()
        if slow:  # a term under- or overflowed in some rows: those rows are redone
            kinetic = np.where(p == 0.0, 0.0, 0.5 * (p / mass / c) ** 2)
            alpha = np.where(ok, alpha, 1.0 + np.where(phi == 0.0, 0.0, phi / c / c) - kinetic)
    scan = slow or (alpha <= 0.0).any()  # else every rate is in (0, inf)
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
    """Sampled trajectory data: strictly increasing t, potential and |p| per sample."""

    t: np.ndarray
    phi: np.ndarray
    p: np.ndarray
    mass: float

    def __init__(self, t, phi, p, mass: float):
        vars(self).update(vars(_worldline(*(np.array(x, dtype=float) for x in (t, phi, p)), mass)))

    @property
    def samples(self) -> int:
        """The samples a profile evaluates."""
        return self.phi.size

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
    if phi.shape != t.shape or p.shape != t.shape:
        raise ValueError("t, phi, p must have identical lengths")
    if not all(np.isfinite(x).all() for x in (t, phi, p)):
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
    """Steady climb in a uniform field: phi(t) = g * t (height grows linearly)."""
    require(samples=samples)
    t = np.linspace(0.0, t_end, samples)
    return _worldline(t, g * t, np.full_like(t, p), mass)


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
    worldline's ``t`` with tau[0] = 0.
    """

    alpha: np.ndarray
    tau: np.ndarray

    def __init__(self, alpha, tau):
        alpha, tau = np.array(alpha, dtype=float), np.array(tau, dtype=float)
        if alpha.shape != tau.shape or alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("profile arrays must be equal-length with >= 2 samples")
        # written so that a nan fails each test
        if not ((alpha > 0.0) & (alpha < math.inf)).all():
            raise WeakFieldViolationError("dilation factor must stay positive and finite")
        if not (tau[0] == 0.0 and (tau[1:] > tau[:-1]).all() and tau[-1] < math.inf):
            raise ValueError("tau must start at 0 and increase strictly to a finite total")
        alpha.flags.writeable = tau.flags.writeable = False
        vars(self).update(alpha=alpha, tau=tau)

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
    phi, p = worldline.phi, 0.0 if gravitational_only else worldline.p
    # an underflowed c^2 gives a huge ratio (or 0); one past the float range is inf
    with np.errstate(over="ignore"):
        ratio = max(phi.max(), -phi.min()) / max(float(c) ** 2, math.ulp(0.0))
    if ratio >= WEAK_FIELD_MAX_PHI:
        raise WeakFieldViolationError(
            f"|phi|/c^2 = {ratio:.3g} exceeds the weak-field bound {WEAK_FIELD_MAX_PHI}"
        )
    alpha = _rates(phi, p, worldline.mass, None, c)  # the worldline checked its mass
    # tau is 0, then the running sum of 0.5 (alpha_k + alpha_k+1) dt_k, in one buffer
    t, tau = worldline.t, np.zeros(alpha.shape)
    with np.errstate(over="ignore"):  # a tau past the float range fails the profile's check
        steps = np.add(alpha[1:], alpha[:-1], out=tau[1:])
        steps *= 0.5
        steps *= t[1:] - t[:-1]
        np.cumsum(steps, out=steps)
    return DilationProfile(alpha, tau)


class Clock:
    """The final rate and total proper time of a worldline at any ``c``, and of each
    worldline whose potential is ``g`` times its own, from one pass over its samples:
    the rate is linear in phi and p^2, as the trapezoid rule is, so the total is
    ``T + (g Phi/c^2 - K/(2 m^2 c^2))`` for T = t_n - t_0 and the integrals Phi, K."""

    @np.errstate(over="ignore", invalid="ignore")  # a sum past the float range is undecided
    def __init__(self, worldline: Worldline, gravitational_only: bool = False):
        t, phi = worldline.t, worldline.phi
        p = np.zeros_like(t) if gravitational_only else worldline.p
        dt = np.diff(t)
        (low, high), (slow, fast) = (np.array([x.min(), x.max()]) for x in (phi, np.abs(p)))
        self.line, self.gravitational_only, self.moving = worldline, gravitational_only, fast > 0
        self.span, self.step, self.reach = t[-1] - t[0], dt.min(), max(high, -low)
        # the trapezoid integrals, 0.5 sum f_k (t_k+1 - t_k-1) as correctly rounded sums
        weights = np.concatenate((dt[:1], t[2:] - t[:-2], dt[-1:]))
        try:
            self.potential, self.kinetic = (
                a * self.span if a == b else 0.5 * math.fsum(memoryview(f * weights))
                for f, a, b in ((phi, low, high), (p * p, slow * slow, fast * fast)))
        except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
            self.potential = self.kinetic = math.inf
        # the computed rate rises with phi and falls with p^2: the rates of these samples
        # bound every sample's, and at one p (every preset) are the least and greatest
        self.phi = np.array([low, high, low, high, phi[-1]])
        self.p = np.array([fast, fast, slow, slow, p[-1]])

    def ends(self, c=1.0, g=1.0):
        """The final rate (from ``_rates``) and the total at ``c`` of the worldline whose
        potential is ``g`` times this one's, for numbers or columns of c, g or both,
        each row bit for bit what it gives alone. A profile's checks are decided with
        room for rounding: the bound from max |phi|, the rates from the least and
        greatest, and a finite total rising at every sample from the least step (least
        rate times least dt) against the greatest total. An undecided row is profiled."""
        c, g = (np.asarray(x, dtype=float) if np.ndim(x) else np.float64(x) for x in (c, g))
        mass = self.line.mass
        m2 = 2.0 * mass * mass
        with np.errstate(all="ignore"):  # a term that is not finite leaves its row undecided
            c2, reach = c * c, abs(g) * self.reach
            bounded = reach < WEAK_FIELD_MAX_PHI * (1.0 - 2.0**-40) * c2
            # a g row past the bound reads phi = 0, so that its rates leave the others' formula
            phi = np.multiply.outer(np.where(bounded, g, 0.0) if g.ndim else g, self.phi)
            try:
                rates = _rates(phi, self.p, mass, c.tolist() if c.ndim else None, c)
            except (OverflowError, WeakFieldViolationError):  # a c or a rate out of range
                rates = np.full(np.broadcast_shapes(c.shape, g.shape) + (5,), math.nan)
            least, greatest = rates[..., :4].min(-1), rates[..., :4].max(-1)
            den = m2 * c2 if self.moving else 1.0  # a term is exact while its divisor is normal
            tau = self.span + (g * self.potential / c2 - self.kinetic / den)
            decided = (
                bounded & (c > 0.0) & (c2 >= _TINY) & (c2 < math.inf) & (abs(tau) < math.inf)
                & (not self.moving or (m2 >= _TINY) & (den >= _TINY) & (den < math.inf))
                & (least * self.step >= np.maximum(2.0**-50 * greatest * self.span, _TINY))
                & (greatest * self.span < 2.0**1000)
            )
        if decided.all():
            return rates[..., 4], tau
        rows = np.shape(decided)
        if not rows:
            with np.errstate(over="ignore"):  # a potential past the float range fails the check
                line = Worldline(self.line.t, g * self.line.phi, self.line.p, mass)
            profile = dilation_profile(line, float(c), self.gravitational_only)
            return profile.alpha_final, profile.tau_total
        alpha, tau = (np.array(np.broadcast_to(x, rows)) for x in (rates[..., 4], tau))
        for i in np.flatnonzero(~decided):
            alpha[i], tau[i] = self.ends(*(np.broadcast_to(x, rows)[i] for x in (c, g)))
        return alpha, tau
