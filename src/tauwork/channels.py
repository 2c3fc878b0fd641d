"""Quantum processes: Kraus families, unitality, and proper-time propagators.

Channels are stored concretely as Kraus families (a unitary is a one-element
family) because the generalized fluctuation relation needs the deviation
from unitality for arbitrary processes. Proper-time evolution under a
piecewise-constant schedule is a left-ordered product of one exponential per
segment, each segment's proper duration read off a dilation profile at the
slice edges that it owns; a one-segment schedule is the closed-form
exponential.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator, Spectrum, _as_spectrum, as_complex_matrix, require
from .operators import spectrum_expm
from .spacetime import DilationProfile

TRACE_PRESERVATION_ATOL = 1e-10
UNITARITY_ATOL = 1e-10


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    Construction enforces sum_j K_j^dag K_j = 1 within ``TRACE_PRESERVATION_ATOL``
    and records whether the map is also unital (sum_j K_j K_j^dag = 1).
    """

    kraus_ops: tuple
    is_unital: bool

    def __init__(self, kraus_ops):
        ops = tuple(as_complex_matrix(k, name="Kraus operator") for k in kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(k.shape != (dim, dim) for k in ops):
            raise ValueError("all Kraus operators must share one dimension")
        ident = np.eye(dim)
        tp = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(tp - ident))
        if dev > TRACE_PRESERVATION_ATOL:
            raise ValueError(
                f"Kraus family is not trace preserving: |sum K^dag K - 1| = {dev:.3e}"
            )
        un = sum(k @ k.conj().T for k in ops)
        unital = bool(np.max(np.abs(un - ident)) <= TRACE_PRESERVATION_ATOL)
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "is_unital", unital)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """sum_j K_j M K_j^dag without state validation (internal fast path)."""
        return sum(k @ mat @ k.conj().T for k in self.kraus_ops)


def unitary_channel(u) -> QuantumChannel:
    """Wrap a unitary matrix (within ``UNITARITY_ATOL``) as a single-Kraus channel."""
    mat = as_complex_matrix(u, name="unitary")
    dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    if dev > UNITARITY_ATOL:
        raise ValueError(f"matrix is not unitary: |U^dag U - 1| = {dev:.3e}")
    return QuantumChannel([mat])


def identity_channel(dim: int) -> QuantumChannel:
    require(dim=dim)
    return QuantumChannel([np.eye(dim, dtype=complex)])


def amplitude_damping_channel(gamma: float, dim: int = 2) -> QuantumChannel:
    """Decay of every excited level into the ground level with probability gamma."""
    require(gamma=gamma, dim=dim, amplitude_damping_dim=dim)
    k0 = np.diag(np.concatenate(([1.0], np.full(dim - 1, np.sqrt(1.0 - gamma))))).astype(
        complex
    )
    ops = [k0]
    for j in range(1, dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[0, j] = np.sqrt(gamma)
        ops.append(k)
    return QuantumChannel(ops)


def depolarizing_channel(lam: float, dim: int = 2) -> QuantumChannel:
    """Mix toward 1/d with probability lam, via the Weyl shift/clock unitaries."""
    require(dim=dim, depolarizing_dim=dim, **{"lambda": lam})
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    ops = []
    for a in range(dim):
        for b in range(dim):
            w = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            if a == 0 and b == 0:
                ops.append(np.sqrt(1.0 - lam * (dim * dim - 1) / (dim * dim)) * w)
            else:
                ops.append(np.sqrt(lam) / dim * w)
    return QuantumChannel(ops)


def unitality_deviation(channel: QuantumChannel) -> np.ndarray:
    """How far the channel moves the maximally mixed state: Theta(1/d) - 1/d.

    Hermitian and traceless; identically zero iff the channel is unital.
    """
    d = channel.dim
    out = channel.apply_matrix(np.eye(d, dtype=complex) / d) - np.eye(d) / d
    return 0.5 * (out + out.conj().T)


@dataclass(frozen=True)
class PropagatorSchedule:
    """A piecewise-constant internal Hamiltonian over proper time, plus the clock.

    ``segments`` holds one generator per segment as a ``Spectrum``; a segment
    given as a ``HermitianOperator`` (bench/ draws matrices) is decomposed
    once, when the schedule is built. Segment k applies on
    ``[tau_bounds[k-1], tau_bounds[k])`` with ``tau_bounds[-1]`` covering the
    profile's total proper time. ``steps`` cuts the laboratory time span into
    equal slices and only decides which segment the slice that straddles each
    bound joins (the first-order error across bounds); within a segment the
    propagator is exact at any ``steps``.
    """

    segments: tuple
    tau_bounds: np.ndarray
    dilation: DilationProfile
    steps: int

    def __init__(self, segments, dilation: DilationProfile, steps: int):
        pairs = list(segments)
        if not pairs:
            raise ValueError("schedule needs at least one segment")
        segs = [h for _, h in pairs]
        dim = segs[0].dim
        if any(h.dim != dim for h in segs):
            raise ValueError("all schedule segments must share one dimension")
        for tau_end, _ in pairs:
            require(tau_end=tau_end)
        bounds_arr = np.array([tau_end for tau_end, _ in pairs], dtype=float)
        if ((bounds_arr[1:] - bounds_arr[:-1]) <= 0).any():
            raise ValueError("segment bounds must be strictly increasing")
        total = dilation.tau_total
        if bounds_arr[-1] < total * (1.0 - 1e-12):
            raise ValueError(
                f"schedule covers proper time up to {bounds_arr[-1]!r} but the "
                f"worldline accumulates {total!r}"
            )
        require(steps=steps)
        bounds_arr.flags.writeable = False
        # decomposed only once the schedule is known to be valid
        object.__setattr__(self, "segments", tuple(_as_spectrum(h) for h in segs))
        object.__setattr__(self, "tau_bounds", bounds_arr)
        object.__setattr__(self, "dilation", dilation)
        object.__setattr__(self, "steps", int(steps))

    @classmethod
    def constant(
        cls, h: HermitianOperator | Spectrum, dilation: DilationProfile, steps: int = 1
    ) -> "PropagatorSchedule":
        return cls([(dilation.tau_total, h)], dilation, steps)

    @property
    def dim(self) -> int:
        return self.segments[0].dim


def time_ordered_propagator(schedule: PropagatorSchedule) -> np.ndarray:
    """T exp(-i integral H dtau) as one exponential per schedule segment.

    The laboratory time span is cut into ``steps`` equal slices whose proper
    durations are read from the cumulative proper time at the slice edges, so
    the slices tile the total proper time exactly. A slice belongs to the
    segment that holds its proper-time midpoint (a midpoint on a bound goes
    to the later segment; slices past the last bound go to the last one).
    Each segment's slices share a generator, so their product is the single
    exponential exp(-i H dtau) of their summed duration; later segments act
    on the left. ``steps`` only decides where the slice that straddles each
    bound lands, which is the first-order error across bounds; within a
    segment the product is exact.
    """
    prof = schedule.dilation
    steps = schedule.steps
    t0, t1 = prof.t[0], prof.t[-1]
    dt = (t1 - t0) / steps

    def tau_edge(j: int) -> float:
        # proper time at edge j of np.linspace(t0, t1, steps + 1), bit for bit;
        # O(log steps) edges per bound are evaluated, never all steps + 1
        return np.interp(t1 if j == steps else j * dt + t0, prof.t, prof.tau)

    # slice k is the one whose right edge is the first edge at or past a bound;
    # it starts the later segment iff its midpoint is not below that bound
    starts = [0]
    for bound in schedule.tau_bounds[:-1]:
        k = min(max(bisect_left(range(steps + 1), bound, key=tau_edge) - 1, 0), steps - 1)
        starts.append(k + (0.5 * (tau_edge(k) + tau_edge(k + 1)) < bound))
    starts.append(steps)
    u = np.eye(schedule.dim, dtype=complex)
    for spec, start, end in zip(schedule.segments, starts[:-1], starts[1:]):
        if end > start:
            d_tau = tau_edge(end) - tau_edge(start)
            u = spectrum_expm(spec, -1j * d_tau) @ u
    return u
