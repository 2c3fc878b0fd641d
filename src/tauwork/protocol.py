"""The two-point-measurement work protocol and its fluctuation relations.

Three pipelines reduce to the same two-point measurement -- initial energies
with Gibbs weights, final energies and a transition matrix -- and share one
tail that turns those into work atoms and estimators:

* ``flat`` -- projective energy measurement, an arbitrary Kraus channel, a
  second measurement in the final Hamiltonian's eigenbasis. The exponential
  work average obeys the generalized equality with a correction term for
  non-unital channels.
* ``dilated`` -- the internal Hamiltonian is fixed but the particle's clock
  runs at a rate ``alpha`` relative to the laboratory at the second
  measurement point, so every energy eigenvalue is rescaled and the work
  variable is diagonal in the initial eigenbasis.
* ``appendix`` (driven) -- the internal Hamiltonian depends on proper time;
  the evolution is a time-ordered product and the final measurement basis is
  either the transported initial eigenbasis or the eigenbasis of the final
  laboratory-frame Hamiltonian.

Work distributions are exact discrete atom lists, so every estimator is a
finite sum; Monte Carlo sampling is provided as a front-end for the exact
distribution, not as the primary estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import json

import numpy as np

from .channels import PropagatorSchedule, QuantumChannel
from .channels import time_ordered_propagator, unitality_deviation
from .operators import HermitianOperator, Spectrum, _as_spectrum, cluster_bounds
from .operators import spectral_decompose
from .spacetime import DilationProfile
from .thermo import free_energy_difference_from_values, log_sum_exp, thermal_state

PROB_SUM_ATOL = 1e-10
PROB_NEGATIVE_ATOL = 1e-12
MERGE_REL_TOL = 1e-9

FINAL_BASES = ("evolved", "instantaneous")


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete work atoms (value, probability), sorted and deduplicated.

    Atoms closer than ``merge_tol`` are combined into one at their
    probability-weighted mean value; forbidden transitions (zero weight)
    are dropped, so the remaining atoms are exactly the support.
    """

    values: np.ndarray
    probs: np.ndarray
    merge_tol: float

    def __init__(self, values, probs, merge_tol: float):
        values = np.array(values, dtype=float)
        probs = np.array(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and probs must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probs))):
            raise ValueError("work atoms must be finite")
        if np.any(probs < -PROB_NEGATIVE_ATOL):
            raise ValueError(f"negative atom probability: {probs.min():.3e}")
        total = probs.sum()
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        values, probs = _merge_atoms(values, np.clip(probs, 0.0, None), merge_tol)
        keep = probs > 0.0
        values, probs = values[keep], probs[keep]
        values.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "merge_tol", float(merge_tol))

    @property
    def size(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.values @ self.probs)


def _merge_atoms(values: np.ndarray, probs: np.ndarray, tol: float):
    """Merge near-equal work values in one pass.

    The rule: sort the atoms and split wherever the gap between consecutive
    values is >= ``tol``. Each run of atoms becomes one atom carrying the
    run's total weight, at the run's probability-weighted mean value (the
    plain mean if the weight is 0), clipped into the run's value range so
    that rounding cannot close a gap.
    """
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) >= tol)))
    ends = np.append(starts[1:], values.size)
    weight = np.add.reduceat(probs, starts)
    plain = np.add.reduceat(values, starts) / (ends - starts)
    weighted = np.add.reduceat(values * probs, starts) / np.where(weight > 0.0, weight, 1.0)
    merged = np.where(weight > 0.0, weighted, plain)
    return np.clip(merged, values[starts], values[ends - 1]), weight


def default_merge_tol(values: np.ndarray) -> float:
    spread = float(values.max() - values.min()) if values.size else 0.0
    return MERGE_REL_TOL * max(1.0, spread)


def conditional_probabilities(
    spec0: Spectrum, spec_final: Spectrum, channel: QuantumChannel
) -> np.ndarray:
    """Transition matrix P[n, m] = Tr(P_n Theta(P_m)) between energy eigenbases.

    Columns (fixed initial outcome m) sum to 1 by trace preservation. Tiny
    negative entries from rounding are clamped to zero and each column is
    renormalized; anything beyond rounding noise raises.
    """
    if not spec0.dim == spec_final.dim == channel.dim:
        raise ValueError("initial basis, final basis and channel dimensions differ")
    v0 = spec0.eigenvectors
    vf = spec_final.eigenvectors
    d = spec0.dim
    p = np.empty((d, d), dtype=float)
    for m in range(d):
        pm = np.outer(v0[:, m], v0[:, m].conj())
        out = channel.apply_matrix(pm)
        p[:, m] = np.real(np.einsum("in,ij,jn->n", vf.conj(), out, vf))
    if p.min() < -PROB_NEGATIVE_ATOL or p.max() > 1.0 + PROB_NEGATIVE_ATOL:
        raise ValueError(
            f"transition probabilities outside [0, 1]: min {p.min():.3e}, "
            f"max {p.max():.3e}"
        )
    cols = p.sum(axis=0)
    if np.max(np.abs(cols - 1.0)) > PROB_SUM_ATOL:
        raise ValueError("transition matrix columns do not sum to 1")
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum(axis=0, keepdims=True)


def tpm_distribution(
    initial_energies: np.ndarray,
    initial_probs: np.ndarray,
    final_energies: np.ndarray,
    transitions: np.ndarray,
) -> WorkDistribution:
    """Assemble work atoms W[n, m] = E_final[n] - E_initial[m] with joint weights."""
    w = final_energies[:, None] - initial_energies[None, :]
    joint = transitions * initial_probs[None, :]
    flat_w = w.ravel()
    return WorkDistribution(flat_w, joint.ravel(), default_merge_tol(flat_w))


def _work_atoms(
    spec0: Spectrum, beta: float, final_energies: np.ndarray, transitions=None
) -> WorkDistribution:
    """TPM work atoms for a Gibbs start in ``spec0``.

    ``transitions=None`` stands for the identity matrix: every trajectory
    keeps its level index, so there are d atoms E_final[m] - E_initial[m]
    instead of d^2 mostly empty ones.
    """
    probs = thermal_state(spec0, beta).probs
    if transitions is None:
        values = final_energies - spec0.eigenvalues
        return WorkDistribution(values, probs, default_merge_tol(values))
    return tpm_distribution(spec0.eigenvalues, probs, final_energies, transitions)


def _flat_inputs(
    h0: HermitianOperator | Spectrum,
    h_final: HermitianOperator | Spectrum,
    channel: QuantumChannel,
):
    """The flat reduction: both spectra and the channel's transition matrix."""
    spec0 = _as_spectrum(h0)
    spec_f = _as_spectrum(h_final)
    return spec0, spec_f, conditional_probabilities(spec0, spec_f, channel)


def work_distribution_flat(
    h0: HermitianOperator | Spectrum,
    h_final: HermitianOperator | Spectrum,
    channel: QuantumChannel,
    beta: float,
) -> WorkDistribution:
    """Work statistics for the flat pipeline: thermal start, channel, final basis."""
    spec0, spec_f, trans = _flat_inputs(h0, h_final, channel)
    return _work_atoms(spec0, beta, spec_f.eigenvalues, trans)


def work_distribution_dilated(
    spec0: Spectrum, alpha_final: float, beta: float
) -> WorkDistribution:
    """Work statistics when the spectrum is rescaled by the final clock rate.

    Eigenstates ride along the evolution, so each trajectory keeps its level
    index and the work atoms are alpha * E_m - E_m with the thermal weights.
    """
    if alpha_final <= 0:
        raise ValueError(f"alpha_final must be positive, got {alpha_final!r}")
    return _work_atoms(spec0, beta, alpha_final * spec0.eigenvalues)


def jarzynski_lhs(wd: WorkDistribution, beta: float) -> float:
    """The exponential work average sum_i p_i e^(-beta w_i), summed in log space."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return float(np.exp(log_sum_exp(np.log(wd.probs) - beta * wd.values)))


def _nonunital_correction(
    h_final: HermitianOperator | Spectrum, channel: QuantumChannel, beta: float
) -> float:
    """Tr[(Theta(1) - 1) w_final]; exactly 0 for unital channels.

    The unitality deviation is stored relative to the maximally mixed state
    1/d, so its trace against the final Gibbs state is scaled back up by d.
    """
    if channel.is_unital:
        return 0.0
    rho_f = thermal_state(h_final, beta).density_operator().matrix
    return channel.dim * float(np.trace(unitality_deviation(channel) @ rho_f).real)


def generalized_jarzynski_rhs(
    h_final: HermitianOperator, channel: QuantumChannel, beta: float, delta_f: float
) -> float:
    """Equilibrium side of the work equality, with the non-unital correction.

    For unital channels this is exactly e^(-beta delta_f); otherwise it is
    multiplied by 1 + Tr[(Theta(1) - 1) w_final].
    """
    return float(np.exp(-beta * delta_f) * (1.0 + _nonunital_correction(h_final, channel, beta)))


def entropy_production(mean_work: float, delta_f: float, beta: float) -> float:
    """Mean irreversible entropy: beta * (<W> - delta F), nonnegative for
    unital processes by Jensen's inequality."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return beta * (mean_work - delta_f)


def sample_outcomes(wd: WorkDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of the work variable; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    probs = wd.probs / wd.probs.sum()
    idx = rng.choice(wd.size, size=n, p=probs)
    return wd.values[idx]


@dataclass(frozen=True)
class ProtocolReport:
    """One protocol run; the fields, in order and with their types, are the report schema."""

    scenario_id: str
    pipeline: str
    dim: int
    beta: float
    alpha_final: float
    tau_total: float
    mean_work: float
    delta_F: float
    lhs: float
    rhs: float
    residual: float
    entropy_production: float
    final_basis: str
    steps: int

    @classmethod
    def build(cls, **columns) -> "ProtocolReport":
        """Cast each input column to its field type and compute the derived columns.

        Raises ``TypeError`` for a missing or unknown column and
        ``ValueError`` naming each non-finite column.
        """
        inputs = [f for f in fields(cls) if f.name not in _DERIVED_COLUMNS]
        if columns.keys() != {f.name for f in inputs}:
            raise TypeError(
                f"build takes the columns {[f.name for f in inputs]}, got {list(columns)}"
            )
        row = {f.name: _CASTS[f.type](columns[f.name]) for f in inputs}
        report = cls(
            **row,
            residual=row["lhs"] - row["rhs"],
            entropy_production=entropy_production(row["mean_work"], row["delta_F"], row["beta"]),
        )
        bad = [
            f"{name}={value!r}"
            for name, value in report.to_dict().items()
            if isinstance(value, float) and not np.isfinite(value)
        ]
        if bad:
            raise ValueError(f"report has non-finite values: {', '.join(bad)}")
        return report

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}

    def to_csv_row(self) -> str:
        return ",".join(_csv_cell(getattr(self, name)) for name in CSV_COLUMNS)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(ProtocolReport))
_DERIVED_COLUMNS = ("residual", "entropy_production")
_CASTS = {"str": str, "int": int, "float": float}


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class FlatRun:
    """Prepared inputs for the flat pipeline; either Hamiltonian may be a Spectrum."""

    scenario_id: str
    beta: float
    h0: HermitianOperator | Spectrum
    h_final: HermitianOperator | Spectrum
    channel: QuantumChannel


@dataclass(frozen=True)
class DilatedRun:
    """Prepared inputs for the time-independent dilated pipeline; ``h0`` may be a Spectrum."""

    scenario_id: str
    beta: float
    h0: HermitianOperator | Spectrum
    profile: DilationProfile


@dataclass(frozen=True)
class AppendixRun:
    """Prepared inputs for the driven (proper-time-dependent) pipeline."""

    scenario_id: str
    beta: float
    schedule: PropagatorSchedule
    final_basis: str = "evolved"

    def __post_init__(self):
        if self.final_basis not in FINAL_BASES:
            raise ValueError(
                f"final_basis must be one of {FINAL_BASES}, got {self.final_basis!r}"
            )


def _appendix_inputs(run: AppendixRun):
    """The driven reduction: initial spectrum, final energies, transitions."""
    sched = run.schedule
    segments = sched.segments
    # the first and last segments are decomposed once each; the final
    # laboratory Hamiltonian alpha_final * H_last shares the last eigenbasis
    generators = [spectral_decompose(segments[0]), *segments[1:]]
    if len(segments) > 1:
        generators[-1] = spectral_decompose(segments[-1])
    spec0 = generators[0]
    spec_f = generators[-1].scaled(sched.dilation.alpha_final)
    channel = QuantumChannel([time_ordered_propagator(sched, tuple(generators))])
    trans = conditional_probabilities(spec0, spec_f, channel)
    if run.final_basis == "evolved":
        # the transported eigenstate U|m> is found with certainty; its energy
        # <m|U^dag H_f U|m> is the final-basis energy averaged over column m.
        # Inside a degenerate cluster Pi the frame {|m>} is arbitrary, so each
        # state of Pi gets the frame-free mean Tr(Pi U^dag H_f U) / dim Pi
        e_final = spec_f.eigenvalues @ trans
        bounds = cluster_bounds(spec0.eigenvalues)
        for i, j in zip(bounds[:-1], bounds[1:]):
            if j - i > 1:
                e_final[i:j] = e_final[i:j].mean()
        return spec0, e_final, None
    return spec0, spec_f.eigenvalues, trans


def run_protocol(run) -> ProtocolReport:
    """Reduce a prepared run to its TPM inputs and assemble the report.

    Every pipeline reduces to the initial spectrum (with Gibbs weights), the
    final measured energies and a transition matrix; one shared tail turns
    those into the work atoms, dF, both sides of the work equality and the
    report row. Only a Hamiltonian that arrives undecomposed is decomposed.
    """
    correction = 0.0
    if isinstance(run, FlatRun):
        spec0, spec_f, trans = _flat_inputs(run.h0, run.h_final, run.channel)
        e_final = spec_f.eigenvalues
        correction = _nonunital_correction(spec_f, run.channel, run.beta)
        pipeline, alpha, tau_total, final_basis, steps = "flat", 1.0, 0.0, "instantaneous", 0
    elif isinstance(run, DilatedRun):
        spec0, trans = _as_spectrum(run.h0), None
        alpha, tau_total = run.profile.alpha_final, run.profile.tau_total
        e_final = alpha * spec0.eigenvalues
        pipeline, final_basis, steps = "dilated", "evolved", 0
    elif isinstance(run, AppendixRun):
        spec0, e_final, trans = _appendix_inputs(run)
        prof = run.schedule.dilation
        pipeline, alpha, tau_total = "appendix", prof.alpha_final, prof.tau_total
        final_basis, steps = run.final_basis, run.schedule.steps
    else:
        raise TypeError(f"unsupported run type: {type(run).__name__}")
    wd = _work_atoms(spec0, run.beta, e_final, trans)
    delta_f = free_energy_difference_from_values(e_final, spec0.eigenvalues, run.beta)
    # an overflow here is reported by ``build`` as a non-finite column
    with np.errstate(over="ignore"):
        lhs = jarzynski_lhs(wd, run.beta)
        rhs = np.exp(-run.beta * delta_f) * (1.0 + correction)
    return ProtocolReport.build(
        scenario_id=run.scenario_id,
        pipeline=pipeline,
        dim=spec0.dim,
        beta=run.beta,
        alpha_final=alpha,
        tau_total=tau_total,
        mean_work=wd.mean(),
        delta_F=delta_f,
        lhs=lhs,
        rhs=rhs,
        final_basis=final_basis,
        steps=steps,
    )
