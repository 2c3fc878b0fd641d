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

import math
from dataclasses import dataclass, fields

import numpy as np

from .channels import PropagatorSchedule, QuantumChannel
from .channels import time_ordered_propagator, unitality_deviation
from .operators import HermitianOperator, Spectrum, _as_spectrum, cluster_bounds
# unused here; bench/test_bench.py reads protocol.spectral_decompose
from .operators import spectral_decompose  # noqa: F401
from .spacetime import DilationProfile
from .thermo import ThermalEnsemble, _check_beta, free_energy_difference_from_log_z
from .thermo import log_sum_exp, thermal_state

PROB_SUM_ATOL = 1e-10
PROB_NEGATIVE_ATOL = 1e-12
MERGE_REL_TOL = 1e-9

FINAL_BASES = ("evolved", "instantaneous")


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete work atoms (value, probability), sorted and deduplicated.

    Atoms closer than ``merge_tol``, ``MERGE_REL_TOL`` times the larger of 1
    and the spread of the input values, are combined into one at their
    probability-weighted mean value; forbidden transitions (zero weight)
    are dropped, so the remaining atoms are exactly the support.
    """

    values: np.ndarray
    probs: np.ndarray
    merge_tol: float

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and probs must be equal-length 1-D arrays")
        lo, hi, low = values.min(), values.max(), probs.min()
        # a nan or inf entry shows in lo, hi, low or the sum (taken with low
        # finite, so no inf - inf); only then is every entry tested
        finite = math.isfinite(lo) and math.isfinite(hi) and math.isfinite(low)
        if not (finite and math.isfinite(total := probs.sum())) and not (
            np.isfinite(values).all() and np.isfinite(probs).all()
        ):
            raise ValueError("work atoms must be finite")
        if low < -PROB_NEGATIVE_ATOL:
            raise ValueError(f"negative atom probability: {low:.3e}")
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"atom probabilities sum to {float(total)!r}, not 1")
        # with every weight > 0 the clamp is the identity and no merged atom
        # is empty, so both steps run only when some weight is <= 0
        empty = low <= 0.0
        if empty:
            probs = np.clip(probs, 0.0, None)
        merge_tol = MERGE_REL_TOL * max(1.0, float(hi - lo))
        values, probs = _merge_atoms(values, probs, merge_tol)
        if empty:
            keep = probs > 0.0
            values, probs = values[keep], probs[keep]
        values.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "merge_tol", merge_tol)

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
    that rounding cannot close a gap. The sorted atoms come back as they
    are when no gap is below ``tol``: a one-atom run keeps its weight, and
    its mean clipped into ``[v, v]`` is ``v``. Returns new arrays.
    """
    order = values.argsort(kind="stable")
    values, probs = values[order], probs[order]
    split = values[1:] - values[:-1] >= tol
    if split.all():
        return values, probs
    starts = np.flatnonzero(np.concatenate(([True], split)))
    ends = np.append(starts[1:], values.size)
    weight = np.add.reduceat(probs, starts)
    plain = np.add.reduceat(values, starts) / (ends - starts)
    weighted = np.add.reduceat(values * probs, starts) / np.where(weight > 0.0, weight, 1.0)
    merged = np.where(weight > 0.0, weighted, plain)
    return np.clip(merged, values[starts], values[ends - 1]), weight


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
    return WorkDistribution(w.ravel(), joint.ravel())


def work_distribution_dilated(
    spec0: Spectrum, alpha_final: float, beta: float
) -> WorkDistribution:
    """Work statistics when the spectrum is rescaled by the final clock rate.

    Eigenstates ride along the evolution, so each trajectory keeps its level
    index and the work atoms are alpha * E_m - E_m with the thermal weights.
    """
    if alpha_final <= 0:
        raise ValueError(f"alpha_final must be positive, got {alpha_final!r}")
    return estimate(thermal_state(spec0, beta), alpha_final * spec0.eigenvalues).atoms


def jarzynski_lhs(wd: WorkDistribution, beta: float) -> float:
    """The exponential work average sum_i p_i e^(-beta w_i), summed in log space."""
    _check_beta(beta)
    return float(np.exp(log_sum_exp(np.log(wd.probs) - beta * wd.values)))


def _nonunital_correction(spec_f: Spectrum, channel: QuantumChannel, beta: float) -> float:
    """Tr[(Theta(1) - 1) w_final]; exactly 0 for unital channels.

    The final Gibbs state is diagonal in the final eigenbasis, so the trace is
    the thermal average of the deviation's diagonal there. The unitality
    deviation is stored relative to the maximally mixed state 1/d, so that
    average is scaled back up by d.
    """
    if channel.is_unital:
        return 0.0
    v = spec_f.eigenvectors
    diag = np.real(np.sum(v.conj() * (unitality_deviation(channel) @ v), axis=0))
    return channel.dim * float(thermal_state(spec_f, beta).probs @ diag)


def generalized_jarzynski_rhs(delta_f: float, beta: float, correction: float) -> float:
    """Equilibrium side of the work equality, with the non-unital correction
    Tr[(Theta(1) - 1) w_final]; exactly e^(-beta delta_f) when it is 0."""
    return float(np.exp(-beta * delta_f) * (1.0 + correction))


def entropy_production(mean_work: float, delta_f: float, beta: float) -> float:
    """Mean irreversible entropy: beta * (<W> - delta F), nonnegative for
    unital processes by Jensen's inequality."""
    _check_beta(beta)
    return beta * (mean_work - delta_f)


@dataclass(frozen=True)
class Estimates:
    """What one run's TPM inputs give: work atoms, dF and both sides of the work equality."""

    beta: float
    atoms: WorkDistribution
    delta_f: float
    lhs: float
    rhs: float

    @property
    def mean_work(self) -> float:
        return self.atoms.mean()

    @property
    def entropy_production(self) -> float:
        return entropy_production(self.mean_work, self.delta_f, self.beta)


def estimate(
    gibbs: ThermalEnsemble,
    final_energies: np.ndarray,
    transitions=None,
    correction: float = 0.0,
) -> Estimates:
    """The estimator tail every pipeline shares.

    From the initial Gibbs ensemble (spectrum, weights, ``beta``, partition
    sum), which serves any number of final energies, the final measured
    energies and the transition matrix it builds the work atoms, dF from the
    final energies and the ensemble's partition sum, the exponential work
    average and the rhs with the non-unital ``correction``. An overflow of
    either side gives inf, not a warning. ``transitions=None`` stands for the
    identity matrix: every trajectory keeps its level index, so there are d
    atoms E_final[m] - E_initial[m] instead of d^2 mostly empty ones.
    """
    initial, beta = gibbs.spectrum.eigenvalues, gibbs.beta
    if transitions is None:
        atoms = WorkDistribution(final_energies - initial, gibbs.probs)
    else:
        atoms = tpm_distribution(initial, gibbs.probs, final_energies, transitions)
    delta_f = free_energy_difference_from_log_z(final_energies, gibbs.log_z, beta)
    with np.errstate(over="ignore"):
        lhs = jarzynski_lhs(atoms, beta)
        rhs = generalized_jarzynski_rhs(delta_f, beta, correction)
    return Estimates(beta, atoms, delta_f, lhs, rhs)


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
        if columns.keys() != _INPUT_CASTS.keys():
            raise TypeError(f"build takes the columns {list(_INPUT_CASTS)}, got {list(columns)}")
        row = {name: cast(columns[name]) for name, cast in _INPUT_CASTS.items()}
        report = cls(
            **row,
            residual=row["lhs"] - row["rhs"],
            entropy_production=entropy_production(row["mean_work"], row["delta_F"], row["beta"]),
        )
        bad = [
            f"{name}={value!r}"
            for name in _FLOAT_COLUMNS
            if not math.isfinite(value := getattr(report, name))
        ]
        if bad:
            raise ValueError(f"report has non-finite values: {', '.join(bad)}")
        return report

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}

    def to_csv_row(self) -> str:
        return ",".join(_csv_cell(getattr(self, name)) for name in CSV_COLUMNS)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(ProtocolReport))
# the columns ``build`` takes, each with its cast; the other two are derived
_INPUT_CASTS = {
    f.name: {"str": str, "int": int, "float": float}[f.type]
    for f in fields(ProtocolReport)
    if f.name not in ("residual", "entropy_production")
}
_FLOAT_COLUMNS = tuple(f.name for f in fields(ProtocolReport) if f.type == "float")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class FlatRun:
    """Prepared inputs for the flat pipeline; either Hamiltonian may also be a
    ``HermitianOperator``, which ``run_protocol`` decomposes (bench/ draws matrices)."""

    scenario_id: str
    beta: float
    h0: HermitianOperator | Spectrum
    h_final: HermitianOperator | Spectrum
    channel: QuantumChannel


@dataclass(frozen=True)
class DilatedRun:
    """Prepared inputs for the time-independent dilated pipeline."""

    scenario_id: str
    beta: float
    h0: Spectrum
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
    # the final laboratory Hamiltonian alpha_final * H_last shares the last eigenbasis
    spec0 = sched.segments[0]
    spec_f = sched.segments[-1].scaled(sched.dilation.alpha_final)
    channel = QuantumChannel([time_ordered_propagator(sched)])
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
    final measured energies and a transition matrix; ``estimate`` turns
    those into the estimators of the report row. Only a flat run's
    Hamiltonians may arrive undecomposed.
    """
    correction = 0.0
    if isinstance(run, FlatRun):
        spec0, spec_f = map(_as_spectrum, (run.h0, run.h_final))
        e_final = spec_f.eigenvalues
        trans = conditional_probabilities(spec0, spec_f, run.channel)
        correction = _nonunital_correction(spec_f, run.channel, run.beta)
        pipeline, alpha, tau_total, final_basis, steps = "flat", 1.0, 0.0, "instantaneous", 0
    elif isinstance(run, DilatedRun):
        spec0, trans = run.h0, None
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
    est = estimate(thermal_state(spec0, run.beta), e_final, trans, correction)
    # an overflow is reported by ``build`` as a non-finite column
    return ProtocolReport.build(
        scenario_id=run.scenario_id,
        pipeline=pipeline,
        dim=spec0.dim,
        beta=run.beta,
        alpha_final=alpha,
        tau_total=tau_total,
        mean_work=est.mean_work,
        delta_F=est.delta_f,
        lhs=est.lhs,
        rhs=est.rhs,
        final_basis=final_basis,
        steps=steps,
    )
