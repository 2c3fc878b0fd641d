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
  variable is diagonal in the initial eigenbasis. Its reduction, for a
  sweep's column or one config alone, is ``scenarios._dilated_stacks``.
* ``appendix`` (driven) -- the internal Hamiltonian depends on proper time;
  the evolution is a time-ordered product and the final measurement basis is
  either the transported initial eigenbasis or the eigenbasis of the final
  laboratory-frame Hamiltonian.

Work distributions are exact discrete atom lists, each one ``WorkRows``, so
every estimator is a finite sum over the joint weights p_m T_nm, sorted by
work value. Atoms within the merge tolerance of each other are merged only
when asked, for showing or sampling the distribution; Monte Carlo sampling
is a front-end for the exact distribution, not the primary estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .channels import PropagatorSchedule, QuantumChannel
from .channels import time_ordered_propagator, unitality_deviation
from .operators import FINAL_BASES, HermitianOperator, Spectrum, _as_spectrum, cluster_bounds
# spectral_decompose is unused here; bench/test_bench.py reads protocol.spectral_decompose
from .operators import require, spectral_decompose  # noqa: F401
from .thermo import ThermalEnsemble, free_energy_difference_from_log_z
from .thermo import log_sum_exp, thermal_state

PROB_SUM_ATOL = 1e-10
PROB_NEGATIVE_ATOL = 1e-12
MERGE_REL_TOL = 1e-9


class WorkRows(NamedTuple):
    """The work atoms of one run, or of a stack of runs.

    ``values`` and ``probs`` are the atoms sorted by value, read-only, one row
    per run (1-D for one run), with rounding-level negative weights set to 0;
    ``merge_tol`` is each row's tolerance. The estimators sum these rows, in
    which a zero weight adds nothing. ``row(i)`` merges run i's atoms into a
    1-D ``WorkRows`` and drops the empty ones; a merged row merges to itself.
    """

    values: np.ndarray
    probs: np.ndarray
    merge_tol: float | np.ndarray

    @property
    def size(self) -> int:
        """Atoms kept by the merge, summed over the runs."""
        runs = len(self.values) if self.values.ndim == 2 else 1
        return sum(self.row(i).values.size for i in range(runs))

    def row(self, i: int = 0) -> WorkRows:
        """The merged atoms of run ``i``; a negative i counts from the end, as in the columns."""
        v, p, tol = self.values, self.probs, self.merge_tol
        if v.ndim == 2:
            i = range(len(v))[i]
            v, p, tol = v[i], p[i], float(tol[i])
        # atoms that need no merge come back with their own bits
        v, p = _merge_atoms(v, p, v[1:] - v[:-1] >= tol)
        v, p = v[p > 0.0], p[p > 0.0]
        v.flags.writeable = p.flags.writeable = False
        return WorkRows(v, p, tol)


def _spread(values: np.ndarray, probs: np.ndarray, low, total) -> float:
    """The spread of one run's atoms sorted by value, given the least and the
    sum of its weights; raises on the first rule the run breaks."""
    lo, hi = float(values[0]), float(values[-1])
    # nan and +inf sort last, -inf first: a nan or inf entry shows in lo, hi, low or
    # the sum; only then is every entry tested. hi - lo is taken in Python floats,
    # so a spread past the float range is inf
    finite = math.isfinite(lo) and math.isfinite(hi) and math.isfinite(low)
    if not (finite and math.isfinite(total)) and not (
        np.isfinite(values).all() and np.isfinite(probs).all()
    ):
        raise ValueError("work atoms must be finite")
    if low < -PROB_NEGATIVE_ATOL:
        raise ValueError(f"negative atom probability: {low:.3e}")
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"atom probabilities sum to {float(total)!r}, not 1")
    if hi - lo == math.inf:
        raise ValueError("work atoms span more than the float range")
    return hi - lo


def _work_rows(values: np.ndarray, probs: np.ndarray) -> WorkRows:
    """Work atoms of each row of ``values`` and ``probs``: shape (n,) for one
    run, (r, n) for a stack of r.

    One run is sorted and checked by ``_spread``. A stack runs the sort and
    the checks as arrays, and only its first bad row goes through
    ``_spread``, which raises the error that row raises alone. The caller
    holds ``np.errstate(over="ignore", invalid="ignore")``: a bad row's sum
    may overflow or be nan.
    """
    order = values.argsort(axis=-1, kind="stable")
    lows = np.minimum.reduce(probs, -1)
    totals = np.add.reduce(probs, -1)
    if values.ndim == 1:  # one run keeps its 1-D arrays and its Python floats
        values, probs = values[order], probs[order]
        tol = MERGE_REL_TOL * max(1.0, _spread(values, probs, lows, totals))
    else:
        rows = np.arange(len(values))[:, None]
        values, probs = values[rows, order], probs[rows, order]
        spread = values[:, -1] - values[:, 0]
        # a row fails here exactly when ``_spread`` raises for it
        ok = np.isfinite(spread) & (lows >= -PROB_NEGATIVE_ATOL)
        ok &= abs(totals - 1.0) <= PROB_SUM_ATOL
        if not ok.all():
            _spread(*(column[ok.argmin()] for column in (values, probs, lows, totals)))
        tol = MERGE_REL_TOL * np.maximum(1.0, spread)
        tol.setflags(write=False)
    # with every weight > 0 the clamp is the identity
    if not (lows > 0.0).all():
        probs = np.maximum(probs, 0.0)
    values.flags.writeable = probs.flags.writeable = False
    return WorkRows(values, probs, tol)


def _merge_atoms(values: np.ndarray, probs: np.ndarray, split: np.ndarray):
    """Merge near-equal work values of one run's atoms, sorted by value, in one pass.

    The rule: a new run starts after every gap that ``split`` marks, the gaps
    between consecutive values that are >= the merge tolerance. Each run of
    atoms becomes one atom carrying the run's total weight, at the run's
    probability-weighted mean value, clipped into the run's value range so
    that rounding cannot close a gap. An empty run, which the caller drops,
    gets its weighted sum 0 clipped into that range. When every gap is marked
    the atoms come back with their own values and weights: a one-atom run
    keeps its weight, and its value clipped into ``[v, v]`` is ``v``. Gives
    the merged ``(values, weights)``.
    """
    # each run ends where the next starts, the last at the end
    edges = np.flatnonzero(np.concatenate(([True], split, [True])))
    starts, ends = edges[:-1], edges[1:]
    weight = np.add.reduceat(probs, starts)
    merged = np.add.reduceat(values * probs, starts) / np.where(weight > 0.0, weight, 1.0)
    return np.minimum(np.maximum(merged, values[starts]), values[ends - 1]), weight


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
) -> WorkRows:
    """Assemble work atoms W[n, m] = E_final[n] - E_initial[m] with joint weights.

    ``initial_energies``, ``initial_probs`` and ``final_energies`` hold one
    row per run (1-D for one run); the runs share one (d, d) transition matrix
    or have one each, (r, d, d).
    """
    w = final_energies[..., :, None] - initial_energies[..., None, :]
    joint = transitions * initial_probs[..., None, :]
    flat = w.shape[:-2] + (-1,)
    return _work_rows(w.reshape(flat), joint.reshape(flat))


def work_distribution_dilated(
    spec0: Spectrum, alpha_final: float, beta: float
) -> WorkRows:
    """Work statistics when the spectrum is rescaled by the final clock rate.

    Eigenstates ride along the evolution, so each trajectory keeps its level
    index and the work atoms are alpha * E_m - E_m with the thermal weights.
    """
    require(alpha_final=alpha_final)
    return estimate(thermal_state(spec0, beta), alpha_final * spec0.eigenvalues).atoms.row()


def jarzynski_lhs(wd: WorkRows, beta: float) -> float:
    """The exponential work average sum_i p_i e^(-beta w_i) of one run, in log space."""
    require(beta=beta)
    return float(np.exp(_log_work_average(wd.values, wd.probs, beta)))


def _log_work_average(values: np.ndarray, probs: np.ndarray, beta):
    """ln sum_i p_i e^(-beta w_i) along the last axis; ``beta`` a scalar, or
    a column with one entry per row of a stack."""
    return log_sum_exp(np.log(probs) - beta * values)


def _nonunital_correction(channel: QuantumChannel, vecs: np.ndarray, probs: np.ndarray) -> float:
    """Tr[(Theta(1) - 1) w_final] of a non-unital channel; a unital one's is exactly 0.

    The final Gibbs state, of weights ``probs``, is diagonal in the final eigenbasis
    ``vecs``, so the trace is the thermal average of the deviation's diagonal there.
    The unitality deviation is stored relative to the maximally mixed state 1/d, so
    that average is scaled back up by d.
    """
    diag = np.real(np.sum(vecs.conj() * (unitality_deviation(channel) @ vecs), axis=0))
    return channel.dim * float(probs @ diag)


def generalized_jarzynski_rhs(delta_f, beta, correction: float) -> float | np.ndarray:
    """Equilibrium side of the work equality, with the non-unital correction
    Tr[(Theta(1) - 1) w_final]; exactly e^(-beta delta_f) when it is 0. A
    float for scalar ``delta_f`` and ``beta``, one value per entry for arrays."""
    rhs = np.exp(-beta * delta_f) * (1.0 + correction)
    return rhs if isinstance(rhs, np.ndarray) else float(rhs)


@dataclass(frozen=True)
class Estimates:
    """What a run's TPM inputs give: work atoms, <W>, dF and both sides of
    the work equality, as a run's floats or a stack's columns. A report row
    copies ``beta`` and every estimator column from here, so each formula
    below has one copy, for floats and columns alike. A stacked ensemble of r
    runs gives read-only (r,) arrays, ``beta`` the ensemble's own. ``atoms``
    is the ``WorkRows`` the estimators were summed over, 1-D for one run;
    ``atoms.row(i)`` is run i's merged atoms, a 1-D ``WorkRows``."""

    beta: float | np.ndarray
    atoms: WorkRows
    mean_work: float | np.ndarray
    delta_f: float | np.ndarray
    lhs: float | np.ndarray
    rhs: float | np.ndarray

    @property
    def residual(self) -> float | np.ndarray:
        """lhs - rhs, zero when the work equality holds."""
        return self.lhs - self.rhs

    @property
    def entropy_production(self) -> float | np.ndarray:
        """Mean irreversible entropy beta * (<W> - dF), nonnegative for
        unital processes by Jensen's inequality."""
        return self.beta * (self.mean_work - self.delta_f)


def estimate(
    gibbs: ThermalEnsemble,
    final_energies: np.ndarray,
    transitions=None,
    correction: float | np.ndarray = 0.0,
) -> Estimates:
    """The estimator tail every pipeline shares.

    From the initial Gibbs ensemble (energies, weights, ``beta``, partition
    sum), which serves any number of final energies, the final measured
    energies and the transition matrix it builds the sorted work atoms, sums
    their mean and the exponential work average over them unmerged (a zero
    weight enters as log 0 = -inf and adds nothing), and takes dF from the
    final energies and the ensemble's partition sum and the rhs with the
    non-unital ``correction``. No atom is merged here. An overflow of either
    side gives inf, not a warning. ``transitions=None`` stands for the
    identity matrix: every trajectory keeps its level index, so there are d
    atoms E_final[m] - E_initial[m] instead of d^2 mostly empty ones.
    ``final_energies`` has the shape of the ensemble's energies.

    A stacked ensemble of r runs of dimension d, with final energies of shape
    (r, d), gives one ``Estimates`` of (r,) columns, entry i bit for bit what
    run i gives alone and ``atoms.row(i)`` its merged atoms; its runs share a
    (d, d) ``transitions`` and a ``correction`` or have one each, (r, d, d)
    and (r,). Every numpy call runs once per stack. One run gives floats.
    """
    initial, beta, log_z, probs = gibbs.energies, gibbs.beta, gibbs.log_z, gibbs.probs
    final = np.asarray(final_energies, dtype=float, order="C")
    if final.shape != initial.shape:
        raise ValueError(f"final energies have shape {final.shape}, not {initial.shape}")
    with np.errstate(all="ignore"):
        if transitions is None:
            atoms = _work_rows(final - initial, probs)
        else:
            atoms = tpm_distribution(initial, probs, final, transitions)
        delta_f = free_energy_difference_from_log_z(final, log_z, beta)
        rhs = generalized_jarzynski_rhs(delta_f, beta, correction)
        # both sums run over the sorted rows; vecdot of C-contiguous rows has the
        # bits of each row's ndarray.dot, which is cheaper to call for one run
        one = initial.ndim == 1
        mean_work = atoms.values.dot(atoms.probs) if one else np.vecdot(atoms.values, atoms.probs)
        lhs = np.exp(_log_work_average(atoms.values, atoms.probs, beta if one else beta[:, None]))
    if one:
        mean_work, delta_f, lhs = float(mean_work), float(delta_f), float(lhs)
    else:  # a stack's columns are read-only, as its atoms are
        mean_work.flags.writeable = delta_f.flags.writeable = False
        lhs.flags.writeable = rhs.flags.writeable = False
    # filled in place: the frozen dataclass's __init__ would set each field
    # through object.__setattr__
    est = object.__new__(Estimates)
    vars(est).update(beta=beta, atoms=atoms, mean_work=mean_work, delta_f=delta_f, lhs=lhs, rhs=rhs)
    return est


def sample_outcomes(wd: WorkRows, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from one run's atoms, as given; deterministic for a fixed seed."""
    require(n=n, seed=seed)
    rng = np.random.default_rng(seed)
    probs = wd.probs / wd.probs.sum()
    idx = rng.choice(len(wd.values), size=n, p=probs)
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
    def rows(cls, est: Estimates, labels: list) -> list:
        """One row per run of ``est``, a run's floats or a stack's columns, with its
        ``labels``; raises ``TypeError`` unless each row's labels are the other columns,
        and ``ValueError`` naming each non-finite column of the first bad row."""
        with np.errstate(all="ignore"):  # a stack's inf - inf is nan, as a run's is
            numbers = np.array([np.ravel(getattr(est, name)) for name in _ESTIMATED.values()])
        reports, label_sum = [], 0.0
        for row, values in zip(labels, numbers.T.tolist(), strict=True):
            if row.keys() != _LABELS:
                raise TypeError(f"report labels {sorted(row)} are not {sorted(_LABELS)}")
            # filled in place, numbers first: an empty __dict__ would copy a dict's whole table
            rep = object.__new__(cls)
            vars(rep).update(zip(_ESTIMATED, values))
            vars(rep).update(row)
            # the labels' float columns: their sum is finite unless one is not, or it overflows
            label_sum += row["alpha_final"] + row["tau_total"]
            reports.append(rep)
        for rep in [] if math.isfinite(label_sum) and np.isfinite(numbers).all() else reports:
            bad = [f"{n}={v!r}" for n in _FLOAT_COLUMNS if not math.isfinite(v := getattr(rep, n))]
            if bad:
                raise ValueError(f"report has non-finite values: {', '.join(bad)}")
        return reports

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}

    def to_csv_row(self) -> str:
        return ",".join([str(getattr(self, name)) for name in CSV_COLUMNS])

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(ProtocolReport))
_FLOAT_COLUMNS = tuple(f.name for f in fields(ProtocolReport) if f.type == "float")
# report column -> the ``Estimates`` field it copies
_ESTIMATED = dict(beta="beta", mean_work="mean_work", delta_F="delta_f", lhs="lhs", rhs="rhs",
                  residual="residual", entropy_production="entropy_production")
_LABELS = frozenset(CSV_COLUMNS).difference(_ESTIMATED)


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
class AppendixRun:
    """Prepared inputs for the driven (proper-time-dependent) pipeline."""

    scenario_id: str
    beta: float
    schedule: PropagatorSchedule
    final_basis: str = "evolved"

    def __post_init__(self):
        require(final_basis=self.final_basis)


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


class ReducedRun(NamedTuple):
    """A run's or a stack's TPM inputs, as ``estimate`` takes them, and its report
    labels, one dict a row."""

    initial: np.ndarray
    beta: float | np.ndarray
    final: np.ndarray
    transitions: np.ndarray | None
    correction: float
    labels: list


def reduce_run(run) -> ReducedRun:
    """Reduce a prepared run to its TPM inputs, with every check made before
    ``estimate``. Only a flat run's Hamiltonians may arrive undecomposed."""
    correction = 0.0
    if isinstance(run, FlatRun):
        spec0, spec_f = map(_as_spectrum, (run.h0, run.h_final))
        e_final = spec_f.eigenvalues
        trans = conditional_probabilities(spec0, spec_f, run.channel)
        if not run.channel.is_unital:
            probs = thermal_state(spec_f, run.beta).probs
            correction = _nonunital_correction(run.channel, spec_f.eigenvectors, probs)
        pipeline, alpha, tau_total, final_basis, steps = "flat", 1.0, 0.0, "instantaneous", 0
    elif isinstance(run, AppendixRun):
        spec0, e_final, trans = _appendix_inputs(run)
        prof = run.schedule.dilation
        pipeline, alpha, tau_total = "appendix", prof.alpha_final, prof.tau_total
        final_basis, steps = run.final_basis, run.schedule.steps
    else:
        raise TypeError(f"unsupported run type: {type(run).__name__}")
    require(beta=run.beta)  # a stack reads its betas as one float array, where a bool passes
    labels = dict(scenario_id=run.scenario_id, pipeline=pipeline, dim=spec0.dim, alpha_final=alpha)
    labels.update(tau_total=tau_total, final_basis=final_basis, steps=steps)
    return ReducedRun(spec0.eigenvalues, run.beta, e_final, trans, correction, [labels])


def report_rows(runs):
    """The report rows of each reduced run or stack of ``runs``, any iterable read
    lazily, in order: one ``estimate`` call for each item read, whose rows come
    before the next item is read. A stack's row i is bit for bit its run alone,
    and a stack raises the first error of its runs."""
    for run in runs:
        gibbs = ThermalEnsemble(run.beta, run.initial)
        yield from ProtocolReport.rows(estimate(gibbs, *run[2:5]), run.labels)


def run_protocol(run) -> ProtocolReport:
    """The report row of a prepared run: ``reduce_run``, then ``report_rows``."""
    return next(report_rows([reduce_run(run)]))
