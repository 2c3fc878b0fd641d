import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauwork import protocol
from tauwork.channels import (
    PropagatorSchedule,
    QuantumChannel,
    amplitude_damping_channel,
    identity_channel,
    time_ordered_propagator,
    unitary_channel,
)
from tauwork.operators import (
    HermitianOperator,
    Spectrum,
    random_hermitian,
    random_unitary,
    spectral_decompose,
    spectrum_expm,
)
from tauwork.protocol import (
    CSV_COLUMNS,
    FINAL_BASES,
    AppendixRun,
    DilatedRun,
    Estimates,
    FlatRun,
    ProtocolReport,
    WorkRows,
    _merge_atoms,
    conditional_probabilities,
    estimate,
    generalized_jarzynski_rhs,
    jarzynski_lhs,
    run_protocol,
    sample_outcomes,
    work_distribution_dilated,
)
from tauwork.scenarios import harmonic_hamiltonian, two_level_hamiltonian
from tauwork.spacetime import (
    DilationProfile,
    comoving_worldline,
    dilation_profile,
    uniform_gravity_worldline,
)
from tauwork.thermo import ThermalEnsemble, thermal_state

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def two_level(eps=1.0):
    return two_level_hamiltonian(eps)


def ground_at_zero(spec):
    """``spec`` with every energy measured from the ground level."""
    return Spectrum(spec.eigenvalues - spec.eigenvalues[0], spec.eigenvectors)


def levels_of(kind, dim, rng):
    """A random spectrum of ``dim`` levels: ``plain``; ``degenerate``, at most
    four distinct integer levels, so atoms merge; or ``cold``, measured from the
    ground level and scaled by 1e6, so most excited Gibbs weights are 0."""
    spec = spectral_decompose(random_hermitian(dim, rng))
    if kind == "degenerate":
        return Spectrum(np.sort(rng.integers(-2, 2, dim)).astype(float), spec.eigenvectors)
    return ground_at_zero(spec).scaled(1e6) if kind == "cold" else spec


def flat_atoms(spec0, spec_f, channel, beta):
    """The merged work atoms of the flat reduction that ``run_protocol`` makes."""
    trans = conditional_probabilities(spec0, spec_f, channel)
    return estimate(thermal_state(spec0, beta), spec_f.eigenvalues, trans).atoms.row()


def work_atoms(values, probs):
    """The merged atoms of one run's raw atom ``values`` and ``probs``, after the
    checks that ``estimate`` makes on them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return protocol._work_rows(np.asarray(values, float), np.asarray(probs, float)).row()


def dilated(spec, alpha, beta):
    """The dilated pipeline's estimators: every eigenvalue rescaled by ``alpha``."""
    return estimate(thermal_state(spec, beta), alpha * spec.eigenvalues)


class TestConditionalProbabilities:
    def test_identity_channel_gives_kronecker_delta(self):
        spec = spectral_decompose(random_hermitian(4, 1))
        p = conditional_probabilities(spec, spec, identity_channel(4))
        np.testing.assert_allclose(p, np.eye(4), atol=1e-12)

    def test_hadamard_type_rotation_spreads_uniformly(self):
        # |<n|(sx + sz)/sqrt(2)|m>|^2 = 1/2 for every pair in the sz basis
        spec = two_level()
        had = (SIGMA_X + np.diag([1.0, -1.0])) / math.sqrt(2.0)
        p = conditional_probabilities(spec, spec, unitary_channel(had))
        np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_evolved_basis_gives_kronecker_delta(self):
        # eigenstates transported by the evolution are found with certainty
        h = random_hermitian(3, 44)
        spec0 = spectral_decompose(h)
        u = spectrum_expm(spec0, -1j * 2.3)
        from tauwork.operators import Spectrum

        spec_evolved = Spectrum(spec0.eigenvalues, u @ spec0.eigenvectors)
        p = conditional_probabilities(spec0, spec_evolved, unitary_channel(u))
        np.testing.assert_allclose(p, np.eye(3), atol=1e-10)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            spec0 = spectral_decompose(random_hermitian(dim, rng))
            spec1 = spectral_decompose(random_hermitian(dim, rng))
            ch = unitary_channel(random_unitary(dim, rng))
            p = conditional_probabilities(spec0, spec1, ch)
            np.testing.assert_allclose(p.sum(axis=0), np.ones(dim), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            conditional_probabilities(
                two_level(),
                spectral_decompose(random_hermitian(3, 0)),
                identity_channel(2),
            )

    @pytest.mark.parametrize(
        "image, message",
        [
            # every column is (2, 2): outside [0, 1]
            (2.0 * np.eye(2), r"transition probabilities outside \[0, 1\]: min 2\.000e\+00"),
            # every column is (0.3, 0.3): inside [0, 1], but sums to 0.6
            (0.3 * np.eye(2), "transition matrix columns do not sum to 1"),
        ],
    )
    def test_rejects_a_map_that_is_not_a_channel(self, image, message):
        class Stub:
            dim = 2

            def apply_matrix(self, mat):
                return image

        with pytest.raises(ValueError, match=message):
            conditional_probabilities(two_level(), two_level(), Stub())


class TestWorkAtoms:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            work_atoms([0.0, 1.0], [0.5, 0.4])

    @pytest.mark.parametrize(
        "values,probs",
        [
            ([0.0, math.nan], [0.5, 0.5]),
            ([-math.inf, 1.0], [0.5, 0.5]),
            ([0.0, 1.0], [math.nan, 0.5]),
            ([0.0, 1.0], [0.5, math.inf]),
            # finiteness is checked before the sign and the sum of the weights
            ([math.nan, 1.0], [-0.5, 0.4]),
            ([-math.inf, 1.0], [2.0, 0.5]),
            ([0.0, 1.0], [math.inf, -0.5]),
            ([0.0, 1.0], [math.inf, -math.inf]),
        ],
    )
    def test_rejects_non_finite_atoms(self, values, probs):
        with pytest.raises(ValueError, match="work atoms must be finite"):
            work_atoms(values, probs)

    def test_overflowing_sum_of_finite_weights_is_a_sum_error(self):
        message = "atom probabilities sum to inf, not 1"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            work_atoms([0.0, 1.0], [1e308, 1e308])

    def test_sum_error_prints_a_plain_float(self):
        with pytest.raises(ValueError, match=r"atom probabilities sum to 0\.9, not 1"):
            work_atoms([0.0, 1.0], [0.5, 0.4])

    def test_rejects_a_spread_beyond_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="work atoms span more than the float range"):
                work_atoms([-1e308, 1e308], [0.5, 0.5])
            # the widest spread that fits keeps both atoms
            wd = work_atoms([-1e308, 7e307], [0.5, 0.5])
        assert wd.size == 2 and wd.merge_tol == pytest.approx(1.7e299)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match=r"negative atom probability: -1\.000e-11"):
            work_atoms([0.0, 1.0, 2.0], [-1e-11, 0.5, 0.5 + 1e-11])

    def test_rounding_level_negative_probability_is_clamped_and_dropped(self):
        wd = work_atoms([0.0, 1.0, 2.0], [-1e-13, 0.5, 0.5 + 1e-13])
        assert np.array_equal(wd.values, [1.0, 2.0])
        assert np.array_equal(wd.probs, [0.5, 0.5 + 1e-13])

    def test_merging_combines_close_atoms(self):
        wd = work_atoms([0.0, 1e-12, 1.0], [0.25, 0.25, 0.5])
        assert wd.size == 2
        np.testing.assert_allclose(wd.probs, [0.5, 0.5])

    def test_merging_preserves_mean(self):
        values = [0.0, 1e-11, 2e-11, 1.0]
        probs = [0.2, 0.3, 0.1, 0.4]
        wd = work_atoms(values, probs)
        assert wd.values @ wd.probs == pytest.approx(float(np.dot(values, probs)), abs=1e-15)

    def test_atoms_sorted_and_separated(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        probs = np.full(40, 1.0 / 40)
        merged_values, merged_probs = merge(*sorted_atoms(values, probs), 1e-2)
        assert np.all(np.diff(merged_values) >= 1e-2 * (1 - 1e-12))
        assert abs(merged_probs.sum() - 1.0) < 1e-12

    def test_identity_protocol_single_atom(self):
        h = two_level()
        wd = flat_atoms(h, h, identity_channel(2), beta=1.0)
        assert wd.size == 1
        assert wd.values[0] == 0.0
        assert wd.probs[0] == pytest.approx(1.0)

    def test_two_level_spin_flip_enumeration(self):
        # deterministic flip: of the four outcome pairs only (0->1) and
        # (1->0) carry weight; the zero-work outcomes have probability 0 and
        # leave no atom behind
        eps, beta = 1.0, math.log(2.0)
        wd = flat_atoms(two_level(eps), two_level(eps), unitary_channel(SIGMA_X), beta=beta)
        p0, p1 = 2.0 / 3.0, 1.0 / 3.0
        np.testing.assert_allclose(wd.values, [-eps, eps], atol=1e-12)
        np.testing.assert_allclose(wd.probs, [p1, p0], atol=1e-12)

    def test_flat_distribution_normalized_for_random_inputs(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            h0 = spectral_decompose(random_hermitian(4, rng))
            h1 = spectral_decompose(random_hermitian(4, rng))
            ch = unitary_channel(random_unitary(4, rng))
            wd = flat_atoms(h0, h1, ch, beta=1.3)
            assert abs(wd.probs.sum() - 1.0) < 1e-10


# Atoms on a coarse grid with small jitter, so that runs of near-equal values
# (and chains of them longer than the tolerance) occur often.
ATOMS = st.lists(
    st.tuples(
        st.integers(-40, 40), st.floats(0.0, 0.05), st.floats(1e-6, 1.0)
    ),
    min_size=1,
    max_size=30,
)
MERGE_TOLS = st.sampled_from([1e-9, 1e-3, 0.02, 0.1, 0.5])


def _atoms(raw):
    values = np.array([0.1 * k + jitter for k, jitter, _ in raw])
    weights = np.array([w for _, _, w in raw])
    return values, weights / weights.sum()


def sorted_atoms(values, probs):
    """The atoms in the stable value order that ``_merge_atoms`` expects."""
    order = np.argsort(values, kind="stable")
    return values[order], probs[order]


def merge(values, probs, tol):
    """``_merge_atoms`` of sorted atoms, splitting at every gap >= ``tol``."""
    return _merge_atoms(values, probs, values[1:] - values[:-1] >= tol)


def reference_merge(values, probs, tol):
    """What ``_merge_atoms`` returns, computed the long way: every atom runs
    through the ``reduceat`` chain."""
    values = np.array(values, dtype=float)
    probs = np.array(probs, dtype=float)
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) >= tol)))
    ends = np.append(starts[1:], values.size)
    weight = np.add.reduceat(probs, starts)
    weighted = np.add.reduceat(values * probs, starts) / np.where(weight > 0.0, weight, 1.0)
    return np.clip(weighted, values[starts], values[ends - 1]), weight


def reference_atoms(values, probs, tol):
    """The atoms ``row()`` keeps: clamp every weight, merge, drop empty atoms."""
    merged, weight = reference_merge(values, np.clip(probs, 0.0, None), tol)
    keep = weight > 0.0
    return merged[keep], weight[keep]


def assert_same_atoms(got, ref):
    """Equal arrays down to the sign of a zero."""
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
        assert np.array_equal(np.signbit(g), np.signbit(r))


class TestMergeRule:
    @settings(max_examples=300, deadline=None)
    @given(ATOMS, MERGE_TOLS)
    @example([(0, 0.0, 0.5), (1, 0.0, 0.0), (2, 0.0, 0.5)], 1e-9)  # zero weight alone
    @example([(0, 0.0, 0.5), (0, 0.01, 0.0), (3, 0.0, 0.5)], 0.1)  # zero weight in a run
    @example([(0, 0.0, 0.5), (1, 0.0, -1e-13), (2, 0.0, 0.5)], 1e-9)
    @example([(0, 0.0, 0.5), (0, 0.01, -1e-13), (2, 0.0, 0.5)], 0.1)
    @example([(0, 0.0, 0.5), (1, 0.0, -0.0), (2, 0.0, 0.5)], 1e-9)
    @example([(-1, 0.0, 0.5), (0, 0.0, -0.0), (1, 0.0, 0.5)], 0.5)
    @example([(3, 0.0, 0.2)] * 5, 1e-9)  # all values equal: one run
    @example([(3, 0.0, 0.0), (3, 0.0, 1.0)], 1e-9)
    def test_matches_reference(self, raw, tol):
        values, probs = _atoms(raw)
        merged = merge(*sorted_atoms(values, probs), tol)
        assert_same_atoms(merged, reference_merge(values, probs, tol))

    @settings(max_examples=300, deadline=None)
    @given(ATOMS)
    @example([(0, 0.0, 0.5), (1, 0.0, 0.0), (2, 0.0, 0.5)])  # zero weight alone
    @example([(0, 0.0, 0.5), (0, 0.0, 0.0), (3, 0.0, 0.5)])  # zero weight in a run
    @example([(0, 0.0, 0.5), (1, 0.0, -1e-13), (2, 0.0, 0.5)])
    @example([(0, 0.0, 0.5), (0, 0.0, -1e-13), (2, 0.0, 0.5)])
    @example([(0, 0.0, 0.5), (1, 0.0, -0.0), (2, 0.0, 0.5)])
    @example([(-1, 0.0, 0.5), (0, 0.0, -0.0), (1, 0.0, 0.5)])
    @example([(3, 0.0, 0.2)] * 5)  # all values equal: one run
    @example([(3, 0.0, 0.0), (3, 0.0, 1.0)])
    def test_distribution_matches_reference(self, raw):
        # the derived tolerance, with the clamp and the drop of empty atoms
        values, probs = _atoms(raw)
        wd = work_atoms(values, probs)
        tol = protocol.MERGE_REL_TOL * max(1.0, values.max() - values.min())
        assert wd.merge_tol == tol
        assert_same_atoms((wd.values, wd.probs), reference_atoms(values, probs, tol))

    @settings(max_examples=300, deadline=None)
    @given(ATOMS, MERGE_TOLS)
    def test_merge_properties(self, raw, tol):
        values, probs = _atoms(raw)
        merged_values, merged_probs = merge(*sorted_atoms(values, probs), tol)
        # one atom per run: a new run starts at every gap >= tol
        assert merged_values.size == 1 + np.count_nonzero(np.diff(np.sort(values)) >= tol)
        assert np.all(np.diff(merged_values) >= tol)
        assert abs(merged_probs.sum() - probs.sum()) <= 1e-15 * values.size
        mean = merged_values @ merged_probs
        assert abs(mean - values @ probs) <= 1e-14 * (1.0 + np.abs(values).max())

    @settings(max_examples=300, deadline=None)
    @given(ATOMS, MERGE_TOLS)
    def test_merging_is_idempotent(self, raw, tol):
        merged = merge(*sorted_atoms(*_atoms(raw)), tol)
        again = merge(*merged, tol)
        assert np.array_equal(again[0], merged[0])
        assert np.array_equal(again[1], merged[1])

    @settings(max_examples=100, deadline=None)
    @given(ATOMS, MERGE_TOLS)
    @example([(0, 0.0, 0.5), (0, 0.0, 0.0), (3, 0.0, 0.5)], 1e-9)  # an empty atom
    @example([(0, 0.0, 0.2), (1, 0.0, 0.3), (2, 0.0, 0.5)], 0.1)  # gaps of exactly tol
    def test_a_merged_row_merges_to_itself(self, raw, tol):
        # every gap between merged atoms is >= tol, so a second merge changes no bit
        values, probs = sorted_atoms(*_atoms(raw))
        merged = WorkRows(values, probs, tol).row()
        again = merged.row()
        assert again.values.tobytes() == merged.values.tobytes()
        assert again.probs.tobytes() == merged.probs.tobytes()
        assert again.merge_tol == merged.merge_tol == tol and again.size == merged.size
        assert not (again.values.flags.writeable or again.probs.flags.writeable)

    def test_chain_longer_than_tol_is_one_run(self):
        # consecutive gaps below tol link atoms even when the run spans more
        values, probs = merge(np.array([0.0, 0.6, 1.2, 1.8, 3.0]), np.full(5, 0.2), 1.0)
        np.testing.assert_allclose(values, [0.9, 3.0], rtol=1e-15)
        np.testing.assert_allclose(probs, [0.8, 0.2], rtol=1e-15)


def reference_log_sum_exp(x):
    """ln sum e^x with the largest term pulled out, through the array methods."""
    m = float(x.max())
    return m + float(np.log(np.exp(x - m).sum()))


def reference_tail(spec0, beta, final_energies, transitions=None, correction=0.0):
    """The estimator tail the long way: the Gibbs ensemble rebuilt from the
    spectrum, the merged atoms from ``reference_atoms`` and each estimator
    written out as a sum over the sorted, unmerged atoms, every weight clamped
    at 0 (a zero weight enters the lhs as log 0 = -inf)."""
    gibbs = thermal_state(spec0, beta)
    if transitions is None:
        values, probs = final_energies - spec0.eigenvalues, gibbs.probs
    else:
        values = (final_energies[:, None] - spec0.eigenvalues[None, :]).ravel()
        probs = (transitions * gibbs.probs[None, :]).ravel()
    tol = protocol.MERGE_REL_TOL * max(1.0, float(values.max() - values.min()))
    atoms = reference_atoms(values, probs, tol)
    values, probs = sorted_atoms(values, np.clip(probs, 0.0, None))
    delta_f = (gibbs.log_z - reference_log_sum_exp(-beta * final_energies)) / beta
    with np.errstate(over="ignore", divide="ignore"):
        lhs = float(np.exp(reference_log_sum_exp(np.log(probs) - beta * values)))
        rhs = float(np.exp(-beta * delta_f) * (1.0 + correction))
    return atoms, delta_f, lhs, rhs, float(values @ probs)


class TestEstimateTail:
    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        beta=st.floats(0.05, 5.0),
        alpha=st.floats(0.3, 3.0),
        channel=st.sampled_from([None, "unitary", "damping"]),
        degenerate=st.booleans(),
        correction=st.floats(-0.5, 0.5),
    )
    @example(  # all work 0
        dim=3, seed=0, beta=1.0, alpha=1.0, channel=None, degenerate=False, correction=0.0
    )
    @example(
        dim=2, seed=1, beta=2.0, alpha=1.0, channel="unitary", degenerate=False, correction=0.0
    )
    @example(
        dim=16, seed=2, beta=0.7, alpha=1.3, channel="damping", degenerate=True, correction=0.1
    )
    @example(
        dim=16, seed=3, beta=1.5, alpha=0.8, channel=None, degenerate=True, correction=0.0
    )
    def test_matches_reference_bit_for_bit(
        self, dim, seed, beta, alpha, channel, degenerate, correction
    ):
        rng = np.random.default_rng(seed)
        spec0 = spectral_decompose(random_hermitian(dim, rng))
        if degenerate:  # at most four distinct levels, so atoms merge
            levels = np.sort(rng.integers(-2, 2, dim)).astype(float)
            spec0 = Spectrum(levels, spec0.eigenvectors)
        if channel is None:
            trans, final = None, alpha * spec0.eigenvalues
        else:
            spec_f = spectral_decompose(random_hermitian(dim, rng)).scaled(alpha)
            if channel == "unitary":
                theta = unitary_channel(random_unitary(dim, rng))
            else:
                # full decay to the first basis state: measured in that basis,
                # every other final level has transition probability exactly 0
                basis = np.eye(dim)
                spec0 = Spectrum(spec0.eigenvalues, basis)
                spec_f = Spectrum(spec_f.eigenvalues, basis)
                theta = amplitude_damping_channel(1.0, dim)
            trans = conditional_probabilities(spec0, spec_f, theta)
            final = spec_f.eigenvalues
        # one ensemble serves several final energies, as in the battery's grids;
        # each is checked as a run of its own and as a row of one stacked call
        gibbs = thermal_state(spec0, beta)
        energies = (final, 0.5 * final)
        stacked = estimate(stack_of([gibbs, gibbs]), np.array(energies), trans, correction)
        for i, e in enumerate(energies):
            ref = reference_tail(spec0, beta, e, trans, correction)
            alone = estimate(gibbs, e, trans, correction)
            for est in (alone, run_of(stacked, i)):
                merged = est.atoms.row()
                assert_same_atoms((merged.values, merged.probs), ref[0])
                got = (est.delta_f, est.lhs, est.rhs, est.mean_work)
                assert [repr(x) for x in got] == [repr(x) for x in ref[1:]]
            assert bits(stacked, i) == bits(alone)


COLUMNS = ("beta", "mean_work", "delta_f", "lhs", "rhs")


def stack_of(ensembles):
    """One stacked ensemble whose row i has the beta and energies of ``ensembles[i]``."""
    return ThermalEnsemble(np.array([g.beta for g in ensembles]), [g.energies for g in ensembles])


def run_of(est, i):
    """Entry i of a stacked ``Estimates``, as the one-run ``Estimates`` it must equal:
    its columns' entries and the 1-D ``WorkRows`` of its sorted row."""
    atoms = WorkRows(est.atoms.values[i], est.atoms.probs[i], float(est.atoms.merge_tol[i]))
    return Estimates(atoms=atoms, **{c: float(getattr(est, c)[i]) for c in COLUMNS})


def bits(est, i=None):
    """Every number of an ``Estimates``, exactly: float reprs, types, and the
    bytes of the sorted atoms and of the merged ones.

    With ``i``, those of entry i of a stack, whose columns and tolerances must
    be read-only float64 arrays with one entry per run."""
    if i is not None:
        columns = [getattr(est, c) for c in COLUMNS] + [est.atoms.merge_tol]
        for column in columns:
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.shape == (len(est.atoms.values),)
            assert not column.flags.writeable
        est = run_of(est, i)
    atoms, merged = est.atoms, est.atoms.row()
    again = merged.row()
    assert (again.values.tobytes(), again.probs.tobytes()) == (
        merged.values.tobytes(), merged.probs.tobytes()
    )
    floats = (est.beta, est.mean_work, est.delta_f, est.lhs, est.rhs, atoms.merge_tol)
    return (
        [repr(x) for x in floats],
        [type(x) for x in floats],
        [a.tobytes() for a in (atoms.values, atoms.probs, merged.values, merged.probs)],
        repr(est),
    )


class TestStackedEstimate:
    """A stack of runs in one ``estimate`` call gives each run's own numbers."""

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        systems=st.lists(
            st.sampled_from(["plain", "degenerate", "cold"]), min_size=1, max_size=4
        ),
        betas=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3),
        runs=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 2), st.sampled_from([0.5, 0.8, 1.0, 1.2, 1.5])
            ),
            min_size=1,
            max_size=8,
        ),
        channel=st.sampled_from([None, "unitary", "damping"]),
        correction=st.floats(-0.5, 0.5),
    )
    @example(  # every rate 1: each row merges into one atom at 0
        dim=4, seed=0, systems=["plain", "plain"], betas=[1.0, 2.0],
        runs=[(0, 0, 1.0), (1, 1, 1.0)], channel=None, correction=0.0,
    )
    @example(  # merged and zero-weight rows of three systems between plain ones
        dim=8, seed=1, systems=["plain", "cold", "degenerate"], betas=[0.5, 1.0, 2.0],
        runs=[(0, 0, 0.5), (1, 1, 1.0), (2, 2, 1.5), (0, 0, 1.0), (1, 2, 1.2), (2, 0, 0.8),
              (0, 1, 1.5), (1, 0, 0.5)],
        channel=None, correction=0.0,
    )
    @example(  # degenerate levels merge at every rate
        dim=8, seed=2, systems=["degenerate"], betas=[0.7], runs=[(0, 0, 0.8), (0, 0, 1.2)],
        channel=None, correction=0.0,
    )
    @example(  # full decay: zero weights are dropped in every row
        dim=5, seed=3, systems=["plain", "degenerate"], betas=[0.5, 3.0],
        runs=[(0, 0, 1.3), (1, 1, 0.8), (0, 0, 1.0)], channel="damping", correction=0.2,
    )
    @example(  # long rows (72 atoms, and 81 with a transition matrix): the stack's
        # vecdot must give each row's own dot, bit for bit, merged rows between plain ones
        dim=72, seed=5, systems=["plain", "degenerate", "cold"], betas=[1.0],
        runs=[(0, 0, 1.2), (1, 0, 0.8), (0, 0, 1.0), (2, 0, 1.5), (0, 0, 0.5)],
        channel=None, correction=0.0,
    )
    @example(
        dim=9, seed=6, systems=["plain", "degenerate", "cold"], betas=[1.0],
        runs=[(0, 0, 1.2), (1, 0, 0.8), (2, 0, 1.0), (0, 0, 1.5)],
        channel="damping", correction=0.0,
    )
    @example(  # four systems under one unitary
        dim=3, seed=4, systems=["plain", "cold", "plain", "degenerate"], betas=[0.3, 2.0],
        runs=[(0, 0, 1.2), (1, 1, 1.0), (2, 0, 0.5), (3, 1, 1.5), (1, 0, 0.8), (3, 0, 1.0)],
        channel="unitary", correction=-0.1,
    )
    def test_each_row_is_its_run_alone(self, dim, seed, systems, betas, runs, channel, correction):
        # a stack draws up to four systems of one dimension; rows that merge (rate 1,
        # degenerate levels) and rows with zero weights (a cold system's excited
        # Gibbs weights underflow, full decay empties most transitions) sit between
        # plain ones
        rng = np.random.default_rng(seed)
        specs = [levels_of(kind, dim, rng) for kind in systems]
        trans = None
        if channel is not None:
            spec_f = spectral_decompose(random_hermitian(dim, rng))
            if channel == "unitary":
                theta = unitary_channel(random_unitary(dim, rng))
            else:  # gamma = 1 in the standard basis: most transitions are exactly 0
                specs = [Spectrum(spec.eigenvalues, np.eye(dim)) for spec in specs]
                spec_f = Spectrum(spec_f.eigenvalues, np.eye(dim))
                theta = amplitude_damping_channel(1.0, dim)
            trans = conditional_probabilities(specs[0], spec_f, theta)
        ensembles = [[thermal_state(spec, beta) for beta in betas] for spec in specs]
        stack = [ensembles[k % len(specs)][j % len(betas)] for k, j, _ in runs]
        finals = np.array([
            alpha * (gibbs.energies if trans is None else spec_f.eigenvalues)
            for gibbs, (_, _, alpha) in zip(stack, runs)
        ])
        stacked = estimate(stack_of(stack), finals, trans, correction)
        for i, (gibbs, final) in enumerate(zip(stack, finals)):
            alone = estimate(gibbs, final, trans, correction)
            assert bits(stacked, i) == bits(alone)

    @staticmethod
    def assert_rows_are_runs_alone(runs):
        """One ``estimate`` call on the stack of reduced ``runs``, each with its
        own transitions and correction, against each run alone; and the report
        rows of the stack against each run's own row."""
        initial, betas, finals, trans, corrections, _ = zip(*runs)
        stacked = estimate(
            ThermalEnsemble(np.array(betas), initial), np.array(finals), np.array(trans),
            np.array(corrections),
        )
        for i, run in enumerate(runs):
            gibbs = ThermalEnsemble(run.beta, run.initial)
            alone = estimate(gibbs, run.final, run.transitions, run.correction)
            assert bits(stacked, i) == bits(alone)
        # numpy scalars print as np.float64(...): the reprs hold every field's type
        rows = protocol.report_rows(runs)
        assert list(map(repr, rows)) == [repr(protocol.report_rows([run])[0]) for run in runs]

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        rows=st.lists(
            st.tuples(
                st.sampled_from(["unitary", "damping", "kraus"]),
                st.sampled_from(["plain", "degenerate", "cold"]),
                st.floats(0.1, 5.0),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    @example(  # one of each channel, full decay among them: zero weights in a row
        dim=4, seed=0, rows=[("unitary", "plain", 1.0), ("damping", "cold", 0.5),
                             ("kraus", "degenerate", 2.0), ("damping", "plain", 3.0)],
    )
    def test_flat_rows_with_their_own_transitions_and_corrections(self, dim, seed, rows):
        rng = np.random.default_rng(seed)
        runs = []
        for channel, levels, beta in rows:
            spec0, spec_f = levels_of(levels, dim, rng), levels_of("plain", dim, rng)
            if channel == "unitary":
                theta = unitary_channel(random_unitary(dim, rng))
            elif channel == "kraus":
                theta = random_kraus_channel(dim, rng)
            else:  # in the standard basis, where full decay leaves most weights at 0
                spec0 = Spectrum(spec0.eigenvalues)
                spec_f = Spectrum(spec_f.eigenvalues)
                theta = amplitude_damping_channel(float(rng.choice([0.3, 1.0])), dim)
            runs.append(protocol.reduce_run(FlatRun("f", beta, spec0, spec_f, theta)))
        self.assert_rows_are_runs_alone(runs)

    @settings(max_examples=30, deadline=None)
    @given(
        levels=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=5),
        rows=st.lists(
            st.tuples(st.lists(st.integers(0, 2**16), max_size=2), st.floats(0.1, 5.0)),
            min_size=2,
            max_size=4,
        ),
    )
    @example(levels=[0.0, 0.0, 1.0, 1.0], rows=[([], 1.0), ([3], 0.5), ([4, 5], 2.0)])
    def test_instantaneous_appendix_rows(self, levels, rows):
        runs = []
        for seeds, beta in rows:
            prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
            hams = [HermitianOperator(np.diag(levels))]
            hams += [random_hermitian(len(levels), s) for s in seeds]
            bounds = [3.0, 6.0][: len(seeds)] + [prof.tau_total]
            sched = PropagatorSchedule(list(zip(bounds, hams)), prof, steps=50)
            run = AppendixRun("a", beta, sched, final_basis="instantaneous")
            runs.append(protocol.reduce_run(run))
        self.assert_rows_are_runs_alone(runs)

    def test_a_stack_of_one_is_a_stack(self):
        gibbs = thermal_state(harmonic_hamiltonian(1.0, 5), 1.0)
        final = 1.2 * gibbs.energies
        stacked = estimate(ThermalEnsemble([1.0], gibbs.energies[None]), final[None])
        assert stacked.atoms.values.shape == (1, 5)
        assert bits(stacked, 0) == bits(estimate(gibbs, final))

    def test_a_row_index_counts_from_the_end_as_the_columns_do(self):
        # the last run merges (rate 1): row(-1) is its merged atom, not its sorted row
        gibbs = thermal_state(harmonic_hamiltonian(1.0, 4), 1.0)
        stacked = estimate(stack_of([gibbs, gibbs]), np.outer([1.2, 1.0], gibbs.energies))
        alone = estimate(gibbs, gibbs.energies)
        assert bits(stacked, -1) == bits(stacked, 1) == bits(alone)
        with pytest.raises(IndexError):
            stacked.atoms.row(2)

    def test_a_bad_row_raises_its_own_error(self):
        gibbs = thermal_state(harmonic_hamiltonian(1.0, 3), 1.0)
        finals = np.array([[0.5, 1.5, 2.5], [0.5, np.nan, 2.5]])
        with pytest.raises(ValueError, match="work atoms must be finite"):
            estimate(stack_of([gibbs, gibbs]), finals)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.5, 0.4], [-0.5, 1.5]], r"atom probabilities sum to 0\.9, not 1"),
            ([[-0.5, 1.5], [0.5, 0.4]], r"negative atom probability: -5\.000e-01"),
        ],
    )
    def test_the_first_bad_row_of_a_stack_raises(self, rows, message):
        initial, final = np.array([0.0, 1.0]), np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=message):
            protocol.tpm_distribution(initial, np.array(rows), final, np.eye(2))

    def test_final_energies_have_the_ensembles_shape(self):
        # a run's final energies broadcast against its levels nowhere: one level for
        # four, or two rows for one run, is an error, as is a stack's wrong row count
        gibbs = thermal_state(harmonic_hamiltonian(1.0, 4), 1.0)
        with pytest.raises(ValueError, match=r"final energies have shape \(1,\), not \(4,\)"):
            estimate(gibbs, np.array([2.0]))
        with pytest.raises(ValueError, match=r"shape \(2, 4\), not \(4,\)"):
            estimate(gibbs, np.outer([1.0, 1.2], gibbs.energies))
        with pytest.raises(ValueError, match=r"shape \(2, 4\), not \(4,\)"):
            estimate(gibbs, np.outer([1.0, 1.2], gibbs.energies), np.eye(4))
        stack = stack_of([gibbs, gibbs])
        with pytest.raises(ValueError, match=r"shape \(4,\), not \(2, 4\)"):
            estimate(stack, gibbs.energies)
        with pytest.raises(ValueError, match=r"shape \(1, 4\), not \(2, 4\)"):
            estimate(stack, gibbs.energies[None])


def random_kraus_channel(dim, rng):
    """A random CPTP map: a Haar isometry split into one to four Kraus blocks."""
    n_kraus = int(rng.integers(1, 5))
    a = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, r = np.linalg.qr(a)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return QuantumChannel([q[j * dim : (j + 1) * dim] for j in range(n_kraus)])


class TestCharacteristicFunction:
    """An oracle that builds no atoms and no transition matrix.

    Because the Gibbs state commutes with H0, the characteristic function of
    the TPM work of a channel Theta is G(u) = Tr[e^(iu H_f) Theta(e^(-iu H_0) rho)]:
    two exponentials and one channel application. The atoms must give
    sum_k p_k e^(iu w_k) = G(u) at real u, and G(i beta) = <e^(-beta W)> = lhs,
    for flat, dilated and instantaneous driven runs (an evolved run is not
    measured in an eigenbasis of H_f). A merge moves the atom sum by at most
    |u| times the merge tolerance, so |u| stays of order 1.
    """

    U = (0.3, 1.0, 2.5, -1.7)

    @staticmethod
    def oracle(spec0, spec_f, channel, beta, u):
        # e^(-iu H0) rho = e^(-(iu + beta) H0) / Z0: one exponential, exactly
        # the identity over Z0 at u = i beta
        z0 = np.sum(np.exp(-beta * spec0.eigenvalues))
        inner = channel.apply_matrix(spectrum_expm(spec0, -(1j * u + beta)) / z0)
        return complex(np.trace(spectrum_expm(spec_f, 1j * u) @ inner))

    def mismatch(self, est, spec0, spec_f, channel):
        """The largest miss of the merged atoms against G, with lhs against G(i beta)."""
        atoms, beta = est.atoms.row(), est.beta
        misses = [
            abs(np.sum(atoms.probs * np.exp(1j * u * atoms.values))
                - self.oracle(spec0, spec_f, channel, beta, u))
            for u in self.U
        ]
        at_i_beta = self.oracle(spec0, spec_f, channel, beta, 1j * beta)
        misses.append(abs(at_i_beta - est.lhs) / max(1.0, est.lhs))
        return max(misses)

    def flat_case(self, dim, seed, kind):
        rng = np.random.default_rng(seed)
        spec0, spec_f = (spectral_decompose(random_hermitian(dim, rng)) for _ in range(2))
        if kind == "damping":
            channel = amplitude_damping_channel(float(rng.uniform(0.05, 1.0)), dim)
        else:
            channel = random_kraus_channel(dim, rng)
        beta = float(rng.uniform(0.2, 2.0))
        trans = conditional_probabilities(spec0, spec_f, channel)
        est = estimate(thermal_state(spec0, beta), spec_f.eigenvalues, trans)
        return est, spec0, spec_f, channel

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["damping", "kraus"]))
    def test_flat_atoms_match(self, dim, seed, kind):
        assert self.mismatch(*self.flat_case(dim, seed, kind)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        runs=st.lists(
            st.tuples(st.floats(0.2, 2.0), st.floats(0.5, 1.5)), min_size=1, max_size=5
        ),
    )
    def test_dilated_atoms_match_one_run_and_stacked(self, dim, seed, runs):
        # the clock rate rescales H0 and the state rides along: Theta is the identity
        spec0 = spectral_decompose(random_hermitian(dim, seed))
        ensembles = [thermal_state(spec0, beta) for beta, _ in runs]
        finals = np.array([alpha * spec0.eigenvalues for _, alpha in runs])
        channel = identity_channel(dim)
        stacked = estimate(stack_of(ensembles), finals)
        for i, ((beta, alpha), gibbs, final) in enumerate(zip(runs, ensembles, finals)):
            spec_f = spec0.scaled(alpha)
            alone = estimate(gibbs, final)
            assert bits(stacked, i) == bits(alone)
            for est in (alone, run_of(stacked, i)):
                assert self.mismatch(est, spec0, spec_f, channel) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(2, 8),
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
        beta=st.floats(0.2, 2.0),
    )
    def test_instantaneous_appendix_atoms_match(self, dim, seeds, beta):
        # measured in the eigenbasis of alpha_final H_last after the driven U
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
        bounds = [3.0, 6.0, 9.0][: len(seeds) - 1] + [prof.tau_total]
        hams = [random_hermitian(dim, s) for s in seeds]
        sched = PropagatorSchedule(list(zip(bounds, hams)), prof, steps=50)
        run = AppendixRun("a", beta, sched, final_basis="instantaneous")
        spec0, e_final, trans = protocol._appendix_inputs(run)
        est = estimate(thermal_state(spec0, beta), e_final, trans)
        spec_f = sched.segments[-1].scaled(prof.alpha_final)
        channel = QuantumChannel([time_ordered_propagator(sched)])
        assert self.mismatch(est, sched.segments[0], spec_f, channel) < 1e-12

    @pytest.mark.parametrize("kind", ["damping", "kraus", "dilated"])
    def test_catches_weights_paired_with_the_wrong_work(self, kind, monkeypatch):
        # the injected fault: atom assembly shifts each weight onto the next value
        original = protocol._work_rows
        monkeypatch.setattr(
            protocol, "_work_rows", lambda values, probs: original(values, np.roll(probs, 1, -1))
        )
        if kind == "dilated":
            spec0 = spectral_decompose(random_hermitian(4, 5))
            est = estimate(thermal_state(spec0, 1.0), 1.3 * spec0.eigenvalues)
            case = est, spec0, spec0.scaled(1.3), identity_channel(4)
        else:
            case = self.flat_case(4, 5, kind)
        assert self.mismatch(*case) > 1e-6


class TestJointWeightSums:
    """lhs and <W> against the two-point measurement's sums, without atoms.

    The outcome (m, n) has joint weight p_m T_nm and work W_nm = E_f[n] -
    E_0[m], so lhs = sum p_m T_nm e^(-beta W_nm) and <W> = sum p_m T_nm W_nm.
    Here both are ``math.fsum`` over the unsorted pairs, from the Gibbs
    weights and the transition matrix alone: no sort, clamp or merge. A
    zero weight adds an exact 0. The lhs's terms are >= 0, so it agrees to
    1e-13 relative; <W>'s may cancel, so its bound is 1e-14 of sum p |W|.
    """

    @staticmethod
    def excess(est, probs, energies, beta, final, trans):
        """How far lhs and <W> miss their sums beyond the bounds; <= 0 when both hold."""
        d = len(probs)
        trans = np.eye(d) if trans is None else trans
        pairs = [
            (float(probs[m] * trans[n, m]), float(final[n] - energies[m]))
            for n in range(d) for m in range(d)
        ]
        lhs = math.fsum(w * math.exp(-beta * x) for w, x in pairs if w)
        mean = math.fsum(w * x for w, x in pairs)
        scale = math.fsum(w * abs(x) for w, x in pairs)
        return max(abs(est.lhs - lhs) - 1e-13 * lhs, abs(est.mean_work - mean) - 1e-14 * scale)

    def check_run(self, gibbs, final, trans):
        est = estimate(gibbs, final, trans)
        return self.excess(est, gibbs.probs, gibbs.energies, gibbs.beta, final, trans)

    def flat_case(self, dim, seed, channel, levels, beta):
        rng = np.random.default_rng(seed)
        spec0, spec_f = levels_of(levels, dim, rng), levels_of("plain", dim, rng)
        if channel == "identity":  # H_f = H_0: every weight sits at zero work
            spec_f, theta = spec0, identity_channel(dim)
        elif channel == "unitary":
            theta = unitary_channel(random_unitary(dim, rng))
        elif channel == "kraus":
            theta = random_kraus_channel(dim, rng)
        else:
            gamma = 1.0 if channel == "full decay" else float(rng.uniform(0.05, 1.0))
            if channel == "full decay":  # in the standard basis most weights are exactly 0
                spec0 = Spectrum(spec0.eigenvalues, np.eye(dim))
                spec_f = Spectrum(spec_f.eigenvalues, np.eye(dim))
            theta = amplitude_damping_channel(gamma, dim)
        trans = conditional_probabilities(spec0, spec_f, theta)
        return thermal_state(spec0, beta), spec_f.eigenvalues, trans

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        channel=st.sampled_from(["identity", "unitary", "kraus", "damping", "full decay"]),
        levels=st.sampled_from(["plain", "degenerate", "cold"]),
        beta=st.floats(0.1, 5.0),
    )
    @example(dim=8, seed=0, channel="identity", levels="degenerate", beta=1.0)
    @example(dim=6, seed=1, channel="full decay", levels="cold", beta=0.5)
    def test_flat_runs(self, dim, seed, channel, levels, beta):
        assert self.check_run(*self.flat_case(dim, seed, channel, levels, beta)) <= 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from(["plain", "degenerate", "cold"]),
        runs=st.lists(
            st.tuples(st.floats(0.1, 5.0), st.sampled_from([0.5, 0.8, 1.0, 1.2, 1.5])),
            min_size=1,
            max_size=6,
        ),
    )
    @example(dim=5, seed=2, levels="cold", runs=[(1.0, 1.0), (2.0, 0.5), (0.5, 1.5)])
    def test_dilated_runs_alone_and_stacked(self, dim, seed, levels, runs):
        # rate 1 merges every atom into one at zero work
        spec = levels_of(levels, dim, np.random.default_rng(seed))
        ensembles = [thermal_state(spec, beta) for beta, _ in runs]
        finals = np.array([alpha * spec.eigenvalues for _, alpha in runs])
        stacked = estimate(stack_of(ensembles), finals)
        for i, (gibbs, final) in enumerate(zip(ensembles, finals)):
            assert self.check_run(gibbs, final, None) <= 0.0
            row = run_of(stacked, i)
            assert self.excess(row, gibbs.probs, spec.eigenvalues, gibbs.beta, final, None) <= 0.0

    @staticmethod
    def appendix_case(levels, seeds, beta):
        # H_0 is diagonal, with repeated levels if ``levels`` repeats one; measured
        # in the eigenbasis of alpha_final H_last after the driven U
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
        hams = [HermitianOperator(np.diag(levels))]
        hams += [random_hermitian(len(levels), s) for s in seeds]
        bounds = [3.0, 6.0][: len(seeds)] + [prof.tau_total]
        sched = PropagatorSchedule(list(zip(bounds, hams)), prof, steps=50)
        run = AppendixRun("a", beta, sched, final_basis="instantaneous")
        spec0, e_final, trans = protocol._appendix_inputs(run)
        return thermal_state(spec0, beta), e_final, trans

    @settings(max_examples=40, deadline=None)
    @given(
        levels=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=5),
        seeds=st.lists(st.integers(0, 2**16), max_size=2),
        beta=st.floats(0.1, 5.0),
    )
    @example(levels=[0.0, 0.0, 1.0, 1.0], seeds=[], beta=1.0)
    def test_instantaneous_appendix_runs(self, levels, seeds, beta):
        assert self.check_run(*self.appendix_case(levels, seeds, beta)) <= 0.0

    @pytest.mark.parametrize("kind", ["unitary", "kraus", "dilated", "appendix"])
    def test_catches_a_dropped_weight(self, kind, monkeypatch):
        # the injected fault: the estimators lose each row's least weight
        original = protocol._work_rows

        def drop_least(values, probs):
            rows = original(values, probs)
            probs = rows.probs.copy()
            np.put_along_axis(probs, probs.argmin(-1)[..., None], 0.0, -1)
            return rows._replace(probs=probs)

        monkeypatch.setattr(protocol, "_work_rows", drop_least)
        if kind == "dilated":
            gibbs = thermal_state(spectral_decompose(random_hermitian(4, 5)), 1.0)
            case = gibbs, 1.3 * gibbs.energies, None
        elif kind == "appendix":
            case = self.appendix_case([0.0, 0.5, 1.0], [7], 1.0)
        else:
            case = self.flat_case(4, 5, kind, "plain", 1.0)
        assert self.check_run(*case) > 0.0


class TestDrivenFirstMoment:
    """<W> of a driven run against its first-moment oracle.

    Both final bases measure H_f = alpha_final H_last after the propagator U,
    so the mean work is Tr[rho U^dag H_f U] - Tr[rho H_0]: one matrix
    product each, from the segments' matrices, numpy's ``eigh`` of H_0 and
    Gibbs weights summed here, without atoms, transition matrix or merge.
    """

    @staticmethod
    def oracle(hams, beta, u, alpha_final):
        energies, basis = np.linalg.eigh(hams[0])
        weights = np.exp(-beta * (energies - energies[0]))
        rho = (basis * (weights / weights.sum())) @ basis.conj().T
        h_f = alpha_final * hams[-1]
        return float(np.real(np.trace(rho @ u.conj().T @ h_f @ u) - np.trace(rho @ hams[0])))

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(2, 6),
        segments=st.integers(1, 4),
        steps=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
        final_basis=st.sampled_from(FINAL_BASES),
    )
    def test_mean_work_is_the_first_moment(self, dim, segments, steps, seed, final_basis):
        rng = np.random.default_rng(seed)
        w = uniform_gravity_worldline(
            float(rng.uniform(-0.03, 0.03)), 10.0, samples=101, p=float(rng.uniform(0.0, 0.3))
        )
        prof = dilation_profile(w)
        hams = [random_hermitian(dim, rng).matrix for _ in range(segments)]
        cuts = np.sort(rng.uniform(0.05, 0.95, segments - 1)) * prof.tau_total
        bounds = [*cuts.tolist(), prof.tau_total]
        sched = PropagatorSchedule(list(zip(bounds, map(HermitianOperator, hams))), prof, steps)
        beta = float(rng.uniform(0.1, 3.0))
        report = run_protocol(AppendixRun("moment", beta, sched, final_basis=final_basis))
        expected = self.oracle(hams, beta, time_ordered_propagator(sched), prof.alpha_final)
        assert abs(report.mean_work - expected) <= 1e-13 * max(1.0, abs(expected))


class TestDilatedDistribution:
    def test_unit_rate_collapses_to_zero_work(self):
        spec = harmonic_hamiltonian(1.0, 10)
        wd = work_distribution_dilated(spec, 1.0, beta=2.0)
        assert wd.size == 1
        assert wd.values[0] == 0.0

    def test_two_level_atoms_by_hand(self):
        spec = two_level(1.0)
        wd = work_distribution_dilated(spec, 1.2, beta=math.log(2.0))
        np.testing.assert_allclose(wd.values, [0.0, 0.2], atol=1e-12)
        np.testing.assert_allclose(wd.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    @pytest.mark.parametrize(
        "alpha, message",
        [(math.nan, "a finite number, got nan"), (True, "a finite number, got True"),
         (0.0, r"positive, got 0\.0")],
    )
    def test_rejects_what_the_schema_rejects(self, alpha, message):
        with pytest.raises(ValueError, match=f"alpha_final must be {message}"):
            work_distribution_dilated(two_level(), alpha, beta=1.0)

    def test_mean_is_rate_excess_times_thermal_energy(self):
        spec = harmonic_hamiltonian(1.0, 40)
        beta, alpha = 2.0, 1.2
        wd = work_distribution_dilated(spec, alpha, beta)
        mean_energy = thermal_state(spec, beta).mean_energy()
        assert wd.values @ wd.probs == pytest.approx((alpha - 1.0) * mean_energy, rel=1e-12)


class TestDilatedIdentityProperty:
    # the identity <e^-bW> = e^-b dF is algebraic for every spectrum and
    # clock rate; only rounding separates the two computation routes

    def test_random_spectra_identity(self):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            spec = spectral_decompose(random_hermitian(dim, rng))
            for alpha in (0.5, 0.8, 1.0, 1.2, 1.5):
                for beta in (0.5, 1.0, 2.0):
                    est = dilated(spec, alpha, beta)
                    lhs, rhs = est.lhs, est.rhs
                    # both sides can reach ~e^(b|a-1| |E_min|); scale the
                    # rounding budget with the magnitude
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_ground_shifted_spectra_absolute_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            spec = spectral_decompose(random_hermitian(dim, rng))
            spec = ground_at_zero(spec)
            for alpha in (0.5, 1.5):
                for beta in (0.5, 2.0):
                    est = dilated(spec, alpha, beta)
                    assert abs(est.lhs - est.rhs) < 1e-12


class TestJarzynskiSides:
    def test_single_zero_atom(self):
        wd = work_atoms([0.0], [1.0])
        assert jarzynski_lhs(wd, beta=3.0) == 1.0

    def test_dilated_lhs_is_partition_ratio(self):
        spec = spectral_decompose(random_hermitian(5, 2))
        beta, alpha = 1.0, 1.3
        lhs = dilated(spec, alpha, beta).lhs
        z0 = np.sum(np.exp(-beta * spec.eigenvalues))
        zt = np.sum(np.exp(-beta * alpha * spec.eigenvalues))
        assert lhs == pytest.approx(zt / z0, rel=1e-13)

    def test_spin_flip_brute_force(self):
        eps, beta = 1.0, 0.7
        report = run_protocol(
            FlatRun("flip", beta, two_level(eps), two_level(eps), unitary_channel(SIGMA_X))
        )
        z0 = 1 + math.exp(-beta * eps)
        brute = (1 / z0) * math.exp(-beta * eps) + (math.exp(-beta * eps) / z0) * math.exp(
            beta * eps
        )
        assert report.lhs == pytest.approx(brute, rel=1e-14)

    def test_unital_rhs_reduces_to_free_energy_factor(self):
        ch = unitary_channel(random_unitary(2, 5))
        report = run_protocol(FlatRun("unital", 2.0, two_level(0.8), two_level(1.3), ch))
        assert report.rhs == np.exp(-2.0 * report.delta_F)
        assert 2.0 * report.delta_F == pytest.approx(
            math.log((1 + math.exp(-1.6)) / (1 + math.exp(-2.6))), rel=1e-14
        )

    def test_rhs_is_a_float_for_scalars_and_an_array_for_columns(self):
        rhs = generalized_jarzynski_rhs(0.3, 2.0, 0.5)
        assert type(rhs) is float and rhs == pytest.approx(1.5 * math.exp(-0.6), rel=1e-15)
        column = generalized_jarzynski_rhs(np.array([0.3, 0.1]), np.array([2.0, 1.0]), 0.5)
        assert type(column) is np.ndarray and column.dtype == np.float64
        assert column.tolist() == pytest.approx([rhs, 1.5 * math.exp(-0.1)], rel=1e-15)

    def test_identity_protocol_rhs_is_one(self):
        h = two_level()
        assert run_protocol(FlatRun("id", 1.5, h, h, identity_channel(2))).rhs == 1.0

    def test_amplitude_damping_correction_hand_trace(self):
        # deviation diag(g/2, -g/2) against the final Gibbs state, scaled by
        # the dimension: correction = g (1 - e^(-beta eps)) / (1 + e^(-beta eps))
        eps, beta, gamma = 1.0, 1.0, 0.5
        damp = amplitude_damping_channel(gamma)
        rhs = run_protocol(FlatRun("damp", beta, two_level(eps), two_level(eps), damp)).rhs
        x = math.exp(-beta * eps)
        assert rhs == pytest.approx(1.0 + gamma * (1 - x) / (1 + x), rel=1e-13)

    def test_flat_identity_holds_for_nonunital_channels(self):
        rng = np.random.default_rng(77)
        for gamma in (0.1, 0.5, 0.9):
            h0 = random_hermitian(2, rng)
            h1 = random_hermitian(2, rng)
            ch = amplitude_damping_channel(gamma)
            report = run_protocol(FlatRun("damp", 1.1, h0, h1, ch))
            assert report.lhs == pytest.approx(report.rhs, abs=1e-11)


class TestEntropyProduction:
    def test_comoving_is_zero(self):
        est = dilated(harmonic_hamiltonian(1.0, 10), 1.0, beta=2.0)
        assert est.entropy_production == 0.0

    def test_oscillator_blueshift_values(self):
        # closed forms at beta*omega = 2, rate 1.2:
        # beta<W> = 0.2 coth(1) = 0.2626070571, beta dF = ln(sinh(1.2)/sinh(1))
        # = 0.2503135073, so <Sigma> = 0.0122935498
        beta = 2.0
        spec = harmonic_hamiltonian(1.0, 40)
        est = dilated(spec, 1.2, beta)
        sigma = est.entropy_production
        assert sigma == beta * (est.mean_work - est.delta_f)
        assert est.residual == est.lhs - est.rhs
        df = est.delta_f
        assert beta * est.mean_work == pytest.approx(0.2626070570998662, abs=1e-7)
        assert beta * df == pytest.approx(0.2503135073464562, abs=1e-7)
        assert sigma == pytest.approx(0.0122935497534100, abs=1e-7)
        assert sigma > 0

    def test_redshift_still_produces_entropy(self):
        beta = 2.0
        spec = harmonic_hamiltonian(1.0, 40)
        est = dilated(spec, 0.9, beta)
        assert est.mean_work < 0 and est.delta_f < 0
        assert est.entropy_production >= 0


@pytest.mark.parametrize("beta", [math.nan, math.inf, True])
def test_rejects_non_finite_beta(beta):
    spec = two_level()
    wd = work_atoms([0.0, 1.0], [0.5, 0.5])
    message = f"beta must be a finite number, got {beta!r}"
    with pytest.raises(ValueError, match=message):
        jarzynski_lhs(wd, beta)
    with pytest.raises(ValueError, match=message):
        estimate(thermal_state(spec, beta), 1.2 * spec.eigenvalues)


class TestSampling:
    def test_single_atom_distribution(self):
        wd = work_atoms([0.4], [1.0])
        assert np.all(sample_outcomes(wd, 100, seed=1) == 0.4)

    def test_binomial_standard_error(self):
        wd = work_atoms([0.0, 1.0], [0.5, 0.5])
        n = 100_000
        draws = sample_outcomes(wd, n, seed=99)
        assert abs(draws.mean() - 0.5) < 4 * 0.5 / math.sqrt(n)

    def test_fixed_seed_reproducibility(self):
        wd = work_atoms([-1.0, 0.0, 2.0], [0.3, 0.5, 0.2])
        a = sample_outcomes(wd, 1000, seed=5)
        b = sample_outcomes(wd, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_rejects_empty_request(self):
        wd = work_atoms([0.0], [1.0])
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            sample_outcomes(wd, 0, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [
            # a bool would draw as seed 1, and numpy words the others its own way
            (True, "seed must be an integer, got True"),
            (-1, "seed must be >= 0, got -1"),
            (1.5, r"seed must be an integer, got 1\.5"),
        ],
    )
    def test_rejects_a_seed_the_rules_reject(self, seed, message):
        wd = work_atoms([0.0], [1.0])
        with pytest.raises(ValueError, match=message):
            sample_outcomes(wd, 10, seed=seed)


class TestRunProtocol:
    def test_comoving_run(self):
        prof = dilation_profile(comoving_worldline(5.0, samples=5))
        rep = run_protocol(
            DilatedRun(scenario_id="x", beta=2.0, h0=harmonic_hamiltonian(1.0, 30), profile=prof)
        )
        assert rep.lhs == pytest.approx(1.0, abs=1e-14)
        assert rep.rhs == pytest.approx(1.0, abs=1e-14)
        assert rep.entropy_production == pytest.approx(0.0, abs=1e-14)
        assert rep.alpha_final == 1.0
        assert rep.tau_total == pytest.approx(5.0)

    def test_oscillator_blueshift_report(self):
        prof = dilation_profile(
            uniform_gravity_worldline(0.02, 10.0, samples=101), gravitational_only=True
        )
        rep = run_protocol(
            DilatedRun(scenario_id="osc", beta=2.0, h0=harmonic_hamiltonian(1.0, 40), profile=prof)
        )
        assert rep.alpha_final == pytest.approx(1.2, abs=1e-15)
        assert 2.0 * rep.delta_F == pytest.approx(0.2503135073464562, abs=1e-7)
        assert 2.0 * rep.mean_work == pytest.approx(0.2626070570998662, abs=1e-7)
        assert abs(rep.residual) < 1e-12

    def test_flat_run_report(self):
        rep = run_protocol(
            FlatRun(
                scenario_id="damp",
                beta=1.0,
                h0=two_level(),
                h_final=two_level(),
                channel=amplitude_damping_channel(0.5),
            )
        )
        assert rep.pipeline == "flat"
        assert rep.delta_F == 0.0
        assert abs(rep.residual) < 1e-12
        assert rep.lhs > 1.0  # non-unital correction pushes above 1

    def test_appendix_constant_schedule_matches_dilated(self):
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=501))
        h = harmonic_hamiltonian(1.0, 2)
        dil = run_protocol(DilatedRun(scenario_id="d", beta=1.0, h0=h, profile=prof))
        for steps in (1, 17):
            app = run_protocol(
                AppendixRun(
                    scenario_id="a",
                    beta=1.0,
                    schedule=PropagatorSchedule.constant(h, prof, steps),
                )
            )
            assert app.lhs == pytest.approx(dil.lhs, abs=1e-10)
            assert app.delta_F == pytest.approx(dil.delta_F, abs=1e-10)
            assert app.mean_work == pytest.approx(dil.mean_work, abs=1e-10)

    def test_appendix_final_basis_choices(self):
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=501))
        total = prof.tau_total
        h1 = HermitianOperator(0.9 * np.diag([1.0, -1.0]).astype(complex) + 0.4 * SIGMA_X)
        h2 = HermitianOperator(h1.matrix + 0.3 * np.array([[0, -1j], [1j, 0]]))
        sched = PropagatorSchedule([(total / np.sqrt(2), h1), (total, h2)], prof, steps=500)
        evolved = run_protocol(
            AppendixRun(scenario_id="e", beta=1.0, schedule=sched, final_basis="evolved")
        )
        instant = run_protocol(
            AppendixRun(scenario_id="i", beta=1.0, schedule=sched, final_basis="instantaneous")
        )
        # both bases satisfy the identity exactly; their reports differ
        assert abs(evolved.residual) < 1e-12
        assert abs(instant.residual) < 1e-12
        assert evolved.final_basis == "evolved"
        assert instant.final_basis == "instantaneous"
        assert evolved.delta_F != instant.delta_F

    def test_appendix_rejects_unknown_basis(self):
        prof = dilation_profile(comoving_worldline(1.0))
        sched = PropagatorSchedule.constant(two_level(), prof, steps=1)
        with pytest.raises(ValueError, match="final_basis"):
            AppendixRun(scenario_id="x", beta=1.0, schedule=sched, final_basis="heisenberg")

    @pytest.mark.parametrize("pipeline", ["flat", "dilated", "appendix"])
    def test_unit_rate_gives_zero_work_in_every_pipeline(self, pipeline, monkeypatch):
        h = harmonic_hamiltonian(1.0, 6)
        prof = dilation_profile(comoving_worldline(5.0, samples=11))
        run = {
            "flat": FlatRun("f", 2.0, h, h, identity_channel(h.dim)),
            "dilated": DilatedRun("d", 2.0, h, prof),
            "appendix": AppendixRun("a", 2.0, PropagatorSchedule.constant(h, prof, steps=7)),
        }[pipeline]
        seen = []

        def spy(*args):
            seen.append(estimate(*args))
            return seen[-1]

        monkeypatch.setattr(protocol, "estimate", spy)
        rep = run_protocol(run)
        (est,) = seen
        # the report's lhs was summed over these atoms, of which only zero work
        # carries weight; merged, they are one atom at 0
        atoms = est.atoms
        assert np.all(atoms.values[atoms.probs > 0.0] == 0.0)
        assert atoms.row().values.tolist() == [0.0]
        assert rep.lhs == est.lhs == jarzynski_lhs(atoms.row(), 2.0)
        assert rep.mean_work == 0.0
        assert dict(zip(CSV_COLUMNS, rep.to_csv_row().split(",")))["delta_F"] == "0.0"

    @pytest.mark.parametrize("pipeline", ["flat", "dilated", *FINAL_BASES])
    def test_report_columns_are_python_scalars(self, pipeline):
        # numpy scalars in a run's inputs never reach a report column
        h = harmonic_hamiltonian(1.0, 3)
        beta = np.float64(1.5)
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
        if pipeline == "flat":
            run = FlatRun("f", beta, h, h.scaled(1.1), amplitude_damping_channel(0.3, 3))
        elif pipeline == "dilated":
            run = DilatedRun("d", beta, h, prof)
        else:
            sched = PropagatorSchedule.constant(h, prof, steps=np.int64(7))
            run = AppendixRun("a", beta, sched, final_basis=pipeline)
        rep = run_protocol(run)
        cast = {"str": str, "int": int, "float": float}
        for field in dataclasses.fields(ProtocolReport):
            assert type(getattr(rep, field.name)) is cast[field.type], field.name

    def test_unsupported_run_type(self):
        with pytest.raises(TypeError, match="unsupported"):
            run_protocol(object())

    def test_spectrum_inputs_give_identical_reports(self, decompositions):
        # the two entry points that also take a HermitianOperator
        rng = np.random.default_rng(8)
        h0, hf, h2 = (random_hermitian(4, rng) for _ in range(3))
        s0, sf = spectral_decompose(h0), spectral_decompose(hf)
        channel = amplitude_damping_channel(0.3, 4)
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
        flat = run_protocol(FlatRun("f", 1.3, h0, hf, channel)).to_csv_row()
        for a, b in ((s0, hf), (h0, sf), (s0, sf)):
            assert run_protocol(FlatRun("f", 1.3, a, b, channel)).to_csv_row() == flat
        # 2 for the reference, then one per undecomposed flat input
        assert len(decompositions) == 2 + 2
        # a schedule decomposes each segment once, when it is built
        bounds = [4.0, 8.0, prof.tau_total]
        decompositions.clear()
        by_operator = PropagatorSchedule(list(zip(bounds, (h0, hf, h2))), prof, 100)
        assert len(decompositions) == 3
        appendix = run_protocol(AppendixRun("a", 1.3, by_operator)).to_csv_row()
        by_spectrum = PropagatorSchedule(list(zip(bounds, by_operator.segments)), prof, 100)
        assert run_protocol(AppendixRun("a", 1.3, by_spectrum)).to_csv_row() == appendix
        assert len(decompositions) == 3

    def test_appendix_decomposes_each_matrix_once(self, decompositions):
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
        h1, h2 = random_hermitian(3, 1), random_hermitian(3, 2)
        sched = PropagatorSchedule([(6.0, h1), (prof.tau_total, h2)], prof, steps=100)
        run_protocol(AppendixRun("a", 1.0, sched))
        # H1 (initial basis and first segment) and H2 (last segment and, rescaled
        # by alpha_final, the final basis)
        assert len(decompositions) == 2
        assert sum(h is h1 for h in decompositions) == 1


class TestFrameInvariance:
    """A change of basis applied to every segment leaves the report unchanged."""

    @settings(max_examples=40, deadline=None)
    @example(levels=[0.0, 0.0, 1.0], seeds=[3], beta=1.0, turn=11, final_basis="evolved")
    @example(levels=[1.0, 1.0, 1.0], seeds=[3], beta=1.0, turn=11, final_basis="evolved")
    @given(
        levels=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=2, max_size=4),
        seeds=st.lists(st.integers(0, 2**16), max_size=2),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
        turn=st.integers(0, 2**16),
        final_basis=st.sampled_from(FINAL_BASES),
    )
    def test_appendix_report_is_frame_invariant(self, levels, seeds, beta, turn, final_basis):
        # H0 is diagonal with repeated levels, so the initial basis is degenerate
        # whenever a level repeats; the segments after tau = 6 and 9 are random
        dim = len(levels)
        prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
        hams = [HermitianOperator(np.diag(levels))] + [random_hermitian(dim, s) for s in seeds]
        bounds = [6.0, 9.0][: len(seeds)] + [prof.tau_total]
        v = random_unitary(dim, turn)

        def report(hs):
            sched = PropagatorSchedule(list(zip(bounds, hs)), prof, steps=100)
            return run_protocol(AppendixRun("x", beta, sched, final_basis)).to_dict()

        plain = report(hams)
        turned = report([HermitianOperator(v @ h.matrix @ v.conj().T) for h in hams])
        # the residual lhs - rhs carries the rounding of both sides
        scale = {"residual": max(1.0, abs(plain["lhs"]), abs(plain["rhs"]))}
        for column, value in plain.items():
            if isinstance(value, float):
                tol = 1e-12 * scale.get(column, 1.0)
                assert turned[column] == pytest.approx(value, rel=1e-9, abs=tol), column
            else:
                assert turned[column] == value, column


class TestFlatIsDilated:
    """A flat run with the identity channel and H_f = alpha H_0 is a dilated run."""

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(2, 8),
        alpha=st.floats(0.5, 2.0),
        beta=st.floats(0.3, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_estimator_column_agrees(self, dim, alpha, beta, seed):
        h0 = random_hermitian(dim, seed)
        spec = spectral_decompose(h0)
        final = HermitianOperator(alpha * h0.matrix)
        flat = run_protocol(FlatRun("f", beta, h0, final, identity_channel(dim)))
        profile = DilationProfile([1.0, alpha], [0.0, 0.5 * (1.0 + alpha)])
        dilated = run_protocol(DilatedRun("d", beta, spec, profile))
        # H_f is decomposed on its own, so its levels differ from alpha E_n by a
        # rounding of the energy scale: <W> and dF (as small as that near alpha = 1)
        # agree to 1e-13 of it, and lhs and rhs, exponentials of beta times such
        # energies, to 1e-13 relative times max(1, beta * energy)
        energy = max(1.0, alpha) * float(np.max(np.abs(spec.eigenvalues)))
        size = max(abs(flat.lhs), abs(flat.rhs)) * max(1.0, beta * energy)
        scales = dict(mean_work=energy, delta_F=energy, entropy_production=beta * energy)
        assert flat.beta == dilated.beta
        for column, scale in dict(scales, lhs=size, rhs=size, residual=size).items():
            a, b = getattr(flat, column), getattr(dilated, column)
            assert abs(a - b) <= 1e-13 * max(abs(a), abs(b), scale), column


COLUMN_NAMES = ("mean_work", "delta_f", "lhs", "rhs", "residual", "entropy_production")
INVARIANCE_RUNS = dict(
    kind=st.sampled_from(["unitary", "damping", "kraus", "dilated"]),
    dim=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)


def shifted(spec, c):
    """``spec`` with every level raised by ``c``: H + c 1."""
    return Spectrum(spec.eigenvalues + c, spec.eigenvectors)


def tpm_run(kind, dim, seed, turn=None, both=0.0, final=0.0):
    """A random run drawn from ``seed``, reduced as ``run_protocol`` reduces it:
    a flat run whose channel is ``unitary``, ``damping`` or random ``kraus``, or
    a ``dilated`` run, whose H_f is alpha H0. ``turn`` conjugates every
    Hamiltonian and Kraus operator by one random unitary; H0 is raised by
    ``both``, and H_f by ``both + final``. Gives the ``Estimates`` and the
    energy scale, the largest |level| of H0 and H_f."""
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.2, 3.0))
    h0, hf = random_hermitian(dim, rng).matrix, random_hermitian(dim, rng).matrix
    channel = {
        "unitary": lambda: unitary_channel(random_unitary(dim, rng)),
        "damping": lambda: amplitude_damping_channel(float(rng.uniform(0.05, 1.0)), dim),
        "kraus": lambda: random_kraus_channel(dim, rng),
        "dilated": lambda: None,
    }[kind]()
    alpha = float(rng.choice([0.5, 0.8, 1.2, 1.5]))
    if turn is not None:
        v = random_unitary(dim, turn)
        h0, hf = v @ h0 @ v.conj().T, v @ hf @ v.conj().T
        if channel is not None:
            channel = QuantumChannel([v @ k @ v.conj().T for k in channel.kraus_ops])
    spec0 = spectral_decompose(HermitianOperator(h0))
    if channel is None:
        e_final, trans, correction = alpha * spec0.eigenvalues + both + final, None, 0.0
    else:
        spec_f = shifted(spectral_decompose(HermitianOperator(hf)), both + final)
        e_final, trans = spec_f.eigenvalues, conditional_probabilities(spec0, spec_f, channel)
        correction = protocol._nonunital_correction(spec_f, channel, beta)
    spec0 = shifted(spec0, both)
    est = estimate(thermal_state(spec0, beta), e_final, trans, correction)
    energy = max(1.0, float(np.abs(spec0.eigenvalues).max()), float(np.abs(e_final).max()))
    return est, energy


def column_misses(got, want, energy, factor=1.0):
    """How far each column of ``got`` is from ``want``'s, with lhs, rhs and the
    residual of ``want`` scaled by ``factor``: in units of the energy scale
    for <W> and dF, of beta times it for the entropy production, and of
    max(|lhs|, |rhs|) max(1, beta energy) for lhs, rhs and the residual."""
    beta = want.beta
    size = factor * max(abs(want.lhs), abs(want.rhs)) * max(1.0, beta * energy)
    scales = dict(mean_work=energy, delta_f=energy, entropy_production=beta * energy)
    scales.update(lhs=size, rhs=size, residual=size)
    factors = dict.fromkeys(("lhs", "rhs", "residual"), factor)
    return {
        c: abs(getattr(got, c) - factors.get(c, 1.0) * getattr(want, c)) / scales[c]
        for c in COLUMN_NAMES
    }


# Over 9,000 random runs of each property the worst misses were 2.4e-15 for a
# change of frame, which decomposes the turned Hamiltonians anew, and 7.9e-16
# for a shift; the bounds are about 4 and 5 times those
FRAME_BOUND = 1e-14
SHIFT_BOUND = 4e-15


class TestInvariances:
    """Symmetries of the two-point measurement on flat and dilated runs: a
    change of frame, and a shift of the zero of energy."""

    @settings(max_examples=40, deadline=None)
    @given(**INVARIANCE_RUNS, turn=st.integers(0, 2**32 - 1))
    def test_a_change_of_frame_moves_no_column(self, kind, dim, seed, turn):
        plain, energy = tpm_run(kind, dim, seed)
        turned, _ = tpm_run(kind, dim, seed, turn=turn)
        assert turned.beta == plain.beta
        misses = column_misses(turned, plain, energy)
        assert max(misses.values()) <= FRAME_BOUND, misses

    @settings(max_examples=40, deadline=None)
    @given(**INVARIANCE_RUNS, c=st.floats(-5.0, 5.0))
    def test_one_shift_of_both_hamiltonians_moves_nothing(self, kind, dim, seed, c):
        plain, energy = tpm_run(kind, dim, seed)
        moved, energy_moved = tpm_run(kind, dim, seed, both=c)
        energy = max(energy, energy_moved)
        misses = column_misses(moved, plain, energy)
        misses["atoms"] = float(np.abs(moved.atoms.values - plain.atoms.values).max()) / energy
        misses["weights"] = float(np.abs(moved.atoms.probs - plain.atoms.probs).max())
        assert max(misses.values()) <= SHIFT_BOUND, misses

    @settings(max_examples=40, deadline=None)
    @given(**INVARIANCE_RUNS, c=st.floats(-5.0, 5.0))
    def test_a_shift_of_the_final_hamiltonian_shifts_the_work(self, kind, dim, seed, c):
        # every atom and dF move by c, and lhs and rhs take the factor e^(-beta c)
        plain, energy = tpm_run(kind, dim, seed)
        moved, energy_moved = tpm_run(kind, dim, seed, final=c)
        energy = max(energy, energy_moved)
        back = dataclasses.replace(
            moved, mean_work=moved.mean_work - c, delta_f=moved.delta_f - c
        )
        misses = column_misses(back, plain, energy, factor=math.exp(-plain.beta * c))
        misses["atoms"] = float(np.abs(moved.atoms.values - c - plain.atoms.values).max()) / energy
        misses["weights"] = float(np.abs(moved.atoms.probs - plain.atoms.probs).max())
        assert max(misses.values()) <= SHIFT_BOUND, misses


LABELS = dict(
    scenario_id="s", pipeline="dilated", dim=2, alpha_final=1.1, tau_total=3.0,
    final_basis="evolved", steps=0,
)


def estimates(beta=1.0, mean_work=0.1, delta_f=0.05, lhs=0.9, rhs=0.9) -> Estimates:
    """An ``Estimates`` with the given numbers; ``rows`` reads no atom."""
    atoms = WorkRows(np.zeros(1), np.ones(1), protocol.MERGE_REL_TOL)
    return Estimates(beta, atoms, mean_work, delta_f, lhs, rhs)


class TestProtocolReport:
    def test_csv_row_has_fourteen_columns(self):
        rep = ProtocolReport.rows(estimates(), [LABELS])[0]
        assert len(CSV_COLUMNS) == 14
        assert len(rep.to_csv_row().split(",")) == 14
        assert ProtocolReport.csv_header().split(",") == list(CSV_COLUMNS)

    def test_numbers_come_from_estimates(self):
        est = estimates(beta=2.0, mean_work=0.4, delta_f=0.1, lhs=1.2, rhs=1.1)
        rep = ProtocolReport.rows(est, [LABELS])[0]
        assert (rep.beta, rep.mean_work, rep.delta_F, rep.lhs, rep.rhs) == (2.0, 0.4, 0.1, 1.2, 1.1)
        assert rep.residual == est.residual == pytest.approx(0.1)
        assert rep.entropy_production == est.entropy_production == pytest.approx(0.6)

    def test_json_mirrors_csv_fields(self):
        rep = ProtocolReport.rows(estimates(), [LABELS])[0]
        assert list(rep.to_dict()) == list(CSV_COLUMNS)


@pytest.mark.parametrize(
    "numbers,labels,named",
    [
        ({"lhs": np.inf, "rhs": np.inf}, {}, ["lhs=inf", "rhs=inf", "residual=nan"]),
        ({"mean_work": np.nan}, {}, ["mean_work=nan", "entropy_production=nan"]),
        ({"delta_f": -np.inf}, {}, ["delta_F=-inf", "entropy_production=inf"]),
        ({}, {"alpha_final": np.inf, "tau_total": np.nan}, ["alpha_final=inf", "tau_total=nan"]),
    ],
)
def test_report_rejects_non_finite_columns(numbers, labels, named):
    with pytest.raises(ValueError, match="non-finite") as err:
        ProtocolReport.rows(estimates(**numbers), [dict(LABELS, **labels)])
    # every non-finite column is named, in report order, and nothing else
    assert str(err.value).split(": ", 1)[1].split(", ") == named


class TestReportSchema:
    def test_columns_are_the_dataclass_fields(self):
        assert CSV_COLUMNS == tuple(f.name for f in dataclasses.fields(ProtocolReport))

    @pytest.mark.parametrize("dropped", ["scenario_id", "steps"])
    def test_build_missing_label_raises_type_error(self, dropped):
        labels = {k: v for k, v in LABELS.items() if k != dropped}
        with pytest.raises(TypeError, match=dropped):
            ProtocolReport.rows(estimates(), [labels])

    @pytest.mark.parametrize("extra", ["residual", "entropy_production", "seed"])
    def test_build_extra_label_raises_type_error(self, extra):
        # a column of ``Estimates`` given as a label is repeated, any other unknown
        with pytest.raises(TypeError, match=extra):
            ProtocolReport.rows(estimates(), [dict(LABELS, **{extra: 0.0})])
