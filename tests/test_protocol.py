import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauwork import protocol
from tauwork.channels import (
    PropagatorSchedule,
    amplitude_damping_channel,
    identity_channel,
    unitary_channel,
)
from tauwork.operators import (
    HermitianOperator,
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
    FlatRun,
    ProtocolReport,
    WorkDistribution,
    _merge_atoms,
    conditional_probabilities,
    entropy_production,
    estimate,
    jarzynski_lhs,
    run_protocol,
    sample_outcomes,
    work_distribution_dilated,
)
from tauwork.scenarios import harmonic_hamiltonian, two_level_hamiltonian
from tauwork.spacetime import comoving_worldline, dilation_profile, uniform_gravity_worldline
from tauwork.thermo import log_sum_exp, thermal_state

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def two_level(eps=1.0):
    return two_level_hamiltonian(eps)


def flat_atoms(spec0, spec_f, channel, beta):
    """The work atoms of the flat reduction that ``run_protocol`` makes."""
    trans = conditional_probabilities(spec0, spec_f, channel)
    return estimate(thermal_state(spec0, beta), spec_f.eigenvalues, trans).atoms


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


class TestWorkDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            WorkDistribution([0.0, 1.0], [0.5, 0.4])

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
            WorkDistribution(values, probs)

    def test_overflowing_sum_of_finite_weights_is_a_sum_error(self):
        message = "atom probabilities sum to inf, not 1"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            WorkDistribution([0.0, 1.0], [1e308, 1e308])

    def test_sum_error_prints_a_plain_float(self):
        with pytest.raises(ValueError, match=r"atom probabilities sum to 0\.9, not 1"):
            WorkDistribution([0.0, 1.0], [0.5, 0.4])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match=r"negative atom probability: -1\.000e-11"):
            WorkDistribution([0.0, 1.0, 2.0], [-1e-11, 0.5, 0.5 + 1e-11])

    @pytest.mark.parametrize(
        "values,probs",
        [
            ([0.0, 1.0], [1.0]),
            ([], []),
            ([[0.0, 1.0]], [[0.5, 0.5]]),
        ],
        ids=["mismatched", "empty", "2-D"],
    )
    def test_rejects_malformed_arrays(self, values, probs):
        with pytest.raises(ValueError, match="equal-length 1-D arrays"):
            WorkDistribution(values, probs)

    def test_rounding_level_negative_probability_is_clamped_and_dropped(self):
        wd = WorkDistribution([0.0, 1.0, 2.0], [-1e-13, 0.5, 0.5 + 1e-13])
        assert np.array_equal(wd.values, [1.0, 2.0])
        assert np.array_equal(wd.probs, [0.5, 0.5 + 1e-13])

    def test_merging_combines_close_atoms(self):
        wd = WorkDistribution([0.0, 1e-12, 1.0], [0.25, 0.25, 0.5])
        assert wd.size == 2
        np.testing.assert_allclose(wd.probs, [0.5, 0.5])

    def test_merging_preserves_mean(self):
        values = [0.0, 1e-11, 2e-11, 1.0]
        probs = [0.2, 0.3, 0.1, 0.4]
        wd = WorkDistribution(values, probs)
        assert wd.mean() == pytest.approx(float(np.dot(values, probs)), abs=1e-15)

    def test_atoms_sorted_and_separated(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        probs = np.full(40, 1.0 / 40)
        merged_values, merged_probs = _merge_atoms(values, probs, 1e-2)
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
    plain = np.add.reduceat(values, starts) / (ends - starts)
    weighted = np.add.reduceat(values * probs, starts) / np.where(weight > 0.0, weight, 1.0)
    merged = np.where(weight > 0.0, weighted, plain)
    return np.clip(merged, values[starts], values[ends - 1]), weight


def reference_atoms(values, probs, tol):
    """The atoms ``WorkDistribution`` keeps: clamp every weight, merge, drop
    empty atoms."""
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
        assert_same_atoms(_merge_atoms(values, probs, tol), reference_merge(values, probs, tol))

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
        wd = WorkDistribution(values, probs)
        tol = protocol.MERGE_REL_TOL * max(1.0, values.max() - values.min())
        assert wd.merge_tol == tol
        assert_same_atoms((wd.values, wd.probs), reference_atoms(values, probs, tol))

    @settings(max_examples=300, deadline=None)
    @given(ATOMS, MERGE_TOLS)
    def test_merge_properties(self, raw, tol):
        values, probs = _atoms(raw)
        merged_values, merged_probs = _merge_atoms(values, probs, tol)
        # one atom per run: a new run starts at every gap >= tol
        assert merged_values.size == 1 + np.count_nonzero(np.diff(np.sort(values)) >= tol)
        assert np.all(np.diff(merged_values) >= tol)
        assert abs(merged_probs.sum() - probs.sum()) <= 1e-15 * values.size
        mean = merged_values @ merged_probs
        assert abs(mean - values @ probs) <= 1e-14 * (1.0 + np.abs(values).max())

    @settings(max_examples=300, deadline=None)
    @given(ATOMS, MERGE_TOLS)
    def test_merging_is_idempotent(self, raw, tol):
        merged = _merge_atoms(*_atoms(raw), tol)
        again = _merge_atoms(*merged, tol)
        assert np.array_equal(again[0], merged[0])
        assert np.array_equal(again[1], merged[1])

    def test_chain_longer_than_tol_is_one_run(self):
        # consecutive gaps below tol link atoms even when the run spans more
        values, probs = _merge_atoms(np.array([0.0, 0.6, 1.2, 1.8, 3.0]), np.full(5, 0.2), 1.0)
        np.testing.assert_allclose(values, [0.9, 3.0], rtol=1e-15)
        np.testing.assert_allclose(probs, [0.8, 0.2], rtol=1e-15)


def reference_tail(spec0, beta, final_energies, transitions=None, correction=0.0):
    """The estimator tail the long way: the Gibbs ensemble rebuilt from the
    spectrum, the atoms from ``reference_atoms`` and each estimator written out."""
    gibbs = thermal_state(spec0, beta)
    if transitions is None:
        values, probs = final_energies - spec0.eigenvalues, gibbs.probs
    else:
        values = (final_energies[:, None] - spec0.eigenvalues[None, :]).ravel()
        probs = (transitions * gibbs.probs[None, :]).ravel()
    tol = protocol.MERGE_REL_TOL * max(1.0, float(values.max() - values.min()))
    atoms = reference_atoms(values, probs, tol)
    delta_f = (gibbs.log_z - log_sum_exp(-beta * final_energies)) / beta
    with np.errstate(over="ignore"):
        lhs = float(np.exp(log_sum_exp(np.log(atoms[1]) - beta * atoms[0])))
        rhs = float(np.exp(-beta * delta_f) * (1.0 + correction))
    return atoms, delta_f, lhs, rhs, float(atoms[0] @ atoms[1])


class TestEstimateTail:
    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        beta=st.floats(0.05, 5.0),
        alpha=st.floats(0.3, 3.0),
        flat=st.booleans(),
        correction=st.floats(-0.5, 0.5),
    )
    @example(dim=3, seed=0, beta=1.0, alpha=1.0, flat=False, correction=0.0)  # all work 0
    @example(dim=2, seed=1, beta=2.0, alpha=1.0, flat=True, correction=0.0)
    def test_matches_reference_bit_for_bit(self, dim, seed, beta, alpha, flat, correction):
        rng = np.random.default_rng(seed)
        spec0 = spectral_decompose(random_hermitian(dim, rng))
        if flat:
            spec_f = spectral_decompose(random_hermitian(dim, rng)).scaled(alpha)
            channel = unitary_channel(random_unitary(dim, rng))
            trans = conditional_probabilities(spec0, spec_f, channel)
            final = spec_f.eigenvalues
        else:
            trans, final = None, alpha * spec0.eigenvalues
        # one ensemble serves several final energies, as in the battery's grids
        gibbs = thermal_state(spec0, beta)
        for energies in (final, 0.5 * final):
            est = estimate(gibbs, energies, trans, correction)
            ref = reference_tail(spec0, beta, energies, trans, correction)
            assert_same_atoms((est.atoms.values, est.atoms.probs), ref[0])
            got = (est.delta_f, est.lhs, est.rhs, est.mean_work)
            assert [repr(x) for x in got] == [repr(x) for x in ref[1:]]


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

    def test_mean_is_rate_excess_times_thermal_energy(self):
        spec = harmonic_hamiltonian(1.0, 40)
        beta, alpha = 2.0, 1.2
        wd = work_distribution_dilated(spec, alpha, beta)
        mean_energy = thermal_state(spec, beta).mean_energy()
        assert wd.mean() == pytest.approx((alpha - 1.0) * mean_energy, rel=1e-12)


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
            spec = spec.shifted(-spec.eigenvalues[0])
            for alpha in (0.5, 1.5):
                for beta in (0.5, 2.0):
                    est = dilated(spec, alpha, beta)
                    assert abs(est.lhs - est.rhs) < 1e-12


class TestJarzynskiSides:
    def test_single_zero_atom(self):
        wd = WorkDistribution([0.0], [1.0])
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
        assert entropy_production(0.0, 0.0, beta=2.0) == 0.0

    def test_oscillator_blueshift_values(self):
        # closed forms at beta*omega = 2, rate 1.2:
        # beta<W> = 0.2 coth(1) = 0.2626070571, beta dF = ln(sinh(1.2)/sinh(1))
        # = 0.2503135073, so <Sigma> = 0.0122935498
        beta = 2.0
        spec = harmonic_hamiltonian(1.0, 40)
        est = dilated(spec, 1.2, beta)
        sigma = est.entropy_production
        assert sigma == entropy_production(est.mean_work, est.delta_f, beta)
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


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_rejects_non_finite_beta(beta):
    spec = two_level()
    wd = WorkDistribution([0.0, 1.0], [0.5, 0.5])
    message = "beta must be finite and positive"
    with pytest.raises(ValueError, match=message):
        jarzynski_lhs(wd, beta)
    with pytest.raises(ValueError, match=message):
        entropy_production(0.1, 0.05, beta)
    with pytest.raises(ValueError, match=message):
        estimate(thermal_state(spec, beta), 1.2 * spec.eigenvalues)


class TestSampling:
    def test_single_atom_distribution(self):
        wd = WorkDistribution([0.4], [1.0])
        assert np.all(sample_outcomes(wd, 100, seed=1) == 0.4)

    def test_binomial_standard_error(self):
        wd = WorkDistribution([0.0, 1.0], [0.5, 0.5])
        n = 100_000
        draws = sample_outcomes(wd, n, seed=99)
        assert abs(draws.mean() - 0.5) < 4 * 0.5 / math.sqrt(n)

    def test_fixed_seed_reproducibility(self):
        wd = WorkDistribution([-1.0, 0.0, 2.0], [0.3, 0.5, 0.2])
        a = sample_outcomes(wd, 1000, seed=5)
        b = sample_outcomes(wd, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_rejects_empty_request(self):
        wd = WorkDistribution([0.0], [1.0])
        with pytest.raises(ValueError, match="sample count"):
            sample_outcomes(wd, 0, seed=0)


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

        def spy(wd, beta):
            seen.append(wd)
            return jarzynski_lhs(wd, beta)

        monkeypatch.setattr(protocol, "jarzynski_lhs", spy)
        rep = run_protocol(run)
        (wd,) = seen
        assert np.all(wd.values == 0.0)
        assert rep.mean_work == 0.0
        assert dict(zip(CSV_COLUMNS, rep.to_csv_row().split(",")))["delta_F"] == "0.0"

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


class TestProtocolReport:
    def test_csv_row_has_fourteen_columns(self):
        rep = ProtocolReport.build(
            scenario_id="s",
            pipeline="dilated",
            dim=2,
            beta=1.0,
            alpha_final=1.1,
            tau_total=3.0,
            mean_work=0.1,
            delta_F=0.05,
            lhs=0.9,
            rhs=0.9,
            final_basis="evolved",
            steps=0,
        )
        assert len(CSV_COLUMNS) == 14
        assert len(rep.to_csv_row().split(",")) == 14
        assert ProtocolReport.csv_header().split(",") == list(CSV_COLUMNS)

    def test_derived_fields(self):
        rep = ProtocolReport.build(
            scenario_id="s",
            pipeline="flat",
            dim=2,
            beta=2.0,
            alpha_final=1.0,
            tau_total=0.0,
            mean_work=0.4,
            delta_F=0.1,
            lhs=1.2,
            rhs=1.1,
            final_basis="instantaneous",
            steps=0,
        )
        assert rep.residual == pytest.approx(0.1)
        assert rep.entropy_production == pytest.approx(0.6)

    def test_json_mirrors_csv_fields(self):
        rep = ProtocolReport.build(
            scenario_id="s",
            pipeline="flat",
            dim=2,
            beta=2.0,
            alpha_final=1.0,
            tau_total=0.0,
            mean_work=0.0,
            delta_F=0.0,
            lhs=1.0,
            rhs=1.0,
            final_basis="instantaneous",
            steps=0,
        )
        assert list(rep.to_dict()) == list(CSV_COLUMNS)


@pytest.mark.parametrize(
    "overrides,named",
    [
        ({"lhs": np.inf, "rhs": np.inf}, ["lhs=inf", "rhs=inf", "residual=nan"]),
        ({"mean_work": np.nan}, ["mean_work=nan", "entropy_production=nan"]),
        ({"delta_F": -np.inf}, ["delta_F=-inf", "entropy_production=inf"]),
        ({"alpha_final": np.inf, "tau_total": np.nan}, ["alpha_final=inf", "tau_total=nan"]),
    ],
)
def test_report_rejects_non_finite_columns(overrides, named):
    fields = dict(
        scenario_id="s", pipeline="dilated", dim=2, beta=1.0, alpha_final=1.1, tau_total=3.0,
        mean_work=0.1, delta_F=0.05, lhs=0.9, rhs=0.9, final_basis="evolved", steps=0,
    )
    with pytest.raises(ValueError, match="non-finite") as err:
        ProtocolReport.build(**dict(fields, **overrides))
    # every non-finite column is named, in report order, and nothing else
    assert str(err.value).split(": ", 1)[1].split(", ") == named


class TestReportSchema:
    COLUMNS = dict(
        scenario_id="s", pipeline="dilated", dim=2, beta=1.0, alpha_final=1.1, tau_total=3.0,
        mean_work=0.1, delta_F=0.05, lhs=0.9, rhs=0.9, final_basis="evolved", steps=0,
    )

    def test_columns_are_the_dataclass_fields(self):
        import dataclasses

        assert CSV_COLUMNS == tuple(f.name for f in dataclasses.fields(ProtocolReport))

    def test_build_casts_each_column_to_its_field_type(self):
        rep = ProtocolReport.build(
            **dict(self.COLUMNS, dim=np.int64(2), beta=np.float64(1.0), steps=np.int32(0))
        )
        assert type(rep.dim) is int and type(rep.steps) is int
        assert type(rep.beta) is float and type(rep.residual) is float

    @pytest.mark.parametrize("dropped", ["scenario_id", "lhs", "steps"])
    def test_build_missing_column_raises_type_error(self, dropped):
        columns = {k: v for k, v in self.COLUMNS.items() if k != dropped}
        with pytest.raises(TypeError, match=dropped):
            ProtocolReport.build(**columns)

    @pytest.mark.parametrize("extra", ["residual", "entropy_production", "seed"])
    def test_build_extra_column_raises_type_error(self, extra):
        with pytest.raises(TypeError, match=extra):
            ProtocolReport.build(**dict(self.COLUMNS, **{extra: 0.0}))
