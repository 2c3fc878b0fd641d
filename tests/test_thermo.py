import math

import numpy as np
import pytest

from tauwork.operators import Spectrum
from tauwork.scenarios import harmonic_hamiltonian
from tauwork.thermo import (
    ThermalEnsemble,
    free_energy_difference,
    free_energy_difference_from_log_z,
    free_energy_difference_from_values,
    log_sum_exp,
    thermal_state,
)


def spectrum_of(values):
    return Spectrum(values, np.eye(len(values)))


def partition_function(spec, beta):
    return math.exp(log_sum_exp(-beta * spec.eigenvalues))


class TestPartitionFunction:
    def test_zero_hamiltonian_counts_states(self):
        assert partition_function(spectrum_of([0.0] * 4), beta=3.0) == pytest.approx(4.0)

    def test_two_level_hand_value(self):
        # beta * eps = ln 2: Z = 1 + 1/2
        spec = spectrum_of([0.0, 1.0])
        assert partition_function(spec, beta=math.log(2.0)) == pytest.approx(1.5, abs=1e-14)

    def test_truncated_oscillator_geometric_series(self):
        # beta*omega = 2, 40 levels: Z -> 1 / (2 sinh 1) = 0.4254590641...
        spec = harmonic_hamiltonian(1.0, 40)
        z = partition_function(spec, beta=2.0)
        assert z == pytest.approx(1.0 / (2.0 * math.sinh(1.0)), abs=1e-7)
        assert z == pytest.approx(0.4254590641196608, abs=1e-7)

    def test_max_shift_matches_naive_sum(self):
        rng = np.random.default_rng(5)
        evals = np.sort(rng.normal(size=6))
        spec = spectrum_of(evals)
        for beta in (0.1, 1.0, 5.0):
            naive = float(np.sum(np.exp(-beta * evals)))
            assert abs(partition_function(spec, beta) - naive) < 1e-12 * naive

    def test_shift_protects_large_energies(self):
        # naive sum would overflow: all Boltzmann factors huge but finite ratio
        spec = spectrum_of([-800.0, -799.0])
        lz = log_sum_exp(-1.0 * spec.eigenvalues)
        assert np.isfinite(lz)
        assert lz == pytest.approx(800.0 + math.log(1 + math.exp(-1.0)), abs=1e-10)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            thermal_state(spectrum_of([0.0, 1.0]), beta=0.0)
        with pytest.raises(ValueError, match="beta"):
            free_energy_difference_from_values([0.0, 1.0], [0.0, 1.0], beta=0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_non_finite_beta(self, beta):
        message = "beta must be finite and positive"
        with pytest.raises(ValueError, match=message):
            thermal_state(spectrum_of([0.0, 1.0, 2.0]), beta=beta)
        with pytest.raises(ValueError, match=message):
            free_energy_difference_from_values([0.0, 1.0], [0.0, 1.0], beta=beta)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_clock_rate(self, alpha):
        with pytest.raises(ValueError, match="alpha_final must be positive"):
            free_energy_difference(spectrum_of([0.0, 1.0]), alpha, beta=1.0)


class TestThermalState:
    @pytest.mark.parametrize("values", [[0.0, 1.0, 2.5], [-800.0, -799.0], [3.0, 3.0, 40.0]])
    def test_log_z_is_the_log_partition_sum(self, values):
        spec, beta = spectrum_of(values), 1.3
        log_z = thermal_state(spec, beta).log_z
        assert log_z == log_sum_exp(-beta * spec.eigenvalues)
        assert free_energy_difference_from_log_z(spec.eigenvalues, log_z, beta) == 0.0
        assert free_energy_difference_from_log_z(
            2.0 * spec.eigenvalues, log_z, beta
        ) == free_energy_difference(spec, 2.0, beta)

    def test_two_level_gibbs_weights(self):
        ens = thermal_state(spectrum_of([0.0, 1.0]), beta=math.log(2.0))
        np.testing.assert_allclose(ens.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_zero_hamiltonian_is_maximally_mixed(self):
        ens = thermal_state(spectrum_of([0.0] * 5), beta=2.0)
        np.testing.assert_allclose(ens.probs, np.full(5, 0.2), atol=1e-15)

    def test_mean_energy_decreases_with_beta(self):
        h = harmonic_hamiltonian(1.0, 30)
        assert thermal_state(h, 2.0).mean_energy() < thermal_state(h, 0.5).mean_energy()

    def test_probs_normalized_and_ordered(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = spectrum_of(np.sort(rng.normal(size=6)))
            ens = thermal_state(spec, beta=float(rng.uniform(0.1, 3.0)))
            assert abs(ens.probs.sum() - 1.0) < 1e-12
            assert np.all(np.diff(ens.probs) <= 1e-15)


class TestFreeEnergyDifference:
    def test_free_energy_identity(self):
        # F = -ln(Z)/beta with Z the plain Boltzmann sum; a single level at 0
        # has F = 0, so the difference from it is F itself
        z = math.exp(0.0) + math.exp(-0.8) + math.exp(-2.2)
        f = free_energy_difference_from_values([0.0, 0.4, 1.1], [0.0], beta=2.0)
        assert f == pytest.approx(-math.log(z) / 2.0, abs=1e-14)

    def test_free_energy_monotone_in_partition(self):
        # ln Z grows as the gap closes at fixed beta, so F = -ln(Z)/beta falls
        assert free_energy_difference_from_values([0.0, 0.1], [0.0, 2.0], beta=1.0) < 0

    def test_unit_rate_is_exactly_zero(self):
        spec = spectrum_of([0.0, 0.3, 0.9])
        assert free_energy_difference(spec, 1.0, beta=2.0) == 0.0

    def test_oscillator_sinh_value(self):
        # ln(sinh(1.2)/sinh(1)) at beta*omega = 2, rate 1.2
        spec = harmonic_hamiltonian(1.0, 40)
        beta_df = 2.0 * free_energy_difference(spec, 1.2, beta=2.0)
        assert beta_df == pytest.approx(
            math.log(math.sinh(1.2) / math.sinh(1.0)), abs=1e-7
        )
        assert beta_df == pytest.approx(0.2503135073464562, abs=1e-7)

    def test_two_level_hand_formula(self):
        # diag(0, eps), beta*eps = 1, rate 0.9:
        # beta dF = ln((1 + e^-1) / (1 + e^-0.9))
        spec = spectrum_of([0.0, 1.0])
        beta_df = free_energy_difference(spec, 0.9, beta=1.0)
        expected = math.log((1 + math.exp(-1.0)) / (1 + math.exp(-0.9)))
        assert beta_df == pytest.approx(expected, abs=1e-14)

    def test_sign_tracks_clock_rate_for_nonnegative_spectra(self):
        rng = np.random.default_rng(31)
        spectra = [harmonic_hamiltonian(1.0, 25)]
        for _ in range(5):
            vals = np.sort(rng.uniform(0.0, 3.0, size=6))
            vals[0] = 0.0
            spectra.append(spectrum_of(vals))
        for spec in spectra:
            for beta in (0.5, 2.0):
                assert free_energy_difference(spec, 1.3, beta) > 0
                assert free_energy_difference(spec, 0.7, beta) < 0
                assert free_energy_difference(spec, 1.0, beta) == 0.0

    def test_explicit_value_lists(self):
        d = free_energy_difference_from_values([0.0, 2.0], [0.0, 1.0], beta=1.0)
        expected = -math.log((1 + math.exp(-2.0)) / (1 + math.exp(-1.0)))
        assert d == pytest.approx(expected, abs=1e-14)

    def test_rejects_bad_arguments(self):
        spec = spectrum_of([0.0, 1.0])
        with pytest.raises(ValueError, match="alpha"):
            free_energy_difference(spec, 0.0, beta=1.0)
        with pytest.raises(ValueError, match="beta"):
            free_energy_difference(spec, 1.2, beta=-1.0)


def test_thermal_ensemble_accepts_spectrum_directly():
    spec = spectrum_of([0.0, 1.0])
    a = ThermalEnsemble(2.0, spec)
    b = thermal_state(spec, 2.0)
    assert np.array_equal(a.probs, b.probs)
