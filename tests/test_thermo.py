import math
import sys

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


MAX = sys.float_info.max


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

    @pytest.mark.parametrize("beta", [math.nan, math.inf, True])
    def test_rejects_non_finite_beta(self, beta):
        message = f"beta must be a finite number, got {beta!r}"
        with pytest.raises(ValueError, match=message):
            thermal_state(spectrum_of([0.0, 1.0, 2.0]), beta=beta)
        with pytest.raises(ValueError, match=message):
            free_energy_difference_from_values([0.0, 1.0], [0.0, 1.0], beta=beta)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, True])
    def test_rejects_non_finite_clock_rate(self, alpha):
        message = f"alpha_final must be a finite number, got {alpha!r}"
        with pytest.raises(ValueError, match=message):
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

    def test_stacked_rows_are_the_one_run_values(self):
        # row i of a stack reduces along the last axis with the bits of a run alone,
        # for rows short (sequential sum) and long (numpy's pairwise sum)
        rng = np.random.default_rng(3)
        for d in (2, 8, 9, 40):
            spec = Spectrum(np.sort(rng.normal(size=d)), np.eye(d))
            betas = np.array([0.3, 1.0, 2.5])
            ensembles = [thermal_state(spec, beta) for beta in betas]
            finals = np.multiply.outer([0.5, 1.0, 1.7], spec.eigenvalues)
            log_z = np.array([g.log_z for g in ensembles])
            stacked = free_energy_difference_from_log_z(finals, log_z, betas)
            x = -np.multiply.outer(betas, spec.eigenvalues)
            for i, (gibbs, final) in enumerate(zip(ensembles, finals)):
                alone = free_energy_difference_from_log_z(final, gibbs.log_z, gibbs.beta)
                assert repr(float(stacked[i])) == repr(float(alone))
                assert repr(float(log_sum_exp(x)[i])) == repr(float(log_sum_exp(x[i])))

    def test_two_level_gibbs_weights(self):
        ens = thermal_state(spectrum_of([0.0, 1.0]), beta=math.log(2.0))
        np.testing.assert_allclose(ens.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_zero_hamiltonian_is_maximally_mixed(self):
        ens = thermal_state(spectrum_of([0.0] * 5), beta=2.0)
        np.testing.assert_allclose(ens.probs, np.full(5, 0.2), atol=1e-15)

    @pytest.mark.parametrize(
        "values, beta",
        [
            ([0.0, MAX], 1.0),
            ([-MAX, 0.0], 1.0),
            ([-0.5 * MAX, 0.5 * MAX], 1.0),  # the spread of beta * E is at the maximum
            ([0.0, 0.5 * MAX], 2.0),
        ],
    )
    def test_beta_times_energy_at_the_float_maximum(self, values, beta):
        # just below the maximum is accepted; one step of beta above overflows
        # a stack draws the line where its runs do
        spec, above = spectrum_of(values), math.nextafter(beta, math.inf)
        assert np.isfinite(thermal_state(spec, beta).log_z)
        stack = ThermalEnsemble(np.array([1.0, beta]), [[0.0, 1.0], values])
        assert np.isfinite(stack.log_z).all()
        with pytest.raises(ValueError, match=r"beta \* energy overflows a float: beta="):
            thermal_state(spec, above)
        with pytest.raises(ValueError, match=r"beta \* energy overflows a float: beta="):
            ThermalEnsemble(np.array([1.0, above]), [[0.0, 1.0], values])

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


def test_thermal_ensemble_takes_energies():
    spec = spectrum_of([0.0, 1.0])
    a = ThermalEnsemble(2.0, spec.eigenvalues)
    b = thermal_state(spec, 2.0)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.energies, spec.eigenvalues)


def one_run(gibbs):
    """Every number of a run's ensemble, exactly."""
    assert type(gibbs.beta) is float and type(gibbs.log_z) is float
    return repr(gibbs.beta), repr(gibbs.log_z), gibbs.probs.tobytes(), gibbs.energies.tobytes()


class TestStackedEnsemble:
    """r betas and an (r, d) array of energies: row i is run i's ensemble alone."""

    @pytest.mark.parametrize("d", [1, 2, 8, 9, 40, 129])
    def test_each_row_is_its_run_alone(self, d):
        # short rows sum in order and long ones pairwise, as a run alone does
        rng = np.random.default_rng(d)
        specs = [spectrum_of(np.sort(rng.normal(scale=s, size=d))) for s in (0.1, 1.0, 30.0)]
        betas = rng.uniform(0.05, 5.0, size=7)
        rows = [specs[i % 3] for i in range(7)]
        stack = ThermalEnsemble(betas, [spec.eigenvalues for spec in rows])
        for i, (spec, beta) in enumerate(zip(rows, betas)):
            row = repr(float(stack.beta[i])), repr(float(stack.log_z[i]))
            row += stack.probs[i].tobytes(), stack.energies[i].tobytes()
            assert row == one_run(thermal_state(spec, float(beta)))

    @pytest.mark.parametrize("layout", ["broadcast", "fortran", "strided"])
    def test_a_stack_in_any_memory_layout_reads_as_its_rows(self, layout):
        # a stack that is not C-contiguous sums its rows in another order, unless copied
        # in C order: a broadcast ladder of 20 levels moved log_z in 39 of 50 rows
        spec = harmonic_hamiltonian(1.0, 20)
        betas = np.linspace(0.1, 3.0, 50)
        energies = {
            "broadcast": np.broadcast_to(spec.eigenvalues, (50, 20)),
            "fortran": np.asfortranarray(np.tile(spec.eigenvalues, (50, 1))),
            "strided": np.tile(np.repeat(spec.eigenvalues, 2), (50, 1))[:, ::2],
        }[layout]
        stack = ThermalEnsemble(betas, energies)
        assert stack.energies.flags.c_contiguous
        for i, beta in enumerate(betas.tolist()):
            row = repr(float(stack.beta[i])), repr(float(stack.log_z[i]))
            row += stack.probs[i].tobytes(), stack.energies[i].tobytes()
            assert row == one_run(thermal_state(spec, beta))

    def test_fields_are_read_only_arrays_and_the_inputs_are_not(self):
        betas, energies = np.array([1.0, 2.0]), np.array([[0.0, 1.0], [0.5, 3.0]])
        stack = ThermalEnsemble(betas, energies)
        for field in (stack.beta, stack.energies, stack.probs, stack.log_z):
            assert type(field) is np.ndarray and field.dtype == np.float64
            assert len(field) == 2 and not field.flags.writeable
        assert betas.flags.writeable and energies.flags.writeable
        energies[0, 1] = 5.0  # the ensemble holds a copy
        assert stack.energies[0, 1] == 1.0

    @pytest.mark.parametrize("container", [list, np.array])
    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize(
        "value, message",
        [(0.0, r"positive, got 0\.0"), (-2.0, r"positive, got -2\.0"),
         (math.nan, "a finite number, got nan"), (math.inf, "a finite number, got inf")],
    )
    def test_a_bad_beta_in_any_row_fails_with_the_rules_words(
        self, container, row, value, message
    ):
        betas = [1.0, 0.5, 2.0]
        betas[row] = value
        with pytest.raises(ValueError, match=f"^beta must be {message}$"):
            ThermalEnsemble(container(betas), np.zeros((3, 2)))

    def test_betas_that_are_not_real_numbers_fail_with_the_rules_words(self):
        with pytest.raises(ValueError, match="^beta must be a finite number, got True$"):
            ThermalEnsemble(np.array([True, True]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^beta must be a finite number, got True$"):
            ThermalEnsemble([1.0, True], np.zeros((2, 2)))  # numpy would make it 1.0
        with pytest.raises(ValueError, match=r"^beta must be positive, got -1\.0$"):
            ThermalEnsemble(np.array([1.0, -1.0], dtype=object), np.zeros((2, 2)))

    @pytest.mark.parametrize("container", [list, np.array])
    def test_the_first_overflowing_row_gets_its_runs_message(self, container):
        # rows 1 and 2 overflow; row 1 is named, word for word as its run alone
        values = [[0.0, 1.0], [-1.0, 1e10], [0.0, 0.5 * MAX]]
        betas = [3.0, 1e300, 2.5]
        with pytest.raises(ValueError) as alone:
            thermal_state(spectrum_of(values[1]), betas[1])
        with pytest.raises(ValueError) as stacked:
            ThermalEnsemble(container(betas), values)
        assert str(stacked.value) == str(alone.value) == (
            "beta * energy overflows a float: beta=1e+300, energies -1.0 to 10000000000.0"
        )

    def test_an_empty_stack_raises(self):
        with pytest.raises(ValueError, match=r"got \(0, 3\)"):
            ThermalEnsemble([], np.zeros((0, 3)))
        with pytest.raises(ValueError, match=r"got \(2, 0\)"):
            ThermalEnsemble([1.0, 2.0], np.zeros((2, 0)))
        with pytest.raises(ValueError, match=r"got \(0,\)"):
            ThermalEnsemble(1.0, [])

    def test_rows_of_two_dimensions_raise(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            ThermalEnsemble([1.0, 2.0], [[0.0, 1.0, 2.0], [0.0, 1.0]])

    def test_a_beta_for_each_row(self):
        with pytest.raises(ValueError, match=r"2 rows of energies need one beta each: \(3,\)"):
            ThermalEnsemble([1.0, 2.0, 3.0], np.zeros((2, 4)))
        with pytest.raises(ValueError, match=r"2 rows of energies need one beta each: \(\)"):
            ThermalEnsemble(1.0, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="beta must be a finite number"):
            ThermalEnsemble([1.0, 2.0], np.zeros(4))

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize(
        "levels",
        [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0],
         [0.0, -math.inf, 1.0], [0.5, 0.0, 1.0]],
    )
    def test_energies_are_finite_with_the_least_first(self, stacked, levels):
        with pytest.raises(ValueError, match="^energies must be finite with the least first$"):
            if stacked:
                ThermalEnsemble(np.array([1.0, 2.0]), [[0.0, 1.0, 2.0], levels])
            else:
                ThermalEnsemble(1.0, levels)
