import json
import math

import numpy as np
import pytest

from tauwork.operators import spectral_decompose
from tauwork.protocol import AppendixRun, DilatedRun, FlatRun, work_distribution_dilated
from tauwork.scenarios import (
    ScenarioConfig,
    ScenarioValidationError,
    build_scenario,
    harmonic_hamiltonian,
    levels_for_tail,
    oscillator_delta_F_analytic,
    oscillator_mean_work_analytic,
    run_scenario,
    truncation_tail_weight,
    two_level_hamiltonian,
)
from tauwork.thermo import free_energy_difference, thermal_state


def dilated_config(**overrides):
    raw = {
        "scenario_id": "osc",
        "pipeline": "dilated",
        "beta": 2.0,
        "system": {"kind": "harmonic", "omega": 1.0, "levels": 40},
        "worldline": {
            "preset": "uniform_gravity",
            "g": 0.02,
            "t_end": 10.0,
            "samples": 101,
            "gravitational_only": True,
        },
        "mass": 1.0,
    }
    raw.update(overrides)
    return raw


class TestAnalyticOracles:
    def test_zero_at_unit_rate(self):
        assert oscillator_delta_F_analytic(2.0, 1.0) == 0.0
        assert oscillator_mean_work_analytic(2.0, 1.0) == 0.0

    def test_frozen_spot_values(self):
        # ln(sinh(1.2)/sinh(1)) and 0.2 coth(1)
        assert oscillator_delta_F_analytic(2.0, 1.2) == pytest.approx(
            0.2503135073464562, abs=1e-12
        )
        assert oscillator_mean_work_analytic(2.0, 1.2) == pytest.approx(
            0.2626070570998662, abs=1e-12
        )

    def test_matches_hand_formulas(self):
        for bo in (0.5, 2.0, 5.0):
            for alpha in (0.6, 1.0, 1.4):
                assert oscillator_delta_F_analytic(bo, alpha) == pytest.approx(
                    math.log(math.sinh(alpha * bo / 2) / math.sinh(bo / 2)), abs=1e-13
                )
                assert oscillator_mean_work_analytic(bo, alpha) == pytest.approx(
                    (alpha - 1) * (bo / 2) / math.tanh(bo / 2), abs=1e-13
                )

    @pytest.mark.parametrize("beta_omega", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.2])
    def test_truncated_ladder_agrees_with_closed_forms(self, beta_omega, alpha):
        levels = levels_for_tail(beta_omega, alpha_min=alpha)
        spec = spectral_decompose(harmonic_hamiltonian(1.0, levels))
        beta_df = beta_omega * free_energy_difference(spec, alpha, beta_omega)
        assert beta_df == pytest.approx(
            oscillator_delta_F_analytic(beta_omega, alpha), abs=1e-7
        )
        wd = work_distribution_dilated(spec, alpha, beta_omega)
        assert beta_omega * wd.mean() == pytest.approx(
            oscillator_mean_work_analytic(beta_omega, alpha), abs=1e-7
        )

    def test_entropy_nonnegative_on_grid(self):
        for beta_omega in (0.25, 1.0, 4.0, 10.0):
            for alpha in np.linspace(0.1, 2.0, 20):
                sigma = oscillator_mean_work_analytic(
                    beta_omega, alpha
                ) - oscillator_delta_F_analytic(beta_omega, alpha)
                assert sigma >= -1e-12

    def test_levels_for_tail_bounds(self):
        for bo, alpha in ((0.5, 0.5), (2.0, 1.0), (5.0, 1.5)):
            n = levels_for_tail(bo, alpha_min=alpha)
            assert truncation_tail_weight(bo, n, alpha) < 1e-12


class TestSystems:
    def test_harmonic_spectrum(self):
        spec = spectral_decompose(harmonic_hamiltonian(1.0, 40))
        np.testing.assert_allclose(spec.eigenvalues, np.arange(40) + 0.5)

    def test_two_level_gap(self):
        spec = spectral_decompose(two_level_hamiltonian(0.7))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 0.7])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            harmonic_hamiltonian(-1.0, 10)
        with pytest.raises(ValueError):
            harmonic_hamiltonian(1.0, 1)
        with pytest.raises(ValueError):
            two_level_hamiltonian(0.0)


class TestValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioValidationError, match="frobnicate: unknown"):
            ScenarioConfig.from_dict(dilated_config(frobnicate=1))
        for retired in ("mc_samples", "seed"):
            with pytest.raises(ScenarioValidationError, match=f"{retired}: unknown field"):
                ScenarioConfig.from_dict(dilated_config(**{retired: 0}))

    def test_missing_pipeline_fields_aggregated(self):
        raw = {"scenario_id": "bad", "pipeline": "flat", "beta": -1.0}
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig.from_dict(raw)
        messages = "\n".join(err.value.errors)
        assert "beta: must be positive" in messages
        assert "system: required" in messages
        assert "channel: required" in messages

    def test_forbidden_fields_reported(self):
        raw = dilated_config(channel={"preset": "identity"})
        with pytest.raises(ScenarioValidationError, match="channel: not used"):
            ScenarioConfig.from_dict(raw)

    def test_unknown_preset_and_field_paths(self):
        raw = dilated_config(
            system={"kind": "harmonic", "omega": 1.0},
            worldline={"preset": "warp", "t_end": 1.0},
        )
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig.from_dict(raw)
        messages = "\n".join(err.value.errors)
        assert "system.levels: required" in messages
        assert "worldline.preset" in messages

    def test_malformed_json(self):
        with pytest.raises(ScenarioValidationError, match="malformed JSON"):
            ScenarioConfig.from_json("{not json")

    def test_unknown_system_subfield(self):
        raw = dilated_config(system={"kind": "two_level", "gap": 1.0, "omega": 2.0})
        with pytest.raises(ScenarioValidationError, match="system.omega: unknown"):
            ScenarioConfig.from_dict(raw)

    def test_appendix_forbids_system(self):
        raw = {
            "scenario_id": "drv",
            "pipeline": "appendix",
            "beta": 1.0,
            "system": {"kind": "two_level", "gap": 1.0},
            "worldline": {"preset": "comoving", "t_end": 1.0},
            "schedule": [
                {"tau_end": 1.0, "system": {"kind": "two_level", "gap": 1.0}}
            ],
        }
        with pytest.raises(ScenarioValidationError, match="system: not used"):
            ScenarioConfig.from_dict(raw)

    def test_valid_config_round_trip(self):
        config = ScenarioConfig.from_dict(dilated_config())
        assert config.pipeline == "dilated"
        assert config.c == 1.0


class TestBuildScenario:
    def test_dilated_build(self):
        run = build_scenario(ScenarioConfig.from_dict(dilated_config()))
        assert isinstance(run, DilatedRun)
        assert run.profile.alpha_final == pytest.approx(1.2, abs=1e-15)

    def test_comoving_preset_alpha_one(self):
        raw = dilated_config(
            worldline={"preset": "comoving", "t_end": 5.0, "samples": 3}
        )
        run = build_scenario(ScenarioConfig.from_dict(raw))
        assert np.all(run.profile.alpha == 1.0)

    def test_flat_build(self):
        raw = {
            "scenario_id": "damp",
            "pipeline": "flat",
            "beta": 1.0,
            "system": {"kind": "two_level", "gap": 1.0},
            "channel": {"preset": "amplitude_damping", "gamma": 0.5},
        }
        run = build_scenario(ScenarioConfig.from_dict(raw))
        assert isinstance(run, FlatRun)
        assert not run.channel.is_unital

    def test_appendix_build(self):
        raw = {
            "scenario_id": "drv",
            "pipeline": "appendix",
            "beta": 1.0,
            "worldline": {"preset": "uniform_gravity", "g": 0.02, "t_end": 10.0, "samples": 101},
            "schedule": [
                {"tau_end": 6.0, "system": {"kind": "two_level", "gap": 1.0}},
                {"tau_end": 12.0, "system": {"kind": "two_level", "gap": 2.0}},
            ],
            "steps": 64,
            "final_basis": "instantaneous",
        }
        run = build_scenario(ScenarioConfig.from_dict(raw))
        assert isinstance(run, AppendixRun)
        assert run.schedule.steps == 64
        assert run.final_basis == "instantaneous"

    def test_channel_dimension_mismatch_reported(self):
        raw = {
            "scenario_id": "bad-dim",
            "pipeline": "flat",
            "beta": 1.0,
            "system": {"kind": "harmonic", "omega": 1.0, "levels": 3},
            "channel": {
                "preset": "unitary",
                "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            },
        }
        with pytest.raises(ScenarioValidationError, match="dimension"):
            build_scenario(ScenarioConfig.from_dict(raw))


class TestRunScenario:
    def test_blueshift_preset_raises_free_energy(self):
        rep = run_scenario(dilated_config())
        assert rep.delta_F > 0

    def test_redshift_preset_lowers_free_energy(self):
        raw = dilated_config(
            worldline={
                "preset": "uniform_gravity",
                "g": -0.02,
                "t_end": 10.0,
                "samples": 101,
                "gravitational_only": True,
            }
        )
        rep = run_scenario(raw)
        assert rep.delta_F < 0
        assert rep.mean_work < 0
        assert rep.entropy_production >= -1e-15

    def test_cruise_preset_is_redshift(self):
        raw = dilated_config(
            worldline={"preset": "cruise", "p": 0.3, "t_end": 5.0, "samples": 11}
        )
        rep = run_scenario(raw)
        assert rep.alpha_final == pytest.approx(1.0 - 0.045, abs=1e-15)
        assert rep.delta_F < 0

    def test_accepts_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dilated_config()))
        rep = run_scenario(str(path))
        assert rep.scenario_id == "osc"

    def test_mean_energy_outside_thermal_window_is_finite(self):
        # very cold two-level run stays numerically healthy
        raw = dilated_config(
            system={"kind": "two_level", "gap": 1.0}, beta=500.0
        )
        rep = run_scenario(raw)
        assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)
        assert abs(rep.residual) < 1e-12


def test_random_system_is_seed_deterministic():
    raw = dilated_config(system={"kind": "random", "dim": 4, "seed": 11})
    a = run_scenario(raw)
    b = run_scenario(raw)
    assert a.to_csv_row() == b.to_csv_row()


def test_thermal_mean_energy_used_by_potential_reading():
    spec = spectral_decompose(harmonic_hamiltonian(1.0, 40))
    mean = thermal_state(spec, 2.0).mean_energy()
    rep = run_scenario(dilated_config())
    assert rep.mean_work / mean == pytest.approx(0.2, abs=1e-12)
