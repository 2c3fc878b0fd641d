import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tauwork import scenarios, spacetime
from tauwork.channels import PropagatorSchedule, amplitude_damping_channel, depolarizing_channel
from tauwork.operators import RULES, HermitianOperator, Spectrum, random_hermitian
from tauwork.operators import spectral_decompose
from tauwork.protocol import (
    FINAL_BASES,
    AppendixRun,
    FlatRun,
    ReducedRun,
    estimate,
    report_rows,
    run_protocol,
)
from tauwork.scenarios import (
    CHANNELS,
    FIELD_RULES,
    SYSTEMS,
    WORLDLINES,
    ScenarioConfig,
    ScenarioValidationError,
    build_scenario,
    harmonic_hamiltonian,
    levels_for_tail,
    oscillator_delta_F_analytic,
    oscillator_mean_work_analytic,
    parse_document,
    run_scenario,
    truncation_tail_weight,
    two_level_hamiltonian,
)
from tauwork.spacetime import dilation_profile, uniform_gravity_worldline
from tauwork.thermo import thermal_state


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


APPENDIX = {
    "scenario_id": "drv",
    "pipeline": "appendix",
    "beta": 1.0,
    "worldline": {"preset": "comoving", "t_end": 1.0},
    "schedule": [{"tau_end": 1.0, "system": {"kind": "two_level", "gap": 1.0}}],
}


PAST_CAP = r"beta_omega \* alpha_min = .* needs more than 1024 levels"


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
        spec = harmonic_hamiltonian(1.0, levels)
        est = estimate(thermal_state(spec, beta_omega), alpha * spec.eigenvalues)
        assert beta_omega * est.delta_f == pytest.approx(
            oscillator_delta_F_analytic(beta_omega, alpha), abs=1e-7
        )
        assert beta_omega * est.mean_work == pytest.approx(
            oscillator_mean_work_analytic(beta_omega, alpha), abs=1e-7
        )

    def test_entropy_nonnegative_on_grid(self):
        for beta_omega in (0.25, 1.0, 4.0, 10.0):
            for alpha in np.linspace(0.1, 2.0, 20):
                sigma = oscillator_mean_work_analytic(
                    beta_omega, alpha
                ) - oscillator_delta_F_analytic(beta_omega, alpha)
                assert sigma >= -1e-12

    @pytest.mark.parametrize(
        "oracle, beta_omega, alpha, message",
        [
            (oscillator_delta_F_analytic, math.nan, 1.2, "beta_omega"),
            (oscillator_mean_work_analytic, 1.0, math.inf, "alpha"),
        ],
    )
    def test_oracles_reject_non_finite_arguments(self, oracle, beta_omega, alpha, message):
        with pytest.raises(ValueError, match=f"{message} must be a finite number"):
            oracle(beta_omega, alpha)

    def test_levels_for_tail_bounds(self):
        for bo, alpha in ((0.5, 0.5), (2.0, 1.0), (5.0, 1.5)):
            n = levels_for_tail(bo, alpha_min=alpha)
            assert truncation_tail_weight(bo, n, alpha) < 1e-12

    @pytest.mark.parametrize(
        "helper, args, message",
        [
            (levels_for_tail, (math.inf,), "beta_omega must be a finite number, got inf"),
            (levels_for_tail, (math.nan,), "beta_omega must be a finite number, got nan"),
            (levels_for_tail, (0.0,), "beta_omega must be positive, got 0.0"),
            (levels_for_tail, (1.0, math.nan), "alpha_min must be a finite number, got nan"),
            (levels_for_tail, (1.0, -0.5), r"alpha_min must be positive, got -0\.5"),
            (truncation_tail_weight, (math.nan, 3), "beta_omega must be a finite number"),
            (truncation_tail_weight, (-1.0, 3), "beta_omega must be positive"),
            (truncation_tail_weight, (1.0, 3, math.nan), "alpha must be a finite number"),
            (truncation_tail_weight, (1.0, 3, math.inf), "alpha must be a finite number"),
            # the ladder's own rule: an integer from 2 to 1024
            (truncation_tail_weight, (1.0, 0), "levels must be >= 2, got 0"),
            (truncation_tail_weight, (1.0, 1), "levels must be >= 2, got 1"),
            (truncation_tail_weight, (1.0, 1025), "levels must be <= 1024, got 1025"),
            (truncation_tail_weight, (1.0, 3.0), r"levels must be an integer, got 3\.0"),
            # the ladder is longer than the levels cap, or the spacing underflows to 0
            (levels_for_tail, (1e-9,), PAST_CAP),
            (levels_for_tail, (1e-310,), PAST_CAP),
            (levels_for_tail, (5e-324,), PAST_CAP),
            (levels_for_tail, (1.0, 1e-310), PAST_CAP),
            (levels_for_tail, (1e-200, 1e-200), PAST_CAP),
            # the ladder size must be an integer (not a bool) from 2 to 1024
            (harmonic_hamiltonian, (1.0, 2.5), r"levels must be an integer, got 2\.5"),
            (harmonic_hamiltonian, (1.0, True), "levels must be an integer, got True"),
            (harmonic_hamiltonian, (1.0, 1), "levels must be >= 2, got 1"),
            (harmonic_hamiltonian, (1.0, 1025), "levels must be <= 1024, got 1025"),
            # a level spacing or gap that is not finite and > 0
            (harmonic_hamiltonian, (math.nan, 3), "omega must be a finite number, got nan"),
            (harmonic_hamiltonian, (math.inf, 3), "omega must be a finite number, got inf"),
            (harmonic_hamiltonian, (-1.0, 3), r"omega must be positive, got -1\.0"),
            (two_level_hamiltonian, (math.nan,), "gap must be a finite number, got nan"),
            (two_level_hamiltonian, (-math.inf,), "gap must be a finite number, got -inf"),
            (two_level_hamiltonian, (0.0,), r"gap must be positive, got 0\.0"),
        ],
    )
    def test_tail_helpers_reject_bad_arguments(self, helper, args, message):
        with pytest.raises(ValueError, match=message):
            helper(*args)


class TestSystems:
    def test_harmonic_spectrum(self):
        spec = harmonic_hamiltonian(1.0, 40)
        np.testing.assert_allclose(spec.eigenvalues, np.arange(40) + 0.5)
        assert np.array_equal(spec.eigenvectors, np.eye(40))

    def test_harmonic_accepts_numpy_integer_levels(self):
        assert harmonic_hamiltonian(1.0, np.int64(3)).dim == 3

    def test_two_level_gap(self):
        spec = two_level_hamiltonian(0.7)
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 0.7])
        assert np.array_equal(spec.eigenvectors, np.eye(2))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            harmonic_hamiltonian(-1.0, 10)
        with pytest.raises(ValueError):
            harmonic_hamiltonian(1.0, 1)
        with pytest.raises(ValueError):
            two_level_hamiltonian(0.0)

    @pytest.mark.parametrize(
        "builder, args",
        [
            (harmonic_hamiltonian, (1.0, 2)),
            (harmonic_hamiltonian, (0.7, 5)),
            (harmonic_hamiltonian, (1.3, 9)),
            (two_level_hamiltonian, (1.0,)),
            (two_level_hamiltonian, (0.35,)),
        ],
    )
    def test_built_spectrum_reports_equal_decomposed_diagonal(self, builder, args):
        # report rows, not eigenvectors, are compared: they do not depend on
        # the eigenvector signs an eigensolver picks
        built = builder(*args)
        decomposed = spectral_decompose(HermitianOperator(np.diag(built.eigenvalues)))
        other = spectral_decompose(random_hermitian(built.dim, 3))
        assert _report_rows(built, other) == _report_rows(decomposed, other)


def _report_rows(spec, other):
    """The report rows of flat and driven runs on ``spec``, and the dilated
    estimators; ``other`` is the driven schedule's second generator, before and
    after ``spec``."""
    prof = dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=101))
    dim, total = spec.dim, prof.tau_total
    runs = [
        FlatRun("damping", 1.0, spec, spec, amplitude_damping_channel(0.4, dim)),
        FlatRun("depolarizing", 1.0, spec, spec, depolarizing_channel(0.3, dim)),
    ]
    for segments in ((spec, other), (other, spec)):
        schedule = PropagatorSchedule(list(zip((0.6 * total, total), segments)), prof, 50)
        runs += [AppendixRun("driven", 1.0, schedule, basis) for basis in FINAL_BASES]
    dilated = estimate(thermal_state(spec, 2.0), prof.alpha_final * spec.eigenvalues)
    columns = (dilated.mean_work, dilated.delta_f, dilated.lhs, dilated.rhs)
    return [run_protocol(run).to_csv_row() for run in runs] + [repr(columns)]


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
            parse_document("{not json")

    def test_number_beyond_the_int_conversion_limit(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        with pytest.raises(ScenarioValidationError) as err:
            parse_document('{"beta": ' + "1" * 4401 + "}")
        assert err.value.errors == ["document: a number has too many digits"]

    def test_edited_casts_float_fields_like_from_dict(self):
        edited = ScenarioConfig.from_dict(dilated_config()).edited("c", 3, "osc@c=3")
        assert edited == ScenarioConfig.from_dict(dilated_config(c=3, scenario_id="osc@c=3"))
        assert type(edited.c) is float

    def test_every_int_without_an_integer_rule_is_held_as_a_float(self):
        # an int past 2**64 would reach numpy as an object array
        raw = {
            "scenario_id": "drv",
            "pipeline": "appendix",
            "beta": 1,
            "worldline": {"preset": "uniform_gravity", "g": 0, "t_end": 10**20, "samples": 11},
            "schedule": [{"tau_end": 10**21, "system": {"kind": "harmonic", "omega": 1,
                                                         "levels": 3}}],
            "steps": 7,
        }
        config = ScenarioConfig.from_dict(raw)
        assert [type(v) for v in (config.beta, config.mass, config.steps)] == [float, float, int]
        assert config.worldline == {"preset": "uniform_gravity", "g": 0.0, "t_end": 1e20,
                                    "samples": 11}
        assert [type(v) for v in config.worldline.values()] == [str, float, float, int]
        segment = config.schedule[0]
        assert type(segment["tau_end"]) is float and segment["tau_end"] == 1e21
        assert [type(v) for v in segment["system"].values()] == [str, float, int]
        assert raw["worldline"]["t_end"] == 10**20  # the document is not edited

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
        assert isinstance(run, ReducedRun)
        (labels,) = run.labels
        assert labels["pipeline"] == "dilated" and labels["scenario_id"] == "osc"
        assert labels["alpha_final"] == pytest.approx(1.2, abs=1e-15)
        ladder = harmonic_hamiltonian(1.0, 40).eigenvalues
        assert run.initial.tobytes() == ladder.tobytes() and run.beta.tolist() == [2.0]
        assert run.final.tobytes() == (labels["alpha_final"] * ladder).tobytes()
        assert run.transitions is None and run.correction == 0.0

    def test_comoving_preset_alpha_one(self, monkeypatch):
        # the clock's integrals are 0: the proper time is the span, and no sample is profiled
        profiles, profile = [], spacetime.dilation_profile
        spy = lambda *a, **k: profiles.append(profile(*a, **k)) or profiles[-1]  # noqa: E731
        monkeypatch.setattr(spacetime, "dilation_profile", spy)
        raw = dilated_config(
            worldline={"preset": "comoving", "t_end": 5.0, "samples": 3}
        )
        run = build_scenario(ScenarioConfig.from_dict(raw))
        assert profiles == []
        assert run.labels[0]["alpha_final"] == 1.0 and run.labels[0]["tau_total"] == 5.0
        assert run.final.tobytes() == run.initial.tobytes()

    def test_flat_build(self):
        raw = {
            "scenario_id": "damp",
            "pipeline": "flat",
            "beta": 1.0,
            "system": {"kind": "two_level", "gap": 1.0},
            "channel": {"preset": "amplitude_damping", "gamma": 0.5},
        }
        run = build_scenario(ScenarioConfig.from_dict(raw))
        assert isinstance(run, ReducedRun)
        assert run.labels[0]["pipeline"] == "flat"
        assert run.transitions.shape == (2, 2)
        assert run.correction != 0.0  # the channel is not unital

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
        assert isinstance(run, ReducedRun)
        assert run.labels[0]["pipeline"] == "appendix"
        assert run.labels[0]["steps"] == 64
        assert run.labels[0]["final_basis"] == "instantaneous"
        assert run.transitions.shape == (2, 2)  # the instantaneous basis keeps them

    @pytest.mark.parametrize(
        "computes, section, other",
        [
            ("build_system", "system", {"kind": "harmonic", "omega": 1.0, "levels": 20}),
            (
                "Clock",
                "worldline",
                {"preset": "cruise", "p": 0.3, "t_end": 5.0, "samples": 11},
            ),
        ],
        ids=["spectrum", "clock"],
    )
    def test_each_build_computes_each_stage_once_and_keeps_nothing(
        self, computes, section, other, monkeypatch
    ):
        calls, computed = [], []
        compute = getattr(scenarios, computes)

        def spy(*args, **kwargs):
            calls.append(args)
            computed.append(compute(*args, **kwargs))
            return computed[-1]

        monkeypatch.setattr(scenarios, computes, spy)
        a = ScenarioConfig.from_dict(dilated_config())
        b = ScenarioConfig.from_dict(dilated_config(**{section: other}))
        runs = [build_scenario(config) for config in (a, b, a)]
        assert len(calls) == 3
        # the third build computes its stage anew, to the same bits as the first
        assert computed[2] is not computed[0]
        rows = [row.to_csv_row() for row in report_rows(runs)]
        assert rows[0] == rows[2] != rows[1]

    def test_a_config_builds_the_same_run_whatever_was_built_before(self, tmp_path):
        # points that differ in c or a ramp's g (or in both), points that share one
        # profile, a flat point, a csv worldline and moving particles of two masses
        ramp = dict(dilated_config()["worldline"], samples=10**4)
        documents = [dilated_config(worldline=ramp, c=c) for c in (1.0, 2.0, 3.0, 4.0, 5.0)]
        documents += [dilated_config(worldline=dict(ramp, g=g)) for g in (0.01, 0.02, 0.03)]
        documents += [dilated_config(beta=beta) for beta in (1.0, 2.0)]
        documents.append(minimal_document("channel", {"preset": "identity"}, tmp_path))
        csv = minimal_document("worldline", {"csv": "{tmp}/worldline.csv"}, tmp_path)
        documents += [dict(csv, c=c) for c in (1.0, 2.0)]
        cruise = {"preset": "cruise", "p": 0.3, "t_end": 5.0}
        documents += [dilated_config(worldline=cruise, c=c, mass=c) for c in (1.0, 2.0)]
        configs = [ScenarioConfig.from_dict(d) for d in documents]
        forward = [row.to_csv_row() for row in report_rows(map(build_scenario, configs))]
        backward = [run_scenario(config).to_csv_row() for config in reversed(configs)]
        assert forward == backward[::-1]
        # the first ramp is listed twice (c = 1, g = 0.02); the trapezoid rule integrates
        # a ramp exactly, so it reads the same on 10^4 samples as on the 101 of the
        # beta = 2 point; the two betas of one clock differ
        assert len(set(forward)) == len(forward) - 2

    @pytest.mark.parametrize(
        "param, values, edits, rows",
        [
            # 1024 levels a point: 28 points fill the atom budget, whatever the samples
            ("c", [1.0 + k for k in range(60)], {"levels": 1024, "samples": 10**4}, [28, 28, 4]),
            ("alpha", [0.8 + 0.005 * k for k in range(60)], {"levels": 1024, "samples": 10**4},
             [28, 28, 4]),
            ("beta", [0.5 + 0.05 * k for k in range(60)], {"levels": 1024}, [28, 28, 4]),
            ("omega", [0.5 + 0.01 * k for k in range(60)], {"levels": 1024}, [28, 28, 4]),
        ],
    )
    def test_a_dilated_sweep_runs_in_stacks_each_row_its_point_alone(
        self, param, values, edits, rows
    ):
        from tauwork.cli import _sweep_config

        document = dilated_config()
        for section in ("system", "worldline"):
            document[section] = {**document[section], **{
                key: value for key, value in edits.items() if key in document[section]
            }}
        base = ScenarioConfig.from_dict(document)
        ids = [f"osc@{param}={value:.9g}" for value in values]
        stacks = list(scenarios.dilated_sweep(base, param, values, ids))
        assert [len(stack.labels) for stack in stacks] == rows
        assert all(stack.initial.flags.c_contiguous for stack in stacks)
        got = [row.to_csv_row() for row in report_rows(stacks)]
        assert got == [run_scenario(_sweep_config(base, param, v)).to_csv_row() for v in values]

    @pytest.mark.parametrize(
        "document, param, values",
        [
            (dilated_config(), "beta", [-1.0, 1.0]),
            (dilated_config(), "c", [1.0, 1e155]),
            (dilated_config(system={"kind": "two_level", "gap": 1.0}), "omega", [1.0, 2.0]),
            (dilated_config(system={"kind": "harmonic", "omega": 1.0, "levels": 40}), "omega",
             [1.0, 1e307]),
            # g = (alpha - 1) c^2 / t_end past the float range
            (dilated_config(c=1e150), "alpha", [1.0, 1e20]),
            (dilated_config(), "gamma", [0.1, 0.2]),
            (APPENDIX, "beta", [1.0, 2.0]),
        ],
    )
    def test_a_sweep_with_a_value_its_rule_rejects_or_not_dilated_has_no_stacks(
        self, document, param, values
    ):
        base = ScenarioConfig.from_dict(document)
        assert scenarios.dilated_sweep(base, param, values, ["x"] * len(values)) is None

    def test_an_omega_column_builds_its_ladder_once_at_unit_omega(self, monkeypatch):
        built, scaled = [], []
        build, scale = scenarios.build_system, Spectrum.scaled
        spy = lambda system: built.append(system) or build(system)  # noqa: E731
        monkeypatch.setattr(scenarios, "build_system", spy)
        monkeypatch.setattr(Spectrum, "scaled", lambda sp, f: scaled.append(f) or scale(sp, f))
        ladder = dilated_config()["system"]
        base = ScenarioConfig.from_dict(dilated_config())
        omegas = [1.5, 1.5, 2.0]
        (stack,) = scenarios.dilated_sweep(base, "omega", omegas, ["x"] * 3)
        assert built == [dict(ladder, omega=1.0)] and scaled == []
        monkeypatch.setattr(scenarios, "build_system", build)
        for row, omega in zip(stack.initial, omegas):
            point = ScenarioConfig.from_dict(dilated_config(system=dict(ladder, omega=omega)))
            (alone,) = build_scenario(point).initial
            assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize(
        "change, mass, c",
        [
            ({"mass": 2.0}, 2.0, 1.0),
            ({"c": 3.0}, 1.0, 3.0),
            (
                {"worldline": {"preset": "cruise", "p": 0.3, "t_end": 5.0,
                               "gravitational_only": True}},
                1.0,
                math.inf,
            ),
        ],
        ids=["mass", "c", "gravitational_only"],
    )
    def test_the_profile_reads_every_field_its_rate_depends_on(self, change, mass, c):
        # a moving particle (p != 0) with no potential: alpha = 1 - p^2 / (2 m^2 c^2),
        # and 1 in the heavy-particle limit
        first = dilated_config(worldline={"preset": "cruise", "p": 0.3, "t_end": 5.0})
        configs = [ScenarioConfig.from_dict(d) for d in (first, dict(first, **change))]
        runs = [build_scenario(config) for config in configs]
        expected = [1.0 - 0.3**2 / 2.0, 1.0 - 0.3**2 / (2.0 * mass**2 * c**2)]
        alphas = [run.labels[0]["alpha_final"] for run in runs]
        assert alphas == pytest.approx(expected, abs=1e-15)
        assert alphas[0] != alphas[1]

    @pytest.mark.parametrize(
        "section, path, value",
        [
            # a matrix entry, two lists below the section
            ("system", ("matrix", 1, 1), [2.0, 0.0]),
            ("worldline", ("g",), -0.01),
        ],
    )
    def test_a_section_edited_in_place_is_read_by_the_next_build(self, section, path, value):
        matrix = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        document = dilated_config(system={"kind": "explicit", "matrix": matrix})
        config = ScenarioConfig.from_dict(document)
        first = run_scenario(config).to_csv_row()
        for target in (getattr(config, section), document[section]):
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        again = run_scenario(config).to_csv_row()
        assert again != first
        assert again == run_scenario(ScenarioConfig.from_dict(document)).to_csv_row()

    def test_a_dilated_build_profiles_its_worldline_before_it_builds_its_system(self):
        # both sections fail: the error is the worldline's, as for a driven config
        not_hermitian = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        steep = dict(dilated_config()["worldline"], g=0.2)
        config = ScenarioConfig.from_dict(
            dilated_config(system={"kind": "explicit", "matrix": not_hermitian}, worldline=steep)
        )
        with pytest.raises(ValueError, match="exceeds the weak-field bound"):
            build_scenario(config)
        with pytest.raises(ValueError, match="not Hermitian"):
            build_scenario(ScenarioConfig.from_dict(dilated_config(system=config.system)))

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


def _exact_trapezoid(f: np.ndarray, t: np.ndarray, power: int = 1) -> Fraction:
    """The trapezoid integral of ``f ** power`` over ``t`` for float samples ``f`` and
    ``t``, in exact arithmetic."""
    # every float is an integer multiple of 2^-1074
    f, t = ([n * (2**1074 // d) for n, d in map(float.as_integer_ratio, a.tolist())]
            for a in (f, t))
    f = [x**power for x in f]
    total = sum((f[k] + f[k + 1]) * (t[k + 1] - t[k]) for k in range(len(t) - 1))
    return Fraction(total, 2 * 2 ** (1074 * (power + 1)))


def _ulps_off(tau: float, trajectory, c: float, gravitational_only: bool = False) -> float:
    """How far ``tau`` is from the exact trapezoid of the clock rates of ``trajectory``'s
    float samples at ``c``, in units of the last place of the exact value."""
    c2, m = Fraction(c) ** 2, Fraction(trajectory.mass)
    exact = Fraction(trajectory.t[-1]) - Fraction(trajectory.t[0])
    exact += _exact_trapezoid(trajectory.phi, trajectory.t) / c2
    if not gravitational_only:
        exact -= _exact_trapezoid(trajectory.p, trajectory.t, 2) / (2 * m * m * c2)
    return float(abs(Fraction(tau) - exact) / Fraction(math.ulp(float(exact))))


ORACLE_SPEEDS = (1.0, 17.0, 1e3, 1e6)


class TestProperTimeOracle:
    """A dilated run's proper time is the trapezoid integral of the clock rates of its
    float samples, computed exactly, to within 1 ulp, at every c from 1 to 10^6."""

    @pytest.mark.parametrize(
        "worldline, mass",
        [
            ({"preset": "uniform_gravity", "g": 0.02, "t_end": 10.0, "samples": 2000, "p": 0.2},
             1.0),
            ({"preset": "point_mass", "M": 0.3, "r_start": 2.0, "r_end": 5.0, "t_end": 10.0,
              "samples": 1001}, 1.0),
            ({"preset": "cruise", "p": 0.3, "t_end": 5.0, "samples": 1000}, 1.0),
            ({"preset": "comoving", "t_end": 5.0, "samples": 11}, 1.0),
            # a table whose potential and |p| change at every sample
            ({"csv": str(Path(__file__).resolve().parent / "data" / "moving_particle.csv")}, 1.3),
        ],
        ids=["uniform_gravity", "point_mass", "cruise", "comoving", "csv"],
    )
    def test_a_run_is_the_exact_trapezoid_of_its_samples(self, worldline, mass):
        trajectory = scenarios.build_trajectory(worldline, mass)
        for c in ORACLE_SPEEDS:
            config = ScenarioConfig.from_dict(dilated_config(worldline=worldline, mass=mass, c=c))
            tau = build_scenario(config).labels[0]["tau_total"]
            assert _ulps_off(tau, trajectory, c) <= 1.0, c

    def test_an_alpha_column_is_the_exact_trapezoid_of_each_ramp(self):
        alphas = [0.8, 0.95, 1.05, 1.3]
        for c in ORACLE_SPEEDS:
            ramp = dict(dilated_config()["worldline"], samples=500)
            base = ScenarioConfig.from_dict(dilated_config(worldline=ramp, c=c))
            (stack,) = scenarios.dilated_sweep(base, "alpha", alphas, ["x"] * len(alphas))
            for alpha, labels in zip(alphas, stack.labels):
                trajectory = scenarios.build_trajectory(scenarios.alpha_ramp(base, alpha), 1.0)
                assert _ulps_off(labels["tau_total"], trajectory, c, True) <= 1.0, (c, alpha)


class TestRunScenario:
    def test_blueshift_preset_raises_free_energy(self):
        rep = run_scenario(ScenarioConfig.from_dict(dilated_config()))
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
        rep = run_scenario(ScenarioConfig.from_dict(raw))
        assert rep.delta_F < 0
        assert rep.mean_work < 0
        assert rep.entropy_production >= -1e-15

    def test_cruise_preset_is_redshift(self):
        raw = dilated_config(
            worldline={"preset": "cruise", "p": 0.3, "t_end": 5.0, "samples": 11}
        )
        rep = run_scenario(ScenarioConfig.from_dict(raw))
        assert rep.alpha_final == pytest.approx(1.0 - 0.045, abs=1e-15)
        assert rep.delta_F < 0

    def test_mean_energy_outside_thermal_window_is_finite(self):
        # very cold two-level run stays numerically healthy
        raw = dilated_config(
            system={"kind": "two_level", "gap": 1.0}, beta=500.0
        )
        rep = run_scenario(ScenarioConfig.from_dict(raw))
        assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)
        assert abs(rep.residual) < 1e-12


def test_random_system_is_seed_deterministic():
    raw = dilated_config(system={"kind": "random", "dim": 4, "seed": 11})
    a = run_scenario(ScenarioConfig.from_dict(raw))
    b = run_scenario(ScenarioConfig.from_dict(raw))
    assert a.to_csv_row() == b.to_csv_row()


def test_thermal_mean_energy_used_by_potential_reading():
    spec = harmonic_hamiltonian(1.0, 40)
    mean = thermal_state(spec, 2.0).mean_energy()
    rep = run_scenario(ScenarioConfig.from_dict(dilated_config()))
    assert rep.mean_work / mean == pytest.approx(0.2, abs=1e-12)


# One minimal object per table entry, each naming its entry explicitly.
SIGMA_X = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
IDENTITY_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
MINIMAL_SYSTEMS = {
    "explicit": {"kind": "explicit", "matrix": IDENTITY_2},
    "harmonic": {"kind": "harmonic", "omega": 1.0, "levels": 3},
    "two_level": {"kind": "two_level", "gap": 1.0},
    "random": {"kind": "random", "dim": 3, "seed": 1},
}
MINIMAL_WORLDLINES = {
    "comoving": {"preset": "comoving", "t_end": 1.0},
    "uniform_gravity": {"preset": "uniform_gravity", "g": 0.01, "t_end": 1.0},
    "point_mass": {
        "preset": "point_mass", "M": 0.01, "r_start": 10.0, "r_end": 12.0, "t_end": 10.0,
    },
    "cruise": {"preset": "cruise", "p": 0.1, "t_end": 1.0},
    "csv": {"preset": "csv", "csv": "{tmp}/worldline.csv"},
}
MINIMAL_CHANNELS = {
    "identity": {"preset": "identity"},
    "amplitude_damping": {"preset": "amplitude_damping", "gamma": 0.3},
    "depolarizing": {"preset": "depolarizing", "lambda": 0.3},
    "unitary": {"preset": "unitary", "matrix": SIGMA_X},
    "kraus": {"preset": "kraus", "matrices": [IDENTITY_2]},
}
TABLES = {
    "system": (SYSTEMS, MINIMAL_SYSTEMS),
    "worldline": (WORLDLINES, MINIMAL_WORLDLINES),
    "channel": (CHANNELS, MINIMAL_CHANNELS),
}


def minimal_document(section, obj, tmp_path):
    """A valid scenario that carries ``obj`` as its ``section``."""
    if section == "channel":
        doc = {"pipeline": "flat", "system": {"kind": "two_level", "gap": 1.0}}
    else:
        doc = {
            "pipeline": "dilated",
            "system": {"kind": "two_level", "gap": 1.0},
            "worldline": {"preset": "comoving", "t_end": 1.0},
        }
    (tmp_path / "worldline.csv").write_text("t,phi,p\n0,0,0\n1,0.01,0.1\n")
    obj = {k: v.format(tmp=tmp_path) if k == "csv" else v for k, v in obj.items()}
    return {"scenario_id": "minimal", "beta": 1.0, **doc, section: obj}


TABLE_ENTRIES = [(s, name) for s, (table, _) in TABLES.items() for name in table]
REQUIRED_FIELDS = [
    (s, name, key) for s, (table, _) in TABLES.items() for name in table
    for key in table[name].required
]


class TestSchemaTables:
    def test_every_entry_has_a_minimal_object(self):
        for table, minimal in TABLES.values():
            assert set(minimal) == set(table)

    @pytest.mark.parametrize("section,name", TABLE_ENTRIES)
    def test_minimal_document_validates_builds_and_runs(self, section, name, tmp_path):
        obj = TABLES[section][1][name]
        config = ScenarioConfig.from_dict(minimal_document(section, obj, tmp_path))
        run = build_scenario(config)
        assert isinstance(run, ReducedRun) and run.labels[0]["pipeline"] == config.pipeline
        report = run_scenario(config)
        assert abs(report.residual) < 1e-10

    @pytest.mark.parametrize("section,name,key", REQUIRED_FIELDS)
    def test_dropping_a_required_field_names_its_path(self, section, name, key, tmp_path):
        obj = dict(TABLES[section][1][name])
        del obj[key]
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig.from_dict(minimal_document(section, obj, tmp_path))
        assert any(e.startswith(f"{section}.{key}: required") for e in err.value.errors)

    def test_csv_worldline_needs_no_preset(self, tmp_path):
        raw = minimal_document("worldline", {"csv": "{tmp}/worldline.csv"}, tmp_path)
        report = run_scenario(ScenarioConfig.from_dict(raw))
        assert report.alpha_final == pytest.approx(1.0 + 0.01 - 0.005, abs=1e-12)

    @pytest.mark.parametrize("section", sorted(TABLES))
    def test_unknown_entry_lists_the_table(self, section, tmp_path):
        obj = {"kind" if section == "system" else "preset": "warp"}
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig.from_dict(minimal_document(section, obj, tmp_path))
        (message,) = [e for e in err.value.errors if e.startswith(section)]
        assert all(repr(name) in message for name in TABLES[section][0])

    def test_segment_fields_required(self):
        raw = {
            "scenario_id": "drv",
            "pipeline": "appendix",
            "beta": 1.0,
            "worldline": {"preset": "comoving", "t_end": 1.0},
            "schedule": [{}, {"tau_end": 1.0, "system": {"kind": "two_level"}}],
        }
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig.from_dict(raw)
        messages = "\n".join(err.value.errors)
        assert "schedule[0].tau_end: required" in messages
        assert "schedule[0].system: required" in messages
        assert "schedule[1].system.gap: required for kind 'two_level'" in messages

    @pytest.mark.parametrize(
        "value,message",
        [
            ("x", "beta: must be a finite number"),
            (True, "beta: must be a finite number"),
            (float("nan"), "beta: must be a finite number"),
            (0.0, "beta: must be positive"),
        ],
    )
    def test_number_rule(self, value, message):
        with pytest.raises(ScenarioValidationError, match=message):
            ScenarioConfig.from_dict(dilated_config(beta=value))

    @pytest.mark.parametrize(
        "system,message",
        [
            ({"kind": "harmonic", "omega": 1, "levels": 2.0}, "system.levels: must be an integer"),
            ({"kind": "harmonic", "omega": 1.0, "levels": 1}, "system.levels: must be >= 2"),
            ({"kind": "random", "dim": 2, "seed": -1}, "system.seed: must be >= 0"),
            ({"kind": "explicit", "matrix": {}}, "system.matrix: must be a square"),
            ([], "system: must be an object with a 'kind' key"),
        ],
    )
    def test_system_field_rules(self, system, message):
        with pytest.raises(ScenarioValidationError, match=message):
            ScenarioConfig.from_dict(dilated_config(system=system))

    def test_final_basis_checked_against_protocol(self):
        for basis in FINAL_BASES:
            assert ScenarioConfig.from_dict(dict(APPENDIX, final_basis=basis)).final_basis == basis
        with pytest.raises(ScenarioValidationError, match="final_basis: must be one of"):
            ScenarioConfig.from_dict(dict(APPENDIX, final_basis="lab"))

    def test_every_scalar_field_has_a_rule(self):
        names = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(FIELD_RULES) >= names - {"system", "worldline", "channel", "schedule"}

    def test_numeric_rules_are_the_engines(self):
        assert all(FIELD_RULES[name] is rule for name, rule in RULES.items())

    @pytest.mark.parametrize(
        "raw,message",
        [
            ([], "document: must be a JSON object"),
            (dilated_config(pipeline="warp"), "pipeline: must be one of"),
            (dict(APPENDIX, schedule={"tau_end": 1.0}), "schedule: must be a non-empty list"),
            (dict(APPENDIX, schedule=[]), "schedule: must be a non-empty list"),
            (dict(APPENDIX, schedule=[1.0]), r"schedule\[0\]: must be an object"),
        ],
    )
    def test_document_shape(self, raw, message):
        with pytest.raises(ScenarioValidationError, match=message):
            ScenarioConfig.from_dict(raw)


class TestIntegerCaps:
    """Each cap is accepted at its bound and rejected one above; nothing is built."""

    @pytest.mark.parametrize(
        "raw",
        [
            lambda n: dilated_config(system={"kind": "harmonic", "omega": 1.0, "levels": n}),
            lambda n: dilated_config(system={"kind": "random", "dim": n, "seed": 0}),
        ],
        ids=["levels", "dim"],
    )
    def test_system_size(self, raw):
        assert ScenarioConfig.from_dict(raw(1024))
        for n in (1025, 10**20, 10**400):
            with pytest.raises(ScenarioValidationError, match=f"must be <= 1024, got {n}"):
                ScenarioConfig.from_dict(raw(n))

    def test_samples(self):
        def raw(n):
            worldline = dict(dilated_config()["worldline"], samples=n)
            return dilated_config(worldline=worldline)

        assert ScenarioConfig.from_dict(raw(10**6))
        for n in (10**6 + 1, 10**400):
            with pytest.raises(ScenarioValidationError) as err:
                ScenarioConfig.from_dict(raw(n))
            assert err.value.errors == [f"worldline.samples: must be <= 1000000, got {n}"]

    def test_steps(self):
        assert ScenarioConfig.from_dict(dict(APPENDIX, steps=10**9)).steps == 10**9
        for n in (10**9 + 1, 10**20, 10**400):
            with pytest.raises(ScenarioValidationError) as err:
                ScenarioConfig.from_dict(dict(APPENDIX, steps=n))
            assert err.value.errors == [f"steps: must be <= 1000000000, got {n}"]

    def test_levels_for_tail_stops_at_the_levels_cap(self):
        per_level = -math.log(scenarios.TAIL_WEIGHT) / 1023
        assert levels_for_tail(per_level * (1 + 1e-12)) == 1024
        with pytest.raises(ValueError, match=PAST_CAP):
            levels_for_tail(per_level * (1 - 1e-12))


@pytest.mark.parametrize("radius", ["r_start", "r_end"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_radii_are_checked_at_validation(radius, value):
    worldline = {"preset": "point_mass", "M": 0.1, "r_start": 2.0, "r_end": 3.0, "t_end": 1.0}
    with pytest.raises(ScenarioValidationError) as err:
        ScenarioConfig.from_dict(dilated_config(worldline={**worldline, radius: value}))
    assert err.value.errors == [f"worldline.{radius}: must be positive, got {value!r}"]


class TestScenarioId:
    @pytest.mark.parametrize("bad", ["../escaped", "a/b", "a\\b", "a\0b", ".", "..", "", 7])
    def test_rejects_ids_that_are_not_file_names(self, bad):
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig.from_dict(dilated_config(scenario_id=bad))
        assert any(e.startswith("scenario_id: must be") for e in err.value.errors)

    @pytest.mark.parametrize("good", ["osc@c=1e+06", "osc@alpha=0.9", "..a", "a.b", "a b"])
    def test_accepts_sweep_style_ids(self, good):
        assert ScenarioConfig.from_dict(dilated_config(scenario_id=good)).scenario_id == good
