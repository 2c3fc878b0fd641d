import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tauwork import cli, protocol, scenarios, spacetime
from tauwork.cli import _parse_sweep, _sweep_config, main
from tauwork.protocol import CSV_COLUMNS, ProtocolReport
from tauwork.scenarios import ScenarioConfig, run_scenario

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

# The report row of each demo scenario, frozen from the engine before the
# pipelines shared one TPM core. Reports may move only at rounding level.
FROZEN_DEMO_ROWS = {
    "comoving": "comoving,dilated,40,2.0,1.0,5.0,0.0,0.0,1.0,1.0,0.0,0.0,evolved,0",
    "cruise_redshift": (
        "cruise-redshift,dilated,2,2.0,0.955,4.7749999999999995,-0.005364131490995294,"
        "-0.005581653784836882,1.0112258497970008,1.0112258497970008,0.0,"
        "0.00043504458768317544,evolved,0"
    ),
    "driven_two_segment": (
        "driven-two-segment,appendix,2,1.0,1.2,10.999999999999995,0.2151531370959965,"
        "0.160284076992149,0.8519017489023978,0.8519017489023977,1.1102230246251565e-16,"
        "0.05486906010384751,evolved,2000"
    ),
    "flat_damping": (
        "flat-damping,flat,2,1.0,1.0,0.0,-0.13447071068499755,-0.0,1.2310585786300048,"
        "1.231058578630005,-2.220446049250313e-16,-0.13447071068499755,instantaneous,0"
    ),
    "oscillator_blueshift": (
        "oscillator-blueshift,dilated,40,2.0,1.2,11.0,0.1313035285499331,0.1251567536732282,"
        "0.7785566615734272,0.778556661573427,2.220446049250313e-16,0.012293549753409794,"
        "evolved,0"
    ),
}
FLOAT_COLUMNS = {
    "beta", "alpha_final", "tau_total", "mean_work", "delta_F", "lhs", "rhs",
    "residual", "entropy_production",
}


def write_scenario(tmp_path, name="scenario.json", **overrides):
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
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


LADDER = {"kind": "harmonic", "omega": 1.0, "levels": 40}
# a table worldline whose potential and |p| change at every sample
MOVING = {"csv": str(Path(__file__).resolve().parent / "data" / "moving_particle.csv")}


def report_bytes(reports, fmt):
    """The bytes of a report file that holds ``reports``, each run alone."""
    if fmt == "csv":
        text = "\n".join([ProtocolReport.csv_header()] + [r.to_csv_row() for r in reports])
    else:
        payload = [r.to_dict() for r in reports]
        text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    return (text + "\n").encode()


class TestRun:
    def test_comoving_report(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            scenario_id="comoving",
            worldline={"preset": "comoving", "t_end": 5.0, "samples": 3},
        )
        out = tmp_path / "reports"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out / "comoving.csv")
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 1
        assert float(rows[0]["lhs"]) == 1.0
        assert float(rows[0]["rhs"]) == 1.0
        summary = capsys.readouterr().out
        assert "comoving" in summary and "residual" in summary

    def test_oscillator_report_values(self, tmp_path):
        path = write_scenario(tmp_path)
        out = tmp_path / "reports"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        _, rows = read_rows(out / "osc.csv")
        row = rows[0]
        assert float(row["alpha_final"]) == pytest.approx(1.2, abs=1e-15)
        assert 2.0 * float(row["delta_F"]) == pytest.approx(0.2503135073, abs=1e-7)
        assert 2.0 * float(row["mean_work"]) == pytest.approx(0.2626070571, abs=1e-7)
        assert abs(float(row["residual"])) < 1e-12

    def test_json_format_mirrors_csv(self, tmp_path):
        path = write_scenario(tmp_path)
        out = tmp_path / "reports"
        assert main(
            ["run", "--scenario", str(path), "--out", str(out), "--format", "json"]
        ) == 0
        payload = json.loads((out / "osc.json").read_text())
        assert list(payload) == list(CSV_COLUMNS)

    def test_byte_identical_reruns(self, tmp_path):
        path = write_scenario(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--scenario", str(path), "--out", str(out1), "--quiet"]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "osc.csv").read_bytes() == (out2 / "osc.csv").read_bytes()

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not valid json")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {path}: invalid scenario:\n  - document: nested too deeply" in (
            capsys.readouterr().err
        )

    def test_number_beyond_the_int_conversion_limit_exit_2(self, tmp_path, capsys):
        # json.loads refuses it with a plain ValueError and advice for Python code
        beta = '"beta": ' + "1" * 4401
        path = tmp_path / "big.json"
        path.write_text(write_scenario(tmp_path).read_text().replace('"beta": 2.0', beta))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {path}: invalid scenario:\n  - document: a number has too many" in err
        assert "set_int_max_str_digits" not in err
        assert not (tmp_path / "o").exists()

    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, beta=10**400)
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        assert "  - beta: must be a finite number, got 1000" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_field_exit_2_names_field(self, tmp_path, capsys):
        path = write_scenario(tmp_path, beta=-2.0)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["mc_samples", "seed"])
    def test_retired_field_exit_2(self, tmp_path, capsys, field):
        path = write_scenario(tmp_path, **{field: 0})
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{field}: unknown field" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    def test_missing_worldline_csv_exit_3(self, tmp_path):
        path = write_scenario(
            tmp_path, worldline={"csv": str(tmp_path / "absent.csv")}
        )
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_weak_field_scenario_exit_2(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            worldline={"preset": "uniform_gravity", "g": 0.2, "t_end": 10.0, "samples": 11},
        )
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "weak-field" in capsys.readouterr().err

    def test_unwritable_out_dir_exit_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_scenario(tmp_path)
        code = main(
            ["run", "--scenario", str(path), "--out", str(blocker / "sub"), "--quiet"]
        )
        assert code == 3

    def test_no_scenario_exit_2(self):
        assert main(["run", "--out", "/tmp/unused"]) == 2

    def test_steps_override_applies_to_appendix(self, tmp_path):
        raw = {
            "scenario_id": "drv",
            "pipeline": "appendix",
            "beta": 1.0,
            "worldline": {
                "preset": "uniform_gravity",
                "g": 0.02,
                "t_end": 10.0,
                "samples": 101,
            },
            "schedule": [
                {"tau_end": 6.0, "system": {"kind": "two_level", "gap": 1.0}},
                {"tau_end": 12.0, "system": {"kind": "two_level", "gap": 2.0}},
            ],
            "steps": 10,
        }
        path = tmp_path / "drv.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(
            ["run", "--scenario", str(path), "--out", str(out), "--steps", "25", "--quiet"]
        ) == 0
        _, rows = read_rows(out / "drv.csv")
        assert rows[0]["steps"] == "25"


class TestDemoReports:
    @pytest.mark.parametrize("name", sorted(FROZEN_DEMO_ROWS))
    def test_report_matches_frozen_row(self, name, tmp_path):
        out = tmp_path / "o"
        scenario = DEMO_SCENARIOS / f"{name}.json"
        assert main(["run", "--scenario", str(scenario), "--out", str(out), "--quiet"]) == 0
        (path,) = out.glob("*.csv")
        _, (row,) = read_rows(path)
        frozen = dict(zip(CSV_COLUMNS, FROZEN_DEMO_ROWS[name].split(",")))
        assert list(row) == list(frozen)
        for column, cell in row.items():
            assert cell != "-0.0", column
            if column in FLOAT_COLUMNS:
                x, ref = float(cell), float(frozen[column])
                assert abs(x - ref) <= 1e-12 * max(1.0, abs(ref)), column
            else:
                assert cell == frozen[column], column

    def test_every_demo_scenario_is_pinned(self):
        assert {p.stem for p in DEMO_SCENARIOS.glob("*.json")} == set(FROZEN_DEMO_ROWS)


class TestSweep:
    def test_alpha_sweep_sign_change(self, tmp_path):
        path = write_scenario(tmp_path)
        out = tmp_path / "o"
        code = main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--sweep",
                "alpha=0.8:1.2:5",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        _, rows = read_rows(out / "sweep_alpha.csv")
        assert len(rows) == 5
        alphas = [float(r["alpha_final"]) for r in rows]
        assert alphas == sorted(alphas)
        dfs = [float(r["delta_F"]) for r in rows]
        assert dfs[0] < 0 and dfs[1] < 0
        assert dfs[2] == 0.0  # alpha = 1 row
        assert dfs[3] > 0 and dfs[4] > 0

    def test_two_point_sweep_hits_endpoints(self, tmp_path):
        path = write_scenario(tmp_path)
        out = tmp_path / "o"
        assert main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--sweep",
                "beta=1:2:2",
                "--out",
                str(out),
                "--quiet",
            ]
        ) == 0
        _, rows = read_rows(out / "sweep_beta.csv")
        assert [float(r["beta"]) for r in rows] == [1.0, 2.0]

    def test_c_sweep_mean_work_vanishes(self, tmp_path):
        path = write_scenario(
            tmp_path,
            worldline={
                "preset": "uniform_gravity",
                "g": 0.02,
                "t_end": 10.0,
                "samples": 101,
                "p": 0.2,
            },
        )
        out = tmp_path / "o"
        assert main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--sweep",
                "c=1:1000000:6",
                "--out",
                str(out),
                "--quiet",
            ]
        ) == 0
        _, rows = read_rows(out / "sweep_c.csv")
        works = [abs(float(r["mean_work"])) for r in rows]
        assert all(a > b for a, b in zip(works, works[1:]))
        assert works[-1] < 1e-10

    def test_gamma_sweep_on_flat_pipeline(self, tmp_path):
        raw = {
            "scenario_id": "damp",
            "pipeline": "flat",
            "beta": 1.0,
            "system": {"kind": "two_level", "gap": 1.0},
            "channel": {"preset": "amplitude_damping", "gamma": 0.1},
        }
        path = tmp_path / "damp.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--sweep",
                "gamma=0:0.9:4",
                "--out",
                str(out),
                "--quiet",
            ]
        ) == 0
        _, rows = read_rows(out / "sweep_gamma.csv")
        lhs = [float(r["lhs"]) for r in rows]
        assert lhs[0] == pytest.approx(1.0, abs=1e-12)  # gamma=0 is unitary
        assert all(b > a for a, b in zip(lhs, lhs[1:]))  # correction grows
        assert all(abs(float(r["residual"])) < 1e-10 for r in rows)

    def test_unknown_parameter_exit_2(self, tmp_path):
        path = write_scenario(tmp_path)
        assert main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--sweep",
                "hbar=0:1:3",
                "--out",
                str(tmp_path / "o"),
            ]
        ) == 2

    def test_count_below_two_exit_2(self, tmp_path):
        path = write_scenario(tmp_path)
        assert main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--sweep",
                "alpha=1:2:1",
                "--out",
                str(tmp_path / "o"),
            ]
        ) == 2

    def test_sweep_rows_deterministic(self, tmp_path):
        path = write_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(
                [
                    "sweep",
                    "--scenario",
                    str(path),
                    "--sweep",
                    "alpha=0.9:1.1:3",
                    "--out",
                    str(out),
                    "--quiet",
                ]
            ) == 0
        assert (out1 / "sweep_alpha.csv").read_bytes() == (out2 / "sweep_alpha.csv").read_bytes()


class TestDecompositionReuse:
    """A dilated sweep builds its system once, for all its columns, and a run
    of one file builds its system once. Harmonic and two-level systems are
    built as spectra, with no decomposition; a system given as a matrix is
    decomposed once, when it is built."""

    @pytest.mark.parametrize(
        "spec, calls",
        [
            ("beta=0.5:4:50", 1),
            ("alpha=0.8:1.2:50", 1),
            ("c=1:100:50", 1),
            # omega only rescales the harmonic ladder, so the points share one
            ("omega=0.5:2:50", 1),
        ],
    )
    def test_dilated_sweep(self, spec, calls, tmp_path, builds, decompositions):
        path = write_scenario(tmp_path)
        argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(tmp_path / "o")]
        assert main([*argv, "--quiet"]) == 0
        assert len(builds) == calls
        assert decompositions == []

    def test_matrix_system_sweep_decomposes_once(self, tmp_path, builds, decompositions):
        path = write_scenario(tmp_path, system={"kind": "random", "dim": 4, "seed": 3})
        argv = ["sweep", "--scenario", str(path), "--sweep", "c=1:100:50"]
        assert main([*argv, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert len(builds) == len(decompositions) == 1

    @pytest.mark.parametrize("spec, steps", [("beta=0.5:3:5", "300"), ("alpha=0.8:1.2:5", "200")])
    def test_driven_sweep_builds_each_segment_once_a_point(
        self, spec, steps, tmp_path, builds, decompositions
    ):
        # a driven point runs alone, so each of its two segments is built once for it
        scenario = DEMO_SCENARIOS / "driven_two_segment.json"
        argv = ["sweep", "--scenario", str(scenario), "--sweep", spec, "--steps", steps]
        assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
        segments = json.loads(scenario.read_text())["schedule"]
        assert builds == [segment["system"] for segment in segments] * 5
        assert decompositions == []

    def test_flat_run_decomposes_once(self, tmp_path, builds, decompositions):
        scenario = DEMO_SCENARIOS / "flat_damping.json"
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path), "--quiet"]) == 0
        assert len(builds) == 1
        assert decompositions == []

    def test_flat_gamma_sweep_builds_its_system_once_a_point(
        self, tmp_path, builds, decompositions
    ):
        scenario = DEMO_SCENARIOS / "flat_damping.json"
        argv = ["sweep", "--scenario", str(scenario), "--sweep", "gamma=0:0.9:50"]
        assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
        assert builds == [json.loads(scenario.read_text())["system"]] * 50
        assert decompositions == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "demo, spec, edits",
        [
            ("oscillator_blueshift", "alpha=0.7:1.3:7", {}),
            ("oscillator_blueshift", "beta=0.5:4:6", {}),
            ("oscillator_blueshift", "omega=0.5:2:5", {}),
            ("cruise_redshift", "c=1:1000000:6", {}),
            # c columns over each worldline form: a point mass, a clock at rest and a
            # table whose |p| changes at every sample; a cruise is the line above
            ("oscillator_blueshift", "c=0.8:1000:7", {"worldline": {
                "preset": "point_mass", "M": 0.3, "r_start": 2.0, "r_end": 5.0,
                "t_end": 10.0, "samples": 301}}),
            ("comoving", "c=1e-300:1e150:5", {}),
            ("cruise_redshift", "c=0.9:30:6", {"worldline": MOVING, "mass": 1.3}),
            ("cruise_redshift", "beta=0.5:4:6", {}),
            # the demo's two-level system has no omega: swap in a ladder
            ("cruise_redshift", "omega=0.5:2:5", {"system": LADDER}),
            ("flat_damping", "gamma=0:0.9:4", {}),
            # a flat stack whose every point has its own transitions and correction
            ("flat_damping", "gamma=0:1:5", {"system": dict(LADDER, levels=6),
                                             "channel": {"preset": "depolarizing", "lambda": 0.3}}),
            # driven stacks: final energies without transitions, and transitions each
            ("driven_two_segment", "beta=0.5:3:5", {"steps": 300}),
            ("driven_two_segment", "alpha=0.8:1.2:5", {"steps": 200}),
            ("driven_two_segment", "beta=0.5:3:5", {"steps": 300, "final_basis": "instantaneous"}),
            ("driven_two_segment", "alpha=0.8:1.2:5",
             {"steps": 200, "final_basis": "instantaneous"}),
        ],
    )
    def test_sweep_table_equals_points_run_alone(self, demo, spec, edits, fmt, tmp_path):
        document = dict(json.loads((DEMO_SCENARIOS / f"{demo}.json").read_text()), **edits)
        path = tmp_path / f"{demo}.json"
        path.write_text(json.dumps(document))
        argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(tmp_path)]
        assert main([*argv, "--format", fmt, "--quiet"]) == 0
        param, grid = spec.split("=")
        start, stop, count = (float(x) for x in grid.split(":"))
        base = ScenarioConfig.from_dict(document)
        alone = [
            run_scenario(_sweep_config(base, param, start + (stop - start) * k / (count - 1)))
            for k in range(int(count))
        ]
        got = (tmp_path / f"sweep_{param}.{fmt}").read_bytes()
        assert got == report_bytes(alone, fmt)


class TestProfileReuse:
    """One clock per dilated sweep, and no profile: each point's final rate and
    proper time are a few column operations on the clock's integrals."""

    @pytest.mark.parametrize("spec", ["beta=0.5:4:50", "omega=0.5:2:50", "c=1:100:50",
                                      "alpha=0.8:1.2:50"])
    def test_dilated_sweep(self, spec, tmp_path, monkeypatch):
        clocks, profiled = [], []
        clock, profile = scenarios.Clock, spacetime.dilation_profile
        monkeypatch.setattr(scenarios, "Clock", lambda *a: clocks.append(a) or clock(*a))
        monkeypatch.setattr(spacetime, "dilation_profile",
                            lambda *a: profiled.append(a) or profile(*a))
        path = write_scenario(tmp_path)
        argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(tmp_path / "o")]
        assert main([*argv, "--quiet"]) == 0
        assert len(clocks) == 1 and profiled == []

    @pytest.mark.parametrize("spec, builds", [("c=1:100:50", 1), ("alpha=0.8:1.2:50", 1)])
    def test_worldline_built_once_per_distinct_section(self, spec, builds, tmp_path, monkeypatch):
        # c does not enter the trajectory, so a c sweep profiles one worldline at every
        # point; an alpha sweep builds its ramps as one stack
        built = []
        entry = scenarios.WORLDLINES["uniform_gravity"]

        def counting(*args):
            built.append(args)
            return entry.build(*args)

        monkeypatch.setitem(
            scenarios.WORLDLINES, "uniform_gravity", dataclasses.replace(entry, build=counting)
        )
        path = write_scenario(tmp_path)
        argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(tmp_path / "o")]
        assert main([*argv, "--quiet"]) == 0
        assert len(built) == builds


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9
    assert "9/9 criteria passed" in out


def test_the_parser_is_built_once_and_each_call_parses_afresh(monkeypatch, capsys):
    from tauwork import __version__

    seen = []
    for name in ("cmd_run", "cmd_sweep"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(dict(vars(args))) or 0)
    assert main(["run", "--scenario", "a.json", "--scenario", "b.json", "--quiet"]) == 0
    assert main(["sweep", "--scenario", "c.json", "--sweep", "beta=1:2:2"]) == 0
    assert main(["run", "--scenario=d.json", "--format", "json"]) == 0
    # an append list starts empty each call, and each call has its own options
    assert [args["scenario"] for args in seen] == [["a.json", "b.json"], ["c.json"], ["d.json"]]
    assert [args["quiet"] for args in seen] == [True, False, False]
    assert [args["format"] for args in seen] == ["csv", "csv", "json"]
    assert "sweep" not in seen[0] and seen[1]["sweep"] == "beta=1:2:2" and "sweep" not in seen[2]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"tauwork {__version__}\n"


def test_verify_failure_exit_code(monkeypatch, capsys):
    from tauwork import acceptance

    def broken():
        return acceptance.CriterionResult("broken check", False, "synthetic failure", 0.0)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (broken,))
    assert main(["verify"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def all_files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


DRIVEN = {
    "scenario_id": "drv",
    "pipeline": "appendix",
    "beta": 1.0,
    "worldline": {"preset": "uniform_gravity", "g": 0.02, "t_end": 10.0, "samples": 11},
    "schedule": [{"tau_end": 12.0, "system": {"kind": "two_level", "gap": 1.0}}],
    "steps": 10,
}


class TestOutputConfinement:
    def test_escaping_scenario_id_exit_2_writes_nothing(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_id="../escaped")
        before = all_files(tmp_path)
        out = tmp_path / "nested" / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        assert "scenario_id: must be a file name" in capsys.readouterr().err
        assert all_files(tmp_path) == before

    def test_duplicate_ids_exit_2_name_both_files(self, tmp_path, capsys):
        first = write_scenario(tmp_path, name="first.json", scenario_id="same")
        second = write_scenario(tmp_path, name="second.json", scenario_id="same", beta=1.0)
        out = tmp_path / "o"
        argv = ["run", "--scenario", str(first), "--scenario", str(second), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err and "'same'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, second", [("beta=1:1:3", "1.0"), ("beta=1:1.000000001:3", "1.0000000005")]
    )
    def test_sweep_points_with_one_label_exit_2_name_both_values(
        self, tmp_path, capsys, spec, second
    ):
        # a row's scenario_id shows the value to 9 digits, so these points share one
        out = tmp_path / "o"
        argv = ["sweep", "--scenario", str(write_scenario(tmp_path)), "--sweep", spec]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: sweep points beta=1.0 and beta={second} both have scenario_id 'osc@beta=1'\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_every_file_validated_before_any_runs(self, tmp_path):
        good = write_scenario(tmp_path, name="good.json")
        bad = write_scenario(tmp_path, name="bad.json", scenario_id="bad", beta=-1.0)
        out = tmp_path / "o"
        argv = ["run", "--scenario", str(good), "--scenario", str(bad), "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_non_finite_report_exit_2_writes_nothing(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            beta=4000.0,
            system={"kind": "harmonic", "omega": 1.0, "levels": 4},
            worldline={
                "preset": "uniform_gravity",
                "g": -0.04,
                "t_end": 10.0,
                "samples": 11,
                "gravitational_only": True,
            },
        )
        out = tmp_path / "o"
        with np.errstate(over="ignore"):
            code = main(["run", "--scenario", str(path), "--out", str(out), "--format", "json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite" in err
        for column in ("lhs", "rhs", "residual"):
            assert f"{column}=" in err
        assert all_files(out) == []


FLAT = {
    "scenario_id": "flat",
    "pipeline": "flat",
    "beta": 1.0,
    "system": {"kind": "two_level", "gap": 1.0},
    "channel": {"preset": "amplitude_damping", "gamma": 0.1},
}
TWO_LEVEL = {"system": {"kind": "two_level", "gap": 1.0}}


class TestSweepValidation:
    @pytest.mark.parametrize(
        "flat,overrides,spec,message",
        [
            (False, {}, "beta=-1:1:3", "beta: must be positive"),
            (False, {}, "c=-1:1:3", "c: must be positive"),
            (False, TWO_LEVEL, "omega=1:2:3", "system.omega: unknown field for kind 'two_level'"),
            (True, {}, "gamma=0.5:1.5:3", "channel.gamma: must be a number in [0, 1]"),
            (True, {}, "c=1:2:3", "c: not used by the flat pipeline"),
            (True, {}, "alpha=0.9:1.1:3", "worldline: not used by the flat pipeline"),
            (False, {}, "alpha=0.1:1:3", "weak-field"),
        ],
    )
    def test_bad_sweep_fails_like_a_file(self, tmp_path, capsys, flat, overrides, spec, message):
        if flat:
            path = tmp_path / "flat.json"
            path.write_text(json.dumps(dict(FLAT, **overrides)))
        else:
            path = write_scenario(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or all_files(out) == []

    def test_depolarizing_gamma_sweeps_lambda(self, tmp_path):
        raw = dict(FLAT, channel={"preset": "depolarizing", "lambda": 0.1})
        raw["system"] = {"kind": "harmonic", "omega": 1.0, "levels": 3}
        path = tmp_path / "depol.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        argv = ["sweep", "--scenario", str(path), "--sweep", "gamma=0:1:3", "--out", str(out)]
        assert main(argv + ["--quiet"]) == 0
        _, rows = read_rows(out / "sweep_gamma.csv")
        ids = [r["scenario_id"] for r in rows]
        assert ids == ["flat@gamma=0", "flat@gamma=0.5", "flat@gamma=1"]
        assert all(abs(float(r["residual"])) < 1e-12 for r in rows)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_steps_zero_on_appendix_fails_validation(self, tmp_path, capsys, command):
        path = tmp_path / "drv.json"
        path.write_text(json.dumps(DRIVEN))
        argv = [command, "--scenario", str(path), "--out", str(tmp_path / "o"), "--steps", "0"]
        if command == "sweep":
            argv += ["--sweep", "beta=1:2:2"]
        assert main(argv) == 2
        assert "steps: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "steps, message",
        [("-5", "--steps: must be >= 1, got -5"),
         (str(10**10), "--steps: must be <= 1000000000, got 10000000000")],
    )
    def test_invalid_steps_fail_for_every_pipeline(self, tmp_path, capsys, command, steps, message):
        # a flat file has no steps to override, yet a bad --steps is still invalid input
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(FLAT))
        out = tmp_path / "o"
        argv = [command, "--scenario", str(path), "--out", str(out), "--steps", steps]
        if command == "sweep":
            argv += ["--sweep", "beta=1:2:2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # a valid --steps on it is ignored
        argv[argv.index(steps)] = "5"
        assert main(argv + ["--quiet"]) == 0

    def test_steps_override_reaches_every_sweep_point(self, tmp_path):
        path = tmp_path / "drv.json"
        path.write_text(json.dumps(DRIVEN))
        out = tmp_path / "o"
        argv = ["sweep", "--scenario", str(path), "--out", str(out), "--sweep", "beta=1:2:3"]
        assert main(argv + ["--steps", "7", "--quiet"]) == 0
        _, rows = read_rows(out / "sweep_beta.csv")
        assert [r["steps"] for r in rows] == ["7", "7", "7"]


def _edited_document(document: dict, param: str, value: float) -> dict:
    """The scenario file a sweep point stands for, written out by hand."""
    point = dict(document, scenario_id=f"{document['scenario_id']}@{param}={value:.9g}")
    if param in ("beta", "c"):
        point[param] = value
    elif param == "omega":
        point["system"] = dict(document.get("system") or {}, omega=value)
    elif param == "gamma":
        key = "lambda" if document.get("channel", {}).get("preset") == "depolarizing" else "gamma"
        point["channel"] = dict(document.get("channel") or {}, **{key: value})
    else:
        worldline = document.get("worldline") or {}
        t_end = worldline.get("t_end", 1.0)
        point["worldline"] = {
            "preset": "uniform_gravity",
            "g": (value - 1.0) * document.get("c", 1.0) ** 2 / t_end,
            "t_end": t_end,
            "samples": worldline.get("samples", 101) if "t_end" in worldline else 101,
            "gravitational_only": True,
        }
    return point


def _demo(name: str) -> dict:
    return json.loads((DEMO_SCENARIOS / f"{name}.json").read_text())


# an oscillator whose top level (40 - 1/2) * 1e307 overflows a float
HUGE_LADDER = {"kind": "harmonic", "omega": 1e307, "levels": 40}
TWO_LEVEL = {"kind": "two_level", "gap": 1.0}


class TestSweepConfig:
    """A sweep point checks only the field it edits, yet equals the edited file."""

    @pytest.mark.parametrize(
        "document, param, value",
        [
            (_demo("oscillator_blueshift"), "beta", 3.5),
            (_demo("oscillator_blueshift"), "c", 7.0),
            (_demo("oscillator_blueshift"), "omega", 0.75),
            (_demo("oscillator_blueshift"), "alpha", 1.1),
            (_demo("flat_damping"), "gamma", 0.25),
            (_demo("cruise_redshift"), "alpha", 0.9),
            (_demo("cruise_redshift"), "c", 30.0),
            (_demo("driven_two_segment"), "alpha", 1.2),
            (_demo("driven_two_segment"), "beta", 0.5),
            (dict(FLAT, channel={"preset": "depolarizing", "lambda": 0.1}), "gamma", 0.5),
            # failing points: each must fail with the errors of the edited file
            (_demo("oscillator_blueshift"), "beta", -1.0),
            (_demo("oscillator_blueshift"), "beta", float("nan")),
            (_demo("oscillator_blueshift"), "c", 5e159),
            (_demo("oscillator_blueshift"), "omega", float("inf")),
            (_demo("oscillator_blueshift"), "omega", 1e307),
            (_demo("oscillator_blueshift"), "alpha", float("inf")),
            (_demo("oscillator_blueshift"), "gamma", 0.5),
            (_demo("cruise_redshift"), "omega", 1.0),
            (_demo("flat_damping"), "gamma", 1.5),
            (_demo("flat_damping"), "c", 2.0),
            (_demo("flat_damping"), "alpha", 0.9),
            (_demo("driven_two_segment"), "omega", 1.0),
        ],
    )
    def test_point_equals_from_dict_of_the_edited_file(self, document, param, value):
        base = ScenarioConfig.from_dict(document)
        edited = _edited_document(document, param, value)
        try:
            expected = ScenarioConfig.from_dict(edited)
        except scenarios.ScenarioValidationError as exc:
            with pytest.raises(scenarios.ScenarioValidationError) as err:
                _sweep_config(base, param, value)
            assert err.value.errors == exc.errors
        else:
            point = _sweep_config(base, param, value)
            assert point == expected
            assert [type(v) for v in vars(point).values()] == [
                type(v) for v in vars(expected).values()
            ]


class TestNoPartialResults:
    HOT = dict(
        beta=4000.0,
        system={"kind": "harmonic", "omega": 1.0, "levels": 4},
        worldline={
            "preset": "uniform_gravity",
            "g": -0.04,
            "t_end": 10.0,
            "samples": 11,
            "gravitational_only": True,
        },
    )

    def test_build_failure_after_a_good_scenario_writes_nothing(self, tmp_path, capsys):
        good = write_scenario(tmp_path, name="ok.json", scenario_id="ok")
        weak = write_scenario(
            tmp_path,
            name="weak.json",
            scenario_id="weak",
            worldline={"preset": "uniform_gravity", "g": 0.2, "t_end": 10.0},
        )
        out = tmp_path / "o"
        argv = ["run", "--scenario", str(good), "--scenario", str(weak), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "weak-field bound" in captured.err
        assert captured.out == ""
        assert all_files(out) == []

    def test_overflow_exits_2_without_runtime_warnings(self, tmp_path, capsys):
        import warnings

        path = write_scenario(tmp_path, **self.HOT)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert all_files(out) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_report_that_cannot_be_written_leaves_out_as_it_was(self, tmp_path, capsys, fmt):
        # the second report's path is a directory: the first report is not written
        # either, an older file keeps its bytes and no temporary file stays behind
        out = tmp_path / "o"
        (out / f"oscillator-blueshift.{fmt}").mkdir(parents=True)
        (out / f"comoving.{fmt}").write_text("older report\n")
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
        paths = [DEMO_SCENARIOS / "comoving.json", DEMO_SCENARIOS / "oscillator_blueshift.json"]
        argv = ["run", *(f"--scenario={path}" for path in paths), "--out", str(out)]
        assert main([*argv, "--format", fmt]) == 3
        target = out / f"oscillator-blueshift.{fmt}"
        assert capsys.readouterr() == (
            "", f"error: cannot write {target}: [Errno 21] Is a directory: '{target}'\n"
        )
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    def test_a_sweep_table_replaces_its_file_whole(self, tmp_path):
        out = tmp_path / "o"
        path = write_scenario(tmp_path)
        for spec in ("beta=0.5:4:50", "beta=1:2:3"):
            argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(out)]
            assert main([*argv, "--quiet"]) == 0
        assert all_files(out) == [Path("sweep_beta.csv")]
        _, rows = read_rows(out / "sweep_beta.csv")
        assert [row["beta"] for row in rows] == ["1.0", "1.5", "2.0"]

    def test_sweep_failing_at_a_later_point_prints_and_writes_nothing(self, tmp_path, capsys):
        import warnings

        path = write_scenario(tmp_path, **self.HOT)
        out = tmp_path / "o"
        argv = ["sweep", "--scenario", str(path), "--out", str(out), "--sweep", "beta=1:4000:2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert "beta=4000.0" in captured.err and captured.out == ""
        assert all_files(out) == []


class TestErrorLines:
    """``main`` maps every error of ``run`` and ``sweep`` to one exit code and one line."""

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (
                "sweep --scenario {good} --sweep alpha",
                2,
                "sweep spec must look like param=start:stop:count, got 'alpha'",
            ),
            (
                "sweep --scenario {good} --sweep zeta=0:1:3",
                2,
                "unknown sweep parameter 'zeta'; "
                "choose from ('alpha', 'beta', 'omega', 'c', 'gamma')",
            ),
            (
                "sweep --scenario {good} --sweep alpha=0.9:1.1:1",
                2,
                "sweep count must be >= 2, got 1",
            ),
            (
                "sweep --scenario {good} --scenario {good} --sweep alpha=0.9:1.1:3",
                2,
                "sweep needs exactly one --scenario file",
            ),
            (
                "run --scenario {good}",
                3,
                "cannot write {out}/osc.csv: [Errno 21] Is a directory: '{out}/osc.csv'",
            ),
            (
                "run --scenario {latin}",
                2,
                "cannot read scenario file {latin}: 'utf-8' codec can't decode byte 0xff "
                "in position 17: invalid start byte",
            ),
        ],
    )
    def test_exit_code_and_error_line(self, tmp_path, capsys, argv, code, line):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"scenario_id": "\xff"}')
        out = tmp_path / "o"
        (out / "osc.csv").mkdir(parents=True)  # the report path of {good} is a directory
        paths = dict(good=write_scenario(tmp_path), latin=latin, out=out)
        assert main(argv.format(**paths).split() + ["--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {line.format(**paths)}\n"
        assert captured.out == ""

    def test_sweep_count_at_the_cap_parses(self):
        assert _parse_sweep("beta=0.5:1:10000") == ("beta", 0.5, 1.0, 10000)

    @pytest.mark.parametrize("count", [10**4 + 1, 10**20])
    def test_sweep_count_past_the_cap_exit_2_writes_nothing(self, tmp_path, capsys, count):
        # rejected before any point is checked: a sweep checks every point first
        out = tmp_path / "o"
        spec = f"beta=0.5:1:{count}"
        argv = ["sweep", "--scenario", str(write_scenario(tmp_path)), "--sweep", spec]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: sweep count must be <= 10000, got {count}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "c, argv",
        [
            (1e155, ["run"]),
            (1e155, ["sweep", "--sweep", "alpha=0.9:1.1:3"]),
            (1.0, ["sweep", "--sweep", "c=1e150:1e160:3"]),
        ],
    )
    def test_c_whose_square_overflows_exit_2_writes_nothing(self, tmp_path, capsys, c, argv):
        raw = json.loads((DEMO_SCENARIOS / "cruise_redshift.json").read_text())
        path = tmp_path / "cruise.json"
        path.write_text(json.dumps(dict(raw, c=c)))
        out = tmp_path / "o"
        assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 2
        assert "c: must have a finite square" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "document, argv",
        [
            (dict(_demo("oscillator_blueshift"), system=HUGE_LADDER), ["run"]),
            (_demo("oscillator_blueshift"), ["sweep", "--sweep", "omega=1:1e307:3"]),
            (
                dict(
                    _demo("driven_two_segment"),
                    schedule=[
                        {"tau_end": 6.0, "system": HUGE_LADDER},
                        _demo("driven_two_segment")["schedule"][1],
                    ],
                ),
                ["run"],
            ),
        ],
        ids=["run", "sweep", "schedule"],
    )
    def test_omega_whose_ladder_overflows_exit_2_naming_omega(
        self, tmp_path, capsys, document, argv
    ):
        import warnings

        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(document))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Warning" not in err
        assert "system: the top level (levels - 1/2) * omega must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "document, argv, line",
        [
            (
                dict(_demo("oscillator_blueshift"), beta=1e307),
                ["run"],
                "{path}: beta * energy overflows a float: beta=1e+307, energies 0.5 to 39.5",
            ),
            # the ladder is finite, but its blueshifted final levels are not
            (
                dict(_demo("oscillator_blueshift"), system=dict(HUGE_LADDER, omega=4.4e306)),
                ["run"],
                "{path}: spectrum contains non-finite entries",
            ),
            # the stack fails, so its points run alone, each a stack of one
            (
                dict(_demo("oscillator_blueshift"), system=dict(HUGE_LADDER, omega=4.4e306)),
                ["sweep", "--sweep", "beta=1:2:3"],
                "beta=1.0: spectrum contains non-finite entries",
            ),
        ],
        ids=["beta", "omega", "omega-sweep"],
    )
    def test_energy_product_that_overflows_exits_2_without_warnings(
        self, tmp_path, capsys, document, argv, line
    ):
        import warnings

        path = tmp_path / "osc.json"
        path.write_text(json.dumps(document))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {line.format(path=path)}\n"
        assert all_files(out) == []

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                dict(_demo("driven_two_segment"), steps=10**20),
                "  - steps: must be <= 1000000000, got 100000000000000000000",
            ),
            (
                dict(_demo("oscillator_blueshift"), system=dict(HUGE_LADDER, levels=10**20)),
                "  - system.levels: must be <= 1024, got 100000000000000000000",
            ),
            # the work atoms +-1e308 are 2e308 apart, past the float range
            (
                dict(_demo("flat_damping"), beta=1e-300, system=dict(TWO_LEVEL, gap=1e308)),
                "work atoms span more than the float range",
            ),
            # one level past a preset's dimension cap, rejected before its Kraus list
            (
                dict(_demo("flat_damping"), system=dict(HUGE_LADDER, omega=1.0, levels=113)),
                "amplitude_damping_dim must be <= 112, got 113",
            ),
            (
                dict(
                    _demo("flat_damping"),
                    system=dict(HUGE_LADDER, omega=1.0, levels=49),
                    channel={"preset": "depolarizing", "lambda": 0.3},
                ),
                "depolarizing_dim must be <= 48, got 49",
            ),
        ],
        ids=["steps", "levels", "spread", "damping-dim", "depolarizing-dim"],
    )
    def test_sizes_past_a_cap_and_spreads_past_the_float_range_exit_2(
        self, tmp_path, capsys, document, message
    ):
        import warnings

        path = tmp_path / "big.json"
        path.write_text(json.dumps(document))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("error:") == 1
        assert message in err.splitlines()[-1] and "Warning" not in err
        assert all_files(out) == []


class TestStreamedStacks:
    """A dilated sweep runs in stacks, each one ``estimate`` call, and every other
    point runs alone; a table is byte for byte its points run alone, and a
    failure is the first failing point's, as when each runs alone."""

    def test_run_with_files_of_mixed_dimensions_and_forms(self, tmp_path):
        # 40 levels twice, then two levels: without transitions, with (flat and
        # instantaneous driven), and without (evolved driven)
        documents = [_demo("oscillator_blueshift"), _demo("comoving"), _demo("cruise_redshift"),
                     _demo("flat_damping")]
        documents.append(dict(_demo("driven_two_segment"), scenario_id="inst", steps=100,
                              final_basis="instantaneous"))
        documents.append(dict(_demo("driven_two_segment"), steps=100))
        paths = []
        for document in documents:
            paths.append(tmp_path / f"{document['scenario_id']}.json")
            paths[-1].write_text(json.dumps(document))
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            argv = ["run", *(f"--scenario={path}" for path in paths), "--out", str(out)]
            assert main([*argv, "--format", fmt, "--quiet"]) == 0
            assert len(all_files(out)) == len(documents)
            for document in documents:
                alone = run_scenario(ScenarioConfig.from_dict(document))
                got = (out / f"{document['scenario_id']}.{fmt}").read_bytes()
                assert got == report_bytes([alone], fmt)

    def test_a_sweep_past_the_atom_budget_makes_several_calls(self, tmp_path, monkeypatch):
        calls = []
        original = protocol.estimate

        def spy(gibbs, final, *args):
            calls.append(np.shape(final))
            return original(gibbs, final, *args)

        monkeypatch.setattr(protocol, "estimate", spy)
        path = write_scenario(tmp_path, system=dict(LADDER, levels=1024))
        spec = "beta=0.5:4:40"
        assert 40 * (1024 + scenarios.POINT_ATOMS) > scenarios.STACK_ATOMS
        argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(tmp_path)]
        assert main([*argv, "--quiet"]) == 0
        assert len(calls) >= 2 and sum(shape[0] for shape in calls) == 40
        for rows, atoms in calls:
            assert rows * (atoms + scenarios.POINT_ATOMS) <= scenarios.STACK_ATOMS
        monkeypatch.setattr(protocol, "estimate", original)
        base = ScenarioConfig.from_dict(json.loads(path.read_text()))
        alone = [run_scenario(_sweep_config(base, "beta", 0.5 + 3.5 * k / 39)) for k in range(40)]
        assert (tmp_path / "sweep_beta.csv").read_bytes() == report_bytes(alone, "csv")

    @pytest.mark.parametrize("spec", ["c=1:100:50", "alpha=0.8:1.2:50"])
    def test_a_sweep_on_a_long_worldline_is_one_estimate_call_and_no_profile(
        self, spec, tmp_path, monkeypatch
    ):
        # the atom budget holds the 50 points in one estimate call, and the clock
        # reads the 10^4 samples once, for all of them
        profiled, estimates = [], []
        profile, estimate = spacetime.dilation_profile, protocol.estimate
        monkeypatch.setattr(spacetime, "dilation_profile",
                            lambda *a: profiled.append(a) or profile(*a))
        monkeypatch.setattr(protocol, "estimate", lambda *a: estimates.append(a) or estimate(*a))
        ramp = {"preset": "uniform_gravity", "g": 0.02, "t_end": 10.0, "samples": 10**4}
        path = write_scenario(tmp_path, worldline=dict(ramp, gravitational_only=True))
        argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(tmp_path)]
        assert main([*argv, "--quiet"]) == 0
        assert [a[1].shape for a in estimates] == [(50, 40)] and profiled == []
        monkeypatch.setattr(protocol, "estimate", estimate)
        param, grid = spec.split("=")
        base = ScenarioConfig.from_dict(json.loads(path.read_text()))
        start, stop, _ = (float(x) for x in grid.split(":"))
        alone = [run_scenario(_sweep_config(base, param, start + (stop - start) * k / 49))
                 for k in range(50)]
        assert (tmp_path / f"sweep_{param}.csv").read_bytes() == report_bytes(alone, "csv")

    @pytest.mark.parametrize(
        "overrides, spec, line",
        [
            # the last point's beta * E overflows; the first two run
            ({}, "beta=1:1e307:3",
             "beta=5e+306: beta * energy overflows a float: beta=5e+306, energies 0.5 to 39.5"),
            (TestNoPartialResults.HOT, "beta=1:4000:2",
             "beta=4000.0: report has non-finite values: lhs=inf, rhs=inf, residual=nan"),
            # the second point's worldline breaks the weak-field bound when it is built
            ({}, "alpha=1.2:1.8:3", "alpha=1.5: |phi|/c^2 = 0.5 exceeds the weak-field bound 0.5"),
            # the first point fails in the estimators, the second when it is built
            (dict(TestNoPartialResults.HOT, beta=40000.0), "alpha=0.9:1.6:2",
             "alpha=0.9: report has non-finite values: lhs=inf, rhs=inf, residual=nan"),
            # one stack of 50 points on a worldline of 10^4 samples; point 43 breaks
            # the weak-field bound
            ({"worldline": {"preset": "uniform_gravity", "g": 0.02, "t_end": 10.0,
                            "samples": 10**4, "gravitational_only": True}}, "alpha=0.8:1.6:50",
             "alpha=1.5020408163265306: |phi|/c^2 = 0.502 exceeds the weak-field bound 0.5"),
            # a c column of a moving particle: inside the weak-field bound, the kinetic
            # term takes the rate of the first point below 0. A slower clock is a smaller
            # c, and sweep values are sorted, so the first point of a c column is the
            # first whose rate fails
            ({"worldline": {"preset": "cruise", "p": 0.9, "t_end": 5.0, "samples": 11}},
             "c=0.5:2:7",
             "c=0.5: dtau/dt = -0.62 <= 0 for phi=0.0, p=0.9: outside the weak-field / "
             "slow-motion regime"),
        ],
        ids=["overflow", "non-finite", "weak-field", "estimators-then-build", "later-block",
             "kinetic"],
    )
    def test_the_first_failing_point_names_itself(self, tmp_path, capsys, overrides, spec, line):
        import warnings

        path = write_scenario(tmp_path, **overrides)
        out = tmp_path / "o"
        for fmt in ("csv", "json"):
            argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main([*argv, "--format", fmt]) == 2
            assert capsys.readouterr() == ("", f"error: {line}\n")
            assert all_files(out) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--sweep", "beta=0.5:4:40", "--scenario", "{ladder}"],
            ["sweep", "--sweep", "c=1:100:7", "--scenario", "{osc}"],
            ["sweep", "--sweep", "alpha=0.8:1.2:7", "--scenario", "{osc}"],
        ],
        ids=["beta-stacks", "c", "alpha"],
    )
    def test_a_successful_invocation_runs_no_point_alone(self, tmp_path, monkeypatch, command):
        alone = []
        monkeypatch.setattr(cli, "run_scenario", lambda *args: alone.append(args))
        ladder = write_scenario(tmp_path, "ladder.json", system=dict(LADDER, levels=1024))
        paths = dict(osc=write_scenario(tmp_path), ladder=ladder)
        argv = [arg.format(**paths) for arg in command] + ["--quiet"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert alone == []

    @pytest.mark.parametrize(
        "command, ids",
        [
            (["sweep", "--sweep", "gamma=0:1:4", "--scenario", "{flat}"],
             [f"flat-damping@gamma={g:.9g}" for g in (0, 1 / 3, 2 / 3, 1)]),
            (["sweep", "--sweep", "alpha=0.8:1.2:3", "--scenario", "{driven}", "--steps", "50"],
             [f"driven-two-segment@alpha={a:.9g}" for a in (0.8, 1.0, 1.2)]),
            (["run", "--scenario", "{osc}", "--scenario", "{flat}", "--scenario", "{driven}"],
             ["osc", "flat-damping", "driven-two-segment"]),
        ],
        ids=["flat", "driven", "run"],
    )
    def test_a_successful_invocation_runs_every_other_point_alone(
        self, tmp_path, monkeypatch, command, ids
    ):
        # no stacks: each point is one run_scenario call and one estimate call, in order
        alone, calls = [], []
        run, estimate = cli.run_scenario, protocol.estimate

        def spy(config):
            alone.append(config.scenario_id)
            return run(config)

        monkeypatch.setattr(cli, "run_scenario", spy)
        monkeypatch.setattr(protocol, "estimate", lambda *a: calls.append(a) or estimate(*a))
        paths = dict(osc=write_scenario(tmp_path), flat=DEMO_SCENARIOS / "flat_damping.json",
                     driven=DEMO_SCENARIOS / "driven_two_segment.json")
        argv = [arg.format(**paths) for arg in command] + ["--quiet"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert alone == ids
        assert len(calls) == len(ids)

    def test_a_failing_stack_runs_alone_only_its_points_up_to_the_failing_one(
        self, tmp_path, capsys, monkeypatch
    ):
        alone = []

        def spy(config):
            alone.append(config.scenario_id)
            return run_scenario(config)

        monkeypatch.setattr(cli, "run_scenario", spy)
        path = write_scenario(tmp_path, system=dict(LADDER, levels=1024))
        # 28 points of a 1024-level ladder fill a stack; from point 30 on, in the
        # second stack, beta * 1023.5 overflows a float
        assert scenarios.STACK_ATOMS // (1024 + scenarios.POINT_ATOMS) == 28
        values = sorted(1 + (2.3e305 - 1) * k / 39 for k in range(40))
        assert values[29] * 1023.5 < sys.float_info.max < values[30] * 1023.5
        out = tmp_path / "o"
        argv = ["sweep", "--scenario", str(path), "--sweep", "beta=1:2.3e305:40"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: beta={values[30]}: beta * energy overflows a float: ")
        assert alone == [f"osc@beta={value:.9g}" for value in values[28:31]]
        assert all_files(out) == []

    def test_a_sweep_failing_at_its_last_of_ten_thousand_points_runs_its_last_stack_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        # alpha = 1.5, the last point, puts |phi|/c^2 at the weak-field bound; of the
        # stacks of 195 points, the last one, points 9945 on, fails and runs alone
        alone = []

        def spy(config):
            alone.append(config.scenario_id)
            return run_scenario(config)

        monkeypatch.setattr(cli, "run_scenario", spy)
        out = tmp_path / "out"
        scenario = DEMO_SCENARIOS / "oscillator_blueshift.json"
        argv = ["sweep", "--scenario", str(scenario), "--sweep", "alpha=0.8:1.5:10000"]
        assert main([*argv, "--out", str(out)]) == 2
        line = "error: alpha=1.5: |phi|/c^2 = 0.5 exceeds the weak-field bound 0.5\n"
        assert capsys.readouterr() == ("", line)
        assert list(out.iterdir()) == []
        assert len(alone) == 55 and alone[-1] == "oscillator-blueshift@alpha=1.5"

    def test_a_ten_thousand_point_c_sweep_writes_a_row_per_point(self, tmp_path):
        scenario = DEMO_SCENARIOS / "oscillator_blueshift.json"
        argv = ["sweep", "--scenario", str(scenario), "--sweep", "c=100:1000000:10000"]
        assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "sweep_c.csv").read_text().count("\n") == 10**4 + 1

    @pytest.mark.parametrize("levels, spec", [(40, "alpha=0.8:1.2:10000"),
                                              (1024, "beta=0.5:4:10000")])
    def test_a_ten_thousand_point_sweep_writes_a_row_per_point_without_a_warning(
        self, tmp_path, levels, spec
    ):
        # the 10^4-point sweeps of CI's console-script step, with warnings as errors
        import warnings

        document = _demo("oscillator_blueshift")
        document["system"]["levels"] = levels
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        argv = ["sweep", "--scenario", str(path), "--sweep", spec, "--quiet"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        table = tmp_path / "o" / f"sweep_{spec.split('=')[0]}.csv"
        assert table.read_text().count("\n") == 10**4 + 1

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--sweep", "beta=0.5:4:7", "--scenario", "{osc}"],
            ["sweep", "--sweep", "gamma=0:1:4", "--scenario", "{flat}"],
            ["sweep", "--sweep", "alpha=0.8:1.2:3", "--scenario", "{driven}", "--steps", "50"],
            ["run", "--scenario", "{osc}", "--scenario", "{flat}", "--scenario", "{driven}"],
        ],
        ids=["dilated", "flat", "driven", "run"],
    )
    def test_every_report_field_has_its_schema_type(self, tmp_path, monkeypatch, command):
        cast = {"str": str, "int": int, "float": float}
        seen, rows, alone = [], cli.report_rows, cli.run_scenario

        def stacked(runs):
            for row in rows(runs):
                seen.append(row)
                yield row

        def run_alone(config):
            seen.append(alone(config))
            return seen[-1]

        monkeypatch.setattr(cli, "report_rows", stacked)
        monkeypatch.setattr(cli, "run_scenario", run_alone)
        paths = dict(osc=write_scenario(tmp_path), flat=DEMO_SCENARIOS / "flat_damping.json",
                     driven=DEMO_SCENARIOS / "driven_two_segment.json")
        argv = [arg.format(**paths) for arg in command] + ["--format", "json", "--quiet"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert seen
        for report in seen:
            for field in dataclasses.fields(ProtocolReport):
                assert type(getattr(report, field.name)) is cast[field.type], field.name
        for path in (tmp_path / "o").iterdir():
            loaded = json.loads(path.read_text())
            for row in loaded if isinstance(loaded, list) else [loaded]:
                for field in dataclasses.fields(ProtocolReport):
                    assert type(row[field.name]) is cast[field.type], field.name


def _run_document(tmp_path, name, document):
    """``run`` on ``document`` saved as ``name``: the exit code and the bytes written."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document))
    out = tmp_path / f"{name}-out"
    code = main(["run", "--scenario", str(path), "--out", str(out), "--quiet"])
    return code, {str(p): (out / p).read_bytes() for p in all_files(out)} if out.exists() else {}


class TestExtremeNumbers:
    """Numbers that pass their rules reach the engine as floats, and a term whose
    numerator is 0 stays 0 when its denominator underflows. A rate, a proper time
    or a phase that is not finite is invalid input. pyproject turns any numpy
    warning into a failure."""

    def test_a_tiny_mass_on_a_gravitational_only_run_changes_no_byte(self, tmp_path):
        document = _demo("oscillator_blueshift")
        assert _run_document(tmp_path, "tiny", dict(document, mass=1e-200)) == _run_document(
            tmp_path, "unit", document
        )

    def test_a_comoving_clock_runs_at_rate_1_whatever_c(self, tmp_path):
        code, files = _run_document(tmp_path, "c", dict(_demo("comoving"), c=1e-300))
        assert code == 0
        header, rows = read_rows(tmp_path / "c-out" / "comoving.csv")
        assert rows[0]["alpha_final"] == "1.0" and rows[0]["tau_total"] == "5.0"

    def test_an_integer_past_2_to_the_64_is_its_float_twin(self, tmp_path):
        document = _demo("cruise_redshift")
        big = dict(document, worldline=dict(document["worldline"], t_end=10**20))
        twin = dict(document, worldline=dict(document["worldline"], t_end=1e20))
        code, files = _run_document(tmp_path, "int", big)
        assert (code, files) == _run_document(tmp_path, "float", twin) and code == 0

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("cruise_redshift", {"mass": 5e-324}, "dtau/dt = -inf <= 0"),
            (
                "driven_two_segment",
                {"schedule": [{"tau_end": 6.0, "system": {"kind": "two_level", "gap": 1.7976931348623157e308}},
                              {"tau_end": 12.0, "system": {"kind": "two_level", "gap": 1.5}}]},
                "phase |scale| * max|eigenvalue|",
            ),
            (
                "oscillator_blueshift",
                {"worldline": {"preset": "uniform_gravity", "g": 1e-309, "t_end": 1.7e308,
                               "samples": 101, "gravitational_only": True}},
                "tau must start at 0 and increase strictly to a finite total",
            ),
        ],
        ids=["kinetic-term", "segment-phase", "proper-time"],
    )
    def test_a_rate_phase_or_proper_time_past_the_float_range_exit_2(
        self, tmp_path, capsys, name, edit, message
    ):
        assert _run_document(tmp_path, name, dict(_demo(name), **edit)) == (2, {})
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err and "Traceback" not in err
