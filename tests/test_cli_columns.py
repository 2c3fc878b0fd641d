"""A sweep of a dilated scenario runs as columns, through ``cli.main``.

Each example draws a dilated scenario (a harmonic, two-level or random system on
each worldline preset or a ``csv`` table), a sweep over ``beta``, ``omega``, ``c``
or ``alpha`` whose range may cross the weak-field bound or the float range
partway, and a stack budget small enough that the points fill several stacks.
Its table, in either format, must be byte for byte its points run alone through
``run_scenario(_sweep_config(...))``; when a point fails alone, the sweep must
exit 2 with that point's line, as the first failing point, and write nothing.
pyproject turns a numpy warning into a failure.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tauwork import cli, protocol, scenarios
from tauwork.cli import _sweep_config, main
from tauwork.protocol import ProtocolReport
from tauwork.scenarios import ScenarioConfig, run_scenario

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"

SYSTEMS = st.one_of(
    st.builds(lambda omega, levels: {"kind": "harmonic", "omega": omega, "levels": levels},
              st.sampled_from([0.5, 1.0, 1.7]), st.integers(2, 12)),
    st.builds(lambda gap: {"kind": "two_level", "gap": gap}, st.sampled_from([0.3, 1.0, 2.5])),
    st.builds(lambda dim, seed: {"kind": "random", "dim": dim, "seed": seed},
              st.integers(2, 6), st.integers(0, 50)),
)
SAMPLES = st.sampled_from([2, 11, 101, 300])
WORLDLINES = st.one_of(
    st.builds(lambda t, n: {"preset": "comoving", "t_end": t, "samples": n},
              st.sampled_from([1.0, 5.0]), SAMPLES),
    st.builds(lambda g, n, p, grav: {"preset": "uniform_gravity", "g": g, "t_end": 10.0,
                                     "samples": n, "p": p, "gravitational_only": grav},
              st.sampled_from([-0.03, 0.0, 0.02]), SAMPLES, st.sampled_from([0.0, 0.2]),
              st.booleans()),
    st.builds(lambda n: {"preset": "point_mass", "M": 0.3, "r_start": 2.0, "r_end": 5.0,
                         "t_end": 10.0, "samples": n}, SAMPLES),
    st.builds(lambda p, n: {"preset": "cruise", "p": p, "t_end": 5.0, "samples": n},
              st.sampled_from([0.1, 0.3]), SAMPLES),
    st.just({"csv": "worldline.csv"}),
)
# each range's second bound may cross a rule partway: the weak-field bound for
# alpha (at 1.5) and for c (at small c), the float range of beta * E for beta
RANGES = {
    "beta": st.tuples(st.sampled_from([0.5, 1.0]), st.sampled_from([4.0, 1e306])),
    "omega": st.tuples(st.sampled_from([0.5, 1.0]), st.sampled_from([2.0, 3.0])),
    "c": st.tuples(st.sampled_from([1.0, 3.0]), st.sampled_from([100.0, 0.1])),
    "alpha": st.tuples(st.sampled_from([0.8, 0.9]), st.sampled_from([1.2, 1.8])),
}


@st.composite
def sweeps(draw):
    param = draw(st.sampled_from(sorted(RANGES)))
    return param, draw(RANGES[param]), draw(st.integers(2, 16))


def table_bytes(reports, fmt):
    if fmt == "csv":
        text = "\n".join([ProtocolReport.csv_header()] + [r.to_csv_row() for r in reports])
    else:
        payload = [r.to_dict() for r in reports]
        text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    return (text + "\n").encode()


def alone(base, param, values):
    """Each point run alone, in order, up to the first that fails: the reports and
    that point's error line, if one fails."""
    reports = []
    for value in values:
        try:
            reports.append(run_scenario(_sweep_config(base, param, value)))
        except (OSError, ValueError) as exc:
            return reports, f"error: {param}={value}: {exc}\n"
    return reports, None


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(system=SYSTEMS, worldline=WORLDLINES, sweep=sweeps(), fmt=st.sampled_from(["csv", "json"]),
       budget=st.sampled_from([2**9, 2**10, 2**11]))
# the last point breaks the weak-field bound in the third stack of three points
@example(system={"kind": "harmonic", "omega": 1.0, "levels": 40},
         worldline={"preset": "comoving", "t_end": 10.0, "samples": 101},
         sweep=("alpha", (0.9, 1.8), 9), fmt="csv", budget=2**9)
# the later points' beta * E overflows, past the first stack
@example(system={"kind": "two_level", "gap": 1.0}, worldline={"csv": "worldline.csv"},
         sweep=("beta", (1.0, 1e306), 12), fmt="json", budget=2**10)
def test_a_dilated_sweep_table_is_its_points_run_alone(system, worldline, sweep, fmt, budget):
    param, (start, stop), count = sweep
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        root = Path(tmp)
        (root / "worldline.csv").write_text("t,phi,p\n0,0,0\n1,0.01,0.1\n2,0.03,0.2\n")
        if "csv" in worldline:
            worldline = {"csv": str(root / "worldline.csv")}
        document = {"scenario_id": "col", "pipeline": "dilated", "beta": 1.5, "system": system,
                    "worldline": worldline, "mass": 1.0}
        base = ScenarioConfig.from_dict(document)
        values = sorted(start + (stop - start) * k / (count - 1) for k in range(count))
        reports, line = alone(base, param, values)
        path, out = root / "col.json", root / "out"
        path.write_text(json.dumps(document))
        patch.setattr(scenarios, "STACK_ATOMS", budget)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", "--scenario", str(path), "--sweep", f"{param}={start!r}:"
                         f"{stop!r}:{count}", "--out", str(out), "--format", fmt, "--quiet"])
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if line is None:
            assert (code, err.getvalue(), written) == (0, "", [f"sweep_{param}.{fmt}"])
            assert (out / written[0]).read_bytes() == table_bytes(reports, fmt)
        else:
            assert (code, err.getvalue(), written) == (2, line, [])


def test_a_dilated_sweep_whose_stacks_fail_runs_its_points_alone(tmp_path, monkeypatch):
    """The rows of the stacks before a failing one are kept, and the points from
    its first on run alone, one ``estimate`` call each: the table is unchanged."""
    document = json.loads((DEMO_SCENARIOS / "oscillator_blueshift.json").read_text())
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(document))
    # three points of the 40-level ladder fill a stack
    monkeypatch.setattr(scenarios, "STACK_ATOMS", 3 * (40 + scenarios.POINT_ATOMS))
    argv = ["sweep", "--scenario", str(path), "--sweep", "c=10:1000:9", "--quiet"]
    assert main([*argv, "--out", str(tmp_path / "columns")]) == 0
    original = cli.dilated_sweep

    def second_stack_fails(*args):
        stacks = original(*args)
        yield next(stacks)
        raise ValueError("a stack that fails")

    def alone(config):
        ran_alone.append(config.scenario_id)
        return run_scenario(config)

    ran_alone, estimates, estimate = [], [], protocol.estimate
    monkeypatch.setattr(cli, "dilated_sweep", second_stack_fails)
    monkeypatch.setattr(cli, "run_scenario", alone)
    monkeypatch.setattr(protocol, "estimate", lambda *a: estimates.append(a) or estimate(*a))
    assert main([*argv, "--out", str(tmp_path / "points")]) == 0
    # the first stack's 3 rows, then a stack of one for each of the other 6 points
    values = [10 + 990 * k / 8 for k in range(9)]
    assert ran_alone == [f"{document['scenario_id']}@c={value:.9g}" for value in values[3:]]
    assert [a[1].shape for a in estimates] == [(3, 40)] + [(1, 40)] * 6
    points, columns = (tmp_path / name / "sweep_c.csv" for name in ("points", "columns"))
    assert points.read_bytes() == columns.read_bytes()
