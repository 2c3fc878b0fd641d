"""Scenario numbers from the whole float range, through ``cli.main``.

Each example starts from a demo document and replaces one to three of its
float fields, top-level or in a section, with a drawn number: signed zeros,
subnormals, 1e+-300, the float maximum, any finite float, or an integer up to
1e30. The integer size fields keep their demo values. Whatever the numbers,
``run`` exits 0 or 2, a 2 comes with one ``error:`` line, nothing lands
outside ``--out`` and every float cell written is finite. pyproject turns a
numpy warning into a failure.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tauwork.cli import main

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
DEMOS = {path.stem: json.loads(path.read_text()) for path in DEMO_SCENARIOS.glob("*.json")}
MAX = sys.float_info.max


def float_paths(value, path=()):
    """The paths, as key and index tuples, to the float fields of a JSON value."""
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in float_paths(item, path + (key,))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in float_paths(item, path + (i,))]
    return [path] if type(value) is float else []


FLOAT_PATHS = {name: float_paths(document) for name, document in DEMOS.items()}
NUMBERS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300]
        + [MAX, -MAX]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**30), 10**30),
)


@st.composite
def mutated_demos(draw):
    name = draw(st.sampled_from(sorted(DEMOS)))
    paths = st.sampled_from(FLOAT_PATHS[name])
    chosen = draw(st.lists(paths, min_size=1, max_size=3, unique=True))
    return name, [(path, draw(NUMBERS)) for path in chosen]


def mutated(name, edits):
    document = json.loads(json.dumps(DEMOS[name]))
    for path, number in edits:
        *parents, last = path
        owner = document
        for key in parents:
            owner = owner[key]
        owner[last] = number
    return document


def run(name, edits):
    """``run`` on the mutated document in a fresh working directory: the exit
    code, stderr, the files written outside ``--out``, and the report cells."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scenario = root / "scenario.json"
        scenario.write_text(json.dumps(mutated(name, edits)))
        out, err = root / "out", io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # so that a relative path the CLI writes to lands under root
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        finally:
            os.chdir(cwd)
        kept = {scenario, out}
        outside = [p for p in root.rglob("*") if p not in kept and out not in p.parents]
        reports = sorted(out.glob("*")) if out.exists() else []
        cells = [line.split(",") for report in reports for line in report.read_text().splitlines()]
        return code, err.getvalue(), outside, reports, cells


def is_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_demos())
@example(case=("oscillator_blueshift", [(("mass",), 1e-200)]))
@example(case=("comoving", [(("c",), 1e-300)]))
@example(case=("cruise_redshift", [(("mass",), 5e-324)]))
@example(case=("driven_two_segment", [(("schedule", 0, "system", "gap"), MAX)]))
@example(case=("cruise_redshift", [(("worldline", "t_end"), 10**20)]))
def test_every_number_exits_0_or_2_and_writes_only_finite_cells(case):
    name, edits = case
    code, err, outside, reports, cells = run(name, edits)
    assert code in (0, 2), err
    assert outside == []
    if code == 2:
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            err.splitlines()[0]
        ], err
        assert "Traceback" not in err
        assert reports == []
    else:
        assert err == "" and len(reports) == 1
        assert all(math.isfinite(float(cell)) for row in cells[1:] for cell in row if is_float(cell))
