"""Scenario numbers from the whole float range, through ``cli.main``.

Each example starts from a demo document and replaces one to three of its
float fields, top-level or in a section, with a drawn number: signed zeros,
subnormals, 1e+-300, the float maximum, any finite float, or an integer up to
1e30. The integer size fields keep their demo values. A sweep draws its
spec over ``c``, ``alpha`` or ``beta``: bounds from the same numbers or from a
range that crosses the weak-field bound partway, and 2 to 60 points. Whatever
the numbers, ``run`` and ``sweep`` exit 0 or 2, a 2 comes with one ``error:``
line, nothing lands outside ``--out`` and every float cell written is finite.
A ``run`` of 2 to 4 mutated documents in one invocation also fails as the first
file that fails alone, and on success writes each report as its file alone.
pyproject turns a numpy warning into a failure.
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
from tauwork.scenarios import ScenarioConfig

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


def run(documents, sweep=None):
    """``run`` on ``documents``, each saved in order as ``<scenario_id>.json``, or
    ``sweep`` with the spec ``sweep`` on the one document, in a fresh working
    directory: the exit code, stderr, the files written outside ``--out``, and the
    reports' bytes by file name and their cells."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scenarios = [root / f"{document['scenario_id']}.json" for document in documents]
        for scenario, document in zip(scenarios, documents):
            scenario.write_text(json.dumps(document))
        out, err = root / "out", io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # so that a relative path the CLI writes to lands under root
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                command = ["run"] if sweep is None else ["sweep", "--sweep", sweep]
                # relative paths: an error line reads the same from any directory
                files = [f"--scenario={scenario.name}" for scenario in scenarios]
                code = main([*command, *files, "--out", out.name])
        finally:
            os.chdir(cwd)
        kept = {*scenarios, out}
        outside = [p for p in root.rglob("*") if p not in kept and out not in p.parents]
        reports = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
        lines = [line for text in reports.values() for line in text.decode().splitlines()]
        cells = [line.split(",") for line in lines]
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
    assert_clean(*run([mutated(*case)]))


def assert_clean(code, err, outside, reports, cells, files=1):
    """Exit 0 or 2, one ``error:`` line and no report with a 2, ``files`` reports of
    finite cells with a 0, and nothing outside ``--out`` either way."""
    assert code in (0, 2), err
    assert outside == []
    if code == 2:
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            err.splitlines()[0]
        ], err
        assert "Traceback" not in err
        assert reports == {}
    else:
        assert err == "" and len(reports) == files
        assert all(math.isfinite(float(cell)) for row in cells[1:] for cell in row if is_float(cell))


# the weak-field bound |phi|/c^2 < 1/2 falls inside this range for alpha (at 1.5) and
# for c on every demo whose potential is not 0
CROSSING = st.floats(0.05, 3.0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(DEMOS)),
    param=st.sampled_from(["c", "alpha", "beta"]),
    bounds=st.one_of(
        *[st.lists(x, min_size=2, max_size=2, unique=True) for x in (CROSSING, CROSSING, NUMBERS)]
    ),
    count=st.integers(2, 60),
)
@example(name="oscillator_blueshift", param="alpha", bounds=[1.2, 1.8], count=3)
@example(name="oscillator_blueshift", param="c", bounds=[0.3, 3.0], count=60)
@example(name="cruise_redshift", param="c", bounds=[1e-300, MAX], count=60)
def test_every_sweep_exits_0_or_2_and_writes_only_finite_cells(name, param, bounds, count):
    spec = f"{param}={bounds[0]!r}:{bounds[1]!r}:{count}"
    assert_clean(*run([mutated(name, [])], sweep=spec))


def validates(document):
    try:
        ScenarioConfig.from_dict(document)
    except ValueError:
        return False
    return True


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases=st.lists(mutated_demos(), min_size=2, max_size=4))
# the second file fails to build (weak field), the third in the estimators
@example(cases=[("flat_damping", []), ("oscillator_blueshift", [(("worldline", "g"), 1.0)]),
                ("comoving", [(("beta",), 1e307)])])
# the first file fails in the estimators of a stack with the second
@example(cases=[("comoving", [(("beta",), 1e307)]), ("oscillator_blueshift", [])])
# the second file fails to run, the third to validate
@example(cases=[("cruise_redshift", []), ("comoving", [(("beta",), 1e307)]),
                ("flat_damping", [(("beta",), -1.0)])])
def test_a_run_of_several_files_is_each_file_run_alone(cases):
    """Every file is validated before any runs, so a run of several files fails as
    the first file that fails validation alone, else as the first that fails to run
    alone; when none fails, each report has the bytes of its file run alone."""
    documents = [dict(mutated(*case), scenario_id=f"doc{i}") for i, case in enumerate(cases)]
    code, err, outside, reports, cells = together = run(documents)
    assert_clean(*together, files=len(documents))
    if code == 0:
        alone = {}
        for document in documents:
            alone.update(run([document])[3])
        assert reports == alone
        return
    invalid = [document for document in documents if not validates(document)]
    for document in invalid[:1] or documents:
        first = run([document])
        if first[0] != 0:
            break
    assert first[:2] == (code, err)
