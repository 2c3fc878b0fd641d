"""The golden reports that ``tests/test_golden.py`` compares every run with.

``COMMANDS`` maps each golden file to the command that writes it: ``tauwork
run`` on each demo scenario, and each sweep of the CI console-script step with
CI's arguments. Every command writes one csv report, kept here under its own
name. ``fingerprint.json`` records the host that wrote them: the numpy
version, its BLAS build and the CPU features numpy dispatches on. On a host
with the same fingerprint, every float cell must come back exactly.

After a change that moves report cells on purpose, regenerate with

    PYTHONPATH=src python tests/golden/regenerate.py

and list the cells that moved (the test's failure lines) with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from tauwork import cli

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parents[1] / "demos" / "scenarios"

DEMOS = ("comoving", "cruise_redshift", "driven_two_segment", "flat_damping", "oscillator_blueshift")
# (scenario, sweep spec, further arguments), as in the CI console-script step
SWEEPS = (
    ("oscillator_blueshift", "alpha=0.8:1.2:5", ()),
    ("oscillator_blueshift", "omega=0.5:2:5", ()),
    ("cruise_redshift", "beta=0.5:4:5", ()),
    ("cruise_redshift", "c=1:100:5", ()),
    ("driven_two_segment", "beta=0.5:3:5", ("--steps", "300")),
    ("driven_two_segment", "alpha=0.8:1.2:5", ("--steps", "200")),
    ("flat_damping", "gamma=0:1:5", ()),
    ("comoving", "beta=0.1:5:20", ()),
    ("oscillator_blueshift", "c=100:1000000:41", ()),
)
# golden file -> (command, scenario, arguments after the scenario)
COMMANDS = {f"run_{name}.csv": ("run", name, ()) for name in DEMOS} | {
    f"sweep_{name}_{spec.split('=')[0]}.csv": ("sweep", name, ("--sweep", spec, *extra))
    for name, spec, extra in SWEEPS
}


def run(name: str, out: Path) -> Path:
    """Run the command of golden file ``name`` through ``cli.main`` into the new
    directory ``out``; gives the one report it wrote."""
    command, scenario, extra = COMMANDS[name]
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.json"), *extra, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: tauwork {' '.join(argv)} exited {code}")
    (report,) = out.iterdir()
    return report


def fingerprint() -> dict:
    """What decides the bits of a float cell on this host, besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    keys = ("name", "version", "openblas configuration")
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in keys},
        "cpu_features": dict(__cpu_features__),
    }


def main() -> None:
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            (HERE / name).write_bytes(run(name, Path(tmp) / "out").read_bytes())
    text = json.dumps(fingerprint(), indent=2, sort_keys=True)
    (HERE / "fingerprint.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
