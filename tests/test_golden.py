"""Report bytes pinned: every golden report in ``tests/golden`` is what the
engine writes today.

Each command of ``tests/golden/regenerate.py`` reruns through ``cli.main``
into ``tmp_path`` and its csv report is compared with the golden file, cell
by cell. The header and every non-float cell must match exactly. Float cells
must match exactly on a host with the golden files' fingerprint; elsewhere,
where numpy's SIMD ``exp`` and ``log`` may round differently, each must be
within ``ULPS`` units in the last place. A failure prints one line per cell
that moved.
"""

import importlib.util
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from tauwork.protocol import ProtocolReport

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_reports", GOLDEN / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

FLOAT_COLUMNS = {f.name for f in fields(ProtocolReport) if f.type == "float"}
ULPS = 4


def ulps(column: str, old: float, new: float, row: dict) -> float:
    """|new - old| in units in the last place of ``old``. ``residual`` and
    ``entropy_production`` are cancellations, so theirs are counted at the
    scale of the terms they subtract: lhs and rhs, and beta times <W> and dF,
    taken from the golden ``row``."""
    cell = {name: abs(float(row[name])) for name in ("beta", "mean_work", "delta_F", "lhs", "rhs")}
    if column == "residual":
        unit = np.spacing(max(cell["lhs"], cell["rhs"]))
    elif column == "entropy_production":
        unit = cell["beta"] * np.spacing(max(cell["mean_work"], cell["delta_F"]))
    else:
        unit = np.spacing(abs(old))
    return float(abs(new - old) / unit)


def moved_cells(name: str, old_text: str, new_text: str, exact: bool) -> list[str]:
    """One line per cell of report ``name`` that moved past the bound: the
    file, ``scenario_id``, column, old and new cell and the ulps between."""
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if old_lines[0] != new_lines[0]:
        return [f"{name}: header {new_lines[0]!r}, golden {old_lines[0]!r}"]
    header = old_lines[0].split(",")
    if len(new_lines) != len(old_lines):
        return [f"{name}: {len(new_lines) - 1} rows, golden {len(old_lines) - 1}"]
    lines = []
    for old_line, new_line in zip(old_lines[1:], new_lines[1:]):
        old_row, new_cells = dict(zip(header, old_line.split(","))), new_line.split(",")
        if len(new_cells) != len(header):
            lines.append(f"{name}: row {new_line!r} has {len(new_cells)} cells")
            continue
        for column, new in zip(header, new_cells):
            old = old_row[column]
            if new == old:
                continue
            where = f"{name} {old_row['scenario_id']} {column}: {old} -> {new}"
            if column not in FLOAT_COLUMNS:
                lines.append(f"{where} (not a float cell)")
                continue
            n = ulps(column, float(old), float(new), old_row)
            if exact or not n <= ULPS:
                lines.append(f"{where} ({n:.3g} ulp)")
    return lines


def test_reports_match_the_golden_files(tmp_path):
    stored = json.loads((GOLDEN / "fingerprint.json").read_text())
    exact = golden.fingerprint() == stored
    lines = []
    for name in golden.COMMANDS:
        report = golden.run(name, tmp_path / name)
        lines += moved_cells(name, (GOLDEN / name).read_text(), report.read_text(), exact)
    bound = "exactly" if exact else f"within {ULPS} ulp"
    assert not lines, f"report cells not {bound} the golden ones:\n" + "\n".join(lines)


def test_every_golden_file_has_its_command():
    kept = {path.name for path in GOLDEN.iterdir() if path.suffix == ".csv"}
    assert kept == set(golden.COMMANDS) and len(kept) == 14


class TestMovedCells:
    """How the comparison counts: exact bits on the golden host, ulps elsewhere."""

    HEADER = ",".join(f.name for f in fields(ProtocolReport))
    ROW = "x,flat,2,1.0,1.0,0.0,0.5,0.25,1.0,1.0,0.0,0.25,instantaneous,0"

    def edited(self, column, value):
        cells = dict(zip(self.HEADER.split(","), self.ROW.split(",")))
        cells[column] = value
        return "\n".join([self.HEADER, ",".join(cells.values())])

    def test_one_ulp_fails_on_the_golden_host_only(self):
        golden_text = self.edited("lhs", "1.0")
        moved = self.edited("lhs", repr(math.nextafter(1.0, 2.0)))
        (line,) = moved_cells("f.csv", golden_text, moved, exact=True)
        assert line == "f.csv x lhs: 1.0 -> 1.0000000000000002 (1 ulp)"
        assert moved_cells("f.csv", golden_text, moved, exact=False) == []

    def test_a_cancellation_counts_at_the_scale_of_its_terms(self):
        # a residual of 4 ulp of lhs = 1 passes; 5 ulp fails, although 5e-16 is
        # a huge number of ulps of the cell itself
        golden_text = self.edited("residual", "0.0")
        ok = self.edited("residual", repr(4 * math.ulp(1.0)))
        bad = self.edited("residual", repr(5 * math.ulp(1.0)))
        assert moved_cells("f.csv", golden_text, ok, exact=False) == []
        (line,) = moved_cells("f.csv", golden_text, bad, exact=False)
        assert line.endswith("(5 ulp)")
        # entropy_production at beta 1 counts ulps of max(|<W>|, |dF|) = 0.5
        golden_text = self.edited("entropy_production", "0.25")
        bad = self.edited("entropy_production", repr(0.25 + 5 * math.ulp(0.5)))
        (line,) = moved_cells("f.csv", golden_text, bad, exact=False)
        assert line.endswith("(5 ulp)")

    def test_non_float_cells_and_the_header_match_exactly(self):
        golden_text = self.edited("final_basis", "instantaneous")
        (line,) = moved_cells("f.csv", golden_text, self.edited("final_basis", "evolved"), False)
        assert line == "f.csv x final_basis: instantaneous -> evolved (not a float cell)"
        renamed = golden_text.replace("delta_F", "dF")
        (line,) = moved_cells("f.csv", golden_text, renamed, exact=False)
        assert line.startswith("f.csv: header")
