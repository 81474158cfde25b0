"""Byte-identical CLI records: each argv in ``cli_records.json`` must give
the same stdout, stderr and exit code as when its digest was recorded.

A digest is the sha256 of ``json.dumps({"argv", "code", "stdout",
"stderr"}, sort_keys=True)`` from an in-process ``cli.main`` call.  The
terminal width is pinned because argparse wraps its usage lines to it.  When
a change alters an output on purpose, recompute that argv's digest with
``record_digest`` and record the reason with the change.  Each stdout must
also be what the standard ``json`` and ``csv`` writers print.
"""

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from polybohr import cli

RECORDS = json.loads((Path(__file__).parent / "cli_records.json").read_text())
IDS = [" ".join(r["argv"]) for r in RECORDS]
FLOAT_COLUMNS = {"limit_x", "residual", "radius_r", "radius_x", "gap_x", "t", "re", "im"}


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record_digest(argv: list[str]) -> str:
    code, out, err = run_main(argv)
    record = {"argv": argv, "code": code, "stdout": out, "stderr": err}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", [(r["argv"], r["sha256"]) for r in RECORDS],
                         ids=IDS)
def test_record_is_unchanged(argv, digest, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert record_digest(argv) == digest


@pytest.mark.parametrize("argv", [r["argv"] for r in RECORDS], ids=IDS)
def test_stdout_is_what_the_standard_writers_print(argv):
    # a record is json.dumps(..., indent=2) output, and a CSV float cell is
    # the float's repr, the shortest string that parses back to it
    out = run_main(argv)[1]
    if out.startswith("{"):
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    elif out.startswith("usage: "):
        # --help prints argparse's help text, not a record
        assert "--help" in argv
    elif out:
        columns, *rows = csv.reader(io.StringIO(out))
        cells = [cell for row in rows for col, cell in zip(columns, row)
                 if col in FLOAT_COLUMNS and cell]
        assert cells
        assert all(cell == repr(float(cell)) for cell in cells)
