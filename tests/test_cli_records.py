"""Byte-identical CLI records: each argv in ``cli_records.json`` must give
the same stdout, stderr and exit code as when its digest was recorded.

A digest is the sha256 of ``json.dumps({"argv", "code", "stdout",
"stderr"}, sort_keys=True)`` from an in-process ``cli.main`` call.  The
terminal width is pinned because argparse wraps its usage lines to it.  When
a change alters an output on purpose, recompute that argv's digest with
``record_digest`` and record the reason with the change.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from polybohr import cli

RECORDS = json.loads((Path(__file__).parent / "cli_records.json").read_text())


def record_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    record = {"argv": argv, "code": code,
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", [(r["argv"], r["sha256"]) for r in RECORDS],
                         ids=[" ".join(r["argv"]) for r in RECORDS])
def test_record_is_unchanged(argv, digest, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert record_digest(argv) == digest
