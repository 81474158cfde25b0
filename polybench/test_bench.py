"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest polybench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import shims
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = run.run(workload, seed=3, seconds=0.05, trace=False,
                             setup_repeats=1, list_rounds=2, min_items=1)
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert record["seed"] == 3 and record["nproc"] and record["sizes"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_every_shim_it_should(workload):
    result, record = run.run(workload, seed=4, seconds=0.05, trace=True,
                             setup_repeats=1, list_rounds=2, trace_rounds=1)
    assert result["failed"] == 0 and result["correct"]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    missed = [target for target, users in shims.EXERCISED_BY.items()
              if workload in users and not record["shim_calls"].get(target)]
    assert not missed, f"{workload} never reached {missed}"


def test_every_shim_declares_its_workloads():
    targets = {attr for _, _, attr in shims.SPANNED + shims.COUNTED} | {"poly"}
    assert targets == set(shims.EXERCISED_BY)
    assert all(set(users) <= set(WORKLOADS) for users in shims.EXERCISED_BY.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "polybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "polybench/run.py", "--workload", "suites",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
