"""Smoke test of the benchmark: every workload at smoke-test size.

Each mode must exit 0, pass every output check, and print each metric
that BENCHMARK.json names, by name and with its unit, for every workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--workload", "all",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in wanted:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert any(cells[:2] == [workload, name] and cells[3] == unit
                       for cells in lines if len(cells) > 3), (workload, name)
        assert [workload, "failed_ops_frac", "0", "frac"] in (
            cells[:4] for cells in lines)
