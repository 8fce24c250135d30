"""Smoke test of the benchmark driver at reduced sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that one command runs every workload, that every metric named in
BENCHMARK.json is printed with its unit in both trace modes, that no
output check fails, and that the driver refuses to run without the
program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_all(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--all", "--small", "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = run_all(trace)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(report) == sorted(WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, result in report.items():
        assert result["correct"] is True, (name, proc.stderr)
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
        assert units == expected, name
        for metric, entry in result["metrics"].items():
            assert isinstance(entry["value"], (int, float)), (name, metric)
            if section == "end_to_end":
                assert entry["value"] > 0, (name, metric)
    rates = [line.split() for line in proc.stdout.splitlines() if " error_rate " in line]
    assert sorted(r[0] for r in rates) == sorted(report)
    assert all(float(r[2]) == 0 for r in rates)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_all(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
