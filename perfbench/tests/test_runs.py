"""Tiny-scale runs of the command line, checked against BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    command = [*SPEC["command"], *args]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(out):
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    result = _result(out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected]
    for metric in expected:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(metrics[metric["name"]]["value"], (int, float))
        if not trace:
            assert metrics[metric["name"]]["value"] > 0
    # The report prints the figures with their sample counts.
    assert "attempted" in out.stdout and "(n=" in out.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    from perfbench.inputs import generate

    for workload in ("cdc", "join"):
        generate(workload, 9, tmp_path / "a" / workload, tiny=True)
        generate(workload, 9, tmp_path / "b" / workload, tiny=True)
        for path in (tmp_path / "a" / workload).iterdir():
            assert path.read_bytes() == (tmp_path / "b" / workload / path.name).read_bytes()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()
