"""Smoke test: every workload at its smallest size emits every metric of
BENCHMARK.json with its unit, passes its own checks, and tracing leaves the
outputs unchanged.

    python -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    digest = next(line for line in lines if " digest " in line)
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(capsys, workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, digest = _run(capsys, workload, trace)
        digests.append(digest)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert digests[0] == digests[1], "tracing changed the outputs"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
