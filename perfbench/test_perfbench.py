"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench

Smoke-runs every workload at tiny size on two seeds, in both modes, and
checks the printed metric names against BENCHMARK.json; checks that the
output gate can fail and that the environment guards refuse to run.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, python=(sys.executable,), env=None):
    return subprocess.run(
        [*python, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd, env=env,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_prints_every_metric(workload, seed, trace):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace:
        assert result["metrics"]["trace.coverage_violations"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_verdict_is_counted_as_failure(tmp_path):
    work = workloads.build("check-mix", 3, str(tmp_path), tiny=True)
    requests = list(itertools.islice(work.stream, 60))
    index = next(i for i, r in enumerate(requests) if r.expect[0] == "verdict")
    good = requests[index]
    flipped = workloads.Request(good.kind, good.argv, ("verdict", not good.expect[1]))
    results = workloads.run_stream([good, flipped], 0, 2)
    assert workloads.count_failures(results) == 1
    assert workloads.verify(results[0]) is None
    assert "verdict" in workloads.verify(results[1])


def test_wrong_sweep_target_is_counted_as_failure(tmp_path):
    work = workloads.build("sweep-dp6", 3, str(tmp_path), tiny=True)
    good = next(work.stream)
    kind, lo, hi, tol = good.expect
    wrong = workloads.Request(good.kind, good.argv, (kind, lo + 10 * tol, hi, tol))
    result = workloads.call(good)
    assert workloads.verify(result) is None
    assert "misses" in workloads.verify(workloads.Result(wrong, 0, result.out, 0.0, 0.0))


def test_refuses_optimized_python():
    proc = run_bench("--workload", "check-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                     "--tiny", python=(sys.executable, "-O"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run_bench("--workload", "check-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
