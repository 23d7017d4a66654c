"""Self-test of the benchmark: a short run of each workload completes a
pass, passes its correctness checks and prints every metric of
BENCHMARK.json with its unit, and the attempted and failed counts.

The runs use ``--quick`` (small passes, one set-up sample) and go two at a
time, so the whole file takes about as long as the slowest run, ``cli``.
"""

import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = [("thermal", 0), ("cli", 0), ("thermal", 1)]


def _run(workload, trace, cwd=HERE.parent):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
           "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def results():
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda run: _run(*run), RUNS))
    return dict(zip(RUNS, procs))


@pytest.mark.parametrize("run", RUNS, ids=[f"{w}-trace{t}" for w, t in RUNS])
def test_short_run(results, run):
    workload, trace = run
    proc = results[run]
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stdout[-2000:]
    assert res["attempted"] >= 1
    assert res["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_refuses_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "thermal", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
