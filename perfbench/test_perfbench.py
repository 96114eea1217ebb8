"""The benchmark's own test: seeded inputs and a smoke run of every workload.

Run from the repository root with `python -m pytest -q perfbench`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

PRINTED = {
    "games-sweep": ["setup_s", "setup_wall_s", "total_s", "sweep_cells_per_s", "solve_s",
                    "certify_s", "failed_ratio", "peak_rss_mb"],
    "ring-pairwise": ["setup_s", "setup_wall_s", "total_s", "solve_s", "evolve_s", "certify_s",
                      "failed_ratio", "peak_rss_mb"],
    "oscillator": ["setup_s", "setup_wall_s", "total_s", "evolve_s", "certify_s", "failed_ratio",
                   "peak_rss_mb"],
}


def ring_bytes(tmp_path, seed):
    path = tmp_path / f"ring-{seed}.json"
    workloads.write_ring(path, seed, agents=200, actions=5)
    return path.read_bytes()


def test_ring_generator_is_a_function_of_the_seed(tmp_path):
    first = ring_bytes(tmp_path, 7)
    assert ring_bytes(tmp_path, 7) == first
    assert ring_bytes(tmp_path, 8) != first


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def table(stdout):
    rows = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            name, value, unit = line.split()[:3]
            rows[name] = (float(value), unit)
    return rows


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(PRINTED))
def test_smoke_prints_every_metric_and_fails_nothing(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert any(line.startswith("env: ") and '"blas_threads": 1' in line for line in lines)
    rows = table(done.stdout)
    for m in listed:
        assert rows[m["name"]][1] == m["unit"]
    if not trace:
        assert set(PRINTED[workload]) <= set(rows)
        assert rows["failed_ratio"] == (0.0, "ratio")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(str(tmp_path), "games-sweep", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
