"""The example scripts, each run as a user runs it, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

from coopt import bundled_path
from coopt.equilibrium import alpha_sweep
from coopt.fileio import load_problem

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_pd_alpha_sweep_writes_the_report_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("pd_alpha_sweep.py", "--restarts", "1", "--out", str(out))
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]  # the script's grid, seed 0
    report = alpha_sweep(load_problem(bundled_path("prisoners_dilemma")), grid, restarts=1)
    assert out.read_bytes() == report.to_csv().encode("utf-8")


def test_harmonic_ground_state_matches_the_eigensolver():
    # the script starts from the even uniform vector, and state 1 is odd
    proc = run_script("harmonic_ground_state.py", "--points", "51", "--states", "3")
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["state", "evolved", "eigensolver", "analytic"]
    assert len(rows) == 3
    for k, row in enumerate(rows):
        state, evolved, eigensolver, analytic = row.split()
        assert (int(state), float(analytic)) == (k, k + 0.5)
        assert abs(float(evolved) - float(eigensolver)) <= 1e-6
