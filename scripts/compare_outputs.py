#!/usr/bin/env python3
"""Check that two coopt trees write byte-identical results.

Runs the CLI jobs of perfbench's games-sweep workload (each bundled game's
alpha grid with 2 restarts at seeds 3 and 7, the soft and hard solves with
their traces, nash and verify), the solves of two seeded 200-agent
pairwise rings at alpha 0.5 and 8 (with a trace, and verify), and
`coopt quantum` on the bundled oscillator at the default step (with a
trace) and for its three lowest states from a seeded random start, once
per tree in a fresh interpreter with that tree's src/ on the path.  It also runs
`continuous.evolve_coupled` on `pairwise_chain` to convergence and on the
seed-1 ring to t = 5, recording every step, and writes a sha256 over every
trajectory point's time, amplitudes, Rayleigh values and residuals, and a
sha256 of the bundled oscillator's eigenvalues from `numerics.jacobi_eigen`
(its eigenvectors are not compared: they depend on the oracle's start
vectors, not only on the matrix).  Both trees read the same input files.
Exits 1 listing every output file whose bytes differ, or every job whose
exit code differs; 0 when all match.

Usage: python scripts/compare_outputs.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import argparse
import json
import textwrap
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]

from coopt import bundled_path  # noqa: E402
from workloads import GAMES, HARD_ALPHA, RESTARTS, RING, SOFT_ALPHA, write_ring  # noqa: E402

SEEDS = (3, 7)
RING_SEEDS = (1, 2)
RING_T_MAX = 5.0

# Runs every CLI job, then every trajectory job and every spectrum job in
# one interpreter; the CLI jobs' exit codes go to stdout as JSON.
RUNNER = textwrap.dedent("""\
    import hashlib, json, sys
    import numpy as np
    from coopt import fileio
    from coopt.cli import main
    from coopt.continuous import evolve_coupled
    from coopt.numerics import jacobi_eigen

    jobs, trajectories, spectra = json.load(sys.stdin)
    codes = [main(argv) for argv in jobs]
    for problem, t_max, out in trajectories:
        points, _ = evolve_coupled(fileio.load_problem(problem), t_max=t_max, record_every=1)
        digest = hashlib.sha256()
        for point in points:
            for values in (point.time, *point.amplitudes, point.rayleigh, point.residual):
                digest.update(np.asarray(values, dtype=float).tobytes())
        with open(out, "w") as f:
            f.write(digest.hexdigest() + "\\n")
    for hamiltonian, out in spectra:
        values = jacobi_eigen(fileio.load_hamiltonian(hamiltonian)).eigenvalues
        with open(out, "w") as f:
            f.write(hashlib.sha256(values.tobytes()).hexdigest() + "\\n")
    print(json.dumps(codes))
""")


def game_jobs(inputs: Path, games=GAMES, seeds=SEEDS) -> list[list[str]]:
    """CLI argv lists for the games; writes their problem files to inputs."""
    jobs = []
    for name, (grid, _) in games.items():
        problem = str(inputs / f"{name}.json")
        shutil.copyfile(bundled_path(name), problem)
        base = ["--problem", problem]
        for seed in seeds:
            jobs.append(["sweep", *base, "--alpha-grid", grid, "--restarts", str(RESTARTS),
                         "--seed", str(seed), "--out", f"{name}.sweep{seed}.csv"])
        for kind, alpha in (("soft", SOFT_ALPHA), ("hard", HARD_ALPHA)):
            jobs.append(["solve", *base, "--alpha", str(alpha), "--trace",
                         f"{name}.{kind}.csv", "--out", f"{name}.{kind}.json"])
        jobs.append(["nash", *base, "--out", f"{name}.nash.json"])
        jobs.append(["verify", *base, "--profile", f"{name}.soft.json",
                     "--out", f"{name}.verify.json"])
    return jobs


def ring_jobs(inputs: Path, seeds=RING_SEEDS) -> list[list[str]]:
    """CLI argv lists for the rings; writes their problem files to inputs."""
    jobs = []
    for seed in seeds:
        problem = str(inputs / f"ring{seed}.json")
        write_ring(problem, seed, RING["agents"], RING["actions"])
        base = ["--problem", problem]
        jobs += [
            ["solve", *base, "--alpha", str(SOFT_ALPHA), "--trace", f"ring{seed}.soft.csv",
             "--out", f"ring{seed}.soft.json"],
            ["solve", *base, "--alpha", str(HARD_ALPHA), "--max-iter", str(RING["hard_max_iter"]),
             "--trace", f"ring{seed}.hard.csv", "--out", f"ring{seed}.hard.json"],
            ["verify", *base, "--profile", f"ring{seed}.soft.json",
             "--out", f"ring{seed}.verify.json"],
        ]
    return jobs


def quantum_jobs(inputs: Path) -> list[list[str]]:
    """CLI argv lists for the oscillator; writes its Hamiltonian file to inputs."""
    hamiltonian = str(inputs / "harmonic_oscillator.json")
    shutil.copyfile(bundled_path("harmonic_oscillator"), hamiltonian)
    base = ["quantum", "--hamiltonian", hamiltonian]
    return [
        [*base, "--trace", "oscillator.trace.csv", "--out", "oscillator.json"],
        [*base, "--states", "3", "--init", "random", "--seed", "1",
         "--out", "oscillator.states3.json"],
    ]


def trajectory_jobs(inputs: Path) -> list[list]:
    """(problem, t_max, digest file) for evolve_coupled on pairwise_chain
    and on the first ring; writes their problem files to inputs."""
    seed = RING_SEEDS[0]
    chain = inputs / "pairwise_chain.json"
    shutil.copyfile(bundled_path("pairwise_chain"), chain)
    ring = inputs / f"ring{seed}.json"
    write_ring(ring, seed, RING["agents"], RING["actions"])
    return [
        [str(chain), 1000.0, "pairwise_chain.coupled.sha256"],
        [str(ring), RING_T_MAX, f"ring{seed}.coupled.sha256"],
    ]


def spectrum_jobs(inputs: Path) -> list[list[str]]:
    """(Hamiltonian, digest file) for the Jacobi oracle on the bundled
    oscillator; writes its Hamiltonian file to inputs."""
    hamiltonian = inputs / "harmonic_oscillator.json"
    shutil.copyfile(bundled_path("harmonic_oscillator"), hamiltonian)
    return [[str(hamiltonian), "oscillator.eigenvalues.sha256"]]


def run_tree(
    root: Path, jobs: list[list[str]], outdir: Path, trajectories=(), spectra=()
) -> list[int]:
    """Run the jobs, trajectory jobs and spectrum jobs with root's coopt,
    in outdir; returns the jobs' exit codes."""
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps([jobs, list(trajectories), list(spectra)]),
        cwd=outdir, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def differences(old: Path, new: Path) -> list[str]:
    """Names of the files that are missing from either directory or differ."""
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    return [
        name for name in names
        if not ((old / name).is_file() and (new / name).is_file()
                and (old / name).read_bytes() == (new / name).read_bytes())
    ]


def compare(
    old_root: Path, new_root: Path, jobs: list[list[str]], workdir: Path,
    trajectories=(), spectra=(),
) -> list[str]:
    """Every way in which the two trees' runs of jobs, trajectories and
    spectra differ."""
    old_codes = run_tree(old_root, jobs, workdir / "old", trajectories, spectra)
    new_codes = run_tree(new_root, jobs, workdir / "new", trajectories, spectra)
    found = [
        f"exit code {a} -> {b}: coopt {' '.join(argv)}"
        for argv, a, b in zip(jobs, old_codes, new_codes) if a != b
    ]
    return found + differences(workdir / "old", workdir / "new")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        inputs = workdir / "inputs"
        inputs.mkdir()
        jobs = game_jobs(inputs) + ring_jobs(inputs) + quantum_jobs(inputs)
        found = compare(args.old_root, args.new_root, jobs, workdir,
                        trajectory_jobs(inputs), spectrum_jobs(inputs))
        compared = len(list((workdir / "new").iterdir()))
    for line in found:
        print(f"differs: {line}")
    print(f"{len(jobs)} jobs, {compared} output files, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
