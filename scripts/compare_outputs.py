#!/usr/bin/env python3
"""Check that two coopt trees write byte-identical results.

Runs the CLI jobs of perfbench's games-sweep workload (each bundled game's
alpha grid with 2 restarts at seeds 3 and 7, the soft and hard solves with
their traces, nash and verify), the solves of two seeded 200-agent
pairwise rings at alpha 0.5 and 8 (with a trace, and verify), two solves
whose map returns to an earlier profile bit for bit and so stop early with
exit code 2 (`matching_pennies` at alpha 4 from a seeded random start,
with a trace, and `coordination` at alpha 1), the same
three jobs and a sweep on a generated ring of mixed cardinalities whose
agents hold pairwise terms or dense tables and whose names need escaping
in JSON (quotes, backslashes, non-ASCII), and
`coopt quantum` on the bundled oscillator at the default step (with a
trace), for its three lowest states from a seeded random start and for its
two lowest at hbar = 0.37, and `coopt solve` on malformed problem files,
at least one per kind of problem `validate` words and one with a numeric
string in a pairwise table, `coopt verify` on
malformed profile files, at least one per message that `load_profile` and
`validate_profile` word, and `coopt quantum` on malformed Hamiltonian
files, at least one per message that `load_hamiltonian` words, once per tree in a fresh
interpreter with that tree's src/ on the path; every job's stderr is an
output file too, so error messages are compared byte for byte.  It also
runs `continuous.evolve_coupled` on `pairwise_chain` to convergence, at
its own hbar = 1 and at hbar = 0.37, and on the seed-1 ring and the mixed
ring to t = 5, recording every step, and writes a sha256 over every
trajectory point's time, amplitudes, Rayleigh values and residuals, and a
sha256 of the bundled oscillator's eigenvalues from `numerics.jacobi_eigen`
(its eigenvectors are not compared: they depend on the oracle's start
vectors, not only on the matrix).  Both trees read the same input files.
Exits 1 listing every output file whose bytes differ, or every job whose
exit code differs; 0 when all match.  A differing .json or .csv file is
listed with the largest absolute difference between its corresponding
numbers, or with "structure differs" when anything else in it differs, so
that a change at rounding level reads as one.

Usage: python scripts/compare_outputs.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import argparse
import json
import math
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
# Every other job runs at hbar = 1, where 1/hbar is exact.
HBAR = 0.37

# Runs every CLI job, then every trajectory job and every spectrum job in
# one interpreter; each CLI job's stderr goes to its --out file name plus
# ".stderr", and the jobs' exit codes go to stdout as JSON.
RUNNER = textwrap.dedent("""\
    import contextlib, hashlib, json, sys
    import numpy as np
    from coopt import fileio
    from coopt.cli import main
    from coopt.continuous import evolve_coupled
    from coopt.numerics import jacobi_eigen

    jobs, trajectories, spectra = json.load(sys.stdin)
    codes = []
    for argv in jobs:
        with open(argv[argv.index("--out") + 1] + ".stderr", "w") as err:
            with contextlib.redirect_stderr(err):
                codes.append(main(argv))
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


def cycle_jobs(inputs: Path) -> list[list[str]]:
    """CLI argv lists for the solves that stop on an exact repeat; writes
    their problem files to inputs."""
    jobs = []
    for name, alpha, extra in (
        ("matching_pennies", 4.0, ["--seed", "7", "--trace", "matching_pennies.cycle.csv"]),
        ("coordination", 1.0, []),
    ):
        problem = str(inputs / f"{name}.json")
        shutil.copyfile(bundled_path(name), problem)
        jobs.append(["solve", "--problem", problem, "--alpha", str(alpha), "--init", "random",
                     *extra, "--out", f"{name}.cycle.json"])
    return jobs


def mixed_problem(agents: int = 24) -> dict:
    """A seeded energy ring over cardinalities 2, 3 and 5 in turn.

    Agents 0, 2, 4 (mod 6) hold pairwise terms to both ring neighbours,
    agents 1 and 3 a dense table over their own variable and one neighbour
    (3 with the neighbour's axis first), agent 5 one over both neighbours;
    agent names cycle through a quote, a backslash and non-ASCII letters.
    """
    from coopt.rng import SplitMix64

    stream = SplitMix64(5)
    cards = [(2, 3, 5)[i % 3] for i in range(agents)]
    names = ['agent "{}"', "agent \\{}", "agént {}", "エージェント{}"]

    def table(*order):
        count = math.prod(cards[j] for j in order)
        return [stream.uniform_signed() for _ in range(count)]

    def rows(i, j):
        flat = table(i, j)
        return [flat[k * cards[j]:(k + 1) * cards[j]] for k in range(cards[i])]

    def objective(i):
        left, right = (i - 1) % agents, (i + 1) % agents
        kind = i % 6
        if kind in (0, 2, 4):
            return {"pairwise": [{"with": f"x{j}", "table": rows(i, j)} for j in (left, right)]}
        order = {1: (i, right), 3: (left, i), 5: (left, i, right)}[kind]
        return {"dense": {"order": [f"x{j}" for j in order], "values": table(*order)}}

    return {
        "mode": "energy",
        "hbar": 1.0,
        "variables": [{"name": f"x{i}", "cardinality": c} for i, c in enumerate(cards)],
        "agents": [
            {"name": names[i % 4].format(i), "acts_on": f"x{i}", "objective": objective(i)}
            for i in range(agents)
        ],
    }


def mixed_jobs(inputs: Path) -> list[list[str]]:
    """CLI argv lists for the mixed ring; writes its problem file to inputs."""
    problem = inputs / "mixed.json"
    problem.write_text(json.dumps(mixed_problem(), sort_keys=True))
    base = ["--problem", str(problem)]
    return [
        ["solve", *base, "--alpha", str(SOFT_ALPHA), "--trace", "mixed.soft.csv",
         "--out", "mixed.soft.json"],
        ["solve", *base, "--alpha", str(HARD_ALPHA), "--max-iter", str(RING["hard_max_iter"]),
         "--out", "mixed.hard.json"],
        ["verify", *base, "--profile", "mixed.soft.json", "--out", "mixed.verify.json"],
        ["sweep", *base, "--alpha-grid", "0.5:8:log:3", "--restarts", "2", "--seed", "3",
         "--max-iter", "200", "--out", "mixed.sweep.csv"],
    ]


def malformed_problems() -> dict[str, dict]:
    """Problem documents that `validate` refuses, by name: at least one for
    each kind of problem it words that a problem file can carry (a dense
    table in the other mode's class cannot: the loader picks the class by
    mode), and one pairwise table holding a string that spells a number,
    which the loader refuses."""
    table = [[0.0, 1.0], [1.0, 0.0]]

    def pairwise(*terms):
        return {"pairwise": [{"with": other, "table": rows} for other, rows in terms]}

    def dense(order, values):
        return {"dense": {"order": order, "values": values}}

    def problem(objective, mode="energy", cards=(2, 2), acts_on="y", names=("x", "y"),
                agent_names=("A", "B"), hbar=1.0):
        other = pairwise(("x", table)) if mode == "energy" else dense(["y", "x"], [1, 2, 3, 4])
        return {
            "mode": mode,
            "hbar": hbar,
            "variables": [{"name": n, "cardinality": c} for n, c in zip(names, cards)],
            "agents": [
                {"name": agent_names[0], "acts_on": "x", "objective": objective},
                {"name": agent_names[1], "acts_on": acts_on, "objective": other},
            ],
        }

    inf = math.inf
    return {
        "pairwise-unknown": problem(pairwise(("q", table))),
        "pairwise-self": problem(pairwise(("x", table), ("y", table))),
        "pairwise-twice": problem(pairwise(("y", table), ("y", [[0.0, 2.0], [2.0, 0.0]]))),
        "pairwise-shape": problem(pairwise(("y", [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]))),
        "pairwise-nonfinite": problem(pairwise(("y", [[0.0, inf], [1.0, 0.0]]))),
        "dense-omits-own": problem(dense(["y"], [0.0, 1.0])),
        "dense-twice": problem(dense(["x", "x"], [0.0, 1.0, 1.0, 0.0])),
        "dense-unknown": problem(dense(["x", "q"], [0.0, 1.0, 1.0, 0.0])),
        "dense-size": problem(dense(["x", "y"], [0.0, 1.0, 1.0])),
        "dense-nonfinite": problem(dense(["x", "y"], [0.0, -inf, 1.0, 0.0])),
        # A's empty table is right only for a domain size that wrapped to 0;
        # B's is wrong at any size, so solve never builds 2**32-entry profiles.
        "dense-size-2to64": problem(dense(["x", "y"], []), "utility", cards=(2**32, 2**32)),
        "negative-utility": problem(dense(["x", "y"], [1.0, -1.0, 1.0, 1.0]), "utility"),
        "pairwise-in-utility": problem(pairwise(("y", table)), "utility"),
        "duplicate-variables": problem(pairwise(("y", table)), names=("x", "x")),
        "duplicate-agents": problem(pairwise(("y", table)), agent_names=("A", "A")),
        "not-one-to-one": problem(pairwise(("y", table)), acts_on="x"),
        "cardinality-1": problem(pairwise(("y", table)), cards=(2, 1)),
        "hbar-0": problem(pairwise(("y", table)), hbar=0.0),
        "hbar-negative": problem(pairwise(("y", table)), hbar=-1.0),
        "no-variables": {"mode": "energy", "variables": [], "agents": []},
        "pairwise-numeric-string": problem(pairwise(("y", [["1", "0"], [0, 1]]))),
    }


def malformed_jobs(inputs: Path) -> list[list[str]]:
    """`coopt solve` on each malformed problem; writes them to inputs."""
    jobs = []
    for name, doc in malformed_problems().items():
        problem = inputs / f"bad.{name}.json"
        problem.write_text(json.dumps(doc))
        jobs.append(["solve", "--problem", str(problem), "--alpha", str(SOFT_ALPHA),
                     "--out", f"bad.{name}.json"])
    return jobs


def malformed_profiles() -> tuple[dict, dict[str, object]]:
    """A problem with a nine-action agent A and a two-action agent B, and
    profile documents for it by name: at least one for each message that
    `load_profile` and `validate_profile` word.  The two "sum-rounding"
    distributions of A sum to within rounding of 1 + PROBABILITY_TOL, and
    adding their entries in order lands on the other side of the tolerance
    from their own sum(), which decides: one is refused, one accepted."""
    problem = {
        "mode": "energy",
        "hbar": 1.0,
        "variables": [{"name": "x", "cardinality": 9}, {"name": "y", "cardinality": 2}],
        "agents": [
            {"name": "A", "acts_on": "x", "objective": {"pairwise": [
                {"with": "y", "table": [[i / 8, 1 - i / 8] for i in range(9)]}]}},
            {"name": "B", "acts_on": "y", "objective": {"pairwise": [
                {"with": "x", "table": [[i / 8 for i in range(9)], [1 - i / 8 for i in range(9)]]}]}},
        ],
    }
    uniform = [1 / 9] * 9

    def profile(a=uniform, b=(0.5, 0.5)):
        return {"profile": {"A": a, "B": b}}

    return problem, {
        "not-object": [uniform],
        "no-profile": {"A": uniform},
        "missing-agent": {"profile": {"A": uniform}},
        "not-list": profile(b=0.5),
        "not-numbers": profile(b=["half", 0.5]),
        "numeric-strings": profile(b=["0.5", "0.5"]),
        "length": profile(b=[0.25, 0.25, 0.5]),
        "two-dimensional": profile(b=[[0.5], [0.5]]),
        "non-finite": profile(b=[math.nan, 0.5]),
        "negative": profile(b=[-0.5, 1.5]),
        "sum-off": profile(b=[0.5, 0.5 + 1e-11]),
        "sum-rounding-refused": profile([
            0.06209318549706376, 0.18473105354374872, 0.24183856040285448,
            0.0514401653065641, 0.06988477199585567, 0.1927859162159184,
            0.07538188143072368, 0.09902396018590492, 0.02282050542236616]),
        "sum-rounding-accepted": profile([
            0.04714707681792982, 0.08299614415975826, 0.08352223924524174,
            0.0209700634864664, 0.07627787347286556, 0.10484190118579945,
            0.12483953324844663, 0.41044151107914456, 0.04896365730534747]),
    }


def malformed_profile_jobs(inputs: Path) -> list[list[str]]:
    """`coopt verify` on each malformed profile; writes them and their
    problem to inputs."""
    problem_doc, profiles = malformed_profiles()
    problem = inputs / "profile-problem.json"
    problem.write_text(json.dumps(problem_doc))
    jobs = []
    for name, doc in profiles.items():
        path = inputs / f"bad-profile.{name}.json"
        path.write_text(json.dumps(doc))
        jobs.append(["verify", "--problem", str(problem), "--profile", str(path),
                     "--out", f"bad-profile.{name}.json"])
    return jobs


def malformed_hamiltonians() -> dict[str, dict]:
    """Hamiltonian documents that `load_hamiltonian` refuses, by name: at
    least one for each message it words."""
    return {
        "no-key": {},
        "two-keys": {"diagonal": [1.0], "dense": [[1.0]]},
        "unknown-key": {"matrix": [[1.0]]},
        "dense-numeric-strings": {"dense": [["2", "-1"], ["-1", "2"]]},
        "dense-null": {"dense": [[2.0, None], [-1.0, 2.0]]},
        "potential-2d": {"grid": {"xmin": -1.0, "xmax": 1.0, "n": 4,
                                  "potential": [[0.0, 1.0], [1.0, 0.0]]}},
        "diagonal-not-numbers": {"diagonal": ["x", 1.0]},
        "dense-asymmetric": {"dense": [[0.0, 1.0], [0.5, 0.0]]},
    }


def malformed_hamiltonian_jobs(inputs: Path) -> list[list[str]]:
    """`coopt quantum` on each malformed Hamiltonian; writes them to inputs."""
    jobs = []
    for name, doc in malformed_hamiltonians().items():
        path = inputs / f"bad-hamiltonian.{name}.json"
        path.write_text(json.dumps(doc))
        jobs.append(["quantum", "--hamiltonian", str(path),
                     "--out", f"bad-hamiltonian.{name}.json"])
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
        [*base, "--hbar", str(HBAR), "--states", "2", "--out", f"oscillator.hbar{HBAR}.json"],
    ]


def trajectory_jobs(inputs: Path) -> list[list]:
    """(problem, t_max, digest file) for evolve_coupled on pairwise_chain,
    as bundled and at hbar = HBAR, on the first ring and on the mixed ring;
    writes their problem files to inputs."""
    seed = RING_SEEDS[0]
    chain = inputs / "pairwise_chain.json"
    shutil.copyfile(bundled_path("pairwise_chain"), chain)
    chain_hbar = inputs / f"pairwise_chain.hbar{HBAR}.json"
    chain_hbar.write_text(json.dumps({**json.loads(chain.read_text()), "hbar": HBAR}))
    ring = inputs / f"ring{seed}.json"
    write_ring(ring, seed, RING["agents"], RING["actions"])
    mixed = inputs / "mixed.json"
    mixed.write_text(json.dumps(mixed_problem(), sort_keys=True))
    return [
        [str(chain), 1000.0, "pairwise_chain.coupled.sha256"],
        [str(chain_hbar), 1000.0, f"pairwise_chain.hbar{HBAR}.coupled.sha256"],
        [str(ring), RING_T_MAX, f"ring{seed}.coupled.sha256"],
        [str(mixed), RING_T_MAX, "mixed.coupled.sha256"],
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


def _cell(text: str):
    """A CSV cell as a float when it reads as one."""
    try:
        return float(text)
    except ValueError:
        return text


def _largest(old, new) -> float:
    """Largest absolute difference between the numbers of two parsed
    documents; raises ValueError where they differ in anything else."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise ValueError("keys differ")
        return max((_largest(old[k], new[k]) for k in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise ValueError("lengths differ")
        return max((_largest(a, b) for a, b in zip(old, new)), default=0.0)
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)]
    if not all(numbers):
        if old != new:
            raise ValueError("values differ")
        return 0.0
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    difference = abs(old - new)
    return math.inf if math.isnan(difference) else float(difference)


def largest_difference(old: Path, new: Path) -> float | None:
    """Largest absolute difference between corresponding numbers of two .json
    files, or of two .csv files cell by cell; None when they differ in
    anything but numbers."""
    def parse(path: Path):
        text = path.read_text()
        if path.suffix == ".json":
            return json.loads(text)
        return [[_cell(cell) for cell in line.split(",")] for line in text.splitlines()]

    try:
        return _largest(parse(old), parse(new))
    except ValueError:
        return None


def describe(name: str, old: Path, new: Path) -> str:
    """name, with the size of its difference when it is a .json or .csv file
    present in both directories."""
    if Path(name).suffix not in (".json", ".csv") or not (
        (old / name).is_file() and (new / name).is_file()
    ):
        return name
    largest = largest_difference(old / name, new / name)
    if largest is None:
        return f"{name} (structure differs)"
    return f"{name} (largest absolute difference {largest:.3g})"


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
        jobs = (game_jobs(inputs) + ring_jobs(inputs) + cycle_jobs(inputs) + mixed_jobs(inputs)
                + quantum_jobs(inputs) + malformed_jobs(inputs) + malformed_profile_jobs(inputs)
                + malformed_hamiltonian_jobs(inputs))
        found = compare(args.old_root, args.new_root, jobs, workdir,
                        trajectory_jobs(inputs), spectrum_jobs(inputs))
        compared = len(list((workdir / "new").iterdir()))
        for line in found:
            print(f"differs: {describe(line, workdir / 'old', workdir / 'new')}")
    print(f"{len(jobs)} jobs, {compared} output files, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
