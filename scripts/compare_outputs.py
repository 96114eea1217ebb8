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
trace), for its three lowest states from a seeded random start, for its
two lowest at hbar = 0.37 and with a `--dt` past the RK4 monotone limit,
which is refused, `coopt quantum` on the diagonal Hamiltonian
[1000, 1001, 1002], whose spectrum lies far from 0, `coopt quantum` with a
trace on a seeded diagonal Hamiltonian and on a seeded, exactly symmetric dense 12 x 12 one
with entries off its bands, `solve`, `sweep` and `nash` on an
anti-coordination game whose variables are listed in the reverse of its
agents' order, `solve` (with a trace), `sweep`, `verify` and `nash` on a
seeded three-player utility game whose every dense table covers all three
variables, so that its contraction plan has no edges, `solve` (with a
trace), `sweep` and `nash` on a seeded four-agent energy game whose agent 0
holds pairwise terms of two shapes, which its contraction plan adds in
another order than the terms, and `coopt solve` on malformed problem files,
at least one per kind of problem `validate` words, one with a numeric
string in a pairwise table, one with true or false in each numeric field,
one whose objective holds a key beside `dense`, one whose objective holds
both `dense` and `pairwise`, and one that is UTF-16, not UTF-8,
`coopt verify` on
malformed profile files, at least one per message that `load_profile` and
`validate_profile` word, one with true and false in an entry and one with
true in a field that is not read, and `coopt quantum` on malformed
Hamiltonian files, at least one per message that `load_hamiltonian` words
and one with true or false in each numeric field, and `coopt solve` where
the map or its output leaves the float range or an agent's returns are all
zero (`pairwise_chain` at hbar = 1e-4 and 1e-320, and a generated utility
game), `coopt sweep` on a utility game whose payoffs are finite but
whose mean payoff overflows, and `coopt sweep` with cells the map refuses
(a two-agent energy game whose returns overflow at alpha 2 only, and the
all-zero utility game), once per tree in a fresh
interpreter with that tree's src/ on the path; every job's stderr is an
output file too, so error messages are compared byte for byte.  Then, in
a second fresh interpreter that runs no CLI job, so that no digest depends
on what ran before it, it runs `continuous.evolve_coupled` on
`pairwise_chain` to convergence, at its own hbar = 1 and at hbar = 0.37,
and on the seed-1 ring and the mixed
ring to t = 5, recording every step, and writes a sha256 over every
trajectory point's time, amplitudes, Rayleigh values and residuals, and a
sha256 of the eigenvalues from `numerics.jacobi_eigen` of the bundled
oscillator and of both seeded Hamiltonians (their eigenvectors are not
compared: they depend on the oracle's start vectors, not only on the
matrix).  Both trees read the same input files.
Exits 1 listing every output file whose bytes differ, or every job whose
exit code differs; 0 when all match.  A differing .json or .csv file is
listed with the largest absolute difference between its corresponding
numbers under each top-level JSON key or in each CSV column that moved, or
with "structure differs" when anything else in it differs, so that a change
at rounding level reads as one even beside a larger change elsewhere.

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

# Runs the CLI jobs, then the trajectory jobs and the spectrum jobs it is
# given; each CLI job's stderr goes to its --out file name plus ".stderr",
# and the jobs' exit codes go to stdout as JSON.
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


def reversed_game_jobs(inputs: Path) -> list[list[str]]:
    """CLI argv lists for a utility game where each agent is paid 1 where
    the two actions differ, whose variables are listed in the reverse of
    its agents' order; writes its problem file to inputs."""
    values = [0.0, 1.0, 1.0, 0.0]
    problem = inputs / "reversed.json"
    problem.write_text(json.dumps({
        "mode": "utility",
        "variables": [{"name": "y", "cardinality": 2}, {"name": "x", "cardinality": 2}],
        "agents": [
            {"name": "left", "acts_on": "x",
             "objective": {"dense": {"order": ["x", "y"], "values": values}}},
            {"name": "right", "acts_on": "y",
             "objective": {"dense": {"order": ["y", "x"], "values": values}}},
        ],
    }))
    base = ["--problem", str(problem)]
    return [
        ["solve", *base, "--alpha", str(SOFT_ALPHA), "--init", "random", "--seed", "7",
         "--out", "reversed.solve.json"],
        ["sweep", *base, "--alpha-grid", "0.5:8:log:3", "--restarts", "2", "--seed", "3",
         "--out", "reversed.sweep.csv"],
        ["nash", *base, "--out", "reversed.nash.json"],
    ]


def dense_three_problem() -> dict:
    """A seeded utility game of three agents over 2, 3 and 4 actions, each
    paid by a dense table over all three variables listed from its own
    variable on: every table of the contraction plan is over two other
    agents."""
    from coopt.rng import SplitMix64

    stream = SplitMix64(11)
    cards = (2, 3, 4)
    return {
        "mode": "utility",
        "variables": [{"name": f"x{i}", "cardinality": c} for i, c in enumerate(cards)],
        "agents": [
            {"name": f"p{i}", "acts_on": f"x{i}", "objective": {"dense": {
                "order": [f"x{(i + k) % 3}" for k in range(3)],
                "values": [stream.uniform() for _ in range(math.prod(cards))],
            }}}
            for i in range(3)
        ],
    }


def dense_three_jobs(inputs: Path) -> list[list[str]]:
    """CLI argv lists for the three-player dense game; writes its problem
    file to inputs."""
    problem = inputs / "dense3.json"
    problem.write_text(json.dumps(dense_three_problem()))
    base = ["--problem", str(problem)]
    return [
        ["solve", *base, "--alpha", str(SOFT_ALPHA), "--trace", "dense3.soft.csv",
         "--out", "dense3.soft.json"],
        ["sweep", *base, "--alpha-grid", "0.5:8:log:3", "--restarts", "2", "--seed", "3",
         "--max-iter", "200", "--out", "dense3.sweep.csv"],
        ["verify", *base, "--profile", "dense3.soft.json", "--out", "dense3.verify.json"],
        ["nash", *base, "--out", "dense3.nash.json"],
    ]


def term_order_problem() -> dict:
    """A seeded energy game over x0..x3 with 2, 3, 2 and 3 actions and
    energies in (-3, 3).  Agent 0 holds pairwise terms with x1, x2 and x3,
    in that order, of two shapes, so the contraction plan adds its tables
    in another order than its terms; agents 1-3 each hold one term back to
    x0."""
    from coopt.rng import SplitMix64

    stream = SplitMix64(3)
    cards = (2, 3, 2, 3)

    def term(i, j):
        table = [[3.0 * stream.uniform_signed() for _ in range(cards[j])] for _ in range(cards[i])]
        return {"with": f"x{j}", "table": table}

    terms = {0: [term(0, j) for j in (1, 2, 3)]}
    terms.update({i: [term(i, 0)] for i in (1, 2, 3)})
    return {
        "mode": "energy",
        "variables": [{"name": f"x{i}", "cardinality": c} for i, c in enumerate(cards)],
        "agents": [{"name": f"agent{i}", "acts_on": f"x{i}", "objective": {"pairwise": terms[i]}}
                   for i in range(4)],
    }


def term_order_jobs(inputs: Path) -> list[list[str]]:
    """CLI argv lists for the game whose plan adds agent 0's tables out of
    term order; writes its problem file to inputs."""
    problem = inputs / "terms.json"
    problem.write_text(json.dumps(term_order_problem()))
    base = ["--problem", str(problem)]
    return [
        ["solve", *base, "--alpha", str(SOFT_ALPHA), "--trace", "terms.soft.csv",
         "--out", "terms.soft.json"],
        ["sweep", *base, "--alpha-grid", "0.5:8:log:3", "--restarts", "2", "--seed", "3",
         "--out", "terms.sweep.csv"],
        ["nash", *base, "--out", "terms.nash.json"],
    ]


def seeded_hamiltonians() -> dict[str, dict]:
    """A seeded diagonal Hamiltonian and a seeded dense 12 x 12 one, exactly
    symmetric (b + b.T, whose sums commute), by name."""
    from coopt.rng import SplitMix64

    stream = SplitMix64(11)
    diagonal = [stream.uniform_signed() for _ in range(9)]
    b = [[stream.uniform_signed() for _ in range(12)] for _ in range(12)]
    dense = [[b[i][j] + b[j][i] for j in range(12)] for i in range(12)]
    return {"diagonal": {"diagonal": diagonal}, "dense": {"dense": dense}}


def seeded_hamiltonian_jobs(inputs: Path) -> tuple[list[list[str]], list[list[str]]]:
    """`coopt quantum` with a trace on each seeded Hamiltonian, and its
    spectrum job; writes them to inputs."""
    jobs, spectra = [], []
    for name, doc in seeded_hamiltonians().items():
        path = inputs / f"seeded.{name}.json"
        path.write_text(json.dumps(doc))
        jobs.append(["quantum", "--hamiltonian", str(path), "--trace",
                     f"seeded.{name}.trace.csv", "--out", f"seeded.{name}.json"])
        spectra.append([str(path), f"seeded.{name}.eigenvalues.sha256"])
    return jobs, spectra


def malformed_problems() -> dict[str, dict | bytes]:
    """Problem documents that `validate` refuses, by name: at least one for
    each kind of problem it words that a problem file can carry (a dense
    table in the other mode's class cannot: the loader picks the class by
    mode); and ones the loader refuses: a pairwise table holding a string
    that spells a number, true or false in each numeric field, an
    objective holding a key beside `dense`, one holding both `dense` and
    `pairwise`, and a file's bytes in UTF-16."""
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
        "pairwise-bool": problem(pairwise(("y", [[0.0, True], [1.0, 0.0]]))),
        "dense-values-bool": problem(dense(["x", "y"], [True, 0.0, 0.0, 1.0])),
        "objective-extra-key": problem({**dense(["x", "y"], [0.0, 1.0, 1.0, 0.0]), "note": "x"}),
        "objective-dense-and-pairwise": problem(
            {**dense(["x", "y"], [0.0, 1.0, 1.0, 0.0]), **pairwise(("y", table))}),
        "hbar-bool": problem(pairwise(("y", table)), hbar=True),
        "utf-16": json.dumps(problem(pairwise(("y", table)))).encode("utf-16"),
    }


def malformed_jobs(inputs: Path) -> list[list[str]]:
    """`coopt solve` on each malformed problem; writes them to inputs."""
    jobs = []
    for name, doc in malformed_problems().items():
        problem = inputs / f"bad.{name}.json"
        problem.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        jobs.append(["solve", "--problem", str(problem), "--alpha", str(SOFT_ALPHA),
                     "--out", f"bad.{name}.json"])
    return jobs


def write_all_zero_game(inputs: Path) -> Path:
    """Writes to inputs a utility game whose agent `Col` has all-zero
    utilities, which the map refuses at its first step."""
    zero = inputs / "all-zero.json"
    zero.write_text(json.dumps({
        "mode": "utility",
        "variables": [{"name": "r", "cardinality": 2}, {"name": "c", "cardinality": 2}],
        "agents": [
            {"name": "Row", "acts_on": "r",
             "objective": {"dense": {"order": ["r", "c"], "values": [1, 2, 3, 4]}}},
            {"name": "Col", "acts_on": "c",
             "objective": {"dense": {"order": ["r", "c"], "values": [0, 0, 0, 0]}}},
        ],
    }))
    return zero


def refusal_jobs(inputs: Path) -> list[list[str]]:
    """`coopt solve` runs that are refused once the map has run:
    `pairwise_chain` at an hbar whose expected returns overflow only on
    output, and at one where the map's own returns leave the float range,
    and a utility game whose agent `Col` has all-zero utilities; writes
    their problem files to inputs."""
    chain = str(inputs / "pairwise_chain.json")
    shutil.copyfile(bundled_path("pairwise_chain"), chain)
    zero = write_all_zero_game(inputs)
    solve = ["solve", "--alpha", str(SOFT_ALPHA), "--problem"]
    return [
        [*solve, chain, "--hbar", "1e-4", "--out", "refused.hbar1e-4.json"],
        [*solve, chain, "--hbar", "1e-320", "--out", "refused.hbar1e-320.json"],
        [*solve, str(zero), "--out", "refused.all-zero.json"],
    ]


def overflow_sweep_jobs(inputs: Path) -> list[list[str]]:
    """`coopt sweep` on a utility game whose payoffs are finite (1.35e308
    each at the uniform profile) but whose mean payoff overflows; writes
    its problem file to inputs."""
    values = [1e308, 1.7e308, 1.7e308, 1e308]
    problem = inputs / "overflow.json"
    problem.write_text(json.dumps({
        "mode": "utility",
        "variables": [{"name": "x", "cardinality": 2}, {"name": "y", "cardinality": 2}],
        "agents": [
            {"name": name, "acts_on": own,
             "objective": {"dense": {"order": ["x", "y"], "values": values}}}
            for name, own in (("a", "x"), ("b", "y"))
        ],
    }))
    return [["sweep", "--problem", str(problem), "--alpha-grid", "1:2:lin:2",
             "--out", "sweep.overflow.csv"]]


def refused_sweep_jobs(inputs: Path) -> list[list[str]]:
    """`coopt sweep` runs with cells the map refuses: a two-agent energy
    game whose agent B's expected return overflows at alpha 2 but not at
    alpha 1, and the all-zero utility game, whose every cell is refused;
    writes their problem files to inputs."""
    overflow = inputs / "overflow-at-alpha2.json"
    overflow.write_text(json.dumps({
        "mode": "energy",
        "hbar": 1.0,
        "variables": [{"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 2}],
        "agents": [
            {"name": "A", "acts_on": "a",
             "objective": {"pairwise": [{"with": "b", "table": [[1e308, -1e308], [0, 0]]}]}},
            {"name": "B", "acts_on": "b",
             "objective": {"pairwise": [{"with": "a", "table": [[0, 1], [1, 0]]}]}},
        ],
    }))
    sweep = ["--alpha-grid", "1:2:lin:2", "--restarts", "2"]
    return [
        ["sweep", "--problem", str(overflow), *sweep, "--out", "sweep.refused-alpha2.csv"],
        ["sweep", "--problem", str(write_all_zero_game(inputs)), *sweep,
         "--out", "sweep.refused-all-zero.csv"],
    ]


def malformed_profiles() -> tuple[dict, dict[str, object]]:
    """A problem with a nine-action agent A and a two-action agent B, and
    profile documents for it by name: at least one for each message that
    `load_profile` and `validate_profile` word, one with true and false in
    an entry, and one with true in a field that is not read, which is
    accepted.  The two "sum-rounding" distributions of A sum to within
    rounding of 1 + PROBABILITY_TOL, and adding their entries in order lands
    on the other side of the tolerance from their own sum(), which decides:
    one is refused, one accepted."""
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
        "bools": profile(b=[True, False]),
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
        "unread-bool-accepted": {**profile(), "notes": [True]},
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
    least one for each message it words, the dense operator's own among
    them, and one with true or false in each numeric field."""
    return {
        "no-key": {},
        "two-keys": {"diagonal": [1.0], "dense": [[1.0]]},
        "unknown-key": {"matrix": [[1.0]]},
        "dense-numeric-strings": {"dense": [["2", "-1"], ["-1", "2"]]},
        "dense-null": {"dense": [[2.0, None], [-1.0, 2.0]]},
        "potential-2d": {"grid": {"xmin": -1.0, "xmax": 1.0, "n": 4,
                                  "potential": [[0.0, 1.0], [1.0, 0.0]]}},
        "diagonal-not-numbers": {"diagonal": ["x", 1.0]},
        "diagonal-bool": {"diagonal": [True, 2.0]},
        "dense-bool": {"dense": [[2.0, False], [False, 2.0]]},
        "potential-bool": {"grid": {"xmin": -1.0, "xmax": 1.0, "n": 3,
                                    "potential": [0.0, True, 0.0]}},
        "dense-asymmetric": {"dense": [[0.0, 1.0], [0.5, 0.0]]},
        "dense-not-square": {"dense": [[1.0, 2.0]]},
        "dense-non-finite": {"dense": [[math.inf, 0.0], [0.0, 1.0]]},
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
    """CLI argv lists for the oscillator and for a diagonal spectrum far from
    0; writes their Hamiltonian files to inputs."""
    hamiltonian = str(inputs / "harmonic_oscillator.json")
    shutil.copyfile(bundled_path("harmonic_oscillator"), hamiltonian)
    shifted = inputs / "shifted-diagonal.json"
    shifted.write_text(json.dumps({"diagonal": [1000.0, 1001.0, 1002.0]}))
    base = ["quantum", "--hamiltonian", hamiltonian]
    return [
        [*base, "--trace", "oscillator.trace.csv", "--out", "oscillator.json"],
        [*base, "--states", "3", "--init", "random", "--seed", "1",
         "--out", "oscillator.states3.json"],
        [*base, "--hbar", str(HBAR), "--states", "2", "--out", f"oscillator.hbar{HBAR}.json"],
        [*base, "--dt", "1", "--out", "oscillator.dt-past-limit.json"],
        ["quantum", "--hamiltonian", str(shifted), "--out", "shifted-diagonal.json"],
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
    """Run the jobs with root's coopt in outdir, then the trajectory jobs and
    spectrum jobs in a second, fresh interpreter; returns the jobs' exit
    codes."""
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    codes = []
    for work in ([jobs, [], []], [[], list(trajectories), list(spectra)]):
        if any(work):
            done = subprocess.run(
                [sys.executable, "-c", RUNNER], input=json.dumps(work),
                cwd=outdir, env=env, capture_output=True, text=True, check=True,
            )
            codes += json.loads(done.stdout)
    return codes


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


def _columns(text: str) -> dict:
    """A CSV's cells by the column names of its first line."""
    header, *rows = [[_cell(cell) for cell in line.split(",")] for line in text.splitlines()]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged rows")
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def largest_differences(old: Path, new: Path) -> dict[str, float] | None:
    """Largest absolute difference between corresponding numbers of two .json
    files under each top-level key, or of two .csv files in each column;
    None when they differ in anything but numbers."""
    def parse(path: Path) -> dict:
        text = path.read_text()
        if path.suffix == ".csv":
            return _columns(text)
        doc = json.loads(text)
        return doc if isinstance(doc, dict) else {"": doc}

    try:
        old_doc, new_doc = parse(old), parse(new)
        if old_doc.keys() != new_doc.keys():
            return None
        return {key: _largest(old_doc[key], new_doc[key]) for key in old_doc}
    except ValueError:
        return None


def describe(name: str, old: Path, new: Path) -> str:
    """name, with the size of its difference under each top-level key or
    column that differs when it is a .json or .csv file present in both
    directories."""
    if Path(name).suffix not in (".json", ".csv") or not (
        (old / name).is_file() and (new / name).is_file()
    ):
        return name
    largest = largest_differences(old / name, new / name)
    if largest is None:
        return f"{name} (structure differs)"
    moved = ", ".join(f"{key} {value:.3g}" for key, value in largest.items() if value) or "none"
    unit = "column" if Path(name).suffix == ".csv" else "key"
    return f"{name} (largest absolute difference by {unit}: {moved})"


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
        seeded, seeded_spectra = seeded_hamiltonian_jobs(inputs)
        jobs = (game_jobs(inputs) + ring_jobs(inputs) + cycle_jobs(inputs) + mixed_jobs(inputs)
                + quantum_jobs(inputs) + seeded + reversed_game_jobs(inputs)
                + dense_three_jobs(inputs) + term_order_jobs(inputs)
                + malformed_jobs(inputs) + malformed_profile_jobs(inputs)
                + malformed_hamiltonian_jobs(inputs) + refusal_jobs(inputs)
                + overflow_sweep_jobs(inputs) + refused_sweep_jobs(inputs))
        found = compare(args.old_root, args.new_root, jobs, workdir,
                        trajectory_jobs(inputs), spectrum_jobs(inputs) + seeded_spectra)
        compared = len(list((workdir / "new").iterdir()))
        for line in found:
            print(f"differs: {describe(line, workdir / 'old', workdir / 'new')}")
    print(f"{len(jobs)} jobs, {compared} output files, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
