"""The three workloads: their seeded inputs, their jobs and each job's check.

Every job is a call into coopt's public surface: `coopt.cli.main(argv)` in
process, or a public function.  Names are looked up on coopt's modules at
call time, so the tracer's wrappers are seen when they are installed.
Checks run after a pass, outside the timed region, and return the
problems they find (an empty list when the output is correct).
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

TOL = 1e-10  # coopt's default discrete tol; the solve jobs keep it

# games-sweep: per problem, a log alpha grid and the sweep's expected exit
# code.  The grids keep the number of cycling cells independent of the
# seed: restarted cells of matching_pennies cycle at every alpha >= 3 and
# those of coordination at alpha = 1 (the map swaps the two players'
# strategies), while at other alphas above 2 coordination and
# pairwise_chain cycle on about half the seeds, which would make the cost
# of a pass depend on the seed.
GAMES = {
    "prisoners_dilemma": ("0.25:32:log:8", 0),
    "matching_pennies": ("0.5:4:log:4", 2),
    "coordination": ("0.25:1:log:3", 2),
    "pairwise_chain": ("0.25:2:log:4", 0),
}
GAMES_SMOKE = {name: ("0.25:0.5:log:2", 0) for name in GAMES}
RESTARTS = 2
SOFT_ALPHA = 0.5
HARD_ALPHA = 8.0

# ring-pairwise: t_max sits between step multiples (dt is 0.01 at unit
# scale) so that rounding of the scale cannot add a step.
RING = {"agents": 200, "actions": 5, "hard_max_iter": 50, "t_max": 0.295}
RING_SMOKE = {"agents": 8, "actions": 3, "hard_max_iter": 10, "t_max": 0.045}

OSCILLATOR_SMOKE_POINTS = 21


@dataclass
class Job:
    name: str
    phase: str  # sweep | solve | evolve | certify
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    jobs: list
    sweep_cells: int  # (alpha, restart) cells per pass
    consistency: Callable  # (layer metrics, trace summary) -> problems


def _load(path):
    with open(path) as f:
        return json.load(f)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _cli_job(coopt, name, phase, argv, expected_exit, check_output):
    def check(code):
        if code != expected_exit:
            return [f"exit code {code}, expected {expected_exit}"]
        return check_output()

    return Job(name, phase, lambda: coopt.cli.main(argv), check)


def _lazy(factory):
    """Build a reference object on first use, outside set-up and timing."""
    cache = []

    def get():
        if not cache:
            cache.append(factory())
        return cache[0]

    return get


def _check_solve(problem, path, alpha, converged, max_iter=None, trace_csv=None):
    def check():
        doc = _load(path)
        profile = problem().profile(doc)
        out = []
        if doc["converged"] is not converged:
            out.append(f"converged={doc['converged']}, expected {converged}")
        if not all(reference.is_distribution(p) for p in profile):
            out.append("profile is not a set of distributions")
            return out
        if converged:
            step = problem().map_step(profile, alpha)
            moved = max(float(np.abs(a - b).max()) for a, b in zip(step, profile))
            if moved > 10 * TOL:
                out.append(f"one more map step moves the profile by {moved:.3g}")
        elif doc["iterations"] != max_iter:
            out.append(f"stopped after {doc['iterations']} of {max_iter} iterations")
        if "epsilon_certificate" in doc:
            got, want = doc["epsilon_certificate"]["epsilon"], problem().epsilon(profile)
            if not _close(got, want):
                out.append(f"epsilon {got!r} differs from recomputed {want!r}")
        if trace_csv is not None:
            with open(trace_csv) as f:
                rows = sum(1 for _ in f) - 1
            if rows != doc["iterations"]:
                out.append(f"trace CSV has {rows} rows for {doc['iterations']} iterations")
        return out

    return check


def _check_verify(problem, path, profile_path):
    def check():
        want = problem().epsilon(problem().profile(_load(profile_path)))
        got = _load(path)["epsilon"]
        return [] if _close(got, want) else [f"epsilon {got!r} differs from recomputed {want!r}"]

    return check


def _check_nash(problem, path):
    def check():
        doc = _load(path)
        names = problem().names
        got = {tuple(e[n] for n in names) for e in doc["equilibria"]}
        want = problem().pure_nash()
        return [] if got == want else [f"equilibria {sorted(got)} != brute force {sorted(want)}"]

    return check


def _check_sweep(path, rows):
    first = []

    def check():
        with open(path, "rb") as f:
            data = f.read()
        out = []
        found = data.count(b"\n") - 1
        if found != rows:
            out.append(f"{found} rows, expected {rows}")
        if first and data != first[0]:
            out.append("CSV bytes differ from the first pass")
        first[:1] = [data]
        return out

    return check


def _sweep_iterations(path) -> int:
    with open(path) as f:
        return sum(int(row["iterations"]) for row in csv.DictReader(f))


def _check_iterations(metrics, expected):
    got = metrics["discrete.iterate_to_fixed_point.iterations"]
    if got != expected:
        return [f"traced iterations {got} != {expected} reported by the outputs"]
    return []


def games_sweep(coopt, seed, workdir, smoke):
    games = GAMES_SMOKE if smoke else GAMES
    jobs, cells, outputs = [], 0, []
    for name, (grid, sweep_exit) in games.items():
        problem_path = os.path.join(workdir, f"{name}.json")
        shutil.copyfile(coopt.bundled_path(name), problem_path)
        problem = _lazy(lambda p=problem_path: reference.Problem(p))
        n_cells = int(grid.split(":")[3]) * RESTARTS
        cells += n_cells
        path = lambda kind, name=name: os.path.join(workdir, f"{name}.{kind}")  # noqa: E731
        base = ["--problem", problem_path]
        jobs.append(_cli_job(
            coopt, f"sweep {name}", "sweep",
            ["sweep", *base, "--alpha-grid", grid, "--restarts", str(RESTARTS),
             "--seed", str(seed), "--out", path("sweep.csv")],
            sweep_exit, _check_sweep(path("sweep.csv"), n_cells),
        ))
        for kind, alpha in (("soft", SOFT_ALPHA), ("hard", HARD_ALPHA)):
            jobs.append(_cli_job(
                coopt, f"solve {kind} {name}", "solve",
                ["solve", *base, "--alpha", str(alpha), "--out", path(f"{kind}.json")],
                0, _check_solve(problem, path(f"{kind}.json"), alpha, True),
            ))
        jobs.append(_cli_job(
            coopt, f"nash {name}", "certify",
            ["nash", *base, "--out", path("nash.json")],
            0, _check_nash(problem, path("nash.json")),
        ))
        jobs.append(_cli_job(
            coopt, f"verify {name}", "certify",
            ["verify", *base, "--profile", path("soft.json"), "--out", path("verify.json")],
            0, _check_verify(problem, path("verify.json"), path("soft.json")),
        ))
        outputs.append(path)

    def consistency(metrics, summary):
        expected = sum(
            _sweep_iterations(path("sweep.csv"))
            + _load(path("soft.json"))["iterations"]
            + _load(path("hard.json"))["iterations"]
            for path in outputs
        )
        return _check_iterations(metrics, expected)

    return Workload(jobs, cells, consistency)


def ring_problem(seed: int, agents: int, actions: int) -> dict:
    """Ring of agents, each with one pairwise energy table per neighbour.

    Edge tables are uniform in (-1, 1), drawn from coopt's splitmix64 seeded
    with `seed`; agent i holds edge (i, i+1) and the transpose of edge
    (i-1, i), so the agents share one total energy.  All tables are then
    scaled so the largest mean-field energy at the uniform state is 1: the
    energy unit, and with it the default integrator step, does not vary
    with the seed.
    """
    from coopt.rng import SplitMix64

    stream = SplitMix64(seed)
    edges = np.array(
        [stream.uniform_signed() for _ in range(agents * actions * actions)]
    ).reshape(agents, actions, actions)
    left = np.roll(edges, 1, axis=0).transpose(0, 2, 1)
    edges /= np.abs(edges.mean(axis=2) + left.mean(axis=2)).max()
    left = np.roll(edges, 1, axis=0).transpose(0, 2, 1)
    return {
        "mode": "energy",
        "hbar": 1.0,
        "variables": [{"name": f"x{i}", "cardinality": actions} for i in range(agents)],
        "agents": [
            {
                "name": f"agent{i}",
                "acts_on": f"x{i}",
                "objective": {"pairwise": [
                    {"with": f"x{(i - 1) % agents}", "table": left[i].tolist()},
                    {"with": f"x{(i + 1) % agents}", "table": edges[i].tolist()},
                ]},
            }
            for i in range(agents)
        ],
    }


def write_ring(path, seed: int, agents: int, actions: int) -> None:
    with open(path, "w") as f:
        json.dump(ring_problem(seed, agents, actions), f, sort_keys=True)


def ring_pairwise(coopt, seed, workdir, smoke):
    shape = RING_SMOKE if smoke else RING
    problem_path = os.path.join(workdir, "ring.json")
    write_ring(problem_path, seed, shape["agents"], shape["actions"])
    model = coopt.fileio.load_problem(problem_path)
    problem = _lazy(lambda: reference.Problem(problem_path))
    path = lambda kind: os.path.join(workdir, f"ring.{kind}")  # noqa: E731
    base = ["--problem", problem_path]
    max_iter = shape["hard_max_iter"]

    def evolve():
        return coopt.continuous.evolve_coupled(model, t_max=shape["t_max"], record_every=1)

    def check_evolve(result):
        points, _ = result
        amplitudes = points[-1].amplitudes
        if len(amplitudes) != shape["agents"]:
            return [f"{len(amplitudes)} amplitude vectors for {shape['agents']} agents"]
        if not all(np.isfinite(a).all() and abs(np.linalg.norm(a) - 1.0) <= 1e-9 for a in amplitudes):
            return ["amplitudes are not finite unit vectors"]
        return []

    jobs = [
        _cli_job(
            coopt, "solve soft ring", "solve",
            ["solve", *base, "--alpha", str(SOFT_ALPHA), "--trace", path("trace.csv"),
             "--out", path("soft.json")],
            0, _check_solve(problem, path("soft.json"), SOFT_ALPHA, True,
                            trace_csv=path("trace.csv")),
        ),
        _cli_job(
            coopt, "solve hard ring", "solve",
            ["solve", *base, "--alpha", str(HARD_ALPHA), "--max-iter", str(max_iter),
             "--out", path("hard.json")],
            2, _check_solve(problem, path("hard.json"), HARD_ALPHA, False, max_iter=max_iter),
        ),
        _cli_job(
            coopt, "verify ring", "certify",
            ["verify", *base, "--profile", path("soft.json"), "--out", path("verify.json")],
            0, _check_verify(problem, path("verify.json"), path("soft.json")),
        ),
        Job("evolve_coupled ring", "evolve", evolve, check_evolve),
    ]

    def consistency(metrics, summary):
        expected = _load(path("soft.json"))["iterations"] + _load(path("hard.json"))["iterations"]
        out = _check_iterations(metrics, expected)
        rk4 = summary.calls_under("numerics.rk4_step", "continuous.evolve_coupled")
        steps = metrics["continuous.evolve_coupled.steps"]
        if rk4 != shape["agents"] * steps:
            out.append(f"{rk4} RK4 calls under evolve_coupled for {steps} steps "
                       f"of {shape['agents']} agents")
        return out

    return Workload(jobs, 0, consistency)


def _write_small_grid(path, n):
    x = np.linspace(-3.0, 3.0, n)
    with open(path, "w") as f:
        json.dump({"grid": {"xmin": -3.0, "xmax": 3.0, "n": n,
                            "potential": (0.5 * x * x).tolist()}}, f)


def oscillator(coopt, seed, workdir, smoke):
    # The instance is fixed; the seed only labels the run.
    hamiltonian_path = os.path.join(workdir, "oscillator.json")
    if smoke:
        _write_small_grid(hamiltonian_path, OSCILLATOR_SMOKE_POINTS)
    else:
        shutil.copyfile(coopt.bundled_path("harmonic_oscillator"), hamiltonian_path)
    operator = coopt.fileio.load_hamiltonian(hamiltonian_path)
    matrix = _lazy(lambda: reference.grid_hamiltonian(hamiltonian_path))
    exact = _lazy(lambda: np.linalg.eigvalsh(matrix()))
    out_path = os.path.join(workdir, "quantum.json")

    def check_quantum():
        doc = _load(out_path)
        state = doc["states"][0]
        out = []
        if not state["converged"] or state["residual"] > doc["tol"]:
            out.append(f"not converged: residual {state['residual']!r}, tol {doc['tol']!r}")
        if abs(state["rayleigh"] - exact()[0]) > 1e-6:
            out.append(f"Rayleigh value {state['rayleigh']!r} is not the lowest "
                       f"eigenvalue {exact()[0]!r}")
        return out

    def check_jacobi(decomposition):
        error = float(np.abs(decomposition.eigenvalues - exact()).max())
        bound = 1e-9 * float(np.linalg.norm(matrix()))
        return [] if error <= bound else [f"Jacobi eigenvalues off by {error:.3g} > {bound:.3g}"]

    jobs = [
        _cli_job(
            coopt, "quantum", "evolve",
            ["quantum", "--hamiltonian", hamiltonian_path,
             "--trace", os.path.join(workdir, "quantum.csv"), "--out", out_path],
            0, check_quantum,
        ),
        Job("jacobi_eigen", "certify", lambda: coopt.numerics.jacobi_eigen(operator), check_jacobi),
    ]

    def consistency(metrics, summary):
        doc = _load(out_path)
        steps = round(doc["states"][0]["time"] / doc["dt"])
        counts = (metrics["continuous.evolve_linear.steps"], metrics["numerics.rk4_step.calls"])
        if counts != (steps, steps):
            return [f"evolve_linear steps and RK4 calls {counts} != time/dt {steps}"]
        return []

    return Workload(jobs, 0, consistency)


BUILDERS = {"games-sweep": games_sweep, "ring-pairwise": ring_pairwise, "oscillator": oscillator}


def prepare(name, coopt, seed, workdir, smoke=False) -> Workload:
    """Generate or copy the workload's inputs into workdir and load what the
    direct-call jobs need; this is what setup_s measures."""
    return BUILDERS[name](coopt, seed, workdir, smoke)
