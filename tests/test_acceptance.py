"""Acceptance suite: one test per criterion, each with its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import helpers
from dense_expansion import densify
from coopt import bundled_path
from coopt.continuous import evolve_coupled, evolve_linear, lowest_states
from coopt.discrete import iterate_to_fixed_point, random_profile
from coopt.equilibrium import enumerate_pure_nash, epsilon_of_profile
from coopt.fileio import load_hamiltonian
from coopt.model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    GameModel,
    StrategyProfile,
)
from coopt.numerics import DenseSymmetric, jacobi_eigen
from coopt.rng import random_unit_vector


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded the {self.seconds}s budget"
            )


def report(n, text, budget):
    print(f"\ncriterion {n} PASS ({budget.elapsed:.2f}s): {text}")


def test_criterion_1_factorized_update_matches_dense_oracle():
    with Budget(5.0) as budget:
        from coopt.discrete import (
            expected_return_update,
            expected_return_update_factorized,
        )

        for seed in range(100):
            model = helpers.random_pairwise_model(seed, max_agents=4, max_card=4)
            profile = StrategyProfile(
                tuple(helpers.random_profile_arrays(10_000 + seed, model.agent_cardinalities()))
            )
            factorized = expected_return_update_factorized(model, profile)
            dense_model = GameModel(
                model.variables,
                tuple(
                    Agent(a.name, a.acts_on, densify(a.objective, model, a.acts_on))
                    for a in model.agents
                ),
                hbar=model.hbar,
                mode="energy",
            )
            dense = expected_return_update(dense_model, profile)
            for got, want in zip(factorized.values, dense.values):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    report(1, "factorized and dense updates agree to 1e-12 on 100 instances", budget)


def test_criterion_2_single_agent_boltzmann_fixed_point():
    with Budget(1.0) as budget:
        instances = [
            np.array([0.9, 0.2, 1.4, 0.6]),
            np.array([2.0, 0.0, 1.0]),
            np.array([0.31, 0.31001, 1.7, 0.05, 2.2]),
        ]
        for energies in instances:
            for hbar in (0.1, 1.0):
                for alpha in (0.5, 1.0, 2.0, 8.0):
                    model = helpers.single_agent_energy(energies, hbar=hbar)
                    result = iterate_to_fixed_point(model, alpha)
                    assert result.converged
                    scaled = -alpha * energies / hbar
                    expected = np.exp(scaled - scaled.max())
                    expected /= expected.sum()
                    assert np.abs(result.profile.dists[0] - expected).max() <= 1e-12
                    assert int(np.argmax(result.profile.dists[0])) == int(np.argmin(energies))
    report(2, "single-agent fixed points are exactly Boltzmann and peak at the minimum", budget)


def test_criterion_3_epsilon_decreases_with_alpha():
    with Budget(2.0) as budget:
        model = helpers.prisoners_dilemma()
        eps = []
        for alpha in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            result = iterate_to_fixed_point(model, alpha)
            assert result.converged
            eps.append(epsilon_of_profile(model, result.profile).epsilon)
        assert all(b < a + 1e-9 for a, b in zip(eps, eps[1:]))
        assert eps[-1] < eps[0]
    report(3, f"epsilon falls along the alpha grid: {['%.3g' % e for e in eps]}", budget)


def test_criterion_4_compromise_raises_welfare():
    from coopt.equilibrium import social_welfare

    with Budget(2.0) as budget:
        model = helpers.prisoners_dilemma()
        soft = iterate_to_fixed_point(model, 0.5)
        assert soft.converged
        welfare_soft = social_welfare(model, soft.profile)
        assert welfare_soft > 1.0

        hard = iterate_to_fixed_point(model, 32.0)
        assert hard.converged
        welfare_hard = social_welfare(model, hard.profile)
        assert abs(welfare_hard - 1.0) < 0.05
    report(
        4,
        f"welfare {welfare_soft:.3f} at alpha 0.5 vs {welfare_hard:.3f} at alpha 32",
        budget,
    )


def test_criterion_5_stationary_values_are_eigenvalues():
    with Budget(30.0) as budget:
        for seed in range(300, 320):
            h = helpers.random_symmetric_matrix(seed, 8, span=2.0)
            op = DenseSymmetric(h)
            eig = jacobi_eigen(op)
            psi0 = random_unit_vector(8, seed)
            dt = 0.9 / helpers.row_sum_bound(op)
            results = lowest_states(op, 2, psi0, dt=dt, tol=1e-8, seed=seed)
            (ground_points, ground_converged), (excited_points, excited_converged) = results
            ground, excited = ground_points[-1], excited_points[-1]
            assert ground_converged and ground.residual[0] <= 1e-8
            assert abs(ground.rayleigh[0] - eig.eigenvalues[0]) <= 1e-6
            assert excited_converged
            assert abs(excited.rayleigh[0] - eig.eigenvalues[1]) <= 1e-5
    report(5, "20 random operators: ground and deflated first-excited values match", budget)


def test_criterion_6_harmonic_oscillator_ground_state():
    with Budget(60.0) as budget:
        operator = load_hamiltonian(bundled_path("harmonic_oscillator"))
        n = operator.dimension
        psi0 = np.full(n, 1.0 / np.sqrt(n))
        points, converged = evolve_linear(operator, psi0, tol=1e-8)
        assert converged
        lam = points[-1].rayleigh[0]
        reference = jacobi_eigen(operator).eigenvalues[0]
        assert abs(lam - reference) <= 1e-8 * abs(reference)
        assert abs(lam - 0.5) < 5e-3
    report(6, f"ground energy {lam:.6f} vs eigensolver {reference:.6f} and analytic 0.5", budget)


def test_criterion_7_epsilon_oracle_agrees_with_pure_nash():
    import itertools

    with Budget(5.0) as budget:
        for seed in range(1000, 1200):
            model = helpers.random_dense_model(seed, n_agents=2, card=2, mode="utility")
            listed = set(enumerate_pure_nash(model))
            for assignment in itertools.product(range(2), repeat=2):
                cert = epsilon_of_profile(model, StrategyProfile.point_mass(model, assignment))
                if assignment in listed:
                    assert cert.epsilon <= 1e-12
                else:
                    assert cert.epsilon > 1e-9
    report(7, "epsilon is zero exactly on the enumerated pure equilibria (200 games)", budget)


def test_criterion_8_conservation_and_invariance():
    with Budget(5.0) as budget:
        # probability conservation along the iteration
        from coopt.fileio import load_problem

        pd = helpers.prisoners_dilemma()
        chain = load_problem(bundled_path("pairwise_chain"))
        for model, alpha in ((pd, 2.0), (chain, 1.5)):
            init = random_profile(model, 5)
            result = iterate_to_fixed_point(model, alpha, init)
            for step in helpers.map_steps(model, alpha, init, result.iterations):
                for d in step.profile.dists:
                    assert abs(float(d.sum()) - 1.0) <= 1e-12

        # norm conservation along both evolutions
        op = DenseSymmetric(helpers.random_symmetric_matrix(77, 10, span=1.5))
        psi0 = random_unit_vector(10, 78)
        points, _ = evolve_linear(op, psi0, dt=0.5 / helpers.row_sum_bound(op), t_max=15.0,
                                  record_every=1)
        for p in points:
            assert abs(np.linalg.norm(p.amplitudes[0]) - 1.0) <= 1e-12
        c_points, _ = evolve_coupled(chain, t_max=5.0, record_every=1)
        for p in c_points:
            for psi in p.amplitudes:
                assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

        # per-agent energy shifts leave the fixed point unchanged
        base = helpers.random_dense_model(81, n_agents=2, card=3, mode="energy")
        shifted = GameModel(
            base.variables,
            tuple(
                Agent(a.name, a.acts_on, DenseEnergy(a.objective.order, a.objective.values + c))
                for a, c in zip(base.agents, (2.2, -0.7))
            ),
            hbar=base.hbar,
            mode="energy",
        )
        init = random_profile(base, 82)
        r1 = iterate_to_fixed_point(base, 2.0, init)
        r2 = iterate_to_fixed_point(shifted, 2.0, init)
        assert r1.converged and r2.converged
        for d1, d2 in zip(r1.profile.dists, r2.profile.dists):
            assert np.abs(d1 - d2).max() <= 1e-10

        # positive utility scaling leaves the fixed point unchanged
        util = helpers.random_dense_model(83, n_agents=2, card=3, mode="utility")
        rescaled = GameModel(
            util.variables,
            tuple(
                Agent(a.name, a.acts_on, DenseUtility(a.objective.order, s * a.objective.values))
                for a, s in zip(util.agents, (4.5, 0.3))
            ),
            mode="utility",
        )
        init = random_profile(util, 84)
        r3 = iterate_to_fixed_point(util, 2.0, init)
        r4 = iterate_to_fixed_point(rescaled, 2.0, init)
        assert r3.converged and r4.converged
        for d3, d4 in zip(r3.profile.dists, r4.profile.dists):
            assert np.abs(d3 - d4).max() <= 1e-10
    report(8, "probability sums, state norms, shift and scaling invariances all hold", budget)


def test_criterion_9_cli_runs_are_byte_identical(tmp_path):
    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "coopt", *args], capture_output=True, text=True
        )
        assert proc.returncode in (0, 2), proc.stderr
        return proc

    pd = str(bundled_path("prisoners_dilemma"))
    harmonic = str(bundled_path("harmonic_oscillator"))
    with Budget(10.0) as budget:
        outputs = []
        for tag in ("first", "second"):
            solve_out = tmp_path / f"solve-{tag}.json"
            solve_trace = tmp_path / f"solve-{tag}.csv"
            run(
                "solve", "--problem", pd, "--alpha", "6", "--init", "random",
                "--seed", "77", "--out", str(solve_out), "--trace", str(solve_trace),
            )
            sweep_out = tmp_path / f"sweep-{tag}.csv"
            run(
                "sweep", "--problem", pd, "--alpha-grid", "1:32:log:6",
                "--restarts", "2", "--seed", "11", "--out", str(sweep_out),
            )
            quantum_out = tmp_path / f"quantum-{tag}.json"
            quantum_trace = tmp_path / f"quantum-{tag}.csv"
            run(
                "quantum", "--hamiltonian", harmonic, "--dt", "0.0025",
                "--seed", "5", "--out", str(quantum_out), "--trace", str(quantum_trace),
            )
            outputs.append(
                tuple(
                    p.read_bytes()
                    for p in (solve_out, solve_trace, sweep_out, quantum_out, quantum_trace)
                )
            )
        assert outputs[0] == outputs[1]
    report(9, "solve, sweep and quantum emit byte-identical files across two runs", budget)
