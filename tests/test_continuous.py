import importlib
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dense_expansion import densify
from coopt import bundled_path, continuous, fileio
from coopt.continuous import (
    RK4_MONOTONE_LIMIT,
    WaveState,
    build_grid_hamiltonian,
    coupled_scale,
    default_step,
    effective_hamiltonian,
    evolve_coupled,
    evolve_linear,
    lowest_states,
    match_eigenvalue,
    write_trajectory_csv,
)
from coopt.model import Agent, DenseEnergy, DomainSpec, GameModel, PairwiseEnergy
from coopt.numerics import DenseSymmetric, Diagonal, jacobi_eigen
from coopt.rng import random_unit_vector


def same_sign_pairwise(seed):
    """Random pairwise model with every table near 3, so an agent's effective
    energies come close to the sum of its tables' largest entries."""
    model = helpers.random_pairwise_model(seed)
    agents = tuple(
        Agent(a.name, a.acts_on,
              PairwiseEnergy(tuple((v, 3.0 + 0.1 * t) for v, t in a.objective.terms)))
        for a in model.agents
    )
    return GameModel(model.variables, agents, hbar=model.hbar, mode="energy")


def classical_rk4(derivative, y, dt):
    """The textbook four-slope RK4 step, the reference for coopt's
    Horner-form step."""
    k1 = derivative(y)
    k2 = derivative(y + 0.5 * dt * k1)
    k3 = derivative(y + 0.5 * dt * k2)
    k4 = derivative(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def linear_replay(matrix, sigma, psi, dt, hbar, tol, max_steps):
    """Steps and final Rayleigh quotient of evolve_linear's loop, replayed
    with classical RK4 on matrix - sigma I; fails past max_steps steps."""
    shifted = matrix - sigma * np.eye(len(matrix))
    for step in range(max_steps + 1):
        h_psi = shifted @ psi
        rayleigh = psi @ h_psi
        if np.linalg.norm(h_psi - rayleigh * psi) <= tol:
            return step, rayleigh + sigma
        psi = classical_rk4(lambda y: -(shifted @ y) / hbar, psi, dt)
        psi = psi / np.linalg.norm(psi)
    pytest.fail(f"the replay is not stationary after {max_steps} steps")


def coupled_replay(model, steps, dt):
    """Per-agent amplitudes after each of the given number of coupled steps,
    each agent's energies summed from its pairwise tables and stepped by
    classical RK4."""
    agent_of = {agent.acts_on: i for i, agent in enumerate(model.agents)}
    psis = [np.full(c, 1.0 / math.sqrt(c)) for c in model.agent_cardinalities()]
    history = [psis]
    for _ in range(steps):
        weights = [psi * psi for psi in psis]
        stepped = []
        for agent, psi in zip(model.agents, psis):
            h = sum(table @ weights[agent_of[v]] for v, table in agent.objective.terms)
            out = classical_rk4(lambda y: -(h * y) / model.hbar, psi, dt)
            stepped.append(out / np.linalg.norm(out))
        psis = stepped
        history.append(psis)
    return history


def seed_one_ring(tmp_path, monkeypatch):
    """The 200-agent pairwise ring of the benchmark's ring workload at seed 1."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    path = tmp_path / "ring1.json"
    workloads.write_ring(path, 1, workloads.RING["agents"], workloads.RING["actions"])
    return fileio.load_problem(path)


def agreement_energy_pair():
    values = np.array([0.0, 1.0, 1.0, 0.0])
    variables = (DomainSpec("x1", 2), DomainSpec("x2", 2))
    agents = (
        Agent("a1", "x1", DenseEnergy(("x1", "x2"), values)),
        Agent("a2", "x2", DenseEnergy(("x2", "x1"), values)),
    )
    return GameModel(variables, agents, hbar=1.0, mode="energy")


def mixed_energy_model():
    """Energy model of three agents over 2, 3 and 5 actions: a dense table
    over its own and one neighbour's variable for x0, pairwise terms for x1,
    and a dense table over all three variables for x2."""
    variables = (DomainSpec("x0", 2), DomainSpec("x1", 3), DomainSpec("x2", 5))
    ramp = lambda n, c: np.linspace(-c, 2.0 * c, n)  # noqa: E731
    agents = (
        Agent("a0", "x0", DenseEnergy(("x1", "x0"), ramp(6, 1.5))),
        Agent("a1", "x1", PairwiseEnergy((
            ("x0", ramp(6, 0.5).reshape(3, 2)), ("x2", ramp(15, 0.25).reshape(3, 5))
        ))),
        Agent("a2", "x2", DenseEnergy(("x0", "x1", "x2"), ramp(30, 0.75))),
    )
    return GameModel(variables, agents, hbar=0.37, mode="energy")


class TestEffectiveHamiltonian:
    def test_single_agent_recovers_raw_energies(self):
        model = helpers.single_agent_energy([0.4, 1.9, 0.2])
        state = WaveState.uniform(model)
        op = effective_hamiltonian(model, state, 0)
        np.testing.assert_array_equal(op.entries, [0.4, 1.9, 0.2])

    def test_constant_energy_gives_constant_diagonal(self):
        model = helpers.prisoners_dilemma()
        energy = GameModel(
            model.variables,
            tuple(
                Agent(a.name, a.acts_on, DenseEnergy(a.objective.order, np.full(4, 2.5)))
                for a in model.agents
            ),
            mode="energy",
        )
        op = effective_hamiltonian(energy, WaveState.uniform(energy), 0)
        np.testing.assert_allclose(op.entries, [2.5, 2.5], rtol=1e-15)

    def test_point_mass_neighbor_reads_off_one_column(self):
        model = agreement_energy_pair()
        state = WaveState((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        op = effective_hamiltonian(model, state, 0)
        np.testing.assert_array_equal(op.entries, [0.0, 1.0])

    def test_pairwise_matches_densified_dense(self):
        model = helpers.random_pairwise_model(21)
        cards = model.agent_cardinalities()
        dists = helpers.random_profile_arrays(22, cards)
        state = WaveState(tuple(np.sqrt(d) for d in dists))
        dense_model = GameModel(
            model.variables,
            tuple(
                Agent(a.name, a.acts_on, densify(a.objective, model, a.acts_on))
                for a in model.agents
            ),
            hbar=model.hbar,
            mode="energy",
        )
        for i in range(len(model.agents)):
            got = effective_hamiltonian(model, state, i).entries
            want = effective_hamiltonian(dense_model, state, i).entries
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_utility_mode_rejected(self):
        model = helpers.prisoners_dilemma()
        with pytest.raises(ValueError, match="energy"):
            effective_hamiltonian(model, WaveState.uniform(model), 0)


class TestStationarityCheck:
    """evolve_linear's t = 0 point holds the Rayleigh quotient and the
    eigen-residual norm ||H psi - lambda psi|| of its start vector."""

    @staticmethod
    def check(op, psi):
        points, _ = evolve_linear(op, psi)
        return points[0].rayleigh[0], points[0].residual[0]

    def test_eigenvector_has_zero_residual(self):
        op = Diagonal(np.array([1.0, 2.0, 3.0]))
        lam, residual = self.check(op, np.array([0.0, 1.0, 0.0]))
        assert lam == 2.0 and residual == 0.0

    def test_mixed_state_hand_computed(self):
        op = Diagonal(np.array([1.0, 2.0]))
        lam, residual = self.check(op, np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert lam == pytest.approx(1.5, abs=1e-15)
        assert residual == pytest.approx(0.5, abs=1e-15)

    def test_identity_operator(self):
        op = DenseSymmetric(np.eye(4))
        psi = np.array([0.5, -0.5, 0.5, 0.5])
        lam, residual = self.check(op, psi)
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            self.check(Diagonal(np.array([1.0, 2.0])), np.array([1.0, 0.0, 0.0]))

    def test_non_unit_state_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            self.check(Diagonal(np.array([1.0, 2.0])), np.array([1.0, 1.0]))


class TestEvolveLinear:
    def test_zero_operator_is_stationary_immediately(self):
        psi0 = np.array([0.6, 0.8])
        points, converged = evolve_linear(Diagonal(np.zeros(2)), psi0)
        assert converged and points[-1].time == 0.0
        assert points[-1].rayleigh[0] == 0.0
        assert points[-1].residual[0] == 0.0
        np.testing.assert_array_equal(points[-1].amplitudes[0], psi0)

    def test_two_level_system_selects_the_ground_state(self):
        op = Diagonal(np.array([1.0, 2.0]))
        psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        points, converged = evolve_linear(op, psi0, tol=1e-10)
        assert converged
        assert points[-1].rayleigh[0] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(np.abs(points[-1].amplitudes[0]), [1.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_reaches_smallest_eigenvalue_of_random_operator(self, seed):
        h = helpers.random_symmetric_matrix(seed, 8, span=2.0)
        op = DenseSymmetric(h)
        eig = jacobi_eigen(op)
        psi0 = helpers.random_profile_arrays(seed + 1, [8])[0]
        psi0 = np.sqrt(psi0)  # positive, generic against the ground state
        psi0 /= np.linalg.norm(psi0)
        dt = 0.9 / helpers.row_sum_bound(op)
        points, converged = evolve_linear(op, psi0, dt=dt, tol=1e-8)
        assert converged
        assert abs(points[-1].rayleigh[0] - eig.eigenvalues[0]) <= 1e-6
        assert match_eigenvalue(points[-1].rayleigh[0], eig) == 0

    def test_deflation_reaches_the_second_state(self):
        op = Diagonal(np.array([1.0, 2.0, 3.0]))
        psi0 = np.array([3.0, 2.0, 1.0])
        psi0 /= np.linalg.norm(psi0)
        results = lowest_states(op, 2, psi0, tol=1e-9)
        assert [points[-1].rayleigh[0] for points, _ in results] == pytest.approx(
            [1.0, 2.0], abs=1e-5
        )

    def test_monotone_rayleigh_descent(self):
        h = helpers.random_symmetric_matrix(303, 8, span=2.0)
        op = DenseSymmetric(h)
        psi0 = np.sqrt(helpers.random_profile_arrays(304, [8])[0])
        psi0 /= np.linalg.norm(psi0)
        points, _ = evolve_linear(op, psi0, dt=0.5 / helpers.row_sum_bound(op), t_max=20.0,
                                  record_every=1)
        values = [p.rayleigh[0] for p in points]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_norm_preserved_at_every_recorded_step(self):
        op = DenseSymmetric(helpers.random_symmetric_matrix(305, 6, span=1.5))
        psi0 = np.full(6, 1.0 / math.sqrt(6.0))
        points, _ = evolve_linear(op, psi0, dt=0.5 / helpers.row_sum_bound(op), t_max=10.0,
                                  record_every=1)
        for p in points:
            assert abs(np.linalg.norm(p.amplitudes[0]) - 1.0) <= 1e-12

    def test_oversized_dt_rejected(self):
        # half-width 4.5: 0.35 * 4.5 is inside the monotone limit, 0.4 * 4.5 past it
        op = Diagonal(np.array([1.0, 10.0]))
        evolve_linear(op, np.array([1.0, 0.0]), dt=0.35)
        with pytest.raises(ValueError, match="characteristic time hbar / half-width"):
            evolve_linear(op, np.array([1.0, 0.0]), dt=0.4)

    def test_non_unit_initial_state_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            evolve_linear(Diagonal(np.array([1.0, 2.0])), np.array([1.0, 1.0]))

    def test_initial_state_inside_deflated_subspace_rejected(self):
        op = Diagonal(np.array([1.0, 2.0]))
        e0 = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="deflated"):
            evolve_linear(op, e0, deflate=(e0,))

    def test_default_step_is_just_inside_the_monotone_limit(self):
        # the spectrum [-5, 2] has half-width 3.5 about its centre -1.5
        op = Diagonal(np.array([2.0, -5.0]))
        assert default_step(op, hbar=1.0) == 0.99 * RK4_MONOTONE_LIMIT * 1.0 / 3.5
        assert default_step(op, hbar=2.0) == 0.99 * RK4_MONOTONE_LIMIT * 2.0 / 3.5

    def test_default_step_is_shift_invariant(self):
        # The renormalized flow on H + c I is the flow on H; so are its steps.
        psi0 = np.full(3, 1.0 / math.sqrt(3.0))
        runs = []
        for shift in (0.0, 1000.0, -1000.0):
            op = Diagonal(np.array([0.0, 1.0, 2.0]) + shift)
            points, converged = evolve_linear(op, psi0)
            assert converged
            assert points[-1].rayleigh[0] == pytest.approx(shift, abs=1e-9)
            runs.append((points[-1].time / default_step(op), points[-1].time))
        assert runs == [(12.0, runs[0][1])] * 3

    def test_default_step_refuses_a_scale_past_the_float_range(self):
        # every row sums to inf, which would make the step 0.0
        op = DenseSymmetric(np.full((2, 2), 1e308))
        assert op.interval() == (-math.inf, math.inf)
        message = "the operator's scale inf is past the float range"
        for call in (lambda: default_step(op), lambda: evolve_linear(op, np.array([1.0, 0.0]))):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message

    def test_stability_limit_is_where_the_rk4_factor_stops_increasing(self):
        def R(z):  # the RK4 amplification of y' = -rate*y at rate*dt = -z
            return helpers.scalar_rk4(-z, 1.0, 1.0)

        z_star = -RK4_MONOTONE_LIMIT
        # R' = R - z^4/24 for the fourth-order Taylor polynomial of exp
        assert abs(R(z_star) - z_star**4 / 24.0) <= 1e-14
        h = 1e-4
        assert R(z_star - h) > R(z_star) < R(z_star + h)
        z = np.linspace(z_star, RK4_MONOTONE_LIMIT, 2001)
        values = np.array([R(x) for x in z])
        assert (values > 0).all() and (np.diff(values) > 0).all()

    def test_steps_just_inside_the_stability_limit_converge(self):
        op = Diagonal(np.array([-1.0, 0.5, 1.0]))
        psi0 = np.full(3, 1.0 / math.sqrt(3.0))
        half_width = helpers.centre(op)[1]
        dt = 0.99 * RK4_MONOTONE_LIMIT / half_width
        points, converged = evolve_linear(op, psi0, dt=dt, tol=1e-10)
        assert converged
        assert points[-1].rayleigh[0] == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ValueError, match="monotone limit"):
            evolve_linear(op, psi0, dt=RK4_MONOTONE_LIMIT / half_width)

    def test_each_step_takes_four_products(self, monkeypatch):
        # The invariants perfbench's traced oscillator run checks against the
        # output: one residual product per pass of the loop, reused as RK4's
        # first stage, three more per step, and time = steps * dt.
        x = np.linspace(-3.0, 3.0, 11)
        op = build_grid_hamiltonian(-3.0, 3.0, 11, 0.5 * x * x)
        products, steps = [], []
        matvec, rk4_step = DenseSymmetric.matvec, continuous.rk4_step
        monkeypatch.setattr(DenseSymmetric, "matvec",
                            lambda self, v: products.append(v) or matvec(self, v))
        monkeypatch.setattr(continuous, "rk4_step",
                            lambda *args, **kw: steps.append(args) or rk4_step(*args, **kw))
        dt, k = 2.0**-5, 16
        points, converged = evolve_linear(op, np.full(11, 1.0 / math.sqrt(11.0)), dt=dt,
                                          t_max=k * dt, tol=1e-15)
        assert not converged
        assert len(steps) == k
        assert len(products) == 4 * k + 1
        assert points[-1].time / dt == k

    @pytest.mark.parametrize("tridiagonal", [True, False])
    def test_small_hbar_accepts_an_asymmetry_the_loader_accepts(self, tridiagonal):
        # Scaled by 1/hbar = 1000, an asymmetry of 5e-13 reads 5e-10: the
        # flow must step on the operator as loaded, not re-check a scaled copy.
        h = helpers.random_symmetric_matrix(41, 7, span=2.0)
        if tridiagonal:
            h = np.triu(np.tril(h, 1), -1)
        h[1, 0] += 5e-13
        op = DenseSymmetric(h)
        assert (op._bands is not None) == tridiagonal
        psi0 = np.full(7, 1.0 / math.sqrt(7.0))
        small, small_converged = evolve_linear(op, psi0, hbar=1e-3)
        unit, unit_converged = evolve_linear(op, psi0, hbar=1.0)
        assert small_converged and unit_converged
        small, unit = small[-1], unit[-1]
        # dt scales with hbar, so both runs take the same steps of dt * H / hbar
        assert round(small.time / default_step(op, 1e-3)) == round(unit.time / default_step(op))
        assert small.rayleigh[0] == pytest.approx(unit.rayleigh[0], abs=1e-12)

    @pytest.mark.parametrize("tridiagonal", [True, False])
    def test_an_asymmetric_input_evolves_as_the_matrix_the_oracle_solves(self, tridiagonal):
        h = helpers.random_symmetric_matrix(45, 8, span=2.0)
        if tridiagonal:
            h = np.triu(np.tril(h, 1), -1)
        h[3, 2] -= 9e-13
        op = DenseSymmetric(h)
        tol = 1e-10
        points, converged = evolve_linear(op, np.full(8, 1.0 / math.sqrt(8.0)), tol=tol)
        assert converged
        psi = points[-1].amplitudes[0]
        h_psi = op.matrix @ psi
        assert np.linalg.norm(h_psi - (psi @ h_psi) * psi) <= tol
        assert points[-1].rayleigh[0] == pytest.approx(
            jacobi_eigen(op).eigenvalues[0], abs=1e-12
        )

    def test_matches_a_classical_rk4_replay(self):
        x = np.linspace(-4.0, 4.0, 15)
        op = build_grid_hamiltonian(-4.0, 4.0, 15, 0.5 * x * x)
        psi0 = np.sqrt(helpers.random_profile_arrays(42, [15])[0])
        hbar = 0.37
        points, converged = evolve_linear(op, psi0, hbar=hbar)
        last = points[-1]
        dt = default_step(op, hbar)
        steps, rayleigh = linear_replay(op.matrix, helpers.centre(op)[0], psi0, dt, hbar,
                                        continuous.DEFAULT_STATIONARY_TOL,
                                        round(last.time / dt) + 100)
        assert converged
        assert last.time == steps * dt
        assert last.rayleigh[0] == pytest.approx(rayleigh, abs=1e-12)

    def test_a_short_run_allocates_nothing_the_size_of_the_operator(self):
        n = 1024
        x = np.linspace(-8.0, 8.0, n)
        op = build_grid_hamiltonian(-8.0, 8.0, n, 0.5 * x * x)
        psi0 = np.full(n, 1.0 / math.sqrt(n))
        dt = default_step(op)
        tracemalloc.start()
        try:
            evolve_linear(op, psi0, t_max=8 * dt, record_every=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("hbar", [math.inf, math.nan, 0.0, -1.0])
    def test_hbar_that_is_not_positive_and_finite_rejected(self, hbar):
        op = Diagonal(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="hbar"):
            evolve_linear(op, np.array([0.6, 0.8]), hbar=hbar)
        with pytest.raises(ValueError, match="hbar"):
            evolve_linear(op, np.array([0.6, 0.8]), dt=0.1, hbar=hbar)

    def test_huge_hbar_is_decided_at_once(self):
        # Here dt * half-width overflows although dt / hbar * half-width is
        # about 1.3.
        op = build_grid_hamiltonian(-3.0, 3.0, 11, np.zeros(11))
        half_width = helpers.centre(op)[1]
        psi0 = np.full(11, 1.0 / math.sqrt(11.0))
        hbar = 1.7e308
        dt = 8e307
        assert math.isinf(dt * half_width) and dt / hbar * half_width < RK4_MONOTONE_LIMIT
        points, _ = evolve_linear(op, psi0, dt=dt, hbar=hbar, t_max=2 * dt)
        assert points[-1].time == 2 * dt
        # The default step no longer overflows there, although its product
        # with the half-width does: it is accepted.
        default = default_step(op, hbar)
        assert math.isfinite(default) and math.isinf(default * half_width)
        # The default horizon 1000 * hbar overflows, as would the time of a
        # second step: the run ends at the first, as with the largest float.
        for t_max in (None, sys.float_info.max):
            points, converged = evolve_linear(op, psi0, hbar=hbar, t_max=t_max)
            assert points[-1].time == default and math.isinf(2 * default)
            assert not converged

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tol_that_is_not_positive_and_finite_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            evolve_linear(Diagonal(np.array([1.0, 2.0])), np.array([0.6, 0.8]), tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            evolve_coupled(agreement_energy_pair(), tol=tol)

    @pytest.mark.parametrize("every", [0, -1])
    def test_record_every_below_one_rejected(self, every):
        op = Diagonal(np.array([1.0, 2.0]))
        psi0 = np.array([0.6, 0.8])
        with pytest.raises(ValueError, match="record_every"):
            evolve_linear(op, psi0, record_every=every)


def last_point_flows():
    """name -> run(**keywords) of each flow on a small seeded instance."""
    op = DenseSymmetric(helpers.random_symmetric_matrix(51, 8, span=2.0))
    psi0 = np.full(8, 1.0 / math.sqrt(8.0))
    model = helpers.random_pairwise_model(52)
    return {"linear": lambda **kw: evolve_linear(op, psi0, **kw),
            "coupled": lambda **kw: evolve_coupled(model, **kw)}


class TestTheLastPointIsWhereTheFlowRests:
    """A flow returns (points, converged): its stop is recorded whatever
    record_every is, so points[-1] is the state it came to rest in."""

    @pytest.mark.parametrize("stop", ["converged", "t_max"])
    @pytest.mark.parametrize("flow", ["linear", "coupled"])
    def test_the_last_point_is_where_the_flow_stopped(self, flow, stop):
        run, tol = last_point_flows()[flow], 1e-8
        every_step, _ = run(tol=tol, record_every=1)
        dt = every_step[1].time
        t_max = None if stop == "converged" else 30.5 * dt
        every_step, converged = run(tol=tol, t_max=t_max, record_every=1)
        steps = len(every_step) - 1
        assert steps % 7 != 0 and converged == (stop == "converged")
        points, converged = run(tol=tol, t_max=t_max, record_every=7)
        assert len(points) == steps // 7 + 2
        last = points[-1]
        assert last.time == steps * dt
        assert converged == (max(last.residual) <= tol)
        expected = every_step[-1]
        assert (last.time, last.rayleigh, last.residual) == (
            expected.time, expected.rayleigh, expected.residual
        )
        for psi, want in zip(last.amplitudes, expected.amplitudes, strict=True):
            assert np.array_equal(psi, want)

    @pytest.mark.parametrize("t_max", [None, 0.5])
    def test_each_state_is_deflated_against_the_last_points_before_it(self, monkeypatch, t_max):
        op = DenseSymmetric(helpers.random_symmetric_matrix(53, 6, span=2.0))
        deflated = []
        evolve = continuous.evolve_linear

        def spy(*args, **kw):
            deflated.append(kw["deflate"])
            return evolve(*args, **kw)

        monkeypatch.setattr(continuous, "evolve_linear", spy)
        results = lowest_states(op, 3, np.full(6, 1.0), t_max=t_max)
        assert all(converged == (t_max is None) for _, converged in results)
        lasts = [points[-1].amplitudes[0] for points, _ in results]
        assert [len(d) for d in deflated] == [0, 1, 2]
        for k, vectors in enumerate(deflated):
            assert all(v is last for v, last in zip(vectors, lasts[:k], strict=True))


class TestLowestStates:
    @staticmethod
    def assert_in_spectral_order(results, eigenvalues):
        assert all(converged for _, converged in results)
        found = [points[-1].rayleigh[0] for points, _ in results]
        np.testing.assert_allclose(found, eigenvalues[: len(found)], rtol=0, atol=1e-6)

    def test_a_level_the_start_misses_is_found_in_order(self):
        # psi0 has no weight on level 1; state 1 must reach it all the same
        op = Diagonal(np.array([0.0, 1.0, 2.0, 3.0]))
        psi0 = np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3.0)
        self.assert_in_spectral_order(lowest_states(op, 4, psi0), op.entries)

    def test_a_persymmetric_operator_is_climbed_in_order_from_the_uniform_start(self):
        # h commutes with the reversal, so the even uniform start stays
        # even; its lowest level is even, so state 0 is reachable from it
        h = helpers.random_symmetric_matrix(4, 12, span=2.0)
        h = 0.5 * (h + h[::-1, ::-1])
        psi0 = np.full(12, 1.0 / math.sqrt(12.0))
        results = lowest_states(DenseSymmetric(h), 5, psi0)
        self.assert_in_spectral_order(results, np.linalg.eigvalsh(h))

    def test_state_zero_is_the_flow_from_psi0_whatever_the_count(self):
        op = DenseSymmetric(helpers.random_symmetric_matrix(306, 8, span=2.0))
        psi0 = 3.0 * np.sqrt(helpers.random_profile_arrays(307, [8])[0])
        (points, converged), *_ = lowest_states(op, 3, psi0)
        expected_points, expected_converged = evolve_linear(op, psi0 / np.linalg.norm(psi0))
        assert converged == expected_converged
        assert len(points) == len(expected_points)
        for point, expected in zip(points, expected_points):
            assert (point.time, point.rayleigh, point.residual) == (
                expected.time, expected.rayleigh, expected.residual
            )
            assert np.array_equal(point.amplitudes[0], expected.amplitudes[0])


class TestEvolveCoupled:
    def test_single_agent_reduces_to_linear_evolution(self):
        # evolve_linear steps on H - 1.0 I, the energies centred on 0, whose
        # coupled_scale 0.5 is the linear flow's half-width
        energies = np.array([0.5, 1.5, 1.0])
        model = helpers.single_agent_energy(energies - 1.0)
        assert coupled_scale(model) == helpers.centre(Diagonal(energies))[1] == 0.5
        state0 = WaveState((np.array([0.8, 0.36, 0.48]),))
        c_points, c_converged = evolve_coupled(model, state0, t_max=40.0)
        l_points, l_converged = evolve_linear(
            Diagonal(energies), np.array([0.8, 0.36, 0.48]), t_max=40.0
        )
        assert c_converged == l_converged
        assert len(c_points) == len(l_points)
        for cp, lp in zip(c_points, l_points):
            assert cp.time == lp.time
            np.testing.assert_allclose(cp.amplitudes[0], lp.amplitudes[0], atol=1e-10)
            assert lp.rayleigh[0] == pytest.approx(cp.rayleigh[0] + 1.0, abs=1e-10)

    def test_zero_energies_keep_the_state_constant(self):
        model = GameModel(
            (DomainSpec("x1", 2), DomainSpec("x2", 2)),
            (
                Agent("a1", "x1", DenseEnergy(("x1", "x2"), np.zeros(4))),
                Agent("a2", "x2", DenseEnergy(("x2", "x1"), np.zeros(4))),
            ),
            mode="energy",
        )
        state0 = WaveState((np.array([0.6, 0.8]), np.array([1.0, 0.0])))
        points, converged = evolve_coupled(model, state0)
        assert converged and points[-1].time == 0.0
        np.testing.assert_array_equal(points[-1].amplitudes[0], [0.6, 0.8])

    def test_agreement_game_collapses_to_the_favored_action(self):
        model = agreement_energy_pair()
        lean = np.array([math.sqrt(0.6), math.sqrt(0.4)])
        state0 = WaveState((lean, lean))
        points, converged = evolve_coupled(model, state0, tol=1e-9)
        assert converged
        for psi in points[-1].amplitudes:
            assert abs(psi[0]) > 0.999
        assert points[-1].rayleigh == pytest.approx((0.0, 0.0), abs=1e-6)

    def test_pairwise_model_evolves(self):
        model = helpers.random_pairwise_model(77, max_agents=3, max_card=3)
        points, _ = evolve_coupled(model, t_max=200.0)
        for psi in points[-1].amplitudes:
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_utility_mode_rejected(self):
        model = helpers.prisoners_dilemma()
        with pytest.raises(ValueError, match="energy"):
            evolve_coupled(model)

    def test_state_of_the_wrong_length_rejected(self):
        state0 = WaveState((np.array([1.0]), np.array([1.0, 0.0])))
        with pytest.raises(ValueError, match="cardinalities"):
            evolve_coupled(agreement_energy_pair(), state0)

    @pytest.mark.parametrize(
        "model",
        [
            helpers.random_pairwise_model(77),
            helpers.random_pairwise_model(78),
            same_sign_pairwise(79),
            helpers.random_dense_model(79, n_agents=3, card=3, mode="energy"),
        ],
        ids=["pairwise77", "pairwise78", "same_sign79", "dense79"],
    )
    def test_scale_bound_holds_along_the_trajectory(self, model):
        dists = helpers.random_profile_arrays(80, model.agent_cardinalities())
        state0 = WaveState(tuple(np.sqrt(d) for d in dists))
        points, _ = evolve_coupled(model, state0, t_max=20.0, record_every=1)
        bound = coupled_scale(model)
        assert len(points) > 2
        for point in points:
            state = WaveState(point.amplitudes)
            for i in range(len(model.agents)):
                lo, hi = effective_hamiltonian(model, state, i).interval()
                assert max(-lo, hi) <= bound

    @pytest.mark.parametrize(
        "model",
        [
            helpers.random_pairwise_model(77),
            helpers.random_pairwise_model(81),
            agreement_energy_pair(),
            mixed_energy_model(),
            helpers.random_dense_model(79, n_agents=3, card=3, mode="energy"),
        ],
        ids=["pairwise77", "pairwise81", "one-neighbour dense", "mixed", "dense79"],
    )
    def test_scale_bound_is_the_walk_over_the_objectives(self, model):
        want = []
        for agent in model.agents:
            obj = agent.objective
            if isinstance(obj, PairwiseEnergy):
                want.append(sum(float(np.abs(table).max()) for _, table in obj.terms))
            else:
                want.append(float(np.abs(obj.values).max()))
        assert coupled_scale(model) == max(want)

    def test_default_coupled_step_comes_from_the_scale_bound(self):
        model = agreement_energy_pair()
        assert coupled_scale(model) == 1.0
        lean = np.array([math.sqrt(0.6), math.sqrt(0.4)])
        points, _ = evolve_coupled(model, WaveState((lean, lean)), t_max=5.0, record_every=1)
        assert points[1].time == 0.99 * RK4_MONOTONE_LIMIT * model.hbar / 1.0

    def test_scale_bound_past_the_float_range_is_refused_by_name(self):
        # two terms of 1e308 sum to inf in coupled_scale
        big = np.full((2, 2), 1e308)
        variables = tuple(DomainSpec(name, 2) for name in ("x", "y", "z"))
        agents = (
            Agent("a", "x", PairwiseEnergy((("y", big), ("z", big)))),
            Agent("b", "y", PairwiseEnergy((("x", big),))),
            Agent("c", "z", PairwiseEnergy((("x", big),))),
        )
        model = GameModel(variables, agents)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="scale.* inf"):
            evolve_coupled(model)

    @pytest.mark.parametrize("every", [0, -1])
    def test_record_every_below_one_rejected(self, every):
        with pytest.raises(ValueError, match="record_every"):
            evolve_coupled(agreement_energy_pair(), record_every=every)

    @pytest.mark.parametrize("kind", ["seed-1 ring", "mixed widths"])
    def test_matches_a_per_agent_classical_rk4_replay(self, kind, tmp_path, monkeypatch):
        if kind == "seed-1 ring":
            model = seed_one_ring(tmp_path, monkeypatch)
        else:
            model = helpers.random_pairwise_model(1)
            assert len(set(model.agent_cardinalities())) > 1
        plan = model.plan
        stacked, rows = [], plan.rows
        monkeypatch.setattr(plan, "rows", lambda a: stacked.append(a.copy()) or rows(a))
        points, _ = evolve_coupled(model, t_max=5.0, record_every=1)
        dt = points[1].time
        replay = coupled_replay(model, len(points) - 1, dt)
        assert len(points) > 2
        for step, (point, psis) in enumerate(zip(points, replay)):
            assert point.time == step * dt
            for got, expected in zip(point.amplitudes, psis):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
        # every stacked state, energy and slope keeps its padding exactly 0
        for a in stacked:
            for row, card in zip(a, model.agent_cardinalities()):
                assert (row[card:] == 0.0).all()


@st.composite
def operators(draw):
    """Diagonal, grid and dense symmetric operators whose eigenvalues may be
    negative or repeated.  Distinct eigenvalues keep a gap of at least 1.6%
    of the largest absolute row sum (exhaustively so for the grids'
    potentials), so the flow converges in a few hundred steps."""
    kind = draw(st.sampled_from(["diagonal", "grid", "dense"]))
    if kind == "grid":
        n = draw(st.integers(3, 8))
        h = draw(st.sampled_from([0.25, 0.5, 1.0]))
        levels = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        # potential wells at most a quarter of the hopping energy 1/(2h^2) deep
        potential = np.array(levels, dtype=float) / (8.0 * h * h)
        xmin = draw(st.integers(-3, 0))
        return build_grid_hamiltonian(xmin, xmin + h * (n - 1), n, potential)
    n = draw(st.integers(2, 8))
    unit = draw(st.sampled_from([1.0, 3.0]))
    spectrum = unit * np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)),
                               dtype=float)
    if kind == "diagonal":
        return Diagonal(spectrum)
    seed = draw(st.integers(0, 2**32 - 1))
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    matrix = (q * spectrum) @ q.T
    return DenseSymmetric(0.5 * (matrix + matrix.T))


class TestDefaultStepIsProvablyRight:
    @given(operators(), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_default_step_converges_to_the_lowest_eigenvalue(self, op, hbar, seed):
        (sigma, half_width), dt = helpers.centre(op), default_step(op, hbar)
        assert dt * half_width / hbar < RK4_MONOTONE_LIMIT
        dense = np.diag(op.entries) if isinstance(op, Diagonal) else op.matrix
        eigenvalues = np.linalg.eigvalsh(dense)
        factors = np.array([helpers.scalar_rk4((lam - sigma) / hbar, 1.0, dt)
                            for lam in eigenvalues])
        assert (factors > 0).all()
        # eigvalsh may split a repeated eigenvalue by a few ulps
        distinct = np.diff(eigenvalues) > 1e-9 * max(1.0, helpers.row_sum_bound(op))
        assert (np.diff(factors)[distinct] < 0).all()

        psi0 = random_unit_vector(op.dimension, seed)
        points, converged = evolve_linear(op, psi0, hbar=hbar, t_max=1e5)
        assert converged
        lowest = eigenvalues[0]
        assert abs(points[-1].rayleigh[0] - lowest) <= 1e-8 * max(1.0, abs(lowest))

    def test_lowest_states_of_the_bundled_oscillator_match_the_oracle(self):
        op = fileio.load_hamiltonian(bundled_path("harmonic_oscillator"))
        results = lowest_states(op, 3, random_unit_vector(op.dimension, 1))
        assert all(converged for _, converged in results)
        found = [points[-1].rayleigh[0] for points, _ in results]
        expected = jacobi_eigen(op).eigenvalues[:3]
        np.testing.assert_allclose(found, expected, rtol=0, atol=1e-8)

    @staticmethod
    def assert_boundary(op, hbar, under, at):
        """A run on the operator takes the step under (None for no step) and
        refuses the step at, naming the monotone limit."""
        half_width = helpers.centre(op)[1]
        if under is not None:
            assert under / hbar * half_width < RK4_MONOTONE_LIMIT
            evolve_linear(op, np.array([0.6, 0.8]), dt=under, hbar=hbar, t_max=under)
        with pytest.raises(ValueError, match="monotone limit"):
            evolve_linear(op, np.array([0.6, 0.8]), dt=at, hbar=hbar, t_max=at)

    # Where the limit meets an end of the float range: every finite step, the
    # steps whose dt / hbar is finite, or none.  Diagonal([scale, 0]) has
    # half-width scale / 2.
    @pytest.mark.parametrize("scale,hbar,under,at", [
        (1.0, 1.7e308, sys.float_info.max, math.inf),  # dt / hbar <= 1.06
        (1e-320, 1e-100, 1.79e208, 1.8e208),  # dt / hbar overflows past 1.79e208
        (1e300, 1e-300, None, 5e-324),  # the smallest step takes z = 2.5e276
        (0.0, 1.0, sys.float_info.max, math.inf),  # half-width 0
        (5e-324, 1e-300, 1.79e8, 1.8e8),  # dt / hbar overflows past 1.79e8
    ], ids=["1.0-1.7e+308", "1e-320-1e-100", "1e+300-1e-300", "0.0-1.0", "5e-324-1e-300"])
    def test_largest_step_ends_at_the_extremes_of_the_float_range(self, scale, hbar, under, at):
        self.assert_boundary(Diagonal(np.array([scale, 0.0])), hbar, under, at)

    @pytest.mark.parametrize("scale,hbar", [(1.0, 1.0), (7.3, 0.5), (4.0e4, 2.0), (3.0, 1e-5)])
    def test_largest_step_is_the_last_one_accepted(self, scale, hbar):
        # The spectrum [0, 2 scale] has half-width scale, exactly, about the
        # centre scale.  dt / hbar * scale rounds to within 2 ulps of the
        # limit at the step limit * hbar / scale, itself rounded twice.
        op = Diagonal(np.array([0.0, 2.0 * scale]))
        assert helpers.centre(op) == (scale, scale)
        limit = RK4_MONOTONE_LIMIT * hbar / scale
        under, at = limit, limit
        for _ in range(4):
            under, at = math.nextafter(under, 0.0), math.nextafter(at, math.inf)
        self.assert_boundary(op, hbar, under, at)


class TestGridHamiltonian:
    def test_three_point_zero_potential(self):
        op = build_grid_hamiltonian(0.0, 2.0, 3, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            op.matrix,
            [[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]],
            rtol=1e-15,
        )

    def test_constant_potential_shifts_every_eigenvalue(self):
        v = [0.1 * k for k in range(7)]
        base = jacobi_eigen(build_grid_hamiltonian(-1.0, 1.0, 7, v)).eigenvalues
        shifted = jacobi_eigen(
            build_grid_hamiltonian(-1.0, 1.0, 7, [x + 2.5 for x in v])
        ).eigenvalues
        np.testing.assert_allclose(shifted, base + 2.5, atol=1e-10)

    def test_harmonic_ground_energy_near_half(self):
        n = 101
        xs = np.linspace(-8.0, 8.0, n)
        op = build_grid_hamiltonian(-8.0, 8.0, n, xs**2 / 2.0)
        eig = jacobi_eigen(op)
        assert abs(eig.eigenvalues[0] - 0.5) < 5e-3

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            build_grid_hamiltonian(0.0, 1.0, 2, [0.0, 0.0])
        with pytest.raises(ValueError, match="potential"):
            build_grid_hamiltonian(0.0, 1.0, 4, [0.0, 0.0])
        with pytest.raises(ValueError, match="xmax"):
            build_grid_hamiltonian(1.0, 0.0, 3, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("xmax", [1e-300, 1e-154, 4e154, 1e308])
    def test_spacing_whose_square_or_inverse_square_overflows_is_named(self, xmax):
        # h**2 underflows to 0 or 1/h**2 overflows below 1e-154, and h**2
        # raises OverflowError above 1e154
        with pytest.raises(ValueError, match=re.escape(f"spacing {xmax / 2:g} leaves")):
            build_grid_hamiltonian(0.0, xmax, 3, [0.0, 0.0, 0.0])


class TestTrajectoryOutput:
    def test_csv_columns_and_labels(self, tmp_path):
        model = agreement_energy_pair()
        points, _ = evolve_coupled(model, t_max=1.0, record_every=10)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, [(points, ["a1", "a2"])])
        lines = path.read_text().splitlines()
        assert lines[0] == "t,agent,action,psi,lambda,residual"
        assert len(lines) == 1 + len(points) * 4  # 2 agents x 2 actions
        first = lines[1].split(",")
        assert first[1] == "a1" and first[2] == "0"

    def test_csv_bytes_match_a_per_element_reference(self, tmp_path):
        # Two sections under one header; agents of different widths; signed
        # zeros, a subnormal, 1e300 and values that need all 17 digits.
        point = continuous.TrajectoryPoint
        first = [
            point(0.0, (np.array([-0.0, 5e-324, 1e300]), np.array([0.1, -2.0 / 3.0])),
                  (1.0, -0.0), (1e-17, 2.5)),
            point(0.3, (np.array([1.0, 0.0, -1e300]), np.array([1e-310, 0.7])),
                  (2.0 / 3.0, 4.0), (0.0, 1e300)),
        ]
        second = [point(9.4, (np.array([math.pi, -0.0]),), (math.e,), (5e-324,))]
        sections = [(first, ["a", "b"]), (second, ["0"])]
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, sections)

        lines = ["t,agent,action,psi,lambda,residual"]
        for points, labels in sections:
            for p in points:
                for label, psi, lam, resid in zip(labels, p.amplitudes, p.rayleigh, p.residual):
                    for action in range(psi.size):
                        lines.append(
                            f"{repr(float(p.time))},{label},{action},{repr(float(psi[action]))},"
                            f"{repr(float(lam))},{repr(float(resid))}"
                        )
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert b"-0.0,1.0,1e-17\n" in path.read_bytes()
        assert b",5e-324," in path.read_bytes() and b",1e+300," in path.read_bytes()
