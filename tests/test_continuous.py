import math

import numpy as np
import pytest

import helpers
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
    stationarity_check,
    write_trajectory_csv,
)
from coopt.model import Agent, DenseEnergy, DomainSpec, GameModel, PairwiseEnergy
from coopt.numerics import DenseSymmetric, Diagonal, jacobi_eigen


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


def agreement_energy_pair():
    values = np.array([0.0, 1.0, 1.0, 0.0])
    variables = (DomainSpec("x1", 2), DomainSpec("x2", 2))
    agents = (
        Agent("a1", "x1", DenseEnergy(("x1", "x2"), values)),
        Agent("a2", "x2", DenseEnergy(("x2", "x1"), values)),
    )
    return GameModel(variables, agents, hbar=1.0, mode="energy")


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
        from coopt.model import densify

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
    def test_eigenvector_has_zero_residual(self):
        op = Diagonal(np.array([1.0, 2.0, 3.0]))
        lam, residual = stationarity_check(op, np.array([0.0, 1.0, 0.0]))
        assert lam == 2.0 and residual == 0.0

    def test_mixed_state_hand_computed(self):
        op = Diagonal(np.array([1.0, 2.0]))
        lam, residual = stationarity_check(op, np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert lam == pytest.approx(1.5, abs=1e-15)
        assert residual == pytest.approx(0.5, abs=1e-15)

    def test_identity_operator(self):
        op = DenseSymmetric(np.eye(4))
        psi = np.array([0.5, -0.5, 0.5, 0.5])
        lam, residual = stationarity_check(op, psi)
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            stationarity_check(Diagonal(np.array([1.0, 2.0])), np.array([1.0, 0.0, 0.0]))

    def test_non_unit_state_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            stationarity_check(Diagonal(np.array([1.0, 2.0])), np.array([1.0, 1.0]))


class TestEvolveLinear:
    def test_zero_operator_is_stationary_immediately(self):
        psi0 = np.array([0.6, 0.8])
        points, report = evolve_linear(Diagonal(np.zeros(2)), psi0)
        assert report.converged and report.time == 0.0
        assert report.states[0].rayleigh == 0.0
        assert report.states[0].residual == 0.0
        np.testing.assert_array_equal(points[-1].amplitudes[0], psi0)

    def test_two_level_system_selects_the_ground_state(self):
        op = Diagonal(np.array([1.0, 2.0]))
        psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        points, report = evolve_linear(op, psi0, tol=1e-10)
        assert report.converged
        assert report.states[0].rayleigh == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(np.abs(points[-1].amplitudes[0]), [1.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_reaches_smallest_eigenvalue_of_random_operator(self, seed):
        h = helpers.random_symmetric_matrix(seed, 8, span=2.0)
        op = DenseSymmetric(h)
        eig = jacobi_eigen(op)
        psi0 = helpers.random_profile_arrays(seed + 1, [8])[0]
        psi0 = np.sqrt(psi0)  # positive, generic against the ground state
        psi0 /= np.linalg.norm(psi0)
        dt = 0.9 / op.scale()
        _, report = evolve_linear(op, psi0, dt=dt, tol=1e-8)
        assert report.converged
        assert abs(report.states[0].rayleigh - eig.eigenvalues[0]) <= 1e-6
        assert match_eigenvalue(report.states[0].rayleigh, eig) == 0

    def test_deflation_reaches_the_second_state(self):
        op = Diagonal(np.array([1.0, 2.0, 3.0]))
        psi0 = np.array([3.0, 2.0, 1.0])
        psi0 /= np.linalg.norm(psi0)
        results = lowest_states(op, 2, psi0, tol=1e-9)
        assert [r.states[0].rayleigh for _, r, _ in results] == pytest.approx(
            [1.0, 2.0], abs=1e-5
        )

    def test_monotone_rayleigh_descent(self):
        h = helpers.random_symmetric_matrix(303, 8, span=2.0)
        op = DenseSymmetric(h)
        psi0 = np.sqrt(helpers.random_profile_arrays(304, [8])[0])
        psi0 /= np.linalg.norm(psi0)
        points, _ = evolve_linear(op, psi0, dt=0.5 / op.scale(), t_max=20.0, record_every=1)
        values = [p.rayleigh[0] for p in points]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_norm_preserved_at_every_recorded_step(self):
        op = DenseSymmetric(helpers.random_symmetric_matrix(305, 6, span=1.5))
        psi0 = np.full(6, 1.0 / math.sqrt(6.0))
        points, _ = evolve_linear(op, psi0, dt=0.5 / op.scale(), t_max=10.0, record_every=1)
        for p in points:
            assert abs(np.linalg.norm(p.amplitudes[0]) - 1.0) <= 1e-12

    def test_oversized_dt_rejected(self):
        op = Diagonal(np.array([1.0, 10.0]))
        with pytest.raises(ValueError, match="characteristic"):
            evolve_linear(op, np.array([1.0, 0.0]), dt=0.2)

    def test_non_unit_initial_state_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            evolve_linear(Diagonal(np.array([1.0, 2.0])), np.array([1.0, 1.0]))

    def test_initial_state_inside_deflated_subspace_rejected(self):
        op = Diagonal(np.array([1.0, 2.0]))
        e0 = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="deflated"):
            evolve_linear(op, e0, deflate=(e0,))

    def test_default_step_is_nine_tenths_of_characteristic_time(self):
        op = Diagonal(np.array([2.0, -5.0]))
        assert default_step(op, hbar=1.0) == pytest.approx(0.9 / 5.0)
        assert default_step(op, hbar=2.0) == pytest.approx(1.8 / 5.0)

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
        dt = 0.99 * RK4_MONOTONE_LIMIT / op.scale()
        _, report = evolve_linear(op, psi0, dt=dt, tol=1e-10)
        assert report.converged
        assert report.states[0].rayleigh == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ValueError, match="stability limit"):
            evolve_linear(op, psi0, dt=RK4_MONOTONE_LIMIT / op.scale())


class TestEvolveCoupled:
    def test_single_agent_reduces_to_linear_evolution(self):
        energies = np.array([0.5, 1.5, 1.0])
        model = helpers.single_agent_energy(energies)
        state0 = WaveState((np.array([0.8, 0.36, 0.48]),))
        c_points, c_report = evolve_coupled(model, state0, t_max=40.0)
        l_points, l_report = evolve_linear(
            Diagonal(energies), np.array([0.8, 0.36, 0.48]), t_max=40.0
        )
        assert c_report.converged == l_report.converged
        assert c_report.time == l_report.time
        assert len(c_points) == len(l_points)
        for cp, lp in zip(c_points, l_points):
            assert cp.time == lp.time
            np.testing.assert_allclose(cp.amplitudes[0], lp.amplitudes[0], atol=1e-10)
        assert c_report.states[0].rayleigh == pytest.approx(
            l_report.states[0].rayleigh, abs=1e-10
        )

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
        points, report = evolve_coupled(model, state0)
        assert report.converged and report.time == 0.0
        np.testing.assert_array_equal(points[-1].amplitudes[0], [0.6, 0.8])

    def test_agreement_game_collapses_to_the_favored_action(self):
        model = agreement_energy_pair()
        lean = np.array([math.sqrt(0.6), math.sqrt(0.4)])
        state0 = WaveState((lean, lean))
        points, report = evolve_coupled(model, state0, tol=1e-9)
        assert report.converged
        for psi in points[-1].amplitudes:
            assert abs(psi[0]) > 0.999
        for state in report.states:
            assert state.rayleigh == pytest.approx(0.0, abs=1e-6)

    def test_pairwise_model_evolves(self):
        model = helpers.random_pairwise_model(77, max_agents=3, max_card=3)
        points, report = evolve_coupled(model, t_max=200.0)
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
                assert effective_hamiltonian(model, state, i).scale() <= bound

    def test_default_coupled_step_comes_from_the_scale_bound(self):
        model = agreement_energy_pair()
        assert coupled_scale(model) == 1.0
        lean = np.array([math.sqrt(0.6), math.sqrt(0.4)])
        points, _ = evolve_coupled(model, WaveState((lean, lean)), t_max=5.0, record_every=1)
        assert points[1].time == pytest.approx(0.9 * model.hbar)


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
