import itertools
from dataclasses import replace

import numpy as np
import pytest

import helpers
from coopt.discrete import iterate_to_fixed_point
from coopt.equilibrium import (
    EnumerationTooLargeError,
    alpha_sweep,
    decode_assignment,
    enumerate_pure_nash,
    epsilon_of_profile,
    social_welfare,
)
from coopt.model import (
    Agent,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    to_utility_model,
)


def coordination_game():
    values = np.array([1.0, 0.0, 0.0, 1.0])
    return GameModel(
        (DomainSpec("x1", 2), DomainSpec("x2", 2)),
        (
            Agent("left", "x1", DenseUtility(("x1", "x2"), values)),
            Agent("right", "x2", DenseUtility(("x2", "x1"), values)),
        ),
        mode="utility",
    )


def matching_pennies():
    return GameModel(
        (DomainSpec("x1", 2), DomainSpec("x2", 2)),
        (
            Agent("m", "x1", DenseUtility(("x1", "x2"), np.array([2.0, 1.0, 1.0, 2.0]))),
            Agent("mm", "x2", DenseUtility(("x2", "x1"), np.array([1.0, 2.0, 2.0, 1.0]))),
        ),
        mode="utility",
    )


def agreement_energy(shift=0.0, hbar=1.0):
    """Two binary agents, each with energy 1 + shift where they agree and
    2 + shift where they differ."""
    table = np.array([[1.0, 2.0], [2.0, 1.0]]) + shift
    return GameModel(
        (DomainSpec("a", 2), DomainSpec("b", 2)),
        (
            Agent("A", "a", PairwiseEnergy((("b", table),))),
            Agent("B", "b", PairwiseEnergy((("a", table),))),
        ),
        hbar=hbar,
    )


def binary_chain(n):
    """n agents in a line, each with a pairwise energy to its neighbours."""
    table = np.array([[0.0, 1.0], [1.0, 0.5]])
    agents = []
    for i in range(n):
        terms = tuple((f"v{j}", table) for j in (i - 1, i + 1) if 0 <= j < n)
        agents.append(Agent(f"agent{i}", f"v{i}", PairwiseEnergy(terms)))
    return GameModel(tuple(DomainSpec(f"v{i}", 2) for i in range(n)), tuple(agents))


class TestExpectedPayoff:
    def test_point_mass_reads_the_table_entry(self):
        model = helpers.prisoners_dilemma()
        profile = StrategyProfile.point_mass(model, (1, 0))  # row defects, col cooperates
        assert epsilon_of_profile(model, profile).payoffs == (5.0, 0.0)

    def test_constant_utility(self):
        model = helpers.prisoners_dilemma(t=4.0, r=4.0, p=4.0, s=4.0)
        profile = StrategyProfile((np.array([0.3, 0.7]), np.array([0.9, 0.1])))
        assert epsilon_of_profile(model, profile).payoffs[0] == pytest.approx(4.0, rel=1e-14)

    def test_uniform_prisoners_dilemma_average(self):
        model = helpers.prisoners_dilemma()
        uniform = StrategyProfile.uniform(model)
        assert epsilon_of_profile(model, uniform).payoffs == pytest.approx((2.25, 2.25), rel=1e-14)

    @pytest.mark.parametrize("seed", range(210, 215))
    def test_matches_full_enumeration_oracle(self, seed):
        model = helpers.random_dense_model(seed, n_agents=3, card=2, mode="utility")
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(seed + 1, model.agent_cardinalities()))
        )
        want = tuple(helpers.payoff_by_enumeration(model, profile, i) for i in range(3))
        assert epsilon_of_profile(model, profile).payoffs == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "model",
        [helpers.random_pairwise_model(seed) for seed in range(270, 276)]
        + [helpers.random_dense_model(seed, n_agents=2 + seed % 2, card=3, mode="energy")
           for seed in range(276, 280)],
    )
    def test_energy_models_score_their_boltzmann_utilities(self, model):
        utility = to_utility_model(model)
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(281, model.agent_cardinalities()))
        )
        got, want = epsilon_of_profile(model, profile), epsilon_of_profile(utility, profile)
        assert got.epsilon == pytest.approx(want.epsilon, rel=1e-12)
        assert got.gains == pytest.approx(want.gains, rel=1e-12)
        assert got.payoffs == pytest.approx(want.payoffs, rel=1e-12)
        assert social_welfare(model, profile) == pytest.approx(
            social_welfare(utility, profile), rel=1e-12
        )


class TestEpsilonCertificate:
    def test_mutual_defection_is_exact(self):
        model = helpers.prisoners_dilemma()
        cert = epsilon_of_profile(model, StrategyProfile.point_mass(model, (1, 1)))
        assert cert.epsilon == 0.0
        assert cert.gains == (0.0, 0.0)

    def test_uniform_profile_gain_is_three_quarters(self):
        model = helpers.prisoners_dilemma()
        cert = epsilon_of_profile(model, StrategyProfile.uniform(model))
        assert cert.epsilon == pytest.approx(0.75, rel=1e-13)
        assert cert.best_deviation == (1, 1)
        assert cert.payoffs == pytest.approx((2.25, 2.25))

    def test_constant_utility_any_profile_is_exact(self):
        model = helpers.prisoners_dilemma(t=2.0, r=2.0, p=2.0, s=2.0)
        profile = StrategyProfile((np.array([0.15, 0.85]), np.array([0.5, 0.5])))
        assert epsilon_of_profile(model, profile).epsilon == 0.0

    def test_gains_clamped_nonnegative(self):
        model = helpers.random_dense_model(220, n_agents=2, card=3, mode="utility")
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(221, model.agent_cardinalities()))
        )
        cert = epsilon_of_profile(model, profile)
        assert all(g >= 0.0 for g in cert.gains)
        assert cert.epsilon == max(cert.gains)

    def test_utilities_of_zero_certify(self):
        # A best payoff of exactly 0 is a utility, not an underflowed weight.
        model = helpers.prisoners_dilemma(t=0.0, r=0.0, p=0.0, s=0.0)
        cert = epsilon_of_profile(model, StrategyProfile.point_mass(model, (1, 0)))
        assert cert.epsilon == 0.0
        assert cert.payoffs == (0.0, 0.0)

    def test_underflowed_boltzmann_weights_are_rejected_naming_hbar(self):
        # At hbar = 0.001 every weight exp(-E/hbar) of this game is 0, so
        # every gain would read 0, while B gains by switching to 0.
        model = replace(agreement_energy(), hbar=0.001)
        with pytest.raises(ValueError, match="hbar=0.001"):
            epsilon_of_profile(model, StrategyProfile.point_mass(model, (0, 1)))

    def test_overflowed_boltzmann_weights_are_rejected_naming_hbar(self):
        # At hbar = 1e-300 the weight exp(0.5/hbar) of energy -0.5 is inf,
        # so every gain would read inf - inf = NaN.
        model = agreement_energy(shift=-1.5, hbar=1e-300)
        with pytest.raises(ValueError, match="overflows at hbar=1e-300"):
            epsilon_of_profile(model, StrategyProfile.point_mass(model, (0, 1)))

    @pytest.mark.parametrize("hbar", [0.01, 1.0 / 720.0])  # weights ~1e-44, subnormal ~1e-313
    def test_tiny_representable_boltzmann_weights_still_certify(self, hbar):
        model = replace(agreement_energy(), hbar=hbar)
        cert = epsilon_of_profile(model, StrategyProfile.point_mass(model, (0, 1)))
        gain = np.exp(-1.0 / hbar) - np.exp(-2.0 / hbar)
        assert 0.0 < gain
        assert cert.best_deviation == (1, 0)
        assert cert.gains == (gain, gain)
        assert cert.epsilon == gain


class TestPureNashEnumeration:
    def test_prisoners_dilemma_has_only_mutual_defection(self):
        assert enumerate_pure_nash(helpers.prisoners_dilemma()) == [(1, 1)]

    def test_matching_pennies_has_none(self):
        assert enumerate_pure_nash(matching_pennies()) == []

    def test_coordination_has_both_agreements(self):
        assert enumerate_pure_nash(coordination_game()) == [(0, 0), (1, 1)]

    def test_size_guard(self):
        model = helpers.random_dense_model(7, n_agents=2, card=2, mode="utility")
        big = GameModel(
            tuple(DomainSpec(f"v{i}", 101) for i in range(3)),
            model.agents,
            mode="utility",
        )
        with pytest.raises(EnumerationTooLargeError):
            enumerate_pure_nash(big)

    @pytest.mark.parametrize("seed", range(260, 270))
    def test_energy_models_compare_energies_at_any_hbar(self, seed):
        model = replace(helpers.random_pairwise_model(seed), hbar=1.0)
        listed = enumerate_pure_nash(model)
        assert listed == enumerate_pure_nash(to_utility_model(model))
        for hbar in (1e-3, 1e3):
            assert enumerate_pure_nash(replace(model, hbar=hbar)) == listed

    @pytest.mark.parametrize("seed", range(230, 260))
    def test_soundness_and_completeness_on_random_games(self, seed):
        n_agents = 2 if seed % 2 == 0 else 3
        model = helpers.random_dense_model(seed, n_agents=n_agents, card=2, mode="utility")
        listed = set(enumerate_pure_nash(model))
        for assignment in itertools.product(range(2), repeat=n_agents):
            cert = epsilon_of_profile(model, StrategyProfile.point_mass(model, assignment))
            if assignment in listed:
                assert cert.epsilon <= 1e-12
            else:
                assert cert.epsilon > 1e-9


class TestScalingEquivariance:
    def test_scaling_one_agent_scales_its_gain_and_fixes_the_dynamics(self):
        model = helpers.random_dense_model(240, n_agents=2, card=3, mode="utility")
        s = 3.7
        scaled_agents = (
            Agent(
                model.agents[0].name,
                model.agents[0].acts_on,
                DenseUtility(model.agents[0].objective.order, s * model.agents[0].objective.values),
            ),
            model.agents[1],
        )
        scaled = GameModel(model.variables, scaled_agents, mode="utility")
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(241, model.agent_cardinalities()))
        )
        base_cert = epsilon_of_profile(model, profile)
        scaled_cert = epsilon_of_profile(scaled, profile)
        assert scaled_cert.gains[0] == pytest.approx(s * base_cert.gains[0], rel=1e-12)
        assert scaled_cert.gains[1] == base_cert.gains[1]

        r1 = iterate_to_fixed_point(model, 2.0, profile, max_iter=200)
        r2 = iterate_to_fixed_point(scaled, 2.0, profile, max_iter=200)
        for d1, d2 in zip(r1.profile.dists, r2.profile.dists):
            np.testing.assert_allclose(d1, d2, atol=1e-10)


class TestDecodeAssignment:
    def test_lowest_index_wins_ties(self):
        profile = StrategyProfile((np.array([0.5, 0.5]), np.array([0.2, 0.8])))
        assert decode_assignment(profile) == (0, 1)

    def test_near_ties_resolve_to_lowest_index(self):
        p = 0.5 + 2e-16
        profile = StrategyProfile((np.array([1.0 - p, p]),))
        assert decode_assignment(profile) == (0,)


class TestAlphaSweep:
    def test_single_agent_energy_always_hits_the_optimum(self):
        model = helpers.single_agent_energy([0.9, 0.1, 0.5], hbar=1.0)
        report = alpha_sweep(model, [0.5, 1.0, 4.0], restarts=3, base_seed=7)
        assert len(report.rows) == 9
        assert all(row.global_hit for row in report.rows)
        assert all(row.epsilon is None for row in report.rows)
        assert all(row.converged for row in report.rows)

    def test_prisoners_dilemma_epsilon_trend(self):
        model = helpers.prisoners_dilemma()
        report = alpha_sweep(model, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        eps = [row.epsilon for row in report.rows]
        assert all(e is not None for e in eps)
        assert all(b < a + 1e-9 for a, b in zip(eps, eps[1:]))
        assert eps[-1] < eps[0]
        assert all(row.global_hit is None for row in report.rows)

    def test_small_alpha_welfare_beats_mutual_defection(self):
        model = helpers.prisoners_dilemma()
        report = alpha_sweep(model, [0.5])
        assert report.rows[0].welfare > 1.0

    def test_deterministic_for_fixed_seed(self):
        model = helpers.random_pairwise_model(33)
        a = alpha_sweep(model, [0.5, 2.0], restarts=3, base_seed=42)
        b = alpha_sweep(model, [0.5, 2.0], restarts=3, base_seed=42)
        assert a == b
        assert a.to_csv() == b.to_csv()
        c = alpha_sweep(model, [0.5, 2.0], restarts=3, base_seed=43)
        assert c != a

    def test_csv_shape(self):
        model = helpers.prisoners_dilemma()
        report = alpha_sweep(model, [1.0, 8.0], restarts=2, base_seed=3)
        lines = report.to_csv().splitlines()
        assert lines[0] == "alpha,seed,converged,iterations,epsilon,welfare,global_hit"
        assert len(lines) == 5
        # utility model: epsilon and welfare filled, global_hit empty
        cells = lines[1].split(",")
        assert cells[4] != "" and cells[5] != "" and cells[6] == ""

    def test_energy_model_rows_fill_welfare_and_hit(self):
        model = helpers.random_pairwise_model(35, max_agents=3, max_card=3)
        report = alpha_sweep(model, [1.0], restarts=2, base_seed=5)
        for row in report.rows:
            assert row.epsilon is None
            assert row.welfare is not None
            assert row.global_hit in (True, False)

    def test_energy_model_beyond_the_enumeration_cap_leaves_global_hit_empty(self):
        report = alpha_sweep(binary_chain(21), [1.0, 8.0], restarts=2)  # 2**21 assignments
        assert all(row.welfare is not None for row in report.rows)
        assert all(row.global_hit is None for row in report.rows)


def test_social_welfare_is_mean_payoff():
    model = helpers.prisoners_dilemma()
    uniform = StrategyProfile.uniform(model)
    assert social_welfare(model, uniform) == pytest.approx(2.25)


@pytest.mark.parametrize("shift,hbar,fate", [
    (0.0, 0.001, "underflows to 0"),  # every weight exp(-E/hbar) <= exp(-1000)
    (-1.5, 1e-300, "overflows"),  # the weight of energy -0.5 is exp(5e299)
])
def test_welfare_outside_the_float_range_is_rejected_and_left_empty(shift, hbar, fate):
    model = agreement_energy(shift, hbar)
    with pytest.raises(ValueError, match=f"{fate} at hbar={hbar!r}"):
        social_welfare(model, StrategyProfile.uniform(model))
    report = alpha_sweep(model, [0.5, 2.0, 8.0], restarts=2)
    assert len(report.rows) == 6
    assert all(row.welfare is None and row.global_hit is not None for row in report.rows)
    # and the column is written empty
    assert all(line.split(",")[5] == "" for line in report.to_csv().splitlines()[1:])
