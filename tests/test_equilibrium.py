import itertools
from dataclasses import replace

import numpy as np
import pytest

import helpers
from coopt import bundled_path, fileio
from coopt.discrete import iterate_to_fixed_point, random_profile
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
    validate,
)
from coopt.rng import SplitMix64


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


def anti_coordination():
    """Each agent is paid 1 where the two actions differ and 0 where they agree."""
    values = np.array([0.0, 1.0, 1.0, 0.0])
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


def term_order_game(seed):
    """Energy game over x0..x3 with 2, 3, 2 and 3 actions and energies in
    (-3, 3), whose three-term sums round by their order.  Agent 0 holds
    pairwise terms with x1, x2 and x3, in that order, of two shapes, so the
    contraction plan adds its tables in another order than its terms;
    agents 1-3 each hold one term back to x0."""
    cards = (2, 3, 2, 3)
    stream = SplitMix64(seed)

    def table(i, j):
        return np.array([[3.0 * stream.uniform_signed() for _ in range(cards[j])]
                         for _ in range(cards[i])])

    terms = tuple((f"x{j}", table(0, j)) for j in (1, 2, 3))
    agents = [Agent("agent0", "x0", PairwiseEnergy(terms))]
    agents += [Agent(f"agent{i}", f"x{i}", PairwiseEnergy((("x0", table(i, 0)),)))
               for i in (1, 2, 3)]
    return GameModel(tuple(DomainSpec(f"x{i}", c) for i, c in enumerate(cards)), tuple(agents))


def energies_by_enumeration(model):
    """Each pairwise agent's energy at every joint assignment, in
    lexicographic order, summed term by term in Python floats."""
    energies = {}
    for joint in itertools.product(*map(range, model.agent_cardinalities())):
        assignment = {a.acts_on: action for a, action in zip(model.agents, joint)}
        energies[joint] = [helpers.pairwise_sum(a.objective.terms, joint[i], assignment)
                           for i, a in enumerate(model.agents)]
    return energies


def pure_nash_by_enumeration(model):
    """The joint assignments where no agent lowers its energy alone."""
    energies = energies_by_enumeration(model)
    return [
        joint for joint, values in energies.items()
        if all(values[i] <= energies[joint[:i] + (a,) + joint[i + 1:]][i]
               for i, card in enumerate(model.agent_cardinalities()) for a in range(card))
    ]


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
        # three agents on 101 actions each: 1,030,301 joint assignments
        variables = tuple(DomainSpec(f"v{i}", 101) for i in range(3))
        agents = tuple(
            Agent(f"a{i}", f"v{i}", DenseUtility((f"v{i}",), np.ones(101))) for i in range(3)
        )
        big = validate(GameModel(variables, agents, mode="utility"))
        with pytest.raises(EnumerationTooLargeError):
            enumerate_pure_nash(big)

    def test_equilibria_are_listed_in_the_agents_order_whatever_the_variables_order(self):
        game = anti_coordination()
        listed = enumerate_pure_nash(game)
        assert listed == [(0, 1), (1, 0)]
        assert enumerate_pure_nash(replace(game, variables=game.variables[::-1])) == listed

    @pytest.mark.parametrize("seed", range(260, 270))
    def test_energy_models_compare_energies_at_any_hbar(self, seed):
        model = replace(helpers.random_pairwise_model(seed), hbar=1.0)
        listed = enumerate_pure_nash(model)
        assert listed == enumerate_pure_nash(to_utility_model(model))
        for hbar in (1e-320, 1e-3, 1e3):
            assert enumerate_pure_nash(replace(model, hbar=hbar)) == listed

    @pytest.mark.parametrize("seed", range(280, 292))
    def test_tables_added_out_of_term_order_list_the_enumerated_equilibria(self, seed):
        model = term_order_game(seed)
        first = model.plan.groups[0]
        assert first.owner.tolist() == [0, 0] and first.others[0].tolist() == [1, 3]
        assert enumerate_pure_nash(model) == pure_nash_by_enumeration(model)

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

    @pytest.mark.parametrize("seed", [31, 32, 40])  # mixed cardinalities, cells hit and missed
    def test_global_minimum_does_not_depend_on_the_variables_order(self, seed):
        model = helpers.random_pairwise_model(seed, max_agents=4, max_card=3)
        shuffled = replace(model, variables=model.variables[::-1])
        grid = [0.5, 2.0, 8.0]
        report = alpha_sweep(model, grid, restarts=3, base_seed=seed)
        assert alpha_sweep(shuffled, grid, restarts=3, base_seed=seed) == report
        assert {row.global_hit for row in report.rows} == {True, False}

    @pytest.mark.parametrize("seed", range(280, 292))
    def test_tables_added_out_of_term_order_hit_the_enumerated_minimum(self, seed):
        model = term_order_game(seed)
        totals = {joint: sum(values) for joint, values in energies_by_enumeration(model).items()}
        lowest = min(totals.values())
        grid, restarts = [0.5, 2.0, 8.0], 3
        report = alpha_sweep(model, grid, restarts=restarts, base_seed=seed)
        cells = itertools.product(grid, range(restarts))
        for row, (alpha, r) in zip(report.rows, cells, strict=True):
            init = None if r == 0 else random_profile(model, row.seed)
            profile = iterate_to_fixed_point(model, alpha, init).profile
            value = totals[decode_assignment(profile)]
            assert row.global_hit == (value <= lowest + 1e-12 * (1.0 + abs(lowest)))

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


def large_utility_game(agree, differ):
    """Two binary agents, each paid `agree` where their actions agree and
    `differ` where they differ."""
    values = np.array([agree, differ, differ, agree])
    return GameModel(
        (DomainSpec("x1", 2), DomainSpec("x2", 2)),
        (
            Agent("left", "x1", DenseUtility(("x1", "x2"), values)),
            Agent("right", "x2", DenseUtility(("x2", "x1"), values)),
        ),
        mode="utility",
    )


def test_utility_welfare_whose_mean_overflows_is_rejected_and_left_empty():
    # Each agent's payoff is 1.35e308, but their sum overflows; the test
    # configuration makes numpy's overflow warning an error.
    model = large_utility_game(1e308, 1.7e308)
    uniform = StrategyProfile.uniform(model)
    assert epsilon_of_profile(model, uniform).payoffs == pytest.approx((1.35e308, 1.35e308))
    with pytest.raises(ValueError, match="^the mean expected utility overflows$"):
        social_welfare(model, uniform)
    report = alpha_sweep(model, [1.0, 2.0], restarts=2)
    assert all(row.welfare is None and row.converged for row in report.rows)
    assert all(line.split(",")[5] == "" for line in report.to_csv().splitlines()[1:])
    # a mean just inside the float range is the plain mean
    near = large_utility_game(0.8e308, 0.9e308)
    payoffs = epsilon_of_profile(near, StrategyProfile.uniform(near)).payoffs
    assert social_welfare(near, StrategyProfile.uniform(near)) == float(np.mean(payoffs)) > 0.8e308


def mixed_cardinality_model():
    """The first seeded random pairwise model whose agents' cardinalities differ."""
    return next(m for m in map(helpers.random_pairwise_model, range(100, 160))
                if len(set(m.agent_cardinalities())) > 1)


SWEPT_MODELS = {
    **{name: lambda name=name: fileio.load_problem(bundled_path(name))
       for name in ("coordination", "matching_pennies", "pairwise_chain", "prisoners_dilemma")},
    "dense-utility": lambda: helpers.random_dense_model(61, n_agents=3, card=3, mode="utility"),
    "dense-energy": lambda: helpers.random_dense_model(62, n_agents=3, card=3, mode="energy"),
    "mixed-energy": mixed_cardinality_model,
    "mixed-utility": lambda: to_utility_model(mixed_cardinality_model()),
    "utility-near-float-limit": lambda: large_utility_game(0.8e308, 0.9e308),
    "utility-mean-overflows": lambda: large_utility_game(1e308, 1.7e308),
}


def trace_bytes(result):
    return [(s.step, s.max_change, s.p.tobytes(), s.log_returns.tobytes())
            for s in result.trace.steps]


@pytest.mark.parametrize("name", SWEPT_MODELS)
def test_sweep_cells_equal_separate_calls_bitwise(name):
    """Each row's epsilon and welfare are what epsilon_of_profile and
    social_welfare give for its cell's own run, as the CSV writes them; a
    run from the default start is the run from the uniform profile."""
    model = SWEPT_MODELS[name]()
    grid, restarts = [0.25, 1.0, 4.0, 32.0], 2
    report = alpha_sweep(model, grid, restarts=restarts, base_seed=3, max_iter=500)
    assert len(report.rows) == len(grid) * restarts
    for k, row in enumerate(report.rows):
        init = None if k % restarts == 0 else random_profile(model, row.seed)
        result = iterate_to_fixed_point(model, row.alpha, init, max_iter=500)
        assert (row.converged, row.iterations) == (result.converged, result.iterations)
        utility = model.mode == "utility"
        epsilon = epsilon_of_profile(model, result.profile).epsilon if utility else None
        try:
            welfare = social_welfare(model, result.profile)
        except ValueError:
            welfare = None
        assert (repr(row.epsilon), repr(row.welfare)) == (repr(epsilon), repr(welfare))

    for alpha in grid:
        default = iterate_to_fixed_point(model, alpha, max_iter=500, keep_trace=True)
        uniform = iterate_to_fixed_point(
            model, alpha, StrategyProfile.uniform(model), max_iter=500, keep_trace=True
        )
        assert [d.tobytes() for d in default.profile.dists] == [
            d.tobytes() for d in uniform.profile.dists
        ]
        assert [v.tobytes() for v in default.field.log_values] == [
            v.tobytes() for v in uniform.field.log_values
        ]
        fields = ("converged", "iterations", "max_change", "cycle_period")
        assert [getattr(default, f) for f in fields] == [getattr(uniform, f) for f in fields]
        assert trace_bytes(default) == trace_bytes(uniform)
