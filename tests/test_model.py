import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from dense_expansion import densify
from coopt.model import (
    PROBABILITY_TOL,
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    ValidationError,
    stack,
    to_utility_model,
    validate,
    validate_profile,
)


def two_by_two(values, mode="utility"):
    cls = DenseUtility if mode == "utility" else DenseEnergy
    variables = (DomainSpec("x1", 2), DomainSpec("x2", 2))
    agents = (
        Agent("a1", "x1", cls(("x1", "x2"), np.asarray(values, dtype=float))),
        Agent("a2", "x2", cls(("x2", "x1"), np.asarray(values, dtype=float))),
    )
    return GameModel(variables, agents, mode=mode)


def failing_profile_case():
    """Seven agents of mixed cardinalities on a ring, and a profile whose
    agents fail every check in turn; agent a4's distribution is valid."""
    cards = [2, 3, 5, 3, 2, 4, 3]
    model = GameModel(
        tuple(DomainSpec(f"x{i}", c) for i, c in enumerate(cards)),
        tuple(
            Agent(f"a{i}", f"x{i}",
                  PairwiseEnergy(((f"x{(i + 1) % 7}", np.zeros((c, cards[(i + 1) % 7]))),)))
            for i, c in enumerate(cards)
        ),
    )
    dists = (
        np.array([0.2, 0.3, 0.5]),  # wrong length
        np.array([0.5, math.nan, 0.5]),
        np.array([0.5, -0.25, 0.25, 0.25, 0.25]),  # negative, sums to 1
        np.array([0.5, 0.3, 0.1]),  # bad sum
        np.array([0.5, 0.5]),
        np.array([[0.25, 0.25], [0.25, 0.25]]),  # wrong shape, right size
        np.array([-math.inf, 0.5, 1.5]),  # non-finite and negative
    )
    return model, StrategyProfile(dists)


def failing_model_case():
    """Pairwise and dense agents whose tables are non-finite, wrongly shaped
    or over unknown variables, in orders that skip some tables' checks."""
    variables = (DomainSpec("x", 2), DomainSpec("y", 3), DomainSpec("z", 5))
    agents = (
        Agent("a", "x", PairwiseEnergy((
            ("w", np.full((2, 3), math.nan)),  # unknown variable, not tested for finiteness
            ("y", np.array([[0.0, math.inf, 0.0], [0.0, 0.0, 0.0]])),
            ("z", np.zeros((3, 3))),
            ("y", np.zeros((2, 3))),
        ))),
        Agent("b", "y", DenseEnergy(("y", "q"), np.full(6, math.nan))),  # unknown variable
        Agent("c", "z", DenseEnergy(("z", "x"), np.r_[np.zeros(9), math.nan])),
    )
    return GameModel(variables, agents)


def malformed_ring(faults, n=6):
    """Ring of n three-action agents, each with a pairwise term per
    neighbour; faults maps an agent index to the faults its terms get."""
    terms = [[(f"x{(i - 1) % n}", np.ones((3, 3))), (f"x{(i + 1) % n}", np.ones((3, 3)))]
             for i in range(n)]
    for i, kinds in faults.items():
        for kind in kinds:
            if kind == "unknown":
                terms[i][0] = ("nope", terms[i][0][1])
            elif kind == "self":
                terms[i][1] = (f"x{i}", terms[i][1][1])
            elif kind == "duplicate":
                terms[i].append(terms[i][0])
            elif kind == "shape":
                terms[i][1] = (terms[i][1][0], np.ones((3, 2)))
            elif kind == "nonfinite":
                terms[i][1] = (terms[i][1][0], np.full((3, 3), math.nan))
    return GameModel(
        tuple(DomainSpec(f"x{i}", 3) for i in range(n)),
        tuple(Agent(f"a{i}", f"x{i}", PairwiseEnergy(tuple(terms[i]))) for i in range(n)),
    )


class TestValidate:
    def test_well_formed_prisoners_dilemma_accepted(self):
        model = helpers.prisoners_dilemma()
        assert validate(model) is model

    def test_value_count_mismatch(self):
        model = two_by_two([1.0, 2.0, 3.0, 4.0])
        bad = GameModel(
            model.variables,
            (Agent("a1", "x1", DenseUtility(("x1", "x2"), [1.0, 2.0, 3.0])), model.agents[1]),
            mode="utility",
        )
        with pytest.raises(ValidationError, match="3 values"):
            validate(bad)

    def test_zero_hbar(self):
        model = two_by_two([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError, match="hbar"):
            validate(GameModel(model.variables, model.agents, hbar=0.0, mode="utility"))

    def test_negative_utility(self):
        with pytest.raises(ValidationError, match="negative utility"):
            validate(two_by_two([1.0, -2.0, 3.0, 4.0]))

    def test_duplicate_variable(self):
        model = GameModel(
            (DomainSpec("x", 2), DomainSpec("x", 2)),
            two_by_two([1, 2, 3, 4]).agents,
            mode="utility",
        )
        with pytest.raises(ValidationError, match="duplicate variable"):
            validate(model)

    def test_cardinality_below_two(self):
        model = helpers.single_agent_energy([0.0, 1.0])
        bad = GameModel((DomainSpec("x", 1),), model.agents, mode="energy")
        with pytest.raises(ValidationError, match="cardinality"):
            validate(bad)

    def test_mode_objective_mismatch(self):
        model = two_by_two([1.0, 2.0, 3.0, 4.0], mode="utility")
        with pytest.raises(ValidationError, match="utility objective in energy mode"):
            validate(GameModel(model.variables, model.agents, mode="energy"))

    def test_infinite_energy_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            validate(two_by_two([np.inf, 0.0, 0.0, 0.0], mode="energy"))

    def test_problem_list_is_pinned(self):
        with pytest.raises(ValidationError) as raised:
            validate(failing_model_case())
        assert raised.value.problems == [
            "agent 'a': pairwise term with unknown variable 'w'",
            "agent 'a': non-finite pairwise energy",
            "agent 'a': pairwise table for 'z' has shape (3, 3), expected (2, 5)",
            "agent 'a': variable 'y' listed twice in pairwise terms",
            "agent 'b': unknown variable 'q' in order",
            "agent 'c': non-finite objective value",
        ]

    @pytest.mark.parametrize("faults,problems", [
        ({5: ["nonfinite"], 1: ["unknown"], 4: ["shape"], 2: ["self"], 3: ["duplicate"]}, [
            "agent 'a1': pairwise term with unknown variable 'nope'",
            "agent 'a2': pairwise term with its own variable",
            "agent 'a3': variable 'x2' listed twice in pairwise terms",
            "agent 'a4': pairwise table for 'x5' has shape (3, 2), expected (3, 3)",
            "agent 'a5': non-finite pairwise energy",
        ]),
        ({2: ["duplicate", "nonfinite"], 0: ["unknown", "self"]}, [
            "agent 'a0': pairwise term with unknown variable 'nope'",
            "agent 'a0': pairwise term with its own variable",
            "agent 'a2': non-finite pairwise energy",
            "agent 'a2': variable 'x1' listed twice in pairwise terms",
        ]),
    ])
    def test_malformed_pairwise_ring_names_agents_in_order(self, faults, problems):
        with pytest.raises(ValidationError) as raised:
            validate(malformed_ring(faults))
        assert raised.value.problems == problems

    def test_every_violation_reported(self):
        model = two_by_two([1.0, -2.0, 3.0], mode="utility")
        bad = GameModel(model.variables, model.agents, hbar=-1.0, mode="utility")
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert len(err.value.problems) >= 3  # hbar, shape, negative utility

    @given(st.lists(st.tuples(st.booleans(), st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
            lambda shape: st.lists(st.floats(), min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]).map(
                lambda values: np.array(values, dtype=float).reshape(shape))),
        max_size=3,
    )), min_size=1, max_size=6))
    def test_non_finite_tables_name_exactly_their_agents_in_order(self, agents):
        # Each agent holds one dense table (own variable only) or up to three
        # pairwise terms with the extra variable y, of any shape, empty ones
        # included; sizes and shapes are mostly wrong, which validate reports
        # in other messages.
        built, want = [], []
        for i, (dense, tables) in enumerate(agents):
            if dense:
                tables = tables[:1] or [np.zeros((0, 0))]
                objective = DenseEnergy((f"x{i}",), tables[0])
            else:
                objective = PairwiseEnergy(tuple(("y", table) for table in tables))
            built.append(Agent(f"a{i}", f"x{i}", objective))
            what = "non-finite objective value" if dense else "non-finite pairwise energy"
            want += [f"agent 'a{i}': {what}" for t in tables if not np.isfinite(t).all()]
        variables = tuple(DomainSpec(f"x{i}", 2) for i in range(len(agents)))
        with pytest.raises(ValidationError) as raised:  # y has no agent
            validate(GameModel((*variables, DomainSpec("y", 2)), tuple(built)))
        assert [m for m in raised.value.problems if "non-finite" in m] == want


def boltzmann_utilities(energies, hbar):
    """The utilities to_utility_model gives a single agent's energies."""
    model = to_utility_model(helpers.single_agent_energy(energies, hbar))
    assert model.mode == "utility" and model.agents[0].objective.order == ("x",)
    return model.agents[0].objective.values


class TestEnergyToUtility:
    def test_zero_energy_gives_unit_utility(self):
        np.testing.assert_array_equal(boltzmann_utilities([0.0, 0.0], 0.37), [1.0, 1.0])

    def test_energy_equal_hbar(self):
        assert boltzmann_utilities([2.5], 2.5)[0] == pytest.approx(math.exp(-1.0))
        assert boltzmann_utilities([2.5], 2.5)[0] == pytest.approx(0.367879, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=0.1, max_value=3.0),
    )
    def test_constant_shift_scales_utilities(self, energies, c, hbar):
        base = boltzmann_utilities(energies, hbar)
        shifted = boltzmann_utilities(np.array(energies) + c, hbar)
        np.testing.assert_allclose(shifted, base * math.exp(-c / hbar), rtol=1e-12)

    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=3.0),
    )
    def test_log_round_trip(self, energies, hbar):
        recovered = -hbar * np.log(boltzmann_utilities(energies, hbar))
        np.testing.assert_allclose(recovered, energies, atol=1e-12 * (1 + hbar * 25))

    def test_order_reversing(self):
        u = boltzmann_utilities([0.0, 1.0, 2.0], 1.0)
        assert u[0] > u[1] > u[2] > 0


class TestDensify:
    def test_single_term_is_the_table(self):
        model = helpers.random_pairwise_model(3)
        table = np.array([[0.0, 1.0], [2.0, 3.0]])
        m = GameModel(
            (DomainSpec("x", 2), DomainSpec("y", 2)),
            (
                Agent("ax", "x", PairwiseEnergy((("y", table),))),
                Agent("ay", "y", PairwiseEnergy((("x", table.T),))),
            ),
            mode="energy",
        )
        dense = densify(m.agents[0].objective, m, "x")
        assert dense.order == ("x", "y")
        np.testing.assert_array_equal(dense.values.reshape(2, 2), table)

    def test_zero_tables_give_zero_tensor(self):
        m = GameModel(
            (DomainSpec("x", 2), DomainSpec("y", 3), DomainSpec("z", 2)),
            (
                Agent("ax", "x", PairwiseEnergy((("y", np.zeros((2, 3))), ("z", np.zeros((2, 2)))))),
                Agent("ay", "y", PairwiseEnergy((("x", np.zeros((3, 2))),))),
                Agent("az", "z", PairwiseEnergy((("x", np.zeros((2, 2))),))),
            ),
            mode="energy",
        )
        dense = densify(m.agents[0].objective, m, "x")
        np.testing.assert_array_equal(dense.values, np.zeros(12))

    @pytest.mark.parametrize("seed", range(40, 50))
    def test_matches_per_assignment_summation(self, seed):
        model = helpers.random_pairwise_model(seed, max_agents=3, max_card=4)
        for agent in model.agents:
            dense = densify(agent.objective, model, agent.acts_on)
            shape = model.shape_of(dense.order)
            grid = dense.values.reshape(shape)
            import itertools

            for combo in itertools.product(*[range(c) for c in shape]):
                assignment = dict(zip(dense.order, combo))
                own_action = assignment[agent.acts_on]
                expected = helpers.pairwise_sum(agent.objective.terms, own_action, assignment)
                assert grid[combo] == pytest.approx(expected, abs=1e-12)

    def test_unknown_variable_rejected(self):
        model = helpers.random_pairwise_model(3)
        bad = PairwiseEnergy((("nope", np.zeros((2, 2))),))
        with pytest.raises(KeyError):
            densify(bad, model, model.agents[0].acts_on)


class TestProfiles:
    def test_uniform_sums_to_one(self):
        model = helpers.random_pairwise_model(5)
        profile = StrategyProfile.uniform(model)
        for d in profile.dists:
            assert d.sum() == pytest.approx(1.0, abs=1e-12)
        validate_profile(model, profile)

    def test_point_mass(self):
        model = helpers.prisoners_dilemma()
        profile = StrategyProfile.point_mass(model, (1, 0))
        np.testing.assert_array_equal(profile.dists[0], [0.0, 1.0])
        np.testing.assert_array_equal(profile.dists[1], [1.0, 0.0])

    def test_bad_sum_rejected(self):
        model = helpers.prisoners_dilemma()
        with pytest.raises(ValidationError, match="sum"):
            validate_profile(model, StrategyProfile((np.array([0.6, 0.6]), np.array([0.5, 0.5]))))

    def test_negative_probability_rejected(self):
        model = helpers.prisoners_dilemma()
        with pytest.raises(ValidationError, match="negative"):
            validate_profile(model, StrategyProfile((np.array([-0.5, 1.5]), np.array([0.5, 0.5]))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sums_past_the_float_range_are_refused_without_a_warning(self):
        model = helpers.prisoners_dilemma()
        dists = (np.array([1e308, 1e308]), np.array([np.inf, -np.inf]))
        with pytest.raises(ValidationError) as raised:
            validate_profile(model, StrategyProfile(dists))
        assert raised.value.problems == [
            "agent 'row': probabilities sum to inf, not 1",
            "agent 'col': non-finite probability",
        ]

    def test_problem_list_is_pinned(self):
        model, profile = failing_profile_case()
        with pytest.raises(ValidationError) as raised:
            validate_profile(model, profile)
        assert raised.value.problems == [
            "agent 'a0': distribution length 3 != 2",
            "agent 'a1': non-finite probability",
            "agent 'a2': negative probability",
            "agent 'a3': probabilities sum to 0.90000000000000002, not 1",
            "agent 'a5': distribution shape (2, 2) != (4,)",
            "agent 'a6': non-finite probability",
        ]

    def test_a_misshapen_distribution_names_its_shape(self):
        # A (1, 2) distribution has the right size for a two-action agent;
        # its refusal must not read "length 2 != 2".
        model = helpers.prisoners_dilemma()
        dists = (np.array([[0.5, 0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError) as raised:
            validate_profile(model, StrategyProfile(dists))
        assert raised.value.problems == ["agent 'row': distribution shape (1, 2) != (2,)"]
        dists = (np.array(0.5), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError) as raised:
            validate_profile(model, StrategyProfile(dists))
        assert raised.value.problems == ["agent 'row': distribution shape () != (2,)"]

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=6),
        st.integers(0, 2**32),
        st.floats(-3e-12, 3e-12),
    )
    def test_sums_near_the_tolerance_are_decided_as_each_sum_does(self, cards, seed, offset):
        # Each distribution sums to about 1 + offset, so some land within
        # rounding of PROBABILITY_TOL; the verdict and message must be those
        # of the agent's own dist.sum().
        model = GameModel(
            tuple(DomainSpec(f"x{i}", c) for i, c in enumerate(cards)),
            tuple(Agent(f"a{i}", f"x{i}", PairwiseEnergy(())) for i in range(len(cards))),
        )
        dists = [d * (1.0 + offset) for d in helpers.random_profile_arrays(seed, cards)]
        want = [
            f"agent 'a{i}': probabilities sum to {float(d.sum()):.17g}, not 1"
            for i, d in enumerate(dists) if abs(float(d.sum()) - 1.0) > PROBABILITY_TOL
        ]
        try:
            validate_profile(model, StrategyProfile(tuple(dists)))
            got = []
        except ValidationError as e:
            got = e.problems
        assert got == want

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.integers(0, 2**32))
    def test_returns_the_stacked_distributions_column_major(self, cards, seed):
        model = GameModel(
            tuple(DomainSpec(f"x{i}", c) for i, c in enumerate(cards)),
            tuple(Agent(f"a{i}", f"x{i}", PairwiseEnergy(())) for i in range(len(cards))),
        )
        profile = StrategyProfile(tuple(helpers.random_profile_arrays(seed, cards)))
        p = validate_profile(model, profile)
        want = stack(profile.dists, 0.0)
        assert p.flags.f_contiguous
        assert (p.dtype, p.shape) == (want.dtype, want.shape)
        assert p.tobytes() == want.tobytes()


class TestUtilityConversion:
    def test_pairwise_model_round_trips_through_densify(self):
        model = helpers.random_pairwise_model(9)
        converted = to_utility_model(model)
        assert converted.mode == "utility"
        validate(converted)
        for agent in converted.agents:
            assert (agent.objective.values > 0).all()
