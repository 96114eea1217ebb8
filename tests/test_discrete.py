import math

import numpy as np
import pytest

import helpers
from coopt.discrete import (
    ALPHA_CAP,
    AllZeroReturnsError,
    DivergenceError,
    ExpectedReturnField,
    expected_return_update,
    expected_return_update_factorized,
    iterate_to_fixed_point,
    normalize_policy,
    random_profile,
)
from coopt.model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    densify,
)


def agreement_energy_pair():
    """Two binary agents, zero energy on agreement and one on disagreement."""
    values = np.array([0.0, 1.0, 1.0, 0.0])
    variables = (DomainSpec("x1", 2), DomainSpec("x2", 2))
    agents = (
        Agent("a1", "x1", DenseEnergy(("x1", "x2"), values)),
        Agent("a2", "x2", DenseEnergy(("x2", "x1"), values)),
    )
    return GameModel(variables, agents, hbar=1.0, mode="energy")


class TestExpectedReturnUpdate:
    def test_single_agent_is_the_boltzmann_weight(self):
        model = helpers.single_agent_energy([0.3, 1.2, 0.7], hbar=0.5)
        field = expected_return_update(model, StrategyProfile.uniform(model))
        np.testing.assert_allclose(
            field.values[0], np.exp(-np.array([0.3, 1.2, 0.7]) / 0.5), rtol=1e-14
        )

    def test_constant_utility_gives_unit_returns(self):
        model = helpers.prisoners_dilemma(t=1.0, r=1.0, p=1.0, s=1.0)
        field = expected_return_update(model, StrategyProfile.uniform(model))
        for psi in field.values:
            np.testing.assert_allclose(psi, [1.0, 1.0], rtol=1e-14)

    def test_agreement_pair_against_hand_enumeration(self):
        # psi_1(a) = 0.5 * (exp(0) + exp(-1)) for both actions under a uniform opponent
        model = agreement_energy_pair()
        field = expected_return_update(model, StrategyProfile.uniform(model))
        expected = 0.5 * (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(field.values[0], [expected, expected], rtol=1e-14)
        assert expected == pytest.approx(0.683940, abs=1e-6)

    @pytest.mark.parametrize("seed", range(60, 66))
    def test_dense_update_matches_linear_enumeration_oracle(self, seed):
        model = helpers.random_dense_model(seed, n_agents=3, card=3, mode="utility")
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(seed + 1, model.agent_cardinalities()))
        )
        field = expected_return_update(model, profile)
        oracle = helpers.returns_by_enumeration(model, profile)
        for got, want in zip(field.values, oracle):
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_rejects_pairwise_objectives(self):
        model = helpers.random_pairwise_model(3)
        with pytest.raises(ValueError, match="factorized"):
            expected_return_update(model, StrategyProfile.uniform(model))


class TestFactorizedUpdate:
    def test_zero_tables_give_unit_returns(self):
        m = GameModel(
            (DomainSpec("x", 2), DomainSpec("y", 3)),
            (
                Agent("ax", "x", PairwiseEnergy((("y", np.zeros((2, 3))),))),
                Agent("ay", "y", PairwiseEnergy((("x", np.zeros((3, 2))),))),
            ),
            mode="energy",
        )
        field = expected_return_update_factorized(m, StrategyProfile.uniform(m))
        for psi in field.values:
            np.testing.assert_allclose(psi, np.ones_like(psi), rtol=1e-14)

    @pytest.mark.parametrize("seed", range(70, 90))
    def test_matches_densified_exact_path(self, seed):
        model = helpers.random_pairwise_model(seed)
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(seed + 1, model.agent_cardinalities()))
        )
        factorized = expected_return_update_factorized(model, profile)
        dense_agents = tuple(
            Agent(a.name, a.acts_on, densify(a.objective, model, a.acts_on))
            for a in model.agents
        )
        dense_model = GameModel(model.variables, dense_agents, hbar=model.hbar, mode="energy")
        dense = expected_return_update(dense_model, profile)
        for got, want in zip(factorized.values, dense.values):
            assert np.abs(got - want).max() <= 1e-12 * max(1e-30, np.abs(want).max())

    def test_rejects_dense_objectives(self):
        model = helpers.prisoners_dilemma()
        with pytest.raises(ValueError, match="pairwise"):
            expected_return_update_factorized(model, StrategyProfile.uniform(model))


class TestNormalizePolicy:
    def field(self, *vectors):
        return ExpectedReturnField(tuple(np.log(np.asarray(v, dtype=float)) for v in vectors))

    def test_linear_ratio_at_alpha_one(self):
        profile = normalize_policy(self.field([1.0, 3.0]), 1.0)
        np.testing.assert_allclose(profile.dists[0], [0.25, 0.75], rtol=1e-14)

    def test_squares_at_alpha_two(self):
        profile = normalize_policy(self.field([1.0, 3.0]), 2.0)
        np.testing.assert_allclose(profile.dists[0], [0.1, 0.9], rtol=1e-14)

    def test_uniform_returns_give_uniform_policy(self):
        for alpha in (0.5, 1.0, 7.0, 1e5):
            profile = normalize_policy(self.field([2.5, 2.5, 2.5]), alpha)
            np.testing.assert_allclose(profile.dists[0], np.full(3, 1 / 3), rtol=1e-14)

    def test_all_zero_returns_rejected(self):
        field = ExpectedReturnField((np.array([-np.inf, -np.inf]),))
        with pytest.raises(AllZeroReturnsError):
            normalize_policy(field, 1.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            normalize_policy(self.field([1.0, 2.0]), 0.0)

    def test_alpha_capped_at_best_response_limit(self):
        f = self.field([1.0, 2.0])
        capped = normalize_policy(f, ALPHA_CAP)
        huge = normalize_policy(f, 1e12)
        np.testing.assert_array_equal(capped.dists[0], huge.dists[0])

    def test_sums_to_one(self):
        profile = normalize_policy(self.field([1e-200, 1.0, 1e200]), 3.0)
        assert profile.dists[0].sum() == pytest.approx(1.0, abs=1e-12)


class TestIteration:
    def test_constant_utility_converges_in_one_step(self):
        model = helpers.prisoners_dilemma(t=2.0, r=2.0, p=2.0, s=2.0)
        result = iterate_to_fixed_point(model, 3.0)
        assert result.converged and result.iterations == 1
        for d in result.profile.dists:
            np.testing.assert_allclose(d, [0.5, 0.5], rtol=1e-14)

    def test_matching_pennies_uniform_is_a_fixed_point(self):
        values = np.array([2.0, 1.0, 1.0, 2.0])
        mirrored = np.array([1.0, 2.0, 2.0, 1.0])
        model = GameModel(
            (DomainSpec("x1", 2), DomainSpec("x2", 2)),
            (
                Agent("m", "x1", DenseUtility(("x1", "x2"), values)),
                Agent("mm", "x2", DenseUtility(("x2", "x1"), mirrored)),
            ),
            mode="utility",
        )
        result = iterate_to_fixed_point(model, 5.0)
        assert result.converged and result.iterations == 1
        for d in result.profile.dists:
            np.testing.assert_array_equal(d, [0.5, 0.5])

    def test_prisoners_dilemma_high_alpha_defects(self):
        model = helpers.prisoners_dilemma()
        result = iterate_to_fixed_point(model, 8.0, keep_trace=True)
        assert result.converged
        for d in result.profile.dists:
            assert d[1] > 0.99
        # defection strictly dominates, so it leads at every step
        for step in result.trace.steps:
            for d in step.profile.dists:
                assert d[1] > 0.5

    def test_non_convergence_is_reported_not_raised(self):
        values = np.array([2.0, 1.0, 1.0, 2.0])
        mirrored = np.array([1.0, 2.0, 2.0, 1.0])
        model = GameModel(
            (DomainSpec("x1", 2), DomainSpec("x2", 2)),
            (
                Agent("m", "x1", DenseUtility(("x1", "x2"), values)),
                Agent("mm", "x2", DenseUtility(("x2", "x1"), mirrored)),
            ),
            mode="utility",
        )
        init = random_profile(model, 123)
        result = iterate_to_fixed_point(model, 32.0, init, max_iter=300)
        assert not result.converged
        assert result.iterations == 300
        assert result.max_change > 1e-3

    def test_mixed_dense_and_pairwise_agents_iterate(self):
        table = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = GameModel(
            (DomainSpec("x1", 2), DomainSpec("x2", 2)),
            (
                Agent("a1", "x1", DenseEnergy(("x1", "x2"), np.array([0.0, 1.0, 1.0, 0.0]))),
                Agent("a2", "x2", PairwiseEnergy((("x1", table),))),
            ),
            mode="energy",
        )
        result = iterate_to_fixed_point(model, 2.0, random_profile(model, 5))
        assert result.converged


    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_return_is_a_divergence(self):
        # -E / hbar overflows to +inf, so the expected return is infinite
        model = helpers.single_agent_energy([-1e308, 0.0], hbar=1e-10)
        with pytest.raises(DivergenceError, match="step 1"):
            iterate_to_fixed_point(model, 1.0)

class TestIterationInvariants:
    def test_normalization_conserved_every_step(self):
        model = helpers.random_dense_model(31, n_agents=3, card=3, mode="utility")
        result = iterate_to_fixed_point(model, 2.5, random_profile(model, 8), keep_trace=True)
        for step in result.trace.steps:
            for d in step.profile.dists:
                assert abs(d.sum() - 1.0) <= 1e-12

    def test_energy_shift_leaves_profile_sequence_unchanged(self):
        base = helpers.random_dense_model(17, n_agents=2, card=3, mode="energy")
        shifts = (1.7, -2.3)
        shifted_agents = tuple(
            Agent(a.name, a.acts_on, DenseEnergy(a.objective.order, a.objective.values + c))
            for a, c in zip(base.agents, shifts)
        )
        shifted = GameModel(base.variables, shifted_agents, hbar=base.hbar, mode="energy")
        init = random_profile(base, 99)
        r1 = iterate_to_fixed_point(base, 3.0, init, max_iter=50, keep_trace=True)
        r2 = iterate_to_fixed_point(shifted, 3.0, init, max_iter=50, keep_trace=True)
        for s1, s2 in zip(r1.trace.steps, r2.trace.steps):
            for d1, d2 in zip(s1.profile.dists, s2.profile.dists):
                np.testing.assert_allclose(d1, d2, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("hbar", [0.1, 1.0])
    def test_single_agent_boltzmann_fixed_point(self, alpha, hbar):
        energies = np.array([0.9, 0.2, 1.4, 0.6])
        model = helpers.single_agent_energy(energies, hbar=hbar)
        result = iterate_to_fixed_point(model, alpha)
        scaled = -alpha * energies / hbar
        expected = np.exp(scaled - scaled.max())
        expected /= expected.sum()
        np.testing.assert_allclose(result.profile.dists[0], expected, atol=1e-12)
        assert int(np.argmax(result.profile.dists[0])) == int(np.argmin(energies))

    def test_dominant_action_leads_every_iterate(self):
        # action 0 of the first agent pointwise dominates action 1
        base = np.array([0.4, 1.1, 0.7])
        values = np.concatenate([base + 0.5, base])
        model = GameModel(
            (DomainSpec("x1", 2), DomainSpec("x2", 3)),
            (
                Agent("a1", "x1", DenseUtility(("x1", "x2"), values)),
                Agent(
                    "a2",
                    "x2",
                    DenseUtility(("x2", "x1"), np.array([1.0, 0.3, 0.2, 0.8, 0.5, 0.9])),
                ),
            ),
            mode="utility",
        )
        result = iterate_to_fixed_point(model, 1.5, random_profile(model, 4), keep_trace=True)
        for step in result.trace.steps:
            assert step.profile.dists[0][0] > step.profile.dists[0][1]

    def test_log_domain_matches_linear_domain_oracle(self):
        model = helpers.random_dense_model(53, n_agents=2, card=4, mode="energy", value_span=1.5)
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(54, model.agent_cardinalities()))
        )
        alpha = 1.7
        field = expected_return_update(model, profile)
        updated = normalize_policy(field, alpha)
        for i, psi in enumerate(helpers.returns_by_enumeration(model, profile)):
            linear = psi**alpha
            linear /= linear.sum()
            np.testing.assert_allclose(updated.dists[i], linear, atol=1e-10)


class TestTraceOutput:
    def test_summary_and_detail_csv(self, tmp_path):
        model = helpers.prisoners_dilemma()
        result = iterate_to_fixed_point(model, 2.0, keep_trace=True)
        summary = tmp_path / "trace.csv"
        detail = tmp_path / "detail.csv"
        result.trace.write_csv(summary)
        result.trace.write_detail_csv(detail, model)

        lines = summary.read_text().splitlines()
        assert lines[0] == "step,max_change"
        assert len(lines) == result.iterations + 1
        steps = [int(row.split(",")[0]) for row in lines[1:]]
        assert steps == sorted(steps)
        changes = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(c >= 0 for c in changes)

        detail_lines = detail.read_text().splitlines()
        assert detail_lines[0] == "step,agent,action,p,psi"
        assert len(detail_lines) == 1 + result.iterations * 4  # 2 agents x 2 actions
