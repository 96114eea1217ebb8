import math

import numpy as np
import pytest

import helpers
from dense_expansion import densify
from test_plan import MIXED_SEEDS, assert_close, mixed_model, seeded_profile
from coopt import bundled_path, fileio
from coopt.cli import parse_alpha_grid
from coopt.discrete import (
    ALPHA_CAP,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    AllZeroReturnsError,
    DivergenceError,
    NonFiniteReturnError,
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
    stack,
)
from coopt.numerics import log_sum_exp_first
from coopt.rng import derive_seed


def write_detail_csv(steps, path, model: GameModel) -> None:
    """Per-step, per-agent, per-action probability and expected return,
    from the one-step results of helpers.map_steps."""
    with open(path, "w") as f:
        f.write("step,agent,action,p,psi\n")
        for t, s in enumerate(steps, 1):
            values = s.field.values
            for agent, dist, psi in zip(model.agents, s.profile.dists, values):
                for action in range(dist.size):
                    f.write(
                        f"{t},{agent.name},{action},"
                        f"{float(dist[action])!r},{float(psi[action])!r}\n"
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

    @pytest.mark.parametrize("seed", MIXED_SEEDS)
    def test_mixed_dense_and_pairwise_agents_match_enumeration(self, seed):
        model = mixed_model(seed)
        profile = seeded_profile(model, seed + 1)
        oracle = helpers.returns_by_enumeration(model, profile)
        for update in (expected_return_update, expected_return_update_factorized):
            assert_close(update(model, profile).values, oracle)


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

    @pytest.mark.parametrize("seed", MIXED_SEEDS)
    def test_is_the_one_update_bitwise(self, seed):
        assert expected_return_update_factorized is expected_return_update
        model = mixed_model(seed)
        profile = seeded_profile(model, seed + 1)
        one = expected_return_update(model, profile)
        other = expected_return_update_factorized(model, profile)
        assert [v.tobytes() for v in other.log_values] == [v.tobytes() for v in one.log_values]


class TestNormalizePolicy:
    def log_returns(self, *vectors):
        """Returns as log returns stacked one agent per row, padded with -inf."""
        with np.errstate(divide="ignore"):
            return stack([np.log(np.asarray(v, dtype=float)) for v in vectors], -np.inf)

    def test_linear_ratio_at_alpha_one(self):
        p = normalize_policy(self.log_returns([1.0, 3.0]), 1.0)
        np.testing.assert_allclose(p[0], [0.25, 0.75], rtol=1e-14)

    def test_squares_at_alpha_two(self):
        p = normalize_policy(self.log_returns([1.0, 3.0]), 2.0)
        np.testing.assert_allclose(p[0], [0.1, 0.9], rtol=1e-14)

    def test_uniform_returns_give_uniform_policy(self):
        for alpha in (0.5, 1.0, 7.0, 1e5):
            p = normalize_policy(self.log_returns([2.5, 2.5, 2.5]), alpha)
            np.testing.assert_allclose(p[0], np.full(3, 1 / 3), rtol=1e-14)

    def test_padding_gets_zero_probability(self):
        p = normalize_policy(self.log_returns([1.0, 3.0], [1.0, 1.0, 2.0]), 1.0)
        np.testing.assert_allclose(p, [[0.25, 0.75, 0.0], [0.25, 0.25, 0.5]], rtol=1e-14)

    def test_all_zero_returns_rejected(self):
        with pytest.raises(AllZeroReturnsError):
            normalize_policy(self.log_returns([0.0, 0.0]), 1.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            normalize_policy(self.log_returns([1.0, 2.0]), 0.0)

    def test_alpha_capped_at_best_response_limit(self):
        f = self.log_returns([1.0, 2.0])
        np.testing.assert_array_equal(normalize_policy(f, ALPHA_CAP), normalize_policy(f, 1e12))

    def test_sums_to_one(self):
        p = normalize_policy(self.log_returns([1e-200, 1.0, 1e200]), 3.0)
        assert p[0].sum() == pytest.approx(1.0, abs=1e-12)


class TestIteration:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tol_that_is_not_positive_and_finite_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            iterate_to_fixed_point(helpers.prisoners_dilemma(), 2.0, tol=tol)

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
        result = iterate_to_fixed_point(model, 8.0)
        assert result.converged
        for d in result.profile.dists:
            assert d[1] > 0.99
        # defection strictly dominates, so it leads at every step
        for step in helpers.map_steps(model, 8.0, None, result.iterations):
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
        assert result.cycle_period is not None
        assert result.iterations < 300
        assert result.max_change > 1e-3
        # a budget that ends before the repeat is found is used up
        short = iterate_to_fixed_point(model, 32.0, init, max_iter=result.iterations - 1)
        assert not short.converged
        assert short.iterations == result.iterations - 1
        assert short.cycle_period is None

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


def own_table_model(mode, **tables):
    """One binary agent per keyword, each on its own variable, with a table
    over that variable alone: its log returns are its log table as given."""
    kind = DenseEnergy if mode == "energy" else DenseUtility
    return GameModel(
        tuple(DomainSpec(f"x_{name}", 2) for name in tables),
        tuple(Agent(name, f"x_{name}", kind((f"x_{name}",), values))
              for name, values in tables.items()),
        hbar=1e-10 if mode == "energy" else 1.0,
        mode=mode,
    )


class TestRefusalOrder:
    """The refusals behind normalize_policy's one finiteness test of its row
    maxima, with numpy's RuntimeWarnings raised as errors, as the suite
    runs: a +inf or NaN return is refused before an all-zero agent,
    wherever the two stand."""

    @pytest.mark.parametrize("rows, index", [
        ([[-np.inf, -np.inf], [1.0, np.inf]], 1),
        ([[-np.inf, -np.inf], [np.nan, 0.0]], 1),
        ([[1.0, np.nan], [-np.inf, -np.inf]], 0),
        ([[np.inf, 0.0], [0.0, np.nan]], 0),
    ])
    def test_non_finite_returns_are_refused_before_all_zero_ones(self, rows, index):
        with pytest.raises(NonFiniteReturnError) as caught:
            normalize_policy(np.asfortranarray(rows), 2.0)
        assert caught.value.index == index

    def test_an_all_zero_row_alone_is_refused_by_its_index(self):
        with pytest.raises(AllZeroReturnsError) as caught:
            normalize_policy(np.asfortranarray([[0.0, 1.0], [-np.inf, -np.inf]]), 2.0)
        assert caught.value.index == 1

    # at hbar 1e-10, energies of 1e308 give -inf log returns and -1e308 +inf
    @pytest.mark.parametrize("model, agent", [
        (own_table_model("energy", cold=[1e308, 1e308], hot=[-1e308, 0.0]), "hot"),
        (own_table_model("energy", hot=[-1e308, 0.0], cold=[1e308, 1e308]), "hot"),
        (own_table_model("utility", zero=[0.0, 0.0], nan=[1.0, np.nan]), "nan"),
    ])
    def test_a_divergent_agent_beside_an_all_zero_one_is_a_divergence(self, model, agent):
        with pytest.raises(DivergenceError, match=f"step 1: agent '{agent}': non-finite"):
            iterate_to_fixed_point(model, 2.0)

    @pytest.mark.parametrize("model", [
        own_table_model("energy", warm=[0.0, 1e-10], cold=[1e308, 1e308]),
        own_table_model("utility", zero=[0.0, 0.0], one=[1.0, 1.0]),
    ])
    def test_an_all_zero_agent_alone_is_refused_by_name(self, model):
        name = next(a.name for a in model.agents if a.name in ("cold", "zero"))
        with pytest.raises(AllZeroReturnsError, match=f"agent '{name}': all expected returns"):
            iterate_to_fixed_point(model, 2.0)

    def test_log_sum_exp_maps_non_finite_columns_and_keeps_finite_ones(self):
        inf = np.inf
        values = np.array([[-inf, 1.0, 0.5, -inf, 0.25],
                           [-inf, inf, np.nan, 2.0, -1.0],
                           [-inf, -inf, 1.0, 3.0, 0.5]])
        with np.errstate(divide="ignore"):  # log(0), as log_sum_exp_first's callers
            out = log_sum_exp_first(values.copy())
            finite = log_sum_exp_first(values[:, 3:].copy())
        assert out[0] == -inf and out[1] == inf and np.isnan(out[2])
        assert out[3:].tobytes() == finite.tobytes()


class TestIterationInvariants:
    def test_normalization_conserved_every_step(self):
        model = helpers.random_dense_model(31, n_agents=3, card=3, mode="utility")
        init = random_profile(model, 8)
        result = iterate_to_fixed_point(model, 2.5, init)
        for step in helpers.map_steps(model, 2.5, init, result.iterations):
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
        r1 = iterate_to_fixed_point(base, 3.0, init, max_iter=50)
        r2 = iterate_to_fixed_point(shifted, 3.0, init, max_iter=50)
        for s1, s2 in zip(helpers.map_steps(base, 3.0, init, r1.iterations),
                          helpers.map_steps(shifted, 3.0, init, r2.iterations)):
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
        init = random_profile(model, 4)
        result = iterate_to_fixed_point(model, 1.5, init)
        for step in helpers.map_steps(model, 1.5, init, result.iterations):
            assert step.profile.dists[0][0] > step.profile.dists[0][1]

    def test_log_domain_matches_linear_domain_oracle(self):
        model = helpers.random_dense_model(53, n_agents=2, card=4, mode="energy", value_span=1.5)
        profile = StrategyProfile(
            tuple(helpers.random_profile_arrays(54, model.agent_cardinalities()))
        )
        alpha = 1.7
        field = expected_return_update(model, profile)
        updated = model.plan.rows(normalize_policy(stack(field.log_values, -np.inf), alpha))
        for i, psi in enumerate(helpers.returns_by_enumeration(model, profile)):
            linear = psi**alpha
            linear /= linear.sum()
            np.testing.assert_allclose(updated[i], linear, atol=1e-10)


class TestTraceOutput:
    def test_summary_and_detail_csv(self, tmp_path):
        model = helpers.prisoners_dilemma()
        result = iterate_to_fixed_point(model, 2.0)
        summary = tmp_path / "trace.csv"
        detail = tmp_path / "detail.csv"
        result.trace.write_csv(summary)
        write_detail_csv(helpers.map_steps(model, 2.0, None, result.iterations), detail, model)

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


# one case per kind of model and per kind of stop: (model, alpha, random-start
# seed or None for uniform, max_iter, how the run stops)
TRACE_CASES = {
    "dense": (lambda: helpers.random_dense_model(17, n_agents=3, card=3, mode="energy"),
              2.0, 3, DEFAULT_MAX_ITER, "converged"),
    "pairwise": (lambda: fileio.load_problem(bundled_path("pairwise_chain")),
                 1.5, None, DEFAULT_MAX_ITER, "converged"),
    "mixed": (lambda: mixed_model(MIXED_SEEDS[0]), 2.0, 5, DEFAULT_MAX_ITER, "converged"),
    "utility": (helpers.prisoners_dilemma, 2.0, None, DEFAULT_MAX_ITER, "converged"),
    "cycle": (lambda: fileio.load_problem(bundled_path("matching_pennies")),
              4.0, 7, DEFAULT_MAX_ITER, "cycle"),
    "max-iter": (lambda: helpers.random_dense_model(31, n_agents=3, card=3, mode="utility"),
                 2.5, 8, 4, "max_iter"),
}


@pytest.mark.parametrize("case", TRACE_CASES)
def test_trace_holds_each_steps_max_change(case):
    """The trace is the max_change of every map evaluation, as one-step
    calls chained from the same start give them, bit for bit."""
    make, alpha, seed, max_iter, stop = TRACE_CASES[case]
    model = make()
    init = None if seed is None else random_profile(model, seed)
    result = iterate_to_fixed_point(model, alpha, init, max_iter=max_iter)
    assert stop == ("converged" if result.converged
                    else "max_iter" if result.cycle_period is None else "cycle")
    changes = result.trace.max_changes
    assert len(changes) == result.iterations
    assert all(type(c) is float for c in changes)
    replay = helpers.map_steps(model, alpha, init, result.iterations)
    assert [c.hex() for c in changes] == [s.max_change.hex() for s in replay]
    last = replay[-1]
    assert [d.tobytes() for d in last.profile.dists] == [
        d.tobytes() for d in result.profile.dists]
    assert [v.tobytes() for v in last.field.log_values] == [
        v.tobytes() for v in result.field.log_values]


# ------------------------------------------------- the stop on an exact repeat

# perfbench's games-sweep grids, as perfbench/workloads.py GAMES lists them
BENCHMARK_GRIDS = {
    "prisoners_dilemma": "0.25:32:log:8",
    "matching_pennies": "0.5:4:log:4",
    "coordination": "0.25:1:log:3",
    "pairwise_chain": "0.25:2:log:4",
}
BUDGETS = (DEFAULT_MAX_ITER, 5)


def plain_steps(model, alpha, init, tol, max_iter):
    """The loop of iterate_to_fixed_point without the stop on a repeat:
    one (step, max_change, bytes of p, log_returns) row per map evaluation."""
    plan = model.plan
    p = stack((StrategyProfile.uniform(model) if init is None else init).dists, 0.0)
    rows = []
    for t in range(1, max_iter + 1):
        log_returns = plan.log_returns(p)
        if not (log_returns < np.inf).all():
            raise DivergenceError(t, "non-finite expected return")
        new_p = normalize_policy(log_returns, alpha)
        change = float(np.abs(new_p - p).max())
        p = new_p
        rows.append((t, change, p.tobytes(), log_returns))
        if change <= tol:
            break
    return rows


def replay_rows(model, alpha, init, count):
    """(max_change, bytes of p, bytes of log_returns) of the first count map
    evaluations from init, stacked as plain_steps stacks them, from the
    one-step calls of helpers.map_steps."""
    return [(s.max_change, stack(s.profile.dists, 0.0).tobytes(),
             stack(s.field.log_values, -np.inf).tobytes())
            for s in helpers.map_steps(model, alpha, init, count)]


def check_against_plain_steps(model, alpha, init, max_iter, tol=DEFAULT_TOL):
    """Runs iterate_to_fixed_point and replays it step by step, both as
    one-step library calls and as the plain loop; returns the cycle period
    it reported."""
    result = iterate_to_fixed_point(model, alpha, init, tol=tol, max_iter=max_iter)
    t, period = result.iterations, result.cycle_period
    rows = plain_steps(model, alpha, init, tol, t + (period or 0))
    assert replay_rows(model, alpha, init, t) == [
        (change, p, log_returns.tobytes()) for _, change, p, log_returns in rows[:t]]
    assert result.trace.max_changes == tuple(row[1] for row in rows[:t])
    _, change, p, log_returns = rows[t - 1]
    assert result.max_change == change
    assert stack(result.profile.dists, 0.0).tobytes() == p
    plan = model.plan
    assert [v.tobytes() for v in result.field.log_values] == [
        v.tobytes() for v in plan.rows(log_returns)
    ]
    if period is None:
        # the plain loop stops where the run stopped, for the same reason
        assert len(rows) == t
        assert result.converged == (change <= tol)
        assert result.converged or t == max_iter
    else:
        # period more plain steps, none within tol, come back to the reported
        # profile, and no fewer do
        assert not result.converged and t <= max_iter
        assert len(rows) == t + period
        assert all(row[1] > tol for row in rows)
        assert [row[2] == p for row in rows[t:]] == [False] * (period - 1) + [True]
    return period


@pytest.mark.parametrize("game", sorted(BENCHMARK_GRIDS))
def test_benchmark_sweep_cells_stop_exactly(game):
    model = fileio.load_problem(bundled_path(game))
    alphas = parse_alpha_grid(BENCHMARK_GRIDS[game])
    periods = []
    for max_iter in BUDGETS:
        for ai, alpha in enumerate(alphas):
            # the uniform start is every seed's first restart
            periods.append(check_against_plain_steps(model, alpha, None, max_iter))
            for base_seed in range(1, 11):
                init = random_profile(model, derive_seed(base_seed, ai, 1))
                periods.append(check_against_plain_steps(model, alpha, init, max_iter))
    cycles = [period for period in periods if period is not None]
    # the benchmark's cycling cells: matching_pennies at alpha 4, coordination at 1
    assert bool(cycles) == (game in ("matching_pennies", "coordination"))


@pytest.mark.parametrize("mode", ["utility", "energy"])
def test_random_dense_models_stop_exactly(mode):
    periods = []
    for seed in range(1, 21):
        model = helpers.random_dense_model(seed, n_agents=2 + seed % 2, card=2 + seed % 3 // 2,
                                           mode=mode, value_span=2.0)
        for alpha in (1.0, 4.0, 16.0, 64.0):
            for max_iter in BUDGETS:
                periods.append(check_against_plain_steps(
                    model, alpha, random_profile(model, seed + 100), max_iter
                ))
    assert any(period is not None for period in periods)
