"""The compiled contraction plan: models that mix dense and pairwise agents
of different cardinalities, whose stacked arrays are padded, checked
against the brute-force oracles; the stacks' memory layout and the
bitwise order of the per-agent table sums; each agent's joint table, which
enumeration reads; and the calls per iteration and per step that the
benchmark's tracer counts."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dense_expansion import densify, full_domain_table
from coopt import bundled_path, continuous, discrete, fileio
from coopt.continuous import effective_hamiltonian, evolve_coupled
from coopt.discrete import (
    expected_return_update,
    iterate_to_fixed_point,
    normalize_policy,
    random_profile,
)
from coopt.cli import parse_alpha_grid
from coopt.equilibrium import alpha_sweep, epsilon_of_profile
from coopt.model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    stack,
    to_utility_model,
)
from coopt.numerics import log_sum_exp_first
from coopt.rng import SplitMix64

# Seeds whose random pairwise models have agents of different cardinalities.
MIXED_SEEDS = [
    s for s in range(100, 160)
    if len(set(helpers.random_pairwise_model(s).agent_cardinalities())) > 1
][:8]


def densified(model, keep_pairwise=lambda i: False):
    """The model with its pairwise objectives densified, except where kept."""
    agents = tuple(
        Agent(a.name, a.acts_on, densify(a.objective, model, a.acts_on))
        if isinstance(a.objective, PairwiseEnergy) and not keep_pairwise(i) else a
        for i, a in enumerate(model.agents)
    )
    return replace(model, agents=agents)


def mixed_model(seed):
    """Random pairwise model with every other agent's objective densified."""
    model = helpers.random_pairwise_model(seed)
    return densified(model, keep_pairwise=lambda i: i % 2 == 0)


def seeded_profile(model, seed):
    return StrategyProfile(
        tuple(helpers.random_profile_arrays(seed, model.agent_cardinalities()))
    )


def assert_close(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_mixed_seeds_exist():
    assert len(MIXED_SEEDS) == 8


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_log_returns_match_enumeration(seed):
    pairwise = helpers.random_pairwise_model(seed)
    profile = seeded_profile(pairwise, seed + 1)
    oracle = helpers.returns_by_enumeration(pairwise, profile)
    assert_close(expected_return_update(pairwise, profile).values, oracle)

    mixed = mixed_model(seed)
    want = helpers.returns_by_enumeration(mixed, profile)
    assert_close(expected_return_update(mixed, profile).values, want)
    # The field of the first iteration is taken at the initial profile, and
    # at alpha 1 the next profile is the normalized field.
    result = iterate_to_fixed_point(mixed, 1.0, profile, max_iter=1)
    assert_close(result.field.values, want)
    assert_close(result.profile.dists, [psi / psi.sum() for psi in want])


def assert_epsilon_matches_enumeration(model, profile):
    certificate = epsilon_of_profile(model, profile)
    for i, card in enumerate(model.agent_cardinalities()):
        payoff = helpers.payoff_by_enumeration(model, profile, i)
        deviations = []
        for action in range(card):
            dists = list(profile.dists)
            dists[i] = np.eye(card)[action]
            deviation = StrategyProfile(tuple(dists))
            deviations.append(helpers.payoff_by_enumeration(model, deviation, i))
        assert certificate.payoffs[i] == pytest.approx(payoff, rel=1e-12)
        best = certificate.payoffs[i] + certificate.gains[i]
        assert best == pytest.approx(max(deviations), rel=1e-12)


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_epsilon_matches_enumeration(seed):
    model = to_utility_model(mixed_model(seed))
    assert_epsilon_matches_enumeration(model, seeded_profile(model, seed + 2))


def one_neighbour_model(seed, cards=(2, 3, 2, 3)):
    """Utility model over x0..x3 with the given cardinalities.

    Agents 0, 1 and 3 hold dense tables over their own variable and one
    neighbour (agent 0's and agent 3's with the neighbour first), agent 2
    one over its own variable and two neighbours.  About a third of the
    utilities are zero, and so are all of agent 1's for its last action,
    whose return is then zero (a log of -inf).
    """
    stream = SplitMix64(seed)
    orders = [("x1", "x0"), ("x1", "x2"), ("x0", "x2", "x3"), ("x3", "x0")]
    agents = []
    for i, order in enumerate(orders):
        shape = [cards[int(v[1:])] for v in order]
        values = np.array([stream.uniform() for _ in range(math.prod(shape))]).reshape(shape)
        values[values < 0.3] = 0.0
        if i == 1:
            values[-1] = 0.0
        agents.append(Agent(f"agent{i}", f"x{i}", DenseUtility(order, values.ravel())))
    variables = tuple(DomainSpec(f"x{i}", c) for i, c in enumerate(cards))
    return GameModel(variables, tuple(agents), mode="utility")


@pytest.mark.parametrize("cards", [(2, 3, 2, 3), (9, 10, 2, 8)], ids=["narrow", "wide"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_neighbour_dense_agents_match_enumeration(seed, cards):
    # Dense tables over one neighbour and over two take the same path, one
    # group per table shape; the wide case sums more than 8 terms, where
    # numpy's summation order depends on the layout.
    model = one_neighbour_model(seed, cards)
    want = {}
    for i, axes in enumerate([(0, 1), (1, 2), (2, 0, 3), (3, 0)]):
        want.setdefault(tuple(cards[v] for v in axes), []).append(i)
    assert {g.tables.shape[1:]: g.owner.tolist() for g in model.plan.groups} == want
    profile = seeded_profile(model, seed + 4)
    result = iterate_to_fixed_point(model, 1.0, profile, max_iter=1)
    assert_close(result.field.values, helpers.returns_by_enumeration(model, profile))
    assert result.field.log_values[1][-1] == -np.inf
    assert_epsilon_matches_enumeration(model, profile)


@st.composite
def edge_models(draw):
    """A model whose agents own 0-3 edges each, over cardinalities 2-5.

    In energy mode an agent holds 0-3 pairwise terms or a dense table over
    its own variable and one neighbour; in utility mode a dense table over
    its own variable and at most one neighbour, with about a third of the
    utilities zero (one entry is kept positive, so no agent's returns are
    all zero).  Tables come from a drawn seed.
    """
    n = draw(st.integers(2, 5))
    cards = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["energy", "utility"]))
    stream = SplitMix64(draw(st.integers(0, 2**32)))

    def table(*shape):
        return np.array([stream.uniform() for _ in range(math.prod(shape))]).reshape(shape)

    agents = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if mode == "energy" and draw(st.booleans()):
            terms = draw(st.permutations(others))[: draw(st.integers(0, 3))]
            obj = PairwiseEnergy(tuple(
                (f"x{j}", 4.0 * table(cards[i], cards[j]) - 2.0) for j in terms
            ))
        else:
            minimum = 1 if mode == "energy" else 0
            order = [i] + draw(st.lists(st.sampled_from(others), min_size=minimum, max_size=1))
            if draw(st.booleans()):
                order.reverse()
            values = table(*[cards[j] for j in order]).ravel()
            names = tuple(f"x{j}" for j in order)
            if mode == "energy":
                obj = DenseEnergy(names, 4.0 * values - 2.0)
            else:
                values[values < 0.3] = 0.0
                values[-1] = 1.0
                obj = DenseUtility(names, values)
        agents.append(Agent(f"agent{i}", f"x{i}", obj))
    variables = tuple(DomainSpec(f"x{i}", c) for i, c in enumerate(cards))
    return GameModel(variables, tuple(agents), hbar=0.5 + stream.uniform(), mode=mode)


def model_tables(model):
    """(owner, other agents, table own axis first) for every table of the
    model: each pairwise term, and each dense table.  The tables are
    contiguous, as the plan stacks them, so that products with them round
    as the plan's do."""
    agent_of = {agent.acts_on: i for i, agent in enumerate(model.agents)}
    for i, agent in enumerate(model.agents):
        obj = agent.objective
        if isinstance(obj, PairwiseEnergy):
            for other, table in obj.terms:
                yield i, [agent_of[other]], table
        else:
            table = obj.values.reshape(model.shape_of(obj.order))
            table = np.moveaxis(table, obj.order.index(agent.acts_on), 0).copy()
            yield i, [agent_of[v] for v in obj.order if v != agent.acts_on], table


def table_sums(model, p):
    """log_returns and expectations taken one table over at most one other
    agent at a time, each added into its owner's row in the plan's order
    (tables of a shape seen first in the model come first): the reference
    the plan's grouped contraction must equal bit for bit."""
    p = np.array(p, order="C")
    cards = np.array(model.agent_cardinalities())
    log_returns = np.where(np.arange(p.shape[1]) < cards[:, np.newaxis], 0.0, -np.inf)
    expectations = np.zeros(p.shape)
    found = list(model_tables(model))
    first = {}
    for _, _, table in found:
        first.setdefault(table.shape, len(first))
    for i, others, table in sorted(found, key=lambda entry: first[entry[2].shape]):
        if model.mode == "energy":
            log_table = -table / model.hbar
        else:
            with np.errstate(divide="ignore"):
                log_table = np.log(table)
        with np.errstate(divide="ignore"):
            for j in others:  # at most one
                marginal = p[j, : table.shape[1]]
                log_table = log_sum_exp_first(log_table.T + np.log(marginal)[:, np.newaxis])
                table = table @ marginal
        log_returns[i, : table.size] += log_table
        expectations[i, : table.size] += table
    return log_returns, expectations


@settings(max_examples=60, deadline=None)
@given(edge_models(), st.integers(0, 2**32))
def test_edge_models_match_enumeration_in_column_major_stacks(model, seed):
    profile = seeded_profile(model, seed)
    plan = model.plan
    p = stack(profile.dists, 0.0)
    log_returns = plan.log_returns(p)
    assert p.flags.f_contiguous and log_returns.flags.f_contiguous
    want = helpers.returns_by_enumeration(model, profile)
    with np.errstate(divide="ignore"):
        assert_close([np.exp(row) for row in plan.rows(log_returns)], want)
    stacked = normalize_policy(log_returns, 2.0)
    assert stacked.flags.f_contiguous
    assert all(row.flags.c_contiguous for row in plan.rows(log_returns))

    want_log, want_linear = table_sums(model, p)
    np.testing.assert_array_equal(log_returns, want_log)
    expectations = plan.expectations(p)
    assert expectations.flags.f_contiguous
    np.testing.assert_array_equal(expectations, want_linear)


def mixed_shape_model(mode):
    """Six agents over cardinalities 2, 3 and 5 on a ring.  In energy mode
    even agents hold pairwise terms to both ring neighbours, agent 1 a dense
    table over its right neighbour and itself (neighbour axis first), agents
    3 and 5 one over themselves and their left neighbour; in utility mode
    every agent holds such a dense table, with some utilities zero.  Agent 4
    holds a dense table over both neighbours instead."""
    cards = [2, 3, 5, 3, 2, 5]
    stream = SplitMix64(17)

    def table(*shape):
        return np.array([stream.uniform_signed() for _ in range(math.prod(shape))]).reshape(shape)

    agents = []
    for i in range(6):
        left, right = (i - 1) % 6, (i + 1) % 6
        if i == 4:
            order = (left, i, right)
        elif i == 1:
            order = (right, i)
        else:
            order = (i, left)
        values = table(*[cards[j] for j in order]).ravel()
        names = tuple(f"x{j}" for j in order)
        if mode == "utility":
            values = np.abs(values)
            values[values < 0.2] = 0.0
            obj = DenseUtility(names, values)
        elif i % 2 == 0 and i != 4:
            obj = PairwiseEnergy(tuple(
                (f"x{j}", table(cards[i], cards[j])) for j in (left, right)
            ))
        else:
            obj = DenseEnergy(names, values)
        agents.append(Agent(f"agent{i}", f"x{i}", obj))
    variables = tuple(DomainSpec(f"x{i}", c) for i, c in enumerate(cards))
    return GameModel(variables, tuple(agents), hbar=0.37, mode=mode)


@pytest.mark.parametrize("mode", ["energy", "utility"])
def test_the_plan_holds_the_model_tables_and_no_padding(mode):
    # One 30,000-action variable beside a 2-action one must not cost
    # 30,000**2 entries per table.
    model = mixed_shape_model(mode)
    groups = model.plan.groups
    assert len(groups) >= 5
    entries = sum(table.size for _, _, table in model_tables(model))
    assert sum(group.tables.size for group in groups) == entries
    assert sum(group.log_tables.size for group in groups) == entries
    assert sum(group.at.size for group in groups) == sum(
        table.shape[0] for _, _, table in model_tables(model)
    )


def test_a_model_without_tables_contracts_to_nothing():
    model = GameModel(
        (DomainSpec("x", 2), DomainSpec("y", 3)),
        (Agent("a", "x", PairwiseEnergy(())), Agent("b", "y", PairwiseEnergy(()))),
    )
    plan = model.plan
    p = stack([np.full(2, 0.5), np.full(3, 1 / 3)], 0.0)
    assert plan.groups == []
    np.testing.assert_array_equal(plan.log_returns(p), plan.log_one)
    np.testing.assert_array_equal(plan.expectations(p), np.zeros((2, 3)))
    assert continuous.coupled_scale(model) == 0.0


def reversed_dense_orders(model):
    """The model with each dense table's variables listed last to first."""
    agents = []
    for agent in model.agents:
        obj = agent.objective
        values = obj.values.reshape(model.shape_of(obj.order)).T
        agents.append(agent._replace(objective=type(obj)(obj.order[::-1], values)))
    return replace(model, agents=tuple(agents))


JOINT_TABLE_MODELS = {
    **{name: lambda name=name: fileio.load_problem(bundled_path(name))
       for name in ("coordination", "matching_pennies", "pairwise_chain", "prisoners_dilemma")},
    "mixed-energy": lambda: mixed_shape_model("energy"),
    "mixed-utility": lambda: mixed_shape_model("utility"),
    **{f"pairwise{seed}": lambda seed=seed: helpers.random_pairwise_model(seed)
       for seed in range(300, 312)},
    # sums of these tables round differently in another order
    **{f"rounding{seed}": lambda seed=seed: helpers.rounding_pairwise_model(seed)
       for seed in range(321, 327)},
    **{f"dense{seed}-{mode}": lambda seed=seed, mode=mode: helpers.random_dense_model(
        seed, n_agents=2 + seed % 3, card=2 + seed % 2, mode=mode)
       for seed in range(312, 318) for mode in ("energy", "utility")},
    **{f"dense{seed}-reversed": lambda seed=seed: reversed_dense_orders(
        helpers.random_dense_model(seed, n_agents=seed % 3 + 2, card=3, mode="energy"))
       for seed in range(318, 321)},
}


@pytest.mark.parametrize("build", JOINT_TABLE_MODELS.values(), ids=JOINT_TABLE_MODELS.keys())
def test_joint_tables_match_enumeration_and_the_densified_tables(build):
    model = build()
    cards = model.agent_cardinalities()
    for i, agent in enumerate(model.agents):
        obj = agent.objective
        table = model.plan.joint_table(i)
        pairwise = isinstance(obj, PairwiseEnergy)
        read = {model.agent_of[v] for v in ([v for v, _ in obj.terms] if pairwise else obj.order)}
        assert table.shape == tuple(c if j in read | {i} else 1 for j, c in enumerate(cards))
        want = np.empty(cards)
        for joint in itertools.product(*map(range, cards)):
            assignment = {a.acts_on: action for a, action in zip(model.agents, joint)}
            want[joint] = (
                helpers.pairwise_sum(obj.terms, joint[i], assignment) if pairwise
                else helpers.dense_value(model, obj, assignment)
            )
        assert_close([np.broadcast_to(table, cards)], [want])
        # With one table shape, the plan's group order is the terms' order.
        if not pairwise or len({t.shape for _, t in obj.terms}) == 1:
            np.testing.assert_array_equal(table, full_domain_table(model, i), strict=True)


def test_epsilon_of_a_solved_profile_matches_contiguous_copies_bitwise():
    # The solved profile's rows, and the marginals the dense tables are
    # contracted with, come out of column-major stacks; products with them
    # must round as products with lone contiguous vectors do.
    model = ring_model(agents=20, actions=5, seed=9)
    result = iterate_to_fixed_point(model, 8.0, max_iter=50)
    um = to_utility_model(model)
    dists = [np.array(d) for d in result.profile.dists]
    certificate = epsilon_of_profile(um, result.profile)
    assert certificate == epsilon_of_profile(um, StrategyProfile(tuple(dists)))
    agent_of = {agent.acts_on: i for i, agent in enumerate(um.agents)}
    for i, agent in enumerate(um.agents):
        obj = agent.objective
        table = obj.values.reshape(um.shape_of(obj.order))
        table = np.moveaxis(table, obj.order.index(agent.acts_on), 0)
        for name in reversed([v for v in obj.order if v != agent.acts_on]):
            table = table @ dists[agent_of[name]]
        assert certificate.payoffs[i] == float(dists[i] @ table)


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_effective_hamiltonian_matches_densified_model(seed):
    mixed = mixed_model(seed)
    dense = densified(mixed)
    dists = helpers.random_profile_arrays(seed + 3, mixed.agent_cardinalities())
    state = tuple(np.sqrt(d) for d in dists)
    for i in range(len(mixed.agents)):
        assert_close(
            [effective_hamiltonian(mixed, state, i).entries],
            [effective_hamiltonian(dense, state, i).entries],
        )


def ring_model(agents=7, actions=3, seed=5):
    """Ring of pairwise agents: agent i holds edge (i, i+1) and the
    transpose of edge (i-1, i)."""
    stream = SplitMix64(seed)
    edges = [
        np.array([[stream.uniform_signed() for _ in range(actions)] for _ in range(actions)])
        for _ in range(agents)
    ]
    return GameModel(
        tuple(DomainSpec(f"x{i}", actions) for i in range(agents)),
        tuple(
            Agent(f"agent{i}", f"x{i}", PairwiseEnergy((
                (f"x{(i - 1) % agents}", edges[i - 1].T),
                (f"x{(i + 1) % agents}", edges[i]),
            )))
            for i in range(agents)
        ),
        mode="energy",
    )


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "game, alpha, restart, max_iter, converged",
    [
        pytest.param(None, 0.5, False, 10000, True, id="0.5-10000"),
        pytest.param(None, 8.0, False, 20, True, id="8.0-20"),
        pytest.param(None, 8.0, False, 5, False, id="8.0-5"),
        pytest.param("prisoners_dilemma", 8.0, False, 10000, True, id="prisoners_dilemma"),
        pytest.param("coordination", 0.25, True, 10000, True, id="coordination-restart"),
        # restarted cells of the benchmark's sweep that stop on an exact repeat
        pytest.param("matching_pennies", 4.0, True, 500, False, id="matching_pennies-cycle"),
        pytest.param("coordination", 1.0, True, 500, False, id="coordination-cycle"),
    ],
)
def test_one_normalize_policy_call_per_iteration(
    monkeypatch, game, alpha, restart, max_iter, converged
):
    model = ring_model() if game is None else fileio.load_problem(bundled_path(game))
    init = random_profile(model, 7) if restart else None
    calls = count_calls(monkeypatch, discrete, "normalize_policy")
    result = iterate_to_fixed_point(model, alpha, init, max_iter=max_iter)
    assert result.converged == converged
    assert result.iterations > 1
    assert len(calls) == result.iterations
    if game is not None and not converged:  # the cycle cases
        assert result.iterations < max_iter


@pytest.mark.parametrize("game, grid", [
    # perfbench's games-sweep grids, swept as it sweeps them
    ("prisoners_dilemma", "0.25:32:log:8"),
    ("matching_pennies", "0.5:4:log:4"),
    ("coordination", "0.25:1:log:3"),
    ("pairwise_chain", "0.25:2:log:4"),
    (None, "0.5:8:log:3"),
])
def test_one_normalize_policy_call_per_sweep_iteration(monkeypatch, game, grid):
    """The count that perfbench's games-sweep consistency check compares
    with the iterations the sweep's rows report."""
    model = ring_model() if game is None else fileio.load_problem(bundled_path(game))
    calls = count_calls(monkeypatch, discrete, "normalize_policy")
    report = alpha_sweep(model, parse_alpha_grid(grid), restarts=2, base_seed=1)
    assert len(calls) == sum(row.iterations for row in report.rows) > len(report.rows)


def test_one_rk4_step_call_per_agent_per_step(monkeypatch):
    model = ring_model()
    calls = count_calls(monkeypatch, continuous, "rk4_step")
    points, _ = evolve_coupled(model, t_max=5.0, record_every=1)
    steps = len(points) - 1
    assert steps > 1
    assert len(calls) == len(model.agents) * steps
