"""The compiled contraction plan: models that mix dense and pairwise agents
of different cardinalities, whose stacked arrays are padded, checked
against the brute-force oracles; the stacks' memory layout and the
bitwise order of the per-agent edge sums; and the calls per iteration and
per step that the benchmark's tracer counts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from coopt import bundled_path, continuous, discrete, fileio
from coopt.continuous import WaveState, effective_hamiltonian, evolve_coupled
from coopt.discrete import (
    expected_return_update_factorized,
    iterate_to_fixed_point,
    normalize_policy,
    random_profile,
)
from coopt.equilibrium import epsilon_of_profile
from coopt.model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    densify,
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
    assert_close(expected_return_update_factorized(pairwise, profile).values, oracle)

    mixed = mixed_model(seed)
    # The field of the first iteration is taken at the initial profile, and
    # at alpha 1 the next profile is the normalized field.
    result = iterate_to_fixed_point(mixed, 1.0, profile, max_iter=1)
    want = helpers.returns_by_enumeration(mixed, profile)
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
    # Dense tables over one neighbour join the pairwise terms on the edge
    # path; the wide case sums more than 8 terms, where numpy's summation
    # order depends on the layout.
    model = one_neighbour_model(seed, cards)
    assert [entry[0] for entry in model.plan.dense] == [2]
    assert sorted(model.plan.owner.tolist()) == [0, 1, 3]
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


def edge_sums_by_add_at(plan, p):
    """Edge rows of log_returns and expectations, taken row-major with the
    log tables (edges, neighbour, own) and a 2-D np.add.at over owner rows:
    the reference the plan's flat column-major scatter must equal bit for
    bit."""
    p = np.array(p, order="C")
    log_edges = plan.log_edges.transpose(1, 0, 2)
    log_returns = np.array(plan.log_one, order="C")
    with np.errstate(divide="ignore"):
        combined = log_edges + np.log(p)[plan.neighbour][:, :, np.newaxis]
        np.add.at(log_returns, plan.owner, log_sum_exp_first(np.moveaxis(combined, 1, 0)))
    expectations = np.zeros(p.shape)
    per_edge = np.matmul(plan.edges, p[plan.neighbour][..., np.newaxis])
    np.add.at(expectations, plan.owner, per_edge[..., 0])
    owners = np.unique(plan.owner)
    return log_returns[owners], expectations[owners]


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

    owners = np.unique(plan.owner)
    want_log, want_linear = edge_sums_by_add_at(plan, p)
    np.testing.assert_array_equal(log_returns[owners], want_log)
    expectations = plan.expectations(p)
    assert expectations.flags.f_contiguous
    np.testing.assert_array_equal(expectations[owners], want_linear)


def per_edge_fill(model):
    """owner, neighbour, edges and log_edges of the model's plan, filled
    one edge at a time: the reference for the plan's grouped fill."""
    agent_of = {agent.acts_on: i for i, agent in enumerate(model.agents)}
    found = []  # (owner, neighbour, log table, table), own axis first
    for i, agent in enumerate(model.agents):
        obj = agent.objective
        if isinstance(obj, PairwiseEnergy):
            found += [(i, agent_of[v], -t / model.hbar, t) for v, t in obj.terms]
            continue
        own_axis = obj.order.index(agent.acts_on)
        table = np.moveaxis(obj.values.reshape(model.shape_of(obj.order)), own_axis, 0)
        if isinstance(obj, DenseEnergy):
            log_table = -table / model.hbar
        else:
            with np.errstate(divide="ignore"):
                log_table = np.log(table)
        others = [agent_of[v] for v in obj.order if v != agent.acts_on]
        if len(others) == 1:
            found.append((i, others[0], log_table, table))
    width = max(model.agent_cardinalities())
    edges = np.zeros((len(found), width, width))
    log_edges = np.full((width, len(found), width), -np.inf)
    for e, (_, _, log_table, table) in enumerate(found):
        rows, cols = table.shape
        edges[e, :rows, :cols] = table
        log_edges[:cols, e, :rows] = log_table.T
    return [e[0] for e in found], [e[1] for e in found], edges, log_edges


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


def assert_plan_is_the_per_edge_fill(model):
    plan = model.plan
    owner, neighbour, edges, log_edges = per_edge_fill(model)
    assert plan.owner.tolist() == owner and plan.neighbour.tolist() == neighbour
    # bitwise, so signed zeros and -inf padding count too
    assert plan.edges.shape == edges.shape and plan.edges.tobytes() == edges.tobytes()
    assert plan.log_edges.shape == log_edges.shape
    assert plan.log_edges.tobytes() == log_edges.tobytes()


@pytest.mark.parametrize("mode", ["energy", "utility"])
def test_grouped_fill_is_the_per_edge_fill(mode):
    model = mixed_shape_model(mode)
    plan = model.plan
    shapes = {(plan.cards[i], plan.cards[j]) for i, j in zip(plan.owner, plan.neighbour)}
    assert len(shapes) >= 4
    assert [entry[0] for entry in plan.dense] == [4]
    assert_plan_is_the_per_edge_fill(model)


@settings(max_examples=40, deadline=None)
@given(edge_models())
def test_grouped_fill_is_the_per_edge_fill_on_edge_models(model):
    assert_plan_is_the_per_edge_fill(model)


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


def test_trace_steps_build_profile_and_field_when_read():
    model = ring_model()
    result = iterate_to_fixed_point(model, 0.5, keep_trace=True)
    last = result.trace.steps[-1]
    assert "profile" not in vars(last) and "field" not in vars(last)
    for got, want in zip(last.profile.dists, result.profile.dists):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(last.field.log_values, result.field.log_values):
        np.testing.assert_array_equal(got, want)
    assert last.profile is last.profile


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_effective_hamiltonian_matches_densified_model(seed):
    mixed = mixed_model(seed)
    dense = densified(mixed)
    dists = helpers.random_profile_arrays(seed + 3, mixed.agent_cardinalities())
    state = WaveState(tuple(np.sqrt(d) for d in dists))
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


def test_one_rk4_step_call_per_agent_per_step(monkeypatch):
    model = ring_model()
    calls = count_calls(monkeypatch, continuous, "rk4_step")
    points, _ = evolve_coupled(model, t_max=5.0, record_every=1)
    steps = len(points) - 1
    assert steps > 1
    assert len(calls) == len(model.agents) * steps
