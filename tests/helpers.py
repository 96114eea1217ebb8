"""Brute-force oracles and seeded instance generators for the test suite.

The oracles enumerate joint assignments directly with pure Python floats
in the linear domain, independent of the library's log-domain paths.
"""

import itertools
import math

import numpy as np

from coopt.model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
)
from coopt.numerics import Diagonal
from coopt.rng import SplitMix64


# ---------------------------------------------------------------- oracles

def dense_value(model, obj, assignment):
    idx = 0
    for v in obj.order:
        idx = idx * model.cardinality(v) + assignment[v]
    return float(obj.values[idx])


def agent_weight(model, agent, assignment):
    """Linear-domain weight of one joint assignment for one agent."""
    obj = agent.objective
    if isinstance(obj, DenseUtility):
        return dense_value(model, obj, assignment)
    if isinstance(obj, DenseEnergy):
        return math.exp(-dense_value(model, obj, assignment) / model.hbar)
    own = assignment[agent.acts_on]
    energy = sum(float(t[own][assignment[other]]) for other, t in obj.terms)
    return math.exp(-energy / model.hbar)


def returns_by_enumeration(model, profile):
    """Expected returns summed assignment by assignment over all variables."""
    names = model.variable_names()
    by_var = {a.acts_on: i for i, a in enumerate(model.agents)}
    out = []
    for agent in model.agents:
        own = agent.acts_on
        card = model.cardinality(own)
        others = [v for v in names if v != own]
        psi = [0.0] * card
        for combo in itertools.product(*[range(model.cardinality(v)) for v in others]):
            assignment = dict(zip(others, combo))
            prob = 1.0
            for v in others:
                prob *= float(profile.dists[by_var[v]][assignment[v]])
            for a in range(card):
                assignment[own] = a
                psi[a] += agent_weight(model, agent, assignment) * prob
        out.append(np.array(psi))
    return out


def payoff_by_enumeration(model, profile, index):
    """Expected utility over every joint assignment, all agents mixed in."""
    names = model.variable_names()
    by_var = {a.acts_on: i for i, a in enumerate(model.agents)}
    agent = model.agents[index]
    total = 0.0
    for combo in itertools.product(*[range(model.cardinality(v)) for v in names]):
        assignment = dict(zip(names, combo))
        prob = 1.0
        for v in names:
            prob *= float(profile.dists[by_var[v]][assignment[v]])
        total += dense_value(model, agent.objective, assignment) * prob
    return total


def pairwise_sum(terms, own_action, assignment):
    return sum(float(t[own_action][assignment[other]]) for other, t in terms)


def scalar_rk4(rate, y, dt):
    """Fourth-order Taylor truncation for y' = -rate * y."""
    z = rate * dt
    return y * (1.0 - z + z * z / 2.0 - z**3 / 6.0 + z**4 / 24.0)


def centre(op):
    """(sigma, w): centre and half-width of op.interval(), each end halved
    first, as the linear flow takes them."""
    lo, hi = op.interval()
    return 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo


def row_sum_bound(op):
    """Largest absolute row sum of the operator, a bound on every
    |eigenvalue|, taken from its entries."""
    matrix = np.diag(op.entries) if isinstance(op, Diagonal) else op.matrix
    return float(np.abs(matrix).sum(axis=1).max())


# ------------------------------------------------------------- generators

def random_pairwise_model(seed, max_agents=4, max_card=4):
    """Seeded random energy model where every objective is pairwise."""
    s = SplitMix64(seed)
    n = 2 + s.next_u64() % (max_agents - 1)
    cards = [2 + s.next_u64() % (max_card - 1) for _ in range(n)]
    variables = tuple(DomainSpec(f"v{i}", cards[i]) for i in range(n))
    agents = []
    for i in range(n):
        terms = []
        for j in range(n):
            if j != i and s.uniform() < 0.6:
                table = np.array(
                    [[4.0 * s.uniform() - 2.0 for _ in range(cards[j])] for _ in range(cards[i])]
                )
                terms.append((f"v{j}", table))
        if not terms:
            j = (i + 1) % n
            table = np.array(
                [[4.0 * s.uniform() - 2.0 for _ in range(cards[j])] for _ in range(cards[i])]
            )
            terms.append((f"v{j}", table))
        agents.append(Agent(f"agent{i}", f"v{i}", PairwiseEnergy(tuple(terms))))
    hbar = 0.5 + 1.5 * s.uniform()
    return GameModel(variables, tuple(agents), hbar=hbar, mode="energy")


def rounding_pairwise_model(seed):
    """Seeded random pairwise energy model whose sums depend on their order.

    The entries are 3.0 * uniform_signed(), which are not all multiples of
    one power of two, so a sum of three tables rounds differently in another
    order; random_pairwise_model's draws add exactly.  Four or five agents
    share one cardinality, and each holds a table against every other agent,
    so each agent's tables are three or more of one shape.
    """
    s = SplitMix64(seed)
    n = 4 + s.next_u64() % 2
    card = 2 + s.next_u64() % 2
    variables = tuple(DomainSpec(f"v{i}", card) for i in range(n))
    agents = []
    for i in range(n):
        terms = tuple(
            (f"v{j}", np.array([[3.0 * s.uniform_signed() for _ in range(card)]
                                for _ in range(card)]))
            for j in range(n) if j != i
        )
        agents.append(Agent(f"agent{i}", f"v{i}", PairwiseEnergy(terms)))
    return GameModel(variables, tuple(agents), hbar=0.5 + 1.5 * s.uniform(), mode="energy")


def random_dense_model(seed, n_agents, card, mode="utility", value_span=1.0):
    """Seeded random dense model; utilities in [0, span), energies in (-span, span)."""
    s = SplitMix64(seed)
    variables = tuple(DomainSpec(f"v{i}", card) for i in range(n_agents))
    order = tuple(f"v{i}" for i in range(n_agents))
    agents = []
    for i in range(n_agents):
        count = card**n_agents
        if mode == "utility":
            values = np.array([value_span * s.uniform() for _ in range(count)])
            obj = DenseUtility(order, values)
        else:
            values = np.array([value_span * s.uniform_signed() for _ in range(count)])
            obj = DenseEnergy(order, values)
        agents.append(Agent(f"agent{i}", f"v{i}", obj))
    return GameModel(variables, tuple(agents), hbar=1.0, mode=mode)


def random_symmetric_matrix(seed, n, span=1.0):
    s = SplitMix64(seed)
    b = np.array([[span * s.uniform_signed() for _ in range(n)] for _ in range(n)])
    return 0.5 * (b + b.T)


def random_profile_arrays(seed, cards):
    s = SplitMix64(seed)
    dists = []
    for c in cards:
        e = np.array([-math.log(s.uniform()) for _ in range(c)])
        dists.append(e / e.sum())
    return dists


# ------------------------------------------------------------ fixed games

def prisoners_dilemma(t=5.0, r=3.0, p=1.0, s=0.0):
    variables = (DomainSpec("x1", 2), DomainSpec("x2", 2))
    values = np.array([r, s, t, p])
    agents = (
        Agent("row", "x1", DenseUtility(("x1", "x2"), values)),
        Agent("col", "x2", DenseUtility(("x2", "x1"), values)),
    )
    return GameModel(variables, agents, hbar=1.0, mode="utility")


def single_agent_energy(energies, hbar=1.0):
    variables = (DomainSpec("x", len(energies)),)
    agents = (Agent("solo", "x", DenseEnergy(("x",), np.asarray(energies, dtype=float))),)
    return GameModel(variables, agents, hbar=hbar, mode="energy")
