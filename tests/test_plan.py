"""The compiled contraction plan: models that mix dense and pairwise agents
of different cardinalities, whose stacked arrays are padded, checked
against the brute-force oracles; and the calls per iteration and per step
that the benchmark's tracer counts."""

from dataclasses import replace

import numpy as np
import pytest

import helpers
from coopt import continuous, discrete
from coopt.continuous import WaveState, effective_hamiltonian, evolve_coupled
from coopt.discrete import expected_return_update_factorized, iterate_to_fixed_point
from coopt.equilibrium import epsilon_of_profile
from coopt.model import (
    Agent,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    densify,
    to_utility_model,
)
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


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_epsilon_matches_enumeration(seed):
    model = to_utility_model(mixed_model(seed))
    profile = seeded_profile(model, seed + 2)
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


@pytest.mark.parametrize("alpha, max_iter", [(0.5, 10000), (8.0, 20)])
def test_one_normalize_policy_call_per_iteration(monkeypatch, alpha, max_iter):
    calls = count_calls(monkeypatch, discrete, "normalize_policy")
    result = iterate_to_fixed_point(ring_model(), alpha, max_iter=max_iter)
    assert result.iterations > 1
    assert len(calls) == result.iterations


def test_one_rk4_step_call_per_agent_per_step(monkeypatch):
    model = ring_model()
    calls = count_calls(monkeypatch, continuous, "rk4_step")
    points, _ = evolve_coupled(model, t_max=5.0, record_every=1)
    steps = len(points) - 1
    assert steps > 1
    assert len(calls) == len(model.agents) * steps
