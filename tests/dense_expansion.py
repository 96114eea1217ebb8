"""Reference expansions of energy objectives into dense tables, for the
tests that check the contraction plan's joint tables and pairwise paths
against dense ones.  They read only the public members of GameModel.
"""

import numpy as np

from coopt.model import DenseEnergy, DenseUtility, GameModel, PairwiseEnergy


def energy_to_utility(objective: DenseEnergy, hbar: float) -> DenseUtility:
    """Boltzmann map u = exp(-E / hbar); strictly positive, order-reversing."""
    if not (hbar > 0):
        raise ValueError("hbar must be positive")
    return DenseUtility(objective.order, np.exp(-objective.values / hbar))


def densify(objective: PairwiseEnergy, model: GameModel, own: str) -> DenseEnergy:
    """Expand a pairwise objective into the equivalent dense energy table.

    The output order is the model's variable order restricted to the own
    variable plus every referenced neighbor; each entry is the sum of the
    pairwise tables at that joint assignment, added to zeros in term order.
    """
    referenced = {other for other, _ in objective.terms}
    for other in referenced:
        model.cardinality(other)  # raises KeyError for unknown references
    order = sorted(referenced | {own}, key=model.variable_names().index)
    shape = model.shape_of(order)
    total = np.zeros(shape)
    own_axis = order.index(own)
    for other, table in objective.terms:
        other_axis = order.index(other)
        expand = [None] * len(order)
        expand[own_axis] = slice(None)
        expand[other_axis] = slice(None)
        view = table if own_axis < other_axis else table.T
        total = total + view[tuple(expand)]
    return DenseEnergy(tuple(order), total.ravel())


def full_domain_table(model: GameModel, index: int) -> np.ndarray:
    """An agent's objective, densified when pairwise, as a table over the
    joint domain: one axis per agent in agent order, in broadcast shape
    (length 1 along the agents whose variables it does not read)."""
    agent = model.agents[index]
    obj = agent.objective
    if isinstance(obj, PairwiseEnergy):
        obj = densify(obj, model, agent.acts_on)
    shape = model.shape_of(obj.order)
    axes = [model.agent_of[v] for v in obj.order]
    full = [1] * len(model.agents)
    for axis, size in zip(axes, shape):
        full[axis] = size
    return np.transpose(obj.values.reshape(shape), np.argsort(axes)).reshape(full)
