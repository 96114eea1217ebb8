"""Problem representation: one discrete action variable per agent, with
per-agent objectives given either as energies to minimize or nonnegative
utilities to maximize.

Dense objectives are flat row-major tables over a stated variable order
(last variable varies fastest).  Pairwise energy objectives hold one table
per neighboring variable, indexed (own action, other action), and stand
for the sum of those tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .numerics import log_sum_exp_along

PROBABILITY_TOL = 1e-12


class ValidationError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class DomainSpec:
    name: str
    cardinality: int


@dataclass(frozen=True)
class DenseTable:
    """A flat row-major table over the variables of `order`."""

    order: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).ravel())


@dataclass(frozen=True)
class DenseEnergy(DenseTable):
    """Energies to minimize."""


@dataclass(frozen=True)
class DenseUtility(DenseTable):
    """Nonnegative utilities to maximize."""


@dataclass(frozen=True)
class PairwiseEnergy:
    """Sum of two-variable energy tables, each indexed (own, other)."""

    terms: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        terms = tuple((name, np.asarray(table, dtype=float)) for name, table in self.terms)
        object.__setattr__(self, "terms", terms)


Objective = DenseTable | PairwiseEnergy


@dataclass(frozen=True)
class Agent:
    name: str
    acts_on: str
    objective: Objective


@dataclass(frozen=True)
class GameModel:
    variables: tuple[DomainSpec, ...]
    agents: tuple[Agent, ...]
    hbar: float = 1.0
    mode: str = "energy"  # "energy" or "utility"

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "agents", tuple(self.agents))

    @functools.cached_property
    def _cardinality_of(self) -> dict[str, int]:
        return {spec.name: spec.cardinality for spec in reversed(self.variables)}

    @functools.cached_property
    def _position_of(self) -> dict[str, int]:
        return {spec.name: i for i, spec in reversed(list(enumerate(self.variables)))}

    @functools.cached_property
    def plan(self) -> "ContractionPlan":
        """The objectives compiled for contraction, built on first use from
        the objective tables, which must not change in place afterwards."""
        return ContractionPlan(self)

    def cardinality(self, variable: str) -> int:
        if variable not in self._cardinality_of:
            raise KeyError(f"unknown variable {variable!r}")
        return self._cardinality_of[variable]

    def variable_names(self) -> list[str]:
        return [spec.name for spec in self.variables]

    def agent_cardinalities(self) -> list[int]:
        return [self.cardinality(agent.acts_on) for agent in self.agents]

    def shape_of(self, order: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.cardinality(name) for name in order)


@dataclass(frozen=True)
class StrategyProfile:
    """One probability vector per agent, aligned with the model's agent order."""

    dists: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "dists", tuple(np.asarray(d, dtype=float) for d in self.dists)
        )

    @classmethod
    def uniform(cls, model: GameModel) -> "StrategyProfile":
        return cls(tuple(np.full(c, 1.0 / c) for c in model.agent_cardinalities()))

    @classmethod
    def point_mass(cls, model: GameModel, assignment: Sequence[int]) -> "StrategyProfile":
        dists = []
        for c, a in zip(model.agent_cardinalities(), assignment):
            d = np.zeros(c)
            d[a] = 1.0
            dists.append(d)
        return cls(tuple(dists))


def validate_profile(model: GameModel, profile: StrategyProfile) -> StrategyProfile:
    problems = []
    if len(profile.dists) != len(model.agents):
        raise ValidationError(
            [f"profile has {len(profile.dists)} distributions for {len(model.agents)} agents"]
        )
    for agent, dist, card in zip(model.agents, profile.dists, model.agent_cardinalities()):
        if dist.shape != (card,):
            problems.append(f"agent {agent.name!r}: distribution length {dist.size} != {card}")
            continue
        if not np.isfinite(dist).all():
            problems.append(f"agent {agent.name!r}: non-finite probability")
        elif (dist < 0).any():
            problems.append(f"agent {agent.name!r}: negative probability")
        elif abs(float(dist.sum()) - 1.0) > PROBABILITY_TOL:
            problems.append(
                f"agent {agent.name!r}: probabilities sum to {float(dist.sum()):.17g}, not 1"
            )
    if problems:
        raise ValidationError(problems)
    return profile


def _check_dense(agent: Agent, obj, model: GameModel, problems: list[str]) -> None:
    names = model._cardinality_of
    if agent.acts_on not in obj.order:
        problems.append(f"agent {agent.name!r}: variable order omits its own variable")
    if len(set(obj.order)) != len(obj.order):
        problems.append(f"agent {agent.name!r}: duplicate variable in order")
    unknown = [v for v in obj.order if v not in names]
    if unknown:
        problems.append(f"agent {agent.name!r}: unknown variable {unknown[0]!r} in order")
        return
    expected = int(np.prod(model.shape_of(obj.order)))
    if obj.values.size != expected:
        problems.append(
            f"agent {agent.name!r}: {obj.values.size} values for a domain of size {expected}"
        )
    if not np.isfinite(obj.values).all():
        problems.append(f"agent {agent.name!r}: non-finite objective value")


def _check_pairwise(agent: Agent, obj: PairwiseEnergy, model: GameModel, problems: list[str]) -> None:
    names = model._cardinality_of
    seen = set()
    own_card = None
    if agent.acts_on in names:
        own_card = model.cardinality(agent.acts_on)
    for other, table in obj.terms:
        if other not in names:
            problems.append(f"agent {agent.name!r}: pairwise term with unknown variable {other!r}")
            continue
        if other == agent.acts_on:
            problems.append(f"agent {agent.name!r}: pairwise term with its own variable")
            continue
        if other in seen:
            problems.append(f"agent {agent.name!r}: variable {other!r} listed twice in pairwise terms")
        seen.add(other)
        shape = (own_card, model.cardinality(other))
        if own_card is not None and table.shape != shape:
            problems.append(
                f"agent {agent.name!r}: pairwise table for {other!r} has shape "
                f"{table.shape}, expected {shape}"
            )
        if not np.isfinite(table).all():
            problems.append(f"agent {agent.name!r}: non-finite pairwise energy")


def validate(model: GameModel) -> GameModel:
    """Check every structural invariant; raise ValidationError listing all
    violations, or return the model unchanged."""
    problems: list[str] = []

    names = [spec.name for spec in model.variables]
    if not names:
        problems.append("variables: at least one variable is required")
    if len(set(names)) != len(names):
        problems.append("duplicate variable names")
    for spec in model.variables:
        if spec.cardinality < 2:
            problems.append(f"variable {spec.name!r}: cardinality {spec.cardinality} < 2")

    if not (math.isfinite(model.hbar) and model.hbar > 0):
        problems.append(f"hbar must be a positive finite real, got {model.hbar}")
    if model.mode not in ("energy", "utility"):
        problems.append(f"mode must be 'energy' or 'utility', got {model.mode!r}")

    agent_names = [a.name for a in model.agents]
    if len(set(agent_names)) != len(agent_names):
        problems.append("duplicate agent names")
    acted = [a.acts_on for a in model.agents]
    if sorted(acted) != sorted(names):
        problems.append("agents and variables must be in one-to-one correspondence")

    for agent in model.agents:
        obj = agent.objective
        if isinstance(obj, DenseUtility):
            if model.mode != "utility":
                problems.append(f"agent {agent.name!r}: utility objective in energy mode")
            if (np.asarray(obj.values) < 0).any():
                problems.append(f"agent {agent.name!r}: negative utility value")
            _check_dense(agent, obj, model, problems)
        elif isinstance(obj, DenseEnergy):
            if model.mode != "energy":
                problems.append(f"agent {agent.name!r}: energy objective in utility mode")
            _check_dense(agent, obj, model, problems)
        elif isinstance(obj, PairwiseEnergy):
            if model.mode != "energy":
                problems.append(f"agent {agent.name!r}: pairwise energies require energy mode")
            _check_pairwise(agent, obj, model, problems)
        else:
            problems.append(f"agent {agent.name!r}: unrecognized objective type")

    if problems:
        raise ValidationError(problems)
    return model


def energy_to_utility(objective: DenseEnergy, hbar: float) -> DenseUtility:
    """Boltzmann map u = exp(-E / hbar); strictly positive, order-reversing."""
    if not (hbar > 0):
        raise ValueError("hbar must be positive")
    return DenseUtility(objective.order, np.exp(-objective.values / hbar))


def densify(objective: PairwiseEnergy, model: GameModel, own: str) -> DenseEnergy:
    """Expand a pairwise objective into the equivalent dense energy table.

    The output order is the model's variable order restricted to the own
    variable plus every referenced neighbor; each entry is the sum of the
    pairwise tables at that joint assignment.
    """
    referenced = {other for other, _ in objective.terms}
    for other in referenced:
        model.cardinality(other)  # raises KeyError for unknown references
    order = sorted(referenced | {own}, key=model._position_of.__getitem__)
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


def to_utility_model(model: GameModel) -> GameModel:
    """Equivalent utility-maximizing model, u_i = exp(-E_i / hbar).  The
    library certifies energy models directly; this is a reference."""
    if model.mode == "utility":
        return model
    agents = []
    for agent in model.agents:
        obj = agent.objective
        if isinstance(obj, PairwiseEnergy):
            obj = densify(obj, model, agent.acts_on)
        agents.append(replace(agent, objective=energy_to_utility(obj, model.hbar)))
    return replace(model, agents=tuple(agents), mode="utility")


def stack(rows, fill: float) -> np.ndarray:
    """Vectors as the rows of one column-major array, padded with fill to
    the longest: each action's column is contiguous, so reductions over a
    row add whole columns."""
    out = np.full((len(rows), max(row.size for row in rows)), fill, order="F")
    for i, row in enumerate(rows):
        out[i, : row.size] = row
    return out


class ContractionPlan:
    """A model's objectives compiled for contraction against marginals.

    Each agent's table is contracted against the other agents' marginals,
    in the log domain (expected Boltzmann weight or utility, as a log: the
    discrete map's returns and energy models' payoffs) or in the linear
    domain (expected energy or utility: utility payoffs and effective
    Hamiltonians).  Marginals and results
    are stacked one agent per row, column-major as `stack` lays them out,
    padded to the widest agent with zero probability and -inf log return.
    Every table over the own variable and one neighbour (a pairwise term,
    or a dense table) is an edge, so mixed cardinalities take the same
    path.  Linear tables sit in one (edges, own, neighbour) array padded
    with 0; log tables in one (neighbour, edges, own) array padded with
    -inf, so the log-sum-exp over the neighbour's actions reduces over
    contiguous (edges, own) slabs.  `slots[k]` gives each agent its k-th
    edge in edge order, or the row appended after the last edge, which
    holds zeros; summing per-edge results slot by slot adds each agent's
    edges in edge order.  Those sums run row-major, as the rows gathered
    for a slot are, and results are returned column-major: numpy adds a
    row-major array into a column-major one on a slower path.  Other
    dense tables are kept own axis first.
    """

    def __init__(self, model: GameModel):
        agent_of = {agent.acts_on: i for i, agent in enumerate(model.agents)}
        self.cards = model.agent_cardinalities()
        width = max(self.cards)
        # log 1 for every action, -inf for padding: where edge sums start
        self.log_one = np.where(np.arange(width) < np.array(self.cards)[:, None], 0.0, -np.inf)
        self.dense = []  # (agent, log table, table, neighbour agents)
        edges = []  # (owner, neighbour, log table, table), own axis first
        for i, agent in enumerate(model.agents):
            obj = agent.objective
            if isinstance(obj, PairwiseEnergy):
                edges += [
                    (i, agent_of[other], -table / model.hbar, table) for other, table in obj.terms
                ]
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
                edges.append((i, others[0], log_table, table))
            else:
                self.dense.append((i, log_table, table, others))
        self.owner = np.array([e[0] for e in edges], dtype=np.intp)
        self.neighbour = np.array([e[1] for e in edges], dtype=np.intp)
        self.edges = np.zeros((len(edges), width, width))
        self.log_edges = np.full((width, len(edges), width), -np.inf)
        for e, (_, _, log_table, table) in enumerate(edges):
            rows, cols = table.shape
            self.edges[e, :rows, :cols] = table
            self.log_edges[:cols, e, :rows] = log_table.T
        self.slots = []
        seen = [0] * len(self.cards)  # edges placed so far, per agent
        for e, i in enumerate(self.owner.tolist()):
            if seen[i] == len(self.slots):
                self.slots.append(np.full(len(self.cards), len(edges), dtype=np.intp))
            self.slots[seen[i]][i] = e
            seen[i] += 1

    def rows(self, stacked: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-agent vectors of a stacked array, padding dropped.

        The vectors are contiguous and do not alias the stacked array.  A
        strided row of a column-major stack would round differently in
        later products such as `dist @ vec`.
        """
        copied = np.array(stacked, order="C")
        return tuple(row[:card] for row, card in zip(copied, self.cards))

    def log_returns(self, p: np.ndarray) -> np.ndarray:
        """Log expected weight of each own action, from stacked marginals."""
        out = self.log_one.copy()
        with np.errstate(divide="ignore"):
            log_p = np.log(p)
            if self.owner.size:
                # log_sum_exp_along over the neighbour axis, in place
                combined = self.log_edges + log_p[self.neighbour].T[:, :, np.newaxis]
                top = combined.max(axis=0)
                # Shifted by 0 instead, all -inf sums to 0, whose log is -inf.
                top[~np.isfinite(top)] = 0.0
                combined -= top
                padded = np.zeros((self.owner.size + 1, combined.shape[2]))
                per_edge = padded[:-1]
                np.log(np.exp(combined, out=combined).sum(axis=0, out=per_edge), out=per_edge)
                per_edge += top
                for slot in self.slots:
                    out += padded[slot]
        for i, log_table, _, others in self.dense:
            if others:
                joint = functools.reduce(
                    np.add.outer, [log_p[j, : self.cards[j]] for j in others]
                )
                combined = log_table + joint[np.newaxis, ...]
                log_table = log_sum_exp_along(combined.reshape(combined.shape[0], -1), axis=1)
            out[i, : self.cards[i]] = log_table
        return np.asfortranarray(out)

    def expectations(self, p: np.ndarray) -> np.ndarray:
        """Expected objective value of each own action, from stacked marginals."""
        out = np.zeros(p.shape)
        if self.owner.size:
            padded = np.zeros((self.owner.size + 1, p.shape[1]))
            per_edge = padded[:-1, :, np.newaxis]
            np.matmul(self.edges, p[self.neighbour][..., np.newaxis], out=per_edge)
            for slot in self.slots:
                out += padded[slot]
        for i, _, table, others in self.dense:
            for j in reversed(others):
                table = table @ p[j, : self.cards[j]]
            out[i, : self.cards[i]] = table
        return np.asfortranarray(out)
