"""Problem representation: one discrete action variable per agent, with
per-agent objectives given either as energies to minimize or nonnegative
utilities to maximize.

Dense objectives are flat row-major tables over a stated variable order
(last variable varies fastest).  Pairwise energy objectives hold one table
per neighboring variable, indexed (own action, other action), and stand
for the sum of those tables.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import Frozen, log_sum_exp_first

PROBABILITY_TOL = 1e-12


class ValidationError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DomainSpec(NamedTuple):
    name: str
    cardinality: int


class DenseTable(Frozen):
    """A flat row-major table over the variables of `order`."""

    __slots__ = ("order", "values")

    def __init__(self, order: Sequence[str], values):
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "values", np.asarray(values, dtype=float).ravel())


class DenseEnergy(DenseTable):
    """Energies to minimize."""

    __slots__ = ()


class DenseUtility(DenseTable):
    """Nonnegative utilities to maximize."""

    __slots__ = ()


class PairwiseEnergy(Frozen):
    """Sum of two-variable energy tables, each indexed (own, other)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple((name, np.asarray(table, dtype=float)) for name, table in terms)
        object.__setattr__(self, "terms", terms)


Objective = DenseTable | PairwiseEnergy


class Agent(NamedTuple):
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
    def _position_of(self) -> dict[str, int]:
        return {spec.name: i for i, spec in reversed(list(enumerate(self.variables)))}

    @functools.cached_property
    def plan(self) -> "ContractionPlan":
        """The objectives compiled for contraction, built on first use from
        the objective tables, which must not change in place afterwards."""
        return ContractionPlan(self)

    @functools.cached_property
    def agent_axes(self) -> tuple[int, ...]:
        """The position in `variables` of each agent's variable."""
        return tuple(self._position_of[agent.acts_on] for agent in self.agents)

    @functools.cached_property
    def _agent_cardinalities(self) -> tuple[int, ...]:
        return tuple(self.variables[axis].cardinality for axis in self.agent_axes)

    def cardinality(self, variable: str) -> int:
        if variable not in self._position_of:
            raise KeyError(f"unknown variable {variable!r}")
        return self.variables[self._position_of[variable]].cardinality

    def variable_names(self) -> list[str]:
        return [spec.name for spec in self.variables]

    def agent_cardinalities(self) -> tuple[int, ...]:
        return self._agent_cardinalities

    def shape_of(self, order: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.cardinality(name) for name in order)


class StrategyProfile(Frozen):
    """One probability vector per agent, aligned with the model's agent order."""

    __slots__ = ("dists",)

    def __init__(self, dists):
        object.__setattr__(self, "dists", tuple(np.asarray(d, dtype=float) for d in dists))

    @classmethod
    def uniform(cls, model: GameModel) -> "StrategyProfile":
        return cls(tuple(np.full(c, 1.0 / c) for c in model.agent_cardinalities()))

    @classmethod
    def point_mass(cls, model: GameModel, assignment: Sequence[int]) -> "StrategyProfile":
        # row a of the identity: 1 at action a, 0 elsewhere
        return cls(tuple(np.eye(c)[a] for c, a in zip(model.agent_cardinalities(), assignment)))


def validate_profile(model: GameModel, profile: StrategyProfile) -> np.ndarray:
    """The profile's distributions as `stack(profile.dists, 0.0)` lays them
    out, once each is checked: raises ValidationError naming every agent
    whose distribution has the wrong shape, a non-finite or negative entry,
    or a sum more than PROBABILITY_TOL from 1."""
    if len(profile.dists) != len(model.agents):
        raise ValidationError(
            [f"profile has {len(profile.dists)} distributions for {len(model.agents)} agents"]
        )
    cards = model.agent_cardinalities()
    shaped = [dist.shape == (card,) for dist, card in zip(profile.dists, cards)]
    # a misshapen distribution takes a row of zeros, and is refused below
    p = stack([dist if ok else np.zeros(0) for ok, dist in zip(shaped, profile.dists)], 0.0)
    finite = np.isfinite(p).all(axis=1)
    negative = (p < 0).any(axis=1)
    # A row sum may add in another order than dist.sum(), which moves a sum
    # of nonnegative terms by at most 2 * size * 2**-53 times itself; agents
    # that close to the tolerance are summed again below.  Sums that overflow
    # or add inf to -inf are refused without a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = p.sum(axis=1)
        slack = 4e-16 * np.array(cards) * np.maximum(np.abs(sums), 1.0)
        near = np.abs(sums - 1.0) > PROBABILITY_TOL - slack
        problems = []
        for i in np.flatnonzero(~np.array(shaped) | ~finite | negative | near).tolist():
            name, dist = model.agents[i].name, profile.dists[i]
            if not shaped[i]:
                problems.append(f"agent {name!r}: distribution length {dist.size} != {cards[i]}")
            elif not finite[i]:
                problems.append(f"agent {name!r}: non-finite probability")
            elif negative[i]:
                problems.append(f"agent {name!r}: negative probability")
            elif abs(float(dist.sum()) - 1.0) > PROBABILITY_TOL:
                problems.append(
                    f"agent {name!r}: probabilities sum to {float(dist.sum()):.17g}, not 1"
                )
    if problems:
        raise ValidationError(problems)
    return p


def _check_dense(agent: Agent, obj, model: GameModel, problems: list[str], finite: bool) -> None:
    """finite is True when every table of the model is known to be finite."""
    if agent.acts_on not in obj.order:
        problems.append(f"agent {agent.name!r}: variable order omits its own variable")
    if len(set(obj.order)) != len(obj.order):
        problems.append(f"agent {agent.name!r}: duplicate variable in order")
    unknown = [v for v in obj.order if v not in model._position_of]
    if unknown:
        problems.append(f"agent {agent.name!r}: unknown variable {unknown[0]!r} in order")
        return
    expected = math.prod(model.shape_of(obj.order))
    if obj.values.size != expected:
        problems.append(
            f"agent {agent.name!r}: {obj.values.size} values for a domain of size {expected}"
        )
    if not (finite or np.isfinite(obj.values).all()):
        problems.append(f"agent {agent.name!r}: non-finite objective value")


def _check_pairwise(
    agent: Agent, obj: PairwiseEnergy, model: GameModel, problems: list[str], finite: bool
) -> None:
    """finite is True when every table of the model is known to be finite."""
    names = model._position_of
    seen = set()
    own = names.get(agent.acts_on)
    own_card = None if own is None else model.variables[own].cardinality
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
        shape = (own_card, model.variables[names[other]].cardinality)
        if own_card is not None and table.shape != shape:
            problems.append(
                f"agent {agent.name!r}: pairwise table for {other!r} has shape "
                f"{table.shape}, expected {shape}"
            )
        if not (finite or np.isfinite(table).all()):
            problems.append(f"agent {agent.name!r}: non-finite pairwise energy")


def _tables(objective) -> list[np.ndarray]:
    """The tables whose finiteness validate tests."""
    if isinstance(objective, (DenseEnergy, DenseUtility)):
        return [objective.values]
    if isinstance(objective, PairwiseEnergy):
        return [table for _, table in objective.terms]
    return []


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

    # One finiteness test over every table; only when it fails is each
    # table tested alone, so that its agent can be named.
    # Raveled first: concatenate with axis=None takes about twice as long.
    every = [table.ravel() for agent in model.agents for table in _tables(agent.objective)]
    finite = bool(np.isfinite(np.concatenate(every)).all()) if every else True
    for agent in model.agents:
        obj = agent.objective
        if isinstance(obj, DenseUtility):
            if model.mode != "utility":
                problems.append(f"agent {agent.name!r}: utility objective in energy mode")
            if (np.asarray(obj.values) < 0).any():
                problems.append(f"agent {agent.name!r}: negative utility value")
            _check_dense(agent, obj, model, problems, finite)
        elif isinstance(obj, DenseEnergy):
            if model.mode != "energy":
                problems.append(f"agent {agent.name!r}: energy objective in utility mode")
            _check_dense(agent, obj, model, problems, finite)
        elif isinstance(obj, PairwiseEnergy):
            if model.mode != "energy":
                problems.append(f"agent {agent.name!r}: pairwise energies require energy mode")
            _check_pairwise(agent, obj, model, problems, finite)
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
        agents.append(agent._replace(objective=energy_to_utility(obj, model.hbar)))
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
        energy = model.mode == "energy"

        def log_of(table, out=None):  # -E/hbar in energy mode, log u in utility mode
            if energy:
                return np.divide(np.negative(table, out=out), model.hbar, out=out)
            with np.errstate(divide="ignore"):
                return np.log(table, out=out)

        self.dense = []  # (agent, log table, table, neighbour agents)
        owner, neighbour, tables = [], [], []  # per edge; tables own axis first
        for i, agent in enumerate(model.agents):
            obj = agent.objective
            if isinstance(obj, PairwiseEnergy):
                for other, table in obj.terms:
                    owner.append(i)
                    neighbour.append(agent_of[other])
                    tables.append(table)
                continue
            own_axis = obj.order.index(agent.acts_on)
            table = np.moveaxis(obj.values.reshape(model.shape_of(obj.order)), own_axis, 0)
            others = [agent_of[v] for v in obj.order if v != agent.acts_on]
            if len(others) == 1:
                owner.append(i)
                neighbour.append(others[0])
                tables.append(table)
            else:
                self.dense.append((i, log_of(table), table, others))
        self.owner = np.array(owner, dtype=np.intp)
        self.neighbour = np.array(neighbour, dtype=np.intp)
        self.edges = np.zeros((len(tables), width, width))
        self.log_edges = np.full((width, len(tables), width), -np.inf)
        # one stacked fill per table shape
        groups: dict[tuple[int, ...], list[int]] = {}
        for e, table in enumerate(tables):
            groups.setdefault(table.shape, []).append(e)
        for (rows, cols), group in groups.items():
            stacked = np.array([tables[e] for e in group])
            self.edges[group, :rows, :cols] = stacked
            log_of(stacked, out=stacked)
            self.log_edges[:cols, group, :rows] = stacked.transpose(2, 0, 1)
        # Edges are listed owner by owner, so an edge's slot is its rank
        # among its owner's edges.
        first = np.searchsorted(self.owner, self.owner)
        rank = np.arange(len(tables)) - first
        self.slots = []
        for k in range(int(rank.max()) + 1 if len(tables) else 0):
            slot = np.full(len(self.cards), len(tables), dtype=np.intp)
            at = np.flatnonzero(rank == k)
            slot[self.owner[at]] = at
            self.slots.append(slot)

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
                combined = self.log_edges + log_p[self.neighbour].T[:, :, np.newaxis]
                padded = np.zeros((self.owner.size + 1, combined.shape[2]))
                log_sum_exp_first(combined, out=padded[:-1])
                for slot in self.slots:
                    out += padded[slot]
            for i, log_table, _, others in self.dense:
                if others:
                    joint = functools.reduce(
                        np.add.outer, [log_p[j, : self.cards[j]] for j in others]
                    )
                    combined = log_table + joint[np.newaxis, ...]
                    # the transpose sums each row's contiguous memory in order
                    log_table = log_sum_exp_first(combined.reshape(combined.shape[0], -1).T)
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
