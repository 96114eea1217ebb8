"""Certification and experiment layer.

The epsilon certificate measures, by exact enumeration, how much any agent
could gain by a unilateral pure deviation; pure equilibria are enumerated
exhaustively as an independent check of the zero-epsilon endpoint.  The
sweep driver runs the discrete iteration across a grid of alpha values and
seeded restarts and records convergence, epsilon, welfare and whether the
decoded assignment attains the global energy minimum.
"""

import math
from typing import NamedTuple

import numpy as np

from .discrete import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    AllZeroReturnsError,
    DivergenceError,
    iterate_to_fixed_point,
    random_profile,
)
from .model import (
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    densify,
    to_utility_model,  # noqa: F401  perfbench/tracing.py patches this name here
    validate,
    validate_profile,
)
from .rng import derive_seed

MAX_ENUMERATION_SIZE = 1_000_000
_TIE_REL = 1e-15


class EnumerationTooLargeError(ValueError):
    pass


class EpsilonCertificate(NamedTuple):
    """Best-response gains per agent; epsilon is the largest gain."""

    epsilon: float
    gains: tuple[float, ...]
    best_deviation: tuple[int, ...]
    payoffs: tuple[float, ...]


class SweepRow(NamedTuple):
    alpha: float
    seed: int
    converged: bool
    iterations: int
    epsilon: float | None
    welfare: float | None
    global_hit: bool | None


class SweepReport(NamedTuple):
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            if isinstance(x, float):
                return repr(x)
            return str(x)

        # a row's fields, in order, are the columns
        lines = [",".join(SweepRow._fields)] + [",".join(map(fmt, row)) for row in self.rows]
        return "\n".join(lines) + "\n"


def _payoffs(model: GameModel, profile: StrategyProfile):
    """Per agent, the returns that rank its own pure actions against the
    others' marginals, and their expected payoffs.  Utility models rank by
    the expected utilities themselves; energy models by the log Boltzmann
    weights log E[exp(-E/hbar)] of the plan's log returns, whose exp gives
    the payoffs exactly."""
    p = validate_profile(model, profile)
    plan = model.plan
    if model.mode == "utility":
        payoffs = plan.rows(plan.expectations(p))
        return payoffs, payoffs
    log_returns = plan.log_returns(p)
    with np.errstate(over="ignore"):  # callers check the weights they use
        return plan.rows(log_returns), plan.rows(np.exp(log_returns))


def weight_error(what: str, weight: float, hbar: float) -> ValueError:
    """The error for a Boltzmann weight, positive in exact arithmetic, that
    underflowed to 0 or overflowed at hbar."""
    fate = "underflows to 0" if weight == 0.0 else "overflows"
    return ValueError(f"{what} {fate} at hbar={hbar!r}; use a larger hbar")


def social_welfare(model: GameModel, profile: StrategyProfile) -> float:
    """Unweighted mean of the agents' expected payoffs.  For energy models
    it raises ValueError naming hbar when the mean weight underflows to 0 or
    overflows."""
    _, payoffs = _payoffs(model, profile)
    welfare = float(np.mean([float(d @ v) for d, v in zip(profile.dists, payoffs)]))
    if model.mode == "energy" and not 0.0 < welfare < math.inf:
        raise weight_error("the mean expected Boltzmann weight", welfare, model.hbar)
    return welfare


def epsilon_of_profile(model: GameModel, profile: StrategyProfile) -> EpsilonCertificate:
    """Largest unilateral pure-deviation gain over all agents.

    Pure deviations suffice: against fixed opponents the best response is
    attained at a pure action.  Tiny negative gains are clamped to zero.
    Energy models rank deviations by their log Boltzmann weights, and raise
    ValueError when the best one's weight underflows to 0 at the model's
    hbar, where every gain would read 0, or overflows, where it would read
    NaN.
    """
    ranking, vectors = _payoffs(model, profile)
    energy = model.mode == "energy"
    gains = []
    deviations = []
    payoffs = []
    for agent, dist, vec, rank in zip(model.agents, profile.dists, vectors, ranking):
        best = int(np.argmax(rank))
        if energy and not 0.0 < vec[best] < math.inf:
            raise weight_error(
                f"agent {agent.name!r}: the Boltzmann weight exp({float(rank[best])!r}) of "
                "its best deviation", float(vec[best]), model.hbar
            )
        current = float(dist @ vec)
        gain = float(vec[best]) - current
        gains.append(max(gain, 0.0))
        deviations.append(best)
        payoffs.append(current)
    return EpsilonCertificate(max(gains), tuple(gains), tuple(deviations), tuple(payoffs))


def _full_domain_tensor(model: GameModel, agent) -> np.ndarray:
    """An agent's objective as a dense table over the full variable domain,
    in broadcast shape (length 1 along the variables it does not read)."""
    obj = agent.objective
    if isinstance(obj, PairwiseEnergy):
        obj = densify(obj, model, agent.acts_on)
    shape = model.shape_of(obj.order)
    axes = [model._position_of[v] for v in obj.order]
    full = [1] * len(model.variables)
    for axis, size in zip(axes, shape):
        full[axis] = size
    return np.transpose(obj.values.reshape(shape), np.argsort(axes)).reshape(full)


def enumerate_pure_nash(model: GameModel) -> list[tuple[int, ...]]:
    """All pure profiles with no strictly improving unilateral deviation.

    Exhaustive over the joint domain; ties count as equilibria.  Energies
    are compared directly (lower is better), so the result does not depend
    on hbar.  Profiles come back as per-agent action tuples in the model's
    agent order.
    """
    full_shape = model.shape_of(model.variable_names())
    if math.prod(full_shape) > MAX_ENUMERATION_SIZE:
        raise EnumerationTooLargeError(
            f"joint domain of {len(full_shape)} variables has more than "
            f"{MAX_ENUMERATION_SIZE} assignments"
        )
    mask = np.ones(full_shape, dtype=bool)
    for agent, own_axis in zip(model.agents, model.agent_axes):
        tensor = _full_domain_tensor(model, agent)
        if model.mode == "energy":
            tensor = -tensor  # exact, so the max test orders energies
        best = tensor.max(axis=own_axis, keepdims=True)
        mask &= np.broadcast_to(tensor >= best, full_shape)
    return [
        tuple(int(joint[axis]) for axis in model.agent_axes) for joint in np.argwhere(mask)
    ]


def decode_assignment(profile: StrategyProfile) -> tuple[int, ...]:
    """Per-agent argmax with lowest-index tie-breaking (1e-15 relative)."""
    out = []
    for dist in profile.dists:
        top = float(dist.max())
        ties = np.nonzero(dist >= top - _TIE_REL * max(1.0, abs(top)))[0]
        out.append(int(ties[0]))
    return tuple(out)


def alpha_sweep(
    model: GameModel,
    alpha_grid,
    restarts: int = 1,
    base_seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SweepReport:
    """Run the iteration over every (alpha, restart) cell and summarize.

    The first restart of each alpha starts uniform; later restarts start
    from seeded random profiles.  Epsilon is recorded for utility models,
    the global-minimum hit flag for energy models (against the exhaustive
    minimum of the summed energies; left empty when the joint domain
    exceeds MAX_ENUMERATION_SIZE); welfare always, using the Boltzmann
    weights for energy models (left empty when their mean underflows to 0
    or overflows).  Cell failures are recorded, not raised.
    """
    validate(model)
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")

    total = None
    if model.mode == "energy" and math.prod(model.agent_cardinalities()) <= MAX_ENUMERATION_SIZE:
        # axes in agent order, so that a decoded assignment indexes it
        total = np.transpose(sum(_full_domain_tensor(model, a) for a in model.agents),
                             model.agent_axes)
        global_min = float(total.min())

    rows = []
    for ai, alpha in enumerate(alphas):
        for r in range(restarts):
            seed = derive_seed(base_seed, ai, r)
            init = None if r == 0 else random_profile(model, seed)
            try:
                result = iterate_to_fixed_point(model, alpha, init, tol=tol, max_iter=max_iter)
            except (DivergenceError, AllZeroReturnsError):
                rows.append(SweepRow(alpha, seed, False, 0, None, None, None))
                continue
            epsilon = (
                epsilon_of_profile(model, result.profile).epsilon
                if model.mode == "utility"
                else None
            )
            try:
                welfare = social_welfare(model, result.profile)
            except ValueError:  # the weights left the float range at this hbar
                welfare = None
            hit = None
            if total is not None:
                value = float(total[decode_assignment(result.profile)])
                hit = value <= global_min + 1e-12 * (1.0 + abs(global_min))
            rows.append(
                SweepRow(alpha, seed, result.converged, result.iterations, epsilon, welfare, hit)
            )
    return SweepReport(tuple(rows))
