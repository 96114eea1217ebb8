"""Discrete-time compromise dynamics.

Each step computes every agent's expected return per own action, as the
expectation of exp(-E/hbar) (energy mode) or of the utility (utility mode)
over the other agents' current action distributions, then maps returns to
a new profile through the alpha-power normalization.  All accumulation
runs in the log domain so small hbar and large alpha stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameModel, PairwiseEnergy, StrategyProfile, stack, validate_profile
from .rng import SplitMix64, random_simplex

ALPHA_CAP = 1e6
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000


class DivergenceError(RuntimeError):
    """Iteration produced a non-finite quantity."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"diverged at step {step}: {detail}")
        self.step = step


class AllZeroReturnsError(RuntimeError):
    """Every action of some agent has zero expected return."""


@dataclass(frozen=True)
class ExpectedReturnField:
    """Per-agent expected returns, kept as natural logs (-inf encodes zero)."""

    log_values: tuple[np.ndarray, ...]

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        return tuple(np.exp(lv) for lv in self.log_values)


@dataclass(frozen=True)
class TraceStep:
    step: int
    max_change: float
    profile: StrategyProfile
    field: ExpectedReturnField


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[TraceStep, ...]

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("step,max_change\n")
            for s in self.steps:
                f.write(f"{s.step},{float(s.max_change)!r}\n")

    def write_detail_csv(self, path, model: GameModel) -> None:
        with open(path, "w") as f:
            f.write("step,agent,action,p,psi\n")
            for s in self.steps:
                values = s.field.values
                for agent, dist, psi in zip(model.agents, s.profile.dists, values):
                    for action in range(dist.size):
                        f.write(
                            f"{s.step},{agent.name},{action},"
                            f"{float(dist[action])!r},{float(psi[action])!r}\n"
                        )


@dataclass(frozen=True)
class FixedPointResult:
    profile: StrategyProfile
    converged: bool
    iterations: int
    max_change: float
    field: ExpectedReturnField
    trace: IterationTrace | None = None


def random_profile(model: GameModel, seed: int) -> StrategyProfile:
    """Seeded strictly-positive profile for sweep restarts."""
    stream = SplitMix64(seed)
    return StrategyProfile(
        tuple(random_simplex(c, stream) for c in model.agent_cardinalities())
    )


def _field(model: GameModel, profile: StrategyProfile) -> ExpectedReturnField:
    validate_profile(model, profile)
    plan = model.plan
    return ExpectedReturnField(plan.rows(plan.log_returns(stack(profile.dists, 0.0))))


def expected_return_update(model: GameModel, profile: StrategyProfile) -> ExpectedReturnField:
    """Exact-enumeration update; every objective must be a dense table."""
    for agent in model.agents:
        if isinstance(agent.objective, PairwiseEnergy):
            raise ValueError(
                f"agent {agent.name!r} has a pairwise objective; use the factorized update"
            )
    return _field(model, profile)


def expected_return_update_factorized(
    model: GameModel, profile: StrategyProfile
) -> ExpectedReturnField:
    """Per-term update for pairwise energies.

    The expectation of exp(-sum of pairwise terms / hbar) splits into a
    product of per-neighbor expectations because each neighbor appears in
    exactly one table; cost is linear in the number of terms.
    """
    for agent in model.agents:
        if not isinstance(agent.objective, PairwiseEnergy):
            raise ValueError(f"agent {agent.name!r} does not have a pairwise objective")
    return _field(model, profile)


def normalize_policy(field, alpha: float):
    """Profile with p proportional to (expected return)**alpha, per agent.

    Maps an ExpectedReturnField to a StrategyProfile, or log returns
    stacked one agent per row (padded with -inf) to probabilities stacked
    the same way (padded with 0).  Computed as exp(alpha * log psi - log Z)
    so large alpha cannot overflow; alpha is capped at 1e6 (the practical
    best-response limit).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    stacked = isinstance(field, np.ndarray)
    log_values = field if stacked else stack(field.log_values, -np.inf)
    scaled = min(alpha, ALPHA_CAP) * log_values
    top = scaled.max(axis=1)
    if (top == -np.inf).any():
        raise AllZeroReturnsError(
            f"agent index {int(np.argmax(top == -np.inf))}: all expected returns are zero, "
            "distribution undefined"
        )
    sums = np.exp(scaled - top[:, np.newaxis]).sum(axis=1)
    # math.log, as in numerics.log_sum_exp: numpy's vectorized log rounds
    # differently in about 0.1% of inputs, which would make the stacked and
    # per-agent normalizations disagree in the last bit.
    z = top + np.array(list(map(math.log, sums.tolist())))
    p = np.exp(scaled - z[:, np.newaxis])
    p /= p.sum(axis=1, keepdims=True)
    if stacked:
        return p
    return StrategyProfile(tuple(row[: lv.size] for row, lv in zip(p, field.log_values)))


def iterate_to_fixed_point(
    model: GameModel,
    alpha: float,
    init: StrategyProfile | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    keep_trace: bool = False,
) -> FixedPointResult:
    """Run the synchronous update-and-normalize map until the profile stops
    moving (infinity norm <= tol) or the iteration budget runs out.

    Every agent's return is computed from the previous step's profile.
    Non-convergence is reported in the result, not raised.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    profile = StrategyProfile.uniform(model) if init is None else init
    validate_profile(model, profile)

    plan = model.plan
    p = stack(profile.dists, 0.0)
    steps: list[TraceStep] = []
    converged = False
    for t in range(1, max_iter + 1):
        log_returns = plan.log_returns(p)
        if not (log_returns < np.inf).all():
            raise DivergenceError(t, "non-finite expected return")
        new_p = normalize_policy(log_returns, alpha)
        change = float(np.abs(new_p - p).max())
        p = new_p
        if keep_trace:
            field = ExpectedReturnField(plan.rows(log_returns))
            steps.append(TraceStep(t, change, StrategyProfile(plan.rows(p)), field))
        if change <= tol:
            converged = True
            break

    return FixedPointResult(
        profile=StrategyProfile(plan.rows(p)),
        converged=converged,
        iterations=t,
        max_change=change,
        field=ExpectedReturnField(plan.rows(log_returns)),
        trace=IterationTrace(tuple(steps)) if keep_trace else None,
    )
