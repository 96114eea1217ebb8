"""Discrete-time compromise dynamics.

Each step computes every agent's expected return per own action, as the
expectation of exp(-E/hbar) (energy mode) or of the utility (utility mode)
over the other agents' current action distributions, then maps returns to
a new profile through the alpha-power normalization.  The returns come
from the model's contraction plan, so one update serves dense tables and
pairwise terms alike and nothing here asks which kind an agent holds.  All
accumulation runs in the log domain so small hbar and large alpha stay
finite.
"""

import math
from typing import NamedTuple

import numpy as np

from .model import GameModel, StrategyProfile, validate_profile
from .rng import SplitMix64, random_simplex

ALPHA_CAP = 1e6
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000


class DivergenceError(RuntimeError):
    """Iteration produced a non-finite quantity."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"diverged at step {step}: {detail}")
        self.step = step


class NonFiniteReturnError(RuntimeError):
    """An expected return of the agent in row `index` is +inf or NaN."""

    def __init__(self, index: int):
        super().__init__(f"index {index}: non-finite expected return")
        self.index = index


class AllZeroReturnsError(RuntimeError):
    """Every action of the agent in row `index` has zero expected return."""

    def __init__(self, index: int, name: str | None = None):
        who = f"index {index}" if name is None else repr(name)
        super().__init__(f"agent {who}: all expected returns are zero, distribution undefined")
        self.index = index


class ExpectedReturnField(NamedTuple):
    """Per-agent expected returns, kept as natural logs (-inf encodes zero)."""

    log_values: tuple[np.ndarray, ...]

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        return tuple(np.exp(lv) for lv in self.log_values)


class IterationTrace(NamedTuple):
    """The infinity-norm change of each map evaluation, step 1 first."""

    max_changes: tuple[float, ...]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("step,max_change\n")
            for step, change in enumerate(self.max_changes, 1):
                f.write(f"{step},{change!r}\n")


class FixedPointResult(NamedTuple):
    """Where the map stopped; `trace` holds every step's max_change, so it
    has `iterations` entries whatever the stop."""

    profile: StrategyProfile
    converged: bool
    iterations: int
    max_change: float
    field: ExpectedReturnField
    trace: IterationTrace
    cycle_period: int | None = None


def random_profile(model: GameModel, seed: int) -> StrategyProfile:
    """Seeded strictly-positive profile for sweep restarts."""
    stream = SplitMix64(seed)
    return StrategyProfile(
        tuple(random_simplex(c, stream) for c in model.agent_cardinalities())
    )


def expected_return_update(model: GameModel, profile: StrategyProfile) -> ExpectedReturnField:
    """Every agent's expected return per own action against the others'
    marginals, from the model's contraction plan, for dense tables and
    pairwise terms alike.

    The expectation of exp(-sum of pairwise terms / hbar) splits into a
    product of per-neighbor expectations because each neighbor appears in
    exactly one table; cost is linear in the number of terms.
    """
    plan = model.plan
    return ExpectedReturnField(plan.rows(plan.log_returns(validate_profile(model, profile))))


# one update serves every model; callers may import it under either name
expected_return_update_factorized = expected_return_update


def normalize_policy(log_returns: np.ndarray, alpha: float) -> np.ndarray:
    """Probabilities proportional to (expected return)**alpha, per agent.

    Maps log returns stacked one agent per row (padded with -inf) to
    probabilities stacked the same way (padded with 0).  Computed as
    exp(alpha * log psi - log Z) so large alpha cannot overflow; alpha is
    capped at 1e6 (the practical best-response limit).  The output keeps
    the input's memory order; on a column-major stack, as `stack` and the
    contraction plan lay them out, every per-agent reduction adds whole
    columns.  Raises NonFiniteReturnError naming the first row that holds
    +inf or NaN, or else AllZeroReturnsError naming the first row of -inf
    only; a finite maximum in every row rules out both.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    scaled = min(alpha, ALPHA_CAP) * log_returns
    top = scaled.max(axis=1)
    if not np.isfinite(top).all():
        below_inf = (log_returns < np.inf).all(axis=1)
        if not below_inf.all():
            raise NonFiniteReturnError(int(np.argmin(below_inf)))
        if (top == -np.inf).any():
            raise AllZeroReturnsError(int(np.argmax(top == -np.inf)))
    sums = np.exp(scaled - top[:, np.newaxis]).sum(axis=1)
    # math.log, not np.log: numpy's vectorized log rounds differently in
    # about 0.1% of inputs, which would move results' last bits.
    z = top + np.array(list(map(math.log, sums.tolist())))
    p = np.exp(scaled - z[:, np.newaxis])
    p /= p.sum(axis=1, keepdims=True)
    return p


def iterate_to_fixed_point(
    model: GameModel,
    alpha: float,
    init: StrategyProfile | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointResult:
    """Run the synchronous update-and-normalize map until the profile stops
    moving (infinity norm <= tol), the iteration budget runs out, or the
    profile returns bit for bit to an earlier state.

    Every agent's return is computed from the previous step's profile.
    Non-convergence is reported in the result, not raised.  The map is a
    function of the profile's bits, so once p_t equals an earlier p_s every
    later state and max_change repeats one of steps s+1..t, each of which
    was above tol: the run cannot converge and stops there, unconverged,
    with `iterations` the map evaluations made and `cycle_period` t - s.
    Repeats are found by Brent's power-of-two scheme (R. P. Brent, BIT 20
    (1980) 176): the states at steps 1, 2, 4, 8, ... are saved in turn and
    each step's state is compared with the last one saved.  The result's
    trace holds each evaluation's max_change, one per iteration.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite (got {tol})")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    plan = model.plan
    p = plan.uniform if init is None else validate_profile(model, init)
    changes: list[float] = []
    converged = False
    cycle_period = None
    saved, saved_at = None, 0
    for t in range(1, max_iter + 1):
        log_returns = plan.log_returns(p)
        try:
            new_p = normalize_policy(log_returns, alpha)
        except NonFiniteReturnError as e:
            # in an energy model only -E/hbar past the float range does this
            hint = f" at hbar={model.hbar!r}; use a larger hbar" if model.mode == "energy" else ""
            name = model.agents[e.index].name
            raise DivergenceError(t, f"agent {name!r}: non-finite expected return{hint}") from None
        except AllZeroReturnsError as e:
            raise AllZeroReturnsError(e.index, model.agents[e.index].name) from None
        change = float(np.abs(new_p - p).max())
        p = new_p
        changes.append(change)
        if change <= tol:
            converged = True
            break
        state = p.tobytes()
        if state == saved:
            cycle_period = t - saved_at
            break
        if t & (t - 1) == 0:
            saved, saved_at = state, t

    return FixedPointResult(
        profile=StrategyProfile(plan.rows(p)),
        converged=converged,
        iterations=t,
        max_change=change,
        field=ExpectedReturnField(plan.rows(log_returns)),
        trace=IterationTrace(tuple(changes)),
        cycle_period=cycle_period,
    )
