"""Continuous-time dissipative dynamics.

A unit wavefunction per agent evolves under d(psi)/dt = -(H psi)/hbar with
renormalization after every step, so the effective flow damps components
above the current Rayleigh quotient and its fixed points are exactly the
eigenvectors of H.  The coupled variant rebuilds each agent's diagonal
operator from the other agents' squared amplitudes at every step; the
linear variant evolves one vector under a fixed symmetric operator and,
with deflation, climbs the spectrum one state at a time.
"""

import math
import struct
import sys
from typing import NamedTuple

import numpy as np

from .model import GameModel, stack
from .numerics import DenseSymmetric, Diagonal, EigenDecomposition, HermitianOperator, rk4_step
from .numerics import Frozen
from .rng import random_unit_vector

# The default horizon, in units of hbar: the flow's time scale is
# hbar / scale(H), so the horizon grows with hbar as the default step does.
DEFAULT_T_MAX = 1000.0
DEFAULT_STATIONARY_TOL = 1e-8
# Renormalized RK4 multiplies each eigencomponent of H by R(-dt*lambda/hbar),
# R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  R is positive everywhere and
# increasing above the one real root of R'(z) = 1 + z + z^2/2 + z^3/6, so
# while dt * scale(H) / hbar stays below RK4_MONOTONE_LIMIT = -root, lower
# eigenvalues are amplified more and the flow converges to the lowest
# eigenvector.  With z = y - 1, 6 R'(z) = 0 becomes y^3 + 3y + 2 = 0, whose
# real root by Cardano's formula gives the limit 1.5961 in closed form.
# RK4's stability boundary, where R returns to 1, lies further out near
# -2.785, but past the monotone limit R decreases and higher eigenvalues can
# outgrow lower ones, so stability alone would not select the lowest state.
RK4_MONOTONE_LIMIT = 1.0 + (math.sqrt(2.0) + 1.0) ** (1 / 3) - (math.sqrt(2.0) - 1.0) ** (1 / 3)
# The default step, in characteristic times hbar / scale(H), sits 1% inside
# the monotone limit.  scale(H) is a max-abs-row-sum bound on |lambda|, so
# every mode has dt * |lambda| / hbar < 0.99 * 1.5961, and the 1% covers the
# rounding of scale and of dt * scale many orders of magnitude over.  The
# coupled flow freezes each agent's diagonal operator within a step and
# coupled_scale bounds them all, so the same holds step by step there.
# Any dt with dt * scale / hbar < RK4_MONOTONE_LIMIT is accepted.
DEFAULT_STEP_TIMES = 0.99 * RK4_MONOTONE_LIMIT
_TRAJECTORY_POINTS = 1000


class EvolutionError(RuntimeError):
    """Non-finite state encountered during evolution."""


class WaveState(Frozen):
    """Per-agent real amplitude vectors, each of unit Euclidean norm."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        object.__setattr__(self, "amplitudes", tuple(np.asarray(a, dtype=float) for a in amplitudes))

    @classmethod
    def uniform(cls, model: GameModel) -> "WaveState":
        return cls(
            tuple(np.full(c, 1.0 / math.sqrt(c)) for c in model.agent_cardinalities())
        )


class StationaryState(NamedTuple):
    rayleigh: float
    residual: float
    matched_index: int | None = None


class StationaryReport(NamedTuple):
    states: tuple[StationaryState, ...]
    time: float
    converged: bool


class TrajectoryPoint(NamedTuple):
    time: float
    amplitudes: tuple[np.ndarray, ...]
    rayleigh: tuple[float, ...]
    residual: tuple[float, ...]


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{what} must have unit norm (got {norm})")
    return v / norm


def _norm(v: np.ndarray) -> float:
    # the same dot product and square root numpy's norm takes on a 1-D vector
    return math.sqrt(float(v @ v))


def _renormalized(v: np.ndarray, step: int) -> np.ndarray:
    norm = _norm(v)  # non-finite when any entry is
    if not math.isfinite(norm) or norm == 0.0:
        raise EvolutionError(f"non-finite state after step {step}")
    return v / norm


def _check_range(scale: float, hbar: float) -> None:
    if not (math.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive and finite (got {hbar})")
    if not math.isfinite(scale):
        raise ValueError(f"the operator's scale {scale} is past the float range")


def _default_dt(scale: float, hbar: float) -> float:
    scale = scale if scale > 0 else 1.0
    dt = DEFAULT_STEP_TIMES * hbar / scale
    # The product overflows for hbar above about 1.1e308; only then is the
    # quotient taken first, so every other hbar keeps the same bits.
    return dt if math.isfinite(dt) else DEFAULT_STEP_TIMES * (hbar / scale)


def default_step(operator: HermitianOperator, hbar: float = 1.0) -> float:
    """Default integrator step: 0.99 * RK4_MONOTONE_LIMIT * hbar / scale(H).

    Below RK4_MONOTONE_LIMIT * hbar / scale(H) every eigencomponent's RK4
    factor is positive and decreasing in its eigenvalue, so the flow still
    converges to the lowest eigenvector; a smaller step tracks the exact
    flow exp(-tH/hbar) psi0 more closely along the way.  Raises
    ValueError, as the flows do, for an hbar that is not positive and
    finite or an operator whose scale is past the float range.
    """
    scale = operator.scale()
    _check_range(scale, hbar)
    return _default_dt(scale, hbar)


def _accepted(dt: float, scale: float, hbar: float) -> bool:
    # dt / hbar is the size of the step RK4 takes on H; it is monotone in dt
    # and overflows only where that step does.
    return dt / hbar * scale < RK4_MONOTONE_LIMIT


def largest_step(scale: float, hbar: float = 1.0) -> float:
    """The largest float dt that evolve_linear and evolve_coupled accept
    for an operator of the given scale."""
    # Non-negative floats are ordered as their bit patterns, so bisecting
    # those of 0.0 (accepted) and inf (never) takes at most 63 tests.
    lo, hi = 0, 0x7FF0000000000000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _accepted(_float(mid), scale, hbar) else (lo, mid)
    return _float(lo)


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _schedule(
    scale: float, hbar: float, dt: float | None, t_max: float | None, tol: float,
    record_every: int | None,
) -> tuple[float, int, int]:
    """(dt, max_steps, record_every) of a flow whose operators are bounded
    by scale, once its stopping tol is checked: dt defaults to 0.99 *
    RK4_MONOTONE_LIMIT * hbar / scale and must stay below the limit; t_max
    defaults to DEFAULT_T_MAX * hbar, or the largest float where that
    overflows; the default record_every spaces about 1000 points over
    max_steps.  The last step's time, max_steps * dt, stays a float."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite (got {tol})")
    _check_range(scale, hbar)
    if t_max is None:
        t_max = min(DEFAULT_T_MAX * hbar, sys.float_info.max)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if dt is None:
        dt = _default_dt(scale, hbar)
    if not dt / hbar > 0:
        raise ValueError(f"dt must be positive, and dt / hbar nonzero (got dt={dt}, hbar={hbar})")
    if not _accepted(dt, scale, hbar):
        raise ValueError(
            f"dt={dt} is not below the RK4 monotone limit {RK4_MONOTONE_LIMIT:.4f} "
            f"times the characteristic time {hbar / scale if scale else math.inf}; "
            f"the largest accepted step is {largest_step(scale, hbar)!r}"
        )
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_max={t_max} / dt={dt} is not a finite number of steps")
    max_steps = max(1, math.ceil(steps))
    if not math.isfinite(max_steps * dt):  # t_max within a step of the float range
        max_steps -= 1
    if record_every is None:
        return dt, max_steps, max(1, max_steps // _TRAJECTORY_POINTS)
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1 (got {record_every})")
    return dt, max_steps, record_every


def _orthonormalize(vectors) -> np.ndarray | None:
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=float).copy()
        for b in basis:
            w -= (b @ w) * b
        norm = float(np.linalg.norm(w))
        if norm > 1e-10:
            basis.append(w / norm)
    return np.column_stack(basis) if basis else None


def _require_energy(model: GameModel) -> None:
    if model.mode != "energy":
        raise ValueError("effective Hamiltonians are defined for energy-mode models")


def effective_hamiltonian(model: GameModel, state: WaveState, index: int) -> Diagonal:
    """Diagonal operator of per-action energy expectations for one agent,
    taken over the other agents' squared amplitudes."""
    _require_energy(model)
    amplitudes = stack(state.amplitudes, 0.0)
    return Diagonal(model.plan.rows(model.plan.expectations(amplitudes * amplitudes))[index])


def coupled_scale(model: GameModel) -> float:
    """Bound on scale() of every agent's effective Hamiltonian at any state.

    The entries are expectations of the agent's energies under unit-norm
    weights, so an agent's are bounded by the sum over its edge tables of
    max|table|, added in term order, and a dense agent's by max|table|.
    """
    plan = model.plan
    # padding is 0, below every |entry|; _schedule refuses an infinite bound
    per_edge = np.abs(plan.edges).max(axis=(1, 2))
    bounds = np.bincount(plan.owner, per_edge, len(plan.cards)).astype(float)
    for i, _, table, _ in plan.dense:
        bounds[i] = np.abs(table).max()
    return float(bounds.max())


def evolve_linear(
    operator: HermitianOperator,
    psi0: np.ndarray,
    dt: float | None = None,
    t_max: float | None = None,
    tol: float = DEFAULT_STATIONARY_TOL,
    hbar: float = 1.0,
    deflate: tuple[np.ndarray, ...] = (),
    record_every: int | None = None,
) -> tuple[list[TrajectoryPoint], StationaryReport]:
    """Evolve one unit vector under a fixed operator until stationary.

    Stops when ||H psi - lambda psi|| <= tol (projected out of the deflated
    subspace when `deflate` vectors are given) or when t_max (by default
    DEFAULT_T_MAX * hbar) is reached.
    The default step is 0.99 * RK4_MONOTONE_LIMIT * hbar / scale(H) (see
    default_step); any dt with dt * scale(H) / hbar < RK4_MONOTONE_LIMIT =
    1.5961 is accepted, and steps at or past it are rejected.
    """
    dt, max_steps, record_every = _schedule(operator.scale(), hbar, dt, t_max, tol, record_every)
    psi = np.asarray(psi0, dtype=float)
    if psi.shape != (operator.dimension,):
        raise ValueError("initial state does not match the operator dimension")
    psi = _unit(psi, "psi0")

    basis = _orthonormalize(deflate)
    if basis is not None:
        psi = psi - basis @ (basis.T @ psi)
        norm = float(np.linalg.norm(psi))
        if norm < 1e-8:
            raise ValueError("initial state lies in the deflated subspace")
        psi = psi / norm

    # d(psi)/dt = -(H psi)/hbar is a step of -dt/hbar on H itself
    step_size = -dt / hbar
    points: list[TrajectoryPoint] = []
    step = 0
    while True:
        t = step * dt
        h_psi = operator.matvec(psi)
        rayleigh = float(psi @ h_psi)
        r = h_psi - rayleigh * psi
        if basis is not None:
            r = r - basis @ (basis.T @ r)
        residual = _norm(r)
        converged = residual <= tol
        done = converged or step >= max_steps
        if done or step % record_every == 0:
            points.append(TrajectoryPoint(t, (psi.copy(),), (rayleigh,), (residual,)))
        if done:
            break
        psi = rk4_step(operator.matvec, psi, step_size, k1=h_psi)
        if basis is not None:
            psi = psi - basis @ (basis.T @ psi)
        psi = _renormalized(psi, step + 1)
        step += 1

    report = StationaryReport(
        states=(StationaryState(rayleigh, residual),), time=t, converged=converged
    )
    return points, report


def lowest_states(
    operator: HermitianOperator,
    count: int,
    psi0: np.ndarray,
    dt: float | None = None,
    t_max: float | None = None,
    tol: float = DEFAULT_STATIONARY_TOL,
    hbar: float = 1.0,
    seed: int = 0,
) -> list[tuple[list[TrajectoryPoint], StationaryReport, np.ndarray]]:
    """Ground state plus the next count-1 states via repeated deflation.

    Each later run starts from psi0 projected out of the states found so
    far, falling back to a seeded random direction when psi0 lies inside
    their span.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > operator.dimension:
        raise ValueError(
            f"cannot extract {count} states from a dimension-{operator.dimension} operator"
        )
    found: list[np.ndarray] = []
    results = []
    for k in range(count):
        start = np.asarray(psi0, dtype=float)
        basis = _orthonormalize(found)
        if basis is not None:
            projected = start - basis @ (basis.T @ start)
            if float(np.linalg.norm(projected)) < 1e-8:
                start = random_unit_vector(operator.dimension, seed + k)
        start = start / float(np.linalg.norm(start))
        points, report = evolve_linear(
            operator, start, dt=dt, t_max=t_max, tol=tol, hbar=hbar, deflate=tuple(found)
        )
        psi = points[-1].amplitudes[0]
        found.append(psi)
        results.append((points, report, psi))
    return results


def evolve_coupled(
    model: GameModel,
    state0: WaveState | None = None,
    dt: float | None = None,
    t_max: float | None = None,
    tol: float = DEFAULT_STATIONARY_TOL,
    record_every: int | None = None,
) -> tuple[list[TrajectoryPoint], StationaryReport]:
    """Evolve all agents together, rebuilding every effective operator from
    the same state snapshot each step.

    Stops when every agent's residual against its current effective
    operator is <= tol, or at t_max (by default DEFAULT_T_MAX times the
    model's hbar).  The step is sized and checked against
    coupled_scale(model), which bounds the effective operators over the
    whole run.  Reduces exactly to evolve_linear when the model has a
    single agent.
    """
    _require_energy(model)
    hbar = model.hbar
    plan = model.plan
    state = WaveState.uniform(model) if state0 is None else state0
    if tuple(a.size for a in state.amplitudes) != plan.cards:
        raise ValueError("initial state does not match the agents' cardinalities")
    amplitudes = stack([_unit(a, f"psi[{i}]") for i, a in enumerate(state.amplitudes)], 0.0)

    dt, max_steps, record_every = _schedule(
        coupled_scale(model), hbar, dt, t_max, tol, record_every
    )
    step_size = -dt / hbar
    points: list[TrajectoryPoint] = []
    step = 0
    while True:
        t = step * dt
        energies = plan.expectations(amplitudes * amplitudes)
        h_psi = energies * amplitudes
        rayleighs = (amplitudes * h_psi).sum(axis=1)
        residuals = np.linalg.norm(h_psi - rayleighs[:, np.newaxis] * amplitudes, axis=1)
        converged = bool(residuals.max() <= tol)
        done = converged or step >= max_steps
        if done or step % record_every == 0:
            points.append(TrajectoryPoint(
                t, plan.rows(amplitudes), tuple(rayleighs.tolist()), tuple(residuals.tolist())
            ))
        if done:
            break
        stepped = np.zeros_like(amplitudes)
        slopes, rates = plan.rows(h_psi), plan.rows(energies)
        for i, psi in enumerate(plan.rows(amplitudes)):
            # the agent's frozen diagonal operator y -> rates[i] * y
            stepped[i, : psi.size] = _renormalized(
                rk4_step(rates[i].__mul__, psi, step_size, k1=slopes[i]), step + 1
            )
        amplitudes = stepped
        step += 1

    states = zip(rayleighs.tolist(), residuals.tolist())
    report = StationaryReport(
        states=tuple(StationaryState(l, r) for l, r in states),
        time=t,
        converged=converged,
    )
    return points, report


def build_grid_hamiltonian(
    xmin: float, xmax: float, n_points: int, potential
) -> DenseSymmetric:
    """Second-order central-difference kinetic term -(1/2) d2/dx2 with
    Dirichlet boundaries, plus the given potential on the diagonal."""
    if n_points < 3:
        raise ValueError("grid needs at least 3 points")
    if not xmax > xmin:
        raise ValueError("xmax must exceed xmin")
    v = np.asarray(potential, dtype=float).ravel()
    if v.size != n_points:
        raise ValueError(f"potential has {v.size} values for {n_points} grid points")
    h = (xmax - xmin) / (n_points - 1)
    if not 1e-154 < h < 1e154:
        raise ValueError(f"spacing {h:g} leaves h**2 or 1/h**2 past the float range")
    matrix = np.zeros((n_points, n_points))
    np.fill_diagonal(matrix, 1.0 / h**2 + v)
    off = -1.0 / (2.0 * h**2)
    idx = np.arange(n_points - 1)
    matrix[idx, idx + 1] = off
    matrix[idx + 1, idx] = off
    return DenseSymmetric(matrix)


def match_eigenvalue(
    value: float, decomposition: EigenDecomposition, tol: float = 1e-6
) -> int | None:
    """Index of the eigenvalue within tol of value, or None."""
    diffs = np.abs(decomposition.eigenvalues - value)
    index = int(np.argmin(diffs))
    return index if diffs[index] <= tol else None


TRAJECTORY_HEADER = "t,agent,action,psi,lambda,residual"


def write_trajectory_csv(path, sections) -> None:
    """Long-format trajectory CSV; sections is an iterable of
    (points, labels) pairs written under one header."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        for points, labels in sections:
            for point in points:
                time = repr(float(point.time))
                for label, psi, lam, resid in zip(
                    labels, point.amplitudes, point.rayleigh, point.residual
                ):
                    head, tail = f"{time},{label},", f",{float(lam)!r},{float(resid)!r}\n"
                    # tolist() gives Python floats: the same repr as float(psi[a])
                    rows = [f"{head}{a},{x!r}{tail}" for a, x in enumerate(psi.tolist())]
                    f.write("".join(rows))
