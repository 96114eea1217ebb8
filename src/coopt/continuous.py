"""Continuous-time dissipative dynamics.

A unit wavefunction per agent evolves under d(psi)/dt = -(H psi)/hbar with
renormalization after every step, so the effective flow damps components
above the current Rayleigh quotient and its fixed points are exactly the
eigenvectors of H.  The coupled variant rebuilds each agent's diagonal
operator from the other agents' squared amplitudes at every step; the
linear variant evolves one vector under a fixed symmetric operator and,
with deflation, climbs the spectrum one state at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameModel, PairwiseEnergy, stack
from .numerics import DenseSymmetric, Diagonal, EigenDecomposition, HermitianOperator, rk4_step
from .rng import random_unit_vector

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


@dataclass(frozen=True)
class WaveState:
    """Per-agent real amplitude vectors, each of unit Euclidean norm."""

    amplitudes: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", tuple(np.asarray(a, dtype=float) for a in self.amplitudes)
        )

    @classmethod
    def uniform(cls, model: GameModel) -> "WaveState":
        return cls(
            tuple(np.full(c, 1.0 / math.sqrt(c)) for c in model.agent_cardinalities())
        )


@dataclass(frozen=True)
class StationaryState:
    rayleigh: float
    residual: float
    matched_index: int | None = None


@dataclass(frozen=True)
class StationaryReport:
    states: tuple[StationaryState, ...]
    time: float
    converged: bool


@dataclass(frozen=True)
class TrajectoryPoint:
    time: float
    amplitudes: tuple[np.ndarray, ...]
    rayleigh: tuple[float, ...]
    residual: tuple[float, ...]


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{what} must have unit norm (got {norm})")
    return v / norm


def _decay(operator: HermitianOperator, hbar: float):
    factor = -1.0 / hbar
    return lambda y: operator.matvec(y) * factor


def _norm(v: np.ndarray) -> float:
    # the same dot product and square root numpy's norm takes on a 1-D vector
    return math.sqrt(float(v @ v))


def _renormalized(v: np.ndarray, step: int) -> np.ndarray:
    norm = _norm(v)  # non-finite when any entry is
    if not math.isfinite(norm) or norm == 0.0:
        raise EvolutionError(f"non-finite state after step {step}")
    return v / norm


def _default_dt(scale: float, hbar: float) -> float:
    return DEFAULT_STEP_TIMES * hbar / (scale if scale > 0 else 1.0)


def default_step(operator: HermitianOperator, hbar: float = 1.0) -> float:
    """Default integrator step: 0.99 * RK4_MONOTONE_LIMIT * hbar / scale(H).

    Below RK4_MONOTONE_LIMIT * hbar / scale(H) every eigencomponent's RK4
    factor is positive and decreasing in its eigenvalue, so the flow still
    converges to the lowest eigenvector; a smaller step tracks the exact
    flow exp(-tH/hbar) psi0 more closely along the way.
    """
    return _default_dt(operator.scale(), hbar)


def _accepted(dt: float, scale: float, hbar: float) -> bool:
    return dt * scale / hbar < RK4_MONOTONE_LIMIT


def largest_step(scale: float, hbar: float = 1.0) -> float:
    """The largest float dt that evolve_linear and evolve_coupled accept
    for an operator of the given scale (inf when scale is 0)."""
    if not scale > 0:
        return math.inf
    dt = RK4_MONOTONE_LIMIT * hbar / scale
    while dt > 0 and not _accepted(dt, scale, hbar):
        dt = math.nextafter(dt, 0.0)
    while _accepted(math.nextafter(dt, math.inf), scale, hbar):
        dt = math.nextafter(dt, math.inf)
    return dt


def _check_dt(dt: float, scale: float, hbar: float) -> None:
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not _accepted(dt, scale, hbar):
        raise ValueError(
            f"dt={dt} is not below the RK4 monotone limit {RK4_MONOTONE_LIMIT:.4f} "
            f"times the characteristic time {hbar / scale if scale else math.inf}; "
            f"the largest accepted step is {largest_step(scale, hbar)!r}"
        )


def _step_count(t_max: float, dt: float) -> int:
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_max={t_max} / dt={dt} is not a finite number of steps")
    return max(1, math.ceil(steps))


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
    weights, so a pairwise agent's are bounded by the sum over its tables
    of max|table| and a dense agent's by max|values|.
    """
    bounds = []
    for agent in model.agents:
        obj = agent.objective
        if isinstance(obj, PairwiseEnergy):
            bounds.append(sum(float(np.abs(table).max()) for _, table in obj.terms))
        else:
            bounds.append(float(np.abs(obj.values).max()))
    return max(bounds)


def stationarity_check(operator: HermitianOperator, psi: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient and eigen-residual norm ||H psi - lambda psi||."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (operator.dimension,):
        raise ValueError(
            f"state of length {psi.size} does not match operator dimension {operator.dimension}"
        )
    psi = _unit(psi, "psi")
    h_psi = operator.matvec(psi)
    rayleigh = float(psi @ h_psi)
    residual = float(np.linalg.norm(h_psi - rayleigh * psi))
    return rayleigh, residual


def evolve_linear(
    operator: HermitianOperator,
    psi0: np.ndarray,
    dt: float | None = None,
    t_max: float = DEFAULT_T_MAX,
    tol: float = DEFAULT_STATIONARY_TOL,
    hbar: float = 1.0,
    deflate: tuple[np.ndarray, ...] = (),
    record_every: int | None = None,
) -> tuple[list[TrajectoryPoint], StationaryReport]:
    """Evolve one unit vector under a fixed operator until stationary.

    Stops when ||H psi - lambda psi|| <= tol (projected out of the deflated
    subspace when `deflate` vectors are given) or when t_max is reached.
    The default step is 0.99 * RK4_MONOTONE_LIMIT * hbar / scale(H) (see
    default_step); any dt with dt * scale(H) / hbar < RK4_MONOTONE_LIMIT =
    1.5961 is accepted, and steps at or past it are rejected.
    """
    if not (hbar > 0 and tol > 0 and t_max > 0):
        raise ValueError("hbar, tol and t_max must be positive")
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

    scale = operator.scale()
    if dt is None:
        dt = _default_dt(scale, hbar)
    _check_dt(dt, scale, hbar)
    max_steps = _step_count(t_max, dt)
    if record_every is None:
        record_every = max(1, max_steps // _TRAJECTORY_POINTS)

    derivative = _decay(operator, hbar)
    points: list[TrajectoryPoint] = []
    step = 0
    converged = False
    while True:
        t = step * dt
        h_psi = operator.matvec(psi)
        rayleigh = float(psi @ h_psi)
        r = h_psi - rayleigh * psi
        if basis is not None:
            r = r - basis @ (basis.T @ r)
        residual = _norm(r)
        recorded = step % record_every == 0
        if recorded:
            points.append(TrajectoryPoint(t, (psi.copy(),), (rayleigh,), (residual,)))
        if residual <= tol:
            converged = True
            break
        if step >= max_steps:
            break
        psi = rk4_step(derivative, psi, dt, k1=h_psi * (-1.0 / hbar))
        if basis is not None:
            psi = psi - basis @ (basis.T @ psi)
        psi = _renormalized(psi, step + 1)
        step += 1
    if not recorded:
        points.append(TrajectoryPoint(t, (psi.copy(),), (rayleigh,), (residual,)))

    report = StationaryReport(
        states=(StationaryState(rayleigh, residual),), time=t, converged=converged
    )
    return points, report


def lowest_states(
    operator: HermitianOperator,
    count: int,
    psi0: np.ndarray,
    dt: float | None = None,
    t_max: float = DEFAULT_T_MAX,
    tol: float = DEFAULT_STATIONARY_TOL,
    hbar: float = 1.0,
    seed: int = 0,
    record_every: int | None = None,
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
            operator, start, dt=dt, t_max=t_max, tol=tol, hbar=hbar,
            deflate=tuple(found), record_every=record_every,
        )
        psi = points[-1].amplitudes[0]
        found.append(psi)
        results.append((points, report, psi))
    return results


def evolve_coupled(
    model: GameModel,
    state0: WaveState | None = None,
    dt: float | None = None,
    t_max: float = DEFAULT_T_MAX,
    tol: float = DEFAULT_STATIONARY_TOL,
    record_every: int | None = None,
) -> tuple[list[TrajectoryPoint], StationaryReport]:
    """Evolve all agents together, rebuilding every effective operator from
    the same state snapshot each step.

    Stops when every agent's residual against its current effective
    operator is <= tol, or at t_max.  The step is sized and checked against
    coupled_scale(model), which bounds the effective operators over the
    whole run.  Reduces exactly to evolve_linear when the model has a
    single agent.
    """
    if not (tol > 0 and t_max > 0):
        raise ValueError("tol and t_max must be positive")
    _require_energy(model)
    hbar = model.hbar
    plan = model.plan
    state = WaveState.uniform(model) if state0 is None else state0
    if [a.size for a in state.amplitudes] != plan.cards:
        raise ValueError("initial state does not match the agents' cardinalities")
    amplitudes = stack([_unit(a, f"psi[{i}]") for i, a in enumerate(state.amplitudes)], 0.0)

    scale = coupled_scale(model)
    if dt is None:
        dt = _default_dt(scale, hbar)
    _check_dt(dt, scale, hbar)
    max_steps = _step_count(t_max, dt)
    if record_every is None:
        record_every = max(1, max_steps // _TRAJECTORY_POINTS)

    points: list[TrajectoryPoint] = []
    step = 0
    converged = False
    while True:
        t = step * dt
        energies = plan.expectations(amplitudes * amplitudes)
        h_psi = energies * amplitudes
        rayleighs = (amplitudes * h_psi).sum(axis=1)
        residuals = np.linalg.norm(h_psi - rayleighs[:, np.newaxis] * amplitudes, axis=1)
        recorded = step % record_every == 0
        if recorded:
            points.append(TrajectoryPoint(
                t, plan.rows(amplitudes), tuple(rayleighs.tolist()), tuple(residuals.tolist())
            ))
        if residuals.max() <= tol:
            converged = True
            break
        if step >= max_steps:
            break
        stepped = np.zeros_like(amplitudes)
        slopes = plan.rows(h_psi * (-1.0 / hbar))
        for i, (h, psi) in enumerate(zip(plan.rows(energies), plan.rows(amplitudes))):
            stepped[i, : psi.size] = _renormalized(
                rk4_step(_decay(Diagonal(h), hbar), psi, dt, k1=slopes[i]), step + 1
            )
        amplitudes = stepped
        step += 1
    if not recorded:
        points.append(TrajectoryPoint(
            t, plan.rows(amplitudes), tuple(rayleighs.tolist()), tuple(residuals.tolist())
        ))

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
    with open(path, "w") as f:
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
