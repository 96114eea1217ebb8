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
import sys
from typing import NamedTuple

import numpy as np

from .model import GameModel, stack
from .numerics import DenseSymmetric, Diagonal, EigenDecomposition, HermitianOperator, rk4_step
from .numerics import Frozen
from .rng import random_unit_vector

# The default horizon, in units of hbar: the flow's time scale is
# hbar / half-width, so the horizon grows with hbar as the default step does.
DEFAULT_T_MAX = 1000.0
DEFAULT_STATIONARY_TOL = 1e-8
# The renormalized flow on H - sigma I is the flow on H, since the factor
# e^(sigma t) cancels in the norm, so the linear flow steps on H - sigma I
# with sigma the centre of the interval [lo, hi] holding H's spectrum and
# w = (hi - lo) / 2 its half-width; the coupled flow steps on H itself, and
# coupled_scale bounds |lambda| there, the half-width of an interval centred
# on 0.  Renormalized RK4 multiplies each eigencomponent by
# R(-dt*(lambda - sigma)/hbar), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  R is
# positive everywhere and increasing above the one real root of
# R'(z) = 1 + z + z^2/2 + z^3/6, so while dt * w / hbar stays below
# RK4_MONOTONE_LIMIT = -root, lower eigenvalues are amplified more and the
# flow converges to the lowest eigenvector.  With z = y - 1, 6 R'(z) = 0
# becomes y^3 + 3y + 2 = 0, whose real root by Cardano's formula gives the
# limit 1.5961 in closed form.  RK4's stability boundary, where R returns to
# 1, lies further out near -2.785, but past the monotone limit R decreases
# and higher eigenvalues can outgrow lower ones, so stability alone would
# not select the lowest state.
RK4_MONOTONE_LIMIT = 1.0 + (math.sqrt(2.0) + 1.0) ** (1 / 3) - (math.sqrt(2.0) - 1.0) ** (1 / 3)
# The default step, in characteristic times hbar / w, sits 1% inside the
# monotone limit.  Every mode has |lambda - sigma| <= w, so
# dt * |lambda - sigma| / hbar < 0.99 * 1.5961, and the 1% covers the
# rounding of w, sigma and dt * w many orders of magnitude over.  The
# coupled flow freezes each agent's diagonal operator within a step and
# coupled_scale bounds them all, so the same holds step by step there.
# Any dt with dt * w / hbar < RK4_MONOTONE_LIMIT is accepted; w is at most
# the largest absolute row sum, so every step that bound admits is too.
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


def _check_range(half_width: float, hbar: float) -> None:
    if not (math.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive and finite (got {hbar})")
    if not math.isfinite(half_width):
        raise ValueError(f"the operator's scale {half_width} is past the float range")


def _default_dt(half_width: float, hbar: float) -> float:
    half_width = half_width if half_width > 0 else 1.0
    dt = DEFAULT_STEP_TIMES * hbar / half_width
    # The product overflows for hbar above about 1.1e308; only then is the
    # quotient taken first, so every other hbar keeps the same bits.
    return dt if math.isfinite(dt) else DEFAULT_STEP_TIMES * (hbar / half_width)


def _centre(operator: HermitianOperator) -> tuple[float, float]:
    """(sigma, w): the centre and half-width of operator.interval(), each
    end halved first so that neither overflows."""
    lo, hi = operator.interval()
    return 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo


def default_step(operator: HermitianOperator, hbar: float = 1.0) -> float:
    """Default integrator step: 0.99 * RK4_MONOTONE_LIMIT * hbar / w, with
    w the half-width of operator.interval().

    evolve_linear steps on H - sigma I, sigma the interval's centre, so
    below RK4_MONOTONE_LIMIT * hbar / w every eigencomponent's RK4 factor
    is positive and decreasing in its eigenvalue, and the flow still
    converges to the lowest eigenvector; a smaller step tracks the exact
    flow exp(-tH/hbar) psi0 more closely along the way.  Raises
    ValueError, as the flows do, for an hbar that is not positive and
    finite or an operator whose half-width is past the float range.
    """
    half_width = _centre(operator)[1]
    _check_range(half_width, hbar)
    return _default_dt(half_width, hbar)


def _schedule(
    half_width: float, hbar: float, dt: float | None, t_max: float | None, tol: float,
    record_every: int | None,
) -> tuple[float, int, int]:
    """(dt, max_steps, record_every) of a flow whose operators' spectra lie
    within half_width of the centre it steps about, once its stopping tol
    is checked: dt defaults to 0.99 * RK4_MONOTONE_LIMIT * hbar /
    half_width and must stay below the limit; t_max defaults to
    DEFAULT_T_MAX * hbar, or the largest float where that overflows; the
    default record_every spaces about 1000 points over max_steps.  The
    last step's time, max_steps * dt, stays a float."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite (got {tol})")
    _check_range(half_width, hbar)
    if t_max is None:
        t_max = min(DEFAULT_T_MAX * hbar, sys.float_info.max)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if dt is None:
        dt = _default_dt(half_width, hbar)
    if not dt / hbar > 0:
        raise ValueError(f"dt must be positive, and dt / hbar nonzero (got dt={dt}, hbar={hbar})")
    # dt / hbar is the size of the step RK4 takes on the operator; it is
    # monotone in dt and overflows only where that step does.
    if not dt / hbar * half_width < RK4_MONOTONE_LIMIT:
        raise ValueError(
            f"dt={dt} is not below the RK4 monotone limit {RK4_MONOTONE_LIMIT:.4f} "
            f"times the characteristic time hbar / half-width "
            f"{hbar / half_width if half_width else math.inf}"
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
    """Bound on |entry| of every agent's effective Hamiltonian at any state,
    the half-width about 0 that evolve_coupled's step is sized from.

    The entries are expectations of the agent's energies under unit-norm
    weights, so an agent's are bounded by the sum over its tables of
    max|table|, added in the plan's table order; a dense agent has one.
    """
    plan = model.plan
    owner = [np.zeros(0, np.intp)] + [group.owner for group in plan.groups]
    largest = [np.zeros(0)] + [abs(g.tables).reshape(g.owner.size, -1).max(1) for g in plan.groups]
    # _schedule refuses an infinite bound
    return float(np.bincount(np.concatenate(owner), np.concatenate(largest), len(plan.cards)).max())


def evolve_linear(
    operator: HermitianOperator,
    psi0: np.ndarray,
    dt: float | None = None,
    t_max: float | None = None,
    tol: float = DEFAULT_STATIONARY_TOL,
    hbar: float = 1.0,
    deflate: tuple[np.ndarray, ...] = (),
    record_every: int | None = None,
) -> tuple[list[TrajectoryPoint], bool]:
    """Evolve one unit vector under a fixed operator until stationary.

    Stops when ||H psi - lambda psi|| <= tol (projected out of the deflated
    subspace when `deflate` vectors are given) or when t_max (by default
    DEFAULT_T_MAX * hbar) is reached.  Returns (points, converged): the
    stop is always recorded, so points[-1] is the stationary state.
    The flow steps on H - sigma I, with sigma the centre and w the
    half-width of operator.interval(): the same renormalized flow, whose
    residual is the same and whose Rayleigh quotient is sigma less.  The
    default step is 0.99 * RK4_MONOTONE_LIMIT * hbar / w (see
    default_step); any dt with dt * w / hbar < RK4_MONOTONE_LIMIT = 1.5961
    is accepted, and steps at or past it are rejected.
    """
    sigma, half_width = _centre(operator)
    dt, max_steps, record_every = _schedule(half_width, hbar, dt, t_max, tol, record_every)
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

    def shifted(v: np.ndarray) -> np.ndarray:
        # (H - sigma I) v, with no shifted copy of H
        out = operator.matvec(v)
        out -= sigma * v
        return out

    # d(psi)/dt = -((H - sigma I) psi)/hbar is a step of -dt/hbar on H - sigma I
    step_size = -dt / hbar
    points: list[TrajectoryPoint] = []
    step = 0
    while True:
        t = step * dt
        h_psi = shifted(psi)
        centred = float(psi @ h_psi)
        rayleigh = centred + sigma
        r = h_psi - centred * psi
        if basis is not None:
            r = r - basis @ (basis.T @ r)
        residual = _norm(r)
        converged = residual <= tol
        done = converged or step >= max_steps
        if done or step % record_every == 0:
            points.append(TrajectoryPoint(t, (psi,), (rayleigh,), (residual,)))
        if done:
            return points, converged
        psi = rk4_step(shifted, psi, step_size, k1=h_psi)
        if basis is not None:
            psi = psi - basis @ (basis.T @ psi)
        psi = _renormalized(psi, step + 1)  # a new array: the points keep theirs
        step += 1


def lowest_states(
    operator: HermitianOperator,
    count: int,
    psi0: np.ndarray,
    dt: float | None = None,
    t_max: float | None = None,
    tol: float = DEFAULT_STATIONARY_TOL,
    hbar: float = 1.0,
    seed: int = 0,
) -> list[tuple[list[TrajectoryPoint], bool]]:
    """Ground state plus the next count-1 states via repeated deflation:
    one evolve_linear (points, converged) pair per state.

    State 0 starts from psi0 and state k >= 1 from the seed + k random unit
    vector, which no symmetry of psi0 confines; evolve_linear projects each
    start off the last points of the states found so far.  State 0 never
    depends on count.
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
        start = psi0 if k == 0 else random_unit_vector(operator.dimension, seed + k)
        start = np.asarray(start, dtype=float)
        start = start / float(np.linalg.norm(start))
        points, converged = evolve_linear(
            operator, start, dt=dt, t_max=t_max, tol=tol, hbar=hbar, deflate=tuple(found)
        )
        found.append(points[-1].amplitudes[0])
        results.append((points, converged))
    return results


def evolve_coupled(
    model: GameModel,
    state0: WaveState | None = None,
    dt: float | None = None,
    t_max: float | None = None,
    tol: float = DEFAULT_STATIONARY_TOL,
    record_every: int | None = None,
) -> tuple[list[TrajectoryPoint], bool]:
    """Evolve all agents together, rebuilding every effective operator from
    the same state snapshot each step.

    Stops when every agent's residual against its current effective
    operator is <= tol, or at t_max (by default DEFAULT_T_MAX times the
    model's hbar).  Returns (points, converged), as evolve_linear does:
    points[-1] holds every agent's stationary state.  The step is sized
    and checked against coupled_scale(model), which bounds the effective
    operators over the whole run.  With a single agent the operator is
    fixed: on energies E - sigma, sigma the centre of E's range, this flow
    takes exactly the steps evolve_linear takes on Diagonal(E).
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
            return points, converged
        for i, card in enumerate(plan.cards):
            # the agent's row in place, on its frozen operator y -> rates * y
            psi, rates, slope = amplitudes[i, :card], energies[i, :card], h_psi[i, :card]
            psi[:] = _renormalized(rk4_step(rates.__mul__, psi, step_size, k1=slope), step + 1)
        step += 1


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
