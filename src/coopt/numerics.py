"""Shared numerical kernels.

Log-domain accumulation keeps the dynamics stable when the temperature
constant is small, and the fixed-step RK4 update drives both continuous-time
evolutions.  The eigensolver `jacobi_eigen` is the self-contained oracle used
to certify stationary states.  It calls no LAPACK (only norms come from
numpy's linear algebra): dense matrices take round-robin Jacobi rotations,
and tridiagonal ones such as grid Hamiltonians take Sturm-sequence bisection
plus inverse iteration (module `tridiagonal`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JACOBI_MAX_DIMENSION = 2048
_JACOBI_MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Sweep budget exhausted before the off-diagonal norm target."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(
            f"jacobi rotations did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e})"
        )
        self.residual = residual
        self.sweeps = sweeps


@dataclass(frozen=True)
class Diagonal:
    """Operator with the given real diagonal and zeros elsewhere."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.atleast_1d(np.asarray(self.entries, dtype=float))
        if entries.ndim != 1 or entries.size < 1:
            raise ValueError("diagonal operator needs a nonempty 1-D entry vector")
        if not np.isfinite(entries).all():
            raise ValueError("diagonal operator entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def dimension(self) -> int:
        return self.entries.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.entries * v

    def diagonal(self) -> np.ndarray:
        return self.entries

    def to_dense(self) -> np.ndarray:
        return np.diag(self.entries)

    def scale(self) -> float:
        """Spectral-radius estimate used for default step sizing (exact here)."""
        return float(np.abs(self.entries).max())


@dataclass(frozen=True)
class DenseSymmetric:
    """Dense real symmetric operator; asymmetry beyond 1e-12 is rejected."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("dense operator must be a square matrix")
        if not np.isfinite(m).all():
            raise ValueError("dense operator entries must be finite")
        if np.abs(m - m.T).max() > 1e-12:
            raise ValueError("matrix is not symmetric within 1e-12")
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)

    def to_dense(self) -> np.ndarray:
        return self.matrix

    def scale(self) -> float:
        """Max absolute row sum, an upper bound on the spectral radius."""
        return float(np.abs(self.matrix).sum(axis=1).max())


HermitianOperator = Diagonal | DenseSymmetric


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; eigenvectors are the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def log_sum_exp(values) -> float:
    """ln(sum(exp(values))), shift-stabilized; -inf entries are allowed."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty vector is undefined")
    m = float(v.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.exp(v - m).sum()))


def log_sum_exp_along(values: np.ndarray, axis: int) -> np.ndarray:
    """Axis-wise log_sum_exp; rows of all -inf map to -inf, never NaN, a
    +inf entry gives +inf and a NaN entry NaN."""
    v = np.asarray(values, dtype=float)
    m = v.max(axis=axis, keepdims=True)
    # Shifted by 0 instead, a row of all -inf sums to 0, whose log is -inf.
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(v - safe).sum(axis=axis)) + safe.squeeze(axis)


def _round_robin(n: int):
    # Modulus ordering of one sweep (Brent & Luk 1985): with m = n rounded up
    # to even, round r pairs i < j with i + j = r (mod m - 1), and the one i
    # with 2i = r with m - 1.  Every pair meets once per sweep, and the pairs
    # of a round are disjoint.  When n is odd, m - 1 is padding and its pair
    # is dropped.  Yields the p < q index arrays of each round.
    m = n + n % 2
    i = np.arange(m - 1)
    for r in range(m - 1):
        j = (r - i) % (m - 1)
        below = i < j
        p, q = i[below], j[below]
        if m == n:  # m // 2 is the inverse of 2 modulo m - 1
            p = np.append(p, r * (m // 2) % (m - 1))
            q = np.append(q, m - 1)
        yield p, q


def _rotate_rows(x: np.ndarray, p, q, t, s, work: np.ndarray) -> None:
    # Rows p_k and q_k become c_k*x[p_k] - s_k*x[q_k] and s_k*x[p_k] + c_k*x[q_k],
    # with s = sin(phi), c = cos(phi), applied as three shears by t = tan(phi/2),
    # s and t again.  work is three reused (n // 2, n) buffers: fresh
    # temporaries of that size cost more to map and unmap than the arithmetic.
    xp, xq, tmp = work[:, : p.size]
    np.take(x, p, axis=0, out=xp, mode="clip")  # indices are valid; "clip" avoids a copy
    np.take(x, q, axis=0, out=xq, mode="clip")
    xp -= np.multiply(t, xq, out=tmp)
    xq += np.multiply(s, xp, out=tmp)
    xp -= np.multiply(t, xq, out=tmp)
    x[p] = xp
    x[q] = xq


def _off_diagonal_norm(a: np.ndarray, scratch: np.ndarray) -> float:
    np.copyto(scratch, a)
    np.fill_diagonal(scratch, 0.0)
    return math.sqrt(np.vdot(scratch, scratch))


def jacobi_eigen(operator: HermitianOperator) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric operator, the package's oracle.

    A Diagonal operator is sorted.  A dense matrix is symmetrized first;
    then one of two paths follows from its entries.

    Tridiagonal (every entry beyond the first off-diagonal exactly zero,
    as in grid Hamiltonians): Sturm-count bisection for the eigenvalues
    and inverse iteration for the eigenvectors, in `coopt.tridiagonal`;
    a 201-point grid takes about 0.05 s.

    Otherwise: round-robin Jacobi rotations.  Each sweep runs n - 1 (n
    even) or n (n odd) rounds of disjoint rotations, each round applied
    to whole rows at once.  Sweeps run until the off-diagonal Frobenius
    norm drops below 1e-12 times the Frobenius norm of the input.
    Intended as a trustworthy reference at modest dimension, not as a
    fast solver.
    """
    n = operator.dimension
    if n > JACOBI_MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the eigensolver cap {JACOBI_MAX_DIMENSION}")

    if isinstance(operator, Diagonal):
        order = np.argsort(operator.entries, kind="stable")
        vecs = np.eye(n)[:, order]
        return EigenDecomposition(operator.entries[order].copy(), vecs)

    a = 0.5 * (operator.matrix + operator.matrix.T)
    if n == 1:
        return EigenDecomposition(np.diag(a).copy(), np.eye(1))
    d, e = np.diag(a), np.diag(a, 1)
    # a is exactly symmetric, so this holds iff nothing lies off the three bands
    if np.count_nonzero(a) == np.count_nonzero(d) + 2 * np.count_nonzero(e):
        # Imported on first use: where bytecode is not cached, every coopt
        # process would otherwise compile it, certifying or not.
        from .tridiagonal import tridiagonal_eigen

        return EigenDecomposition(*tridiagonal_eigen(d, e))

    target = 1e-12 * float(np.sqrt((a * a).sum()))
    skip = target / n  # entries below this cannot push the total above target
    vt = np.eye(n)  # eigenvectors as rows, so that every update is a row update
    spare = np.empty_like(a)
    work = np.empty((3, n // 2, n))
    off = _off_diagonal_norm(a, spare)
    sweeps = 0
    while off > target:
        if sweeps >= _JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(off, sweeps)
        for p, q in _round_robin(n):
            apq = a[p, q]
            big = np.abs(apq) > skip
            if not big.all():
                p, q, apq = p[big], q[big], apq[big]
                if p.size == 0:
                    continue
            phi = 0.5 * np.arctan2(2.0 * apq, a[q, q] - a[p, p])
            t, s = np.tan(0.5 * phi)[:, None], np.sin(phi)[:, None]
            # A <- J^T A J as a row update, a transpose and a row update.
            _rotate_rows(a, p, q, t, s, work)
            np.copyto(spare, a.T)
            a, spare = spare, a
            _rotate_rows(a, p, q, t, s, work)
            a[p, q] = 0.0
            a[q, p] = 0.0
            _rotate_rows(vt, p, q, t, s, work)
        sweeps += 1
        off = _off_diagonal_norm(a, spare)

    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return EigenDecomposition(eigenvalues[order], vt[order].T)


def rk4_step(derivative, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size dt."""
    if dt <= 0.0:
        raise ValueError("rk4_step requires dt > 0")
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(derivative(y), dtype=float)
    k2 = np.asarray(derivative(y + (0.5 * dt) * k1), dtype=float)
    k3 = np.asarray(derivative(y + (0.5 * dt) * k2), dtype=float)
    k4 = np.asarray(derivative(y + dt * k3), dtype=float)
    if not (np.isfinite(k1).all() and np.isfinite(k2).all()
            and np.isfinite(k3).all() and np.isfinite(k4).all()):
        raise ValueError("derivative returned a non-finite value")
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
