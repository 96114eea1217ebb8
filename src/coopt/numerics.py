"""Shared numerical kernels.

Log-domain accumulation keeps the dynamics stable when the temperature
constant is small, and the fixed-step RK4 update drives both continuous-time
evolutions.  A dense operator whose entries off its three central bands are
all zero, as every grid Hamiltonian's are, is multiplied on those bands in
O(n).  The eigensolver `jacobi_eigen` is the self-contained oracle used
to certify stationary states.  It calls no LAPACK (only norms come from
numpy's linear algebra): a dense matrix is reduced to tridiagonal form by
Householder reflectors, then solved by Sturm-sequence bisection plus inverse
iteration (module `tridiagonal`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EIGEN_MAX_DIMENSION = 2048


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
    """Dense real symmetric operator; asymmetry beyond 1e-12 is rejected.

    A tridiagonal matrix (every entry off the main, first sub- and first
    super-diagonal exactly zero) is multiplied on its three bands; any
    other takes `matrix @ v`.
    """

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
        # Both off-diagonals are kept: the matrix may be asymmetric up to 1e-12.
        bands = tuple(np.diagonal(m, k).copy() for k in (0, 1, -1))
        tridiagonal = np.count_nonzero(m) == sum(np.count_nonzero(b) for b in bands)
        object.__setattr__(self, "_bands", bands if tridiagonal else None)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self._bands is None:
            return self.matrix @ v
        d, up, lo = self._bands
        out = d * v
        out[:-1] += up * v[1:]
        out[1:] += lo * v[:-1]
        return out

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


def jacobi_eigen(operator: HermitianOperator) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric operator, the package's oracle.

    A Diagonal operator is sorted.  A dense matrix is symmetrized, reduced
    to tridiagonal form by Householder reflectors, and solved by
    Sturm-count bisection and inverse iteration (`coopt.tridiagonal`).  A
    tridiagonal input such as a grid Hamiltonian takes no reflector; a
    201-point grid takes about 0.045 s on a 2-vCPU VM, 0.035 s of it in
    bisection and 0.01 s in inverse iteration.  The name is kept from the
    Jacobi rotations this oracle once ran, because callers and benchmarks
    look it up.
    """
    n = operator.dimension
    if n > EIGEN_MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the eigensolver cap {EIGEN_MAX_DIMENSION}")

    if isinstance(operator, Diagonal):
        order = np.argsort(operator.entries, kind="stable")
        vecs = np.eye(n)[:, order]
        return EigenDecomposition(operator.entries[order].copy(), vecs)

    a = 0.5 * (operator.matrix + operator.matrix.T)
    if n == 1:
        return EigenDecomposition(np.diag(a).copy(), np.eye(1))
    # Imported on first use: where bytecode is not cached, every coopt
    # process would otherwise compile it, certifying or not.
    from .tridiagonal import symmetric_eigen

    return EigenDecomposition(*symmetric_eigen(a))


def rk4_step(
    derivative, state: np.ndarray, dt: float, k1: np.ndarray | None = None
) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size dt.

    k1, when given, is derivative(state) as the caller already computed it.
    """
    if dt <= 0.0:
        raise ValueError("rk4_step requires dt > 0")
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(derivative(y) if k1 is None else k1, dtype=float)
    k2 = np.asarray(derivative(y + (0.5 * dt) * k1), dtype=float)
    k3 = np.asarray(derivative(y + (0.5 * dt) * k2), dtype=float)
    k4 = np.asarray(derivative(y + dt * k3), dtype=float)
    # Non-finite whenever any stage is: one check covers all four.
    slope = k1 + 2.0 * k2 + 2.0 * k3 + k4
    if not np.isfinite(slope).all():
        raise ValueError("derivative returned a non-finite value")
    return y + (dt / 6.0) * slope
