"""Shared numerical kernels.

Log-domain accumulation keeps the dynamics stable when the temperature
constant is small; `log_sum_exp_first`, in place over the first axis, is
the one log-sum-exp, for pairwise and dense tables alike.  The fixed-step
RK4 update drives both continuous-time evolutions.  Their derivatives are
linear within a step, y -> A y with A frozen, so `rk4_step` is for linear
derivatives: it evaluates classical RK4 as the polynomial R(dt A) y in
Horner form, three stage products plus the residual product the caller
already took, which it must pass as k1.  The step is signed, so the flows
step with dt = -(time step)/hbar, the coupled flow on H itself and the
linear flow on H - sigma I by one product and one subtraction, and no
scaled or shifted copy of H is made.
Each operator gives an interval holding its spectrum, from which the linear
flow sizes its step.  A dense operator holds its own copy of the symmetric
part of its input, the one matrix that the flows and the oracle read; one
whose entries off its three central bands are all zero, as every grid
Hamiltonian's are, is multiplied on those bands in O(n).  The eigensolver
`jacobi_eigen` is the self-contained oracle used to certify stationary
states.  It calls no LAPACK (only norms come from numpy's linear algebra):
a dense matrix, scaled by a power of two, is reduced to tridiagonal form
by Householder reflectors, of which a tridiagonal operator takes none,
then solved by Sturm-sequence bisection plus inverse iteration (module
`tridiagonal`).
"""

import math
from typing import NamedTuple

import numpy as np

EIGEN_MAX_DIMENSION = 2048


class Frozen:
    """Base of the records that convert or check their input: __init__ sets
    each field once, and assigning or deleting one raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Diagonal(Frozen):
    """Operator with the given real diagonal and zeros elsewhere."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = np.array(entries, dtype=float, ndmin=1)
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

    def interval(self) -> tuple[float, float]:
        """(lo, hi) holding every eigenvalue, the linear flow's step sizing:
        the exact least and greatest entries."""
        return float(self.entries.min()), float(self.entries.max())


class DenseSymmetric(Frozen):
    """Dense real symmetric operator; asymmetry beyond 1e-12 is rejected.

    `matrix` is a copy of the symmetric part (m + m.T) / 2 of the input m,
    bitwise m when m is symmetric.  A tridiagonal one (every entry off the
    three central bands exactly zero) is multiplied on its bands; any other
    takes `matrix @ v`.
    """

    __slots__ = ("matrix", "_bands", "_interval")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("dense operator must be a square matrix")
        if not np.isfinite(m).all():
            raise ValueError("dense operator entries must be finite")
        # Halved before subtracting and adding, so that entries near the
        # float limit cannot overflow; the difference's buffer becomes the sum.
        h = 0.5 * m
        work = h - h.T
        if np.abs(work, out=work).max() > 0.5e-12:
            raise ValueError("matrix is not symmetric within 1e-12")
        h = np.add(h, h.T, out=work)
        object.__setattr__(self, "matrix", h)
        d, e = np.diagonal(h).copy(), np.diagonal(h, 1).copy()
        tridiagonal = np.count_nonzero(h) == np.count_nonzero(d) + 2 * np.count_nonzero(e)
        object.__setattr__(self, "_bands", (d, e) if tridiagonal else None)
        # Taken once here: the reduction allocates a matrix the size of h.
        # Row i's Gershgorin interval is [d - r, d + r], r = s - |d| for its
        # absolute row sum s.  Added in this order, d + r is s itself where
        # d >= 0 and s + 2d where d < 0 (d - r likewise), so no end passes
        # -s or s and none overflows.  Rows past the float range sum to
        # inf, which evolve_linear refuses.
        with np.errstate(over="ignore"):
            s = np.abs(h).sum(axis=1)
        low, high = np.minimum(d, 0.0), np.maximum(d, 0.0)
        interval = (float(((high - s) + high).min()), float(((s + low) + low).max()))
        object.__setattr__(self, "_interval", interval)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self._bands is None:
            return self.matrix @ v
        d, e = self._bands
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out

    def interval(self) -> tuple[float, float]:
        """(lo, hi) holding every eigenvalue, the linear flow's step sizing:
        the union of the rows' Gershgorin intervals, within the largest
        absolute row sum on either side."""
        return self._interval


HermitianOperator = Diagonal | DenseSymmetric


class EigenDecomposition(NamedTuple):
    """Eigenvalues ascending; eigenvectors are the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def log_sum_exp_first(values: np.ndarray) -> np.ndarray:
    """ln(sum(exp(values))) over the first axis, shift-stabilized; values is
    overwritten.  All -inf sums to -inf, never NaN; a +inf entry gives +inf,
    a NaN NaN.  The caller suppresses log(0)'s divide warning."""
    top = values.max(axis=0)
    if not np.isfinite(top).all():
        # Shifted by 0 instead, all -inf sums to 0, whose log is -inf.
        top[~np.isfinite(top)] = 0.0
    values -= top
    out = np.exp(values, out=values).sum(axis=0)
    np.log(out, out=out)
    out += top
    return out


def jacobi_eigen(operator: HermitianOperator) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric operator, the package's oracle.

    A Diagonal operator is sorted.  A dense matrix is scaled exactly, by a
    power of two, to entries below 1 so that its reduction cannot overflow,
    reduced to tridiagonal form by Householder reflectors, and solved by
    Sturm-count bisection and inverse iteration (`coopt.tridiagonal`).  A
    tridiagonal input such as a grid Hamiltonian takes no reflector; at 201
    points bisection takes about three quarters of the time.  The name is
    kept from the Jacobi rotations this oracle once ran, because callers and
    benchmarks look it up.
    """
    n = operator.dimension
    if n > EIGEN_MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the eigensolver cap {EIGEN_MAX_DIMENSION}")

    if isinstance(operator, Diagonal):
        order = np.argsort(operator.entries, kind="stable")
        vecs = np.eye(n)[:, order]
        return EigenDecomposition(operator.entries[order].copy(), vecs)

    m = operator.matrix
    if n == 1:
        return EigenDecomposition(m[0].copy(), np.eye(1))
    # Imported on first use: where bytecode is not cached, every coopt
    # process would otherwise compile it, certifying or not.
    from .tridiagonal import symmetric_eigen

    k = math.frexp(float(np.abs(m).max()))[1]
    values, vectors = symmetric_eigen(np.ldexp(m, -k))
    return EigenDecomposition(np.ldexp(values, k), vectors)


def rk4_step(derivative, state: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of signed size dt, for a
    linear derivative y -> A y that returns an array.

    For a linear derivative classical RK4 is exactly y -> R(dt A) y with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, evaluated here in Horner form,
    y + dt A (y + dt/2 A (y + dt/3 A (y + dt/4 A y))): three derivative
    calls after the first stage and no slope sum.  A negative dt steps
    y -> -A y by |dt|, bit for bit, since negation is exact.  A nonlinear
    derivative gets only a second-order step.  k1 is derivative(state),
    the first stage, as the caller already computed it.
    """
    if not (math.isfinite(dt) and dt != 0.0):
        raise ValueError(f"rk4_step requires a finite nonzero dt (got {dt})")
    y = np.asarray(state, dtype=float)
    inner = y + (dt / 4) * np.asarray(k1, dtype=float)
    out = y + dt * derivative(y + (dt / 2) * derivative(y + (dt / 3) * derivative(inner)))
    # A non-finite later stage reaches the output through the products; the
    # innermost term, of the size of y, is added in for a derivative that
    # drops its input, and adds no overflow of its own.
    if not math.isfinite(float(np.add.reduce(inner + out, axis=None))):
        raise ValueError("derivative returned a non-finite value")
    return out
