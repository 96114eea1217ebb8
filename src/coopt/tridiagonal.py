"""Eigendecomposition of a symmetric tridiagonal matrix, without LAPACK.

This is the tridiagonal path of `numerics.jacobi_eigen`, taken by every grid
Hamiltonian.  The matrix is scaled by its largest entry.  All eigenvalues come
from Sturm-count bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)
386), vectorized across eigenvalues, to a width of 2 eps ||T||.  The
eigenvectors come from inverse iteration (Peters & Wilkinson, Handbook for
Automatic Computation II, 1971) on LU factors with partial pivoting,
vectorized across blocks of shifts, with modified Gram-Schmidt inside clusters
of close eigenvalues.  The work is O(n^2), plus O(k^2 n) for a cluster of k.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import SplitMix64

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_CLUSTER_GAP = 1e-3  # relative to ||T||, as in LAPACK dstein
_INVERSE_BLOCK = 64  # shifts per inverse-iteration block: keeps the working set below Jacobi's


def _sturm_counts(d: np.ndarray, e: np.ndarray, x: np.ndarray, pivots=None) -> np.ndarray:
    # Number of eigenvalues below each shift x[k] of the symmetric tridiagonal
    # with diagonal d and off-diagonal e: the negative pivots of the LDL^T
    # recurrence q_i = d_i - x - e_{i-1}^2 / q_{i-1}, each x a column of one
    # (n, len(x)) pivot array.  Zero pivots are safe in IEEE arithmetic
    # (Demmel, Dhillon & Ren, 1995): a signed zero acts as a tiny pivot of its
    # sign, the next pivot is the infinity such a pivot would give, and the
    # one after sees e^2/inf = 0.  Counting by sign bit keeps -0 negative.
    # Zero couplings are raised to the smallest normal number so that 0/0
    # cannot occur; that moves no eigenvalue by more than 1.5e-154 times the
    # matrix scale.
    e2 = np.maximum(e * e, _TINY).tolist()
    q = np.subtract.outer(d, x, out=pivots)
    t = np.empty(q.shape[1:])
    with np.errstate(divide="ignore", over="ignore"):
        for c, prev, row in zip(e2, q[:-1], q[1:]):
            np.divide(c, prev, out=t)
            np.subtract(row, t, out=row)
    return np.count_nonzero(np.signbit(q), axis=0)


def _bisect_eigenvalues(d: np.ndarray, e: np.ndarray, radius: np.ndarray, norm: float):
    # All eigenvalues at once, each by bisection of the Gershgorin interval
    # (Barth, Martin & Wilkinson 1967; radius holds the discs' radii) down to
    # a width of 2 eps ||T||.  Eigenvalue k keeps an interval [lo_k, hi_k)
    # with count(lo_k) <= k < count(hi_k), and every step counts at all n
    # midpoints in one pass.
    n = d.size
    slack = 2.1 * _EPS * n * norm  # LAPACK dstebz's widening against rounding
    bottom = float((d - radius).min()) - slack
    top = float((d + radius).max()) + slack
    lo, hi = np.full(n, bottom), np.full(n, top)
    k = np.arange(n)
    pivots = np.empty((n, n))
    for _ in range(math.ceil(math.log2((top - bottom) / (2.0 * _EPS * norm)))):
        mid = 0.5 * (lo + hi)
        below = _sturm_counts(d, e, mid, pivots) > k
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return np.sort(0.5 * (lo + hi))


def _raise_small(pivot: np.ndarray, floor: float) -> None:
    np.copyto(pivot, np.copysign(floor, pivot), where=np.abs(pivot) < floor)


def _factor_shifted(d, e, shifts, floor):
    # LU with partial pivoting of T - sI for every shift s at once (LAPACK
    # dlagtf).  Step i eliminates column i between the carried row and row
    # i + 1 of T - sI, and the one with the larger entry there becomes row i
    # of U: u[i] holds its entries at columns i, i + 1 and i + 2, and keep[i]
    # marks the shifts whose carried row was kept as pivot.  Pivots below
    # floor in magnitude are raised to it.  Shape (n, 3, shifts).
    n, m = d.size, shifts.size
    u = np.zeros((n, 3, m))  # rows i + 1 of T - sI until pivoting overwrites them
    u[:-1, 0] = e[:, None]
    np.subtract.outer(d[1:], shifts, out=u[:-1, 1])
    u[:-2, 2] = e[1:, None]
    keep = np.empty((n - 1, m), dtype=bool)
    mult = np.empty((n - 1, m))
    carried = np.zeros((3, m))
    carried[0] = d[0] - shifts
    carried[1] = e[0]
    t = np.empty((2, m))
    for b, ui, ki, li in zip(np.abs(e).tolist(), u, keep, mult):
        np.greater_equal(np.abs(carried[0]), b, out=ki)
        other = np.where(ki, ui, carried)
        np.copyto(ui, carried, where=ki)
        if b < floor:  # else |pivot| >= b >= floor already
            _raise_small(ui[0], floor)
        np.divide(other[0], ui[0], out=li)
        np.multiply(li, ui[1:], out=t)
        np.subtract(other[1:], t, out=carried[:2])  # carried[2] stays 0
    u[-1] = carried
    _raise_small(u[-1, 0], floor)
    return u, keep, mult


def _eliminate(keep, mult, z: np.ndarray) -> None:
    # z <- L^{-1} P z for the factors of _factor_shifted, one shift per column.
    rows = list(z)
    carried = rows[0].copy()
    for ki, li, top, below in zip(keep, mult, rows[:-1], rows[1:]):
        pivot = np.where(ki, carried, below)
        other = np.where(ki, below, carried)
        np.copyto(top, pivot)
        carried = other - li * pivot
    np.copyto(rows[-1], carried)


def _back_substitute(u: np.ndarray, z: np.ndarray) -> None:
    # z <- U^{-1} z, U's rows as stored by _factor_shifted.
    rows = list(z)
    t = np.empty(z.shape[1])
    rows[-1] /= u[-1, 0]
    for i in range(len(rows) - 2, -1, -1):
        row = rows[i]
        row -= np.multiply(u[i, 1], rows[i + 1], out=t)
        if i + 2 < len(rows):
            row -= np.multiply(u[i, 2], rows[i + 2], out=t)
        row /= u[i, 0]


def _orthonormalize(x: np.ndarray, vt: np.ndarray, j0: int, first, stop) -> None:
    # Modified Gram-Schmidt of the block's columns (eigenvectors j0, j0 + 1,
    # ...) against the earlier members of their clusters, which are rows of
    # vt below j0 or columns of x to the left; then every column is normalized.
    m = x.shape[1]
    x /= np.linalg.norm(x, axis=0)
    ends = np.minimum(stop[j0 : j0 + m], j0 + m) - j0  # end of each column's cluster in x
    lead = first[j0]
    if lead < j0:  # a cluster continues from the previous block
        cols = x[:, : ends[0]]
        for v in vt[lead:j0]:
            cols -= np.outer(v, v @ cols)
    for c in np.flatnonzero(ends - np.arange(m) > 1):
        v = x[:, c] / np.linalg.norm(x[:, c])
        x[:, c] = v
        later = x[:, c + 1 : ends[c]]
        later -= np.outer(v, v @ later)
    x /= np.linalg.norm(x, axis=0)


def _inverse_iteration(d, e, values, norm) -> np.ndarray:
    # Eigenvectors as rows, by two steps of inverse iteration (Peters &
    # Wilkinson 1971) on blocks of shifts.  The first solve is U x = r with
    # r pseudo-random, as in EISPACK tinvit: the start vector b is the one
    # with L^{-1} P b = r.  Vectors of a cluster (gaps at most _CLUSTER_GAP *
    # ||T||, as in LAPACK dstein) are reorthogonalized against the cluster's
    # earlier members after each solve.
    n = d.size
    index = np.arange(n)
    split = np.ones(n + 1, dtype=bool)  # split[j]: a cluster starts at j
    split[1:-1] = np.diff(values) > _CLUSTER_GAP * norm
    # eigenvalue j's cluster is first[j] .. stop[j] - 1
    first = np.maximum.accumulate(np.where(split[:-1], index, 0))
    stop = np.minimum.accumulate(np.where(split[1:], index + 1, n)[::-1])[::-1]
    vt = np.empty((n, n))
    starts = SplitMix64(0)  # a fixed seed: results reproduce bitwise
    for j0 in range(0, n, _INVERSE_BLOCK):
        shifts = values[j0 : j0 + _INVERSE_BLOCK]
        u, keep, mult = _factor_shifted(d, e, shifts, _EPS * norm)
        x = starts.uniform_signed_block(n * shifts.size).reshape(n, shifts.size)
        _back_substitute(u, x)
        _orthonormalize(x, vt, j0, first, stop)
        _eliminate(keep, mult, x)
        _back_substitute(u, x)
        _orthonormalize(x, vt, j0, first, stop)
        vt[j0 : j0 + shifts.size] = x.T
    return vt


def tridiagonal_eigen(d: np.ndarray, e: np.ndarray):
    """Eigenvalues ascending and the matching orthonormal eigenvectors (as
    columns) of the symmetric tridiagonal with diagonal d and off-diagonal e."""
    n = d.size
    scale = float(max(np.abs(d).max(), np.abs(e).max()))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    d, e = d / scale, e / scale  # entries at most 1, so e^2 cannot overflow
    radius = np.zeros(n)  # of the Gershgorin discs
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    norm = float((np.abs(d) + radius).max())  # ||T||_1 = ||T||_inf
    values = _bisect_eigenvalues(d, e, radius, norm)
    vt = _inverse_iteration(d, e, values, norm)
    return values * scale, vt.T
