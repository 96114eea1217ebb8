import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from coopt import bundled_path, tridiagonal
from coopt.fileio import load_hamiltonian
from coopt.numerics import (
    DenseSymmetric,
    Diagonal,
    jacobi_eigen,
    log_sum_exp_first,
    rk4_step,
)
from coopt.rng import SplitMix64


def tridiagonal_matrix(d, e):
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def wilkinson_plus(n=21):
    # W_n^+: diagonal |k - (n - 1)/2|, unit off-diagonal; its top
    # eigenvalues come in pairs that agree to many digits
    return tridiagonal_matrix(np.abs(np.arange(n) - (n - 1) / 2), np.ones(n - 1))


def log_sum_exp(values) -> float:
    # one column; a zero sum's divide warning is the caller's to suppress
    with np.errstate(divide="ignore"):
        return float(log_sum_exp_first(np.array(values, dtype=float)[:, np.newaxis])[0])


class TestLogSumExp:
    def test_two_equal_weights(self):
        assert log_sum_exp([math.log(1.0), math.log(1.0)]) == pytest.approx(math.log(2.0))

    def test_single_value_is_identity(self):
        assert log_sum_exp([3.7]) == 3.7

    def test_large_values_do_not_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))

    def test_minus_infinity_entries_drop_out(self):
        assert log_sum_exp([-np.inf, 0.0]) == pytest.approx(0.0)
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_identity(self, values, c):
        v = np.array(values)
        assert log_sum_exp(v + c) == pytest.approx(log_sum_exp(v) + c, abs=1e-9)

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6))
    def test_monotone_in_each_argument(self, values):
        # a bump below double resolution cannot strictly increase the result,
        # so assert weak monotonicity plus strictness when the bump dominates
        v = np.array(values)
        bumped = v.copy()
        bumped[0] += 1.0
        assert log_sum_exp(bumped) >= log_sum_exp(v)
        assert log_sum_exp(v + 1.0) > log_sum_exp(v)
        assert not math.isnan(log_sum_exp(v))

    def test_axis_version_handles_all_minus_inf_rows(self):
        arr = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        with np.errstate(divide="ignore"):
            out = log_sum_exp_first(np.moveaxis(arr, 1, 0))
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_axis_version_rows(self, axis):
        # Along the reduced axis: finite rows, rows of all -inf, a +inf
        # entry and a NaN entry, each row also with and without -inf entries.
        rows = [
            [0.5, -1.0, 2.0], [-np.inf, 3.0, 1.0], [-np.inf] * 3,
            [np.inf, 0.0, -np.inf], [np.nan, 0.0, 1.0], [-np.inf, np.nan, -np.inf],
        ]
        arr = np.moveaxis(np.array(rows).reshape(2, 3, 3), 2, axis)
        with np.errstate(divide="ignore"):
            out = log_sum_exp_first(np.moveaxis(arr, axis, 0)).ravel()
        assert out[0] == pytest.approx(math.log(math.exp(0.5) + math.exp(-1.0) + math.exp(2.0)),
                                       rel=1e-15)
        assert out[1] == pytest.approx(math.log(math.exp(3.0) + math.exp(1.0)), rel=1e-15)
        assert out[2] == -np.inf
        assert out[3] == np.inf
        assert np.isnan(out[4]) and np.isnan(out[5])


@pytest.fixture
def block_sizes(monkeypatch):
    """Shift counts of the inverse-iteration blocks factored during the test."""
    sizes = []
    factor = tridiagonal._factor_shifted

    def recording(d, e, shifts, floor):
        sizes.append(shifts.size)
        return factor(d, e, shifts, floor)

    monkeypatch.setattr(tridiagonal, "_factor_shifted", recording)
    return sizes


class TestJacobi:
    def test_identity_matrix(self):
        eig = jacobi_eigen(DenseSymmetric(np.eye(3)))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(eig.eigenvectors.T @ eig.eigenvectors, np.eye(3), atol=1e-12)

    def test_diagonal_is_sorted_with_permuted_unit_vectors(self):
        eig = jacobi_eigen(Diagonal(np.array([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_flip_matrix(self):
        eig = jacobi_eigen(DenseSymmetric(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed,n", [(11, 2), (12, 5), (13, 8), (14, 13), (15, 30)])
    def test_random_symmetric_invariants(self, seed, n):
        h = helpers.random_symmetric_matrix(seed, n, span=3.0)
        eig = jacobi_eigen(DenseSymmetric(h))
        assert (np.diff(eig.eigenvalues) >= 0).all()
        v = eig.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-9)
        for k in range(n):
            lam = eig.eigenvalues[k]
            residual = np.abs(h @ v[:, k] - lam * v[:, k]).max()
            assert residual <= 1e-9 * (1.0 + abs(lam))
        assert eig.eigenvalues.sum() == pytest.approx(
            np.trace(h), abs=1e-9 * (1.0 + abs(np.trace(h)))
        )

    @pytest.mark.parametrize(
        "name",
        [
            "n1", "n2", "n3", "n31", "n64", "n201", "repeated", "oscillator",
            "tridiagonal-and-dense-blocks", "zero-subdiagonal",
        ],
    )
    def test_agrees_with_lapack(self, name):
        if name == "oscillator":
            h = load_hamiltonian(bundled_path("harmonic_oscillator")).matrix
        elif name == "tridiagonal-and-dense-blocks":
            # W21+ (+) a dense 5x5: the first 21 columns take no reflector
            h = np.zeros((26, 26))
            h[:21, :21] = wilkinson_plus()
            h[21:, 21:] = helpers.random_symmetric_matrix(5, 5, span=2.0)
        elif name == "zero-subdiagonal":
            # a[1, 0] = 0 above a nonzero tail: the first reflector has alpha = 0
            h = helpers.random_symmetric_matrix(43, 7, span=2.0)
            h[1, 0] = h[0, 1] = 0.0
        elif name == "repeated":
            # Householder reflection of a diagonal with multiplicities 3, 2 and 1
            s = SplitMix64(41)
            u = np.array([s.uniform_signed() for _ in range(6)])
            u /= np.linalg.norm(u)
            q = np.eye(6) - 2.0 * np.outer(u, u)
            h = q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]) @ q.T
            h = 0.5 * (h + h.T)
        else:
            n = int(name[1:])
            h = helpers.random_symmetric_matrix(40 + n, n, span=2.0)
        n = h.shape[0]
        eig = jacobi_eigen(DenseSymmetric(h))
        tol = 1e-9 * np.linalg.norm(h)
        np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(h), rtol=0, atol=tol)
        v = eig.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-9)
        assert np.abs(h @ v - v * eig.eigenvalues).max() <= tol

    @pytest.mark.parametrize(
        "name", ["wilkinson21", "reducible", "negative", "scaled-up", "scaled-down"]
    )
    def test_tridiagonal_agrees_with_lapack(self, name):
        if name == "wilkinson21":
            h = wilkinson_plus()
        elif name == "reducible":
            # a zero off-diagonal splits it into a block and its mirror image,
            # so every eigenvalue is double
            h = tridiagonal_matrix([1.0, 2.0, 3.0, 3.0, 2.0, 1.0], [0.5, -0.7, 0.0, -0.7, 0.5])
            w = np.linalg.eigvalsh(h)
            np.testing.assert_allclose(w[::2], w[1::2], rtol=0, atol=1e-14)
        elif name == "negative":
            h = tridiagonal_matrix(np.linspace(-1.0, 2.0, 9), -np.linspace(0.3, 1.1, 8))
        else:
            h = wilkinson_plus() * (1e150 if name == "scaled-up" else 1e-150)
        n = h.shape[0]
        eig = jacobi_eigen(DenseSymmetric(h))
        tol = 1e-9 * np.linalg.norm(h)
        assert (np.diff(eig.eigenvalues) >= 0).all()
        np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(h), rtol=0, atol=tol)
        v = eig.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-9)
        assert np.abs(h @ v - v * eig.eigenvalues).max() <= tol

    def test_reduction_reflects_only_columns_off_the_bands(self):
        # A tridiagonal matrix takes no reflector and reaches the tridiagonal
        # solver bitwise unchanged; a dense n x n takes one per column but
        # the last two.
        h = wilkinson_plus()
        d, e, tau = tridiagonal._tridiagonalize(h.copy())
        assert np.count_nonzero(tau) == 0
        assert d.tobytes() == np.diag(h).tobytes()
        assert e.tobytes() == np.diag(h, 1).tobytes()
        dense = helpers.random_symmetric_matrix(5, 5, span=2.0)
        d, e, tau = tridiagonal._tridiagonalize(dense.copy())
        assert np.count_nonzero(tau) == 3
        np.testing.assert_allclose(
            np.linalg.eigvalsh(tridiagonal_matrix(d, e)),
            np.linalg.eigvalsh(dense), rtol=0, atol=1e-14 * np.linalg.norm(dense),
        )

    @pytest.mark.parametrize(
        "m",
        [
            [[1e308, 0.0], [0.0, 1.0]],
            [[1e308, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
            [[1e308, 1e308], [1e308, -1e308]],
        ],
        ids=["diagonal", "dense", "tridiagonal"],
    )
    def test_entries_near_the_float_limit_symmetrize_without_overflow(self, m):
        # m + m.T overflows to inf here; halving each entry first does not
        h = np.array(m)
        eig = jacobi_eigen(DenseSymmetric(h))
        tol = 1e-9 * np.abs(h).max() * h.shape[0]  # bounds ||H||_2, whose own sum overflows
        np.testing.assert_allclose(eig.eigenvalues, np.linalg.eigvalsh(h), rtol=0, atol=tol)

    def test_tridiagonal_eigenvectors_are_reproducible(self):
        op = load_hamiltonian(bundled_path("harmonic_oscillator"))
        first, second = jacobi_eigen(op), jacobi_eigen(op)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    @pytest.mark.parametrize("name,block", [("wilkinson21", 10), ("oscillator", 14)])
    def test_inverse_iteration_across_blocks(self, monkeypatch, block_sizes, name, block):
        # A byte cap of `block` shifts splits the solve into several blocks,
        # and each boundary below cuts a cluster of close eigenvalues (a gap
        # within _CLUSTER_GAP ||T||), so the cluster's later vectors are
        # orthogonalized against vectors of the previous block.
        if name == "wilkinson21":
            h, boundaries = wilkinson_plus(), [10, 20]
        else:
            h = load_hamiltonian(bundled_path("harmonic_oscillator")).matrix
            boundaries = [182, 196]
        n = h.shape[0]
        w = np.linalg.eigvalsh(h)
        close = 0.9 * tridiagonal._CLUSTER_GAP * np.abs(h).sum(axis=1).max()
        for j in boundaries:
            assert j % block == 0 and w[j] - w[j - 1] < close
        monkeypatch.setattr(tridiagonal, "_INVERSE_BYTES", 24 * n * block)
        eig = jacobi_eigen(DenseSymmetric(h))
        assert block_sizes == [block] * (n // block) + ([n % block] if n % block else [])
        v = eig.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-9)
        assert np.abs(h @ v - v * eig.eigenvalues).max() <= 1e-9 * np.linalg.norm(h)

    def test_bundled_grid_takes_one_inverse_iteration_block(self, block_sizes):
        jacobi_eigen(load_hamiltonian(bundled_path("harmonic_oscillator")))
        assert block_sizes == [201]

    def test_sturm_counts_through_zero_pivots(self):
        # Each count is the number of eigenvalues strictly below the shift,
        # also where a pivot is exactly +0 or -0 or a coupling is exactly 0.
        # [[0, 1], [1, 0]] at 0: the first pivot is +0 and the second -inf.
        d, e = np.array([0.0, 0.0]), np.array([1.0])
        assert tridiagonal._sturm_counts(d, e, np.array([-1.5, 0.0, 1.5])).tolist() == [0, 1, 2]
        # a -0 first pivot counts as negative, so the +inf after it does not
        d = np.array([-0.0, 0.0])
        assert tridiagonal._sturm_counts(d, e, np.array([0.0])).tolist() == [1]
        # A zero coupling after a zero pivot would be 0/0.  It is raised to
        # the smallest normal number, which splits the double eigenvalue 1 by
        # about 3e-154: exactly one of the two lies below 1.
        d, e = np.array([1.0, 1.0, 4.0]), np.array([0.0, 0.0])
        x = np.array([1.0 - 1e-15, 1.0, 1.0 + 1e-15, 4.0, 5.0])
        pivots = np.empty((3, x.size))
        assert tridiagonal._sturm_counts(d, e, x, pivots).tolist() == [0, 1, 2, 2, 3]
        assert not np.isnan(pivots).any()

    def test_shifted_solves_are_backward_stable(self):
        # (T - sI) x = b through the factors, for shifts away from, near and
        # at eigenvalues: the residual is at rounding level relative to
        # |T - sI| |x|.  Without row exchanges the first shift's 1e-12 pivot
        # would grow it by about 1e12.
        d, e = np.array([1e-12, 1.0, -2.0, 0.5, 3.0]), np.array([1.0, -0.7, 0.0, 2.0])
        h = tridiagonal_matrix(d, e)
        w = np.linalg.eigvalsh(h)
        shifts = np.array([0.0, -5.0, w[2] + 1e-6, w[4] - 1e-9, w[1]])
        u, keep, mult = tridiagonal._factor_shifted(d, e, shifts, 1e-16)
        b = SplitMix64(7).uniform_signed_block(25).reshape(5, 5)
        x = b.copy()
        tridiagonal._eliminate(keep, mult, x)
        tridiagonal._back_substitute(u, x)
        for k, s in enumerate(shifts):
            a = h - s * np.eye(5)
            scale = np.abs(a).sum(axis=1).max() * np.abs(x[:, k]).max()
            assert np.abs(a @ x[:, k] - b[:, k]).max() <= 1e-14 * scale

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            jacobi_eigen(Diagonal(np.zeros(2049)))

    def test_asymmetric_matrix_rejected_at_construction(self):
        with pytest.raises(ValueError):
            DenseSymmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestRk4:
    def test_zero_derivative_keeps_state(self):
        y = np.array([1.0, -2.0, 3.5])
        np.testing.assert_array_equal(rk4_step(np.zeros_like, y, 0.3, np.zeros_like(y)), y)

    def test_scalar_decay_matches_fourth_order_taylor(self):
        out = rk4_step(np.negative, np.array([1.0]), 0.1, np.array([-1.0]))
        assert out[0] == pytest.approx(0.9048375, abs=1e-12)
        assert out[0] == pytest.approx(helpers.scalar_rk4(1.0, 1.0, 0.1), rel=1e-15)
        # close to the exact flow but not equal: local error is O(dt^5)
        assert abs(out[0] - math.exp(-0.1)) < 1e-7

    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=5),
        st.floats(min_value=0.001, max_value=0.3),
    )
    @settings(deadline=None)
    def test_diagonal_system_matches_per_component_scalar(self, rates, dt):
        rates = np.array(rates)
        y = np.ones_like(rates)
        out = rk4_step(lambda s: -rates * s, y, dt, -rates * y)
        expected = [helpers.scalar_rk4(r, 1.0, dt) for r in rates]
        np.testing.assert_allclose(out, expected, rtol=1e-13)

    def test_non_finite_derivative_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            rk4_step(lambda s: s / 0.0, np.array([1.0]), 0.1, np.array([1.0]))

    @pytest.mark.parametrize("dt", [0.0, -0.0, np.inf, -np.inf, np.nan])
    def test_zero_or_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="finite nonzero dt"):
            rk4_step(np.negative, np.array([1.0]), dt, np.array([-1.0]))

    @pytest.mark.parametrize("tridiagonal", [True, False])
    def test_negative_step_is_a_positive_step_on_the_negated_operator_bitwise(
        self, tridiagonal
    ):
        h = helpers.random_symmetric_matrix(13, 9, span=2.0)
        if tridiagonal:
            h = np.triu(np.tril(h, 1), -1)
        op, negated = DenseSymmetric(h), DenseSymmetric(-h)
        assert (op._bands is not None) == tridiagonal
        y = np.sqrt(helpers.random_profile_arrays(14, [9])[0])
        for dt in (0.05, 0.3):
            got = rk4_step(op.matvec, y, -dt, k1=op.matvec(y))
            expected = rk4_step(negated.matvec, y, dt, k1=negated.matvec(y))
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_given_first_stage_rejected(self, bad):
        # the later stages stay finite, so only k1 can trip the check
        with pytest.raises(ValueError, match="non-finite"):
            rk4_step(np.zeros_like, np.array([1.0, 2.0]), 0.1, k1=np.array([-1.0, bad]))

    def test_large_finite_first_stage_accepted(self):
        # finite stages whose sum would overflow do not trip the check
        y = np.array([1.0, 2.0])
        out = rk4_step(np.zeros_like, y, 0.1, k1=np.array([1e308, 1e308]))
        np.testing.assert_array_equal(out, y)

    @pytest.mark.parametrize("kind", ["symmetric", "diagonal"])
    def test_linear_step_is_the_degree_four_taylor_polynomial(self, kind):
        # sum over k <= 4 of (dt A)^k / k! y, one power at a time
        if kind == "symmetric":
            a = helpers.random_symmetric_matrix(31, 9, span=2.0)
            derivative = lambda s: a @ s  # noqa: E731
        else:
            rates = -np.linspace(0.1, 5.0, 9)
            a = np.diag(rates)
            derivative = lambda s: rates * s  # noqa: E731
        y = helpers.random_profile_arrays(32, [9])[0]
        dt = 0.1
        expected, term = y.copy(), y
        for k in range(1, 5):
            term = dt * (a @ term) / k
            expected = expected + term
        np.testing.assert_allclose(rk4_step(derivative, y, dt, derivative(y)), expected, rtol=1e-13)


class TestOperators:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_diagonal_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Diagonal(np.array([1.0, bad]))

    def test_diagonal_matvec_and_scale(self):
        op = Diagonal(np.array([1.0, -4.0, 2.0]))
        np.testing.assert_array_equal(op.matvec(np.ones(3)), [1.0, -4.0, 2.0])
        assert op.scale() == 4.0
        assert op.dimension == 3

    @given(st.data())
    @settings(deadline=None)
    def test_tridiagonal_product_matches_the_dense_product(self, data):
        n = data.draw(st.integers(1, 40))
        entries = st.floats(-10.0, 10.0, allow_subnormal=False)
        d, up, v = (np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
                    for size in (n, n - 1, n))
        # the stored matrix may be asymmetric within the 1e-12 tolerance
        skew = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-13, -1e-13]),
                                           min_size=n - 1, max_size=n - 1)))
        m = np.diag(d) + np.diag(up, 1) + np.diag(up + skew, -1)
        op = DenseSymmetric(m)
        # rounding of at most three products and two sums per entry
        bound = 4 * np.finfo(float).eps * (np.abs(m) @ np.abs(v))
        assert (np.abs(op.matvec(v) - m @ v) <= bound).all()

    def test_grid_hamiltonian_takes_the_band_product(self):
        op = load_hamiltonian(bundled_path("harmonic_oscillator"))
        assert op._bands is not None
        v = np.sin(np.arange(op.dimension) * 0.37)
        bound = 4 * np.finfo(float).eps * (np.abs(op.matrix) @ np.abs(v))
        assert (np.abs(op.matvec(v) - op.matrix @ v) <= bound).all()

    @pytest.mark.parametrize("corner", [(0, 2), (2, 0)])
    def test_one_entry_off_the_bands_takes_the_dense_product(self, corner):
        bands = wilkinson_plus(6)
        m = bands.copy()
        m[corner] = 1e-13  # within the symmetry tolerance of its zero mirror
        op = DenseSymmetric(m)
        v = np.linspace(-1.0, 2.0, 6)
        assert op.matvec(v).tobytes() == (m @ v).tobytes()
        # the entry shows in the product, so the bands alone would miss it
        assert (m @ v)[corner[0]] != (bands @ v)[corner[0]]

    def test_dense_scale_bounds_spectral_radius(self):
        h = helpers.random_symmetric_matrix(7, 6, span=2.0)
        op = DenseSymmetric(h)
        top = np.abs(jacobi_eigen(op).eigenvalues).max()
        assert op.scale() >= top


def test_uniform_signed_block_continues_the_scalar_stream():
    block, scalar = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
    for count in (5, 1, 12):
        expected = [scalar.uniform_signed() for _ in range(count)]
        assert block.uniform_signed_block(count).tolist() == expected
    assert block.uniform_signed() == scalar.uniform_signed()
