"""Mode-matching tests: T construction, minimum-norm weights, conditioning."""
import math

import numpy as np
import pytest

from roomtf import specfun, synthesis
from roomtf.errors import ConfigurationError
from roomtf.geometry import shell_array
from roomtf.modal import WaveContext
from roomtf.pipeline import least_squares
from roomtf.specfun import mode_count

from oracles import complex_T, unitary_U

SVD_CUTOFF = 1e-10


def shell_at(f, count=121, order=10, seed=12345):
    speakers = shell_array(count, 0.4, 0.3, seed)
    return synthesis.build_T(specfun.angular_table(order, speakers), order, WaveContext(f))


def solve_weights(T, num_modes=None, cutoff=SVD_CUTOFF):
    """The extraction's weight solve: T W = I[:, :num_modes] in least squares."""
    return least_squares(T, np.eye(T.shape[0], T.shape[0] if num_modes is None else num_modes),
                         cutoff)


def oracle_shell_at(f, count=121, order=10, seed=12345):
    speakers = shell_array(count, 0.4, 0.3, seed)
    return complex_T(speakers, order, WaveContext(f))


class TestBuildT:
    def test_single_speaker_at_origin(self):
        ctx = WaveContext(500.0)
        speaker = np.zeros((1, 3))
        T = synthesis.build_T(specfun.angular_table(3, speaker), 3, ctx)
        assert T.shape == (16, 1)
        expected = 1j * ctx.k / math.sqrt(4 * math.pi)
        T_c = complex_T(speaker, 3, ctx)
        assert T_c[0, 0] == pytest.approx(expected, abs=1e-14)
        # T_c = i conj(U) T, and U leaves row (0, 0) as it is
        assert 1j * T[0, 0] == pytest.approx(expected, abs=1e-14)
        assert np.all(T[1:, 0] == 0)

    def test_is_real(self):
        T = shell_at(700.0, order=4)
        assert T.dtype == np.float64

    @pytest.mark.parametrize("speakers", [np.zeros((0, 3)), np.zeros(3), np.zeros((4, 2))],
                             ids=["empty", "one-point", "columns"])
    def test_bad_speaker_shapes_rejected(self, speakers):
        with pytest.raises(ConfigurationError, match=r"\(P >= 1, 3\) array"):
            specfun.angular_table(3, speakers)

    def test_order_above_the_table_rejected(self):
        table = specfun.angular_table(0, shell_array(121, 0.4, 0.3, 12345))
        with pytest.raises(ValueError, match="order-1 T needs 4 rows"):
            synthesis.build_T(table, 1, WaveContext(500.0))

    def test_reference_shape(self):
        T = shell_at(1000.0)
        assert T.shape == (121, 121)

    def test_conjugate_row_relation(self):
        # row(n, -m) = (-1)^(m+1) conj(row(n, m)) of the complex matrix: the
        # harmonic conjugation phase plus the sign flip of the ik prefactor
        # under conjugation.  So row (n, m) carries all of rows (n, +-m), and
        # the real T holds sqrt 2 Im and sqrt 2 Re of it there.
        T = shell_at(700.0, order=4)
        T_c = oracle_shell_at(700.0, order=4)
        for n in range(5):
            assert np.allclose(T[n * n + n], T_c[n * n + n].imag, atol=1e-12)
            for m in range(1, n + 1):
                plus = T_c[n * n + n + m]
                minus = T_c[n * n + n - m]
                assert np.allclose(minus, (-1) ** (m + 1) * np.conj(plus), atol=1e-12)
                assert np.allclose(T[n * n + n + m], math.sqrt(2) * plus.imag, atol=1e-12)
                assert np.allclose(T[n * n + n - m], math.sqrt(2) * plus.real, atol=1e-12)


def real_mode_targets(T_c, num_modes):
    """Complex coefficients i conj(U) e_s of the first real modes s: T w = e_s
    is T_c w = i conj(U) e_s, since T_c = i conj(U) T."""
    N = math.isqrt(T_c.shape[0]) - 1
    return 1j * np.conj(unitary_U(N))[:, :num_modes]


def min_norm_weights(T_c, num_modes, rcond=SVD_CUTOFF):
    """Minimum-norm least-squares weights for each real-mode target, from lstsq."""
    return np.linalg.lstsq(T_c, real_mode_targets(T_c, num_modes), rcond=rcond)[0]


class TestSolveWeights:
    def test_residual_small_when_well_conditioned(self):
        T = shell_at(500.0, order=5)
        _, residuals = solve_weights(T, num_modes=1)
        assert residuals[0] < 1e-8

    @pytest.mark.parametrize("f,order,num_modes", [
        (200.0, 10, mode_count(4)), (200.0, 10, mode_count(10)), (600.0, 5, mode_count(5)),
    ])
    def test_identity_columns_are_the_pinv_columns_bit_for_bit(self, f, order, num_modes):
        # the extraction's weights at n_s = 4 < N = 10, and at n_s = N
        T = shell_at(f, order=order)
        W, _ = least_squares(T, np.eye(T.shape[0], num_modes), SVD_CUTOFF)
        assert W.tobytes() == np.linalg.pinv(T, rcond=SVD_CUTOFF)[:, :num_modes].tobytes()

    def test_minimum_norm_property(self):
        T = shell_at(600.0, order=5)
        W, residuals = solve_weights(T)
        col = 5  # flat row n^2 + n + m of (2, -1)
        w = W[:, col]
        assert residuals[col] < 1e-8
        # perturb within the null space: solutions stay consistent but longer
        rng = np.random.default_rng(2)
        L = T.shape[1]
        P = np.eye(L) - np.linalg.pinv(T) @ T
        for _ in range(5):
            z = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            w_prime = w + P @ z
            assert np.linalg.norm(T @ w_prime - T @ w) < 1e-8
            assert np.linalg.norm(w_prime) >= np.linalg.norm(w) - 1e-12

    def test_batch_matches_single_solves(self):
        T = shell_at(800.0, order=6)
        W, residuals = solve_weights(T)
        assert W.shape == (121, 49)
        T_c = oracle_shell_at(800.0, order=6)
        expected = min_norm_weights(T_c, 49)
        assert W.dtype == np.float64
        assert np.max(np.abs(W - expected)) < 1e-12 * np.max(np.abs(expected))
        exact = np.linalg.norm(T_c @ expected - real_mode_targets(T_c, 49), axis=0)
        assert np.allclose(residuals, exact, atol=1e-12)

    @pytest.mark.parametrize("num_modes", [1, 2, 16, 30])
    def test_partial_modes_match_oracle(self, num_modes):
        # counts that stop inside an order: real modes need no pairing
        T = shell_at(450.0, order=5)
        W, residuals = solve_weights(T, num_modes=num_modes)
        assert W.shape == (121, num_modes) and residuals.shape == (num_modes,)
        T_c = oracle_shell_at(450.0, order=5)
        expected = min_norm_weights(T_c, num_modes)
        assert np.max(np.abs(W - expected)) < 1e-12 * np.max(np.abs(expected))
        exact = np.linalg.norm(T_c @ expected - real_mode_targets(T_c, num_modes), axis=0)
        assert np.allclose(residuals, exact, atol=1e-12)

    def test_partial_batch(self):
        T = shell_at(800.0, order=6)
        W, _ = solve_weights(T, num_modes=mode_count(3))
        assert W.shape == (121, 16)
        full, _ = solve_weights(T)
        assert np.array_equal(W, full[:, :16])


    def test_cutoff_reaches_the_solve(self):
        # a cutoff above sigma_min / sigma_max drops the weakest singular value
        T = shell_at(300.0, order=5)
        T_c = oracle_shell_at(300.0, order=5)
        s = np.linalg.svd(T_c, compute_uv=False)
        cutoff = 10 * s[-1] / s[0]
        W, residuals = solve_weights(T, cutoff=cutoff)
        want = min_norm_weights(T_c, T_c.shape[0], rcond=cutoff)
        np.testing.assert_allclose(W, want, rtol=0, atol=1e-12 * np.abs(want).max())
        # the dropped value leaves misfits, the same in either basis
        exact = np.linalg.norm(T_c @ want - real_mode_targets(T_c, T_c.shape[0]), axis=0)
        assert exact.max() > 0.1
        np.testing.assert_allclose(residuals, exact, rtol=0, atol=1e-12)
        W_small, _ = solve_weights(T)
        assert np.abs(W - W_small).max() > 0.1 * np.abs(W_small).max()


class TestConditionNumber:
    def test_identity_like(self):
        T = np.eye(1, dtype=complex)
        assert synthesis.condition_number(T) == pytest.approx(1.0)

    def test_scale_invariance(self):
        base = shell_at(700.0, order=5)
        scaled = 3.7 * base
        assert synthesis.condition_number(scaled) == pytest.approx(
            synthesis.condition_number(base), rel=1e-10
        )

    @pytest.mark.parametrize("order", range(3, 11))
    def test_matches_complex_oracle(self, order):
        # T_c = i conj(U) T with U unitary: the same singular values
        got = synthesis.condition_number(shell_at(900.0, order=order))
        want = synthesis.condition_number(oracle_shell_at(900.0, order=order))
        assert got == pytest.approx(want, rel=1e-12)

    def test_more_rows_than_columns_reports_infinity(self):
        # past the aliasing bound (N+1)^2 > L, T w = beta is not solvable
        T = shell_at(700.0, count=24, order=4)
        assert T.shape == (25, 24)
        assert synthesis.condition_number(T) == float("inf")
        assert math.isfinite(synthesis.condition_number(T.T))  # wide
        assert math.isfinite(synthesis.condition_number(T[:24]))  # square

    def test_rank_deficient_reports_infinity(self):
        T = np.zeros((4, 4), dtype=complex)
        T[0, :] = 1.0  # speakers all at the origin excite only (0, 0)
        assert synthesis.condition_number(T) == float("inf")

    def test_sphere_worse_than_shell_near_bessel_zero(self):
        # j_n(kR) zeros make on-sphere modes unobservable; the shell spreads
        # radii so its conditioning stays moderate at those frequencies
        from roomtf.geometry import sphere_array
        from roomtf.modal import truncation_order

        f = 857.5
        ctx = WaveContext(f)
        order = truncation_order(ctx.k, 0.4)
        sphere, shell = (synthesis.build_T(specfun.angular_table(order, a), order, ctx)
                         for a in (sphere_array(121, 0.4), shell_array(121, 0.4, 0.3, 12345)))
        assert synthesis.condition_number(sphere) > 10 * synthesis.condition_number(shell)
