"""Mode-matching tests: T construction, minimum-norm weights, conditioning."""
import math

import numpy as np
import pytest

from roomtf import synthesis
from roomtf.errors import ConfigurationError
from roomtf.geometry import SphericalCoord, shell_array
from roomtf.modal import WaveContext
from roomtf.specfun import HarmonicIndex, mode_count


def shell_at(f, count=121, order=10, seed=12345):
    speakers = shell_array(count, 0.4, 0.3, seed)
    return synthesis.build_T(speakers, order, WaveContext(f))


class TestBuildT:
    def test_single_speaker_at_origin(self):
        ctx = WaveContext(500.0)
        T = synthesis.build_T([SphericalCoord(0.0, 0.0, 0.0)], 3, ctx)
        assert T.shape == (16, 1)
        expected = 1j * ctx.k / math.sqrt(4 * math.pi)
        assert T[0, 0] == pytest.approx(expected, abs=1e-14)
        assert np.all(T[1:, 0] == 0)

    def test_reference_shape(self):
        T = shell_at(1000.0)
        assert T.shape == (121, 121)

    def test_conjugate_row_relation(self):
        # row(n, -m) = (-1)^(m+1) conj(row(n, m)): the harmonic conjugation
        # phase plus the sign flip of the ik prefactor under conjugation
        T = shell_at(700.0, order=4)
        for n in range(5):
            for m in range(1, n + 1):
                plus = T[HarmonicIndex(n, m).flat]
                minus = T[HarmonicIndex(n, -m).flat]
                assert np.allclose(minus, (-1) ** (m + 1) * np.conj(plus), atol=1e-12)


def min_norm_weights(T, num_modes):
    """Minimum-norm least-squares weights for each unit target, from lstsq."""
    targets = np.eye(T.shape[0])[:, :num_modes]
    return np.linalg.lstsq(T, targets, rcond=synthesis.SVD_CUTOFF)[0]


class TestSolveWeights:
    def test_residual_small_when_well_conditioned(self):
        T = shell_at(500.0, order=5)
        _, residuals = synthesis.solve_all_weights(T, num_modes=1)
        assert residuals[0] < 1e-8

    def test_target_order_above_matrix_rejected(self):
        T = shell_at(500.0, order=3)
        with pytest.raises(ConfigurationError):
            synthesis.solve_all_weights(T, num_modes=mode_count(4))

    def test_aliasing_bound_enforced(self):
        T = shell_at(500.0, count=50, order=10)
        with pytest.raises(ConfigurationError, match="aliasing"):
            synthesis.solve_all_weights(T)

    def test_minimum_norm_property(self):
        T = shell_at(600.0, order=5)
        W, residuals = synthesis.solve_all_weights(T)
        col = HarmonicIndex(2, -1).flat
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
        W, residuals = synthesis.solve_all_weights(T)
        assert W.shape == (121, 49)
        expected = min_norm_weights(T, 49)
        assert np.max(np.abs(W - expected)) < 1e-12 * np.max(np.abs(expected))
        exact = np.linalg.norm(T @ expected - np.eye(49), axis=0)
        assert np.allclose(residuals, exact, atol=1e-12)

    def test_partial_batch(self):
        T = shell_at(800.0, order=6)
        W, _ = synthesis.solve_all_weights(T, num_modes=mode_count(3))
        assert W.shape == (121, 16)
        full, _ = synthesis.solve_all_weights(T)
        assert np.array_equal(W, full[:, :16])


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
        sphere = synthesis.build_T(sphere_array(121, 0.4), order, ctx)
        shell = synthesis.build_T(shell_array(121, 0.4, 0.3, 12345), order, ctx)
        assert synthesis.condition_number(sphere) > 10 * synthesis.condition_number(shell)
