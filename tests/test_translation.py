"""Translation-operator tests, anchored by the addition-theorem field oracle."""
import math

import numpy as np
import pytest
from scipy import special as sp

from roomtf import specfun, translation
from roomtf.errors import ConfigurationError
from roomtf.geometry import SphericalCoord, to_spherical
from roomtf.modal import CoefficientVector, WaveContext, eval_interior_field
from roomtf.recording import HoMicSpec, MicArray, make_mic_array, mic_radius
from roomtf.translation import (
    build_T_prime,
    s_hat_block,
    solve_alpha_all,
    translate_interior,
)

ALL_ROWS = np.ones(16, dtype=bool)  # every local mode of an order-3 mic


def reference_mics(units=9, radius=0.2795):
    spec = HoMicSpec(3, mic_radius(3, 1000.0), 49, 5)
    return make_mic_array(units, radius, spec)


def s_hat(v, mu, a, b, displacement, ctx):
    """Per-entry oracle of ``s_hat_block``: one S-hat^{mu b}_{v a}, summed term by term."""
    k = ctx.k
    total = 0.0j
    for l in range(abs(v - a), v + a + 1):
        if (v + a + l) % 2:
            continue
        w1 = specfun.wigner_3j(v, a, l, 0, 0, 0)
        w2 = specfun.wigner_3j(v, a, l, mu, -b, b - mu)
        if w1 == 0.0 or w2 == 0.0:
            continue
        total += (
            (1j ** l)
            * ((-1.0) ** (2 * mu - b))
            * sp.spherical_jn(l, k * displacement.radius)
            * np.conj(sp.sph_harm_y(l, b - mu, displacement.theta, displacement.phi))
            * math.sqrt((2 * v + 1) * (2 * a + 1) * (2 * l + 1) / (4.0 * math.pi))
            * w1 * w2
        )
    return complex(4.0 * math.pi * (1j ** (a - v)) * total)


def min_norm_alpha(Tp, rhs):
    """Minimum-norm least-squares solution from lstsq, apart from the solver's pinv."""
    return np.linalg.lstsq(Tp, rhs, rcond=translation.SVD_CUTOFF)[0]


class TestSHatEntries:
    def test_zero_translation_is_identity(self):
        ctx = WaveContext(700.0)
        zero = SphericalCoord(0.0, 0.0, 0.0)
        assert s_hat(2, 1, 2, 1, zero, ctx) == pytest.approx(1.0, abs=1e-12)
        assert s_hat(2, 1, 1, 1, zero, ctx) == pytest.approx(0.0, abs=1e-12)
        block = s_hat_block(3, 3, zero, ctx)
        assert np.max(np.abs(block - np.eye(16))) < 1e-12

    def test_monopole_to_monopole_closed_form(self):
        # only l = 0 survives: the entry reduces to j_0(kR)
        ctx = WaveContext(700.0)
        disp = SphericalCoord(0.2, math.pi / 2, 0.0)
        expected = sp.spherical_jn(0, ctx.k * 0.2)
        assert s_hat(0, 0, 0, 0, disp, ctx) == pytest.approx(expected, abs=1e-12)

    def test_parity_restricts_l_sum(self):
        # (v, a) = (1, 1): the odd l = 1 term is annihilated by the parity
        # rule, so the entry equals its l = 0 plus l = 2 contributions
        ctx = WaveContext(700.0)
        disp = SphericalCoord(0.15, 1.0, 0.5)
        got = s_hat(1, 0, 1, 0, disp, ctx)
        l0 = (
            4 * math.pi
            * sp.spherical_jn(0, ctx.k * 0.15)
            * np.conj(sp.sph_harm_y(0, 0, disp.theta, disp.phi))
            * math.sqrt(9 / (4 * math.pi))
            * specfun.wigner_3j(1, 1, 0, 0, 0, 0) ** 2
        )
        l2 = (
            4 * math.pi * (1j ** 2)
            * sp.spherical_jn(2, ctx.k * 0.15)
            * np.conj(sp.sph_harm_y(2, 0, disp.theta, disp.phi))
            * math.sqrt(3 * 3 * 5 / (4 * math.pi))
            * specfun.wigner_3j(1, 1, 2, 0, 0, 0) ** 2
        )
        assert got == pytest.approx(complex(l0 + l2), abs=1e-12)

    def test_block_matches_scalar_entries(self):
        ctx = WaveContext(900.0)
        disp = SphericalCoord(0.25, 2.0, 4.0)
        block = s_hat_block(2, 3, disp, ctx)
        for ri, ab in enumerate(specfun.harmonic_indices(2)):
            for ci, vm in enumerate(specfun.harmonic_indices(3)):
                assert block[ri, ci] == pytest.approx(
                    s_hat(vm.order, vm.degree, ab.order, ab.degree, disp, ctx),
                    abs=1e-12,
                )

    def test_continuity_under_perturbation(self):
        ctx = WaveContext(800.0)
        d1 = SphericalCoord(0.2, 1.0, 2.0)
        d2 = SphericalCoord(0.2 + 1e-8, 1.0, 2.0)
        b1 = s_hat_block(3, 4, d1, ctx)
        b2 = s_hat_block(3, 4, d2, ctx)
        assert np.max(np.abs(b1 - b2)) < 1e-6


class TestAdditionTheorem:
    def test_field_consistency(self):
        # translated local coefficients must reproduce the field pointwise
        # around the displaced origin — the arbiter for every phase convention
        ctx = WaveContext(700.0)
        rng = np.random.default_rng(23)
        N = 4
        local_order = 12
        worst = 0.0
        for _ in range(4):
            alpha = CoefficientVector(
                N, rng.standard_normal((N + 1) ** 2) + 1j * rng.standard_normal((N + 1) ** 2)
            )
            disp_vec = rng.uniform(-0.25, 0.25, 3)
            gamma = translate_interior(alpha, to_spherical(disp_vec), local_order, ctx)
            for _ in range(6):
                offset = rng.uniform(-0.04, 0.04, 3)
                f_global = eval_interior_field(alpha, to_spherical(disp_vec + offset), ctx)
                f_local = eval_interior_field(gamma, to_spherical(offset), ctx)
                worst = max(worst, abs(f_global - f_local) / max(abs(f_global), 1e-12))
        assert worst < 1e-6


class TestBuildTPrime:
    def test_reference_shape(self):
        Tp = build_T_prime(reference_mics(), 10, WaveContext(1000.0), ALL_ROWS)
        assert Tp.shape == (144, 121)

    def test_single_origin_mic_is_identity(self):
        spec = HoMicSpec(3, mic_radius(3, 1000.0), 49, 5)
        mics = MicArray(np.zeros((1, 3)), spec,
                        tuple(make_mic_array(1, 0.1, spec).local_offsets))
        Tp = build_T_prime(mics, 3, WaveContext(700.0), ALL_ROWS)
        assert np.max(np.abs(Tp - np.eye(16))) < 1e-12

    def test_aliasing_bound(self):
        with pytest.raises(ConfigurationError, match="aliasing"):
            build_T_prime(reference_mics(units=2), 10, WaveContext(1000.0), ALL_ROWS)

    def test_row_order_drops_rows(self):
        keep = specfun.harmonic_orders(3) <= 2
        Tp = build_T_prime(reference_mics(), 8, WaveContext(600.0), keep)
        assert Tp.shape == (9 * 9, 81)
        full = build_T_prime(reference_mics(), 8, WaveContext(600.0), ALL_ROWS)
        assert np.array_equal(Tp, full.reshape(9, 16, 81)[:, keep].reshape(81, 81))


class TestSolveAlpha:
    def test_forward_backward_recovery(self):
        ctx = WaveContext(700.0)
        mics = reference_mics()
        n_r = 7
        Tp = build_T_prime(mics, n_r, ctx, ALL_ROWS)
        rng = np.random.default_rng(31)
        n_cols = (n_r + 1) ** 2
        alpha_true = rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols)
        gamma = (Tp @ alpha_true).reshape(mics.num_units, 16)
        alpha, residual = solve_alpha_all(Tp, gamma, ALL_ROWS)
        rel = np.linalg.norm(alpha - alpha_true) / np.linalg.norm(alpha_true)
        assert rel < 1e-8
        assert residual < 1e-8 * np.linalg.norm(gamma)

    def test_zero_recordings_give_zero_alpha(self):
        Tp = build_T_prime(reference_mics(), 5, WaveContext(700.0), ALL_ROWS)
        alpha, residual = solve_alpha_all(Tp, np.zeros((9, 16, 2)), ALL_ROWS)
        assert alpha.shape == (36, 2)
        assert np.all(alpha == 0)
        assert residual == 0.0

    def test_joint_solve_matches_mode_by_mode(self):
        ctx = WaveContext(800.0)
        mics = reference_mics()
        keep = specfun.harmonic_orders(3) <= 2
        Tp = build_T_prime(mics, 6, ctx, keep)
        rng = np.random.default_rng(41)
        gamma_all = rng.standard_normal((9, 16, 3)) + 1j * rng.standard_normal((9, 16, 3))
        joint, residual = solve_alpha_all(Tp, gamma_all, keep)
        rhs = gamma_all[:, keep].reshape(81, 3)
        single = np.column_stack([min_norm_alpha(Tp, rhs[:, m]) for m in range(3)])
        assert np.max(np.abs(joint - single)) < 1e-12 * np.max(np.abs(single))
        assert residual == pytest.approx(np.linalg.norm(Tp @ single - rhs), rel=1e-9)

    def test_recording_shape_mismatch(self):
        Tp = build_T_prime(reference_mics(), 5, WaveContext(700.0), ALL_ROWS)
        with pytest.raises(ConfigurationError, match="T-prime layout"):
            solve_alpha_all(Tp, np.zeros((4, 16)), ALL_ROWS)
        with pytest.raises(ConfigurationError, match="T-prime layout"):
            solve_alpha_all(Tp, np.zeros((9, 9)), ALL_ROWS)
