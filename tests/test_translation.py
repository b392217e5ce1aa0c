"""Translation-operator tests, anchored by the addition-theorem field oracle.

The S-hat oracles use the Wigner 3-j symbols of ``oracles``, which are
checked here against the Racah sum in exact rational arithmetic.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from roomtf import specfun, translation
from roomtf.geometry import sphere_array, spherical_to_cartesian_arrays as cartesian
from roomtf.modal import WaveContext
from roomtf.recording import MicArray, mic_radius
from roomtf.pipeline import least_squares
from roomtf.translation import build_T_prime, s_hat_blocks

from oracles import (
    cartesian_to_spherical_arrays,
    complex_term_table,
    eval_interior_field,
    s_hat_blocks_across,
    unitary_U,
    wigner_3j,
)

MIC_ORDER = 3  # keeps every local mode of an order-3 mic
SVD_CUTOFF = 1e-10


def reference_mics(units=9, radius=0.2795):
    return MicArray(sphere_array(units, radius), 3, mic_radius(3, 1000.0), 49, 5)


def s_hat(v, mu, a, b, displacement, ctx):
    """Per-entry oracle of the complex S-hat: one S-hat^{mu b}_{v a}, summed term by term."""
    k = ctx.k
    radius, theta, phi = cartesian_to_spherical_arrays(displacement)
    total = 0.0j
    for l in range(abs(v - a), v + a + 1):
        if (v + a + l) % 2:
            continue
        w1 = wigner_3j(v, a, l, 0, 0, 0)
        w2 = wigner_3j(v, a, l, mu, -b, b - mu)
        if w1 == 0.0 or w2 == 0.0:
            continue
        total += (
            (1j ** l)
            * ((-1.0) ** (2 * mu - b))
            * sp.spherical_jn(l, k * radius)
            * np.conj(sp.sph_harm_y(l, b - mu, theta, phi))
            * math.sqrt((2 * v + 1) * (2 * a + 1) * (2 * l + 1) / (4.0 * math.pi))
            * w1 * w2
        )
    return complex(4.0 * math.pi * (1j ** (a - v)) * total)


def s_hat_block(local_order, col_order, displacement, ctx):
    """The complex S-hat block conj(U_A) R U_V^T of the library's real block R."""
    real = s_hat_blocks(local_order, col_order, displacement, ctx)[0]
    return np.conj(unitary_U(local_order)) @ real @ unitary_U(col_order).T


def oracle_block(local_order, col_order, displacement, ctx):
    """The complex S-hat block from ``s_hat``, entry by entry."""
    local = [(a, b) for a in range(local_order + 1) for b in range(-a, a + 1)]
    cols = [(v, mu) for v in range(col_order + 1) for mu in range(-v, v + 1)]
    return np.array([[s_hat(v, mu, a, b, displacement, ctx) for v, mu in cols]
                     for a, b in local])


def min_norm_alpha(Tp, rhs):
    """Minimum-norm least-squares solution from lstsq, apart from the solver's pinv."""
    return np.linalg.lstsq(Tp, rhs, rcond=SVD_CUTOFF)[0]


class TestSHatEntries:
    def test_zero_translation_is_identity(self):
        ctx = WaveContext(700.0)
        zero = np.zeros(3)
        assert s_hat(2, 1, 2, 1, zero, ctx) == pytest.approx(1.0, abs=1e-12)
        assert s_hat(2, 1, 1, 1, zero, ctx) == pytest.approx(0.0, abs=1e-12)
        block = s_hat_block(3, 3, zero, ctx)
        assert np.max(np.abs(block - np.eye(16))) < 1e-12

    def test_monopole_to_monopole_closed_form(self):
        # only l = 0 survives: the entry reduces to j_0(kR)
        ctx = WaveContext(700.0)
        disp = cartesian(0.2, math.pi / 2, 0.0)
        expected = sp.spherical_jn(0, ctx.k * 0.2)
        assert s_hat(0, 0, 0, 0, disp, ctx) == pytest.approx(expected, abs=1e-12)

    def test_parity_restricts_l_sum(self):
        # (v, a) = (1, 1): the odd l = 1 term is annihilated by the parity
        # rule, so the entry equals its l = 0 plus l = 2 contributions
        ctx = WaveContext(700.0)
        disp = cartesian(0.15, 1.0, 0.5)
        got = s_hat(1, 0, 1, 0, disp, ctx)
        l0 = (
            4 * math.pi
            * sp.spherical_jn(0, ctx.k * 0.15)
            * np.conj(sp.sph_harm_y(0, 0, 1.0, 0.5))
            * math.sqrt(9 / (4 * math.pi))
            * wigner_3j(1, 1, 0, 0, 0, 0) ** 2
        )
        l2 = (
            4 * math.pi * (1j ** 2)
            * sp.spherical_jn(2, ctx.k * 0.15)
            * np.conj(sp.sph_harm_y(2, 0, 1.0, 0.5))
            * math.sqrt(3 * 3 * 5 / (4 * math.pi))
            * wigner_3j(1, 1, 2, 0, 0, 0) ** 2
        )
        assert got == pytest.approx(complex(l0 + l2), abs=1e-12)

    def test_block_matches_scalar_entries(self):
        ctx = WaveContext(900.0)
        disp = cartesian(0.25, 2.0, 4.0)
        block = s_hat_block(2, 3, disp, ctx)
        local = [(a, b) for a in range(3) for b in range(-a, a + 1)]
        cols = [(v, mu) for v in range(4) for mu in range(-v, v + 1)]
        for ri, (a, b) in enumerate(local):
            for ci, (v, mu) in enumerate(cols):
                assert block[ri, ci] == pytest.approx(s_hat(v, mu, a, b, disp, ctx), abs=1e-12)

    @pytest.mark.parametrize("local_order, col_order, f, disp", [
        (2, 3, 900.0, (0.25, 2.0, 4.0)),
        (3, 5, 600.0, (0.2795, 0.3, 5.9)),
        (3, 4, 1000.0, (0.1, 3.1, 1.0)),
    ])
    def test_real_block_matches_mapped_oracle(self, local_order, col_order, f, disp):
        # U_A^T S-hat conj(U_V) from the scipy entries and a dense U: real,
        # and equal to the library's real block
        ctx = WaveContext(f)
        d = cartesian(*disp)
        want = unitary_U(local_order).T @ oracle_block(local_order, col_order, d, ctx) \
            @ np.conj(unitary_U(col_order))
        assert np.max(np.abs(want.imag)) < 1e-12
        got = s_hat_blocks(local_order, col_order, d, ctx)
        assert got.dtype == np.float64
        assert got.shape == (1, (local_order + 1) ** 2, (col_order + 1) ** 2)
        assert np.max(np.abs(got[0] - want.real)) < 1e-12

    @pytest.mark.parametrize("local_order,col_order", [(0, 0), (1, 4), (3, 3), (3, 10)])
    def test_blocks_equal_the_sums_across_the_transposed_table(self, local_order, col_order):
        # the same sums of the same terms, so the same bits
        centers = reference_mics().unit_centers
        for f in (200.0, 900.0, 1700.0):
            ctx = WaveContext(f)
            got = s_hat_blocks(local_order, col_order, centers, ctx)
            want = s_hat_blocks_across(local_order, col_order, centers, ctx)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_batched_blocks_equal_per_centre_blocks(self):
        ctx = WaveContext(800.0)
        centers = reference_mics().unit_centers
        batch = s_hat_blocks(3, 8, centers, ctx)
        assert batch.shape == (9, 16, 81)
        for q, center in enumerate(centers):
            assert np.array_equal(s_hat_blocks(3, 8, center, ctx)[0], batch[q])

    @pytest.mark.parametrize("local_order, col_order",
                             [(0, 0), (3, 0), (2, 3), (3, 6), (4, 4), (5, 2), (3, 11)])
    def test_real_term_table_coefficients_are_real(self, local_order, col_order):
        # the oracle's complex Wigner terms taken to the real bases densely,
        # conj(Y) = conj(U) S: the library's Gaunt table must have the same
        # support, term for term, and the same real coefficients
        entries, basis, coeffs = complex_term_table(local_order, col_order)
        C_A, C_V = (local_order + 1) ** 2, (col_order + 1) ** 2
        C_B = (local_order + col_order + 1) ** 2
        dense = np.zeros((C_A * C_V, C_B), dtype=complex)
        np.add.at(dense, (entries, basis), coeffs)
        mapped = np.einsum("ai,avb,bs,vj->ijs", unitary_U(local_order),
                           dense.reshape(C_A, C_V, C_B),
                           np.conj(unitary_U(local_order + col_order)),
                           np.conj(unitary_U(col_order)), optimize=True)
        scale = np.abs(mapped).max()
        assert np.abs(mapped.imag).max() < 1e-14 * scale
        want = mapped.real.reshape(C_A * C_V, C_B)
        want_entry, want_basis = np.nonzero(np.abs(want) > 1e-12 * scale)
        rows, starts, real_basis, real_coeffs = translation._real_term_table(
            local_order, col_order)
        assert real_coeffs.dtype == np.float64
        assert np.array_equal(rows, np.unique(want_entry))
        entry = np.repeat(rows, np.diff(np.append(starts, real_basis.size)))
        assert np.array_equal(entry, want_entry)
        assert np.array_equal(real_basis, want_basis)
        assert np.abs(real_coeffs - want[want_entry, want_basis]).max() < 1e-13 * scale

    def test_continuity_under_perturbation(self):
        ctx = WaveContext(800.0)
        d1 = cartesian(0.2, 1.0, 2.0)
        d2 = cartesian(0.2 + 1e-8, 1.0, 2.0)
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
            alpha = rng.standard_normal((N + 1) ** 2) + 1j * rng.standard_normal((N + 1) ** 2)
            disp_vec = rng.uniform(-0.25, 0.25, 3)
            gamma = s_hat_block(local_order, N, disp_vec, ctx) @ alpha
            for _ in range(6):
                offset = rng.uniform(-0.04, 0.04, 3)
                f_global = eval_interior_field(alpha, disp_vec + offset, ctx)
                f_local = eval_interior_field(gamma, offset, ctx)
                worst = max(worst, abs(f_global - f_local) / max(abs(f_global), 1e-12))
        assert worst < 1e-6


class TestBuildTPrime:
    def test_reference_shape(self):
        Tp = build_T_prime(reference_mics(), MIC_ORDER, 10, WaveContext(1000.0))
        assert Tp.shape == (144, 121)
        assert Tp.dtype == np.float64

    def test_single_origin_mic_is_identity(self):
        mics = MicArray(np.zeros((1, 3)), 3, mic_radius(3, 1000.0), 49, 5)
        Tp = build_T_prime(mics, MIC_ORDER, 3, WaveContext(700.0))
        assert np.max(np.abs(Tp - np.eye(16))) < 1e-12

    def test_row_order_drops_rows(self):
        # the first (m+1)^2 rows of each unit's order-A block, the same bits
        # as a boolean selection of the local modes a <= m
        mics, ctx = reference_mics(), WaveContext(600.0)
        blocks = s_hat_blocks(3, 8, mics.unit_centers, ctx)
        full = build_T_prime(mics, MIC_ORDER, 8, ctx)
        assert full.tobytes() == blocks.reshape(-1, 81).tobytes()
        for m in range(4):
            Tp = build_T_prime(mics, m, 8, ctx)
            rows = (m + 1) ** 2
            assert Tp.shape == (9 * rows, 81)
            assert Tp.tobytes() == blocks[:, :rows].reshape(-1, 81).tobytes()
            keep = specfun.harmonic_orders(3) <= m
            assert np.array_equal(Tp, full.reshape(9, 16, 81)[:, keep].reshape(-1, 81))


def solve_alpha(Tp, gamma, cutoff=SVD_CUTOFF):
    """The extraction's T' solve on recordings (Q, rows per unit, ...): (alpha, residuals).

    One residual per float column of the recordings, the real then the
    imaginary part of each.
    """
    g = np.ascontiguousarray(gamma, dtype=complex)
    x, residuals = least_squares(Tp, g.reshape(Tp.shape[0], -1).view(float), cutoff)
    return x.view(complex).reshape(Tp.shape[1], *g.shape[2:]), residuals


class TestSolveAlpha:
    def test_forward_backward_recovery(self):
        ctx = WaveContext(700.0)
        mics = reference_mics()
        n_r = 7
        Tp = build_T_prime(mics, MIC_ORDER, n_r, ctx)
        rng = np.random.default_rng(31)
        n_cols = (n_r + 1) ** 2
        alpha_true = rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols)
        gamma = (Tp @ alpha_true).reshape(mics.num_units, 16)
        alpha, residuals = solve_alpha(Tp, gamma)
        rel = np.linalg.norm(alpha - alpha_true) / np.linalg.norm(alpha_true)
        assert rel < 1e-8
        assert np.linalg.norm(residuals) < 1e-8 * np.linalg.norm(gamma)

    def test_zero_recordings_give_zero_alpha(self):
        Tp = build_T_prime(reference_mics(), MIC_ORDER, 5, WaveContext(700.0))
        alpha, residuals = solve_alpha(Tp, np.zeros((9, 16, 2)))
        assert alpha.shape == (36, 2)
        assert np.all(alpha == 0)
        assert residuals.shape == (4,) and np.all(residuals == 0.0)

    def test_joint_solve_matches_mode_by_mode(self):
        ctx = WaveContext(800.0)
        mics = reference_mics()
        Tp = build_T_prime(mics, 2, 6, ctx)
        rng = np.random.default_rng(41)
        gamma_all = rng.standard_normal((9, 16, 3)) + 1j * rng.standard_normal((9, 16, 3))
        joint, residuals = solve_alpha(Tp, gamma_all[:, :9])
        rhs = gamma_all[:, :9].reshape(81, 3)
        single = np.column_stack([min_norm_alpha(Tp, rhs[:, m]) for m in range(3)])
        assert np.max(np.abs(joint - single)) < 1e-12 * np.max(np.abs(single))
        # the real and imaginary columns of each mode's residual
        np.testing.assert_allclose(np.hypot(residuals[0::2], residuals[1::2]),
                                   np.linalg.norm(Tp @ single - rhs, axis=0), rtol=1e-9)

def racah_exact(j1, j2, j3, m1, m2, m3) -> float:
    """Independent oracle: Racah sum in exact rational arithmetic.

    The symbol is sign * sqrt(P) * S with P an exact rational (triangle
    coefficient times factorial products) and S an exact rational sum, so the
    only floating-point step is the final square root.
    """
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if m1 + m2 + m3 != 0 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    f = math.factorial
    P = Fraction(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3), f(j1 + j2 + j3 + 1)
    ) * (
        f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )
    tmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    tmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    S = Fraction(0)
    for t in range(tmin, tmax + 1):
        S += Fraction(
            (-1) ** t,
            f(t) * f(j3 - j2 + m1 + t) * f(j3 - j1 - m2 + t)
            * f(j1 + j2 - j3 - t) * f(j1 - m1 - t) * f(j2 + m2 - t),
        )
    return (-1) ** (j1 - j2 - m3) * float(S) * math.sqrt(float(P))


class TestWigner3j:
    def test_trivial_values(self):
        assert wigner_3j(0, 0, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-14)
        assert wigner_3j(1, 1, 1, 0, 0, 0) == 0.0
        assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-12)
        assert wigner_3j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2 / 15), abs=1e-12)

    def test_selection_rule_zeros_are_exact(self):
        assert wigner_3j(2, 2, 5, 0, 0, 0) == 0.0  # triangle violation
        assert wigner_3j(3, 2, 2, 1, 1, 1) == 0.0  # m-sum violation
        assert wigner_3j(5, 2, 4, 0, 0, 0) == 0.0  # odd j-sum, zero bottom row

    @settings(max_examples=150)
    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 16),
           st.integers(-8, 8), st.integers(-8, 8))
    def test_matches_exact_racah_oracle(self, j1, j2, j3, m1, m2):
        if abs(m1) > j1 or abs(m2) > j2:
            return
        m3 = -m1 - m2
        got = wigner_3j(j1, j2, j3, m1, m2, m3)
        assert got == pytest.approx(racah_exact(j1, j2, j3, m1, m2, m3), abs=1e-10)

    @settings(max_examples=80)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 12),
           st.integers(-6, 6), st.integers(-6, 6))
    def test_column_swap_symmetry(self, j1, j2, j3, m1, m2):
        if abs(m1) > j1 or abs(m2) > j2:
            return
        m3 = -m1 - m2
        if abs(m3) > j3:
            return
        direct = wigner_3j(j1, j2, j3, m1, m2, m3)
        swapped = wigner_3j(j2, j1, j3, m2, m1, m3)
        assert swapped == pytest.approx((-1) ** (j1 + j2 + j3) * direct, abs=1e-12)

    def test_purity(self):
        args = (4, 5, 7, 2, -3, 1)
        assert wigner_3j(*args) == wigner_3j(*args)
