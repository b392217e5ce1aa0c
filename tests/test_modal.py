"""Modal machinery tests: truncation rules, expansions, field evaluation."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sp

from roomtf import modal, specfun
from roomtf.geometry import SphericalCoord, to_spherical
from roomtf.modal import (
    CoefficientVector,
    WaveContext,
    active_order,
    direct_field,
    eval_exterior_field,
    eval_interior_field,
    point_source_outgoing_coeffs,
    truncation_order,
)
from roomtf.specfun import HarmonicIndex


def ctx_at(f, c=343.0):
    return WaveContext(f, c)


class TestWaveContext:
    def test_wavenumber_definition(self):
        ctx = ctx_at(1000.0)
        assert ctx.k == 2 * math.pi * 1000.0 / 343.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WaveContext(0.0)
        with pytest.raises(ValueError):
            WaveContext(100.0, -1.0)


class TestTruncationOrder:
    def test_design_frequency_gives_order_ten(self):
        assert truncation_order(ctx_at(1000.0).k, 0.4) == 10

    def test_900_hz_gives_order_nine(self):
        assert truncation_order(ctx_at(900.0).k, 0.4) == 9

    def test_small_argument_ceiling(self):
        assert truncation_order(1.0, 0.1) == 1

    @given(st.floats(0.1, 50.0), st.floats(0.01, 2.0),
           st.floats(1.0, 1.5), st.floats(1.0, 1.5))
    def test_monotone_in_both_arguments(self, k, R, sk, sR):
        base = truncation_order(k, R)
        assert truncation_order(k * sk, R) >= base
        assert truncation_order(k, R * sR) >= base


class TestActiveOrder:
    def test_design_radius_at_fmax(self):
        assert active_order(1000.0, 0.1205, 343.0) == 3

    def test_half_frequency(self):
        assert active_order(500.0, 0.1205, 343.0) == 1

    def test_low_frequency_floor(self):
        assert active_order(1.0, 0.1205, 343.0) == 0


class TestCoefficientVector:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            CoefficientVector(2, np.zeros(5))
        assert len(CoefficientVector(2, np.zeros(9))) == 9

    def test_nonfinite_rejected(self):
        bad = np.zeros(4, complex)
        bad[1] = np.nan
        with pytest.raises(ValueError):
            CoefficientVector(1, bad)


class TestPointSourceCoeffs:
    def test_source_at_center_excites_only_monopole(self):
        ctx = ctx_at(700.0)
        beta = point_source_outgoing_coeffs(SphericalCoord(0.0, 0.0, 0.0), ctx, 4)
        expected = 1j * ctx.k / math.sqrt(4 * math.pi)
        assert beta.entries[0] == pytest.approx(expected, abs=1e-14)
        assert np.all(beta.entries[1:] == 0)

    def test_monopole_magnitude_example(self):
        # spec quotes 1.3634 from rounded intermediates; exact evaluation of
        # k/sqrt(4 pi) |j0(0.2 k)| at 500 Hz gives 1.36269
        ctx = ctx_at(500.0)
        beta = point_source_outgoing_coeffs(SphericalCoord(0.2, 1.1, 0.7), ctx, 3)
        exact = ctx.k / math.sqrt(4 * math.pi) * abs(
            specfun.spherical_bessel_j(0, ctx.k * 0.2)
        )
        assert abs(beta.entries[0]) == pytest.approx(exact, rel=1e-12)
        assert abs(beta.entries[0]) == pytest.approx(1.3634, rel=1e-3)

    def test_degree_conjugation_in_phi0_half_plane(self):
        # with Condon-Shortley harmonics the (1, -1) and (1, 1) entries are
        # plain conjugates for sources at phi = 0 (the phase (-1)^m from the
        # harmonic meets the same factor from the conjugated degree flip)
        ctx = ctx_at(600.0)
        beta = point_source_outgoing_coeffs(SphericalCoord(0.25, 1.0, 0.0), ctx, 2)
        b_plus = beta.entries[HarmonicIndex(1, 1).flat]
        b_minus = beta.entries[HarmonicIndex(1, -1).flat]
        assert b_minus == pytest.approx(np.conj(b_plus), abs=1e-14)


class TestFieldEvaluation:
    def test_unit_monopole_at_origin(self):
        coeffs = CoefficientVector(0, np.array([1.0 + 0j]))
        got = eval_interior_field(coeffs, SphericalCoord(0.0, 0.0, 0.0), ctx_at(500.0))
        assert got == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-14)

    def test_zero_vector_evaluates_to_zero(self):
        coeffs = CoefficientVector(3, np.zeros(16, complex))
        assert eval_interior_field(coeffs, SphericalCoord(0.2, 1.0, 2.0), ctx_at(500.0)) == 0

    def test_plane_wave_expansion(self):
        ctx = ctx_at(700.0)
        k = ctx.k
        direction = np.array([0.3, -0.5, 0.8])
        direction /= np.linalg.norm(direction)
        d_sph = to_spherical(direction)
        N = truncation_order(k, 0.3) + 6
        alpha = np.zeros((N + 1) ** 2, complex)
        for i, idx in enumerate(specfun.harmonic_indices(N)):
            alpha[i] = (
                4 * math.pi * (1j ** idx.order)
                * np.conj(sp.sph_harm_y(idx.order, idx.degree, d_sph.theta, d_sph.phi))
            )
        coeffs = CoefficientVector(N, alpha)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.uniform(-0.2, 0.2, 3)
            got = eval_interior_field(coeffs, to_spherical(x), ctx)
            expected = np.exp(1j * k * direction @ x)
            assert got == pytest.approx(expected, abs=1e-6)

    def test_exterior_point_source_matches_direct_field(self):
        ctx = ctx_at(600.0)
        y = np.array([0.15, -0.1, 0.2])
        beta = point_source_outgoing_coeffs(
            to_spherical(y), ctx, truncation_order(ctx.k, np.linalg.norm(y)) + 12
        )
        rng = np.random.default_rng(4)
        for _ in range(5):
            z = rng.uniform(-1.0, 1.0, 3)
            z *= 1.2 / np.linalg.norm(z)
            got = eval_exterior_field(beta, to_spherical(z), ctx)
            expected = direct_field(z, y, ctx)
            assert got == pytest.approx(expected, rel=1e-6)

    def test_exterior_monopole_closed_form(self):
        ctx = ctx_at(343.0 / (2 * math.pi))  # k = 1
        coeffs = CoefficientVector(0, np.array([1.0 + 0j]))
        got = eval_exterior_field(coeffs, SphericalCoord(1.0, 0.4, 2.0), ctx)
        expected = -1j * np.exp(1j) / 1.0 / math.sqrt(4 * math.pi)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_exterior_rejects_zero_radius(self):
        coeffs = CoefficientVector(0, np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            eval_exterior_field(coeffs, SphericalCoord(0.0, 0.0, 0.0), ctx_at(500.0))

    def test_superposition(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x = SphericalCoord(0.3, 1.2, 0.4)
        ctx = ctx_at(800.0)
        total = eval_interior_field(CoefficientVector(3, a + b), x, ctx)
        parts = eval_interior_field(CoefficientVector(3, a), x, ctx) + eval_interior_field(
            CoefficientVector(3, b), x, ctx
        )
        assert total == pytest.approx(parts, abs=1e-12)


class TestDirectField:
    def test_unit_distance_magnitude(self):
        got = direct_field((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), ctx_at(777.0))
        assert abs(got) == pytest.approx(1.0 / (4 * math.pi), abs=1e-15)

    def test_full_cycle_phase(self):
        # k d = 2 pi at d = 0.5 requires k = 4 pi, i.e. f = 2 c
        ctx = ctx_at(2 * 343.0)
        got = direct_field((0.5, 0.0, 0.0), (0.0, 0.0, 0.0), ctx)
        assert got == pytest.approx(2.0 / (4 * math.pi), abs=1e-12)

    def test_equals_monopole_hankel_form(self):
        rng = np.random.default_rng(21)
        ctx = ctx_at(431.0)
        for _ in range(100):
            x, y = rng.uniform(-1, 1, (2, 3))
            d = np.linalg.norm(x - y)
            if d < 1e-3:
                continue
            expected = 1j * ctx.k / (4 * math.pi) * (
                sp.spherical_jn(0, ctx.k * d) + 1j * sp.spherical_yn(0, ctx.k * d)
            )
            assert direct_field(x, y, ctx) == pytest.approx(expected, abs=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            direct_field((0.1, 0.2, 0.3), (0.1, 0.2, 0.3), ctx_at(500.0))
