"""Special-function tests against independent closed-form and exact oracles."""
import math
from fractions import Fraction

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from roomtf import specfun
from roomtf.geometry import cartesian_to_spherical_arrays
from roomtf.specfun import HarmonicIndex, wigner_3j


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


class TestHarmonicIndex:
    def test_flat_bijection_examples(self):
        assert HarmonicIndex(0, 0).flat == 0
        assert HarmonicIndex(1, -1).flat == 1
        assert HarmonicIndex(1, 1).flat == 3
        assert HarmonicIndex(3, 0).flat == 12

    @given(st.integers(0, 12), st.integers(-12, 12))
    def test_flat_round_trip(self, n, m):
        if abs(m) > n:
            with pytest.raises(ValueError):
                HarmonicIndex(n, m)
            return
        idx = HarmonicIndex(n, m)
        assert HarmonicIndex.from_flat(idx.flat) == idx

    def test_index_order_matches_enumeration(self):
        idx = specfun.harmonic_indices(3)
        assert len(idx) == 16
        assert [i.flat for i in idx] == list(range(16))


class TestBessel:
    def test_j0_at_pi_is_zero(self):
        assert abs(specfun.spherical_bessel_j(0, math.pi)) < 1e-12

    def test_j0_at_zero(self):
        assert specfun.spherical_bessel_j(0, 0.0) == 1.0

    def test_jn_at_zero_vanishes(self):
        for n in range(1, 8):
            assert specfun.spherical_bessel_j(n, 0.0) == 0.0

    def test_j1_series_value(self):
        # closed form j1(x) = sin x / x^2 - cos x / x
        x = 0.1
        expected = math.sin(x) / x**2 - math.cos(x) / x
        assert specfun.spherical_bessel_j(1, x) == pytest.approx(expected, abs=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            specfun.spherical_bessel_j(-1, 1.0)

    @given(st.integers(1, 20), st.floats(0.1, 50.0))
    def test_recurrence(self, n, x):
        lhs = specfun.spherical_bessel_j(n - 1, x) + specfun.spherical_bessel_j(n + 1, x)
        rhs = (2 * n + 1) / x * specfun.spherical_bessel_j(n, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(st.integers(1, 15), st.floats(0.5, 50.0))
    def test_wronskian(self, n, x):
        lhs = (
            specfun.spherical_bessel_j(n, x) * sp.spherical_yn(n - 1, x)
            - specfun.spherical_bessel_j(n - 1, x) * sp.spherical_yn(n, x)
        )
        assert lhs == pytest.approx(1.0 / x**2, rel=1e-9)


def hankel(n, x):
    """h_n(x) at one point, read from the order-n row of the Hankel table."""
    return specfun.hankel_h1_matrix(n, [x])[n * n + n, 0]


def harmonic(n, m, theta, phi):
    """Y_nm at one point, read from its flat row of the harmonic table."""
    return specfun.harmonic_matrix(n, theta, phi)[n * n + n + m, 0]


class TestHankel:
    def test_h0_closed_form_at_one(self):
        # h0(x) = -i e^{ix} / x
        expected = -1j * np.exp(1j * 1.0) / 1.0
        assert hankel(0, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_h0_at_pi(self):
        expected = -1j * np.exp(1j * math.pi) / math.pi
        got = hankel(0, math.pi)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got.imag == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_h2_against_series_forms(self):
        x = 5.0
        j2 = (3 / x**2 - 1) * math.sin(x) / x - 3 * math.cos(x) / x**2
        y2 = -(3 / x**2 - 1) * math.cos(x) / x - 3 * math.sin(x) / x**2
        assert hankel(2, x) == pytest.approx(j2 + 1j * y2, rel=1e-10)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            specfun.hankel_h1_matrix(0, [0.0])
        with pytest.raises(ValueError):
            specfun.hankel_h1_matrix(1, [1.0, -2.0])


class TestSphericalHarmonic:
    def test_constant_mode(self):
        for theta, phi in [(0.3, 1.0), (2.0, 4.0)]:
            got = harmonic(0, 0, theta, phi)
            assert got == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-14)

    def test_polar_value_order_one(self):
        got = harmonic(1, 0, 0.0, 0.0)
        assert got == pytest.approx(math.sqrt(3 / (4 * math.pi)), abs=1e-12)

    @given(
        st.integers(0, 8),
        st.integers(-8, 8),
        st.floats(0.0, math.pi),
        st.floats(0.0, 2 * math.pi),
    )
    def test_conjugation_symmetry(self, n, m, theta, phi):
        if abs(m) > n:
            return
        plus = harmonic(n, m, theta, phi)
        minus = harmonic(n, -m, theta, phi)
        assert minus == pytest.approx((-1) ** m * np.conj(plus), abs=1e-12)

    def test_orthonormality_gram_matrix(self):
        # Gauss-Legendre in cos(theta) x uniform trapezoid in phi is an exact
        # quadrature for products of harmonics up to the grid's band limit.
        N = 10
        nodes, weights = np.polynomial.legendre.leggauss(2 * N + 2)
        theta = np.arccos(nodes)
        nphi = 4 * N + 5
        phi = 2 * np.pi * np.arange(nphi) / nphi
        T, P = np.meshgrid(theta, phi, indexing="ij")
        W = np.broadcast_to(weights[:, None], T.shape) * (2 * np.pi / nphi)
        Y = specfun.harmonic_matrix(N, T.ravel(), P.ravel())
        gram = (Y * W.ravel()) @ np.conj(Y.T)
        assert np.max(np.abs(gram - np.eye((N + 1) ** 2))) < 1e-8


def flat_orders_degrees(N):
    """(n, m) of each flat row, built apart from specfun."""
    nm = [(n, m) for n in range(N + 1) for m in range(-n, n + 1)]
    n, m = np.array(nm).T
    return n[:, None], m[:, None]


def oracle_points():
    """Random directions plus the poles, the equator and azimuths near 0 and 2 pi."""
    rng = np.random.default_rng(11)
    theta = [0.0, 1e-8, math.pi / 2, math.pi - 1e-8, math.pi]
    phi = [0.0, 1e-9, 2 * math.pi - 1e-9, 2 * math.pi]
    T, P = np.meshgrid(theta, phi, indexing="ij")
    return (
        np.concatenate([T.ravel(), rng.uniform(0.0, math.pi, 60)]),
        np.concatenate([P.ravel(), rng.uniform(0.0, 2 * math.pi, 60)]),
    )


class TestBasisTables:
    """Every basis table against per-(n, m) scipy calls, value by value."""

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 10, 25])
    def test_harmonic_matrix_matches_scipy(self, N):
        theta, phi = oracle_points()
        n, m = flat_orders_degrees(N)
        expected = sp.sph_harm_y(n, m, theta[None, :], phi[None, :])
        got = specfun.harmonic_matrix(N, theta, phi)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_harmonic_matrix_scalar_arguments(self):
        got = specfun.harmonic_matrix(3, 0.7, 2.0)
        n, m = flat_orders_degrees(3)
        assert got.shape == (16, 1)
        assert np.max(np.abs(got - sp.sph_harm_y(n, m, 0.7, 2.0))) < 1e-14

    def test_near_pole_point(self):
        # the point (0, 1e-8, 1) through the coordinate conversion
        _, theta, phi = cartesian_to_spherical_arrays(np.array([[0.0, 1e-8, 1.0]]))
        n, m = flat_orders_degrees(25)
        got = specfun.harmonic_matrix(25, theta, phi)
        assert np.max(np.abs(got - sp.sph_harm_y(n, m, 1e-8, math.pi / 2))) < 1e-13

    def test_tables_build_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for N in (0, 1, 2, 31):
                specfun.harmonic_matrix(N, [0.0, 1.0, math.pi], [0.0, 2.0, 6.0])

    @pytest.mark.parametrize("N", [0, 1, 5, 12])
    def test_bessel_j_matrix_rows(self, N):
        x = np.array([0.0, 1e-6, 0.3, 2.0, 7.5, 25.0])
        n, _ = flat_orders_degrees(N)
        expected = sp.spherical_jn(n, x[None, :])
        assert np.array_equal(specfun.bessel_j_matrix(N, x), expected)

    @pytest.mark.parametrize("N", [0, 1, 5, 12])
    def test_hankel_h1_matrix_rows(self, N):
        x = np.array([1e-3, 0.3, 2.0, 7.5, 25.0])
        n, _ = flat_orders_degrees(N)
        expected = sp.spherical_jn(n, x[None, :]) + 1j * sp.spherical_yn(n, x[None, :])
        assert np.array_equal(specfun.hankel_h1_matrix(N, x), expected)

    def test_harmonic_orders(self):
        orders = specfun.harmonic_orders(4)
        assert orders.tolist() == [i.order for i in specfun.harmonic_indices(4)]
        assert specfun.harmonic_orders(4) is orders
        with pytest.raises(ValueError):
            orders[0] = 1


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
