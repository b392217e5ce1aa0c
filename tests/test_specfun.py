"""Special-function tests against independent closed-form and exact oracles."""
import math

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special as sp

from roomtf import specfun
from roomtf.geometry import spherical_to_cartesian_arrays

from oracles import (
    cartesian_to_spherical_arrays,
    complex_mode_columns,
    flat_orders_degrees,
    unitary_U,
)


def bessel(n, x):
    """j_n(x) at one point, read from the order-n row of the Bessel table."""
    return specfun.bessel_j_matrix(n, [x])[n * n + n, 0]


class TestHarmonicIndex:
    """The flat row n^2 + n + m of (n, m): n from ``harmonic_orders``, m the rest."""

    def test_flat_bijection_examples(self):
        orders = specfun.harmonic_orders(3)
        for (n, m), row in (((0, 0), 0), ((1, -1), 1), ((1, 1), 3), ((3, 0), 12)):
            assert orders[row] == n
            assert row - n * n - n == m

    @given(st.integers(0, 12), st.integers(-12, 12))
    def test_flat_round_trip(self, n, m):
        row = n * n + n + m
        orders = specfun.harmonic_orders(13)
        if abs(m) > n:  # not a mode: its would-be row belongs to another order
            assert row < 0 or orders[row] != n
            return
        assert orders[row] == n
        assert row - orders[row] ** 2 - orders[row] == m

    def test_index_order_matches_enumeration(self):
        orders = specfun.harmonic_orders(3)
        assert orders.size == specfun.mode_count(3) == 16
        nm = [(n, row - n * n - n) for row, n in enumerate(orders.tolist())]
        assert nm == [(n, m) for n in range(4) for m in range(-n, n + 1)]


class TestBessel:
    """The order-n rows of ``bessel_j_matrix`` against closed forms and identities."""

    def test_j0_at_pi_is_zero(self):
        assert abs(bessel(0, math.pi)) < 1e-12

    def test_j0_at_zero(self):
        assert bessel(0, 0.0) == 1.0

    def test_jn_at_zero_vanishes(self):
        for n in range(1, 41):
            assert bessel(n, 0.0) == 0.0

    def test_j1_series_value(self):
        # closed form j1(x) = sin x / x^2 - cos x / x
        x = 0.1
        expected = math.sin(x) / x**2 - math.cos(x) / x
        assert bessel(1, x) == pytest.approx(expected, abs=1e-14)

    @given(st.integers(1, 20), st.floats(0.1, 50.0))
    def test_recurrence(self, n, x):
        lhs = bessel(n - 1, x) + bessel(n + 1, x)
        rhs = (2 * n + 1) / x * bessel(n, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(st.integers(1, 15), st.floats(0.5, 50.0))
    def test_wronskian(self, n, x):
        lhs = bessel(n, x) * sp.spherical_yn(n - 1, x) - bessel(n - 1, x) * sp.spherical_yn(n, x)
        assert lhs == pytest.approx(1.0 / x**2, rel=1e-9)


def hankel(n, x):
    """h_n(x) at one point, read from the order-n row of the Hankel table."""
    return specfun.hankel_h1_matrix(n, [x])[n * n + n, 0]


def complex_harmonics(N, points):
    """Y_nm as the library builds it, U S from ``real_harmonics``: ((N+1)^2, P).

    Y^T = S^T U^T, which ``complex_mode_columns`` applies by pairing.
    """
    points = np.reshape(points, (-1, 3))
    S = specfun.real_harmonics(N, points, np.linalg.norm(points, axis=1))
    return complex_mode_columns(S.T, N).T


def unit_points(theta, phi):
    """Cartesian points on the unit sphere, (P, 3)."""
    return np.reshape(spherical_to_cartesian_arrays(1.0, theta, phi), (-1, 3))


def harmonic(n, m, theta, phi):
    """Y_nm at one direction, read from its flat row of the library's table."""
    return complex_harmonics(n, unit_points(theta, phi))[n * n + n + m, 0]


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
        points = unit_points(T.ravel(), P.ravel())
        Y = complex_harmonics(N, points)
        gram = (Y * W.ravel()) @ np.conj(Y.T)
        assert np.max(np.abs(gram - np.eye((N + 1) ** 2))) < 1e-8
        # and the real table is orthonormal by itself
        S = specfun.real_harmonics(N, points, np.ones(len(points)))
        gram = (S * W.ravel()) @ S.T
        assert np.max(np.abs(gram - np.eye((N + 1) ** 2))) < 1e-8


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


def real_oracle_points():
    """``oracle_points`` directions on random radii up to 0.4 as Cartesian points, plus the origin."""
    theta, phi = oracle_points()
    radii = np.random.default_rng(12).uniform(0.05, 0.4, theta.size)
    return np.vstack([spherical_to_cartesian_arrays(radii, theta, phi), [0.0, 0.0, 0.0]])


# The first zeros of j_0 ... j_3, as doubles.
BESSEL_ZEROS = (math.pi, 4.493409457909064, 5.763459196894550, 6.987932000500519)
# Every regime of the Bessel kernel: x = 0, underflowing and tiny arguments,
# both sides of the series switch, the zeros above, and the recurrence out to
# x = 300, where its start index sits well above N.
BESSEL_GRID = np.array(
    [0.0, 1e-300, 1e-12, 1e-6, 0.3,
     np.nextafter(specfun.SERIES_LIMIT, 0.0), specfun.SERIES_LIMIT,
     np.nextafter(specfun.SERIES_LIMIT, 2.0), 2.0, 7.5, *BESSEL_ZEROS, 25.0, 60.0, 300.0]
)
BESSEL_ORDERS = [0, 1, 5, 12, 25, 40]


def order_rows(table, N):
    """One row per order n (the row of degree m = -n) of a basis table."""
    return table[np.arange(N + 1) ** 2]


def scipy_rows(N, x):
    """(j_n, y_n) for n = 0 ... N at each x from scipy, one row per order."""
    n = np.arange(N + 1)[:, None]
    with np.errstate(all="ignore"):
        return sp.spherical_jn(n, x[None, :]), sp.spherical_yn(n, x[None, :])


def away_from_zeros(N, x, j, y):
    """Where j_n(x) is above 1e-290 and not close to one of its zeros.

    Zeros only occur for n < x, where j_n and y_n oscillate inside the
    envelope |h_n| = hypot(j_n, y_n); there an entry counts as close to a
    zero below 5 % of the envelope.
    """
    n = np.arange(N + 1)[:, None]
    with np.errstate(all="ignore"):
        envelope = np.hypot(j, y)
    return (np.abs(j) > 1e-290) & ((n >= x) | (np.abs(j) >= 0.05 * envelope))


def mpmath_rows(N, x):
    """j_n(x) for n = 0 ... N from J_{n+1/2} at 40 digits: the exact values."""
    out = np.zeros((N + 1, x.size))
    out[0, x == 0.0] = 1.0
    with mpmath.workdps(40):
        for i in np.flatnonzero(x):
            v = mpmath.mpf(float(x[i]))
            scale = mpmath.sqrt(mpmath.pi / (2 * v))
            out[:, i] = [float(scale * mpmath.besselj(n + 0.5, v)) for n in range(N + 1)]
    return out


class TestBasisTables:
    """Every basis table against per-(n, m) scipy calls, value by value.

    The Bessel tables come from a recurrence, so they are held to
    tolerances, not to bit equality with scipy."""

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 10, 25])
    def test_harmonic_matrix_matches_scipy(self, N):
        # the complex table U S, from the real harmonics by pairing
        theta, phi = oracle_points()
        n, m = flat_orders_degrees(N)
        expected = sp.sph_harm_y(n, m, theta[None, :], phi[None, :])
        got = complex_harmonics(N, unit_points(theta, phi))
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_harmonic_matrix_scalar_arguments(self):
        # one (3,) point is one column
        got = complex_harmonics(3, unit_points(0.7, 2.0)[0])
        n, m = flat_orders_degrees(3)
        assert got.shape == (16, 1)
        assert np.max(np.abs(got - sp.sph_harm_y(n, m, 0.7, 2.0))) < 1e-14

    def test_near_pole_point(self):
        # the point (0, 1e-8, 1): the angles come straight from the coordinates
        n, m = flat_orders_degrees(25)
        got = complex_harmonics(25, np.array([[0.0, 1e-8, 1.0]]))
        assert np.max(np.abs(got - sp.sph_harm_y(n, m, 1e-8, math.pi / 2))) < 1e-13

    def test_regular_basis_matches_scipy(self):
        # j_n(k|x|) Y_nm(x-hat) as U times the real table at Cartesian points,
        # the origin and a pole included
        rng = np.random.default_rng(21)
        points = np.vstack([rng.uniform(-0.4, 0.4, (30, 3)), [[0, 0, 0], [0, 0, -0.3]]])
        k, N = 20.0, 8
        r, theta, phi = cartesian_to_spherical_arrays(points)
        n, m = flat_orders_degrees(N)
        want = sp.spherical_jn(n, k * r) * sp.sph_harm_y(n, m, theta, phi)
        got = complex_mode_columns(specfun.real_regular_basis(N, k, points, r).T, N).T
        assert got.shape == (81, 32)
        assert np.max(np.abs(got - want)) < 1e-13
        one = specfun.real_regular_basis(N, k, points[3:4], r[3:4])
        assert np.array_equal(complex_mode_columns(one.T, N).T, got[:, 3:4])

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 10, 25])
    def test_real_regular_basis_matches_scipy(self, N):
        # sqrt 2 Re / Im of sph_harm_y times spherical_jn, at the oracle
        # directions (poles, theta = 1e-8 and pi - 1e-8, azimuths next to 0
        # and 2 pi) on random radii, and at the origin
        points = real_oracle_points()
        r, theta, phi = cartesian_to_spherical_arrays(points)
        k = 20.0
        n, m = flat_orders_degrees(N)
        Y = sp.sph_harm_y(n, np.abs(m), theta, phi)
        S = np.where(m > 0, math.sqrt(2) * Y.real, np.where(m < 0, math.sqrt(2) * Y.imag, Y.real))
        want = sp.spherical_jn(n, k * r) * S
        got = specfun.real_regular_basis(N, k, points, r)
        assert got.shape == want.shape and got.dtype == float
        assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("N", [0, 1, 5, 25])
    def test_real_table_maps_onto_complex_table(self, N):
        # Y = U S with the dense U of the oracle; the oracle's
        # complex_mode_columns is b @ U^T, over the last axis of any array
        points = real_oracle_points()
        k = 20.0
        U = unitary_U(N)
        r, theta, phi = cartesian_to_spherical_arrays(points)
        n, m = flat_orders_degrees(N)
        Y = sp.spherical_jn(n, k * r) * sp.sph_harm_y(n, m, theta, phi)
        S = specfun.real_regular_basis(N, k, points, r)
        assert np.max(np.abs(U @ S - Y)) < 1e-14
        rng = np.random.default_rng(N)
        a = rng.standard_normal((2, 3, U.shape[0])) + 1j * rng.standard_normal((2, 3, U.shape[0]))
        assert np.max(np.abs(complex_mode_columns(a, N) - a @ U.T)) < 1e-14
        b = rng.standard_normal((3, U.shape[0]))
        assert np.max(np.abs(complex_mode_columns(b, N) - b @ U.T)) < 1e-14

    def test_real_table_single_point_matches_its_column_in_a_batch(self):
        # the batch is past the gather limit, so the two ways of applying
        # the factors meet here; they must agree bit for bit
        points = np.random.default_rng(23).uniform(-0.4, 0.4, (700, 3))
        r = np.linalg.norm(points, axis=1)
        batch = specfun.real_regular_basis(10, 20.0, points, r)
        assert batch.size > specfun._GATHER_LIMIT
        for i in (0, 350, 699):
            one = specfun.real_regular_basis(10, 20.0, points[i:i + 1], r[i:i + 1])
            assert np.array_equal(one[:, 0], batch[:, i])

    @pytest.mark.parametrize("P,top", [(1, 10), (4, 25), (5, 25), (121, 10), (121, 40)],
                             ids=["1-point", "4-points", "5-points", "121-points",
                                  "past-gather-limit"])
    def test_lower_orders_are_leading_rows_of_a_higher_table(self, P, top):
        # synthesis builds one angular table per array and slices each order
        # from it: that slice must be the order's own table bit for bit
        points = np.random.default_rng(P).uniform(-0.4, 0.4, (P, 3))
        points[:2] = [[0.0, 0.0, 0.0], [0.0, 0.0, -0.3]][:P]  # the origin and a pole
        r = np.linalg.norm(points, axis=1)
        full = specfun.real_harmonics(top, points, r)
        assert (full.size > specfun._GATHER_LIMIT) == (top == 40)
        for N in range(top):
            assert np.array_equal(full[:specfun.mode_count(N)],
                                  specfun.real_harmonics(N, points, r))

    def test_real_table_at_origin_and_poles_raises_nothing(self):
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, -0.3]])
        with np.errstate(all="raise"):
            got = specfun.real_regular_basis(25, 20.0, points, np.linalg.norm(points, axis=1))
        assert got[0, 0] == 1.0 / math.sqrt(4.0 * math.pi)
        assert np.all(got[1:, 0] == 0.0)

    def test_tables_build_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = np.vstack([unit_points([0.0, 1.0, math.pi], [0.0, 2.0, 6.0]), np.zeros(3)])
            for N in (0, 1, 2, 31):
                specfun.real_harmonics(N, points, np.linalg.norm(points, axis=1))

    @pytest.mark.parametrize("N", BESSEL_ORDERS)
    def test_bessel_j_matrix_rows(self, N):
        x = BESSEL_GRID
        j, y = scipy_rows(N, x)
        table = specfun.bessel_j_matrix(N, x)
        assert table.shape == ((N + 1) ** 2, x.size)
        assert np.array_equal(table, order_rows(table, N)[specfun.harmonic_orders(N)])
        got = order_rows(table, N)
        keep = away_from_zeros(N, x, j, y)
        rel = np.abs(got - j)[keep] / np.abs(j[keep])
        assert rel.max() < 1e-12
        # row 0 is sin x / x itself, as in scipy, bit for bit
        assert np.array_equal(got[0], j[0])

    @pytest.mark.parametrize("N", BESSEL_ORDERS)
    def test_bessel_rows_absolute_error(self, N):
        # held against exact values: scipy's own branch for n >= x is off by
        # 1.0e-15 on this grid (j_8 at the zero of j_3)
        got = order_rows(specfun.bessel_j_matrix(N, BESSEL_GRID), N)
        assert np.max(np.abs(got - mpmath_rows(N, BESSEL_GRID))) < 1e-15

    @pytest.mark.parametrize("N", BESSEL_ORDERS)
    def test_hankel_h1_matrix_rows(self, N):
        x = BESSEL_GRID[BESSEL_GRID > 0]
        _, y = scipy_rows(N, x)
        finite = np.isfinite(y[-1])  # y_N overflows at the smallest x
        x, y = x[finite], y[:, finite]
        table = specfun.hankel_h1_matrix(N, x)
        assert np.array_equal(table.real, specfun.bessel_j_matrix(N, x))
        assert np.max(np.abs(order_rows(table, N).imag - y) / np.abs(y)) < 1e-13

    def test_bessel_tables_build_without_warnings(self):
        x = np.concatenate([BESSEL_GRID, np.linspace(0.0, 300.0, 4001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for N in BESSEL_ORDERS:
                specfun.bessel_j_matrix(N, x)
                specfun.hankel_h1_matrix(N, x[x >= 1e-3])

    def test_high_orders_rescaled_not_overflowed(self):
        # at N = 150 the recurrence grows past 1e300 between start and x = 1
        x = np.array([1.0, 1.5, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = order_rows(specfun.bessel_j_matrix(150, x), 150)
        exact = mpmath_rows(150, x)
        assert np.max(np.abs(got - exact)) < 1e-15
        keep = np.abs(exact) > 1e-290
        assert np.max(np.abs(got - exact)[keep] / np.abs(exact[keep])) < 1e-12

    @pytest.mark.parametrize("N", [0, 5, 40])
    def test_single_point_matches_its_row_in_a_batch(self, N):
        # each point's start index depends on its own x alone, so its row does
        # not change with the other points, here x = 1 beside x = 300
        rng = np.random.default_rng(N)
        x = np.concatenate([BESSEL_GRID, rng.uniform(0.0, 300.0, 4000 - BESSEL_GRID.size)])
        batch = specfun.bessel_j_matrix(N, x)
        for i in [*range(BESSEL_GRID.size), *rng.integers(0, x.size, 20)]:
            single = specfun.bessel_j_matrix(N, x[i:i + 1])[:, 0]
            assert np.max(np.abs(single - batch[:, i])) <= 1e-15

    @pytest.mark.parametrize("x", [-1.0, np.nan, np.inf])
    def test_invalid_bessel_arguments_rejected(self, x):
        with pytest.raises(ValueError):
            specfun.bessel_j_matrix(3, [1.0, x])

    def test_harmonic_orders(self):
        orders = specfun.harmonic_orders(4)
        assert orders.tolist() == [n for n in range(5) for _ in range(2 * n + 1)]
        assert specfun.harmonic_orders(4) is orders
        with pytest.raises(ValueError):
            orders[0] = 1


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFloatLoops:
    """Up to _SCALAR_LIMIT points the recursions run on Python floats; past it,
    on arrays.  Both ways give the same bits at every point count."""

    @staticmethod
    def both_ways(table, *args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "_SCALAR_LIMIT", 10 ** 6)
            floats = table(*args)
            mp.setattr(specfun, "_SCALAR_LIMIT", -1)
            arrays = table(*args)
        return floats, arrays

    # N = 80 and 150 near x = 1 grow past 2^600 and are rescaled (see
    # test_high_orders_rescaled_not_overflowed)
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(st.integers(0, 40), st.sampled_from([80, 150])),
        st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 3.0), st.floats(1.0, 300.0)),
                 min_size=1, max_size=specfun._SCALAR_LIMIT + 1),
    )
    @example(N=150, x=[1.0, 1.5, 3.0])
    @example(N=40, x=[0.5, 1.0, 300.0])
    def test_miller_rows(self, N, x):
        assert same_bits(*self.both_ways(specfun.bessel_j_rows, N, np.array(x)))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 40),
        st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.0, 0.0, 1.0])),
                 min_size=1, max_size=specfun._SCALAR_LIMIT + 1),
    )
    @example(N=40, t=[1.0, -1.0])
    def test_legendre_rows(self, N, t):
        assert same_bits(*self.both_ways(specfun._legendre_q, N, np.array(t)))
