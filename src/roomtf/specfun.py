"""Spherical Bessel/Hankel functions, orthonormal spherical harmonics, Wigner 3-j.

All harmonics are complex orthonormal with the Condon-Shortley phase, matching
``scipy.special.sph_harm_y``.  Everything here is pure and reentrant.

The basis tables ``harmonic_matrix``, ``bessel_j_matrix`` and
``hankel_h1_matrix`` are the one basis primitive of every matrix builder.
Rows run over the flat index n^2 + n + m, columns over points.

``harmonic_matrix`` writes Y_nm = P_nm(cos theta) e^{i m phi}, with P_nm the
fully normalized associated Legendre function (orthonormal on the sphere once
multiplied by e^{i m phi}, Condon-Shortley phase (-1)^m included).  For
m >= 0 it runs the standard forward column recursion (Holmes and
Featherstone, J. Geodesy 76, 2002) on q_nm = P_nm / sin^m(theta):

    q_00 = 1 / sqrt(4 pi),  q_mm = -sqrt((2m + 1) / (2m)) q_{m-1,m-1},
    q_nm = a_nm cos(theta) q_{n-1,m} - b_nm q_{n-2,m}   (m < n),
    a_nm = sqrt((4n^2 - 1) / (n^2 - m^2)),
    b_nm = sqrt(((n-1)^2 - m^2) (2n + 1) / ((2n - 3) (n^2 - m^2))),

then multiplies by (sin(theta) e^{i phi})^m, built by repeated products.
Negative degrees follow from Y_n^{-m} = (-1)^m conj(Y_nm).  The tests check
it against per-(n, m) ``sph_harm_y`` to 1e-13 absolute for N <= 25,
including the poles and azimuths next to 0 and 2 pi.  The Bessel and Hankel
tables evaluate each order once and repeat it over the 2n + 1 degrees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp


@dataclass(frozen=True)
class HarmonicIndex:
    """Order/degree pair (n, m) with |m| <= n."""

    order: int
    degree: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if abs(self.degree) > self.order:
            raise ValueError(
                f"|degree| must be <= order, got (n={self.order}, m={self.degree})"
            )

    @property
    def flat(self) -> int:
        """Zero-based flat index n^2 + n + m (the 1-based convention adds 1)."""
        return self.order * self.order + self.order + self.degree

    @classmethod
    def from_flat(cls, flat: int) -> "HarmonicIndex":
        n = math.isqrt(flat)
        return cls(n, flat - n * n - n)


def harmonic_indices(max_order: int) -> list[HarmonicIndex]:
    """All (n, m) with n <= max_order in flat-index order; length (N+1)^2."""
    return [
        HarmonicIndex(n, m) for n in range(max_order + 1) for m in range(-n, n + 1)
    ]


def mode_count(max_order: int) -> int:
    return (max_order + 1) ** 2


def spherical_bessel_j(n: int, x) -> float:
    """j_n(x); j_0(0) = 1 and j_n(0) = 0 for n > 0."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return _sp.spherical_jn(n, x)


# Vectorized basis tables used by the matrix builders downstream.  Rows run over
# the flat (n, m) index, columns over the supplied points.

@lru_cache(maxsize=64)
def harmonic_orders(max_order: int) -> np.ndarray:
    """Order n of each flat row n^2 + n + m: shape ((N+1)^2,), cached, read-only."""
    n = np.repeat(np.arange(max_order + 1), 2 * np.arange(max_order + 1) + 1)
    n.flags.writeable = False
    return n


@dataclass(frozen=True)
class _LegendreTables:
    """Per-N constants of ``harmonic_matrix``; columns broadcast over points.

    The recursion runs on q_nm = P_nm(cos theta) / sin^m(theta), which for
    m = n is a constant.
    """

    a: tuple  # a[n]: weights of t q_{n-1,m}, m < n
    b: tuple  # b[n]: weights of q_{n-2,m}, m < n - 1
    sectoral_rows: np.ndarray  # flat rows n^2 + 2n
    sectoral: np.ndarray  # q_nn there
    w_rows: np.ndarray  # N + m for each flat row
    neg_sign: np.ndarray  # (-1)^m for m = N, ..., 1


@lru_cache(maxsize=64)
def _legendre_tables(max_order: int) -> _LegendreTables:
    a, b = [None], [None, None]
    for n in range(1, max_order + 1):
        m = np.arange(n, dtype=float)
        a.append(np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))[:, None])
    for n in range(2, max_order + 1):
        m = np.arange(n - 1, dtype=float)
        b.append(np.sqrt(
            ((n - 1.0) ** 2 - m * m) * (2.0 * n + 1.0) / ((2.0 * n - 3.0) * (n * n - m * m))
        )[:, None])
    sectoral = np.empty(max_order + 1)
    sectoral[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, max_order + 1):
        # the minus sign is the Condon-Shortley phase
        sectoral[m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sectoral[m - 1]
    n = np.arange(max_order + 1)
    orders = harmonic_orders(max_order)
    return _LegendreTables(
        a=tuple(a), b=tuple(b),
        sectoral_rows=n * n + 2 * n, sectoral=sectoral[:, None],
        w_rows=max_order + np.arange(orders.size) - orders * orders - orders,
        neg_sign=np.where(n[:0:-1] % 2, -1.0, 1.0)[:, None],
    )


def harmonic_matrix(max_order: int, theta, phi) -> np.ndarray:
    """Y_nm at each point: shape ((N+1)^2, P).

    Loops over n only: each step of the normalized Legendre recursion
    updates every m < n and every point at once.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    N = max_order
    tab = _legendre_tables(N)
    t = np.cos(theta)
    q = np.empty((mode_count(N), theta.size))
    q[tab.sectoral_rows] = tab.sectoral
    for n in range(1, N + 1):
        c, c1 = n * n + n, n * n - n  # rows (n, 0) and (n-1, 0)
        row = q[c:c + n]
        np.multiply(q[c1:c1 + n], tab.a[n], out=row)
        row *= t
        if n > 1:
            c2 = c1 - 2 * n + 2
            row[:-1] -= tab.b[n] * q[c2:c2 + n - 1]
        q[n * n:c] = q[c + n:c:-1]  # q_{n,-m} = q_nm
    # w[N + m] = sin^m(theta) e^{i m phi} by repeated products, and
    # w[N - m] = (-1)^m conj(w[N + m]) since Y_n^{-m} = (-1)^m conj(Y_nm)
    w = np.empty((2 * N + 1, theta.size), dtype=complex)
    w[N] = 1.0
    w[N + 1:] = np.sin(theta) * (np.cos(phi) + 1j * np.sin(phi))
    np.multiply.accumulate(w[N:], axis=0, out=w[N:])
    w[:N] = tab.neg_sign * np.conj(w[:N:-1])
    out = w[tab.w_rows]
    out *= q
    return out


def bessel_j_matrix(max_order: int, x) -> np.ndarray:
    """j_n at each point, repeated per degree: shape ((N+1)^2, P)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    j = _sp.spherical_jn(np.arange(max_order + 1)[:, None], x[None, :])
    return j[harmonic_orders(max_order)]


def hankel_h1_matrix(max_order: int, x) -> np.ndarray:
    """h_n at each point, repeated per degree: shape ((N+1)^2, P)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("hankel_h1_matrix requires x > 0")
    n = np.arange(max_order + 1)[:, None]
    h = _sp.spherical_jn(n, x[None, :]) + 1j * _sp.spherical_yn(n, x[None, :])
    return h[harmonic_orders(max_order)]


def _lf(n: int) -> float:
    return math.lgamma(n + 1)


@lru_cache(maxsize=None)
def wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3-j symbol via the Racah single-sum formula with log-factorials.

    Selection-rule failures return exactly 0.0 (the mathematical value).
    Stable for j up to ~40, far beyond the orders needed here.
    """
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if m1 + m2 + m3 != 0 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    pref = 0.5 * (
        _lf(j1 + j2 - j3) + _lf(j1 - j2 + j3) + _lf(-j1 + j2 + j3)
        - _lf(j1 + j2 + j3 + 1)
        + _lf(j1 + m1) + _lf(j1 - m1)
        + _lf(j2 + m2) + _lf(j2 - m2)
        + _lf(j3 + m3) + _lf(j3 - m3)
    )
    tmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    tmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = 0.0
    for t in range(tmin, tmax + 1):
        denom = (
            _lf(t) + _lf(j3 - j2 + m1 + t) + _lf(j3 - j1 - m2 + t)
            + _lf(j1 + j2 - j3 - t) + _lf(j1 - m1 - t) + _lf(j2 + m2 - t)
        )
        total += (-1) ** t * math.exp(pref - denom)
    return (-1) ** (j1 - j2 - m3) * total
