"""Spherical Bessel/Hankel functions and real orthonormal spherical harmonics.

Everything here is pure and reentrant, and needs numpy only.  Rows of every
table run over the flat index n^2 + n + m, columns over points.

The harmonics are real: the basis S of the complex orthonormal Y_nm with the
Condon-Shortley phase (``scipy.special.sph_harm_y``),

    S_n0 = Y_n0,  S_nm = sqrt 2 Re Y_nm,  S_n,-m = sqrt 2 Im Y_nm   (m > 0),

so Y = U S with U unitary, pairing rows (n, m) and (n, -m).

``real_harmonics`` is the table S at Cartesian points, ``real_regular_basis``
j_n(k|x|) S_nm(x-hat), the one table of T' and the queries.  An
``AngularTable`` (``angular_table``) holds S and |x| at fixed points, the
part that does not depend on frequency: ``synthesis`` builds T from it and
``bessel_j_rows``, ``recording`` the encoder and the direct field from it,
so that one table serves every bin.  Every stored coefficient is in this
basis.  ``translation`` integrates triple products of S exactly on a
Gauss-Legendre grid (its real Gaunt integrals; the exactness condition is
stated there).  The tables read
cos(theta) = z / r and (sin(theta) e^{i phi})^m = ((x + i y) / r)^m from
the coordinates.  The tests check them against scipy to 1e-13 absolute for
N <= 25, poles and origin included.  The Legendre part is the forward column
recursion (Holmes and Featherstone, J. Geodesy 76, 2002) on
q_nm = P_nm / sin^m(theta), P_nm fully normalized with the Condon-Shortley
phase:

    q_00 = 1 / sqrt(4 pi),  q_mm = -sqrt((2m + 1) / (2m)) q_{m-1,m-1},
    q_nm = a_nm cos(theta) q_{n-1,m} - b_nm q_{n-2,m}   (m < n),
    a_nm = sqrt((4n^2 - 1) / (n^2 - m^2)),
    b_nm = sqrt(((n-1)^2 - m^2) (2n + 1) / ((2n - 3) (n^2 - m^2))),

then multiplies by sqrt 2 Re and sqrt 2 Im of (sin(theta) e^{i phi})^m,
built by repeated products.

The Bessel and Hankel tables evaluate every order 0 ... N at every point in
one sweep, then repeat each order over its 2n + 1 degrees.  Row 0 is always
sin x / x itself (1 at x = 0).  Each point takes one of three branches by
its own x alone, so one point gives the same row alone as in a batch.  For
x < 1 (``SERIES_LIMIT``) j_n is its power series

    j_n(x) = x^n / (2n+1)!! sum_k (-x^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1)),

8 terms, which gives exactly (1, 0, ..., 0) at x = 0 and underflows to 0
quietly for tiny x.  For x > N + 1 every order lies below the turning point
n ~ x, where the upward recurrence j_{n+1} = (2n+1)/x j_n - j_{n-1}
(DLMF 10.51.1) is stable (Gautschi, SIAM Review 9, 1967): N steps from
j_0 = sin x / x and j_1 = (j_0 - cos x) / x, within 1.1e-16 absolute of
40-digit values for N <= 40, N + 1 < x <= 300.  For 1 <= x <= N + 1, j_n
comes from Miller's algorithm (DLMF 3.6(iii)) on the same recurrence run down:
from 1 at the start index M = max(N, x) + 8 max(N, x)^(1/3) + 2, zero
above, down to n = 0, then normalized to whichever of j_0 and j_1 is
larger.  Past the turning point the minimal solution j_n falls off within a
few x^(1/3) orders, and the margin 8 m^(1/3) + 2 puts j_M / y_M below 1e-17
relative to j_N / y_N; as x <= N + 1 there, M stays below
N + 1 + 8 (N + 1)^(1/3) + 2 whatever the largest x of the call, and a
column that grows past 2^600 is scaled by an exact 2^-600, so small x and
high orders share a call without overflow.  y_n runs upward from
y_0 = -cos x / x and y_1, the stable direction for the dominant solution.

A table of at most _SCALAR_LIMIT = 4 points, such as the two points of a
one-pair query, runs the Legendre and Miller recursions one point at a time
on Python floats: there numpy's fixed cost per call, paid on each of the
N Legendre steps and the M Miller steps (29 at N = 10), outweighs the
arithmetic.  Each entry takes the same operations in the same order as in
the array loops, so both give the same bits.  Timed against the array loops
(2-core x86 VM), the Python loops built the whole j_n S_nm table faster up
to 8-10 points at N = 5 ... 10, and broke even at 4 points at N = 40: the
limit is that crossover at the top of the tested domain.

Tested domain: N <= 40 and 0 <= x <= 300.  Against 40-digit values j_n is
within 1e-15 absolute everywhere; against scipy within 1e-12 relative for
|j_n| > 1e-290 away from a zero (5 % of the envelope |h_n|), and y_n within
1e-13 relative wherever scipy's y_N is finite.  Near the zeros of an order
n < x the error stays absolute, a few ulp of the envelope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError


def mode_count(max_order: int) -> int:
    return (max_order + 1) ** 2


@lru_cache(maxsize=64)
def harmonic_orders(max_order: int) -> np.ndarray:
    """Order n of each flat row n^2 + n + m: shape ((N+1)^2,), cached, read-only.

    The degree of row i is m = i - n^2 - n.
    """
    n = np.repeat(np.arange(max_order + 1), 2 * np.arange(max_order + 1) + 1)
    n.flags.writeable = False
    return n


@dataclass(frozen=True)
class _LegendreTables:
    """Per-N constants of ``_legendre_q`` and ``real_harmonics``; columns broadcast over points.

    The recursion runs on q_nm = P_nm(cos theta) / sin^m(theta), which for
    m = n is a constant.
    """

    a: tuple  # a[n]: weights of t q_{n-1,m}, m < n
    b: tuple  # b[n]: weights of q_{n-2,m}, m < n - 1
    # per degree m, Python floats: (q_mm, ((a_nm, b_nm) for n = m+1 ... N)), b_{m+1,m} = 0
    by_degree: tuple
    degree_major_rows: np.ndarray  # for each flat row, its entry in degree-major order
    sectoral_rows: np.ndarray  # flat rows n^2 + 2n
    sectoral: np.ndarray  # q_nn there
    w_rows: np.ndarray  # N + m for each flat row


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
    degrees = np.arange(orders.size) - orders * orders - orders  # m of each flat row
    m_abs = np.abs(degrees)
    return _LegendreTables(
        a=tuple(a), b=tuple(b),
        by_degree=tuple(
            (float(sectoral[m]), tuple(
                (float(a[n][m, 0]), float(b[n][m, 0]) if n > m + 1 else 0.0)
                for n in range(m + 1, max_order + 1)))
            for m in range(max_order + 1)
        ),
        # degree m's run of orders n = m ... N starts at sum_{m' < m} (N + 1 - m')
        degree_major_rows=m_abs * (max_order + 1) - m_abs * (m_abs - 1) // 2 + orders - m_abs,
        sectoral_rows=n * n + 2 * n, sectoral=sectoral[:, None],
        w_rows=max_order + degrees,
    )


def _legendre_q(max_order: int, t: np.ndarray) -> np.ndarray:
    """q_nm = P_nm(t) / sin^m(theta) at t = cos(theta): shape ((N+1)^2, P).

    Row n^2 + n - m repeats row n^2 + n + m.  Loops over n only: each step of
    the normalized Legendre recursion updates every m < n and every point at
    once.  Up to _SCALAR_LIMIT points ``_legendre_floats`` runs instead.
    """
    if t.size <= _SCALAR_LIMIT:
        return _legendre_floats(max_order, t)
    N = max_order
    tab = _legendre_tables(N)
    q = np.empty((mode_count(N), t.size))
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
    return q


def _legendre_floats(max_order: int, t: np.ndarray) -> np.ndarray:
    """``_legendre_q`` one point at a time on Python floats.

    Runs up the orders n of one degree m at a time, carrying q_{n-1,m} and
    q_{n-2,m} along, which needs no table lookups; each entry takes the same
    operations in the same order as there, (q_{n-1,m} a_nm) t - b_nm q_{n-2,m},
    so the table has the same bits.  The first step, q_{m+1,m}, has no
    q_{n-2,m} term there; here it subtracts 0 * 0, and v - 0.0 is v, bit for bit.
    """
    tab = _legendre_tables(max_order)
    q = np.empty((t.size, (max_order + 1) * (max_order + 2) // 2))
    for i, ti in enumerate(t.tolist()):
        col = []
        for q_mm, steps in tab.by_degree:
            q0, q1 = 0.0, q_mm
            col.append(q1)
            for a, b in steps:
                q0, q1 = q1, q1 * a * ti - b * q0
                col.append(q1)
        q[i] = col
    # C order, as the array loop's table: later products take their BLAS path,
    # and so their rounding, from the layout
    return np.ascontiguousarray(q.T[tab.degree_major_rows])


# j_n below this argument comes from its power series, at or above it from
# a recurrence; _SERIES_TERMS terms of the series reach 1 ulp there
SERIES_LIMIT = 1.0
_SERIES_TERMS = 8
# start index max(N, x) + _START_SLOPE * max(N, x)^(1/3) + _START_PAD
_START_SLOPE = 8.0
_START_PAD = 2
# a recurrence column past _RESCALE is multiplied by 1 / _RESCALE (exact)
_RESCALE = 2.0 ** 600
_HEADROOM = 423.0 * math.log(2.0)  # log(2^1023 / _RESCALE)


@lru_cache(maxsize=64)
def _series_factors(max_order: int) -> tuple:
    """1 / (2n + 1) per row, and 1 / (k (2n + 2k + 1)) per series term k."""
    n = np.arange(max_order + 1)[:, None]
    k = np.arange(_SERIES_TERMS, 0, -1)[:, None, None]
    return 1.0 / (2 * n + 1), 1.0 / (k * (2 * n + 2 * k + 1))


def _series_rows(max_order: int, x: np.ndarray) -> np.ndarray:
    """j_n = x^n / (2n+1)!! * sum_k (-x^2/2)^k / (k! prod_{i<=k} (2n+2i+1)), x < 1."""
    inv_odd, term = _series_factors(max_order)
    lead = x * inv_odd
    lead[0] = 1.0
    np.multiply.accumulate(lead, axis=0, out=lead)  # x^n / (2n+1)!!, underflows to 0
    t = -0.5 * x * x
    s = np.ones_like(lead)
    for c in term:  # Horner, innermost term first
        s *= c * t
        s += 1.0
    return lead * s


def _miller_rows(max_order: int, x: np.ndarray, j0: np.ndarray, cos_x: np.ndarray) -> np.ndarray:
    """j_0 ... j_N (N >= 1) at 1 <= x <= N + 1 by Miller's downward recurrence.

    Each column starts from f = 1 at its own start index (zeros above) and
    runs f_{n-1} = (2n+1)/x f_n - f_{n+1} down to n = 0, so a column's result
    does not depend on the other points of the call.  A column past _RESCALE
    is scaled down by an exact power of two; the per-step growth bound
    (2n+1)/x + 1 sets how often that is checked.  The column is normalized
    to whichever of j_0 = sin x / x and j_1 = (j_0 - cos x) / x is larger.
    Up to _SCALAR_LIMIT points the loop runs on Python floats.
    """
    m = np.maximum(x, max_order)
    starts = (m + _START_SLOPE * np.cbrt(m)).astype(int) + _START_PAD
    every = max(1, int(_HEADROOM / math.log((2 * int(starts.max()) + 1) / x.min() + 1.0)))
    loop = _miller_floats if x.size <= _SCALAR_LIMIT else _miller_arrays
    f = loop(max_order, x, starts, every)
    j1 = (j0 - cos_x) / x
    use_j0 = np.abs(j0) >= np.abs(j1)
    f *= np.where(use_j0, j0, j1) / np.where(use_j0, f[0], f[1])
    return f


def _miller_arrays(max_order: int, x: np.ndarray, starts: np.ndarray, every: int) -> np.ndarray:
    """The unnormalized rows 0 ... N of ``_miller_rows``, every point at each step."""
    top = int(starts.max())
    seeds = {int(s): np.flatnonzero(starts == s) for s in np.unique(starts)[:-1]}
    coef = (2.0 * np.arange(top + 1) + 1.0)[:, None] / x  # (2n+1)/x in row n
    f = np.zeros((top + 2, x.size))
    f[top] = starts == top
    for n in range(top, 0, -1):
        row = f[n - 1]
        np.multiply(f[n], coef[n], out=row)
        row -= f[n + 1]
        if n - 1 in seeds:
            row[seeds[n - 1]] = 1.0
        if n % every == 0:
            hot = np.maximum(np.abs(row), np.abs(f[n])) > _RESCALE
            if hot.any():
                f[n - 1:, hot] /= _RESCALE
    return f[:max_order + 1]


def _miller_floats(max_order: int, x: np.ndarray, starts: np.ndarray, every: int) -> np.ndarray:
    """``_miller_arrays`` one point at a time on Python floats.

    Each step takes the same operations in the same order, f_n ((2n+1)/x)
    - f_{n+1}, and a column is rescaled at the same steps, so the rows have
    the same bits.
    """
    f = np.empty((max_order + 1, x.size))
    for i, (xi, start) in enumerate(zip(x.tolist(), starts.tolist())):
        above, here, rows = 0.0, 1.0, []  # f_{n+1}, f_n; rows N, N-1, ... kept so far
        for n in range(start, 0, -1):
            below = here * ((2.0 * n + 1.0) / xi) - above
            if n % every == 0 and max(abs(below), abs(here)) > _RESCALE:
                below, here = below / _RESCALE, here / _RESCALE
                rows = [v / _RESCALE for v in rows]
            if n <= max_order + 1:
                rows.append(below)
            above, here = here, below
        f[:, i] = rows[::-1]
    return f


def _upward_rows(max_order: int, x: np.ndarray, j0: np.ndarray, cos_x: np.ndarray) -> np.ndarray:
    """j_0 ... j_N (N >= 1) at x > N + 1 by the upward recurrence.

    From j_0 = sin x / x and j_1 = (j_0 - cos x) / x, each step is
    j_{n+1} = j_n ((2n+1)/x) - j_{n-1} (DLMF 10.51.1), the stable direction
    below the turning point n ~ x.  Every operation is elementwise, so a
    column has the same bits alone as in any batch.
    """
    j = np.empty((max_order + 1, x.size))
    j[0], j[1] = j0, (j0 - cos_x) / x
    for n in range(1, max_order):
        np.multiply(j[n], (2.0 * n + 1.0) / x, out=j[n + 1])
        j[n + 1] -= j[n - 1]
    return j


def bessel_j_rows(max_order: int, x) -> np.ndarray:
    """j_0 ... j_N at each point, one row per order: shape (N + 1, P).

    Row 0 is sin x / x itself (1 at x = 0); the fig2 condition numbers near
    j_0(kR) = 0 depend on it.  Points with x < 1 take the series, points
    with x > N + 1 the upward recurrence and the rest Miller's; a call whose
    points all fall in one branch, read from x.min() and x.max(), takes no
    mask.  A column has the same bits alone as in any batch, so callers may
    batch points of several tables into one call.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError("spherical Bessel tables require finite x >= 0")
    N = max(max_order, 1)  # the normalization and the upward start read rows 0 and 1
    j0 = np.divide(np.sin(x), x, out=np.ones_like(x), where=x > 0.0)
    with np.errstate(under="ignore"):
        if hi < SERIES_LIMIT:
            j = _series_rows(N, x)
        elif lo > N + 1:
            j = _upward_rows(N, x, j0, np.cos(x))
        elif lo >= SERIES_LIMIT and hi <= N + 1:
            j = _miller_rows(N, x, j0, np.cos(x))
        else:  # two or three branches; a mask only for the branches x.min()/x.max() reach
            j = np.empty((N + 1, x.size))
            middle = x >= SERIES_LIMIT
            if lo < SERIES_LIMIT:
                small = ~middle
                j[:, small] = _series_rows(N, x[small])
            if hi > N + 1:
                large = x > N + 1
                j[:, large] = _upward_rows(N, x[large], j0[large], np.cos(x[large]))
                middle &= ~large
            if middle.any():
                j[:, middle] = _miller_rows(N, x[middle], j0[middle], np.cos(x[middle]))
    j[0] = j0
    return j[:max_order + 1]


_SQRT2 = math.sqrt(2.0)
# Up to this many entries, the real tables apply their azimuthal and Bessel
# factors by gathers, the fewest numpy calls; above it, by one in-place
# product per order, which needs no table-sized temporary.  Either way the
# products are the same, bit for bit.
_GATHER_LIMIT = 1 << 16
# Up to this many points, the Legendre and Miller recursions run one point at
# a time on Python floats (see the module docstring); either way gives the
# same bits.
_SCALAR_LIMIT = 4


def real_harmonics(max_order: int, points, r) -> np.ndarray:
    """S_nm(x-hat) at Cartesian points (P, 3): shape ((N+1)^2, P), real.

    ``r`` holds |x| per point, shape (P,), which the caller has from its own
    checks.  cos(theta) = z / r and sin^m(theta) e^{i m phi} = ((x + i y) / r)^m
    come straight from the coordinates; the origin maps to the north pole.
    """
    N = max_order
    away = r > 0.0
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=away)
    t = np.divide(points[:, 2], r, out=np.ones_like(r), where=away)
    basis = _legendre_q(N, t)
    # u[m] = ((x + i y) / r)^m; w[N + m] = sqrt 2 Re u[m], w[N - m] = sqrt 2 Im u[m]
    u = np.empty((N + 1, r.size), dtype=complex)
    u[0] = 1.0
    u[1:] = (points[:, 0] + 1j * points[:, 1]) * inv_r
    np.multiply.accumulate(u, axis=0, out=u)
    w = np.empty((2 * N + 1, r.size))
    w[N] = 1.0
    np.multiply(u[1:].real, _SQRT2, out=w[N + 1:])
    np.multiply(u[:0:-1].imag, _SQRT2, out=w[:N])
    del u
    if basis.size <= _GATHER_LIMIT:
        basis *= w[_legendre_tables(N).w_rows]
        return basis
    for n in range(1, N + 1):
        basis[n * n:(n + 1) * (n + 1)] *= w[N - n:N + n + 1]
    return basis


@dataclass(frozen=True)
class AngularTable:
    """S_nm(x-hat) and |x| at fixed points, the frequency-independent part of
    j_n(k|x|) S_nm(x-hat); ``angular_table`` builds it, both arrays read-only.

    Rows [:(n+1)^2] of ``harmonics`` are the order-n table bit for bit, so
    one table, built to the highest order in use, serves every lower order.
    """

    harmonics: np.ndarray  # ((N+1)^2, P)
    radii: np.ndarray  # (P,)


def angular_table(max_order: int, points) -> AngularTable:
    """The ``AngularTable`` to order N at the rows of ``points`` (P, 3)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
        raise ConfigurationError(f"points must be a (P >= 1, 3) array, got shape {points.shape}")
    r = np.linalg.norm(points, axis=1)
    table = AngularTable(real_harmonics(max_order, points, r), r)
    table.harmonics.flags.writeable = table.radii.flags.writeable = False
    return table


def real_regular_basis(max_order: int, k: float, points, r) -> np.ndarray:
    """j_n(k|x|) S_nm(x-hat) at Cartesian points (P, 3): shape ((N+1)^2, P), real.

    ``real_harmonics`` times the Bessel rows; ``r`` as there.
    """
    N = max_order
    basis = real_harmonics(N, points, r)
    if basis.size <= _GATHER_LIMIT:
        basis *= bessel_j_rows(N, k * r)[harmonic_orders(N)]
        return basis
    # row block by row block, in place: the call never holds two tables
    j = bessel_j_rows(N, k * r)
    for n in range(N + 1):
        basis[n * n:(n + 1) * (n + 1)] *= j[n]
    return basis


def hankel_h1_matrix(max_order: int, x) -> np.ndarray:
    """h_n = j_n + i y_n at each point, repeated per degree: shape ((N+1)^2, P).

    j_n is ``bessel_j_rows``; y_n runs up from y_0 = -cos x / x and
    y_1 = (y_0 - sin x) / x by y_{n+1} = (2n+1)/x y_n - y_{n-1}, the stable
    direction for y.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        raise ValueError("hankel_h1_matrix requires finite x > 0")
    h = np.empty((max_order + 1, x.size), dtype=complex)
    h.real = bessel_j_rows(max_order, x)
    y = h.imag
    inv_x = 1.0 / x
    y[0] = -np.cos(x) * inv_x
    if max_order:
        y[1] = (y[0] - np.sin(x)) * inv_x
    for n in range(1, max_order):
        np.multiply(y[n], inv_x, out=y[n + 1])
        y[n + 1] *= 2 * n + 1
        y[n + 1] -= y[n - 1]
    return h[harmonic_orders(max_order)]
