"""Reference physics for the tests, kept apart from the library.

Each function is the plain per-point or per-bin formula, so a batched path in
``roomtf`` can be checked against it:

* ``rtf_oracle_many`` is the image-source sum at one frequency, one exact
  ``exp`` per image; ``room.rtf_oracle_grid`` is checked against it bin by bin.
* ``positions`` is each image's position (M, ..., 3) from the lattice rows,
  the reference for ``ImageLattice.axis_positions``.
* ``contains`` is the pointwise room test that ``RoomModel.check_inside``
  is checked against.
* ``complex_T`` is the complex loudspeaker translation matrix from scipy;
  ``synthesis.build_T`` builds its real counterpart k S.
* ``wigner_3j`` is the Racah single-sum formula with log-factorials, and
  ``complex_term_table`` the sparse term list of the complex S-hat built from
  it; ``translation`` builds its real term table from real Gaunt integrals
  instead, and the tests map this list onto the real basis to check it.
* ``harmonics`` is the complex Y_nm table from ``scipy.special.sph_harm_y``,
  ``unitary_U`` the dense matrix U of Y = U S written out entry by entry,
  ``complex_mode_columns`` the product a U^T by (n, m), (n, -m) pairing, and
  ``cartesian_to_spherical_arrays`` the angles the tables need; the library
  reads its angles from the coordinates and stores every coefficient in the
  real basis S.
* ``pinv_encoding_matrix`` is the encoder as one least-squares fit per
  bin, the pseudoinverse of the j_n(k r_i) S table at each omni's own
  radius, ``per_bin_direct_coefficients`` the direct-field coefficients
  with every table rebuilt per bin, and ``s_hat_blocks_across`` the S-hat
  blocks summed across the terms axis of the transposed table;
  ``recording`` and ``translation`` factor or reorder each of these.
* The field evaluators work on plain coefficient arrays in flat (n, m)
  order, of length (N+1)^2; N is read back from the length.  Points are
  Cartesian; the harmonics come from scipy, the Bessel rows from the
  library's tables, repeated per degree by ``bessel_j_matrix``.
"""
import math
from functools import lru_cache

import numpy as np
from scipy import special as sp

from roomtf import specfun, translation
from roomtf.errors import BesselZeroError, ConfigurationError
from roomtf.modal import COINCIDENT_DISTANCE, WaveContext
from roomtf.room import ImageLattice, RoomModel, image_lattice


def cartesian_to_spherical_arrays(points: np.ndarray):
    """(..., 3) -> (r, theta, phi) arrays; the zero vector maps to (0, 0, 0).

    theta = atan2(hypot(x, y), z) keeps full precision at the poles, where
    acos(z / r) loses it.
    """
    points = np.asarray(points, dtype=float)
    r = np.linalg.norm(points, axis=-1)
    theta = np.arctan2(np.hypot(points[..., 0], points[..., 1]), points[..., 2])
    phi = np.arctan2(points[..., 1], points[..., 0]) % (2.0 * np.pi)
    return r, theta, phi


def flat_orders_degrees(max_order: int):
    """(n, m) of each flat row n^2 + n + m as ((N+1)^2, 1) columns, built apart from specfun."""
    nm = [(n, m) for n in range(max_order + 1) for m in range(-n, n + 1)]
    n, m = np.array(nm).T
    return n[:, None], m[:, None]


def harmonics(max_order: int, theta, phi) -> np.ndarray:
    """Y_nm at each direction from scipy: shape ((N+1)^2, P)."""
    n, m = flat_orders_degrees(max_order)
    return sp.sph_harm_y(n, m, np.atleast_1d(theta)[None, :], np.atleast_1d(phi)[None, :])


def unitary_U(max_order: int) -> np.ndarray:
    """The dense U of Y = U S: Y_nm = (S_nm + i S_n,-m) / sqrt 2 and
    Y_n,-m = (-1)^m (S_nm - i S_n,-m) / sqrt 2 for m > 0, Y_n0 = S_n0."""
    n, m = (v.ravel() for v in flat_orders_degrees(max_order))
    U = np.zeros((n.size, n.size), dtype=complex)
    for row, (nn, mm) in enumerate(zip(n, m)):
        pos, neg = nn * nn + nn + abs(mm), nn * nn + nn - abs(mm)
        sign = (-1.0) ** mm if mm < 0 else 1.0
        U[row, pos] = sign / math.sqrt(2) if mm else 1.0
        if mm:
            U[row, neg] = (1j if mm > 0 else -1j) * sign / math.sqrt(2)
    return U


def complex_mode_columns(a: np.ndarray, max_order: int) -> np.ndarray:
    """a @ U^T for an array whose last axis runs over the (N+1)^2 real modes.

    Column (n, m) is (a_nm + i a_n,-m) / sqrt 2 and column (n, -m) is
    (-1)^m (a_nm - i a_n,-m) / sqrt 2, for m > 0; the (n, 0) columns are
    unchanged.
    """
    n, m = (v.ravel() for v in flat_orders_degrees(max_order))
    pos = np.flatnonzero(m > 0)
    neg = pos - 2 * m[pos]
    sign = np.where(m[pos] % 2, -1.0, 1.0)
    plus, minus = a[..., pos], 1j * a[..., neg]
    out = a.astype(complex)
    out[..., pos] = (plus + minus) / math.sqrt(2)
    out[..., neg] = sign * (plus - minus) / math.sqrt(2)
    return out


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


def complex_term_table(local_order: int, col_order: int):
    """Sparse term list (entry, basis, coeff) of the complex S-hat block.

    Block entry ``entry`` (row-major over (a, b) then (v, mu)) = sum over its
    terms of coeff * j_l(kR) * conj(Y_lm(R-hat)), with basis = l^2 + l + m,
    m = b - mu; l runs over |v - a| ... v + a with v + a + l even.
    """
    entries, basis, coeffs = [], [], []
    locals_ = [(a, b) for a in range(local_order + 1) for b in range(-a, a + 1)]
    cols = [(v, mu) for v in range(col_order + 1) for mu in range(-v, v + 1)]
    for ri, (a, b) in enumerate(locals_):
        for ci, (v, mu) in enumerate(cols):
            for l in range(abs(v - a), v + a + 1):
                if (v + a + l) % 2 or abs(b - mu) > l:
                    continue
                w1 = wigner_3j(v, a, l, 0, 0, 0)
                w2 = wigner_3j(v, a, l, mu, -b, b - mu)
                if w1 == 0.0 or w2 == 0.0:
                    continue
                entries.append(ri * len(cols) + ci)
                basis.append(l * l + l + b - mu)
                coeffs.append(
                    4.0 * math.pi
                    * (1j ** (a - v)) * (1j ** l) * ((-1.0) ** (2 * mu - b))
                    * math.sqrt((2 * v + 1) * (2 * a + 1) * (2 * l + 1) / (4.0 * math.pi))
                    * w1 * w2
                )
    return np.array(entries, dtype=int), np.array(basis, dtype=int), np.array(coeffs, dtype=complex)


def positions(lattice: ImageLattice, y) -> np.ndarray:
    """Image positions (M, ..., 3) of the sources y (..., 3), row m the image m of
    the lattice; axis a of row m is entry [a, pick[m, a]] of ``axis_positions``."""
    yc = np.asarray(y, dtype=float) + lattice.shift
    rows = (slice(None),) + (None,) * (yc.ndim - 1)
    axes = np.arange(3)
    return (lattice.sign[axes, lattice.pick][rows] * yc
            + lattice.offset[axes, lattice.pick][rows] - lattice.shift)


def rtf_oracle_many(room: RoomModel, X, Y, ctx: WaveContext) -> np.ndarray:
    """Responses at receivers X (..., 3) to unit sources at Y (..., 3), broadcast.

    An (n, 3) X against one (3,) source gives n responses; X[:, None] against
    Y[None] gives every receiver-source pair.  The sum runs image by image.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    room.check_inside(Y.reshape(-1, 3), "source")
    lattice = image_lattice(room)
    total = np.zeros(np.broadcast_shapes(X.shape, Y.shape)[:-1], dtype=complex)
    for image, amp in zip(positions(lattice, Y), lattice.amplitude):
        d = np.linalg.norm(X - image, axis=-1)
        if np.any(d < COINCIDENT_DISTANCE):
            raise ConfigurationError(
                "receiver coincides with the source or one of its images"
            )
        total += amp * np.exp(1j * ctx.k * d) / (4.0 * math.pi * d)
    return total


def contains(room: RoomModel, p) -> bool:
    """Whether the analysis-frame point p (3,) lies strictly inside the room."""
    q = room.to_corner_frame(p)
    return bool(np.all(q > 0) and np.all(q < np.asarray(room.dimensions)))


def complex_T(speakers, max_order: int, ctx: WaveContext) -> np.ndarray:
    """i k j_n(k y_l) conj(Y_nm(y_l-hat)) for speakers (L, 3): shape ((N+1)^2, L)."""
    r, theta, phi = cartesian_to_spherical_arrays(np.asarray(speakers, dtype=float))
    n, m = flat_orders_degrees(max_order)
    table = sp.spherical_jn(n, ctx.k * r) * sp.sph_harm_y(n, m, theta, phi)
    return 1j * ctx.k * np.conj(table)


def direct_field(x, y, ctx: WaveContext) -> complex:
    """Free-space Green's function e^{ikd}/(4 pi d) between points x and y."""
    d = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    if d == 0.0:
        raise ValueError("direct_field is singular for coincident points")
    return complex(np.exp(1j * ctx.k * d) / (4.0 * math.pi * d))


def bessel_j_matrix(max_order: int, x) -> np.ndarray:
    """j_n at each point, repeated per degree: shape ((N+1)^2, P)."""
    return specfun.bessel_j_rows(max_order, x)[specfun.harmonic_orders(max_order)]


def max_order_of(coeffs: np.ndarray) -> int:
    """N of a flat coefficient array of length (N+1)^2."""
    n = math.isqrt(coeffs.size) - 1
    if coeffs.shape != ((n + 1) ** 2,):
        raise ValueError(f"coefficients must have shape ((N+1)^2,), got {coeffs.shape}")
    return n


def point_source_outgoing_coeffs(y_s, ctx: WaveContext, max_order: int) -> np.ndarray:
    """Outgoing coefficients i k j_n(k y) conj(Y_nm(y-hat)) of a unit source at y_s (3,)."""
    r, theta, phi = cartesian_to_spherical_arrays(y_s)
    k = ctx.k
    j = bessel_j_matrix(max_order, [k * r])[:, 0]
    y = harmonics(max_order, theta, phi)[:, 0]
    return 1j * k * j * np.conj(y)


def eval_interior_field(coeffs, x, ctx: WaveContext) -> complex:
    """Sum of alpha_vm j_v(kx) Y_vm(x-hat) at x (3,); valid inside the source-free region."""
    r, theta, phi = cartesian_to_spherical_arrays(x)
    coeffs = np.asarray(coeffs, dtype=complex)
    N = max_order_of(coeffs)
    j = bessel_j_matrix(N, [ctx.k * r])[:, 0]
    y = harmonics(N, theta, phi)[:, 0]
    return complex(np.sum(coeffs * j * y))


def eval_exterior_field(coeffs, z, ctx: WaveContext) -> complex:
    """Sum of beta_nm h_n(kz) Y_nm(z-hat) at z (3,); valid outside the source distribution."""
    r, theta, phi = cartesian_to_spherical_arrays(z)
    if r <= 0:
        raise ValueError("exterior field is singular at zero radius")
    coeffs = np.asarray(coeffs, dtype=complex)
    N = max_order_of(coeffs)
    h = specfun.hankel_h1_matrix(N, [ctx.k * r])[:, 0]
    y = harmonics(N, theta, phi)[:, 0]
    return complex(np.sum(coeffs * h * y))


def interior_basis(max_order: int, points, ctx: WaveContext) -> np.ndarray:
    """Matrix of j_n(kr) Y_nm at each Cartesian point: shape ((N+1)^2, P)."""
    r, theta, phi = cartesian_to_spherical_arrays(points)
    return bessel_j_matrix(max_order, ctx.k * r) * harmonics(max_order, theta, phi)


def pinv_encoding_matrix(mics, ctx: WaveContext, mask_order: int) -> np.ndarray:
    """((A+1)^2, Q') encoder: the pseudoinverse of the order-``fit_order`` j_n S fit, per bin.

    Rows above ``mask_order`` are zero; a kept order on a Bessel zero raises
    BesselZeroError.
    """
    j = specfun.bessel_j_rows(mask_order, [ctx.k * mics.local_radius])[:, 0]
    if np.any(np.abs(j) < 1e-8):
        raise BesselZeroError(f"a kept order sits on a Bessel zero at {ctx.frequency} Hz")
    offsets = mics.local_offsets
    r = np.linalg.norm(offsets, axis=1)
    model = specfun.real_regular_basis(mics.fit_order, ctx.k, offsets, r)
    enc = np.linalg.pinv(model.T)[: specfun.mode_count(mics.order)]
    enc[specfun.harmonic_orders(mics.order) > mask_order] = 0.0
    return enc


def per_bin_direct_coefficients(speakers, mics, ctx: WaveContext) -> np.ndarray:
    """i k h_a(k R_ql) S_ab(R_ql-hat) for every unit q and loudspeaker l, built in one bin: (Q, L, C)."""
    speakers = np.asarray(speakers, dtype=float)
    rel = (speakers[None, :, :] - mics.unit_centers[:, None, :]).reshape(-1, 3)
    r = np.linalg.norm(rel, axis=1)
    A = mics.order
    coeffs = 1j * ctx.k * specfun.hankel_h1_matrix(A, ctx.k * r) * specfun.real_harmonics(A, rel, r)
    return coeffs.T.reshape(mics.num_units, speakers.shape[0], -1)


def s_hat_blocks_across(local_order: int, col_order: int, displacements, ctx: WaveContext):
    """Real S-hat blocks (P, (A+1)^2, (V+1)^2), each entry's terms summed along axis 1 of (P, terms)."""
    rows, starts, basis, coeffs = translation._real_term_table(local_order, col_order)
    displacements = np.reshape(displacements, (-1, 3))
    r = np.linalg.norm(displacements, axis=1)
    table = specfun.real_regular_basis(local_order + col_order, ctx.k, displacements, r).T
    shape = (specfun.mode_count(local_order), specfun.mode_count(col_order))
    blocks = np.zeros((r.size, shape[0] * shape[1]))
    blocks[:, rows] = np.add.reduceat(table[:, basis] * coeffs, starts, axis=1)
    return blocks.reshape(r.size, *shape)
