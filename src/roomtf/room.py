"""Image-source ground-truth oracle for a shoebox room.

All positions are expressed in the analysis frame whose origin O is the room
center.  Wall reflection coefficients are real, frequency independent,
ordered (x-, x+, y-, y+, z-, z+).

``rtf_oracle_grid`` is the one image-sum function: it simulates each mic
unit's omni pressures and gives the truth that every E is scored against.
Its sources and receivers must lie inside the room, where no image comes
nearer to a receiver than its source does.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .modal import COINCIDENT_DISTANCE


@dataclass(frozen=True)
class RoomModel:
    dimensions: tuple[float, float, float]
    reflections: tuple[float, float, float, float, float, float]
    max_image_order: int = 2

    def __post_init__(self):
        # a caller's list would stay shared, and could change a validated room
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "reflections", tuple(self.reflections))
        # a NaN passes d > 0, and an infinite length puts every image at infinity
        if len(self.dimensions) != 3 or not all(0 < d < math.inf for d in self.dimensions):
            raise ConfigurationError(
                f"room dimensions must be three finite positive lengths, got {self.dimensions}"
            )
        if len(self.reflections) != 6 or any(not 0.0 <= b <= 1.0 for b in self.reflections):
            raise ConfigurationError(
                f"room reflections must be six coefficients in [0, 1], got {self.reflections}"
            )
        # a bool is an int, and 1.5 would build an order-1 lattice of float orders
        order = self.max_image_order
        if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 0:
            raise ConfigurationError(f"max_image_order must be an integer >= 0, got {order!r}")

    def to_corner_frame(self, p) -> np.ndarray:
        """Analysis-frame point -> coordinates from the (x-, y-, z-) room corner."""
        return np.asarray(p, dtype=float) + 0.5 * np.asarray(self.dimensions)

    def check_inside(self, points, what: str) -> None:
        """Raise ConfigurationError naming the first row of ``points`` (n, 3) not inside."""
        points = np.asarray(points, dtype=float)
        q = self.to_corner_frame(points)
        outside = ~np.all((q > 0) & (q < np.asarray(self.dimensions)), axis=1)
        if outside.any():
            pt = points[np.argmax(outside)]
            raise ConfigurationError(
                f"{what} at {tuple(np.round(pt, 6).tolist())} lies outside the room"
            )


class ImageLattice(NamedTuple):
    """The images of a room for any source, one row per image, by order.

    Along each axis an image takes one of C = 2P + 1 choices (P the maximum
    order): axis a of the image of a source at y (analysis frame) sits at
    ``sign[a, c] * (y_a + shift_a) + offset[a, c] - shift_a`` with
    c = pick[m, a]; y + shift is y in the corner frame.
    """

    pick: np.ndarray       # (M, 3) per axis, the column of each image in sign and offset
    sign: np.ndarray       # (3, C) +-1 of each per-axis choice
    offset: np.ndarray     # (3, C) lattice offset 2 n L of each per-axis choice
    amplitude: np.ndarray  # (M,) product of the reflection coefficients met
    order: np.ndarray      # (M,) number of reflections
    shift: np.ndarray      # (3,) analysis frame -> corner frame

    def axis_positions(self, y) -> np.ndarray:
        """Per-axis image coordinates (3, C, ...) of the sources y (..., 3).

        Entry [a, pick[m, a]] is axis a of image m.
        """
        yc = np.moveaxis(np.asarray(y, dtype=float) + self.shift, -1, 0)[:, None]
        rows = (slice(None), slice(None)) + (None,) * (yc.ndim - 2)
        return (self.sign[rows] * yc + self.offset[rows]
                - self.shift.reshape((3,) + (1,) * (yc.ndim - 1)))


@functools.lru_cache(maxsize=8)
def image_lattice(room: RoomModel) -> ImageLattice:
    """True source plus all images up to ``room.max_image_order`` reflections.

    Standard shoebox lattice: along each axis the image coordinate is
    (1 - 2q) y + 2 n L with q in {0, 1}; the per-axis reflection counts are
    |n - q| off the minus wall and |n| off the plus wall.  Each distinct
    reflection history appears exactly once; the true source comes first.
    Equal rooms share one cached lattice, so its arrays are read-only.
    """
    max_order = room.max_image_order
    nmax = max_order // 2 + 1
    q, n = (g.ravel() for g in np.meshgrid((0, 1), np.arange(-nmax, nmax + 1), indexing="ij"))
    keep = np.abs(n - q) + np.abs(n) <= max_order
    q, n = q[keep], n[keep]
    minus, plus = np.abs(n - q), np.abs(n)
    # one per-axis choice for each of x, y, z, kept up to max_order in all
    choices = np.arange(q.size)
    pick = np.stack([g.ravel() for g in np.meshgrid(choices, choices, choices, indexing="ij")],
                    axis=1)
    order = (minus + plus)[pick].sum(axis=1)
    rows = np.argsort(order, kind="stable")[: np.count_nonzero(order <= max_order)]
    pick = pick[rows]
    beta = np.asarray(room.reflections, dtype=float).reshape(3, 2)
    lattice = ImageLattice(
        pick=pick,
        sign=np.tile((1 - 2 * q).astype(float), (3, 1)),
        offset=2 * n * np.asarray(room.dimensions, dtype=float)[:, None],
        amplitude=np.prod(beta[:, 0] ** minus[pick] * beta[:, 1] ** plus[pick], axis=1),
        order=order[rows],
        shift=room.to_corner_frame(np.zeros(3)),
    )
    for array in lattice:
        array.flags.writeable = False
    return lattice


# bins between exact anchors of the phase recurrence in rtf_oracle_grid
REANCHOR_INTERVAL = 16
# entries N of the phase table _PHASES, e^{2 pi i j / N} for j = 0 ... N - 1
_PHASE_ENTRIES = 512
# 2 pi - fl(2 pi): the part of 2 pi that math.tau leaves out
_TAU_LO = 2.4492935982947064e-16


def _phase_table() -> np.ndarray:
    """e^{2 pi i j / N} for j < N, each within about 1 ulp.

    The angle is split as j C_hi + j C_lo with C_hi + C_lo = 2 pi / N to about
    1e-30: C_hi keeps 43 bits, so j C_hi is exact for j < 2^10, and j C_lo
    (below 3e-13) enters to first order.  A plain cos(fl(2 pi j / N)) would
    carry the rounding of the angle, about 3 eps at worst.
    """
    c_hi = math.ldexp(math.floor(math.ldexp(math.tau, 40)), -40) / _PHASE_ENTRIES
    c_lo = (math.tau - c_hi * _PHASE_ENTRIES + _TAU_LO) / _PHASE_ENTRIES
    j = np.arange(_PHASE_ENTRIES)
    cos, sin = np.cos(j * c_hi), np.sin(j * c_hi)
    table = np.empty(_PHASE_ENTRIES, dtype=complex)
    table.real, table.imag = cos - sin * (j * c_lo), sin + cos * (j * c_lo)
    return table


_PHASES = _phase_table()


def _expi(k: float, d) -> np.ndarray:
    """e^{ikd} for an array of distances d, as accurate as exp(1j k d).

    With kappa = k N / 2 pi, q = rint(d kappa) and r = (d kappa - q) 2 pi / N,
    e^{ikd} is the table entry _PHASES[q mod N] times e^{ir}.  As |r| <= pi / N,
    the Taylor series of cos r through r^6 and sin r through r^5 truncate
    below 1e-19.  Beyond the rounding of k d that exp(1j k d) also has, the
    product adds about 2 ulp.  q is exact while k d < 2^46 rad, which
    rtf_oracle_grid checks.
    """
    r = d * (k * (_PHASE_ENTRIES / math.tau))
    q = np.rint(r)
    r -= q
    r *= math.tau / _PHASE_ENTRIES
    t2 = r * r
    cos = t2 * (-1.0 / 720.0)
    cos += 1.0 / 24.0
    cos *= t2
    cos -= 0.5
    cos *= t2
    cos += 1.0
    sin = t2 * (1.0 / 120.0)
    sin -= 1.0 / 6.0
    sin *= t2
    sin += 1.0
    sin *= r
    out = np.empty(np.shape(d), dtype=complex)
    out.real, out.imag = cos, sin
    index = q.astype(np.intp)
    index &= _PHASE_ENTRIES - 1  # q mod N, also for a negative q
    out *= _PHASES.take(index)
    return out


def _uniform_step(ks) -> tuple[float | None, int]:
    """(dk, n0) of a uniform wavenumber grid, (None, 0) if it has no one spacing.

    Uniform means every k_j sits within a few ulps of k_0 + j dk, so that the
    recurrence's phase error dk-mismatch x distance stays near rounding; n0 > 0
    when also k_0 = n0 dk, n0 <= REANCHOR_INTERVAL, to the same tolerance.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.size < 2:
        return None, 0
    tol = 8 * np.finfo(float).eps * np.abs(ks).max()
    dk = (ks[-1] - ks[0]) / (ks.size - 1)
    if np.abs(ks - (ks[0] + dk * np.arange(ks.size))).max() > tol:
        return None, 0
    n0 = round(ks[0] / dk)
    on_lattice = 1 <= n0 <= REANCHOR_INTERVAL and abs(ks[0] - n0 * dk) <= tol
    return float(dk), n0 if on_lattice else 0


def _check_phase_bound(k: float, d_max: float) -> None:
    """k d < 2^46 keeps every q of _expi below 2^53, so exact; a NaN or inf k fails it too."""
    if not k * d_max < 2.0 ** 46:
        raise ConfigurationError(
            f"phases k d up to {k * d_max:.3g} rad are beyond double precision"
        )


def rtf_oracle_grid(room: RoomModel, X, Y, ks, skip_direct: bool = False) -> np.ndarray:
    """Responses (F, ...) at receivers X (..., 3) to unit sources at Y (..., 3).

    X and Y broadcast: an (n, 3) X against one (3,) source gives n responses
    per bin; X[:, None] against Y[None] gives every receiver-source pair.
    Row j is the image sum at wavenumber ks[j].  Sources and receivers must
    lie inside the room, where no image is nearer to a receiver than its
    source (an image distance is the length of an unfolded reflection path);
    so only the source's own distances are tested against
    COINCIDENT_DISTANCE, also when ``skip_direct`` leaves out its term.

    The square (X_a - c)^2 is computed once for each of the 2P + 1 image
    coordinates c along axis a, P the maximum order, and an image's distance
    is sqrt(sq_x + sq_y + sq_z).  Per image, d, the weight amp / 4 pi d and,
    on a uniform grid, the step e^{i dk d} are computed once; the phase runs
    e^{i k_{j+1} d} = e^{i k_j d} e^{i dk d} across the grid, re-anchored at
    every REANCHOR_INTERVAL-th bin by an exact e^{i k_j d} from _expi.  On a
    lattice grid (k_0 = n0 dk, n0 <= REANCHOR_INTERVAL) the first anchor is
    step^n0; a grid that is not uniform anchors every bin.  Every phase k d
    must stay below 2^46 rad up to sqrt(sum_a max_c (X_a - c)^2), which
    bounds each rounded distance from above, as rounded addition and sqrt are
    monotone.  Besides the result, it holds the 3 (2P + 1) per-axis squares,
    each of the broadcast shape, and one image's distances and phases.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    room.check_inside(Y.reshape(-1, 3), "source")
    room.check_inside(X.reshape(-1, 3), "receiver")
    shape = np.broadcast_shapes(X.shape, Y.shape)
    lattice = image_lattice(room)
    coords = lattice.axis_positions(Y.reshape((1,) * (len(shape) - Y.ndim) + Y.shape))
    squares = [(X[..., a] - coords[a]) ** 2 for a in range(3)]  # (2P + 1, ...) each
    d_max = math.sqrt(sum(sq.max(initial=0.0) for sq in squares))
    # every k is checked before _uniform_step, which must not do arithmetic on a NaN or inf
    _check_phase_bound(np.abs(ks).max(initial=0.0), d_max)
    dk, n0 = _uniform_step(ks)
    _check_phase_bound(abs(dk or 0.0), d_max)
    anchor_every = 1 if dk is None else REANCHOR_INTERVAL

    d = np.empty(shape[:-1])
    total = np.zeros((ks.size,) + shape[:-1], dtype=complex)
    for (ix, iy, iz), amp, order in zip(lattice.pick, lattice.amplitude, lattice.order):
        np.add(squares[0][ix], squares[1][iy], out=d)
        d += squares[2][iz]
        np.sqrt(d, out=d)
        if order == 0:
            if np.any(d < COINCIDENT_DISTANCE):
                raise ConfigurationError("receiver coincides with the source")
            if skip_direct:
                continue
        weight = amp / (4.0 * math.pi * d)
        if dk is not None:
            step = _expi(dk, d)
        for j, k in enumerate(ks):
            if j == 0 and n0:  # step ** 1 would take numpy's slow general power
                phase = weight * (step if n0 == 1 else step ** n0)
            elif j % anchor_every == 0:
                phase = _expi(k, d)
                phase *= weight
            else:
                phase *= step
            total[j] += phase
    return total
