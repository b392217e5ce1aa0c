"""Image-source ground-truth oracle for a shoebox room.

All positions are expressed in the analysis frame whose origin O defaults to
the room center (shifted by ``origin_offset`` if configured).  Wall reflection
coefficients are real, frequency independent, ordered (x-, x+, y-, y+, z-, z+).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .modal import WaveContext


@dataclass(frozen=True)
class RoomModel:
    dimensions: tuple[float, float, float]
    wall_reflection: tuple[float, float, float, float, float, float]
    max_image_order: int = 2
    origin_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.dimensions) != 3 or any(d <= 0 for d in self.dimensions):
            raise ConfigurationError(
                f"room dimensions must be three positive lengths, got {self.dimensions}"
            )
        if len(self.wall_reflection) != 6 or any(
            not 0.0 <= b <= 1.0 for b in self.wall_reflection
        ):
            raise ConfigurationError(
                "wall_reflection must be six coefficients in [0, 1], got "
                f"{self.wall_reflection}"
            )
        if self.max_image_order < 0:
            raise ConfigurationError(
                f"max_image_order must be >= 0, got {self.max_image_order}"
            )
        if not self.contains(np.zeros(3)):
            raise ConfigurationError("analysis origin must lie strictly inside the room")

    def to_corner_frame(self, p) -> np.ndarray:
        """Analysis-frame point -> coordinates from the (x-, y-, z-) room corner."""
        return (
            np.asarray(p, dtype=float)
            + 0.5 * np.asarray(self.dimensions)
            + np.asarray(self.origin_offset)
        )

    def contains(self, p) -> bool:
        q = self.to_corner_frame(p)
        return bool(np.all(q > 0) and np.all(q < np.asarray(self.dimensions)))

    def check_inside(self, points, what: str) -> None:
        """Raise ConfigurationError naming the first row of ``points`` (n, 3) not inside."""
        points = np.asarray(points, dtype=float)
        q = self.to_corner_frame(points)
        outside = ~np.all((q > 0) & (q < np.asarray(self.dimensions)), axis=1)
        if outside.any():
            pt = points[np.argmax(outside)]
            raise ConfigurationError(
                f"{what} at {tuple(np.round(pt, 6))} lies outside the room"
            )


@dataclass(frozen=True)
class ImageSource:
    position: tuple[float, float, float]
    amplitude: float
    order: int


def enumerate_images(room: RoomModel, y, max_order: int | None = None) -> list[ImageSource]:
    """True source plus all images up to ``max_order`` reflections.

    Standard shoebox lattice: along each axis the image coordinate is
    (1 - 2q) y + 2 n L with q in {0, 1}; the per-axis reflection counts are
    |n - q| off the minus wall and |n| off the plus wall.  Each distinct
    reflection history appears exactly once.  Ordering is deterministic:
    by order, then lexicographic position.
    """
    if max_order is None:
        max_order = room.max_image_order
    y = np.asarray(y, dtype=float)
    if not room.contains(y):
        raise ValueError(f"source position {tuple(y)} lies outside the room")
    yc = room.to_corner_frame(y)
    dims = np.asarray(room.dimensions)
    refl = room.wall_reflection
    shift = 0.5 * dims + np.asarray(room.origin_offset)

    nmax = max_order // 2 + 1
    images = []
    for qx in (0, 1):
        for nx in range(-nmax, nmax + 1):
            ox = abs(nx - qx) + abs(nx)
            if ox > max_order:
                continue
            px = (1 - 2 * qx) * yc[0] + 2 * nx * dims[0]
            ax = refl[0] ** abs(nx - qx) * refl[1] ** abs(nx)
            for qy in (0, 1):
                for ny in range(-nmax, nmax + 1):
                    oy = abs(ny - qy) + abs(ny)
                    if ox + oy > max_order:
                        continue
                    py = (1 - 2 * qy) * yc[1] + 2 * ny * dims[1]
                    ay = refl[2] ** abs(ny - qy) * refl[3] ** abs(ny)
                    for qz in (0, 1):
                        for nz in range(-nmax, nmax + 1):
                            oz = abs(nz - qz) + abs(nz)
                            if ox + oy + oz > max_order:
                                continue
                            pz = (1 - 2 * qz) * yc[2] + 2 * nz * dims[2]
                            az = refl[4] ** abs(nz - qz) * refl[5] ** abs(nz)
                            pos = (px - shift[0], py - shift[1], pz - shift[2])
                            images.append(
                                ImageSource(pos, ax * ay * az, ox + oy + oz)
                            )
    images.sort(key=lambda im: (im.order, im.position))
    return images


def _image_arrays(room: RoomModel, y, max_order: int | None):
    images = enumerate_images(room, y, max_order)
    pos = np.array([im.position for im in images])
    amp = np.array([im.amplitude for im in images])
    return pos, amp


def rtf_oracle(room: RoomModel, x, y, ctx: WaveContext) -> complex:
    """Exact room transfer function between interior points x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not room.contains(x):
        raise ValueError(f"receiver position {tuple(x)} lies outside the room")
    if np.array_equal(x, y):
        raise ValueError("rtf_oracle is singular for coincident points")
    return complex(rtf_oracle_many(room, x[None, :], y, ctx)[0])


def rtf_oracle_many(room: RoomModel, X, y, ctx: WaveContext) -> np.ndarray:
    """Vectorized oracle: responses at each row of X to a source at y."""
    X = np.asarray(X, dtype=float)
    pos, amp = _image_arrays(room, y, None)
    d = np.linalg.norm(X[:, None, :] - pos[None, :, :], axis=-1)
    if np.any(d == 0):
        raise ValueError("receiver coincides with the source or one of its images")
    k = ctx.k
    return np.sum(amp[None, :] * np.exp(1j * k * d) / (4.0 * math.pi * d), axis=1)
