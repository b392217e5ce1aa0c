"""Cartesian point sets and array generation.

Every point set is a (P, 3) Cartesian float array; one point is a (3,)
array.  The basis tables read their angles from the coordinates, so no
spherical coordinates are kept.  Array layouts use a Fibonacci-spiral
direction set (approximately equal spherical area per point, valid for any
count) and a counter-based RNG for shell radii so that a seed fully
determines the geometry.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class RegionPair:
    """Receiver sphere about O and source shell about O_s = O + offset."""

    receiver_radius: float
    source_radius: float
    source_inner_radius: float
    offset: tuple[float, float, float]

    def __post_init__(self):
        # a caller's list would stay shared, and could move a validated region
        object.__setattr__(self, "offset", tuple(self.offset))
        # a NaN passes r > 0, and an infinite radius has no truncation order
        for name in ("receiver_radius", "source_radius"):
            radius = getattr(self, name)
            if not 0.0 < radius < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0, got {radius}")
        if not 0.0 <= self.source_inner_radius < self.source_radius:
            raise ConfigurationError(
                "source shell requires 0 <= inner < outer, got "
                f"inner={self.source_inner_radius}, outer={self.source_radius}"
            )
        if len(self.offset) != 3 or not np.all(np.isfinite(self.offset)):
            raise ConfigurationError(f"offset must be three finite coordinates, got {self.offset}")


def spherical_to_cartesian_arrays(r, theta, phi) -> np.ndarray:
    """(r, theta, phi), broadcast together -> Cartesian points (..., 3)."""
    r, theta, phi = np.broadcast_arrays(r, theta, phi)
    return np.stack(
        [
            r * np.sin(theta) * np.cos(phi),
            r * np.sin(theta) * np.sin(phi),
            r * np.cos(theta),
        ],
        axis=-1,
    )


def equal_area_directions(count: int):
    """Deterministic Fibonacci-spiral directions (theta, phi); ~equal area per point."""
    if count < 1:
        raise ConfigurationError(f"direction count must be >= 1, got {count}")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    theta = np.arccos(z)
    phi = (2.0 * np.pi * i / _GOLDEN) % (2.0 * np.pi)
    return theta, phi


def _radius_stream(seed: int) -> np.random.Generator:
    # Counter-based generator: portable and fully determined by the seed.
    if not 0 <= seed < 2**128:  # the range of a Philox key
        raise ConfigurationError(f"array seed must be an integer in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def shell_array(count: int, outer: float, inner: float, seed: int) -> np.ndarray:
    """(count, 3) points: equal-area directions, radii i.i.d. uniform on [inner, outer].

    inner == outer is the degenerate single-sphere case (all radii exactly
    outer); inner > outer is rejected.
    """
    if inner > outer:
        raise ConfigurationError(
            f"shell requires inner <= outer, got inner={inner}, outer={outer}"
        )
    if inner < 0:
        raise ConfigurationError(f"inner radius must be >= 0, got {inner}")
    theta, phi = equal_area_directions(count)
    radii = _radius_stream(seed).uniform(inner, outer, count)
    return spherical_to_cartesian_arrays(radii, theta, phi)


def sphere_array(count: int, radius: float) -> np.ndarray:
    """(count, 3) points: equal-area directions at a single fixed radius."""
    if radius <= 0:
        raise ConfigurationError(f"sphere radius must be > 0, got {radius}")
    theta, phi = equal_area_directions(count)
    return spherical_to_cartesian_arrays(radius, theta, phi)


def export_positions_csv(path, points: np.ndarray) -> None:
    """Write an (index, x, y, z) CSV for one array, 17 significant digits."""
    points = np.asarray(points, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "z"])
        for i, (x, y, z) in enumerate(points):
            writer.writerow([i, f"{x:.17g}", f"{y:.17g}", f"{z:.17g}"])
