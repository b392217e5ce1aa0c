"""Coordinate conversions and deterministic array geometry generation.

Cartesian points are plain length-3 float arrays; ``SphericalCoord`` carries
(radius, polar angle, azimuth).  Array layouts use a Fibonacci-spiral direction
set (approximately equal spherical area per point, valid for any count) and a
counter-based RNG for shell radii so that a seed fully determines the geometry.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SphericalCoord:
    radius: float
    theta: float
    phi: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class RegionPair:
    """Receiver sphere about O and source shell about O_s = O + offset."""

    receiver_radius: float
    source_radius: float
    source_inner_radius: float
    offset: tuple[float, float, float]

    def __post_init__(self):
        if not 0.0 <= self.source_inner_radius < self.source_radius:
            raise ConfigurationError(
                "source shell requires 0 <= inner < outer, got "
                f"inner={self.source_inner_radius}, outer={self.source_radius}"
            )
        if self.receiver_radius <= 0:
            raise ConfigurationError(
                f"receiver_radius must be > 0, got {self.receiver_radius}"
            )


def to_spherical(v) -> SphericalCoord:
    """Cartesian -> spherical; the zero vector maps to (0, 0, 0) by convention."""
    x, y, z = (float(c) for c in v)
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        return SphericalCoord(0.0, 0.0, 0.0)
    theta = math.atan2(math.hypot(x, y), z)  # acos(z / r) loses the poles
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return SphericalCoord(r, theta, phi)


def to_cartesian(s: SphericalCoord) -> np.ndarray:
    st = math.sin(s.theta)
    return np.array(
        [
            s.radius * st * math.cos(s.phi),
            s.radius * st * math.sin(s.phi),
            s.radius * math.cos(s.theta),
        ]
    )


def cartesian_to_spherical_arrays(points: np.ndarray):
    """Vectorized conversion: (P, 3) -> (r, theta, phi) arrays."""
    points = np.asarray(points, dtype=float)
    r = np.linalg.norm(points, axis=-1)
    theta = np.arctan2(np.hypot(points[..., 0], points[..., 1]), points[..., 2])
    phi = np.arctan2(points[..., 1], points[..., 0]) % (2.0 * np.pi)
    return r, theta, phi


def spherical_to_cartesian_arrays(r, theta, phi) -> np.ndarray:
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
    return np.random.Generator(np.random.Philox(key=seed))


def shell_array(count: int, outer: float, inner: float, seed: int) -> list[SphericalCoord]:
    """Equal-area directions with radii i.i.d. uniform on [inner, outer].

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
    return [SphericalCoord(r, t, p) for r, t, p in zip(radii, theta, phi)]


def sphere_array(count: int, radius: float) -> list[SphericalCoord]:
    """Equal-area directions at a single fixed radius."""
    if radius <= 0:
        raise ConfigurationError(f"sphere radius must be > 0, got {radius}")
    theta, phi = equal_area_directions(count)
    return [SphericalCoord(radius, t, p) for t, p in zip(theta, phi)]


def positions_to_cartesian(positions: list[SphericalCoord]) -> np.ndarray:
    """(P, 3) Cartesian stack of a SphericalCoord list."""
    if not positions:
        return np.zeros((0, 3))
    r = np.array([p.radius for p in positions])
    t = np.array([p.theta for p in positions])
    ph = np.array([p.phi for p in positions])
    return spherical_to_cartesian_arrays(r, t, ph)


def export_positions_csv(path, points: np.ndarray) -> None:
    """Write an (index, x, y, z) CSV for one array, 17 significant digits."""
    points = np.asarray(points, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "z"])
        for i, (x, y, z) in enumerate(points):
            writer.writerow([i, f"{x:.17g}", f"{y:.17g}", f"{z:.17g}"])
