"""Modal field machinery: truncation rules, coefficient vectors, field evaluation."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .geometry import SphericalCoord, cartesian_to_spherical_arrays

DEFAULT_SOUND_SPEED = 343.0
# closer than this (m), a source and a receiver count as one point
COINCIDENT_DISTANCE = 1e-9


@dataclass(frozen=True)
class WaveContext:
    frequency: float
    sound_speed: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        if self.frequency <= 0 or self.sound_speed <= 0:
            raise ValueError(
                f"frequency and sound speed must be > 0, got f={self.frequency}, "
                f"c={self.sound_speed}"
            )

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.frequency / self.sound_speed


@dataclass(frozen=True)
class CoefficientVector:
    """Complex modal coefficients in flat (n, m) order, length (N+1)^2."""

    max_order: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        expected = specfun.mode_count(self.max_order)
        if entries.shape != (expected,):
            raise ValueError(
                f"coefficient vector for order {self.max_order} must have shape "
                f"({expected},), got {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("coefficient entries must be finite")

    def __len__(self) -> int:
        return self.entries.shape[0]


def truncation_order(k: float, radius: float) -> int:
    """Region truncation order N = ceil(k e R / 2)."""
    if k <= 0 or radius <= 0:
        raise ValueError(f"k and radius must be > 0, got k={k}, R={radius}")
    return math.ceil(k * math.e * radius / 2.0)


def active_order(frequency: float, radius: float, sound_speed: float) -> int:
    """Highest mode order physically excited at this radius: floor(pi f e r / c)."""
    if frequency <= 0 or radius <= 0 or sound_speed <= 0:
        raise ValueError("active_order requires positive f, r, c")
    return math.floor(math.pi * frequency * math.e * radius / sound_speed)


def point_source_outgoing_coeffs(
    y_s: SphericalCoord, ctx: WaveContext, max_order: int
) -> CoefficientVector:
    """Outgoing coefficients of a unit point source at y_s (source-local frame)."""
    k = ctx.k
    j = specfun.bessel_j_matrix(max_order, [k * y_s.radius])[:, 0]
    y = specfun.harmonic_matrix(max_order, [y_s.theta], [y_s.phi])[:, 0]
    return CoefficientVector(max_order, 1j * k * j * np.conj(y))


def eval_interior_field(
    coeffs: CoefficientVector, x: SphericalCoord, ctx: WaveContext
) -> complex:
    """Sum of alpha_vm j_v(kx) Y_vm(x-hat); valid inside the source-free region."""
    k = ctx.k
    j = specfun.bessel_j_matrix(coeffs.max_order, [k * x.radius])[:, 0]
    y = specfun.harmonic_matrix(coeffs.max_order, [x.theta], [x.phi])[:, 0]
    return complex(np.sum(coeffs.entries * j * y))


def eval_exterior_field(
    coeffs: CoefficientVector, z: SphericalCoord, ctx: WaveContext
) -> complex:
    """Sum of beta_nm h_n(kz) Y_nm(z-hat); valid outside the source distribution."""
    if z.radius <= 0:
        raise ValueError("exterior field is singular at zero radius")
    k = ctx.k
    h = specfun.hankel_h1_matrix(coeffs.max_order, [k * z.radius])[:, 0]
    y = specfun.harmonic_matrix(coeffs.max_order, [z.theta], [z.phi])[:, 0]
    return complex(np.sum(coeffs.entries * h * y))


def direct_field(x, y, ctx: WaveContext) -> complex:
    """Free-space Green's function e^{ikd}/(4 pi d) between points x and y."""
    d = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    if d == 0.0:
        raise ValueError("direct_field is singular for coincident points")
    k = ctx.k
    return complex(np.exp(1j * k * d) / (4.0 * math.pi * d))


def interior_basis(max_order: int, points: np.ndarray, ctx: WaveContext) -> np.ndarray:
    """Matrix of j_n(kr) Y_nm at each Cartesian point: shape ((N+1)^2, P)."""
    r, theta, phi = cartesian_to_spherical_arrays(points)
    return specfun.bessel_j_matrix(max_order, ctx.k * r) * specfun.harmonic_matrix(
        max_order, theta, phi
    )
