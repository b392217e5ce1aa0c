"""RTF assembly from the extracted coefficient tensor, plus the error metric."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .geometry import (
    RegionPair,
    SphericalCoord,
    cartesian_to_spherical_arrays,
    to_cartesian,
)
from .modal import WaveContext, direct_field


@dataclass(frozen=True)
class RtfCoefficientSet:
    """Per-frequency alpha tensors linking source modes (n, m) to receiver modes (v, mu).

    ``alpha[i]`` has shape ((N_s+1)^2, (N_r+1)^2) with the per-frequency orders
    in ``source_orders``/``receiver_orders`` — the tensor is ragged across
    frequency because the truncation orders track k.
    """

    frequencies: np.ndarray
    alpha: tuple[np.ndarray, ...] = field(repr=False)
    source_orders: np.ndarray = field(default=None)
    receiver_orders: np.ndarray = field(default=None)
    regions: RegionPair = None
    sound_speed: float = 343.0
    digests: dict = field(default_factory=dict)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "alpha", tuple(np.asarray(a, dtype=complex) for a in self.alpha))
        object.__setattr__(self, "source_orders", np.asarray(self.source_orders, dtype=int))
        object.__setattr__(self, "receiver_orders", np.asarray(self.receiver_orders, dtype=int))
        if len(self.alpha) != freqs.shape[0]:
            raise ConfigurationError("one alpha block per frequency is required")
        for a, ns, nr in zip(self.alpha, self.source_orders, self.receiver_orders):
            expected = (specfun.mode_count(int(ns)), specfun.mode_count(int(nr)))
            if a.shape != expected:
                raise ConfigurationError(
                    f"alpha block shape {a.shape} != {expected} from stored orders"
                )

    def frequency_index(self, frequency: float) -> int:
        hits = np.nonzero(np.isclose(self.frequencies, frequency, rtol=0, atol=1e-9))[0]
        if hits.size == 0:
            raise ConfigurationError(
                f"frequency {frequency} Hz is not on the coefficient grid "
                "(no interpolation is performed)"
            )
        return int(hits[0])

    def context(self, frequency: float) -> WaveContext:
        return WaveContext(frequency, self.sound_speed)


def _check_regions(cset: RtfCoefficientSet, x: SphericalCoord, y_s: SphericalCoord):
    if cset.regions is None:
        return
    if x.radius > cset.regions.receiver_radius + 1e-12:
        raise ConfigurationError(
            f"receiver radius {x.radius} exceeds the region radius "
            f"{cset.regions.receiver_radius}; the parameterization is invalid there"
        )
    if y_s.radius > cset.regions.source_radius + 1e-12:
        raise ConfigurationError(
            f"source radius {y_s.radius} exceeds the region radius "
            f"{cset.regions.source_radius}; the parameterization is invalid there"
        )


def reconstruct_reverberant(cset: RtfCoefficientSet, x: SphericalCoord,
                            y_s: SphericalCoord, frequency: float) -> complex:
    """Reverberant RTF component between receiver x (about O) and source y_s (about O_s)."""
    _check_regions(cset, x, y_s)
    fi = cset.frequency_index(frequency)
    ctx = cset.context(frequency)
    k = ctx.k
    ns = int(cset.source_orders[fi])
    nr = int(cset.receiver_orders[fi])
    by = (
        specfun.bessel_j_matrix(ns, [k * y_s.radius])
        * np.conj(specfun.harmonic_matrix(ns, [y_s.theta], [y_s.phi]))
    )[:, 0]
    bx = (
        specfun.bessel_j_matrix(nr, [k * x.radius])
        * specfun.harmonic_matrix(nr, [x.theta], [x.phi])
    )[:, 0]
    return complex(1j * k * (by @ cset.alpha[fi] @ bx))


def reconstruct_rtf(cset: RtfCoefficientSet, x: SphericalCoord, y_s: SphericalCoord,
                    frequency: float) -> complex:
    """Total RTF: direct field plus the parameterized reverberant component."""
    offset = np.asarray(cset.regions.offset) if cset.regions else np.zeros(3)
    xg = to_cartesian(x)
    yg = to_cartesian(y_s) + offset
    ctx = cset.context(frequency)
    return direct_field(xg, yg, ctx) + reconstruct_reverberant(cset, x, y_s, frequency)


def reconstruct_rtf_many(cset: RtfCoefficientSet, X: np.ndarray, Y_s: np.ndarray,
                         frequency: float) -> np.ndarray:
    """Paired reconstruction: X[i] (about O) with Y_s[i] (about O_s), Cartesian."""
    fi = cset.frequency_index(frequency)
    ctx = cset.context(frequency)
    k = ctx.k
    ns = int(cset.source_orders[fi])
    nr = int(cset.receiver_orders[fi])
    X = np.asarray(X, dtype=float)
    Y_s = np.asarray(Y_s, dtype=float)
    rx, tx, px = cartesian_to_spherical_arrays(X)
    ry, ty, py = cartesian_to_spherical_arrays(Y_s)
    if cset.regions is not None:
        if np.any(rx > cset.regions.receiver_radius + 1e-12):
            raise ConfigurationError("a receiver probe lies outside the receiver region")
        if np.any(ry > cset.regions.source_radius + 1e-12):
            raise ConfigurationError("a source probe lies outside the source region")
    by = specfun.bessel_j_matrix(ns, k * ry) * np.conj(specfun.harmonic_matrix(ns, ty, py))
    bx = specfun.bessel_j_matrix(nr, k * rx) * specfun.harmonic_matrix(nr, tx, px)
    reverberant = 1j * k * np.sum((cset.alpha[fi].T @ by) * bx, axis=0)
    offset = np.asarray(cset.regions.offset) if cset.regions else np.zeros(3)
    d = np.linalg.norm(X - (Y_s + offset), axis=1)
    if np.any(d == 0):
        raise ValueError("coincident source/receiver probe pair")
    direct = np.exp(1j * k * d) / (4.0 * np.pi * d)
    return direct + reverberant


def relative_error(truth, estimate) -> float:
    """Sum of pointwise modulus errors over the summed truth modulus."""
    truth = np.asarray(truth, dtype=complex)
    estimate = np.asarray(estimate, dtype=complex)
    if truth.shape != estimate.shape or truth.size == 0:
        raise ValueError("truth and estimate must be equal-length, non-empty")
    denom = np.abs(truth).sum()
    if denom == 0.0:
        raise ValueError("relative_error is undefined for all-zero truth")
    return float(np.abs(truth - estimate).sum() / denom)


def probe_pairs(preset: str = "paper-fig5", radius: float = 0.4):
    """One-to-one probe pairs (receiver about O, source about O_s), Cartesian.

    The default layout puts one probe at each region center and one at each
    axis intersection with the region surface; pairs are matched first-with-
    first, giving G = 7 combinations.
    """
    if preset != "paper-fig5":
        raise ConfigurationError(f"unknown probe preset: {preset!r}")
    R = radius
    layout = np.array(
        [
            [0.0, 0.0, 0.0],
            [-R, 0.0, 0.0],
            [R, 0.0, 0.0],
            [0.0, -R, 0.0],
            [0.0, R, 0.0],
            [0.0, 0.0, -R],
            [0.0, 0.0, R],
        ]
    )
    return layout.copy(), layout.copy()
