"""RTF assembly from the extracted coefficient tensor, plus the error metric."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .geometry import RegionPair, cartesian_to_spherical_arrays
from .modal import WaveContext


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


def reconstruct_rtf_many(cset: RtfCoefficientSet, X: np.ndarray, Y_s: np.ndarray,
                         frequency: float) -> np.ndarray:
    """Total RTF for each pair X[i] (about O), Y_s[i] (about O_s), both (P, 3) Cartesian.

    The direct field in closed form plus the reverberant bilinear form
    1j k sum j_n(k y) conj(Y_nm(y)) alpha[(n,m), (v,mu)] j_v(k x) Y_vmu(x).
    This is the one reconstruction entry point; one pair is a (1, 3) call.
    """
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
        for what, r, limit in (("receiver", rx, cset.regions.receiver_radius),
                               ("source", ry, cset.regions.source_radius)):
            if np.any(r > limit + 1e-12):
                raise ConfigurationError(
                    f"{what} radius {r.max()} exceeds the region radius {limit}; "
                    "the parameterization is invalid there"
                )
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
