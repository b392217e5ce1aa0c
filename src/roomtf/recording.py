"""Higher-order microphone model.

Each HO microphone is an open sphere of Q' omnis on a virtual surface of radius
r about its center R_q.  Raw per-loudspeaker responses are encoded into local
incident coefficients gamma-tilde up to order A; unit-mode responses are then
composed by linearity with loudspeaker weights, and the known direct field is
removed either analytically in the coefficient domain or by subtracting exact
direct pressures from the raw measurements.

Local coefficients are recovered by least-squares fitting a band-limited
interior model to the omni pressures.  With the minimum Q' = (A+1)^2 sensors
and fit order A this coincides with the discrete orthogonality projection
(each orthogonality sum is the normal-equation form of the same fit), but the
fit stays exact when Q' or the fit order is raised, which the shipped configs
use to suppress leakage from orders just above A.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import BesselZeroError, ConfigurationError
from .geometry import (
    SphericalCoord,
    cartesian_to_spherical_arrays,
    positions_to_cartesian,
    sphere_array,
)
from .modal import WaveContext, truncation_order
from .room import RoomModel, rtf_oracle_many

BESSEL_ZERO_THRESHOLD = 1e-8


def mic_radius(order: int, f_max: float, sound_speed: float = 343.0) -> float:
    """Design radius r = A c / (pi e f_max) of an order-A microphone."""
    if order < 1:
        raise ConfigurationError(f"microphone order must be >= 1, got {order}")
    if f_max <= 0:
        raise ConfigurationError(f"f_max must be > 0, got {f_max}")
    return order * sound_speed / (math.pi * math.e * f_max)


@dataclass(frozen=True)
class HoMicSpec:
    order: int
    local_radius: float
    omni_count: int
    fit_order: int | None = None

    def __post_init__(self):
        if self.local_radius <= 0:
            raise ConfigurationError(
                f"local_radius must be > 0, got {self.local_radius}"
            )
        if self.omni_count < specfun.mode_count(self.order):
            raise ConfigurationError(
                f"omni_count = {self.omni_count} violates Q' >= (A+1)^2 = "
                f"{specfun.mode_count(self.order)} for order A = {self.order}"
            )
        fit = self.effective_fit_order
        if fit < self.order:
            raise ConfigurationError(
                f"fit_order {fit} must be >= microphone order {self.order}"
            )
        if self.omni_count < specfun.mode_count(fit):
            raise ConfigurationError(
                f"omni_count = {self.omni_count} cannot support fit order {fit} "
                f"(needs >= {specfun.mode_count(fit)})"
            )

    @property
    def effective_fit_order(self) -> int:
        return self.order if self.fit_order is None else self.fit_order


@dataclass(frozen=True)
class MicArray:
    unit_centers: np.ndarray = field(repr=False)  # (Q, 3) Cartesian about O
    spec: HoMicSpec = None
    local_offsets: tuple[SphericalCoord, ...] = ()

    def __post_init__(self):
        centers = np.asarray(self.unit_centers, dtype=float)
        object.__setattr__(self, "unit_centers", centers)
        if centers.ndim != 2 or centers.shape[1] != 3 or centers.shape[0] < 1:
            raise ConfigurationError(
                f"unit_centers must be a (Q >= 1, 3) array, got {centers.shape}"
            )
        for off in self.local_offsets:
            if not math.isclose(off.radius, self.spec.local_radius, rel_tol=1e-12):
                raise ConfigurationError(
                    "all local offsets must sit at the spec's local_radius"
                )

    @property
    def num_units(self) -> int:
        return self.unit_centers.shape[0]

    def omni_positions(self) -> np.ndarray:
        """(Q, Q', 3) global Cartesian positions of every omni sensor."""
        local = positions_to_cartesian(list(self.local_offsets))
        return self.unit_centers[:, None, :] + local[None, :, :]


def make_mic_array(num_units: int, center_radius: float, spec: HoMicSpec) -> MicArray:
    """Units on an equal-area sphere of ``center_radius``, shared omni layout."""
    centers = positions_to_cartesian(sphere_array(num_units, center_radius))
    offsets = tuple(sphere_array(spec.omni_count, spec.local_radius))
    return MicArray(centers, spec, offsets)


@dataclass(frozen=True)
class MeasurementTensor:
    """Raw encoded responses gamma-tilde, one (Q, L, (A+1)^2) block per frequency."""

    frequencies: np.ndarray
    gamma_tilde: np.ndarray = field(repr=False)  # (F, Q, L, (A+1)^2)
    mic_order: int
    mask_orders: np.ndarray = None  # per-frequency highest retained local order
    digests: dict = field(default_factory=dict)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        gt = np.asarray(self.gamma_tilde, dtype=complex)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "gamma_tilde", gt)
        expected_modes = specfun.mode_count(self.mic_order)
        if gt.ndim != 4 or gt.shape[0] != freqs.shape[0] or gt.shape[3] != expected_modes:
            raise ConfigurationError(
                f"gamma_tilde shape {gt.shape} inconsistent with "
                f"{freqs.shape[0]} frequencies and (A+1)^2 = {expected_modes}"
            )
        mask = self.mask_orders
        if mask is None:
            mask = np.full(freqs.shape[0], self.mic_order, dtype=int)
        object.__setattr__(self, "mask_orders", np.asarray(mask, dtype=int))

    @property
    def num_units(self) -> int:
        return self.gamma_tilde.shape[1]

    @property
    def num_speakers(self) -> int:
        return self.gamma_tilde.shape[2]

    def frequency_index(self, frequency: float) -> int:
        hits = np.nonzero(np.isclose(self.frequencies, frequency, rtol=0, atol=1e-9))[0]
        if hits.size == 0:
            raise ConfigurationError(
                f"frequency {frequency} Hz is not on the measurement grid"
            )
        return int(hits[0])


def default_mask_order(spec: HoMicSpec, ctx: WaveContext) -> int:
    """Highest local order retained at this frequency.

    Uses the ceiling truncation rule at the local radius, capped at the design
    order; orders above it are dominated by unexcited (near-Bessel-zero) modes.
    """
    return min(spec.order, truncation_order(ctx.k, spec.local_radius))


def _check_bessel_zeros(spec: HoMicSpec, ctx: WaveContext, mask_order: int) -> None:
    kr = ctx.k * spec.local_radius
    for a in range(mask_order + 1):
        if abs(specfun.spherical_bessel_j(a, kr)) < BESSEL_ZERO_THRESHOLD:
            raise BesselZeroError(
                f"local mode a = {a} sits on a Bessel zero at f = "
                f"{ctx.frequency} Hz (|j_a(kr)| < {BESSEL_ZERO_THRESHOLD}); "
                "mask it or move the frequency"
            )


def local_encoding_matrix(spec: HoMicSpec, offsets, ctx: WaveContext) -> np.ndarray:
    """Pseudoinverse fit matrix mapping Q' pressures -> local coefficients."""
    fit_order = spec.effective_fit_order
    r = np.array([o.radius for o in offsets])
    theta = np.array([o.theta for o in offsets])
    phi = np.array([o.phi for o in offsets])
    model = (
        specfun.bessel_j_matrix(fit_order, ctx.k * r)
        * specfun.harmonic_matrix(fit_order, theta, phi)
    ).T  # (Q', (fit_order+1)^2)
    return np.linalg.pinv(model)


def encode_pressures(mics: MicArray, pressures: np.ndarray, ctx: WaveContext,
                     mask_order: int | None = None) -> np.ndarray:
    """Encode omni pressures (Q, Q', ...) into local coefficients (Q, (A+1)^2, ...)."""
    spec = mics.spec
    if mask_order is None:
        mask_order = default_mask_order(spec, ctx)
    _check_bessel_zeros(spec, ctx, mask_order)
    enc = local_encoding_matrix(spec, mics.local_offsets, ctx)
    gamma = np.einsum("cq,Qq...->Qc...", enc, pressures)
    gamma = gamma[:, : specfun.mode_count(spec.order)]
    gamma[:, specfun.harmonic_orders(spec.order) > mask_order] = 0.0
    return np.moveaxis(gamma, 1, -1)  # (Q, ..., (A+1)^2), sensor-mode last


def simulate_raw_measurements(
    room: RoomModel,
    speakers: np.ndarray,
    mics: MicArray,
    frequencies,
    sound_speed: float = 343.0,
    subtract_direct_pressure: bool = False,
) -> MeasurementTensor:
    """Record the room response from every loudspeaker at every mic unit.

    ``speakers`` is an (L, 3) Cartesian array in room (analysis-frame)
    coordinates.  With ``subtract_direct_pressure`` the exact free-space direct
    field is removed from the raw omni pressures before encoding, so the tensor
    holds reverberant-only coefficients; this is the robust path when
    loudspeakers come close to a microphone's local surface.
    """
    speakers = np.asarray(speakers, dtype=float)
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    omnis = mics.omni_positions()
    Q, Qp, _ = omnis.shape
    L = speakers.shape[0]
    flat_omnis = omnis.reshape(-1, 3)
    room.check_inside(flat_omnis, "microphone sensor")
    room.check_inside(speakers, "loudspeaker")
    dist = np.linalg.norm(flat_omnis[:, None, :] - speakers[None, :, :], axis=-1)
    if np.any(dist < 1e-9):
        raise ConfigurationError("a loudspeaker coincides with a microphone sensor")

    blocks = []
    out_masks = []
    for f in frequencies:
        ctx = WaveContext(f, sound_speed)
        pressures = np.stack(
            [rtf_oracle_many(room, flat_omnis, speakers[l], ctx) for l in range(L)],
            axis=-1,
        ).reshape(Q, Qp, L)
        if subtract_direct_pressure:
            pressures = pressures - (
                np.exp(1j * ctx.k * dist) / (4.0 * math.pi * dist)
            ).reshape(Q, Qp, L)
        mask = default_mask_order(mics.spec, ctx)
        blocks.append(encode_pressures(mics, pressures, ctx, mask))
        out_masks.append(mask)
    return MeasurementTensor(
        frequencies=frequencies,
        gamma_tilde=np.stack(blocks, axis=0),
        mic_order=mics.spec.order,
        mask_orders=np.array(out_masks),
    )


def compose_all_modes(mt: MeasurementTensor, f_index: int,
                      weight_matrix: np.ndarray) -> np.ndarray:
    """All composed modes at once: (Q, (A+1)^2, M) for an (L, M) weight matrix."""
    W = np.asarray(weight_matrix, dtype=complex)
    if W.shape[0] != mt.num_speakers:
        raise ConfigurationError(
            f"weight matrix rows {W.shape[0]} do not match L = {mt.num_speakers}"
        )
    return np.einsum("Qlc,lm->Qcm", mt.gamma_tilde[f_index], W)


def direct_coefficients_per_speaker(speakers: np.ndarray, mics: MicArray,
                                    ctx: WaveContext) -> np.ndarray:
    """Analytic incident coefficients of each speaker's direct field: (Q, C, L).

    gamma_ab = i k h_a(k R_ql) conj(Y_ab(R_ql-hat)) for the vector R_ql from
    mic center q to speaker l.  Requires every speaker strictly outside each
    microphone's local region for the expansion to converge at the sensors.
    """
    speakers = np.asarray(speakers, dtype=float)
    rel = speakers[None, :, :] - mics.unit_centers[:, None, :]
    r, theta, phi = cartesian_to_spherical_arrays(rel)
    if np.any(r < 1e-12):
        raise ValueError("loudspeaker coincides with a microphone unit center")
    A = mics.spec.order
    C = specfun.mode_count(A)
    h = specfun.hankel_h1_matrix(A, ctx.k * r.ravel()).reshape(C, *r.shape)
    Y = specfun.harmonic_matrix(A, theta.ravel(), phi.ravel()).reshape(C, *r.shape)
    return (1j * ctx.k * h * np.conj(Y)).transpose(1, 0, 2)


def direct_component_all(speakers: np.ndarray, weight_matrix: np.ndarray,
                         mics: MicArray, ctx: WaveContext) -> np.ndarray:
    """Direct-field recordings for every composed mode: (Q, C, M)."""
    per_speaker = direct_coefficients_per_speaker(speakers, mics, ctx)
    return np.einsum("Qcl,lm->Qcm", per_speaker, np.asarray(weight_matrix, dtype=complex))
