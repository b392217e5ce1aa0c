"""Higher-order microphone model.

Each HO microphone is an open sphere of Q' omnis on a virtual surface of radius
r about its center R_q.  One ``MicArray`` holds the unit centers and the one
order-A design they share (Q', r and the fit order), and builds the omni
layout from that design: equal-area directions at radius r, so a perturbed
or one-unit array is a ``dataclasses.replace`` of its ``unit_centers``.
Raw per-loudspeaker responses are encoded into local incident coefficients
gamma-tilde up to order A in the real local basis S (Y = U S, see
``specfun``), which is also the basis the ``.rtfm`` stores; unit-mode
responses are then composed by linearity with the real loudspeaker
weights, and the known direct field is removed either analytically in the
coefficient domain, before the composition, or by subtracting exact direct
pressures from the raw measurements.

Local coefficients are recovered by least-squares fitting a band-limited
interior model to the omni pressures.  With the minimum Q' = (A+1)^2 sensors
and fit order A this coincides with the discrete orthogonality projection
(each orthogonality sum is the normal-equation form of the same fit), but the
fit stays exact when Q' or the fit order is raised, which the shipped configs
use to suppress leakage from orders just above A.

The encoder is factored (Rafaely, IEEE Trans. Speech Audio Process. 13,
2005).  It relies on every omni of a unit sitting on one sphere of radius r,
which holds by construction of the layout: the model j_n(kr) S is then
S^T D with D = diag j_n(kr), and its pseudoinverse is D^-1 pinv(S^T).  So
``bin_encoders`` takes one pseudoinverse of the angular table per
measurement and one Bessel call over the grid, which also checks the kept
orders for zeros; each bin divides its kept rows by j_n(kr).  Each bin has
one local order, min(A, ceil(k e r / 2)), the regions' truncation rule at
the local radius: its rows up to that order are kept, the rows above it are
exact zeros, and the measurement tensor records it as ``mask_orders``.
The direct field's angular table (``direct_table``, the
``specfun.AngularTable`` of the unit-to-loudspeaker vectors R) does not
depend on frequency either; a run builds it once, and each bin multiplies
it by i k h_n(k|R|).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import BesselZeroError, ConfigurationError
from .geometry import sphere_array
from .modal import DEFAULT_SOUND_SPEED, WaveContext, check_distinct_bins, truncation_order
from .room import RoomModel, rtf_oracle_grid

BESSEL_ZERO_THRESHOLD = 1e-8


def mic_radius(order: int, f_max: float, sound_speed: float = DEFAULT_SOUND_SPEED) -> float:
    """Design radius r = A c / (pi e f_max) of an order-A microphone."""
    if order < 1:
        raise ConfigurationError(f"microphone order must be >= 1, got {order}")
    if f_max <= 0:
        raise ConfigurationError(f"f_max must be > 0, got {f_max}")
    return order * sound_speed / (math.pi * math.e * f_max)


@dataclass(frozen=True)
class MicArray:
    """Q identical order-A units: Q' omnis on a sphere of radius r about each center,
    fit to order F (``fit_order=None`` means F = A)."""

    unit_centers: np.ndarray = field(repr=False)  # (Q, 3) Cartesian about O
    order: int
    local_radius: float
    omni_count: int
    fit_order: int | None = None
    local_offsets: np.ndarray = field(init=False, repr=False)  # (Q', 3) about each center

    def __post_init__(self):
        centers = np.asarray(self.unit_centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != 3 or centers.shape[0] < 1:
            raise ConfigurationError(
                f"unit_centers must be an (n >= 1, 3) array, got {centers.shape}"
            )
        if not 0.0 < self.local_radius < math.inf:
            raise ConfigurationError(
                f"local_radius must be finite and > 0, got {self.local_radius}"
            )
        if self.omni_count < specfun.mode_count(self.order):
            raise ConfigurationError(
                f"omni_count = {self.omni_count} violates Q' >= (A+1)^2 = "
                f"{specfun.mode_count(self.order)} for order A = {self.order}"
            )
        fit = self.order if self.fit_order is None else self.fit_order
        if fit < self.order:
            raise ConfigurationError(f"fit_order {fit} must be >= microphone order {self.order}")
        if self.omni_count < specfun.mode_count(fit):
            raise ConfigurationError(
                f"omni_count = {self.omni_count} cannot support fit order {fit} "
                f"(needs >= {specfun.mode_count(fit)})"
            )
        offsets = sphere_array(self.omni_count, self.local_radius)
        offsets.flags.writeable = False
        object.__setattr__(self, "unit_centers", centers)
        object.__setattr__(self, "fit_order", fit)
        object.__setattr__(self, "local_offsets", offsets)

    @property
    def num_units(self) -> int:
        return self.unit_centers.shape[0]

    def omni_positions(self) -> np.ndarray:
        """(Q, Q', 3) global Cartesian positions of every omni sensor."""
        return self.unit_centers[:, None, :] + self.local_offsets[None, :, :]


@dataclass(frozen=True)
class MeasurementTensor:
    """Raw encoded responses gamma-tilde, one (Q, L, (A+1)^2) block per frequency,
    in the real local basis S (Y = U S): gamma-tilde U_A of the complex-basis block."""

    frequencies: np.ndarray
    gamma_tilde: np.ndarray = field(repr=False)  # (F, Q, L, (A+1)^2)
    mic_order: int
    mask_orders: np.ndarray  # per-frequency highest retained local order
    digests: dict = field(default_factory=dict)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        gt = np.ascontiguousarray(self.gamma_tilde, dtype=complex)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "gamma_tilde", gt)
        if freqs.size == 0:
            raise ConfigurationError("a measurement tensor needs at least one frequency bin")
        check_distinct_bins(freqs, "the measurement grid")
        expected_modes = specfun.mode_count(self.mic_order)
        if gt.ndim != 4 or gt.shape[0] != freqs.shape[0] or gt.shape[3] != expected_modes:
            raise ConfigurationError(
                f"gamma_tilde shape {gt.shape} inconsistent with "
                f"{freqs.shape[0]} frequencies and (A+1)^2 = {expected_modes}"
            )
        mask = np.asarray(self.mask_orders, dtype=int)
        if self.mic_order < 0 or mask.shape != freqs.shape or np.any(mask < 0) \
                or np.any(mask > self.mic_order):
            raise ConfigurationError(f"mask_orders {mask.tolist()} must hold one order in "
                                     f"[0, mic_order = {self.mic_order}] per frequency "
                                     f"({freqs.shape[0]})")
        object.__setattr__(self, "mask_orders", mask)

    @property
    def num_units(self) -> int:
        return self.gamma_tilde.shape[1]

    @property
    def num_speakers(self) -> int:
        return self.gamma_tilde.shape[2]


def bin_encoders(mics: MicArray, ctxs) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin encoders (F, (A+1)^2, Q') from omni pressures to local coefficients in
    the real basis S, and each bin's local order (F,), for the units of ``mics``.

    The factored encoder of the module docstring: pinv(S^T), with S the real
    harmonics to ``fit_order`` at the offsets, truncated to order A, with
    each bin's rows up to its local order divided by j_n(kr) and the rest
    zero.  Orders above the local order are dominated by unexcited
    (near-Bessel-zero) modes.  A kept order on a Bessel zero raises
    BesselZeroError, naming the first such bin.  Near a zero means
    |j_a(kr)| max(1, kr) below BESSEL_ZERO_THRESHOLD: above kr = 1,
    |j_a(kr)| <= 1 / kr, so the product measures |j_a| against that envelope
    and a bin far above the band is not taken for a zero.
    """
    A, radius, offsets = mics.order, mics.local_radius, mics.local_offsets
    ks = np.array([ctx.k for ctx in ctxs])
    orders = np.array([min(A, truncation_order(k, radius)) for k in ks], dtype=int)
    bessel = specfun.bessel_j_rows(A, ks * radius)  # (A+1, F)
    envelope = np.abs(bessel) * np.maximum(1.0, ks * radius)
    zeros = (envelope < BESSEL_ZERO_THRESHOLD) & (np.arange(A + 1)[:, None] <= orders)
    if zeros.any():
        f, a = np.argwhere(zeros.T)[0]
        raise BesselZeroError(
            f"local mode a = {a} sits on a Bessel zero at f = {ctxs[f].frequency} Hz "
            f"(|j_a(kr)| max(1, kr) < {BESSEL_ZERO_THRESHOLD}); move the frequency"
        )
    angular = np.linalg.pinv(specfun.angular_table(mics.fit_order, offsets).harmonics.T)
    degrees = specfun.harmonic_orders(A)
    encoders = np.zeros((ks.size, degrees.size, offsets.shape[0]))
    np.divide(angular[:degrees.size], bessel[degrees].T[:, :, None], out=encoders,
              where=(degrees <= orders[:, None])[:, :, None])
    return encoders, orders


def simulate_raw_measurements(
    room: RoomModel,
    speakers: np.ndarray,
    mics: MicArray,
    frequencies,
    sound_speed: float = DEFAULT_SOUND_SPEED,
    subtract_direct_pressure: bool = False,
) -> MeasurementTensor:
    """Record the room response from every loudspeaker at every mic unit.

    ``speakers`` is an (L >= 1, 3) Cartesian array in room (analysis-frame)
    coordinates.  One ``rtf_oracle_grid`` call per mic unit sums the whole
    frequency grid into that unit's (F, Q', L) omni pressures, which the
    per-bin encoders of ``bin_encoders`` turn into its slice of
    gamma-tilde; no (F, Q, Q', L) pressure tensor is held.  The image
    lattice is cached per room, and ``rtf_oracle_grid`` rejects a sensor
    outside the room or a loudspeaker on a sensor.  With
    ``subtract_direct_pressure`` the free-space direct field (the
    true-source term of the image sum) is left out of the raw omni
    pressures, so the tensor holds reverberant-only coefficients; this is
    the robust path when loudspeakers come close to a microphone's local
    surface.
    """
    speakers = np.asarray(speakers, dtype=float)
    if speakers.ndim != 2 or speakers.shape[1] != 3 or speakers.shape[0] < 1:
        raise ConfigurationError(
            f"speakers must be an (L >= 1, 3) array, got shape {speakers.shape}"
        )
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    # two bins within the grid tolerance fail here, before any image-sum work
    check_distinct_bins(frequencies, "the measurement grid")
    ctxs = [WaveContext(f, sound_speed) for f in frequencies]
    omnis = mics.omni_positions()
    Q, L = omnis.shape[0], speakers.shape[0]
    # Bessel zeros are checked here, before any image-sum work
    encoders, orders = bin_encoders(mics, ctxs)
    ks = np.array([ctx.k for ctx in ctxs])
    gamma_tilde = np.empty((frequencies.size, Q, L, encoders.shape[1]), dtype=complex)
    for q in range(Q):  # no name keeps a unit's block alive while the next is summed
        gamma_tilde[:, q] = np.matmul(encoders, rtf_oracle_grid(
            room, omnis[q, :, None], speakers, ks, skip_direct=subtract_direct_pressure,
        )).transpose(0, 2, 1)
    return MeasurementTensor(
        frequencies=frequencies,
        gamma_tilde=gamma_tilde,
        mic_order=mics.order,
        mask_orders=orders,
    )


def compose_all_modes(mt: MeasurementTensor, f_index: int, weight_matrix: np.ndarray,
                      direct: np.ndarray | None = None) -> np.ndarray:
    """All composed modes in the real local basis, (Q, (A+1)^2, M), from real (L, M) weights.

    The stored gamma-tilde, minus the (Q, L, (A+1)^2) ``direct`` coefficients
    if given, times the weights: one real product on the float view.
    """
    W = np.asarray(weight_matrix)
    if np.iscomplexobj(W) or W.ndim != 2 or W.shape[0] != mt.num_speakers:
        raise ConfigurationError(f"weights must be a real (L = {mt.num_speakers}, M) "
                                 f"matrix, got {W.dtype} {W.shape}")
    g = mt.gamma_tilde[f_index]  # (Q, L, C)
    if direct is not None:
        g = g - direct
    composed = np.matmul(W.T, g.view(float)).view(complex)  # (Q, M, C)
    return composed.transpose(0, 2, 1)


def direct_table(speakers: np.ndarray, mics: MicArray) -> specfun.AngularTable:
    """The angular table to the mic order of the vectors R_ql from each unit center
    q of ``mics`` to each loudspeaker l of ``speakers`` (L, 3), q-major.

    Requires every speaker strictly outside each microphone's local region
    for the expansion to converge at the sensors.
    """
    rel = np.asarray(speakers, dtype=float)[None, :, :] - mics.unit_centers[:, None, :]
    table = specfun.angular_table(mics.order, rel.reshape(-1, 3))
    if np.any(table.radii < 1e-12):
        raise ValueError("loudspeaker coincides with a microphone unit center")
    return table


def direct_coefficients_per_speaker(table: specfun.AngularTable, mics: MicArray,
                                    ctx: WaveContext) -> np.ndarray:
    """Analytic incident coefficients of each speaker's direct field: (Q, L, C).

    gamma_ab = i k h_a(k R_ql) S_ab(R_ql-hat) in the real local basis, for
    the vector R_ql from mic center q to speaker l of ``direct_table(speakers,
    mics)``; in the complex basis it is i k h_a conj(Y_ab).  Only the Hankel
    rows depend on the bin.
    """
    h = specfun.hankel_h1_matrix(mics.order, ctx.k * table.radii)
    coeffs = 1j * ctx.k * h * table.harmonics
    return coeffs.T.reshape(mics.num_units, -1, coeffs.shape[0])
