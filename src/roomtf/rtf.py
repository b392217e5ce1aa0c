"""RTF assembly from the extracted coefficient tensor, plus the error metric."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .geometry import RegionPair
from .modal import COINCIDENT_DISTANCE, WaveContext, grid_index


@dataclass(frozen=True)
class RtfCoefficientSet:
    """Per-frequency alpha tensors linking source modes (n, m) to receiver modes (v, mu).

    ``alpha[i]`` has shape ((N_s+1)^2, (N_r+1)^2) with the per-frequency orders
    in ``source_orders``/``receiver_orders`` — the tensor is ragged across
    frequency because the truncation orders track k.
    """

    frequencies: np.ndarray
    alpha: tuple[np.ndarray, ...] = field(repr=False)
    source_orders: np.ndarray
    receiver_orders: np.ndarray
    regions: RegionPair
    sound_speed: float = 343.0
    digests: dict = field(default_factory=dict)
    # block index -> ``_real_alpha`` of that block, built on first use
    _real_blocks: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
        return grid_index(self.frequencies, frequency,
                          "the coefficient grid (no interpolation is performed)")

    def context(self, frequency: float) -> WaveContext:
        return WaveContext(frequency, self.sound_speed)

    def _real_alpha(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """(Re a'^T, Im a'^T) for block ``index``, each ((N_r+1)^2, (N_s+1)^2).

        a' = U_s^H alpha U_r is the block in the real basis of
        ``specfun.real_regular_basis`` (Y = U S), so that
        conj(Y_src)^T alpha Y_rcv = S_src^T a' S_rcv.  Built on the first
        call for each block, then reused.
        """
        halves = self._real_blocks.get(index)
        if halves is None:
            ns, nr = int(self.source_orders[index]), int(self.receiver_orders[index])
            a = specfun.real_mode_columns(self.alpha[index], nr)  # alpha U_r
            a = specfun.real_mode_columns(a.conj().T, ns)  # (alpha U_r)^H U_s = a'^H
            halves = (a.real.copy(), -a.imag)  # a'^T = conj(a'^H)
            self._real_blocks[index] = halves
        return halves


def reconstruct_rtf_many(cset: RtfCoefficientSet, X: np.ndarray, Y_s: np.ndarray,
                         frequency: float) -> np.ndarray:
    """Total RTF for each pair X[i] (about O), Y_s[i] (about O_s), both (P, 3) Cartesian.

    The direct field in closed form plus the reverberant bilinear form
    1j k sum j_n(k y) conj(Y_nm(y)) alpha[(n,m), (v,mu)] j_v(k x) Y_vmu(x),
    evaluated in the real basis as 1j k S_src^T a' S_rcv (see
    ``RtfCoefficientSet._real_alpha``).  This is the one reconstruction entry
    point; one pair is a (1, 3) call.  Receivers and sources share one
    ``real_regular_basis`` table, built to the larger of the two orders after
    every check has passed.
    """
    fi = cset.frequency_index(frequency)
    k = cset.context(frequency).k
    ns = int(cset.source_orders[fi])
    nr = int(cset.receiver_orders[fi])
    X, Y_s = np.asarray(X, dtype=float), np.asarray(Y_s, dtype=float)
    try:
        pair = np.broadcast_arrays(X, Y_s)
    except ValueError:
        pair = None
    if pair is None or pair[0].ndim != 2 or pair[0].shape[1] != 3:
        raise ConfigurationError(
            f"receivers {X.shape} and sources {Y_s.shape} do not broadcast to (P, 3) points"
        )
    X, Y_s = pair
    P = X.shape[0]
    points = np.concatenate([X, Y_s])
    r = np.linalg.norm(points, axis=1)
    for what, radii, limit in (("receiver", r[:P], cset.regions.receiver_radius),
                               ("source", r[P:], cset.regions.source_radius)):
        if not np.all(radii <= limit + 1e-12):  # a NaN coordinate fails here too
            raise ConfigurationError(
                f"{what} radius {radii.max()} exceeds the region radius {limit}; "
                "the parameterization is invalid there"
            )
    d = np.linalg.norm(X - (Y_s + np.asarray(cset.regions.offset)), axis=1)
    if np.any(d < COINCIDENT_DISTANCE):
        i = int(np.argmin(d))
        raise ConfigurationError(
            f"pair {i}: receiver {X[i].tolist()} and source {Y_s[i].tolist()} "
            "name the same room point"
        )
    basis = specfun.real_regular_basis(max(ns, nr), k, points, r)
    a_re, a_im = cset._real_alpha(fi)
    src, rcv = basis[:specfun.mode_count(ns), P:], basis[:specfun.mode_count(nr), :P]
    # the two real halves take turns in one (m_r, P) buffer; a single stacked
    # product would hold a second array as large as the basis table
    terms = a_re @ src
    terms *= rcv
    s_re = terms.sum(axis=0)
    np.matmul(a_im, src, out=terms)
    terms *= rcv
    s_im = terms.sum(axis=0)
    reverberant = 1j * k * (s_re + 1j * s_im)
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
