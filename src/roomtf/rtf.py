"""RTF assembly from the extracted coefficient tensor, plus the error metric.

Each block is held in the real basis S of ``specfun`` (Y = U S), as
alpha' = U_s^H alpha U_r, the form the extraction solves for.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .geometry import RegionPair
from .modal import COINCIDENT_DISTANCE, WaveContext, check_distinct_bins, grid_index


@dataclass(frozen=True)
class RtfCoefficientSet:
    """Per-frequency alpha tensors linking source modes (n, m) to receiver modes (v, mu).

    ``alpha[i]`` is the block alpha' = U_s^H alpha U_r in the real basis, of
    shape ((N_s+1)^2, (N_r+1)^2) with the per-frequency orders in
    ``source_orders``/``receiver_orders`` — the tensor is ragged across
    frequency because the truncation orders track k.
    """

    frequencies: np.ndarray
    alpha: tuple[np.ndarray, ...] = field(repr=False)
    source_orders: np.ndarray
    receiver_orders: np.ndarray
    regions: RegionPair
    sound_speed: float = 343.0
    digests: dict = field(default_factory=dict)
    # block index -> the real and imaginary halves of alpha'^T that the queries
    # multiply by, made on the block's first query; never saved or compared
    _halves: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        check_distinct_bins(freqs, "the coefficient grid")
        object.__setattr__(self, "alpha", tuple(np.asarray(a, dtype=complex) for a in self.alpha))
        object.__setattr__(self, "source_orders", np.asarray(self.source_orders, dtype=int))
        object.__setattr__(self, "receiver_orders", np.asarray(self.receiver_orders, dtype=int))
        if len(self.alpha) != freqs.shape[0]:
            raise ConfigurationError("one alpha block per frequency is required")
        ns, nr = self.source_orders, self.receiver_orders
        if not ns.shape == nr.shape == freqs.shape or np.any(ns < 0) or np.any(nr < 0):
            raise ConfigurationError(f"source_orders {ns.tolist()} and receiver_orders "
                                     f"{nr.tolist()} must each hold one order >= 0 per "
                                     f"frequency ({freqs.shape[0]})")
        for a, n_s, n_r in zip(self.alpha, ns, nr):
            expected = (specfun.mode_count(int(n_s)), specfun.mode_count(int(n_r)))
            if a.shape != expected:
                raise ConfigurationError(
                    f"alpha block shape {a.shape} != {expected} from stored orders"
                )

    def frequency_index(self, frequency: float) -> int:
        return grid_index(self.frequencies, frequency,
                          "the coefficient grid (no interpolation is performed)")

    def context(self, frequency: float) -> WaveContext:
        return WaveContext(frequency, self.sound_speed)

    def _alpha_halves(self, i: int) -> np.ndarray:
        """Block i's alpha'^T as stacked real halves, shape (2, m_r, m_s), read-only."""
        halves = self._halves.get(i)
        if halves is None:
            a = self.alpha[i]
            halves = np.stack([a.real.T, a.imag.T])
            halves.flags.writeable = False
            halves = self._halves.setdefault(i, halves)
        return halves


def reconstruct_rtf_many(cset: RtfCoefficientSet, X: np.ndarray, Y_s: np.ndarray,
                         frequency: float) -> np.ndarray:
    """Total RTF for each pair X[i] (about O), Y_s[i] (about O_s), both (P, 3) Cartesian.

    The direct field in closed form plus the reverberant bilinear form
    1j k sum j_n(k y) conj(Y_nm(y)) alpha[(n,m), (v,mu)] j_v(k x) Y_vmu(x),
    evaluated as 1j k S_src^T alpha' S_rcv on the stored real-basis block.
    This is the one reconstruction entry point; one pair is a (1, 3) call.
    Receivers and sources share one ``real_regular_basis`` table, built to
    the larger of the two orders after every check has passed.
    """
    fi = cset.frequency_index(frequency)
    k = cset.context(frequency).k
    ns = int(cset.source_orders[fi])
    nr = int(cset.receiver_orders[fi])
    X, Y_s = np.asarray(X, dtype=float), np.asarray(Y_s, dtype=float)
    try:
        pair = (X, Y_s) if X.shape == Y_s.shape else np.broadcast_arrays(X, Y_s)
    except ValueError:
        pair = None
    if pair is None or pair[0].ndim != 2 or pair[0].shape[1] != 3:
        raise ConfigurationError(
            f"receivers {X.shape} and sources {Y_s.shape} do not broadcast to (P, 3) points"
        )
    X, Y_s = pair
    P = X.shape[0]
    points = np.concatenate([X, Y_s])
    # sqrt of the row sums of squares: the bits of np.linalg.norm(axis=1)
    r = np.sqrt((points * points).sum(axis=1))
    for what, radii, limit in (("receiver", r[:P], cset.regions.receiver_radius),
                               ("source", r[P:], cset.regions.source_radius)):
        if not (radii <= limit + 1e-12).all():  # a NaN coordinate fails here too
            raise ConfigurationError(
                f"{what} radius {radii.max()} exceeds the region radius {limit}; "
                "the parameterization is invalid there"
            )
    gap = X - (Y_s + np.asarray(cset.regions.offset))
    d = np.sqrt((gap * gap).sum(axis=1))
    if P and d.min() < COINCIDENT_DISTANCE:  # d is finite here; min raises on no pairs
        i = int(np.argmin(d))
        raise ConfigurationError(
            f"pair {i}: receiver {X[i].tolist()} and source {Y_s[i].tolist()} "
            "name the same room point"
        )
    basis = specfun.real_regular_basis(max(ns, nr), k, points, r)
    src, rcv = basis[:specfun.mode_count(ns), P:], basis[:specfun.mode_count(nr), :P]
    # the real halves of alpha'^T take turns in one (m_r, P) buffer; one product on
    # the float view would hold a second array as large as the basis table
    a_re, a_im = cset._alpha_halves(fi)
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


def probe_pairs(radius: float = 0.4):
    """One-to-one probe pairs (receiver about O, source about O_s), Cartesian.

    The Fig. 5 layout (``probes.preset: paper-fig5``) puts one probe at each
    region center and one at each axis intersection with the sphere of
    ``radius``; pairs are matched first-with-first, giving G = 7 combinations.
    """
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
