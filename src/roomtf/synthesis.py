"""Loudspeaker-array mode matching: translation matrix T, weights, conditioning.

T is a plain ((N+1)^2, L) array with entry (n,m; l) = i k j_n(k y_l)
conj(Y_nm(y_l-hat)).  Rows run over the flat (n, m) index up to N, columns
over loudspeakers; N is read back from the row count.  A weight vector w with
T w = beta drives the array to emit the outgoing field described by beta.
"""
from __future__ import annotations

import math

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .geometry import SphericalCoord
from .modal import WaveContext

SVD_CUTOFF = 1e-10


def build_T(speakers: list[SphericalCoord], max_order: int, ctx: WaveContext) -> np.ndarray:
    if not speakers:
        raise ConfigurationError("at least one loudspeaker is required")
    k = ctx.k
    r = np.array([s.radius for s in speakers])
    theta = np.array([s.theta for s in speakers])
    phi = np.array([s.phi for s in speakers])
    return (
        1j * k
        * specfun.bessel_j_matrix(max_order, k * r)
        * np.conj(specfun.harmonic_matrix(max_order, theta, phi))
    )


def solve_all_weights(T: np.ndarray, num_modes: int | None = None):
    """Minimum-norm weights for the first ``num_modes`` unit targets; (L, M) + residuals.

    Column (n, m) of the result is the weight vector for that unit mode,
    computed for all modes in one pseudoinverse pass.
    """
    modes, speakers = T.shape
    max_order = math.isqrt(modes) - 1
    if speakers < modes:
        raise ConfigurationError(
            f"aliasing bound violated: L = {speakers} loudspeakers cannot "
            f"synthesize (N+1)^2 = {modes} modes (N = {max_order}); increase L"
        )
    if num_modes is None:
        num_modes = modes
    if num_modes > modes:
        raise ConfigurationError(
            f"cannot request {num_modes} modes from an order-{max_order} matrix"
        )
    W = np.linalg.pinv(T, rcond=SVD_CUTOFF)[:, :num_modes]
    residuals = np.linalg.norm(T @ W - np.eye(modes)[:, :num_modes], axis=0)
    return W, residuals


def condition_number(T: np.ndarray) -> float:
    """kappa_2 = sigma_max / sigma_min; exact rank deficiency reports inf."""
    s = np.linalg.svd(T, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])
