"""Loudspeaker-array mode matching: translation matrix T, weights, conditioning.

T is the real ((N+1)^2, L) array k S, with entry (n,m; l) =
k j_n(k y_l) S_nm(y_l-hat) from ``specfun.real_regular_basis``.  The complex
translation matrix T_c, with entry i k j_n(k y_l) conj(Y_nm(y_l-hat)), is
i conj(U) T, since Y = U S with U unitary.  So T and T_c have the same
singular values: the condition number and a relative SVD cutoff read the same
from either.  A weight vector w with T_c w = beta drives the array to emit the
outgoing field sum beta_nm h_n Y_nm; a real weight vector with T w = e_s
emits i h_n S_s, the real mode s.  Rows run over the flat (n, m) index up to
N, columns over loudspeakers; N is read back from the row count.
"""
from __future__ import annotations

import math

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .modal import WaveContext


def build_T(speakers: np.ndarray, max_order: int, ctx: WaveContext) -> np.ndarray:
    """Real T = k S of the loudspeakers at the rows of ``speakers`` (L, 3), region-centered."""
    speakers = np.asarray(speakers, dtype=float)
    if speakers.ndim != 2 or speakers.shape[1] != 3 or speakers.shape[0] < 1:
        raise ConfigurationError(
            f"loudspeakers must be an (L >= 1, 3) array, got shape {speakers.shape}"
        )
    r = np.linalg.norm(speakers, axis=1)
    T = specfun.real_regular_basis(max_order, ctx.k, speakers, r)
    T *= ctx.k
    return T


def solve_all_weights(T: np.ndarray, num_modes: int | None = None, *, cutoff: float):
    """Minimum-norm real weights for the first ``num_modes`` real modes; (L, M) + residuals.

    ``T`` is the real matrix of ``build_T``.  Column s of the result is a
    column of pinv(T), the weight vector w with T w = e_s, and its residual
    is |T w - e_s|, which equals the complex misfit |T_c w - i conj(U) e_s|.
    Singular values of T below ``cutoff`` times the largest are dropped.
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
    W = np.linalg.pinv(T, rcond=cutoff)[:, :num_modes]
    residuals = np.linalg.norm(T @ W - np.eye(modes, num_modes), axis=0)
    return W, residuals


def condition_number(T: np.ndarray) -> float:
    """kappa_2 = sigma_max / sigma_min; a T that cannot be inverted reports inf.

    That is an exactly rank-deficient T, or one with more rows than columns:
    past the aliasing bound (N+1)^2 > L, T w = beta has no solution for a
    general beta.
    """
    if T.shape[0] > T.shape[1]:
        return float("inf")
    s = np.linalg.svd(T, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])
