"""Loudspeaker-array mode matching: translation matrix T, weights, conditioning.

T is the real ((N+1)^2, L) array with entry (n,m; l) =
k j_n(k y_l) S_nm(y_l-hat): the array's ``specfun.AngularTable``, which does
not depend on frequency, times the Bessel rows, times k.
The complex translation matrix T_c, with entry
i k j_n(k y_l) conj(Y_nm(y_l-hat)), is i conj(U) T, since Y = U S with U
unitary.  So T and T_c have the same singular values: the condition number
and a relative SVD cutoff read the same from either.  A weight vector w
with T_c w = beta drives the array to emit the outgoing field
sum beta_nm h_n Y_nm; a real weight vector with T w = e_s emits i h_n S_s,
the real mode s.  Rows run over the flat (n, m) index up to N, columns over
loudspeakers; N is read back from the row count.
"""
from __future__ import annotations

import math

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .modal import WaveContext

# The bins of one order share a ``bessel_j_rows`` call over at most about
# this many points (loudspeakers times bins), so the peak allocation of a
# condition-number sweep does not grow with its grid.
_BATCH_POINTS = 2048


def build_T(table: specfun.AngularTable, max_order: int, ctx: WaveContext,
            bessel: np.ndarray | None = None) -> np.ndarray:
    """Real T at order N = ``max_order``, at most the order of ``table``.

    Rows [:(N+1)^2] of the angular table times j_n(k |y_l|), times k.
    ``bessel`` holds the rows j_0 ... j_N(k |y_l|), (N+1, L), when the
    caller has them from a batch over several bins; each column of
    ``specfun.bessel_j_rows`` has the same bits in any batch.
    """
    modes = specfun.mode_count(max_order)
    if modes > table.harmonics.shape[0]:
        raise ValueError(f"an order-{max_order} T needs {modes} rows of the angular "
                         f"table, which has {table.harmonics.shape[0]}")
    if bessel is None:
        bessel = specfun.bessel_j_rows(max_order, ctx.k * table.radii)
    T = table.harmonics[:modes] * bessel[specfun.harmonic_orders(max_order)]
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


def condition_numbers(tables, orders, ctxs) -> np.ndarray:
    """kappa of T per bin and array: shape (bins, arrays).

    ``tables`` holds one ``specfun.AngularTable`` per array, to at least the
    highest order in ``orders`` within that array's aliasing bound (N+1)^2 <= L.
    Entry (b, a) is ``condition_number(build_T(tables[a], orders[b],
    ctxs[b]))`` bit for bit, and so that of a table of order ``orders[b]``
    of its own.  The bins of one order get their Bessel rows for every array
    from one ``bessel_j_rows`` call per batch.  Past the bound kappa is inf,
    and no T is built.
    """
    kappa = np.full((len(orders), len(tables)), np.inf)
    bins_by_order = {}
    for b, n in enumerate(orders):
        bins_by_order.setdefault(n, []).append(b)
    for n, bins in bins_by_order.items():
        live = [(a, t) for a, t in enumerate(tables) if specfun.mode_count(n) <= t.radii.size]
        if not live:
            continue
        step = max(1, _BATCH_POINTS // sum(t.radii.size for _, t in live))
        for first in range(0, len(bins), step):
            batch = bins[first:first + step]
            j = specfun.bessel_j_rows(
                n, np.concatenate([ctxs[b].k * t.radii for b in batch for _, t in live])
            )
            col = 0
            for b in batch:
                for a, t in live:
                    T = build_T(t, n, ctxs[b], j[:, col:col + t.radii.size])
                    kappa[b, a] = condition_number(T)
                    col += t.radii.size
    return kappa
