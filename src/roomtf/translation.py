"""Coefficient translation between the region origin and mic-unit centers.

The operator S-hat re-expresses an interior field's coefficients about a
displaced origin, in the real basis S of ``specfun``.  Writing j_v S_v,mu as
an integral over plane-wave directions and splitting e^{ik.(R + y)} by the
real expansion e^{ik.x} = 4 pi sum_n i^n j_n(k|x|) S_n(x-hat) . S_n(k-hat)
gives

    j_v S_v,mu(R + y) = sum_ab S-hat(ab, v mu) j_a S_ab(y),
    S-hat(ab, v mu) = 4 pi sum_lm i^(l+a-v) G(ab, v mu, lm) j_l(k|R|) S_lm(R-hat),

with G the real Gaunt integral of S_ab S_v,mu S_lm over the sphere.  G is
zero unless a + v + l is even, so every coefficient is real, and l <= A + V.
The integrand is a polynomial of degree at most 2(A + V) in cos(theta) and a
trigonometric polynomial of degree at most 2(A + V) in phi, so A + V + 1
Gauss-Legendre nodes in cos(theta) times 2(A + V) + 1 equispaced azimuths
integrate it exactly.  Stacking the blocks over all mic units gives the real
system matrix T-prime.  ``pipeline.least_squares`` of T-prime against the
units' reverberant recordings recovers the region coefficients, the
minimum-norm ones where T-prime has fewer rows than columns.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import specfun
from .modal import WaveContext
from .recording import MicArray


@lru_cache(maxsize=32)
def _real_term_table(local_order: int, col_order: int):
    """(rows, starts, basis, coeff) of the real S-hat block.

    Entry rows[i] (row-major over (a, b) then (v, mu)) sums terms
    starts[i]:starts[i+1], coeff times row ``basis`` (= l^2 + l + m) of
    ``real_regular_basis``: coeff = 4 pi i^(l+a-v) G(ab, v mu, lm), real as
    a + v + l is even.  G comes from the quadrature of the module docstring,
    one matmul per local mode; values below 1e-12 of a local mode's largest
    are quadrature zeros and are dropped.
    """
    L = local_order + col_order
    t, weight = np.polynomial.legendre.leggauss(L + 1)
    phi = np.linspace(0.0, 2.0 * math.pi, 2 * L + 1, endpoint=False)
    s = np.sqrt(1.0 - t * t)[:, None]
    nodes = np.stack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), t[:, None]), axis=-1)
    S = specfun.real_harmonics(L, nodes.reshape(-1, 3), np.ones(t.size * phi.size))
    n_cols = specfun.mode_count(col_order)
    weighted = S[:n_cols] * np.repeat(weight * (2.0 * math.pi / phi.size), phi.size)
    v_of, l_of = specfun.harmonic_orders(col_order), specfun.harmonic_orders(L)
    entries, basis, coeffs = [], [], []
    for ab, a in enumerate(specfun.harmonic_orders(local_order).tolist()):
        gaunt = (weighted * S[ab]) @ S.T  # G(ab, v mu, l m), shape (C_V, C_L)
        col, lm = np.nonzero(np.abs(gaunt) > 1e-12 * np.abs(gaunt).max())
        entries.append(ab * n_cols + col)
        basis.append(lm)
        coeffs.append(np.where((a + l_of[lm] - v_of[col]) % 4, -4.0, 4.0) * math.pi
                      * gaunt[col, lm])
    rows, starts = np.unique(np.concatenate(entries), return_index=True)
    return rows, starts, np.concatenate(basis), np.concatenate(coeffs)


def s_hat_blocks(local_order: int, col_order: int, displacements: np.ndarray,
                 ctx: WaveContext) -> np.ndarray:
    """Real S-hat blocks at Cartesian displacements (P, 3): (P, (A+1)^2, (V+1)^2).

    Block p is S-hat(d_p) between the real local and global bases; all P
    come from one table call.
    """
    rows, starts, basis, coeffs = _real_term_table(local_order, col_order)
    displacements = np.reshape(displacements, (-1, 3))
    r = np.linalg.norm(displacements, axis=1)
    table = specfun.real_regular_basis(local_order + col_order, ctx.k, displacements, r)
    # (terms, P), summed over each entry's run of terms along axis 0, so the
    # inner loops run over the contiguous points axis
    terms = np.take(table, basis, axis=0)
    terms *= coeffs[:, None]
    shape = (specfun.mode_count(local_order), specfun.mode_count(col_order))
    blocks = np.zeros((r.size, shape[0] * shape[1]))
    blocks[:, rows] = np.add.reduceat(terms, starts).T
    return blocks.reshape(r.size, *shape)


def build_T_prime(mics: MicArray, local_order: int, col_order: int,
                  ctx: WaveContext) -> np.ndarray:
    """Stacked real S-hat blocks, rows grouped by mic unit then flat (a, b): real.

    Each unit keeps the first (local_order+1)^2 rows of its order-A block,
    the local modes a <= local_order.
    """
    blocks = s_hat_blocks(mics.order, col_order, mics.unit_centers, ctx)
    return blocks[:, :specfun.mode_count(local_order)].reshape(-1, blocks.shape[2])
