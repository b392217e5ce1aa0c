"""Coefficient translation between the region origin and mic-unit centers.

The operator S-hat re-expresses an interior field's coefficients about a
displaced origin.  Its entries couple a global mode (v, mu) to a local mode
(a, b) through a finite sum over l (3-j selection rules: |v-a| <= l <= v+a
with v+a+l even) of j_l(kR) conj(Y_l,b-mu(R-hat)).  Between the real bases
(Y = U S, see ``specfun``) the operator U_A^T S-hat conj(U_V) is real, and
its terms are sums over the real table j_l S.  Stacking it over all mic units
gives the real system matrix T-prime, whose least-squares inverse recovers
the region coefficients, in the real basis, from the units' reverberant
recordings.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .modal import WaveContext
from .recording import MicArray
from .specfun import wigner_3j


def _term_table(local_order: int, col_order: int):
    """Frequency/geometry-independent sparse term list of the complex S-hat entries.

    Returns parallel arrays (entry, basis, coeff) such that block entry
    ``entry`` (row-major) = sum over its terms of coeff * j_l(kR) *
    conj(Y_{l m}(R-hat)), with basis = l^2 + l + m the flat row of (l, m) in
    the basis tables.
    """
    entries, basis, coeffs = [], [], []
    n_cols = specfun.mode_count(col_order)
    col_orders = specfun.harmonic_orders(col_order).tolist()
    for ri, a in enumerate(specfun.harmonic_orders(local_order).tolist()):
        b = ri - a * a - a
        for ci, v in enumerate(col_orders):
            mu = ci - v * v - v
            for l in range(abs(v - a), v + a + 1):
                if (v + a + l) % 2 or abs(b - mu) > l:
                    continue
                w1 = wigner_3j(v, a, l, 0, 0, 0)
                w2 = wigner_3j(v, a, l, mu, -b, b - mu)
                if w1 == 0.0 or w2 == 0.0:
                    continue
                entries.append(ri * n_cols + ci)
                basis.append(l * l + l + b - mu)
                coeffs.append(
                    4.0 * math.pi
                    * (1j ** (a - v)) * (1j ** l) * ((-1.0) ** (2 * mu - b))
                    * math.sqrt((2 * v + 1) * (2 * a + 1) * (2 * l + 1) / (4.0 * math.pi))
                    * w1 * w2
                )
    return np.array(entries), np.array(basis), np.array(coeffs, dtype=complex)


@lru_cache(maxsize=32)
def _real_term_table(local_order: int, col_order: int):
    """(rows, starts, basis, coeff) of the real block U_A^T S-hat conj(U_V).

    Entry rows[i] (row-major) sums terms starts[i]:starts[i+1], coeff times
    row ``basis`` of ``real_regular_basis``.  Through conj(Y) = conj(U) S,
    each index paired with (n, -m), a complex term spreads over at most eight
    real ones; the sums are real, as v + a + l is even.  Sums below 1e-12 of
    the largest (cancelled, or 3-j symbols zero up to rounding) are dropped.
    """
    entries, basis, coeffs = _term_table(local_order, col_order)
    n_cols = specfun.mode_count(col_order)
    index = [*np.divmod(entries, n_cols), basis]
    values = coeffs
    for axis, (order, conj) in enumerate(
            ((local_order, False), (col_order, True), (local_order + col_order, True))):
        U = specfun.real_mode_columns(np.eye(specfun.mode_count(order)), order)
        if conj:
            U = U.conj()
        i = index[axis]
        n = specfun.harmonic_orders(order)[i]
        partner = 2 * (n * n + n) - i  # (n, -m) of (n, m)
        index = [np.concatenate([i, partner]) if ax == axis else np.tile(ix, 2)
                 for ax, ix in enumerate(index)]
        values = np.tile(values, 2) * np.concatenate([U[i, i], U[i, partner] * (partner != i)])
    n_basis = specfun.mode_count(local_order + col_order)
    keys, where = np.unique((index[0] * n_cols + index[1]) * n_basis + index[2],
                            return_inverse=True)
    total = np.bincount(where, values.real)
    kept = np.abs(total) > 1e-12 * np.abs(total).max()
    entry, basis = np.divmod(keys[kept], n_basis)
    rows, starts = np.unique(entry, return_index=True)
    return rows, starts, basis, total[kept]


def s_hat_blocks(local_order: int, col_order: int, displacements: np.ndarray,
                 ctx: WaveContext) -> np.ndarray:
    """Real S-hat blocks at Cartesian displacements (P, 3): (P, (A+1)^2, (V+1)^2).

    Block p is U_A^T S-hat(d_p) conj(U_V), the operator between the real
    local and global bases (Y = U S); all P come from one table call.
    """
    rows, starts, basis, coeffs = _real_term_table(local_order, col_order)
    displacements = np.reshape(displacements, (-1, 3))
    r = np.linalg.norm(displacements, axis=1)
    table = specfun.real_regular_basis(local_order + col_order, ctx.k, displacements, r).T
    shape = (specfun.mode_count(local_order), specfun.mode_count(col_order))
    blocks = np.zeros((r.size, shape[0] * shape[1]))
    blocks[:, rows] = np.add.reduceat(table[:, basis] * coeffs, starts, axis=1)
    return blocks.reshape(r.size, *shape)


def build_T_prime(mics: MicArray, col_order: int, ctx: WaveContext,
                  keep: np.ndarray) -> np.ndarray:
    """Stacked real S-hat blocks, rows grouped by mic unit then flat (a, b): real.

    ``keep`` is a boolean mask over the (A+1)^2 local modes; rows it leaves
    out are dropped from every unit's block.
    """
    A = mics.spec.order
    total_rows = mics.num_units * specfun.mode_count(A)
    n_cols = specfun.mode_count(col_order)
    if total_rows < n_cols:
        raise ConfigurationError(
            f"aliasing bound violated: Q (A+1)^2 = {total_rows} rows cannot "
            f"resolve (N_r+1)^2 = {n_cols} receiver modes; increase Q or lower N_r"
        )
    return s_hat_blocks(A, col_order, mics.unit_centers, ctx)[:, keep].reshape(-1, n_cols)


def solve_alpha_all(Tp: np.ndarray, gamma_all: np.ndarray, keep: np.ndarray,
                    cutoff: float):
    """Joint least-squares solve over all composed modes; (alpha, residual).

    ``gamma_all`` holds the recordings (Q, (A+1)^2, ...) and ``keep`` the
    local-mode mask T' was built with; alpha has shape ((V+1)^2, ...).  The
    real pseudoinverse of T' is applied to the float view of the complex
    recordings.  Singular values of T' below ``cutoff`` times the largest are
    dropped.
    """
    g = np.asarray(gamma_all, dtype=complex)
    rows = g.shape[0] * int(np.count_nonzero(keep))
    if g.ndim < 2 or g.shape[1] != keep.size or rows != Tp.shape[0]:
        raise ConfigurationError(
            f"recordings shape {g.shape} does not match the T-prime layout "
            f"({Tp.shape[0]} rows from {keep.size} local modes per unit)"
        )
    rhs = np.ascontiguousarray(g[:, keep]).reshape(rows, -1).view(float)
    alpha = np.linalg.pinv(Tp, rcond=cutoff) @ rhs
    residual = float(np.linalg.norm(Tp @ alpha - rhs))
    return alpha.view(complex).reshape(Tp.shape[1], *g.shape[2:]), residual
