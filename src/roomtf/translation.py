"""Coefficient translation between the region origin and mic-unit centers.

The operator S-hat re-expresses an interior field's coefficients about a
displaced origin.  Its entries couple a global mode (v, mu) to a local mode
(a, b) through a finite sum over l (3-j selection rules: |v-a| <= l <= v+a
with v+a+l even).  Stacking the operator over all mic units gives the system
matrix T-prime whose least-squares inverse recovers the region coefficients
from the units' reverberant recordings.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import ConfigurationError
from .geometry import SphericalCoord, cartesian_to_spherical_arrays
from .modal import CoefficientVector, WaveContext
from .recording import MicArray, ModeRecordings
from .specfun import wigner_3j

SVD_CUTOFF = 1e-10


def s_hat(v: int, mu: int, a: int, b: int, displacement: SphericalCoord,
          ctx: WaveContext) -> complex:
    """Single translation-operator entry S-hat^{mu b}_{v a}(displacement)."""
    if abs(mu) > v or abs(b) > a:
        raise ValueError("degree exceeds order in s_hat indices")
    k = ctx.k
    total = 0.0j
    for l in range(abs(v - a), v + a + 1):
        if (v + a + l) % 2:
            continue
        w1 = wigner_3j(v, a, l, 0, 0, 0)
        w2 = wigner_3j(v, a, l, mu, -b, b - mu)
        if w1 == 0.0 or w2 == 0.0:
            continue
        total += (
            (1j ** l)
            * ((-1.0) ** (2 * mu - b))
            * specfun.spherical_bessel_j(l, k * displacement.radius)
            * np.conj(specfun.spherical_harmonic(
                specfun.HarmonicIndex(l, b - mu), displacement.theta, displacement.phi))
            * math.sqrt((2 * v + 1) * (2 * a + 1) * (2 * l + 1) / (4.0 * math.pi))
            * w1 * w2
        )
    return complex(4.0 * math.pi * (1j ** (a - v)) * total)


@lru_cache(maxsize=32)
def _term_table(local_order: int, col_order: int):
    """Frequency/geometry-independent sparse term list of the S-hat entries.

    Returns parallel arrays (entry, basis, coeff) such that block entry
    ``entry`` (row-major) = sum over its terms of coeff * j_l(kR) *
    conj(Y_{l m}(R-hat)), with basis = l^2 + l + m the flat row of (l, m) in
    the basis tables.
    """
    entries, basis, coeffs = [], [], []
    n_cols = specfun.mode_count(col_order)
    local_idx = specfun.harmonic_indices(local_order)
    col_idx = specfun.harmonic_indices(col_order)
    for ri, ab in enumerate(local_idx):
        a, b = ab.order, ab.degree
        for ci, vm in enumerate(col_idx):
            v, mu = vm.order, vm.degree
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


def s_hat_block(local_order: int, col_order: int, displacement: SphericalCoord,
                ctx: WaveContext) -> np.ndarray:
    """Dense S-hat block for one displacement: ((A+1)^2, (V+1)^2)."""
    entries, basis, coeffs = _term_table(local_order, col_order)
    lmax = local_order + col_order
    table = (
        specfun.bessel_j_matrix(lmax, [ctx.k * displacement.radius])
        * np.conj(specfun.harmonic_matrix(lmax, [displacement.theta], [displacement.phi]))
    )[:, 0]
    vals = coeffs * table[basis]
    shape = (specfun.mode_count(local_order), specfun.mode_count(col_order))
    size = shape[0] * shape[1]
    # summed per entry in term order, as np.add.at would, at a third of its cost
    block = (
        np.bincount(entries, vals.real, size) + 1j * np.bincount(entries, vals.imag, size)
    )
    return block.reshape(shape)


class TranslationMatrixTPrime:
    """Stacked S-hat blocks, rows grouped by mic unit then flat (a, b)."""

    def __init__(self, entries: np.ndarray, mics: MicArray, col_order: int,
                 row_order: int, ctx: WaveContext):
        self.entries = entries
        self.mics = mics
        self.col_order = col_order
        self.row_order = row_order  # local orders above this are dropped
        self.ctx = ctx
        self._pinv = None

    @property
    def rows_per_unit(self) -> int:
        return self.entries.shape[0] // self.mics.num_units

    def row_mask(self) -> np.ndarray:
        """Boolean mask over the full (A+1)^2 local modes selecting kept rows."""
        return specfun.harmonic_orders(self.mics.spec.order) <= self.row_order

    def pseudoinverse(self, cutoff: float = SVD_CUTOFF) -> np.ndarray:
        if self._pinv is None:
            self._pinv = np.linalg.pinv(self.entries, rcond=cutoff)
        return self._pinv


def build_T_prime(mics: MicArray, col_order: int, ctx: WaveContext,
                  row_order: int | None = None,
                  allow_underdetermined: bool = False) -> TranslationMatrixTPrime:
    """Assemble T-prime; rows with local order above ``row_order`` are dropped."""
    A = mics.spec.order
    if row_order is None:
        row_order = A
    row_order = min(row_order, A)
    total_rows = mics.num_units * specfun.mode_count(A)
    n_cols = specfun.mode_count(col_order)
    if total_rows < n_cols and not allow_underdetermined:
        raise ConfigurationError(
            f"aliasing bound violated: Q (A+1)^2 = {total_rows} rows cannot "
            f"resolve (N_r+1)^2 = {n_cols} receiver modes; increase Q or lower N_r"
        )
    r, theta, phi = cartesian_to_spherical_arrays(mics.unit_centers)
    keep = specfun.harmonic_orders(A) <= row_order
    blocks = []
    for q in range(mics.num_units):
        disp = SphericalCoord(float(r[q]), float(theta[q]), float(phi[q]))
        blocks.append(s_hat_block(A, col_order, disp, ctx)[keep])
    return TranslationMatrixTPrime(np.vstack(blocks), mics, col_order, row_order, ctx)


def _stack_recordings(Tp: TranslationMatrixTPrime, gamma: np.ndarray) -> np.ndarray:
    """(Q, (A+1)^2, ...) recordings -> row-stacked system right-hand side."""
    keep = Tp.row_mask()
    g = np.asarray(gamma, dtype=complex)
    if g.shape[0] != Tp.mics.num_units or g.shape[1] != keep.size:
        raise ConfigurationError(
            f"recordings shape {g.shape} does not match T-prime layout "
            f"({Tp.mics.num_units} units x {keep.size} local modes)"
        )
    return g[:, keep].reshape(Tp.mics.num_units * int(keep.sum()), *g.shape[2:])


def solve_alpha(Tp: TranslationMatrixTPrime, recordings: ModeRecordings,
                cutoff: float = SVD_CUTOFF):
    """Least-squares region coefficients for one composed mode; (alpha, residual)."""
    rhs = _stack_recordings(Tp, recordings.gamma)
    alpha = Tp.pseudoinverse(cutoff) @ rhs
    residual = float(np.linalg.norm(Tp.entries @ alpha - rhs))
    return CoefficientVector(Tp.col_order, alpha), residual


def solve_alpha_all(Tp: TranslationMatrixTPrime, gamma_all: np.ndarray,
                    cutoff: float = SVD_CUTOFF):
    """Joint solve over all composed modes: (Q, (A+1)^2, M) -> ((V+1)^2, M)."""
    rhs = _stack_recordings(Tp, gamma_all)
    alpha = Tp.pseudoinverse(cutoff) @ rhs
    residual = float(np.linalg.norm(Tp.entries @ alpha - rhs))
    return alpha, residual


def translate_interior(coeffs: CoefficientVector, displacement: SphericalCoord,
                       local_order: int, ctx: WaveContext) -> CoefficientVector:
    """Local coefficients about O + displacement of a field known about O."""
    block = s_hat_block(local_order, coeffs.max_order, displacement, ctx)
    return CoefficientVector(local_order, block @ coeffs.entries)
