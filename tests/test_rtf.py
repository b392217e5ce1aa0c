"""Coefficient-set reconstruction and error-metric tests."""
import math

import numpy as np
import pytest
from scipy import special as sp

from roomtf import specfun
from roomtf.errors import ConfigurationError
from roomtf.geometry import RegionPair, SphericalCoord, to_cartesian
from roomtf.modal import WaveContext, direct_field
from roomtf.rtf import (
    RtfCoefficientSet,
    probe_pairs,
    reconstruct_rtf_many,
    relative_error,
)

REGIONS = RegionPair(0.4, 0.4, 0.3, (1.0, 1.0, 0.5))


def make_set(alpha_blocks, ns, nr, freqs=(900.0,), regions=REGIONS):
    return RtfCoefficientSet(
        frequencies=np.array(freqs),
        alpha=tuple(alpha_blocks),
        source_orders=np.full(len(freqs), ns),
        receiver_orders=np.full(len(freqs), nr),
        regions=regions,
    )


def one_pair(x: SphericalCoord, y: SphericalCoord):
    """A receiver and a source point as (1, 3) Cartesian arrays."""
    return to_cartesian(x)[None, :], to_cartesian(y)[None, :]


def reverberant_at(cset, x, y, frequency=900.0):
    """Reconstruction at one pair minus the direct field in closed form."""
    X, Y = one_pair(x, y)
    direct = direct_field(X[0], Y[0] + np.asarray(REGIONS.offset), WaveContext(frequency))
    return reconstruct_rtf_many(cset, X, Y, frequency)[0] - direct


class TestCoefficientSet:
    def test_block_shape_validated(self):
        with pytest.raises(ConfigurationError):
            make_set([np.zeros((4, 4))], 2, 2)

    def test_off_grid_frequency_rejected(self):
        cset = make_set([np.zeros((1, 1))], 0, 0)
        with pytest.raises(ConfigurationError, match="not on the coefficient grid"):
            reconstruct_rtf_many(cset, [[0.1, 0, 0]], [[0, 0.1, 0]], 901.0)

    def test_per_frequency_counts(self):
        # a 900 Hz block carries (9+1)^2 x (9+1)^2 coefficients when solved at
        # the bare truncation orders; 10^2 x 10^2 = 10000 unique values
        cset = make_set([np.zeros((100, 100))], 9, 9)
        assert cset.alpha[0].size == 10000


class TestReconstruction:
    def test_zero_tensor_gives_zero_reverberant(self):
        cset = make_set([np.zeros((16, 16))], 3, 3)
        got = reverberant_at(
            cset, SphericalCoord(0.2, 1.0, 0.5), SphericalCoord(0.1, 2.0, 1.0)
        )
        assert got == 0.0

    def test_unit_monopole_entry_closed_form(self):
        alpha = np.zeros((16, 16), complex)
        alpha[0, 0] = 1.0
        cset = make_set([alpha], 3, 3)
        ctx = WaveContext(900.0)
        x = SphericalCoord(0.25, 1.2, 0.3)
        y = SphericalCoord(0.15, 0.7, 2.1)
        expected = (
            1j * ctx.k
            * specfun.spherical_bessel_j(0, ctx.k * y.radius)
            * specfun.spherical_bessel_j(0, ctx.k * x.radius)
            / (4 * math.pi)
        )
        assert reverberant_at(cset, x, y) == pytest.approx(expected, abs=1e-14)

    def test_total_minus_reverberant_is_direct(self):
        rng = np.random.default_rng(6)
        alpha = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        cset = make_set([alpha], 3, 3)
        X, Y = one_pair(SphericalCoord(0.2, 1.0, 0.4), SphericalCoord(0.2, 2.0, 5.0))
        total = reconstruct_rtf_many(cset, X, Y, 900.0)[0]
        reverberant = einsum_reverberant(cset, X, Y, 900.0)[0]
        direct = direct_field(X[0], Y[0] + np.array(REGIONS.offset), WaveContext(900.0))
        assert total - reverberant == pytest.approx(direct, abs=1e-14)

    def test_linearity_in_alpha(self):
        rng = np.random.default_rng(7)
        a1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        x = SphericalCoord(0.3, 0.9, 0.2)
        y = SphericalCoord(0.25, 1.4, 3.0)
        r1 = reverberant_at(make_set([a1], 3, 3), x, y)
        r2 = reverberant_at(make_set([a2], 3, 3), x, y)
        r12 = reverberant_at(make_set([a1 + 2 * a2], 3, 3), x, y)
        assert r12 == pytest.approx(r1 + 2 * r2, abs=1e-12)

    def test_out_of_region_rejected(self):
        cset = make_set([np.zeros((16, 16))], 3, 3)
        with pytest.raises(ConfigurationError, match=r"receiver radius 0\.5 .* radius 0\.4"):
            reconstruct_rtf_many(cset, [[0.5, 0, 0]], [[0.1, 0, 0]], 900.0)
        with pytest.raises(ConfigurationError, match=r"source radius 0\.6 .* radius 0\.4"):
            reconstruct_rtf_many(cset, [[0.1, 0, 0]], [[0, 0, 0.6]], 900.0)

    def test_vectorized_matches_scalar(self):
        # a batch equals the single-pair (1, 3) calls the CLI makes
        rng = np.random.default_rng(13)
        alpha = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        cset = make_set([alpha], 3, 3)
        X = rng.uniform(-0.2, 0.2, (5, 3))
        Y = rng.uniform(-0.2, 0.2, (5, 3))
        batch = reconstruct_rtf_many(cset, X, Y, 900.0)
        for i in range(5):
            single = reconstruct_rtf_many(cset, X[i:i + 1], Y[i:i + 1], 900.0)
            assert single.shape == (1,)
            assert batch[i] == pytest.approx(single[0], rel=1e-12)


def einsum_reverberant(cset, X, Y_s, frequency):
    """The reverberant bilinear form as a 3-operand einsum over scipy basis tables."""
    fi = cset.frequency_index(frequency)
    k = cset.context(frequency).k

    def basis(N, P):
        nm = [(n, m) for n in range(N + 1) for m in range(-n, n + 1)]
        n, m = (np.array(nm).T)[:, :, None]
        r = np.linalg.norm(P, axis=1)
        theta = np.arctan2(np.hypot(P[:, 0], P[:, 1]), P[:, 2])
        phi = np.arctan2(P[:, 1], P[:, 0])
        return sp.spherical_jn(n, k * r) * sp.sph_harm_y(n, m, theta, phi)

    by = np.conj(basis(int(cset.source_orders[fi]), Y_s))
    bx = basis(int(cset.receiver_orders[fi]), X)
    return 1j * k * np.einsum("ng,nv,vg->g", by, cset.alpha[fi], bx)


def einsum_oracle(cset, X, Y_s, frequency):
    """Direct field plus ``einsum_reverberant``."""
    k = cset.context(frequency).k
    d = np.linalg.norm(X - (Y_s + np.asarray(cset.regions.offset)), axis=1)
    direct = np.exp(1j * k * d) / (4.0 * np.pi * d)
    return direct + einsum_reverberant(cset, X, Y_s, frequency)


class TestBilinearFormOracle:
    @pytest.mark.parametrize("pairs", [1, 300])
    def test_matches_einsum(self, pairs):
        rng = np.random.default_rng(pairs)
        alpha = rng.standard_normal((121, 81)) + 1j * rng.standard_normal((121, 81))
        cset = make_set([alpha], 10, 8)
        X = rng.uniform(-0.23, 0.23, (pairs, 3))
        Y = rng.uniform(-0.23, 0.23, (pairs, 3))
        expected = einsum_oracle(cset, X, Y, 900.0)
        got = reconstruct_rtf_many(cset, X, Y, 900.0)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


class TestRelativeError:
    def test_exact_estimate(self):
        assert relative_error([1 + 1j, 2.0], [1 + 1j, 2.0]) == 0.0

    def test_zero_estimate(self):
        assert relative_error([1.0, 1j], [0.0, 0.0]) == 1.0

    def test_hand_computed_half(self):
        assert relative_error([1.0, 1j], [1.0, 0.0]) == pytest.approx(0.5)

    def test_scale_invariance(self):
        truth = np.array([1 + 2j, 0.3, -1j])
        est = np.array([1.1 + 2j, 0.2, -0.9j])
        base = relative_error(truth, est)
        s = 0.7 - 1.3j
        assert relative_error(s * truth, s * est) == pytest.approx(base, rel=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            relative_error([], [])
        with pytest.raises(ValueError):
            relative_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            relative_error([0.0, 0.0], [1.0, 1.0])


class TestProbePairs:
    def test_default_layout(self):
        receivers, sources = probe_pairs("paper-fig5", 0.4)
        assert receivers.shape == (7, 3) and sources.shape == (7, 3)
        assert np.array_equal(receivers[0], [0, 0, 0])
        assert np.allclose(np.linalg.norm(receivers[1:], axis=1), 0.4)
        # one-to-one pairing: same layout on both sides, index-matched
        assert np.array_equal(receivers, sources)

    def test_radius_scaling(self):
        receivers, _ = probe_pairs("paper-fig5", 0.1)
        assert np.allclose(np.linalg.norm(receivers[1:], axis=1), 0.1)

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            probe_pairs("bogus")
