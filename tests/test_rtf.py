"""Coefficient-set reconstruction and error-metric tests."""
import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import special as sp

from roomtf import fileio
from roomtf.errors import ConfigurationError
from roomtf.geometry import RegionPair
from roomtf.geometry import spherical_to_cartesian_arrays as cartesian
from roomtf.modal import WaveContext
from roomtf.rtf import (
    RtfCoefficientSet,
    probe_pairs,
    reconstruct_rtf_many,
    relative_error,
)

from oracles import direct_field, unitary_U

REGIONS = RegionPair(0.4, 0.4, 0.3, (1.0, 1.0, 0.5))


def make_set(alpha_blocks, ns, nr, freqs=(900.0,), regions=REGIONS):
    return RtfCoefficientSet(
        frequencies=np.array(freqs),
        alpha=tuple(alpha_blocks),
        source_orders=np.full(len(freqs), ns),
        receiver_orders=np.full(len(freqs), nr),
        regions=regions,
    )


def reverberant_at(cset, x, y, frequency=900.0):
    """Reconstruction at one pair of (3,) points minus the direct field in closed form."""
    X, Y = x[None, :], y[None, :]
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
            cset, cartesian(0.2, 1.0, 0.5), cartesian(0.1, 2.0, 1.0)
        )
        assert got == 0.0

    def test_unit_monopole_entry_closed_form(self):
        alpha = np.zeros((16, 16), complex)
        alpha[0, 0] = 1.0
        cset = make_set([alpha], 3, 3)
        ctx = WaveContext(900.0)
        x = cartesian(0.25, 1.2, 0.3)
        y = cartesian(0.15, 0.7, 2.1)
        expected = (
            1j * ctx.k
            * sp.spherical_jn(0, ctx.k * 0.15)
            * sp.spherical_jn(0, ctx.k * 0.25)
            / (4 * math.pi)
        )
        assert reverberant_at(cset, x, y) == pytest.approx(expected, abs=1e-14)

    def test_total_minus_reverberant_is_direct(self):
        rng = np.random.default_rng(6)
        alpha = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        cset = make_set([alpha], 3, 3)
        X, Y = cartesian(0.2, 1.0, 0.4)[None, :], cartesian(0.2, 2.0, 5.0)[None, :]
        total = reconstruct_rtf_many(cset, X, Y, 900.0)[0]
        reverberant = einsum_reverberant(cset, X, Y, 900.0)[0]
        direct = direct_field(X[0], Y[0] + np.array(REGIONS.offset), WaveContext(900.0))
        assert total - reverberant == pytest.approx(direct, abs=1e-14)

    def test_linearity_in_alpha(self):
        rng = np.random.default_rng(7)
        a1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        x = cartesian(0.3, 0.9, 0.2)
        y = cartesian(0.25, 1.4, 3.0)
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
        with pytest.raises(ConfigurationError, match=r"receiver radius nan .* radius 0\.4"):
            reconstruct_rtf_many(cset, [[np.nan, 0, 0]], [[0.1, 0, 0]], 900.0)
        # one point against many, either way round
        with pytest.raises(ConfigurationError, match=r"receiver radius 0\.5 .* radius 0\.4"):
            reconstruct_rtf_many(cset, [[0.1, 0, 0], [0, 0.5, 0]], [[0.1, 0, 0]], 900.0)
        with pytest.raises(ConfigurationError, match=r"source radius nan .* radius 0\.4"):
            reconstruct_rtf_many(cset, [[0.1, 0, 0]], [[0, 0.1, 0], [0, 0, np.nan]], 900.0)

    def test_coincident_pair_rejected(self):
        # -0.2 + 0.3 != 0.1 in floating point, yet both name one room point
        overlap = RegionPair(0.4, 0.4, 0.3, (0.3, 0.3, 0.3))
        cset = make_set([np.zeros((16, 16))], 3, 3, regions=overlap)
        X = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.1]])
        Y = np.array([[0.1, 0.0, 0.0], [-0.2, -0.2, -0.2]])
        with pytest.raises(ConfigurationError, match="pair 1: .* same room point"):
            reconstruct_rtf_many(cset, X, Y, 900.0)
        with pytest.raises(ConfigurationError, match="pair 1: .* same room point"):
            reconstruct_rtf_many(cset, X, Y[1:], 900.0)

    @pytest.mark.parametrize("X, Y", [
        ([0.1, 0.0, 0.0], [0.0, 0.1, 0.0]),
        (np.zeros((2, 3)), np.zeros((3, 3))),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.zeros((2, 1, 3)), np.zeros((2, 1, 3))),
        (np.zeros((0, 3)), np.zeros((2, 3))),
        (np.zeros((0, 2)), np.zeros((0, 2))),
        (np.zeros((1, 2)), np.zeros((3, 3))),
    ], ids=["points", "lengths", "columns", "3d", "none-against-two", "no-columns",
            "one-against-many-columns"])
    def test_bad_point_shapes_named(self, X, Y):
        cset = make_set([np.zeros((16, 16))], 3, 3)
        with pytest.raises(ConfigurationError, match=re.escape(
            f"receivers {np.shape(X)} and sources {np.shape(Y)}"
        )):
            reconstruct_rtf_many(cset, X, Y, 900.0)

    def test_one_point_broadcasts_against_many(self):
        rng = np.random.default_rng(14)
        alpha = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        cset = make_set([alpha], 3, 3)
        X = rng.uniform(-0.2, 0.2, (4, 3))
        Y = np.array([[0.1, -0.05, 0.2]])
        got = reconstruct_rtf_many(cset, X, Y, 900.0)
        np.testing.assert_array_equal(got, reconstruct_rtf_many(cset, X, np.repeat(Y, 4, 0), 900.0))

    def test_vectorized_matches_scalar(self):
        # a batch equals the single-pair (1, 3) calls the CLI makes, to a few
        # ulps, not bit for bit: BLAS forms one column and many in different
        # orders, and so does the sum over modes
        rng = np.random.default_rng(13)
        for (ns, nr), pairs in (((3, 3), 5), ((10, 8), 2000)):
            shape = ((ns + 1) ** 2, (nr + 1) ** 2)
            alpha = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            cset = make_set([alpha], ns, nr)
            X = rng.uniform(-0.2, 0.2, (pairs, 3))
            Y = rng.uniform(-0.2, 0.2, (pairs, 3))
            batch = reconstruct_rtf_many(cset, X, Y, 900.0)
            for i in sorted({0, 1, 2, 3, 4, pairs // 2, pairs - 1}):
                single = reconstruct_rtf_many(cset, X[i:i + 1], Y[i:i + 1], 900.0)
                assert single.shape == (1,)
                assert batch[i] == pytest.approx(single[0], rel=1e-12)

    @pytest.mark.parametrize("X, Y", [
        (np.zeros((0, 3)), np.zeros((0, 3))),
        (np.zeros((0, 3)), np.zeros((1, 3))),
        (np.zeros((1, 3)), np.zeros((0, 3))),
    ], ids=["none-against-none", "none-against-one", "one-against-none"])
    def test_no_pairs_give_an_empty_result(self, X, Y):
        cset = make_set([np.ones((16, 16))], 3, 3)
        got = reconstruct_rtf_many(cset, X, Y, 900.0)
        assert got.shape == (0,) and got.dtype == complex


class TestQueryCache:
    """A query keeps its block's real halves of alpha'^T on the set, outside its value."""

    FREQS = (500.0, 900.0)
    X, Y = np.array([[0.1, 0.0, 0.2]]), np.array([[0.0, -0.1, 0.3]])

    def make(self, scale=1.0):
        rng = np.random.default_rng(21)
        blocks = [scale * (rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9)))
                  for _ in self.FREQS]
        return make_set(blocks, 3, 2, freqs=self.FREQS)

    def query(self, cset):
        return [reconstruct_rtf_many(cset, self.X, self.Y, f) for f in self.FREQS]

    def test_queries_leave_file_repr_and_value_unchanged(self, tmp_path):
        cset = self.make()
        text = repr(cset)
        fileio.save_coefficient_set(tmp_path / "fresh.rtfc", cset)
        first = self.query(cset)
        fileio.save_coefficient_set(tmp_path / "queried.rtfc", cset)
        assert (tmp_path / "queried.rtfc").read_bytes() == (tmp_path / "fresh.rtfc").read_bytes()
        assert repr(cset) == text
        loaded = fileio.load_coefficient_set(tmp_path / "queried.rtfc")
        for f in dataclasses.fields(cset):
            if f.compare:
                np.testing.assert_equal(getattr(loaded, f.name), getattr(cset, f.name))
        np.testing.assert_array_equal(self.query(cset), first)
        np.testing.assert_array_equal(self.query(loaded), first)

    def test_replaced_alpha_is_not_served_old_halves(self):
        cset = self.make()
        old = self.query(cset)
        swapped = dataclasses.replace(cset, alpha=self.make(2.0).alpha)
        got = self.query(swapped)
        np.testing.assert_array_equal(got, self.query(self.make(2.0)))
        assert not np.any(np.equal(got, old))


def einsum_reverberant(cset, X, Y_s, frequency):
    """The reverberant bilinear form as a 3-operand einsum over scipy basis tables.

    The set stores alpha' = U_s^H alpha U_r; the form on the complex tables
    takes alpha = U_s alpha' U_r^H.
    """
    fi = cset.frequency_index(frequency)
    k = cset.context(frequency).k
    ns, nr = int(cset.source_orders[fi]), int(cset.receiver_orders[fi])
    alpha = unitary_U(ns) @ cset.alpha[fi] @ unitary_U(nr).conj().T

    def basis(N, P):
        nm = [(n, m) for n in range(N + 1) for m in range(-n, n + 1)]
        n, m = (np.array(nm).T)[:, :, None]
        r = np.linalg.norm(P, axis=1)
        theta = np.arctan2(np.hypot(P[:, 0], P[:, 1]), P[:, 2])
        phi = np.arctan2(P[:, 1], P[:, 0])
        return sp.spherical_jn(n, k * r) * sp.sph_harm_y(n, m, theta, phi)

    by = np.conj(basis(ns, Y_s))
    bx = basis(nr, X)
    return 1j * k * np.einsum("ng,nv,vg->g", by, alpha, bx)


def einsum_oracle(cset, X, Y_s, frequency):
    """Direct field plus ``einsum_reverberant``."""
    k = cset.context(frequency).k
    d = np.linalg.norm(X - (Y_s + np.asarray(cset.regions.offset)), axis=1)
    direct = np.exp(1j * k * d) / (4.0 * np.pi * d)
    return direct + einsum_reverberant(cset, X, Y_s, frequency)


class TestBilinearFormOracle:
    @pytest.mark.parametrize("pairs", [1, 300])
    def test_matches_einsum(self, pairs):
        # both order shapes, and a single order 0 on either side; the batch
        # opens with a receiver at the origin against a source on the south
        # pole, then a receiver on the north pole against a source at the origin
        rng = np.random.default_rng(pairs)
        for ns, nr in ((10, 8), (8, 10), (0, 3), (3, 0)):
            shape = ((ns + 1) ** 2, (nr + 1) ** 2)
            alpha = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            cset = make_set([alpha], ns, nr)
            X = rng.uniform(-0.23, 0.23, (pairs, 3))
            Y = rng.uniform(-0.23, 0.23, (pairs, 3))
            if pairs > 1:
                X[:2] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.2]]
                Y[:2] = [[0.0, 0.0, -0.3], [0.0, 0.0, 0.0]]
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
        receivers, sources = probe_pairs(0.4)
        assert receivers.shape == (7, 3) and sources.shape == (7, 3)
        assert np.array_equal(receivers[0], [0, 0, 0])
        assert np.allclose(np.linalg.norm(receivers[1:], axis=1), 0.4)
        # one-to-one pairing: same layout on both sides, index-matched
        assert np.array_equal(receivers, sources)

    def test_radius_scaling(self):
        receivers, _ = probe_pairs(0.1)
        assert np.allclose(np.linalg.norm(receivers[1:], axis=1), 0.1)
