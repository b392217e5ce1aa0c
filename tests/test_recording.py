"""HO microphone tests: encoding fidelity, composition, direct-field removal."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sp

from roomtf import recording, specfun
from roomtf.errors import BesselZeroError, ConfigurationError
from roomtf.geometry import sphere_array
from roomtf.modal import WaveContext, truncation_order
from roomtf.recording import (
    MicArray,
    bin_encoders,
    compose_all_modes,
    direct_coefficients_per_speaker,
    direct_table,
    mic_radius,
    simulate_raw_measurements,
)
from roomtf.room import RoomModel

from oracles import (
    cartesian_to_spherical_arrays,
    per_bin_direct_coefficients,
    harmonics,
    interior_basis,
    pinv_encoding_matrix,
    rtf_oracle_many,
    unitary_U,
)

REFERENCE_DIMS = (6.0, 5.0, 2.5)


def reference_mics(units, center_radius, omnis=49, fit=5):
    """``units`` order-3 units of the 1 kHz design radius, centered on a sphere."""
    return MicArray(sphere_array(units, center_radius), 3, mic_radius(3, 1000.0), omnis, fit)


def encode(mics, pressures, ctx):
    """Omni pressures (Q, Q', ...) -> local coefficients (Q, ..., (A+1)^2)."""
    encoders, _ = bin_encoders(mics, [ctx])
    return np.tensordot(pressures, encoders[0], axes=([1], [1]))  # sensor-mode last


class TestMicRadius:
    def test_reference_design_value(self):
        assert mic_radius(3, 1000.0, 343.0) == pytest.approx(0.12049, abs=1e-5)

    def test_first_order_value(self):
        assert mic_radius(1, 1000.0, 343.0) == pytest.approx(0.04016, abs=1e-5)

    def test_inverse_proportionality(self):
        assert mic_radius(2, 2000.0) == pytest.approx(mic_radius(2, 1000.0) / 2, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            mic_radius(0, 1000.0)
        with pytest.raises(ConfigurationError):
            mic_radius(3, -1.0)


class TestSpecsAndArrays:
    CENTERS = np.zeros((2, 3))

    def test_omni_count_bound(self):
        with pytest.raises(ConfigurationError, match=r"\(A\+1\)\^2"):
            MicArray(self.CENTERS, 3, 0.12, 15)

    def test_fit_order_bounds(self):
        with pytest.raises(ConfigurationError, match="fit_order 2 must be >= microphone order 3"):
            MicArray(self.CENTERS, 3, 0.12, 49, fit_order=2)
        with pytest.raises(ConfigurationError, match="cannot support fit order 5"):
            MicArray(self.CENTERS, 3, 0.12, 20, fit_order=5)  # 20 < 36 sensors

    @pytest.mark.parametrize("radius", [0.0, -0.12, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_local_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ConfigurationError, match="local_radius must be finite and > 0"):
            MicArray(self.CENTERS, 3, radius, 49, 5)

    @pytest.mark.parametrize("centers", [np.zeros((2, 2)), np.zeros((0, 3)), np.zeros(3)],
                             ids=["columns", "empty", "flat"])
    def test_centers_must_be_points(self, centers):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"unit_centers must be an (n >= 1, 3) array, "
                                           f"got {centers.shape}")):
            MicArray(centers, 3, 0.12, 49, 5)

    def test_array_construction(self):
        mics = reference_mics(9, 0.28)
        assert mics.num_units == 9
        assert mics.omni_positions().shape == (9, 49, 3)
        assert np.allclose(np.linalg.norm(mics.unit_centers, axis=1), 0.28)
        assert np.array_equal(mics.local_offsets, sphere_array(49, mics.local_radius))
        with pytest.raises(ValueError, match="read-only"):
            mics.local_offsets[0, 0] = 1.0

    def test_fit_order_none_means_the_mic_order(self):
        mics = MicArray(self.CENTERS, 3, 0.12, 16)
        assert mics.fit_order == 3
        assert replace(mics, unit_centers=np.ones((1, 3))).fit_order == 3


class TestLocalEncoding:
    def test_band_limited_field_recovered_exactly(self):
        # end-to-end local fidelity: synthesize a known interior field at the
        # omni positions and require the encoder to return its coefficients
        mics = reference_mics(4, 0.27)
        ctx = WaveContext(900.0)
        rng = np.random.default_rng(5)
        gamma_true = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        basis = interior_basis(3, mics.local_offsets, ctx)  # (16, Q')
        pressures = np.broadcast_to(gamma_true @ basis, (4, mics.omni_count)).copy()
        gamma = encode(mics, pressures, ctx)  # in the real basis: gamma_true U
        want = gamma_true @ unitary_U(3)
        rel = np.linalg.norm(gamma - want[None, :]) / np.linalg.norm(want)
        assert rel < 1e-6

    def test_minimum_sensor_count_still_recovers(self):
        mics = reference_mics(2, 0.25, omnis=16, fit=None)  # Q' = (A+1)^2, fit = A
        ctx = WaveContext(800.0)
        rng = np.random.default_rng(9)
        gamma_true = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        pressures = np.broadcast_to(
            gamma_true @ interior_basis(3, mics.local_offsets, ctx), (2, 16)
        ).copy()
        gamma = encode(mics, pressures, ctx)  # in the real basis: gamma_true U
        want = gamma_true @ unitary_U(3)
        rel = np.linalg.norm(gamma - want[None, :]) / np.linalg.norm(want)
        assert rel < 1e-6

    def test_masked_modes_exactly_zero(self):
        mics = reference_mics(2, 0.25)
        ctx = WaveContext(300.0)
        assert bin_encoders(mics, [ctx])[1].tolist() == [1]
        pressures = np.ones((2, mics.omni_count))
        gamma = encode(mics, pressures, ctx)
        assert np.all(gamma[:, specfun.harmonic_orders(3) > 1] == 0.0)
        assert not np.any(np.isnan(gamma))

    def test_bessel_zero_raises(self):
        mics = reference_mics(1, 0.2)
        f = 343.0 / (2 * mics.local_radius)  # k r = pi, a Bessel zero of j_0
        with pytest.raises(BesselZeroError, match="a = 0"):
            bin_encoders(mics, [WaveContext(f)])

    def test_higher_order_bessel_zero_named(self):
        mics = reference_mics(1, 0.2)
        f = 4.493409457909064 * 343.0 / (2 * math.pi * mics.local_radius)  # first zero of j_1
        with pytest.raises(BesselZeroError, match="a = 1 sits on a Bessel zero"):
            bin_encoders(mics, [WaveContext(f)])

    def test_bin_far_above_the_band_is_not_a_bessel_zero(self):
        # at k r ~ 1.3e297, |j_a(kr)| is near its 1 / (kr) envelope, far below
        # 1e-8 but no zero; the image sums then reject the bin's phases
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = reference_mics(1, 0.2, omnis=16, fit=3)
        ctx = WaveContext(1.0e300)
        encoders, orders = bin_encoders(mics, [ctx])
        kr = ctx.k * mics.local_radius
        assert orders.tolist() == [3]
        assert np.all(np.abs(specfun.bessel_j_rows(3, [kr])) < 1e-8)
        assert np.all(np.isfinite(encoders))
        with pytest.raises(ConfigurationError, match="beyond double precision"):
            simulate_raw_measurements(room, np.array([[1.0, 1.0, 0.5]]), mics, [1.0e300])


class TestFactoredEncoder:
    """The per-run encoder, bin by bin, against one pinv per bin."""

    # rule orders 1, 1, 2, 3, 3 at the reference radius: every order 1 to A
    FREQUENCIES = (150.0, 300.0, 650.0, 900.0, 1600.0)

    @pytest.mark.parametrize("omnis,fit", [(49, 5), (16, 3), (36, 4)])
    @pytest.mark.parametrize("f", FREQUENCIES)
    def test_matches_the_per_bin_pseudoinverse(self, omnis, fit, f):
        mics = reference_mics(2, 0.25, omnis, fit)
        encoders, orders = bin_encoders(mics, [WaveContext(g) for g in self.FREQUENCIES])
        i = self.FREQUENCIES.index(f)
        ctx = WaveContext(f)
        got, order = encoders[i], int(orders[i])
        assert order == min(3, truncation_order(ctx.k, mics.local_radius))
        r = np.linalg.norm(mics.local_offsets, axis=1)
        model = specfun.real_regular_basis(fit, ctx.k, mics.local_offsets, r).T  # (Q', C_fit)
        # 1e-12 wherever the per-bin fit is well conditioned.  At 150 Hz its
        # condition number kappa reaches 8.9e4 (order-4 fit) and 3.2e6
        # (order-5 fit, j_5(kr) ~ 4e-7), and the oracle's own pinv rounds to
        # 1.2e-12 and 5.1e-12 there, at most 4e-15 sqrt(kappa) in every case
        # below; the bound 1e-14 sqrt(kappa) keeps a factor 2.5 over that
        tol = max(1e-12, 1e-14 * math.sqrt(np.linalg.cond(model)))
        want = pinv_encoding_matrix(mics, ctx, order)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        masked = specfun.harmonic_orders(3) > order
        assert np.all(got[masked] == 0.0) and np.all(want[masked] == 0.0)
        # either way, the kept rows invert the band-limited model
        kept = specfun.mode_count(order)
        identity = np.eye(model.shape[1])[:kept]
        assert np.max(np.abs(got[:kept] @ model - identity)) < 1e-13

    def test_bessel_zero_raises_on_both(self):
        mics = reference_mics(1, 0.2)
        ctx = WaveContext(343.0 / (2 * mics.local_radius))  # k r = pi, a zero of j_0
        with pytest.raises(BesselZeroError, match="a = 0"):
            bin_encoders(mics, [ctx])
        with pytest.raises(BesselZeroError):
            pinv_encoding_matrix(mics, ctx, 0)


class TestSimulatedMeasurements:
    def test_free_field_matches_analytic_incident_coeffs(self):
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 2)
        mics = reference_mics(3, 0.26)
        speakers = np.array([[1.0, 1.0, 0.5], [0.9, 1.3, 0.2]])
        ctx = WaveContext(900.0)
        mt = simulate_raw_measurements(room, speakers, mics, [900.0])
        expected = complex_direct_coefficients(speakers, mics, ctx) @ unitary_U(3)  # (Q, L, C)
        mask = int(mt.mask_orders[0])
        keep = specfun.harmonic_orders(3) <= mask
        got = mt.gamma_tilde[0][..., keep]
        want = expected[..., keep]
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.01

    def test_tensor_shape_reference_counts(self):
        mt_shape = (1, 9, 121, 16)
        # shape contract only; the full reference-sized simulation runs in
        # the acceptance suite
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = reference_mics(9, 0.27, omnis=16, fit=3)
        rng = np.random.default_rng(0)
        speakers = rng.uniform(-0.1, 0.1, (121, 3)) + np.array([1.0, 1.0, 0.5])
        mt = simulate_raw_measurements(room, speakers, mics, [700.0])
        assert mt.gamma_tilde.shape == mt_shape
        assert mt.gamma_tilde.size == 9 * 121 * 16

    def test_speaker_outside_room_rejected(self):
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = reference_mics(1, 0.2, omnis=16, fit=3)
        with pytest.raises(ConfigurationError, match="outside the room"):
            simulate_raw_measurements(room, np.array([[7.0, 0.0, 0.0]]), mics, [500.0])

    @pytest.mark.parametrize("speakers", [np.array([1.0, 1.0, 0.5]), np.zeros((0, 3)),
                                          np.ones((2, 3, 3)), np.ones((2, 2))],
                             ids=["one-point", "none", "three-axes", "two-coordinates"])
    def test_speakers_must_be_an_L_by_3_array(self, speakers):
        # a (3,) point once broadcast into three identical loudspeaker columns
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = reference_mics(1, 0.2, omnis=16, fit=3)
        message = re.escape(f"speakers must be an (L >= 1, 3) array, got shape {speakers.shape}")
        with pytest.raises(ConfigurationError, match=message):
            simulate_raw_measurements(room, speakers, mics, [900.0])

    def test_frequency_grid_lookup(self):
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = reference_mics(1, 0.2, omnis=16, fit=3)
        mt = simulate_raw_measurements(
            room, np.array([[1.0, 1.0, 0.5]]), mics, [500.0, 600.0]
        )
        assert mt.frequencies.tolist() == [500.0, 600.0]


def per_bin_measurements(room, speakers, mics, frequencies, subtract_direct):
    """The grid simulator's oracle: per bin, rtf_oracle_many pressures minus the
    explicit direct field if asked, encoded by the per-bin encoder: (F, Q, L, C)."""
    omnis = mics.omni_positions()
    d = np.linalg.norm(omnis[:, :, None, :] - speakers, axis=-1)
    blocks = []
    for f in frequencies:
        ctx = WaveContext(f)
        p = rtf_oracle_many(room, omnis[:, :, None, :], speakers, ctx)
        if subtract_direct:
            p = p - np.exp(1j * ctx.k * d) / (4 * np.pi * d)
        blocks.append(encode(mics, p, ctx))
    return np.stack(blocks)


class TestGridSimulation:
    """simulate_raw_measurements over a whole grid against the per-bin path."""

    SPEAKERS = np.array([[1.0, 1.0, 0.5], [0.9, 1.3, 0.2], [-0.7, 0.4, 0.6]])

    def geometry(self):
        room = RoomModel(REFERENCE_DIMS, (0.9, 0.9, 0.9, 0.9, 0.7, 0.7), 2)
        return room, reference_mics(2, 0.26, omnis=16, fit=3)

    def check(self, frequencies, subtract_direct):
        room, mics = self.geometry()
        mt = simulate_raw_measurements(room, self.SPEAKERS, mics, frequencies,
                                       subtract_direct_pressure=subtract_direct)
        want = per_bin_measurements(room, self.SPEAKERS, mics, frequencies, subtract_direct)
        assert mt.gamma_tilde.shape == want.shape == (len(frequencies), 2, 3, 16)
        for got_f, want_f in zip(mt.gamma_tilde, want):
            assert np.max(np.abs(got_f - want_f)) <= 1e-12 * np.max(np.abs(want_f))

    @pytest.mark.parametrize("subtract_direct", [False, True])
    def test_uniform_grid_matches_per_bin(self, subtract_direct):
        self.check(200.0 + 40.0 * np.arange(24), subtract_direct)  # crosses a re-anchor

    def test_non_uniform_grid_matches_per_bin(self):
        self.check(np.array([250.0, 410.0, 415.0, 800.0, 1210.0]), False)

    def test_single_bin_matches_per_bin(self):
        self.check(np.array([900.0]), True)

    @pytest.mark.parametrize("frequencies", [
        200.0 + 40.0 * np.arange(24),  # uniform, across a re-anchor
        np.array([900.0]),
        150.0 + 37.5 * np.arange(20) + 1e-3 * np.arange(20) ** 2,  # not uniform
    ], ids=["uniform", "single-bin", "two-passes"])
    @pytest.mark.parametrize("subtract_direct", [False, True])
    def test_all_units_at_once_equal_one_unit_at_a_time(self, frequencies, subtract_direct):
        # every block takes the same kernel as a one-unit call, so the same bits
        room, mics = self.geometry()
        mt = simulate_raw_measurements(room, self.SPEAKERS, mics, frequencies,
                                       subtract_direct_pressure=subtract_direct)
        for q in range(mics.num_units):
            unit = replace(mics, unit_centers=mics.unit_centers[q:q + 1])
            one = simulate_raw_measurements(room, self.SPEAKERS, unit, frequencies,
                                            subtract_direct_pressure=subtract_direct)
            assert np.array_equal(mt.gamma_tilde[:, q], one.gamma_tilde[:, 0])

    @pytest.mark.parametrize("subtract_direct", [False, True])
    def test_speaker_on_sensor_rejected(self, subtract_direct):
        room, mics = self.geometry()
        speakers = np.vstack([self.SPEAKERS, mics.omni_positions()[1, 5]])
        with pytest.raises(ConfigurationError, match="coincides"):
            simulate_raw_measurements(room, speakers, mics, [300.0, 400.0],
                                      subtract_direct_pressure=subtract_direct)

    def test_bessel_zero_raised_before_oracle_work(self, monkeypatch):
        room, mics = self.geometry()

        def no_image_sums(*args, **kwargs):
            raise AssertionError("the image sums started before the Bessel check")

        monkeypatch.setattr(recording, "rtf_oracle_grid", no_image_sums)
        for a, kr in ((0, math.pi), (1, 4.493409457909064)):  # first zeros of j_0 and j_1
            f_zero = kr * 343.0 / (2 * math.pi * mics.local_radius)
            # the third bin and its lowest kept order on a zero: j_0 is not zero at kr_1
            with pytest.raises(BesselZeroError,
                               match=re.escape(f"a = {a} sits on a Bessel zero at f = {f_zero} Hz")):
                simulate_raw_measurements(room, self.SPEAKERS, mics,
                                          [300.0, 600.0, f_zero, 1200.0])

    def test_close_bins_rejected_before_any_work(self, monkeypatch):
        # a lookup of either bin would answer with the other, so the grid is
        # checked before the encoders and the image sums
        room, mics = self.geometry()

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the grid check")

        monkeypatch.setattr(recording, "bin_encoders", no_work)
        monkeypatch.setattr(recording, "rtf_oracle_grid", no_work)
        with pytest.raises(ConfigurationError,
                           match=r"the measurement grid holds 900\.0 and 900\.0000000005 Hz"):
            simulate_raw_measurements(room, self.SPEAKERS, mics, [900.0, 600.0, 900.0000000005])


def complex_direct_coefficients(speakers, mics, ctx):
    """i k h_a(k R_ql) conj(Y_ab(R_ql-hat)) from scipy, in the complex basis: (Q, L, C)."""
    rel = speakers[None, :, :] - mics.unit_centers[:, None, :]
    r, theta, phi = cartesian_to_spherical_arrays(rel.reshape(-1, 3))
    A = mics.order
    n = specfun.harmonic_orders(A)[:, None]
    h = sp.spherical_jn(n, ctx.k * r) + 1j * sp.spherical_yn(n, ctx.k * r)
    gamma = 1j * ctx.k * h * np.conj(harmonics(A, theta, phi))
    return gamma.T.reshape(mics.num_units, len(speakers), -1)


class TestComposition:
    """compose_all_modes in the real local basis: stored gamma-tilde composed by real weights."""

    def _tensor(self):
        rng = np.random.default_rng(12)
        gt = rng.standard_normal((1, 3, 5, 16)) + 1j * rng.standard_normal((1, 3, 5, 16))
        return recording.MeasurementTensor(
            frequencies=np.array([700.0]), gamma_tilde=gt, mic_order=3, mask_orders=[3]
        )

    def test_zero_weights(self):
        mt = self._tensor()
        out = compose_all_modes(mt, 0, np.zeros((5, 2)))
        assert out.shape == (3, 16, 2)
        assert np.all(out == 0)

    def test_unit_weight_selects_slice(self):
        mt = self._tensor()
        out = compose_all_modes(mt, 0, np.eye(5))
        for l in range(5):
            assert np.allclose(out[:, :, l], mt.gamma_tilde[0, :, l, :])

    def test_linearity(self):
        mt = self._tensor()
        rng = np.random.default_rng(1)
        W1 = rng.standard_normal((5, 3))
        W2 = rng.standard_normal((5, 3))
        summed = compose_all_modes(mt, 0, W1 + W2)
        parts = compose_all_modes(mt, 0, W1) + compose_all_modes(mt, 0, W2)
        assert np.allclose(summed, parts, atol=1e-12)

    def test_batch_matches_single(self):
        # each composed mode is sum_l w_l gamma-tilde_l, summed here speaker by speaker
        mt = self._tensor()
        rng = np.random.default_rng(2)
        W = rng.standard_normal((5, 4))
        batch = compose_all_modes(mt, 0, W)
        for m in range(4):
            single = sum(W[l, m] * mt.gamma_tilde[0, :, l, :] for l in range(5))
            assert np.allclose(batch[:, :, m], single, atol=1e-12)

    def test_matches_einsum_oracle(self):
        mt = self._tensor()
        rng = np.random.default_rng(3)
        W = rng.standard_normal((5, 4))
        want = np.einsum("Qlc,lm->Qcm", mt.gamma_tilde[0], W)
        np.testing.assert_allclose(compose_all_modes(mt, 0, W), want, rtol=1e-12, atol=0)

    def test_dimension_mismatch(self):
        mt = self._tensor()
        with pytest.raises(ConfigurationError):
            compose_all_modes(mt, 0, np.zeros((7, 1)))

    def test_complex_weights_rejected(self):
        mt = self._tensor()
        with pytest.raises(ConfigurationError, match="real"):
            compose_all_modes(mt, 0, np.zeros((5, 1), dtype=complex))


class TestDirectComponent:
    def test_axial_speaker_excites_only_zonal_modes(self):
        mics = replace(reference_mics(1, 0.2), unit_centers=np.zeros((1, 3)))
        speakers = np.array([[0.0, 0.0, 1.5]])  # on the +z axis of the unit
        out = direct_coefficients_per_speaker(direct_table(speakers, mics), mics,
                                              WaveContext(700.0))
        assert out.shape == (1, 1, 16)
        orders = specfun.harmonic_orders(3)
        degrees = np.arange(orders.size) - orders * orders - orders
        assert np.all(np.abs(out[0, 0, degrees != 0]) < 1e-14)

    def test_weight_scaling(self):
        # with no recording, the composition is minus the composed direct field
        mics = reference_mics(2, 0.25)
        speakers = np.array([[1.0, 1.0, 0.5], [0.8, 1.2, 0.4]])
        ctx = WaveContext(600.0)
        mt = recording.MeasurementTensor(np.array([600.0]), np.zeros((1, 2, 2, 16)), 3, [3])
        direct = direct_coefficients_per_speaker(direct_table(speakers, mics), mics, ctx)
        w = np.array([[1.0], [0.5]])
        base = compose_all_modes(mt, 0, w, direct)
        scaled = compose_all_modes(mt, 0, 3.0 * w, direct)
        assert np.allclose(scaled, 3.0 * base, atol=1e-12)
        assert np.allclose(base, -np.einsum("Qlc,lm->Qcm", direct, w), atol=1e-12)

    def test_matches_einsum_oracle(self):
        # the direct coefficients are U_A^T of the complex ones from scipy, and
        # the composition subtracts them from the stored gamma-tilde before one product
        mics = reference_mics(3, 0.25)
        speakers = np.array([[1.0, 1.0, 0.5], [0.8, 1.2, 0.4], [-0.9, 0.3, 0.7]])
        ctx = WaveContext(650.0)
        U = unitary_U(3)
        direct = direct_coefficients_per_speaker(direct_table(speakers, mics), mics, ctx)
        want_direct = complex_direct_coefficients(speakers, mics, ctx) @ U
        np.testing.assert_allclose(direct, want_direct, rtol=1e-12, atol=0)
        rng = np.random.default_rng(4)
        gt = rng.standard_normal((1, 3, 3, 16)) + 1j * rng.standard_normal((1, 3, 3, 16))
        mt = recording.MeasurementTensor(np.array([650.0]), gt, 3, [3])
        W = rng.standard_normal((3, 2))
        want = np.einsum("Qlc,lm->Qcm", gt[0] - want_direct, W)
        np.testing.assert_allclose(compose_all_modes(mt, 0, W, direct), want,
                                   rtol=1e-12, atol=0)

    def test_one_table_gives_the_per_bin_coefficients_bit_for_bit(self):
        mics = reference_mics(3, 0.25)
        speakers = np.array([[1.0, 1.0, 0.5], [0.8, 1.2, 0.4], [-0.9, 0.3, 0.7]])
        table = direct_table(speakers, mics)
        for f in (200.0, 650.0, 1600.0, 5000.0):  # up to k R past the upward split
            ctx = WaveContext(f)
            got = direct_coefficients_per_speaker(table, mics, ctx)
            want = per_bin_direct_coefficients(speakers, mics, ctx)
            assert got.shape == want.shape == (3, 3, 16)
            assert got.tobytes() == want.tobytes()

    def test_coincident_speaker_and_center_rejected(self):
        mics = replace(reference_mics(1, 0.2), unit_centers=np.array([[0.5, 0.5, 0.1]]))
        with pytest.raises(ValueError):
            direct_table(np.array([[0.5, 0.5, 0.1]]), mics)


class TestRemoveDirect:
    def test_total_equals_direct_gives_zero(self):
        # in a free field the raw pressures are the direct field alone, so
        # the measurement-domain removal leaves nothing to encode
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 2)
        mics = reference_mics(3, 0.26)
        speakers = np.array([[1.0, 1.0, 0.5], [0.9, 1.3, 0.2]])
        total = simulate_raw_measurements(room, speakers, mics, [900.0])
        removed = simulate_raw_measurements(room, speakers, mics, [900.0],
                                            subtract_direct_pressure=True)
        assert np.max(np.abs(removed.gamma_tilde)) < 1e-12 * np.max(np.abs(total.gamma_tilde))
