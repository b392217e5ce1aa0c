"""HO microphone tests: encoding fidelity, composition, direct-field removal."""
import math

import numpy as np
import pytest

from roomtf import recording, specfun
from roomtf.errors import BesselZeroError, ConfigurationError
from roomtf.geometry import positions_to_cartesian
from roomtf.modal import CoefficientVector, WaveContext, interior_basis
from roomtf.recording import (
    HoMicSpec,
    MicArray,
    compose_all_modes,
    direct_component_all,
    direct_coefficients_per_speaker,
    encode_pressures,
    make_mic_array,
    mic_radius,
    simulate_raw_measurements,
)
from roomtf.room import RoomModel

REFERENCE_DIMS = (6.0, 5.0, 2.5)


def reference_mic_spec(omnis=49, fit=5):
    return HoMicSpec(3, mic_radius(3, 1000.0), omnis, fit)


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
    def test_omni_count_bound(self):
        with pytest.raises(ConfigurationError, match=r"\(A\+1\)\^2"):
            HoMicSpec(3, 0.12, 15)

    def test_fit_order_bounds(self):
        with pytest.raises(ConfigurationError):
            HoMicSpec(3, 0.12, 49, fit_order=2)
        with pytest.raises(ConfigurationError):
            HoMicSpec(3, 0.12, 20, fit_order=5)  # 20 < 36 sensors

    def test_array_construction(self):
        mics = make_mic_array(9, 0.28, reference_mic_spec())
        assert mics.num_units == 9
        assert mics.omni_positions().shape == (9, 49, 3)
        assert np.allclose(np.linalg.norm(mics.unit_centers, axis=1), 0.28)

    def test_offsets_must_match_spec_radius(self):
        from roomtf.geometry import sphere_array

        spec = reference_mic_spec()
        with pytest.raises(ConfigurationError):
            MicArray(np.zeros((2, 3)), spec, tuple(sphere_array(49, 0.5)))


class TestLocalEncoding:
    def test_band_limited_field_recovered_exactly(self):
        # end-to-end local fidelity: synthesize a known interior field at the
        # omni positions and require the encoder to return its coefficients
        spec = reference_mic_spec()
        mics = make_mic_array(4, 0.27, spec)
        ctx = WaveContext(900.0)
        rng = np.random.default_rng(5)
        gamma_true = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        local = positions_to_cartesian(list(mics.local_offsets))
        basis = interior_basis(3, local, ctx)  # (16, Q')
        pressures = np.broadcast_to(gamma_true @ basis, (4, spec.omni_count)).copy()
        gamma = encode_pressures(mics, pressures, ctx)
        rel = np.linalg.norm(gamma - gamma_true[None, :]) / np.linalg.norm(gamma_true)
        assert rel < 1e-6

    def test_minimum_sensor_count_still_recovers(self):
        spec = HoMicSpec(3, mic_radius(3, 1000.0), 16)  # Q' = (A+1)^2, fit = A
        mics = make_mic_array(2, 0.25, spec)
        ctx = WaveContext(800.0)
        rng = np.random.default_rng(9)
        gamma_true = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        local = positions_to_cartesian(list(mics.local_offsets))
        pressures = np.broadcast_to(
            gamma_true @ interior_basis(3, local, ctx), (2, 16)
        ).copy()
        gamma = encode_pressures(mics, pressures, ctx)
        rel = np.linalg.norm(gamma - gamma_true[None, :]) / np.linalg.norm(gamma_true)
        assert rel < 1e-6

    def test_masked_modes_exactly_zero(self):
        spec = reference_mic_spec()
        mics = make_mic_array(2, 0.25, spec)
        ctx = WaveContext(300.0)
        pressures = np.ones((2, spec.omni_count))
        gamma = encode_pressures(mics, pressures, ctx, mask_order=1)
        orders = np.array([i.order for i in specfun.harmonic_indices(3)])
        assert np.all(gamma[:, orders > 1] == 0.0)
        assert not np.any(np.isnan(gamma))

    def test_bessel_zero_raises(self):
        spec = reference_mic_spec()
        mics = make_mic_array(1, 0.2, spec)
        f = 343.0 / (2 * spec.local_radius)  # k r = pi, a Bessel zero of j_0
        with pytest.raises(BesselZeroError, match="a = 0"):
            encode_pressures(mics, np.ones((1, spec.omni_count)), WaveContext(f),
                             mask_order=0)


class TestSimulatedMeasurements:
    def test_free_field_matches_analytic_incident_coeffs(self):
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 2)
        spec = reference_mic_spec()
        mics = make_mic_array(3, 0.26, spec)
        speakers = np.array([[1.0, 1.0, 0.5], [0.9, 1.3, 0.2]])
        ctx = WaveContext(900.0)
        mt = simulate_raw_measurements(room, speakers, mics, [900.0])
        expected = direct_coefficients_per_speaker(speakers, mics, ctx)  # (Q, C, L)
        mask = int(mt.mask_orders[0])
        orders = np.array([i.order for i in specfun.harmonic_indices(3)])
        keep = orders <= mask
        got = mt.gamma_tilde[0].transpose(0, 2, 1)[:, keep]
        want = expected[:, keep]
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.01

    def test_tensor_shape_reference_counts(self):
        mt_shape = (1, 9, 121, 16)
        # shape contract only; the full reference-sized simulation runs in
        # the acceptance suite
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = make_mic_array(9, 0.27, reference_mic_spec(omnis=16, fit=3))
        rng = np.random.default_rng(0)
        speakers = rng.uniform(-0.1, 0.1, (121, 3)) + np.array([1.0, 1.0, 0.5])
        mt = simulate_raw_measurements(room, speakers, mics, [700.0])
        assert mt.gamma_tilde.shape == mt_shape
        assert mt.gamma_tilde.size == 9 * 121 * 16

    def test_speaker_outside_room_rejected(self):
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = make_mic_array(1, 0.2, reference_mic_spec(omnis=16, fit=3))
        with pytest.raises(ConfigurationError, match="outside the room"):
            simulate_raw_measurements(room, np.array([[7.0, 0.0, 0.0]]), mics, [500.0])

    def test_frequency_grid_lookup(self):
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 0)
        mics = make_mic_array(1, 0.2, reference_mic_spec(omnis=16, fit=3))
        mt = simulate_raw_measurements(
            room, np.array([[1.0, 1.0, 0.5]]), mics, [500.0, 600.0]
        )
        assert mt.frequency_index(600.0) == 1
        with pytest.raises(ConfigurationError):
            mt.frequency_index(555.0)


class TestComposition:
    def _tensor(self):
        rng = np.random.default_rng(12)
        gt = rng.standard_normal((1, 3, 5, 16)) + 1j * rng.standard_normal((1, 3, 5, 16))
        return recording.MeasurementTensor(
            frequencies=np.array([700.0]), gamma_tilde=gt, mic_order=3
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
        W1 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        W2 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        summed = compose_all_modes(mt, 0, W1 + W2)
        parts = compose_all_modes(mt, 0, W1) + compose_all_modes(mt, 0, W2)
        assert np.allclose(summed, parts, atol=1e-12)

    def test_batch_matches_single(self):
        # each composed mode is sum_l w_l gamma-tilde_l, summed here speaker by speaker
        mt = self._tensor()
        rng = np.random.default_rng(2)
        W = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        batch = compose_all_modes(mt, 0, W)
        for m in range(4):
            single = sum(W[l, m] * mt.gamma_tilde[0, :, l, :] for l in range(5))
            assert np.allclose(batch[:, :, m], single, atol=1e-12)

    def test_dimension_mismatch(self):
        mt = self._tensor()
        with pytest.raises(ConfigurationError):
            compose_all_modes(mt, 0, np.zeros((7, 1)))


class TestDirectComponent:
    def test_axial_speaker_excites_only_zonal_modes(self):
        spec = reference_mic_spec()
        mics = MicArray(np.zeros((1, 3)), spec,
                        tuple(make_mic_array(1, 0.2, spec).local_offsets))
        speakers = np.array([[0.0, 0.0, 1.5]])  # on the +z axis of the unit
        out = direct_component_all(speakers, np.ones((1, 1)), mics, WaveContext(700.0))
        for i, idx in enumerate(specfun.harmonic_indices(3)):
            if idx.degree != 0:
                assert abs(out[0, i, 0]) < 1e-14

    def test_weight_scaling(self):
        spec = reference_mic_spec()
        mics = make_mic_array(2, 0.25, spec)
        speakers = np.array([[1.0, 1.0, 0.5], [0.8, 1.2, 0.4]])
        ctx = WaveContext(600.0)
        w = np.array([[1.0], [0.5]])
        base = direct_component_all(speakers, w, mics, ctx)
        scaled = direct_component_all(speakers, 3.0 * w, mics, ctx)
        assert np.allclose(scaled, 3.0 * base, atol=1e-12)

    def test_coincident_speaker_and_center_rejected(self):
        spec = reference_mic_spec()
        mics = MicArray(np.array([[0.5, 0.5, 0.1]]), spec,
                        tuple(make_mic_array(1, 0.2, spec).local_offsets))
        with pytest.raises(ValueError):
            direct_component_all(np.array([[0.5, 0.5, 0.1]]), np.ones((1, 1)), mics,
                                 WaveContext(600.0))


class TestRemoveDirect:
    def test_total_equals_direct_gives_zero(self):
        # in a free field the raw pressures are the direct field alone, so
        # the measurement-domain removal leaves nothing to encode
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 2)
        mics = make_mic_array(3, 0.26, reference_mic_spec())
        speakers = np.array([[1.0, 1.0, 0.5], [0.9, 1.3, 0.2]])
        total = simulate_raw_measurements(room, speakers, mics, [900.0])
        removed = simulate_raw_measurements(room, speakers, mics, [900.0],
                                            subtract_direct_pressure=True)
        assert np.max(np.abs(removed.gamma_tilde)) < 1e-12 * np.max(np.abs(total.gamma_tilde))
