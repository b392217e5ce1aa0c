"""Geometry tests: conversions, direction sets, deterministic arrays."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roomtf import geometry
from roomtf.errors import ConfigurationError
from roomtf.geometry import SphericalCoord, to_cartesian, to_spherical

finite = st.floats(-10.0, 10.0)


class TestConversions:
    def test_north_pole(self):
        s = to_spherical((0.0, 0.0, 1.0))
        assert (s.radius, s.theta, s.phi) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_equatorial_x_axis(self):
        s = to_spherical((1.0, 0.0, 0.0))
        assert (s.radius, s.theta, s.phi) == pytest.approx(
            (1.0, math.pi / 2, 0.0), abs=1e-15
        )

    def test_offset_vector_example(self):
        s = to_spherical((1.0, 1.0, 0.5))
        assert s.radius == pytest.approx(1.5, abs=1e-15)
        assert s.theta == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)
        assert s.phi == pytest.approx(math.pi / 4, abs=1e-12)

    def test_zero_vector_convention(self):
        s = to_spherical((0.0, 0.0, 0.0))
        assert (s.radius, s.theta, s.phi) == (0.0, 0.0, 0.0)

    @given(finite, finite, finite)
    def test_round_trip(self, x, y, z):
        back = to_cartesian(to_spherical((x, y, z)))
        assert np.allclose(back, [x, y, z], atol=1e-12)

    @pytest.mark.parametrize("point", [(0.0, 1e-8, 1.0), (0.0, -1e-8, -1.0)])
    def test_near_pole_round_trip(self, point):
        s = to_spherical(point)
        assert np.allclose(to_cartesian(s), point, rtol=0, atol=1e-15)
        r, t, p = geometry.cartesian_to_spherical_arrays(np.array([point]))
        back = geometry.spherical_to_cartesian_arrays(r, t, p)[0]
        assert np.allclose(back, point, rtol=0, atol=1e-15)
        assert (t[0], p[0]) == (s.theta, s.phi)

    def test_near_pole_polar_angle(self):
        assert to_spherical((0.0, 1e-8, 1.0)).theta == pytest.approx(1e-8, rel=1e-12)
        assert math.pi - to_spherical((0.0, -1e-8, -1.0)).theta == pytest.approx(
            1e-8, rel=1e-7
        )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, (40, 3))
        r, t, p = geometry.cartesian_to_spherical_arrays(pts)
        for i in range(len(pts)):
            s = to_spherical(pts[i])
            assert (r[i], t[i], p[i]) == pytest.approx(
                (s.radius, s.theta, s.phi), abs=1e-12
            )

    def test_invalid_spherical_coord(self):
        with pytest.raises(ValueError):
            SphericalCoord(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SphericalCoord(1.0, 4.0, 0.0)


class TestDirections:
    def test_single_direction(self):
        (theta,), _ = geometry.equal_area_directions(1)
        assert theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_minimum_separation_121(self):
        pts = geometry.spherical_to_cartesian_arrays(1.0, *geometry.equal_area_directions(121))
        dots = np.clip(pts @ pts.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        assert np.arccos(dots.max()) > 0.12

    def test_near_balance_16(self):
        pts = geometry.spherical_to_cartesian_arrays(1.0, *geometry.equal_area_directions(16))
        assert np.linalg.norm(pts.mean(axis=0)) < 0.1

    def test_determinism(self):
        first, second = geometry.equal_area_directions(33), geometry.equal_area_directions(33)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_bad_count(self):
        with pytest.raises(ConfigurationError):
            geometry.equal_area_directions(0)


class TestArrays:
    def test_shell_radii_in_range(self):
        pts = geometry.shell_array(121, 0.4, 0.3, seed=7)
        radii = np.array([p.radius for p in pts])
        assert radii.min() >= 0.3 and radii.max() <= 0.4

    def test_degenerate_shell_is_single_sphere(self):
        pts = geometry.shell_array(10, 0.4, 0.4, seed=1)
        assert all(p.radius == 0.4 for p in pts)

    def test_seed_determinism(self):
        a = geometry.shell_array(50, 0.4, 0.3, seed=99)
        b = geometry.shell_array(50, 0.4, 0.3, seed=99)
        assert a == b
        c = geometry.shell_array(50, 0.4, 0.3, seed=100)
        assert a != c

    def test_inverted_shell_rejected(self):
        with pytest.raises(ConfigurationError):
            geometry.shell_array(10, 0.3, 0.4, seed=0)

    def test_radius_uniformity(self):
        # loose KS check against uniform(0.3, 0.4): guards against seeding slips
        from scipy import stats

        pts = geometry.shell_array(10_000, 0.4, 0.3, seed=5)
        radii = np.array([p.radius for p in pts])
        stat = stats.kstest(radii, stats.uniform(0.3, 0.1).cdf).statistic
        assert stat < 0.05

    def test_sphere_array(self):
        pts = geometry.sphere_array(9, 0.4)
        assert len(pts) == 9
        assert all(p.radius == 0.4 for p in pts)
        single = geometry.sphere_array(1, 1.0)
        assert len(single) == 1 and single[0].radius == 1.0

    def test_region_pair_validation(self):
        with pytest.raises(ConfigurationError):
            geometry.RegionPair(0.4, 0.3, 0.3, (0, 0, 0))
        with pytest.raises(ConfigurationError):
            geometry.RegionPair(0.0, 0.4, 0.3, (0, 0, 0))


class TestExport:
    def test_positions_csv(self, tmp_path):
        pts = np.array([[0.1, 0.2, 0.3], [1.0 / 3.0, -0.5, 0.25]])
        path = tmp_path / "array.csv"
        geometry.export_positions_csv(path, pts)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,x,y,z"
        parsed = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        assert np.array_equal(parsed, pts)  # 17 significant digits round-trip
