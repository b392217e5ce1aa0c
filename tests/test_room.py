"""Image-source oracle tests, including a brute-force mirror oracle."""
import itertools

import numpy as np
import pytest

from roomtf.errors import ConfigurationError
from roomtf.modal import WaveContext, direct_field
from roomtf.room import ImageSource, RoomModel, enumerate_images, rtf_oracle_many

REFERENCE_DIMS = (6.0, 5.0, 2.5)
PAPER_REFL = (0.9, 0.9, 0.9, 0.9, 0.7, 0.7)


def reference_room(max_order=2):
    return RoomModel(REFERENCE_DIMS, PAPER_REFL, max_order)


def oracle_at(room, x, y, ctx):
    """The oracle response at one receiver x to a source at y."""
    return rtf_oracle_many(room, np.atleast_2d(x), y, ctx)[0]


def mirror_oracle(room, y, max_order):
    """Independent oracle: breadth-first mirroring across the six wall planes.

    Walls in the analysis frame sit at +-L/2 along each axis (origin at the
    room center, no offset).  A position reached at a lower reflection depth
    is never revisited, so degenerate paths (e.g. the same wall twice in a
    row) don't produce duplicate images.
    """
    dims = np.asarray(room.dimensions)
    walls = []
    for axis in range(3):
        walls.append((axis, -dims[axis] / 2, room.wall_reflection[2 * axis]))
        walls.append((axis, +dims[axis] / 2, room.wall_reflection[2 * axis + 1]))
    start = tuple(np.round(np.asarray(y, float), 9))
    found = {start: (1.0, 0)}
    frontier = [(np.asarray(y, float), 1.0, 0)]
    for _ in range(max_order):
        new_frontier = []
        for pos, amp, order in frontier:
            for axis, plane, beta in walls:
                mirrored = pos.copy()
                mirrored[axis] = 2 * plane - mirrored[axis]
                key = tuple(np.round(mirrored, 9))
                if key not in found:
                    found[key] = (amp * beta, order + 1)
                    new_frontier.append((mirrored, amp * beta, order + 1))
        frontier = new_frontier
    return {(pos, amp, order) for pos, (amp, order) in found.items()}


class TestRoomModel:
    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            RoomModel((6.0, -5.0, 2.5), PAPER_REFL)

    def test_invalid_reflection(self):
        with pytest.raises(ConfigurationError):
            RoomModel(REFERENCE_DIMS, (0.9, 0.9, 0.9, 0.9, 0.7, 1.2))

    def test_origin_must_be_inside(self):
        with pytest.raises(ConfigurationError):
            RoomModel(REFERENCE_DIMS, PAPER_REFL, origin_offset=(10.0, 0.0, 0.0))

    def test_containment(self):
        room = reference_room()
        assert room.contains((2.9, 2.4, 1.2))
        assert not room.contains((3.1, 0.0, 0.0))

    def test_vectorized_containment_matches_pointwise(self):
        room = reference_room()
        rng = np.random.default_rng(8)
        pts = rng.uniform(-3.5, 3.5, (200, 3))
        first_out = next(p for p in pts if not room.contains(p))
        with pytest.raises(ConfigurationError, match="probe at .* outside the room") as info:
            room.check_inside(pts, "probe")
        assert str(tuple(np.round(first_out, 6))) in str(info.value)
        inside = np.array([p for p in pts if room.contains(p)])
        room.check_inside(inside, "probe")

    def test_vectorized_containment_is_strict(self):
        room = reference_room()
        room.check_inside(np.array([[2.9, 2.4, 1.2], [-2.9, -2.4, -1.2]]), "speaker")
        with pytest.raises(ConfigurationError, match="speaker"):
            room.check_inside(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]), "speaker")


class TestEnumerateImages:
    def test_order_zero_is_source_only(self):
        images = enumerate_images(reference_room(), (0.5, -0.3, 0.2), 0)
        assert len(images) == 1
        assert images[0].amplitude == 1.0
        assert images[0].order == 0
        assert images[0].position == pytest.approx((0.5, -0.3, 0.2))

    def test_counts_up_to_order_two(self):
        y = (0.4, 0.7, -0.1)
        assert len(enumerate_images(reference_room(), y, 1)) == 7
        assert len(enumerate_images(reference_room(), y, 2)) == 25

    def test_first_order_x_minus_image(self):
        # mirroring across the x- wall at x = -3: x -> -6 - x, amplitude 0.9
        y = (0.4, 0.7, -0.1)
        images = enumerate_images(reference_room(), y, 1)
        match = [
            im for im in images
            if im.order == 1 and im.position == pytest.approx((-6.4, 0.7, -0.1))
        ]
        assert len(match) == 1
        assert match[0].amplitude == pytest.approx(0.9)

    @pytest.mark.parametrize("max_order", [1, 2, 3, 4])
    def test_matches_brute_force_mirror_oracle(self, max_order):
        room = reference_room(max_order)
        y = (0.8, -1.1, 0.3)
        expected = mirror_oracle(room, y, max_order)
        got = {
            (tuple(np.round(im.position, 9)), round(im.amplitude, 12), im.order)
            for im in enumerate_images(room, y, max_order)
        }
        expected = {(p, round(a, 12), o) for p, a, o in expected}
        assert got == expected

    def test_deterministic_ordering(self):
        images = enumerate_images(reference_room(), (0.4, 0.7, -0.1), 2)
        keys = [(im.order, im.position) for im in images]
        assert keys == sorted(keys)

    def test_source_outside_rejected(self):
        with pytest.raises(ValueError):
            enumerate_images(reference_room(), (4.0, 0.0, 0.0), 2)


class TestOracle:
    def test_free_field_equals_direct(self):
        room = RoomModel(REFERENCE_DIMS, (0.0,) * 6, 2)
        ctx = WaveContext(700.0)
        x, y = np.array([0.1, 0.2, 0.3]), np.array([1.0, 1.0, 0.5])
        assert oracle_at(room, x, y, ctx) == pytest.approx(
            direct_field(x, y, ctx), abs=1e-15
        )

    def test_order_zero_equals_direct(self):
        room = reference_room(max_order=0)
        ctx = WaveContext(700.0)
        x, y = np.array([0.1, 0.2, 0.3]), np.array([1.0, 1.0, 0.5])
        assert oracle_at(room, x, y, ctx) == pytest.approx(
            direct_field(x, y, ctx), abs=1e-15
        )

    def test_reciprocity(self):
        room = reference_room()
        ctx = WaveContext(900.0)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, 3)
            y = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.norm(x - y) < 1e-2:
                continue
            assert oracle_at(room, x, y, ctx) == pytest.approx(
                oracle_at(room, y, x, ctx), rel=1e-12
            )

    def test_first_order_reverberant_scales_with_reflection(self):
        ctx = WaveContext(500.0)
        x, y = np.array([0.2, -0.3, 0.1]), np.array([1.0, 1.0, 0.5])
        base = np.array(PAPER_REFL)
        s = 0.5
        r1 = oracle_at(RoomModel(REFERENCE_DIMS, tuple(base), 1), x, y, ctx)
        r2 = oracle_at(RoomModel(REFERENCE_DIMS, tuple(s * base), 1), x, y, ctx)
        d = direct_field(x, y, ctx)
        assert (r2 - d) == pytest.approx(s * (r1 - d), rel=1e-12)

    def test_magnitude_bound(self):
        room = reference_room()
        ctx = WaveContext(900.0)
        x, y = np.array([0.1, 0.0, 0.0]), np.array([1.0, 1.0, 0.5])
        images = enumerate_images(room, y, 2)
        d_min = min(np.linalg.norm(x - np.asarray(im.position)) for im in images)
        bound = sum(im.amplitude for im in images) / (4 * np.pi * d_min)
        assert abs(oracle_at(room, x, y, ctx)) <= bound

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            oracle_at(reference_room(), (0.1, 0.1, 0.1), (0.1, 0.1, 0.1), WaveContext(500.0))

    def test_image_source_fields(self):
        im = ImageSource((1.0, 2.0, 3.0), 0.81, 2)
        assert im.amplitude == 0.81 and im.order == 2
