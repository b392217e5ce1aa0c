"""Image-source oracle tests, including a brute-force mirror oracle."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from roomtf.errors import ConfigurationError
from roomtf.modal import WaveContext
from roomtf.room import (
    REANCHOR_INTERVAL,
    RoomModel,
    _PHASES,
    _expi,
    _uniform_step,
    image_lattice,
    rtf_oracle_grid,
)

from oracles import contains, direct_field, positions, rtf_oracle_many

REFERENCE_DIMS = (6.0, 5.0, 2.5)
PAPER_REFL = (0.9, 0.9, 0.9, 0.9, 0.7, 0.7)


def reference_room(max_order=2):
    return RoomModel(REFERENCE_DIMS, PAPER_REFL, max_order)


def one_bin(room, X, Y, ctx):
    """``rtf_oracle_grid`` at one frequency: the responses (...) of its one row."""
    return rtf_oracle_grid(room, X, Y, [ctx.k])[0]


def oracle_at(room, x, y, ctx):
    """The oracle response at one receiver x to a source at y."""
    return one_bin(room, np.atleast_2d(x), y, ctx)[0]


def mirror_images(room, y, max_order):
    """Independent oracle: breadth-first mirroring across the six wall planes.

    Walls in the analysis frame sit at +-L/2 along each axis (origin at the
    room center, no offset).  A position reached at a lower reflection depth
    is never revisited, so degenerate paths (e.g. the same wall twice in a
    row) don't produce duplicate images.  Returns the images as a dict
    {position rounded to 1e-9: (amplitude, order, exact position)}.
    """
    dims = np.asarray(room.dimensions)
    walls = []
    for axis in range(3):
        walls.append((axis, -dims[axis] / 2, room.reflections[2 * axis]))
        walls.append((axis, +dims[axis] / 2, room.reflections[2 * axis + 1]))
    start = tuple(np.round(np.asarray(y, float), 9))
    found = {start: (1.0, 0, np.asarray(y, float))}
    frontier = [(np.asarray(y, float), 1.0, 0)]
    for _ in range(max_order):
        new_frontier = []
        for pos, amp, order in frontier:
            for axis, plane, beta in walls:
                mirrored = pos.copy()
                mirrored[axis] = 2 * plane - mirrored[axis]
                key = tuple(np.round(mirrored, 9))
                if key not in found:
                    found[key] = (amp * beta, order + 1, mirrored)
                    new_frontier.append((mirrored, amp * beta, order + 1))
        frontier = new_frontier
    return found


def mirror_oracle(room, y, max_order):
    """The mirrored images as a set of (rounded position, amplitude, order)."""
    images = mirror_images(room, y, max_order)
    return {(key, amp, order) for key, (amp, order, _) in images.items()}


class TestRoomModel:
    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            RoomModel((6.0, -5.0, 2.5), PAPER_REFL)

    def test_invalid_reflection(self):
        with pytest.raises(ConfigurationError):
            RoomModel(REFERENCE_DIMS, (0.9, 0.9, 0.9, 0.9, 0.7, 1.2))

    @pytest.mark.parametrize("dims", [(np.nan, 5.0, 2.5), (6.0, np.inf, 2.5), (6.0, 5.0, -np.inf)],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_dimensions_rejected(self, dims):
        with pytest.raises(ConfigurationError, match="dimensions must be three finite positive"):
            RoomModel(dims, PAPER_REFL)

    @pytest.mark.parametrize("order", [1.5, 2.0, True, -1],
                             ids=["fraction", "float", "bool", "negative"])
    def test_image_order_must_be_a_non_negative_integer(self, order):
        with pytest.raises(ConfigurationError, match="max_image_order must be an integer >= 0"):
            RoomModel(REFERENCE_DIMS, PAPER_REFL, order)

    def test_numpy_integer_image_order_accepted(self):
        lattice = image_lattice(RoomModel(REFERENCE_DIMS, PAPER_REFL, np.int64(1)))
        assert lattice.order.dtype.kind == "i" and lattice.order.size == 7

    def test_containment(self):
        room = reference_room()
        assert contains(room, (2.9, 2.4, 1.2))
        assert not contains(room, (3.1, 0.0, 0.0))

    def test_vectorized_containment_matches_pointwise(self):
        room = reference_room()
        rng = np.random.default_rng(8)
        pts = rng.uniform(-3.5, 3.5, (200, 3))
        first_out = next(p for p in pts if not contains(room, p))
        with pytest.raises(ConfigurationError, match="probe at .* outside the room") as info:
            room.check_inside(pts, "probe")
        assert str(tuple(np.round(first_out, 6).tolist())) in str(info.value)
        inside = np.array([p for p in pts if contains(room, p)])
        room.check_inside(inside, "probe")

    def test_vectorized_containment_is_strict(self):
        room = reference_room()
        room.check_inside(np.array([[2.9, 2.4, 1.2], [-2.9, -2.4, -1.2]]), "speaker")
        with pytest.raises(ConfigurationError, match="speaker"):
            room.check_inside(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]), "speaker")


def lattice_images(room, y):
    """(position, amplitude, order) of each image of a source at y."""
    lattice = image_lattice(room)
    return list(zip(positions(lattice, y), lattice.amplitude, lattice.order))


class TestEnumerateImages:
    """The image lattice, applied to one source at a time."""

    def test_order_zero_is_source_only(self):
        images = lattice_images(reference_room(0), (0.5, -0.3, 0.2))
        assert len(images) == 1
        position, amplitude, order = images[0]
        assert amplitude == 1.0 and order == 0
        assert position == pytest.approx((0.5, -0.3, 0.2))

    def test_counts_up_to_order_two(self):
        y = (0.4, 0.7, -0.1)
        assert len(lattice_images(reference_room(1), y)) == 7
        assert len(lattice_images(reference_room(2), y)) == 25

    def test_first_order_x_minus_image(self):
        # mirroring across the x- wall at x = -3: x -> -6 - x, amplitude 0.9
        y = (0.4, 0.7, -0.1)
        match = [
            amplitude for position, amplitude, order in lattice_images(reference_room(1), y)
            if order == 1 and position == pytest.approx((-6.4, 0.7, -0.1))
        ]
        assert match == [pytest.approx(0.9)]

    @pytest.mark.parametrize("max_order", [1, 2, 3, 4])
    def test_matches_brute_force_mirror_oracle(self, max_order):
        room = reference_room(max_order)
        y = (0.8, -1.1, 0.3)
        expected = mirror_oracle(room, y, max_order)
        got = {
            (tuple(np.round(position, 9)), round(amplitude, 12), order)
            for position, amplitude, order in lattice_images(room, y)
        }
        expected = {(p, round(a, 12), o) for p, a, o in expected}
        assert got == expected

    @pytest.mark.parametrize("max_order", [0, 1, 2, 3, 5])
    def test_axis_positions_are_the_positions_per_axis(self, max_order):
        # 2P + 1 coordinates per axis; each image's coordinates to the bit
        lattice = image_lattice(reference_room(max_order))
        Y = np.random.default_rng(40).uniform(-1.0, 1.0, (4, 1, 3))
        coords, images = lattice.axis_positions(Y), positions(lattice, Y)
        assert coords.shape == (3, 2 * max_order + 1, 4, 1)
        for a in range(3):
            assert np.array_equal(coords[a][lattice.pick[:, a]], images[..., a])

    def test_deterministic_ordering(self):
        # the true source first, then by order; the same rows on every call
        first = image_lattice(reference_room())
        second = image_lattice(reference_room())
        assert first.order[0] == 0 and np.all(np.diff(first.order) >= 0)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_equal_rooms_share_one_read_only_lattice(self):
        lattice = image_lattice(reference_room())
        assert image_lattice(RoomModel(list(REFERENCE_DIMS), list(PAPER_REFL), 2)) is lattice
        assert image_lattice(reference_room(3)) is not lattice
        for array in lattice:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_source_outside_rejected(self):
        with pytest.raises(ConfigurationError, match="source at .* outside the room"):
            oracle_at(reference_room(), (0.1, 0.2, 0.3), (4.0, 0.0, 0.0), WaveContext(500.0))

    def test_one_outside_source_of_many_rejected(self):
        sources = np.array([[0.5, 0.0, 0.0], [0.0, 2.6, 0.0], [0.0, 0.0, 0.2]])
        with pytest.raises(ConfigurationError, match=r"source at .*2\.6.* outside"):
            one_bin(reference_room(), np.zeros(3), sources, WaveContext(500.0))


class TestOracle:
    """rtf_oracle_grid at one bin, which takes one table lookup per image."""

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
        lattice = image_lattice(room)
        d_min = np.linalg.norm(x - positions(lattice, y), axis=-1).min()
        bound = lattice.amplitude.sum() / (4 * np.pi * d_min)
        assert abs(oracle_at(room, x, y, ctx)) <= bound

    def test_coincident_points_rejected(self):
        with pytest.raises(ConfigurationError, match="coincides"):
            oracle_at(reference_room(), (0.1, 0.1, 0.1), (0.1, 0.1, 0.1), WaveContext(500.0))

    def test_receiver_on_an_image_rejected(self):
        # (-6.4, 0.7, -0.1) is the x- image of (0.4, 0.7, -0.1); one pair of many
        X = np.array([[0.0, 0.0, 0.0], [-6.4, 0.7, -0.1]])
        with pytest.raises(ConfigurationError, match=r"receiver at .*-6\.4.* outside the room"):
            one_bin(reference_room(), X, np.array([0.4, 0.7, -0.1]), WaveContext(500.0))

    @pytest.mark.parametrize("x", [(0.0, 2.6, 0.0), (3.0, 0.0, 0.0), (0.0, 0.0, -1.25)],
                             ids=["beyond", "on-x-wall", "on-floor"])
    def test_receiver_outside_the_room_rejected(self, x):
        # strictly inside, as for sources: a point on a wall is outside
        X = np.array([[0.1, 0.2, 0.3], x])
        name = re.escape(str(tuple(x)))
        with pytest.raises(ConfigurationError, match=f"receiver at {name} lies outside the room"):
            one_bin(reference_room(), X, np.array([1.0, 1.0, 0.5]), WaveContext(500.0))

    @pytest.mark.parametrize("skip_direct", [False, True])
    def test_receiver_and_source_near_one_wall_match_mirror_oracle(self, skip_direct):
        # within 1e-6 m of the x+ wall, each x+ image is barely farther than
        # its unmirrored twin; the sum over the mirror oracle's images agrees
        room = reference_room()
        ctx = WaveContext(700.0)
        X = np.array([[3.0 - 1e-6, 0.2, 0.1], [3.0 - 3e-7, -0.4, 0.6]])
        y = np.array([3.0 - 5e-7, 0.5, -0.3])
        images = mirror_images(room, y, room.max_image_order).values()
        want = np.array([
            sum(amp * np.exp(1j * ctx.k * np.linalg.norm(x - pos))
                / (4 * np.pi * np.linalg.norm(x - pos))
                for amp, order, pos in images if order or not skip_direct)
            for x in X])
        got = rtf_oracle_grid(room, X, y, [ctx.k], skip_direct=skip_direct)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_broadcast_matches_direct_image_sum(self):
        # 4 receivers x 3 sources against a sum over the mirror oracle's images
        room = reference_room()
        ctx = WaveContext(800.0)
        rng = np.random.default_rng(23)
        X = rng.uniform(-1.0, 1.0, (4, 3))
        Y = rng.uniform(-1.0, 1.0, (3, 3))
        got = one_bin(room, X[:, None], Y[None], ctx)
        assert got.shape == (4, 3)
        want = np.array([[
            sum(amp * np.exp(1j * ctx.k * np.linalg.norm(x - pos))
                / (4 * np.pi * np.linalg.norm(x - pos))
                for amp, _, pos in mirror_images(room, y, room.max_image_order).values())
            for y in Y] for x in X])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def wavenumbers(frequencies):
    return np.array([WaveContext(f).k for f in frequencies])


def per_bin(room, X, Y, frequencies):
    """The grid path's oracle: one rtf_oracle_many call per bin, stacked (F, ...)."""
    return np.stack([rtf_oracle_many(room, X, Y, WaveContext(f)) for f in frequencies])


# one grid of each kind the oracle treats apart: uniform across re-anchors,
# not uniform, one bin, and uniform on the lattice k_0 = 2 dk
GRIDS = {
    "uniform": 150.0 + 37.5 * np.arange(2 * REANCHOR_INTERVAL + 9),
    "non-uniform": np.array([210.0, 330.0, 345.0, 900.0, 1333.3, 1700.0]),
    "single": np.array([640.0]),
    "lattice": 100.0 * (2 + np.arange(20)),
}


def assert_bins_close(got, want, rtol):
    """Per bin, the largest deviation relative to the bin's largest response."""
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))


class TestOracleGrid:
    """rtf_oracle_grid (phase recurrence over bins) against per-bin rtf_oracle_many."""

    def pairs(self, seed=31):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, (6, 1, 3)), rng.uniform(-1.0, 1.0, (1, 5, 3))

    def test_uniform_grid_across_reanchors(self):
        room = reference_room()
        X, Y = self.pairs()
        freqs = 150.0 + 37.5 * np.arange(2 * REANCHOR_INTERVAL + 9)  # 41 bins, 3 anchors
        got = rtf_oracle_grid(room, X, Y, wavenumbers(freqs))
        assert got.shape == (freqs.size, 6, 5)
        assert_bins_close(got, per_bin(room, X, Y, freqs), 1e-12)

    def test_non_uniform_grid(self):
        room = reference_room()
        X, Y = self.pairs(32)
        freqs = np.array([210.0, 330.0, 345.0, 900.0, 1333.3, 1700.0])
        assert_bins_close(rtf_oracle_grid(room, X, Y, wavenumbers(freqs)),
                          per_bin(room, X, Y, freqs), 1e-12)

    def test_single_bin(self):
        room = reference_room()
        X, Y = self.pairs(33)
        assert_bins_close(rtf_oracle_grid(room, X, Y, wavenumbers([640.0])),
                          per_bin(room, X, Y, [640.0]), 1e-12)

    @pytest.mark.parametrize("n0, df", [(1, 200.0), (2, 100.0), (8, 25.0), (16, 12.5)])
    @pytest.mark.parametrize("skip_direct", [False, True])
    def test_lattice_grid_matches_per_bin(self, n0, df, skip_direct):
        # f_0 = n0 df: the first anchor is step^n0, not an exact table; 20 bins
        # cross the re-anchor at bin REANCHOR_INTERVAL
        room = reference_room()
        X, Y = self.pairs(35)
        freqs = df * (n0 + np.arange(20))
        ks = wavenumbers(freqs)
        assert _uniform_step(ks) == (pytest.approx(ks[1] - ks[0], rel=1e-12), n0)
        want = per_bin(room, X, Y, freqs)
        if skip_direct:
            d = np.linalg.norm(X - Y, axis=-1)
            want = want - np.exp(1j * ks[:, None, None] * d) / (4 * np.pi * d)
        assert_bins_close(rtf_oracle_grid(room, X, Y, ks, skip_direct=skip_direct), want, 1e-12)

    @pytest.mark.parametrize("freqs", [
        210.0 + 200.0 * np.arange(8),  # uniform, off the lattice j dk
        12.5 * (17 + np.arange(20)),  # on the lattice, n0 = 17 > REANCHOR_INTERVAL
    ], ids=["off-lattice", "n0-17"])
    def test_off_lattice_grid_takes_the_exact_anchor(self, freqs):
        room = reference_room()
        X, Y = self.pairs(36)
        ks = wavenumbers(freqs)
        assert _uniform_step(ks)[1] == 0
        assert_bins_close(rtf_oracle_grid(room, X, Y, ks), per_bin(room, X, Y, freqs), 1e-12)

    def test_skip_direct_is_the_reverberant_part(self):
        room = reference_room()
        X, Y = self.pairs(34)
        freqs = 300.0 + 50.0 * np.arange(20)
        d = np.linalg.norm(X - Y, axis=-1)
        direct = np.exp(1j * wavenumbers(freqs)[:, None, None] * d) / (4 * np.pi * d)
        want = per_bin(room, X, Y, freqs) - direct
        got = rtf_oracle_grid(room, X, Y, wavenumbers(freqs), skip_direct=True)
        assert_bins_close(got, want, 1e-12)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("max_order", [0, 1, 3, 5])
    def test_image_orders_match_per_bin(self, max_order, grid):
        # 1, 3, 7 and 11 image coordinates per axis against 1 to 231 images
        room = reference_room(max_order)
        X, Y = self.pairs(38)
        freqs = GRIDS[grid]
        assert_bins_close(rtf_oracle_grid(room, X, Y, wavenumbers(freqs)),
                          per_bin(room, X, Y, freqs), 1e-12)

    @pytest.mark.parametrize("max_order", [0, 1, 2, 3, 5])
    def test_receivers_against_one_source_and_paired(self, max_order):
        # (n, 3) receivers against one (3,) source, as scripts/fig3_field_map.py
        # calls it, and paired (n, 3) against (n, 3), as sweep_errors does
        room = reference_room(max_order)
        X, Y = np.random.default_rng(39).uniform(-1.0, 1.0, (2, 7, 3))
        freqs = GRIDS["uniform"]
        for y in (Y[0], Y):
            got = rtf_oracle_grid(room, X, y, wavenumbers(freqs))
            assert got.shape == (freqs.size, 7)
            assert_bins_close(got, per_bin(room, X, y, freqs), 1e-12)

    def test_source_outside_rejected(self):
        with pytest.raises(ConfigurationError, match=r"source at .*2\.6.* outside"):
            rtf_oracle_grid(reference_room(), np.zeros(3), np.array([0.0, 2.6, 0.0]),
                            wavenumbers([300.0, 400.0]))

    @pytest.mark.parametrize("skip_direct", [False, True])
    def test_receiver_on_source_or_image_rejected(self, skip_direct):
        # the source, then its x- image, which lies outside the room
        y = np.array([0.4, 0.7, -0.1])
        for x, message in ((y, "coincides"), (np.array([-6.4, 0.7, -0.1]), "outside the room")):
            with pytest.raises(ConfigurationError, match=message):
                rtf_oracle_grid(reference_room(), np.array([[0.0, 0.0, 0.0], x]), y,
                                wavenumbers([300.0, 400.0]), skip_direct=skip_direct)

    @pytest.mark.parametrize("step", [0.5e-9, 0.999e-9, 1.001e-9, 1.5e-9])
    def test_receiver_just_within_or_beyond_coincidence(self, step):
        # 1e-9 m decides beside the source; beside its x- image, which lies
        # outside the room, every step is rejected as outside
        room = reference_room()
        y = np.array([0.4, 0.7, -0.1])
        X = np.array([[0.0, 0.0, 0.0], y + [0.0, step, 0.0]])
        if step < 1e-9:
            with pytest.raises(ConfigurationError, match="coincides"):
                one_bin(room, X, y, WaveContext(500.0))
            with pytest.raises(ConfigurationError, match="coincides"):
                rtf_oracle_many(room, X, y, WaveContext(500.0))
        else:
            assert np.all(np.isfinite(one_bin(room, X, y, WaveContext(500.0))))
        X = np.array([[0.0, 0.0, 0.0], [-6.4, 0.7 + step, -0.1]])
        with pytest.raises(ConfigurationError, match="outside the room"):
            one_bin(room, X, y, WaveContext(500.0))
        if step < 1e-9:
            with pytest.raises(ConfigurationError, match="coincides"):
                rtf_oracle_many(room, X, y, WaveContext(500.0))

    def test_receiver_on_an_image_coordinate_along_every_axis(self):
        # x of the order-2 x image, y of the order-2 y image and z of the
        # source: a point outside the room, rejected before any image sum
        room = reference_room()
        y = np.array([0.4, 0.7, -0.1])
        X = np.array([[12.4, 10.7, -0.1], [0.0, 0.0, 0.0]])
        with pytest.raises(ConfigurationError, match=r"receiver at .*12\.4.* outside the room"):
            one_bin(room, X, y, WaveContext(500.0))


def exact_expi(k, d):
    """e^{ikd} to 40 digits for the doubles k and each d, rounded to complex."""
    with mpmath.workdps(40):
        return np.array([complex(mpmath.expj(mpmath.mpf(k) * mpmath.mpf(float(x))))
                         for x in np.ravel(d)])


def assert_expi_close(k, d):
    """The kernel within a few eps (1 + k d) of e^{ikd}, the error of exp(1j k d)."""
    eps = np.finfo(float).eps
    err = np.abs(_expi(k, d) - exact_expi(k, d))
    assert np.all(err <= 4 * eps * (1 + abs(k) * d)), err.max()


class TestPhaseTable:
    """The table-driven e^{ikd} of rtf_oracle_grid against 40-digit mpmath."""

    D_MAX = 25.0

    def distances(self, k, seed):
        """Distances in [0, 25 m]: random ones, some d = (q + 1/2) / kappa with
        kappa = k N / 2 pi, where rint rounds to even and the residual r is
        largest, and both ends."""
        kappa = k * _PHASES.size / math.tau
        rng = np.random.default_rng(seed)
        half = (rng.integers(0, int(self.D_MAX * kappa) + 1, 60) + 0.5) / kappa
        d = np.concatenate([rng.uniform(0.0, self.D_MAX, 120), half,
                            [0.0, 0.5 / kappa, self.D_MAX]])
        return d[d <= self.D_MAX]

    def test_table_entries_match_mpmath(self):
        # every entry e^{2 pi i j / N} within 2 eps; cos(fl(2 pi j / N)) is not
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.expjpi(mpmath.mpf(2 * j) / _PHASES.size))
                             for j in range(_PHASES.size)])
        assert np.all(np.abs(_PHASES - want) <= 2 * np.finfo(float).eps)

    # 1e-310 (f near 1e-308 Hz) is subnormal, and so is its kappa
    @pytest.mark.parametrize("k", [1e-310, 0.5, 3.66, 16.49, 146.5, 400.0])
    def test_matches_mpmath(self, k):
        assert_expi_close(k, self.distances(k, int(k)))

    def test_phase_beyond_double_precision_rejected(self):
        for ks in ([1e13], [1.0, 1e13], [math.nan]):
            with pytest.raises(ConfigurationError, match="beyond double precision"):
                rtf_oracle_grid(reference_room(), np.zeros(3), np.array([1.0, 1.0, 0.5]), ks)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ks", [[3.0, math.nan], [math.nan, 3.0], [3.0, math.inf]],
                             ids=["nan-last", "nan-first", "inf-last"])
    def test_non_finite_wavenumber_in_a_grid_rejected(self, ks):
        # checked before the grid's spacing is computed from it
        with pytest.raises(ConfigurationError, match="beyond double precision"):
            rtf_oracle_grid(reference_room(), np.zeros(3), np.array([1.0, 1.0, 0.5]), ks)

    def test_order_six_at_8khz_with_the_farthest_pair_at_the_bound(self):
        # one receiver opposite the source's farthest image, at |x| + max |image|
        # from it: no receiver at |x| from the centre is farther from an image,
        # and its phase is the largest q the kernel takes
        room = reference_room(6)
        y = np.array([0.8, -1.1, 0.3])
        images = positions(image_lattice(room), y)
        far = images[np.argmax(np.linalg.norm(images, axis=-1))]
        x = -0.5 * far / np.linalg.norm(far)
        ctx = WaveContext(8000.0)
        d_max = np.linalg.norm(np.abs(x)) + np.linalg.norm(images, axis=-1).max()
        d_far = np.linalg.norm(x - far)
        assert d_far == pytest.approx(d_max, rel=4 * np.finfo(float).eps)
        assert_expi_close(ctx.k, np.array([d_far]))
        got = rtf_oracle_grid(room, x[None], y, [ctx.k])
        assert_bins_close(got, rtf_oracle_many(room, x[None], y, ctx)[None], 1e-12)

    def test_point_receiver_and_source(self):
        # a (3,) receiver against a (3,) source: 0-d distances, one response per bin
        room = reference_room()
        x, y = np.array([0.1, 0.2, 0.3]), np.array([1.0, 1.0, 0.5])
        freqs = [640.0, 900.0, 1333.3]
        for grid in (freqs[:1], freqs):
            got = rtf_oracle_grid(room, x, y, wavenumbers(grid))
            assert got.shape == (len(grid),)
            want = [rtf_oracle_many(room, x, y, WaveContext(f)) for f in grid]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_non_finite_receiver_rejected(self):
        with pytest.raises(ConfigurationError, match=r"receiver at .*nan.* outside the room"):
            rtf_oracle_grid(reference_room(), np.array([[0.0, np.nan, 0.0]]),
                            np.array([1.0, 1.0, 0.5]), wavenumbers([300.0]))

    def test_long_grids_match_per_bin(self):
        # a 40-bin non-uniform grid anchors every bin, and a 600-bin uniform one
        # off the lattice takes 38 exact anchors
        room = reference_room()
        X, Y = TestOracleGrid().pairs(37)
        freqs = 150.0 + 37.5 * np.arange(40) + 1e-3 * np.arange(40) ** 2
        assert _uniform_step(wavenumbers(freqs))[0] is None
        assert_bins_close(rtf_oracle_grid(room, X, Y, wavenumbers(freqs)),
                          per_bin(room, X, Y, freqs), 1e-12)
        freqs = 150.0 + 2.5 * np.arange(600)
        assert _uniform_step(wavenumbers(freqs))[0] is not None
        got = rtf_oracle_grid(room, X[:2], Y[:, :2], wavenumbers(freqs))
        some = np.arange(0, 600, 37)
        assert_bins_close(got[some], per_bin(room, X[:2], Y[:, :2], freqs[some]), 1e-12)

    def test_long_grid_peak_memory_under_1mb(self):
        # 48 bins near 4.5 kHz, not uniform: 48 anchors, one image at a time,
        # and one 8 KB table for every wavenumber
        room = reference_room()
        x, y = np.array([0.1, 0.2, 0.3]), np.array([1.0, 1.0, 0.5])
        ks = wavenumbers(4500.0 + 10.0 * np.arange(48) + 0.1 * np.arange(48) ** 2)
        tracemalloc.start()
        try:
            rtf_oracle_grid(room, x, y, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
