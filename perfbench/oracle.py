"""Image-source reference for a shoebox room, kept apart from the program.

This is the benchmark's own ground truth.  It shares no code with
``roomtf.room`` or the test suite, so a change to the simulator cannot grade
itself.  Method: Allen & Berkley (1979), "Image method for efficiently
simulating small-room acoustics", J. Acoust. Soc. Am. 65(4).

Along one axis of length L, with the source at s from the minus wall, every
image sits at (1 - 2q) s + 2 n L for q in {0, 1} and integer n; its sound has
met the minus wall |n - q| times and the plus wall |n| times.  The response
at x is the sum over images of beta^(wall hits) e^{ikd} / (4 pi d).  Images
are kept while the total number of wall hits is at most ``max_order``.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def _axis_images(max_order: int):
    """(q, n, minus-wall hits, plus-wall hits) for one axis."""
    out = []
    for q in (0, 1):
        for n in range(-max_order - 1, max_order + 2):
            hits = (abs(n - q), abs(n))
            if sum(hits) <= max_order:
                out.append((q, n) + hits)
    return out


class ShoeboxOracle:
    """Room response between points given in a frame centred on the room."""

    def __init__(self, dimensions, reflections, max_order: int):
        self.dims = np.asarray(dimensions, dtype=float)
        beta = np.asarray(reflections, dtype=float).reshape(3, 2)  # (axis, minus/plus)
        per_axis = _axis_images(max_order)
        sign, shift, amp = [], [], []
        for combo in itertools.product(per_axis, repeat=3):
            if sum(c[2] + c[3] for c in combo) > max_order:
                continue
            sign.append([1 - 2 * c[0] for c in combo])
            shift.append([2 * c[1] for c in combo])
            amp.append(math.prod(
                beta[a, 0] ** c[2] * beta[a, 1] ** c[3] for a, c in enumerate(combo)
            ))
        self.sign = np.array(sign, dtype=float)           # (M, 3)
        self.shift = np.array(shift, dtype=float) * self.dims  # (M, 3)
        self.amp = np.array(amp)                          # (M,)

    @property
    def num_images(self) -> int:
        return self.amp.size

    def paired(self, receivers, sources, k: float) -> np.ndarray:
        """Response at receivers[i] to a unit source at sources[i]; both (P, 3)."""
        half = 0.5 * self.dims
        xr = np.asarray(receivers, dtype=float) + half
        ys = np.asarray(sources, dtype=float) + half
        images = ys[:, None, :] * self.sign[None] + self.shift[None]  # (P, M, 3)
        d = np.sqrt(((xr[:, None, :] - images) ** 2).sum(axis=-1))
        return (self.amp * np.exp(1j * k * d) / (4.0 * math.pi * d)).sum(axis=1)


def relative_error(truth, estimate) -> float:
    """The paper's E: sum of |H - H_est| over the sum of |H|."""
    truth = np.asarray(truth)
    return float(np.abs(truth - np.asarray(estimate)).sum() / np.abs(truth).sum())


def random_ball(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Points uniform in volume inside a ball about the origin: (count, 3)."""
    v = rng.standard_normal((count, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * (radius * rng.random(count) ** (1.0 / 3.0))[:, None]


def axis_probes(radius: float) -> np.ndarray:
    """Region centre plus the six axis points on the sphere of ``radius``."""
    pts = [np.zeros(3)]
    for axis in range(3):
        for s in (-1.0, 1.0):
            p = np.zeros(3)
            p[axis] = s * radius
            pts.append(p)
    return np.array(pts)
