"""Modal field machinery: the wave context and the region truncation rule."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

DEFAULT_SOUND_SPEED = 343.0
# closer than this (m), a source and a receiver count as one point
COINCIDENT_DISTANCE = 1e-9
# closer than this (Hz), a frequency is a bin of a stored grid
GRID_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WaveContext:
    frequency: float
    sound_speed: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        if not (0 < self.frequency < math.inf and 0 < self.sound_speed < math.inf):
            raise ConfigurationError(
                f"frequency and sound speed must be finite and > 0, got f={self.frequency}, "
                f"c={self.sound_speed}"
            )

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.frequency / self.sound_speed


def truncation_order(k: float, radius: float) -> int:
    """Region truncation order N = ceil(k e R / 2)."""
    if k <= 0 or radius <= 0:
        raise ValueError(f"k and radius must be > 0, got k={k}, R={radius}")
    return math.ceil(k * math.e * radius / 2.0)


def grid_index(grid: np.ndarray, frequency: float, grid_name: str) -> int:
    """Index of the first bin of ``grid`` within GRID_TOLERANCE of ``frequency``."""
    hits = np.flatnonzero(np.abs(grid - frequency) <= GRID_TOLERANCE)
    if hits.size == 0:
        raise ConfigurationError(f"frequency {frequency} Hz is not on {grid_name}")
    return int(hits[0])


def check_distinct_bins(grid: np.ndarray, grid_name: str) -> None:
    """Reject two bins of ``grid`` within GRID_TOLERANCE: ``grid_index`` would alias them."""
    ordered = np.sort(grid)
    close = np.flatnonzero(ordered[1:] <= ordered[:-1] + GRID_TOLERANCE)
    if close.size:
        low, high = (float(v) for v in ordered[close[0]:close[0] + 2])
        raise ConfigurationError(
            f"{grid_name} holds {low!r} and {high!r} Hz, within {GRID_TOLERANCE} Hz "
            "of each other, so a lookup of either would answer with one bin"
        )
