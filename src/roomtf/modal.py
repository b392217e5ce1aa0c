"""Modal field machinery: the wave context and the region truncation rule."""
from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SOUND_SPEED = 343.0
# closer than this (m), a source and a receiver count as one point
COINCIDENT_DISTANCE = 1e-9


@dataclass(frozen=True)
class WaveContext:
    frequency: float
    sound_speed: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        if self.frequency <= 0 or self.sound_speed <= 0:
            raise ValueError(
                f"frequency and sound speed must be > 0, got f={self.frequency}, "
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
