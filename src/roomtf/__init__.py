"""Modal parameterization of room transfer functions between spherical regions."""

from .errors import (
    BesselZeroError,
    ConfigurationError,
    DigestMismatchError,
)
from .geometry import RegionPair
from .modal import WaveContext, truncation_order
from .recording import MeasurementTensor, MicArray, mic_radius
from .room import ImageLattice, RoomModel, image_lattice
from .rtf import RtfCoefficientSet, relative_error

__all__ = [
    "BesselZeroError",
    "ConfigurationError",
    "DigestMismatchError",
    "RegionPair",
    "WaveContext",
    "truncation_order",
    "MeasurementTensor",
    "MicArray",
    "mic_radius",
    "ImageLattice",
    "RoomModel",
    "image_lattice",
    "RtfCoefficientSet",
    "relative_error",
]

__version__ = "0.1.0"
