"""Modal parameterization of room transfer functions between spherical regions."""

from .errors import (
    BesselZeroError,
    ConfigurationError,
    DigestMismatchError,
    NumericalError,
)
from .geometry import RegionPair, SphericalCoord, to_cartesian, to_spherical
from .modal import (
    CoefficientVector,
    WaveContext,
    active_order,
    direct_field,
    truncation_order,
)
from .recording import HoMicSpec, MeasurementTensor, MicArray, mic_radius
from .room import ImageSource, RoomModel, enumerate_images
from .rtf import RtfCoefficientSet, relative_error
from .specfun import HarmonicIndex, wigner_3j

__all__ = [
    "BesselZeroError",
    "ConfigurationError",
    "DigestMismatchError",
    "NumericalError",
    "RegionPair",
    "SphericalCoord",
    "to_cartesian",
    "to_spherical",
    "CoefficientVector",
    "WaveContext",
    "active_order",
    "direct_field",
    "truncation_order",
    "HoMicSpec",
    "MeasurementTensor",
    "MicArray",
    "mic_radius",
    "ImageSource",
    "RoomModel",
    "enumerate_images",
    "RtfCoefficientSet",
    "relative_error",
    "HarmonicIndex",
    "wigner_3j",
]

__version__ = "0.1.0"
