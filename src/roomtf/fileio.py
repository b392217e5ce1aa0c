"""Persistence: self-describing binary artifacts.

Both binary formats share the same layout: an ASCII magic line, an 8-byte
little-endian header length, a JSON header, then raw little-endian complex128
payload (IEEE-754 double pairs).  Headers carry geometry/config digests so a
stale artifact/config combination fails loudly instead of silently.

Format 2 stores gamma-tilde and alpha as held in memory, in the real basis S
of ``specfun``, so a save and a load return the same bits.  It is the one
format read: any other ``format_version`` is rejected, with a hint to re-run
``measure``/``extract``.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .errors import ConfigurationError, DigestMismatchError
from .geometry import RegionPair
from .recording import MeasurementTensor
from .rtf import RtfCoefficientSet

MEASUREMENT_MAGIC = b"RTFMEAS1\n"
COEFFICIENT_MAGIC = b"RTFCOEF1\n"
FORMAT_VERSION = 2
_INT, _NUMBER = (int,), (int, float)  # header value types; a bool is neither


def content_digest(*arrays) -> str:
    """Stable hex digest of a sequence of float arrays (geometry, constants)."""
    h = hashlib.sha256()
    for a in arrays:
        arr = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _write_block(fh, magic: bytes, header: dict, payload: np.ndarray) -> None:
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(magic)
    fh.write(struct.pack("<Q", len(raw)))
    fh.write(raw)
    fh.write(np.ascontiguousarray(payload, dtype=np.complex128).tobytes())


def _fields(block: dict, kinds: dict, where: str) -> list:
    """The values in ``block`` of the fields ``kinds`` maps to a tuple of types, or to a
    list holding one for a list of such values; a missing or mistyped field is named
    in the error, so no arithmetic runs on a mistyped header value."""
    values = []
    for name, kind in kinds.items():
        if name not in block:
            raise ConfigurationError(f"corrupt file: the {where} lacks the field {name!r}")
        value = block[name]
        items, types = (value, kind[0]) if isinstance(kind, list) else ([value], kind)
        if not isinstance(items, list) or any(type(v) not in types for v in items):
            want = "a list of " * isinstance(kind, list) + "/".join(t.__name__ for t in types)
            raise ConfigurationError(f"corrupt file: the {where} field {name!r} must be "
                                     f"{want}, got {value!r}")
        values.append(value)
    return values


def _read_block(fh, magic: bytes):
    """(header, raw payload bytes) of format 2; a short, corrupt or unknown header raises."""
    got = fh.read(len(magic))
    if got != magic:
        raise ConfigurationError(
            f"bad file magic: expected {magic!r}, got {got!r}"
        )
    size = fh.read(8)
    if len(size) != 8:
        raise ConfigurationError("truncated file: the header length is missing")
    (hlen,) = struct.unpack("<Q", size)
    raw = fh.read(hlen)
    if len(raw) != hlen:
        raise ConfigurationError(
            f"truncated file: header holds {len(raw)} of its {hlen} bytes"
        )
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"corrupt file header: {exc}") from None
    version = header.get("format_version") if isinstance(header, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported format_version {version!r}; expected {FORMAT_VERSION} "
            "(re-run measure/extract to rewrite the file)"
        )
    return header, fh.read()


def _payload(raw: bytes, shape: tuple) -> np.ndarray:
    """The complex128 payload as an array of ``shape``, checked against the header."""
    count = math.prod(shape)
    if min(shape) < 0 or len(raw) != 16 * count:
        raise ConfigurationError(
            f"truncated or corrupt file: payload holds {len(raw)} bytes, "
            f"the header implies shape {shape} ({16 * count} bytes)"
        )
    return np.frombuffer(raw, dtype=np.complex128).reshape(shape)


def save_measurement_tensor(path, mt: MeasurementTensor) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "num_units": mt.num_units,
        "num_speakers": mt.num_speakers,
        "mic_order": mt.mic_order,
        "frequencies": mt.frequencies.tolist(),
        "mask_orders": mt.mask_orders.tolist(),
        "digests": mt.digests,
    }
    with open(path, "wb") as fh:
        _write_block(fh, MEASUREMENT_MAGIC, header, mt.gamma_tilde.ravel())


def load_measurement_tensor(path) -> MeasurementTensor:
    with open(path, "rb") as fh:
        header, raw = _read_block(fh, MEASUREMENT_MAGIC)
    freqs, units, speakers, mic_order, masks, digests = _fields(header, {
        "frequencies": [_NUMBER], "num_units": _INT, "num_speakers": _INT, "mic_order": _INT,
        "mask_orders": [_INT], "digests": (dict,)}, "header")
    return MeasurementTensor(
        frequencies=np.array(freqs),
        gamma_tilde=_payload(raw, (len(freqs), units, speakers, (mic_order + 1) ** 2)),
        mic_order=mic_order,
        mask_orders=np.array(masks),
        digests=digests,
    )


def save_coefficient_set(path, cset: RtfCoefficientSet) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "sound_speed": cset.sound_speed,
        "frequencies": cset.frequencies.tolist(),
        "source_orders": cset.source_orders.tolist(),
        "receiver_orders": cset.receiver_orders.tolist(),
        "digests": cset.digests,
        "regions": asdict(cset.regions),
    }
    payload = np.concatenate([a.ravel() for a in cset.alpha])
    with open(path, "wb") as fh:
        _write_block(fh, COEFFICIENT_MAGIC, header, payload)


def load_coefficient_set(path) -> RtfCoefficientSet:
    with open(path, "rb") as fh:
        header, raw = _read_block(fh, COEFFICIENT_MAGIC)
    freqs, source_orders, receiver_orders, sound_speed, regions, digests = _fields(header, {
        "frequencies": [_NUMBER], "source_orders": [_INT], "receiver_orders": [_INT],
        "sound_speed": _NUMBER, "regions": (dict,), "digests": (dict,)}, "header")
    *radii, offset = _fields(regions, {
        "receiver_radius": _NUMBER, "source_radius": _NUMBER, "source_inner_radius": _NUMBER,
        "offset": [_NUMBER]}, "regions header")
    shapes = [((ns + 1) ** 2, (nr + 1) ** 2) for ns, nr in zip(source_orders, receiver_orders)]
    sizes = [rows * cols for rows, cols in shapes]
    payload = np.split(_payload(raw, (sum(sizes),)), np.cumsum(sizes)[:-1])
    blocks = [block.reshape(shape) for block, shape in zip(payload, shapes)]
    return RtfCoefficientSet(
        frequencies=np.array(freqs),
        alpha=tuple(blocks),
        source_orders=np.array(source_orders),
        receiver_orders=np.array(receiver_orders),
        regions=RegionPair(*radii, offset),
        sound_speed=sound_speed,
        digests=digests,
    )


def check_digests(expected: dict, actual: dict) -> None:
    """Raise DigestMismatchError unless ``actual`` carries every digest of ``expected``."""
    for key, value in expected.items():
        if key not in actual:
            raise DigestMismatchError(
                f"artifact lacks the {key!r} digest, so its geometry or config "
                "cannot be checked"
            )
        if actual[key] != value:
            raise DigestMismatchError(
                f"artifact digest mismatch for {key!r}: the file was produced "
                "with a different geometry or config"
            )
