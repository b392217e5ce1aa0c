"""Persistence: self-describing binary artifacts.

Both binary formats share the same layout: an ASCII magic line, an 8-byte
little-endian header length, a JSON header, then raw little-endian complex128
payload (IEEE-754 double pairs).  Headers carry geometry/config digests so a
stale artifact/config combination fails loudly instead of silently.
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


def _fields(block: dict, names, where: str) -> list:
    """The values of ``names`` in ``block``; a missing one is named in the error."""
    for name in names:
        if name not in block:
            raise ConfigurationError(f"corrupt file: the {where} lacks the field {name!r}")
    return [block[name] for name in names]


def _read_block(fh, magic: bytes):
    """(header, raw payload bytes); a short, corrupt or unknown header raises."""
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
    if version != 1:
        raise ConfigurationError(f"unsupported format_version {version!r}; expected 1")
    return header, fh.read()


def _payload(raw: bytes, count: int) -> np.ndarray:
    """The complex128 payload, checked against the element count the header implies."""
    if len(raw) != 16 * count:
        raise ConfigurationError(
            f"truncated or corrupt file: payload holds {len(raw)} bytes, "
            f"the header implies {count} complex values ({16 * count} bytes)"
        )
    return np.frombuffer(raw, dtype=np.complex128)


def save_measurement_tensor(path, mt: MeasurementTensor) -> None:
    header = {
        "format_version": 1,
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
    freqs, units, speakers, mic_order, masks = _fields(header, (
        "frequencies", "num_units", "num_speakers", "mic_order", "mask_orders"
    ), "header")
    shape = (len(freqs), units, speakers, (mic_order + 1) ** 2)
    return MeasurementTensor(
        frequencies=np.array(freqs),
        gamma_tilde=_payload(raw, math.prod(shape)).reshape(shape),
        mic_order=mic_order,
        mask_orders=np.array(masks),
        digests=header.get("digests", {}),
    )


def save_coefficient_set(path, cset: RtfCoefficientSet) -> None:
    header = {
        "format_version": 1,
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
    freqs, source_orders, receiver_orders, sound_speed, regions = _fields(header, (
        "frequencies", "source_orders", "receiver_orders", "sound_speed", "regions"
    ), "header")
    orders = list(zip(source_orders, receiver_orders))
    payload = _payload(raw, sum((ns + 1) ** 2 * (nr + 1) ** 2 for ns, nr in orders))
    blocks = []
    pos = 0
    for ns, nr in orders:
        size = (ns + 1) ** 2 * (nr + 1) ** 2
        blocks.append(payload[pos:pos + size].reshape((ns + 1) ** 2, (nr + 1) ** 2))
        pos += size
    *radii, offset = _fields(regions, (
        "receiver_radius", "source_radius", "source_inner_radius", "offset"
    ), "regions header")
    return RtfCoefficientSet(
        frequencies=np.array(freqs),
        alpha=tuple(blocks),
        source_orders=np.array(source_orders),
        receiver_orders=np.array(receiver_orders),
        regions=RegionPair(*radii, tuple(offset)),
        sound_speed=sound_speed,
        digests=header.get("digests", {}),
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
