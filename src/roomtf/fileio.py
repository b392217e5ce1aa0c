"""Persistence: self-describing binary artifacts and CSV exports.

Both binary formats share the same layout: an ASCII magic line, an 8-byte
little-endian header length, a JSON header, then raw little-endian complex128
payload (IEEE-754 double pairs).  Headers carry geometry/config digests so a
stale artifact/config combination fails loudly instead of silently.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import struct

import numpy as np

from .errors import ConfigurationError, DigestMismatchError
from .geometry import RegionPair
from .recording import MeasurementTensor
from .rtf import RtfCoefficientSet
from .specfun import HarmonicIndex, harmonic_indices

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
    shape = (
        len(header["frequencies"]),
        header["num_units"],
        header["num_speakers"],
        (header["mic_order"] + 1) ** 2,
    )
    return MeasurementTensor(
        frequencies=np.array(header["frequencies"]),
        gamma_tilde=_payload(raw, math.prod(shape)).reshape(shape),
        mic_order=header["mic_order"],
        mask_orders=np.array(header["mask_orders"]),
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
    }
    if cset.regions is not None:
        header["regions"] = {
            "receiver_radius": cset.regions.receiver_radius,
            "source_radius": cset.regions.source_radius,
            "source_inner_radius": cset.regions.source_inner_radius,
            "offset": list(cset.regions.offset),
        }
    payload = np.concatenate([a.ravel() for a in cset.alpha])
    with open(path, "wb") as fh:
        _write_block(fh, COEFFICIENT_MAGIC, header, payload)


def load_coefficient_set(path) -> RtfCoefficientSet:
    with open(path, "rb") as fh:
        header, raw = _read_block(fh, COEFFICIENT_MAGIC)
    orders = list(zip(header["source_orders"], header["receiver_orders"]))
    payload = _payload(raw, sum((ns + 1) ** 2 * (nr + 1) ** 2 for ns, nr in orders))
    blocks = []
    pos = 0
    for ns, nr in orders:
        size = (ns + 1) ** 2 * (nr + 1) ** 2
        blocks.append(payload[pos:pos + size].reshape((ns + 1) ** 2, (nr + 1) ** 2))
        pos += size
    regions = None
    if "regions" in header:
        rb = header["regions"]
        regions = RegionPair(
            receiver_radius=rb["receiver_radius"],
            source_radius=rb["source_radius"],
            source_inner_radius=rb["source_inner_radius"],
            offset=tuple(rb["offset"]),
        )
    return RtfCoefficientSet(
        frequencies=np.array(header["frequencies"]),
        alpha=tuple(blocks),
        source_orders=np.array(header["source_orders"]),
        receiver_orders=np.array(header["receiver_orders"]),
        regions=regions,
        sound_speed=header["sound_speed"],
        digests=header.get("digests", {}),
    )


def check_digests(expected: dict, actual: dict) -> None:
    for key, value in expected.items():
        if key in actual and actual[key] != value:
            raise DigestMismatchError(
                f"artifact digest mismatch for {key!r}: the file was produced "
                "with a different geometry or config"
            )


def export_measurement_csv(path, mt: MeasurementTensor) -> None:
    """Inspection CSV: one row per tensor entry, 17 significant digits."""
    idx = harmonic_indices(mt.mic_order)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "mic_unit", "speaker", "a", "b", "re", "im"])
        for fi, f in enumerate(mt.frequencies):
            for q in range(mt.num_units):
                for l in range(mt.num_speakers):
                    for ci, ab in enumerate(idx):
                        z = mt.gamma_tilde[fi, q, l, ci]
                        writer.writerow(
                            [f"{f:.17g}", q, l, ab.order, ab.degree,
                             f"{z.real:.17g}", f"{z.imag:.17g}"]
                        )


def export_coefficients_csv(path, cset: RtfCoefficientSet) -> None:
    """Round-trip-faithful CSV of the alpha tensor (17 significant digits)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "n", "m", "v", "mu", "re", "im"])
        for fi, f in enumerate(cset.frequencies):
            src_idx = harmonic_indices(int(cset.source_orders[fi]))
            rcv_idx = harmonic_indices(int(cset.receiver_orders[fi]))
            block = cset.alpha[fi]
            for si, nm in enumerate(src_idx):
                for ri, vm in enumerate(rcv_idx):
                    z = block[si, ri]
                    writer.writerow(
                        [f"{f:.17g}", nm.order, nm.degree, vm.order, vm.degree,
                         f"{z.real:.17g}", f"{z.imag:.17g}"]
                    )
