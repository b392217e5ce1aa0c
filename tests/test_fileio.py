"""Artifact persistence: binary round trips, digests, CSV fidelity."""
import json
import struct

import numpy as np
import pytest

from roomtf import cli, fileio
from roomtf.errors import ConfigurationError, DigestMismatchError
from roomtf.geometry import RegionPair
from roomtf.recording import MeasurementTensor
from roomtf.rtf import RtfCoefficientSet


def sample_tensor():
    rng = np.random.default_rng(19)
    gt = rng.standard_normal((2, 3, 5, 16)) + 1j * rng.standard_normal((2, 3, 5, 16))
    return MeasurementTensor(
        frequencies=np.array([500.0, 700.0]),
        gamma_tilde=gt,
        mic_order=3,
        mask_orders=np.array([2, 3]),
        digests={"geometry": "abc123"},
    )


def sample_cset():
    rng = np.random.default_rng(29)
    blocks = [
        rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16)),
        rng.standard_normal((16, 25)) + 1j * rng.standard_normal((16, 25)),
    ]
    return RtfCoefficientSet(
        frequencies=np.array([500.0, 700.0]),
        alpha=tuple(blocks),
        source_orders=np.array([2, 3]),
        receiver_orders=np.array([3, 4]),
        regions=RegionPair(0.4, 0.4, 0.3, (1.0, 1.0, 0.5)),
        sound_speed=343.0,
        digests={"geometry": "abc123"},
    )


class TestMeasurementRoundTrip:
    def test_bit_exact(self, tmp_path):
        mt = sample_tensor()
        path = tmp_path / "m.rtfm"
        fileio.save_measurement_tensor(path, mt)
        back = fileio.load_measurement_tensor(path)
        assert np.array_equal(back.gamma_tilde, mt.gamma_tilde)
        assert np.array_equal(back.frequencies, mt.frequencies)
        assert np.array_equal(back.mask_orders, mt.mask_orders)
        assert back.digests == mt.digests

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a tensor file")
        with pytest.raises(ConfigurationError, match="magic"):
            fileio.load_measurement_tensor(path)


class TestCoefficientRoundTrip:
    def test_bit_exact(self, tmp_path):
        cset = sample_cset()
        path = tmp_path / "c.rtfc"
        fileio.save_coefficient_set(path, cset)
        back = fileio.load_coefficient_set(path)
        for a, b in zip(back.alpha, cset.alpha):
            assert np.array_equal(a, b)
        assert back.regions == cset.regions
        assert back.sound_speed == cset.sound_speed
        assert np.array_equal(back.source_orders, cset.source_orders)

    def test_ragged_blocks_preserved(self, tmp_path):
        cset = sample_cset()
        path = tmp_path / "c.rtfc"
        fileio.save_coefficient_set(path, cset)
        back = fileio.load_coefficient_set(path)
        assert back.alpha[0].shape == (9, 16)
        assert back.alpha[1].shape == (16, 25)


def write_truncated(path, cset, cut):
    fileio.save_coefficient_set(path, cset)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut])


def coefficient_header_bytes(header: dict) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return fileio.COEFFICIENT_MAGIC + struct.pack("<Q", len(raw)) + raw


class TestMalformedArtifacts:
    @pytest.mark.parametrize("cut", [16, 24])
    def test_truncated_coefficient_payload(self, tmp_path, cut):
        path = tmp_path / "c.rtfc"
        write_truncated(path, sample_cset(), cut)
        with pytest.raises(ConfigurationError, match="truncated or corrupt"):
            fileio.load_coefficient_set(path)

    @pytest.mark.parametrize("cut", [16, 24])
    def test_truncated_measurement_payload(self, tmp_path, cut):
        path = tmp_path / "m.rtfm"
        fileio.save_measurement_tensor(path, sample_tensor())
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - cut])
        with pytest.raises(ConfigurationError, match="truncated or corrupt"):
            fileio.load_measurement_tensor(path)

    def test_bad_format_version(self, tmp_path):
        path = tmp_path / "c.rtfc"
        path.write_bytes(coefficient_header_bytes({"format_version": 2}))
        with pytest.raises(ConfigurationError, match="format_version 2"):
            fileio.load_coefficient_set(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "c.rtfc"
        full = coefficient_header_bytes({"format_version": 1})
        path.write_bytes(full[:-3])
        with pytest.raises(ConfigurationError, match="truncated file: header"):
            fileio.load_coefficient_set(path)
        path.write_bytes(fileio.COEFFICIENT_MAGIC + b"\x05\x00")
        with pytest.raises(ConfigurationError, match="header length"):
            fileio.load_coefficient_set(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "c.rtfc"
        path.write_bytes(fileio.COEFFICIENT_MAGIC + struct.pack("<Q", 4) + b"{not")
        with pytest.raises(ConfigurationError, match="corrupt file header"):
            fileio.load_coefficient_set(path)

    def test_incomplete_coefficient_header(self, tmp_path, capsys):
        path = tmp_path / "c.rtfc"
        path.write_bytes(coefficient_header_bytes({"format_version": 1}))
        with pytest.raises(ConfigurationError, match="lacks the field 'frequencies'"):
            fileio.load_coefficient_set(path)
        argv = ["reconstruct", "--coeffs", str(path), "-f", "500",
                "--receiver", "0.1,0,0", "--source", "0,0.1,0"]
        assert cli.main(argv) == 2
        assert "lacks the field" in capsys.readouterr().err

    def test_incomplete_measurement_header(self, tmp_path):
        path = tmp_path / "m.rtfm"
        fileio.save_measurement_tensor(path, sample_tensor())
        data = path.read_bytes()
        (hlen,) = struct.unpack("<Q", data[9:17])
        header = json.loads(data[17:17 + hlen])
        del header["mask_orders"]
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(fileio.MEASUREMENT_MAGIC + struct.pack("<Q", len(raw)) + raw
                         + data[17 + hlen:])
        with pytest.raises(ConfigurationError, match="lacks the field 'mask_orders'"):
            fileio.load_measurement_tensor(path)

    def test_coefficient_header_without_regions(self, tmp_path, capsys):
        path = tmp_path / "c.rtfc"
        fileio.save_coefficient_set(path, sample_cset())
        data = path.read_bytes()
        (hlen,) = struct.unpack("<Q", data[9:17])
        header = json.loads(data[17:17 + hlen])
        del header["regions"]
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(fileio.COEFFICIENT_MAGIC + struct.pack("<Q", len(raw)) + raw
                         + data[17 + hlen:])
        with pytest.raises(ConfigurationError, match="lacks the field 'regions'"):
            fileio.load_coefficient_set(path)
        argv = ["reconstruct", "--coeffs", str(path), "-f", "500",
                "--receiver", "0.1,0,0", "--source", "0,0.1,0"]
        assert cli.main(argv) == 2
        assert "the header lacks the field 'regions'" in capsys.readouterr().err

    def test_cli_reports_truncation_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.rtfc"
        write_truncated(path, sample_cset(), 24)
        argv = ["reconstruct", "--coeffs", str(path), "-f", "500",
                "--receiver", "0.1,0,0", "--source", "0,0.1,0"]
        assert cli.main(argv) == 2
        assert "truncated or corrupt" in capsys.readouterr().err


class TestDigests:
    def test_mismatch_raises(self):
        with pytest.raises(DigestMismatchError):
            fileio.check_digests({"geometry": "aaa"}, {"geometry": "bbb"})

    def test_match_passes_and_missing_raises(self):
        fileio.check_digests({"geometry": "aaa"}, {"geometry": "aaa"})
        with pytest.raises(DigestMismatchError, match="lacks the 'geometry' digest"):
            fileio.check_digests({"geometry": "aaa"}, {})
        with pytest.raises(DigestMismatchError, match="lacks the 'solver' digest"):
            fileio.check_digests({"geometry": "aaa", "solver": {}}, {"geometry": "aaa"})

    def test_content_digest_sensitivity(self):
        a = np.arange(12.0).reshape(3, 4)
        assert fileio.content_digest(a) == fileio.content_digest(a.copy())
        b = a.copy()
        b[0, 0] += 1e-12
        assert fileio.content_digest(a) != fileio.content_digest(b)
