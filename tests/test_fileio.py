"""Artifact persistence: binary round trips, digests, CSV fidelity."""
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

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


def read_artifact(path):
    """(magic, JSON header, raw payload bytes) of the artifact at ``path``."""
    data = Path(path).read_bytes()
    (hlen,) = struct.unpack("<Q", data[9:17])
    return data[:9], json.loads(data[17:17 + hlen]), data[17 + hlen:]


def edit_header(path, edit) -> None:
    """Rewrite the JSON header of the artifact at ``path`` by ``edit(header)``, payload kept."""
    magic, header, payload = read_artifact(path)
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(magic + struct.pack("<Q", len(raw)) + raw + payload)


def set_field(name, value, section=None):
    def edit(header):
        (header[section] if section else header)[name] = value
    return edit


# (artifact, header edit, message): each header loads at the parent as a
# traceback or as a silently wrong set, and must raise ConfigurationError
MALFORMED_HEADERS = {
    "offset-one-value": ("c", set_field("offset", [1.0], "regions"),
                         r"offset must be three finite coordinates, got \(1\.0,\)"),
    "offset-nan": ("c", set_field("offset", [1.0, float("nan"), 0.5], "regions"),
                   r"offset must be three finite coordinates, got \(1\.0, nan, 0\.5\)"),
    "offset-string": ("c", set_field("offset", "1,1,0.5", "regions"),
                      "field 'offset' must be a list of int/float"),
    "sound-speed-string": ("c", set_field("sound_speed", "343"),
                           "field 'sound_speed' must be int/float, got '343'"),
    "order-string": ("c", set_field("source_orders", [2, "3"]),
                     "field 'source_orders' must be a list of int, got \\[2, '3'\\]"),
    "order-float": ("c", set_field("receiver_orders", [3.0, 4]),
                    "field 'receiver_orders' must be a list of int"),
    # (-4 + 1)^2 = (2 + 1)^2, so the payload still has the size the header implies
    "order-negative": ("c", set_field("source_orders", [-4, 3]),
                       r"source_orders \[-4, 3\] and receiver_orders \[3, 4\] must each hold"),
    "orders-longer": ("c", set_field("receiver_orders", [3, 4, 5]),
                      r"\[3, 4, 5\] must each hold one order >= 0 per frequency \(2\)"),
    "frequencies-scalar": ("c", set_field("frequencies", 500.0),
                           "field 'frequencies' must be a list of int/float, got 500.0"),
    "mic-order-string": ("m", set_field("mic_order", "3"),
                         "field 'mic_order' must be int, got '3'"),
    "mic-order-negative": ("m", set_field("mic_order", -5),
                           r"mask_orders \[2, 3\] must hold one order in \[0, mic_order = -5\]"),
    "mask-negative": ("m", set_field("mask_orders", [-1, 3]),
                      r"mask_orders \[-1, 3\] must hold one order in \[0, mic_order = 3\]"),
    "mask-above-mic-order": ("m", set_field("mask_orders", [2, 4]),
                             r"mask_orders \[2, 4\] must hold one order in \[0, mic_order = 3\]"),
    "masks-shorter": ("m", set_field("mask_orders", [2]),
                      r"mask_orders \[2\] must hold one order .* per frequency \(2\)"),
    "digests-list-c": ("c", set_field("digests", ["geometry", "solver"]),
                       r"field 'digests' must be dict, got \['geometry', 'solver'\]"),
    "digests-list-m": ("m", set_field("digests", ["geometry", "direct_removal"]),
                       r"field 'digests' must be dict, got \['geometry', 'direct_removal'\]"),
    # every writer records its digests, so a header without them is corrupt
    "digests-missing-c": ("c", lambda h: h.pop("digests"),
                          "the header lacks the field 'digests'"),
    "digests-missing-m": ("m", lambda h: h.pop("digests"),
                          "the header lacks the field 'digests'"),
    # two bins within GRID_TOLERANCE: a lookup of either would find the first
    "frequencies-close-c": ("c", set_field("frequencies", [500.0, 500.0000000005]),
                            r"coefficient grid holds 500\.0 and 500\.0000000005 Hz"),
    "frequencies-close-m": ("m", set_field("frequencies", [500.0, 500.0000000005]),
                            r"measurement grid holds 500\.0 and 500\.0000000005 Hz"),
    # (-3) x (-5) = 3 x 5, so only the signs are wrong
    "counts-negative": ("m", lambda h: h.update(num_units=-3, num_speakers=-5),
                        r"truncated or corrupt file: .* shape \(2, -3, -5, 16\)"),
}


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
        path.write_bytes(coefficient_header_bytes({"format_version": 3}))
        with pytest.raises(ConfigurationError, match="format_version 3"):
            fileio.load_coefficient_set(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "c.rtfc"
        full = coefficient_header_bytes({"format_version": 2})
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
        path.write_bytes(coefficient_header_bytes({"format_version": 2}))
        with pytest.raises(ConfigurationError, match="lacks the field 'frequencies'"):
            fileio.load_coefficient_set(path)
        argv = ["reconstruct", "--coeffs", str(path), "-f", "500",
                "--receiver", "0.1,0,0", "--source", "0,0.1,0"]
        assert cli.main(argv) == 2
        assert "lacks the field" in capsys.readouterr().err

    def test_incomplete_measurement_header(self, tmp_path):
        path = tmp_path / "m.rtfm"
        fileio.save_measurement_tensor(path, sample_tensor())
        edit_header(path, lambda header: header.pop("mask_orders"))
        with pytest.raises(ConfigurationError, match="lacks the field 'mask_orders'"):
            fileio.load_measurement_tensor(path)

    def test_coefficient_header_without_regions(self, tmp_path, capsys):
        path = tmp_path / "c.rtfc"
        fileio.save_coefficient_set(path, sample_cset())
        edit_header(path, lambda header: header.pop("regions"))
        with pytest.raises(ConfigurationError, match="lacks the field 'regions'"):
            fileio.load_coefficient_set(path)
        argv = ["reconstruct", "--coeffs", str(path), "-f", "500",
                "--receiver", "0.1,0,0", "--source", "0,0.1,0"]
        assert cli.main(argv) == 2
        assert "the header lacks the field 'regions'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_rejected(self, tmp_path, case):
        kind, edit, message = MALFORMED_HEADERS[case]
        path = tmp_path / "artifact"
        save, load = {
            "c": (lambda: fileio.save_coefficient_set(path, sample_cset()),
                  fileio.load_coefficient_set),
            "m": (lambda: fileio.save_measurement_tensor(path, sample_tensor()),
                  fileio.load_measurement_tensor),
        }[kind]
        save()
        edit_header(path, edit)
        with pytest.raises(ConfigurationError, match=message):
            load(path)

    def test_cli_rejects_a_one_value_offset_with_exit_2(self, tmp_path, capsys):
        # this file once printed a wrong RTF with exit 0
        path = tmp_path / "c.rtfc"
        fileio.save_coefficient_set(path, sample_cset())
        edit_header(path, set_field("offset", [1.0], "regions"))
        argv = ["reconstruct", "--coeffs", str(path), "-f", "500",
                "--receiver", "0.1,0,0", "--source", "0,0.1,0"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "offset must be three finite coordinates" in captured.err
        assert "reconstructed" not in captured.out

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


def workspace(tmp_path, fast_artifacts, *artifacts) -> str:
    """The fast config with its output directory under ``tmp_path``, holding
    copies of the named format-2 artifacts; returns the config path."""
    config, cfile = fast_artifacts
    written = {"coefficients.rtfc": Path(cfile),
               "measurements.rtfm": Path(cfile).with_name("m.rtfm")}
    raw = yaml.safe_load(Path(config).read_text())
    out = tmp_path / "out"
    out.mkdir()
    raw["output"] = {"directory": str(out)}
    for name in artifacts:
        shutil.copy(written[name], out / name)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestFormatVersions:
    """Format 2 is the one format written and read; it round-trips bit for bit."""

    def test_v2_pair_round_trips_bit_for_bit(self, tmp_path, fast_artifacts):
        workspace(tmp_path, fast_artifacts, "measurements.rtfm", "coefficients.rtfc")
        for name, load, save in (
            ("measurements.rtfm", fileio.load_measurement_tensor, fileio.save_measurement_tensor),
            ("coefficients.rtfc", fileio.load_coefficient_set, fileio.save_coefficient_set),
        ):
            written, again = tmp_path / "out" / name, tmp_path / name
            artifact = load(written)
            save(again, artifact)
            back = load(again)
            assert read_artifact(written)[1]["format_version"] == 2
            assert again.read_bytes() == written.read_bytes()
            assert back.digests == artifact.digests
            if name.endswith("rtfm"):
                assert back.gamma_tilde.tobytes() == artifact.gamma_tilde.tobytes()
            else:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(back.alpha, artifact.alpha))

    def test_sweep_exits_2_on_a_digests_list(self, tmp_path, fast_artifacts, capsys):
        # this header once loaded, and the digest check raised a TypeError
        path = workspace(tmp_path, fast_artifacts, "coefficients.rtfc")
        edit_header(tmp_path / "out" / "coefficients.rtfc",
                    set_field("digests", ["geometry", "solver"]))
        assert cli.main(["sweep", "--config", path]) == 2
        assert "field 'digests' must be dict" in capsys.readouterr().err

    def test_format_version_3_exits_2(self, tmp_path, fast_artifacts, capsys):
        path = workspace(tmp_path, fast_artifacts, "measurements.rtfm", "coefficients.rtfc")
        for name in ("measurements.rtfm", "coefficients.rtfc"):
            edit_header(tmp_path / "out" / name, set_field("format_version", 3))
        capsys.readouterr()
        assert cli.main(["reconstruct", "--coeffs", str(tmp_path / "out" / "coefficients.rtfc"),
                         "-f", "400", "--receiver", "0.1,0,0", "--source", "0,0.1,0"]) == 2
        assert cli.main(["extract", "--config", path, "--out", str(tmp_path / "c.rtfc")]) == 2
        err = capsys.readouterr().err
        assert err.count("unsupported format_version 3; expected 2") == 2

    @pytest.mark.parametrize("name", ["measurements.rtfm", "coefficients.rtfc"])
    def test_format_1_exits_2_with_a_hint_to_rewrite(self, tmp_path, fast_artifacts, capsys,
                                                    name):
        # the complex-basis format 1 is no longer read; measure/extract rewrite it
        path = workspace(tmp_path, fast_artifacts, name)
        edit_header(tmp_path / "out" / name, set_field("format_version", 1))
        capsys.readouterr()
        assert cli.main(["sweep", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "unsupported format_version 1; expected 2 (re-run measure/extract" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()
