"""Experiment orchestration: config parsing, validation, determinism, CLI."""
import json
import math
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from roomtf import cli, fileio, pipeline, recording, rtf, specfun, synthesis, translation
from roomtf.errors import BesselZeroError, ConfigurationError, DigestMismatchError
from roomtf.geometry import RegionPair, sphere_array
from roomtf.modal import truncation_order
from roomtf.pipeline import (
    ArraysConfig,
    Experiment,
    ExperimentConfig,
    SignalConfig,
    SolverConfig,
    load_config,
    run_measure,
    validate_config,
)
from roomtf.recording import MeasurementTensor
from roomtf.room import RoomModel
from roomtf.rtf import RtfCoefficientSet

from conftest import FAST_YAML
from oracles import rtf_oracle_many

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def fast_config(**solver_kwargs):
    """Small but valid geometry: design order 5, 40 speakers, 3 mic units."""
    return ExperimentConfig(
        arrays=ArraysConfig(speakers=40, mic_units=3, omnis_per_mic=16,
                            mic_fit_order=3),
        signal=SignalConfig(f_max=500.0, frequencies=(400.0,)),
        solver=SolverConfig(**solver_kwargs) if solver_kwargs else SolverConfig(),
    )


def write_yaml(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, ""))
        assert cfg == ExperimentConfig()

    def test_repo_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            load_config(path)

    def test_overlap_config_fields(self):
        cfg = load_config(CONFIG_DIR / "fig6_overlap.yaml")
        assert cfg.solver.direct_removal == "measurement"
        assert cfg.regions.offset == (0.3, 0.3, 0.3)

    def test_free_field_config_fields(self):
        cfg = load_config(CONFIG_DIR / "freefield.yaml")
        assert cfg.room.reflections == (0.0,) * 6
        assert cfg.solver.order_margin == 0

    def test_range_frequency_grid(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, (
            "arrays: {speakers: 40, mic_units: 3, omnis_per_mic: 16, mic_fit_order: 3}\n"
            "signal:\n"
            "  f_max: 500\n"
            "  frequencies: {start: 200, stop: 400, step: 100}\n"
        )))
        assert cfg.signal.frequencies == (200.0, 300.0, 400.0)

    @pytest.mark.parametrize("text, name", [
        ("room: {reflection: [0, 0, 0, 0, 0, 0]}\n", "'reflection'"),
        ("signl: {frequencies: [400]}\n", "'signl'"),
        ("output: {dir: out}\n", "'dir'"),
        ("arrays: {mic_center_radius: 0.2}\n", "'mic_center_radius'"),
    ], ids=["key", "section", "output-key", "mic-center-radius"])
    def test_unknown_key_rejected(self, tmp_path, text, name):
        with pytest.raises(ConfigurationError, match=f"unknown .*{name}"):
            load_config(write_yaml(tmp_path, text))

    def test_every_field_loads_by_its_type(self, tmp_path):
        cfg = replace(
            fast_config(order_margin=1, direct_removal="measurement", svd_cutoff=1e-8),
            room=RoomModel((6.5, 5.5, 3.0), (0.8,) * 6, 1),
            regions=RegionPair(0.35, 0.4, 0.25, (1.0, 0.9, 0.6)),
            probes=pipeline.ProbesConfig(radii=(0.2,)),
            output=pipeline.OutputConfig(str(tmp_path / "out")),
        )
        raw = json.loads(json.dumps(asdict(cfg)))  # tuples -> lists
        path = tmp_path / "all.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("text, message", [
        ("arrays: {speakers: many}\n", "arrays.speakers must be of type int, got 'many'"),
        ("room: {dimensions: [6, 5]}\n", "room.dimensions: expected 3 values, got 2"),
        ("probes: {radii: 0.4}\n", "probes.radii must be a list"),
        ("room: [6, 5, 2.5]\n", "config section 'room' must be a mapping"),
        ("signal: {frequencies: {start: 200, stop: 400, step: 0}}\n",
         "signal.frequencies.step must be > 0"),
        # int() would truncate these, and int() and float() would take a bool
        ("arrays: {speakers: 121.7}\n", "arrays.speakers must be of type int, got 121.7"),
        ("room: {max_image_order: 1.5}\n", "room.max_image_order must be of type int, got 1.5"),
        ("solver: {order_margin: 2.9}\n", "solver.order_margin must be of type int, got 2.9"),
        ("arrays: {seed: true}\n", "arrays.seed must be of type int, got True"),
        ("signal: {sound_speed: true}\n", "signal.sound_speed must be of type float, got True"),
        ("room: {dimensions: [6, false, 2.5]}\n",
         "room.dimensions must be of type float, got False"),
        # str() would turn these into the strings 'True', '3' and '1.5'
        ("output: {directory: true}\n", "output.directory must be of type str, got True"),
        ("solver: {direct_removal: 3}\n", "solver.direct_removal must be of type str, got 3"),
        ("probes: {preset: 1.5}\n", "probes.preset must be of type str, got 1.5"),
    ], ids=["int", "length", "list", "mapping", "step", "fraction-speakers",
            "fraction-image-order", "fraction-margin", "bool-int", "bool-float", "bool-in-tuple",
            "bool-directory", "int-removal", "float-preset"])
    def test_bad_value_named(self, tmp_path, text, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            load_config(write_yaml(tmp_path, text))

    @pytest.mark.parametrize("grid, key", [
        ("{start: 200}", "stop"),
        ("{start: 200, stop: 400}", "step"),
        ("{stop: 400, step: 100}", "start"),
    ])
    def test_incomplete_range_grid_exits_2(self, tmp_path, capsys, grid, key):
        path = write_yaml(tmp_path, f"signal: {{frequencies: {grid}}}\n")
        assert cli.main(["cond", "--config", path, "--out", str(tmp_path / "c.csv")]) == 2
        assert f"signal.frequencies range lacks {key!r}" in capsys.readouterr().err

    def test_non_string_directory_exits_2(self, tmp_path, capsys):
        path = write_yaml(tmp_path, "output: {directory: 2024}\n")
        assert cli.main(["cond", "--config", path, "--out", str(tmp_path / "c.csv")]) == 2
        assert "output.directory must be of type str, got 2024" in capsys.readouterr().err

    def test_bad_removal_mode_rejected(self, tmp_path):
        path = write_yaml(tmp_path, (
            "arrays: {speakers: 40, mic_units: 3, omnis_per_mic: 16, mic_fit_order: 3}\n"
            "signal: {f_max: 500, frequencies: [400]}\n"
            "solver: {direct_removal: spectral}\n"
        ))
        with pytest.raises(ConfigurationError, match="direct_removal"):
            load_config(path)


class TestValidateConfig:
    def test_fast_config_valid(self):
        exp = validate_config(fast_config())
        assert exp.design_source_order == 5

    def test_speaker_aliasing_named(self):
        cfg = replace(fast_config(), arrays=replace(fast_config().arrays, speakers=30))
        with pytest.raises(ConfigurationError, match=r"L = 30 < \(N_s\+1\)\^2 = 36"):
            validate_config(cfg)

    def test_mic_aliasing_named(self):
        cfg = replace(fast_config(), arrays=replace(fast_config().arrays, mic_units=2))
        with pytest.raises(ConfigurationError, match=r"Q \(A\+1\)\^2 = 32"):
            validate_config(cfg)

    def test_sensors_beyond_receiver_region(self):
        # the units sit at R_r - r, so only R_r <= r (0.241 m at 500 Hz) puts
        # a sensor outside the receiver region
        cfg = replace(fast_config(), regions=RegionPair(0.2, 0.4, 0.3, (1.0, 1.0, 0.5)),
                      probes=pipeline.ProbesConfig(radii=(0.1,)))
        with pytest.raises(ConfigurationError,
                           match=r"regions.receiver_radius = 0.2 m must exceed the microphone "
                                 r"radius r = A c / \(pi e f_max\) = 0.240"):
            validate_config(cfg)

    def test_speakers_outside_room(self):
        cfg = replace(fast_config(), regions=RegionPair(0.4, 0.4, 0.3, (2.8, 0.0, 0.0)))
        with pytest.raises(ConfigurationError, match="outside the room"):
            validate_config(cfg)

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError, match="order_margin"):
            validate_config(fast_config(order_margin=-1))

    @pytest.mark.parametrize("radii", [(), (0.5,), (-0.3,), (0.0,), (0.2, math.nan), (math.inf,)],
                             ids=["empty", "outside", "negative", "zero", "nan", "inf"])
    def test_bad_probe_radii_rejected(self, radii):
        cfg = replace(fast_config(), probes=pipeline.ProbesConfig(radii=radii))
        with pytest.raises(ConfigurationError, match="probes.radii"):
            validate_config(cfg)

    def test_unknown_probe_preset(self):
        cfg = replace(fast_config(), probes=pipeline.ProbesConfig(preset="bogus"))
        with pytest.raises(ConfigurationError, match="preset must be 'paper-fig5', got 'bogus'"):
            validate_config(cfg)

    def test_probe_radii_bounded_by_the_smaller_region(self):
        regions = RegionPair(0.4, 0.3, 0.2, (1.0, 1.0, 0.5))
        cfg = replace(fast_config(), regions=regions,
                      probes=pipeline.ProbesConfig(radii=(0.1, 0.3 + 1e-13)))
        validate_config(cfg)
        with pytest.raises(ConfigurationError, match="probes.radii"):
            validate_config(replace(cfg, probes=pipeline.ProbesConfig(radii=(0.1, 0.35))))

    def test_bins_within_the_grid_tolerance_rejected(self, tmp_path, capsys):
        # a lookup of either bin would find the first, so one bin would be
        # solved from the other's recordings
        close, message = (900.0, 900.0000000005, 600.0), r"holds 900\.0 and 900\.0000000005 Hz"
        cfg = replace(fast_config(), signal=SignalConfig(f_max=500.0, frequencies=close))
        with pytest.raises(ConfigurationError, match="signal.frequencies " + message):
            validate_config(cfg)
        with pytest.raises(ConfigurationError, match="measurement grid " + message):
            run_measure(fast_config(), frequencies=close)
        text = FAST_YAML.replace("frequencies: [400]", f"frequencies: {list(close)}")
        assert text != FAST_YAML
        out = tmp_path / "m.rtfm"
        assert cli.main(["measure", "--config", write_yaml(tmp_path, text),
                         "--out", str(out)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()


class TestExperimentCache:
    def test_one_experiment_per_config_object(self):
        cfg = fast_config()
        exp = validate_config(cfg)
        assert validate_config(cfg) is exp
        # an equal config is another object, and a replaced one another geometry
        assert validate_config(replace(cfg)) is not exp
        reseeded = replace(cfg, arrays=replace(cfg.arrays, seed=7))
        assert validate_config(reseeded).geometry_digest != exp.geometry_digest

    def test_invalid_config_raises_on_every_call(self):
        cfg = replace(fast_config(), arrays=replace(fast_config().arrays, speakers=30))
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="loudspeaker aliasing bound"):
                validate_config(cfg)

    def test_a_session_builds_one_experiment(self, tmp_path, monkeypatch):
        built, spheres = [], []
        monkeypatch.setattr(pipeline, "Experiment",
                            lambda cfg: built.append(cfg) or Experiment(cfg))
        monkeypatch.setattr(pipeline, "sphere_array",
                            lambda *args: spheres.append(args) or sphere_array(*args))
        cfg = load_config(write_yaml(tmp_path, FAST_YAML))
        mt = run_measure(cfg)
        cset = pipeline.run_extract(cfg, mt)
        pipeline.sweep_errors(cfg, cset, radii=(0.2,))
        pipeline.run_cond(cfg)
        pipeline.run_cond(cfg, [300.0])
        assert len(built) == 1 and built[0] is cfg
        assert len(spheres) == 1

    def test_a_caller_list_cannot_change_a_validated_config(self):
        # each sequence field is copied to a tuple, so the config, its
        # Experiment and a fresh check of the config keep one geometry
        dims, refl, off, freqs, radii = [6.0, 5.0, 2.5], [0.9] * 6, [1.0, 1.0, 0.5], [400.0], [0.2]
        cfg = replace(fast_config(), room=RoomModel(dims, refl, 1),
                      regions=RegionPair(0.4, 0.4, 0.3, off),
                      signal=SignalConfig(f_max=500.0, frequencies=freqs),
                      probes=pipeline.ProbesConfig(radii=radii))
        exp = validate_config(cfg)
        speakers = exp.speakers_room.copy()
        off[0], dims[0], refl[0], freqs[0], radii[0] = 2.0, 3.0, 0.1, 300.0, 0.3
        assert validate_config(cfg) is exp
        assert exp.room is cfg.room and exp.room.dimensions == (6.0, 5.0, 2.5)
        assert cfg.room.reflections == (0.9,) * 6 and cfg.regions.offset == (1.0, 1.0, 0.5)
        assert cfg.signal.frequencies == (400.0,) and cfg.probes.radii == (0.2,)
        fresh = validate_config(replace(cfg))
        assert fresh is not exp and fresh.geometry_digest == exp.geometry_digest
        assert np.array_equal(exp.speakers_room, speakers)
        assert np.array_equal(fresh.speakers_room, speakers)

    def test_shared_arrays_are_read_only(self):
        exp = validate_config(fast_config())
        for a in (exp.speakers_local, exp.speakers_room, exp.mics.unit_centers,
                  exp.mics.local_offsets, exp.speaker_table.harmonics, exp.speaker_table.radii,
                  exp.sphere_table.harmonics, exp.sphere_table.radii,
                  exp.direct_table.radii, exp.direct_table.harmonics):
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
        assert validate_config(fast_config()).geometry_digest == exp.geometry_digest

    def test_one_table_per_array_to_the_aliasing_bound(self):
        # 40 loudspeakers: order 5, (5+1)^2 = 36 <= 40 < 49
        exp = validate_config(fast_config())
        for table in (exp.speaker_table, exp.sphere_table):
            assert table.harmonics.shape == (36, 40)


class TestEffectiveOrders:
    def test_design_frequency_caps(self):
        exp = Experiment(ExperimentConfig())
        assert exp.design_source_order == 10
        assert exp.effective_orders(900.0) == (10, 10)
        assert exp.effective_orders(1000.0) == (10, 10)

    def test_low_frequency_shrinks(self):
        exp = Experiment(ExperimentConfig())
        assert exp.effective_orders(200.0) == (4, 4)

    def test_margin_zero(self):
        exp = Experiment(replace(ExperimentConfig(), solver=SolverConfig(order_margin=0)))
        assert exp.effective_orders(200.0) == (2, 2)


class TestMeasureDeterminism:
    def test_bit_identical_reruns(self):
        cfg = fast_config()
        a = run_measure(cfg)
        b = run_measure(cfg)
        assert np.array_equal(a.gamma_tilde, b.gamma_tilde)
        assert a.digests == b.digests

    def test_bessel_zero_frequency_raises(self):
        # k r_mic = pi puts j_0 at a zero of the local encoder
        from roomtf.recording import mic_radius

        f = 343.0 / (2 * mic_radius(3, 500.0))
        cfg = replace(fast_config(), signal=SignalConfig(f_max=500.0, frequencies=(f,)))
        with pytest.raises(BesselZeroError):
            run_measure(cfg)


class TestCli:
    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["measure"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_yaml(tmp_path, "arrays: {speakers: 10}\n")
        assert cli.main(["measure", "--config", path]) == 2

    @pytest.mark.parametrize("dims", ["[.nan, 5.0, 2.5]", "[6.0, .inf, 2.5]"], ids=["nan", "inf"])
    def test_non_finite_room_dimensions_exit_2(self, tmp_path, capsys, dims):
        # a NaN length used to pass and put every loudspeaker "outside the room"
        path = write_yaml(tmp_path, f"room: {{dimensions: {dims}}}\n")
        assert cli.main(["measure", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "room dimensions must be three finite positive lengths" in err
        assert "outside the room" not in err

    @pytest.mark.parametrize("command, signal, message", [
        ("cond", "frequencies: [0.0, 300.0]", "signal.frequencies must be finite and > 0 Hz, got 0.0"),
        ("measure", "frequencies: [-100.0]", "signal.frequencies must be finite and > 0 Hz, got -100.0"),
        ("measure", "frequencies: [400.0, .inf]", "signal.frequencies must be finite and > 0 Hz, got inf"),
        ("cond", "sound_speed: 0", "signal.sound_speed must be finite and > 0, got 0.0"),
        ("measure", "sound_speed: -343.0", "signal.sound_speed must be finite and > 0, got -343.0"),
    ], ids=["zero-frequency", "negative-frequency", "infinite-frequency",
            "zero-sound-speed", "negative-sound-speed"])
    def test_non_positive_signal_value_exits_2(self, tmp_path, capsys, command, signal, message):
        path = write_yaml(tmp_path, f"signal: {{{signal}}}\n")
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing-config", "yaml-syntax", "missing-coeffs",
                                      "missing-measurements", "unwritable-out",
                                      "extract-out", "sweep-out", "cond-out"])
    def test_file_error_exits_2(self, tmp_path, capsys, monkeypatch, fast_artifacts, case):
        # each of these once ended in a traceback with exit 1; a missing --out
        # directory fails before any simulation, extraction or sweep
        for name in ("run_measure", "run_extract", "run_cond"):
            monkeypatch.setattr(pipeline, name,
                                lambda *args, name=name: pytest.fail(f"{name} called"))
        good = write_yaml(tmp_path, FAST_YAML + f"output: {{directory: {tmp_path}/out}}\n")
        measured = str(Path(fast_artifacts[1]).with_name("m.rtfm"))
        missing = f"file error: [Errno 2] No such file or directory: '{tmp_path}/"
        bad_out = ["--out", str(tmp_path / "no" / "such" / "x")]
        argv, message = {
            "missing-config": (["measure", "--config", str(tmp_path / "missing.yaml")],
                               missing + "missing.yaml'\n"),
            "yaml-syntax": (["measure", "--config",
                             write_yaml(tmp_path, "arrays: {speakers: 40\n", "bad.yaml")],
                            f"config error: {tmp_path}/bad.yaml is not valid YAML: "),
            "missing-coeffs": (["reconstruct", "--coeffs", str(tmp_path / "missing.rtfc"),
                                "-f", "400", "--receiver", "0.1,0,0", "--source", "0,0.1,0"],
                               missing + "missing.rtfc'\n"),
            "missing-measurements": (["extract", "--config", good,
                                      "--measurements", str(tmp_path / "missing.rtfm")],
                                     missing + "missing.rtfm'\n"),
            "unwritable-out": (["measure", "--config", good] + bad_out, missing + "no/such/x'\n"),
            "extract-out": (["extract", "--config", good, "--measurements", measured] + bad_out,
                            missing + "no/such/x'\n"),
            "sweep-out": (["sweep", "--config", good] + bad_out, missing + "no/such/x'\n"),
            "cond-out": (["cond", "--config", good] + bad_out, missing + "no/such/x'\n"),
        }[case]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_bessel_zero_exits_3(self, tmp_path, capsys):
        from roomtf.recording import mic_radius

        f = 343.0 / (2 * mic_radius(3, 500.0))
        path = write_yaml(tmp_path, (
            "arrays: {speakers: 40, mic_units: 3, omnis_per_mic: 16, mic_fit_order: 3}\n"
            f"signal: {{f_max: 500, frequencies: [{f!r}]}}\n"
        ))
        assert cli.main(["measure", "--config", path, "--out",
                         str(tmp_path / "m.rtfm")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_measure_extract_reconstruct_round_trip(self, tmp_path, capsys):
        path = write_yaml(tmp_path, FAST_YAML + f"output: {{directory: {tmp_path}/out}}\n")
        mfile = str(tmp_path / "m.rtfm")
        cfile = str(tmp_path / "c.rtfc")
        assert cli.main(["measure", "--config", path, "--out", mfile]) == 0
        assert cli.main(["extract", "--config", path, "--measurements", mfile,
                         "--out", cfile]) == 0
        assert cli.main(["reconstruct", "--coeffs", cfile, "--frequency", "400",
                         "--receiver", "0.1,0.0,0.05", "--source", "0.05,0.1,0.0"]) == 0
        out = capsys.readouterr().out
        assert "reconstructed H" in out

    @pytest.mark.parametrize("radii", ["[0.5]", "[-0.3]"])
    def test_bad_probe_radii_exit_2_before_any_artifact(self, tmp_path, capsys, radii):
        text = FAST_YAML + f"probes: {{radii: {radii}}}\noutput: {{directory: {tmp_path}/out}}\n"
        assert cli.main(["sweep", "--config", write_yaml(tmp_path, text)]) == 2
        assert "probes.radii" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.rtfm")) and not list(tmp_path.rglob("*.rtfc"))

    @pytest.mark.parametrize("section, key, value, argv, field", [
        ("solver", "svd_cutoff", math.nan, [], "solver.svd_cutoff"),
        ("solver", "svd_cutoff", 2.0, [], "solver.svd_cutoff"),
        ("solver", "svd_cutoff", 1.0, [], "solver.svd_cutoff"),
        ("solver", "svd_cutoff", -1.0, [], "solver.svd_cutoff"),
        ("regions", "receiver_radius", math.inf, [], "receiver_radius"),
        ("regions", "receiver_radius", math.nan, [], "receiver_radius"),
        ("regions", "source_radius", math.inf, [], "source_radius"),
        ("signal", "f_max", math.nan, [], "signal.f_max"),
        ("signal", "f_max", math.inf, [], "signal.f_max"),
        ("arrays", "seed", -1, [], "seed"),
        ("arrays", "seed", 2**128, [], "seed"),
        (None, None, None, ["--seed", "-1"], "seed"),
        # below the microphone radius r = 0.241 m at f_max = 500 Hz
        ("regions", "receiver_radius", 0.2, [], "regions.receiver_radius"),
    ], ids=["cutoff-nan", "cutoff-2", "cutoff-1", "cutoff-negative", "receiver-inf",
            "receiver-nan", "source-inf", "f-max-nan", "f-max-inf", "seed-negative",
            "seed-too-large", "seed-flag-negative", "receiver-below-mic-radius"])
    def test_bad_value_exits_2_before_any_artifact(self, tmp_path, capsys, section, key,
                                                   value, argv, field):
        raw = yaml.safe_load(FAST_YAML)
        raw["probes"] = {"radii": [0.1]}
        raw["output"] = {"directory": str(tmp_path / "out")}
        if section:
            raw.setdefault(section, {})[key] = value
        path = write_yaml(tmp_path, yaml.safe_dump(raw))
        assert cli.main(["sweep", "--config", path] + argv) == 2
        err = capsys.readouterr().err
        assert field in err and "probes.radii" not in err
        assert not [p for p in tmp_path.rglob("*") if p.suffix in (".rtfm", ".rtfc", ".csv")]

    def test_unknown_probe_preset_exits_2_before_any_artifact(self, tmp_path, capsys):
        text = FAST_YAML + f"probes: {{preset: nope}}\noutput: {{directory: {tmp_path}/out}}\n"
        assert cli.main(["sweep", "--config", write_yaml(tmp_path, text)]) == 2
        assert "probes.preset" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.rtfm")) and not list(tmp_path.rglob("*.rtfc"))
        with pytest.raises(SystemExit):  # the flag is gone; the config key names the layout
            cli.main(["sweep", "--config", write_yaml(tmp_path, FAST_YAML),
                      "--probe-preset", "paper-fig5"])

    def test_seed_override_changes_digest(self, tmp_path):
        path = write_yaml(tmp_path, FAST_YAML)
        m1 = str(tmp_path / "m1.rtfm")
        m2 = str(tmp_path / "m2.rtfm")
        assert cli.main(["measure", "--config", path, "--out", m1]) == 0
        assert cli.main(["measure", "--config", path, "--out", m2,
                         "--seed", "777"]) == 0
        d1 = fileio.load_measurement_tensor(m1).digests["geometry"]
        d2 = fileio.load_measurement_tensor(m2).digests["geometry"]
        assert d1 != d2

    def test_extract_rejects_mismatched_geometry(self, tmp_path, capsys):
        path = write_yaml(tmp_path, FAST_YAML)
        mfile = str(tmp_path / "m.rtfm")
        assert cli.main(["measure", "--config", path, "--out", mfile,
                         "--seed", "777"]) == 0
        assert cli.main(["extract", "--config", path, "--measurements", mfile,
                         "--out", str(tmp_path / "c.rtfc")]) == 2

    def test_coefficient_removal_with_speaker_inside_a_mic_exits_2(self, tmp_path, capsys):
        # fig6 puts loudspeakers inside the units' local spheres, where the
        # direct field's expansion diverges; only measurement removal works
        raw = yaml.safe_load((CONFIG_DIR / "fig6_overlap.yaml").read_text())
        raw["solver"]["direct_removal"] = "coefficient"
        raw["output"]["directory"] = str(tmp_path / "out")
        path = write_yaml(tmp_path, yaml.safe_dump(raw))
        assert cli.main(["measure", "--config", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"loudspeaker \d+ is 0\.023 m from mic unit \d+, inside its "
                         r"local radius 0\.120 m \(8 loudspeaker/unit pairs", err)
        assert "direct_removal: measurement" in err
        assert not (tmp_path / "out").exists()

    def test_geometry_export(self, tmp_path):
        path = write_yaml(tmp_path, FAST_YAML)
        out = tmp_path / "geo"
        assert cli.main(["geometry-export", "--config", path, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["mic_centers.csv", "mic_sensors.csv",
                         "speakers_room.csv", "speakers_source_local.csv"]
        assert np.loadtxt(out / "mic_sensors.csv", delimiter=",",
                          skiprows=1).shape == (3 * 16, 4)


def config_digests(path, kind) -> dict:
    """The digests that an artifact of ``kind`` made under the config at ``path`` carries."""
    return validate_config(load_config(path)).digests[kind]


def printed_value(out: str, label: str) -> complex:
    """The complex number printed after ``label = `` by ``reconstruct``."""
    line = next(l for l in out.splitlines() if l.startswith(label))
    return complex(line.split("=", 1)[1].replace(" ", ""))


class TestCliRouting:
    def test_reconstruct_with_oracle_matches_batched_calls(self, fast_artifacts, capsys):
        path, cfile = fast_artifacts
        receiver, source = np.array([0.1, 0.0, 0.05]), np.array([0.05, 0.1, 0.0])
        assert cli.main(["reconstruct", "--coeffs", cfile, "-f", "400", "--config", path,
                         "--receiver", "0.1,0.0,0.05", "--source", "0.05,0.1,0.0",
                         "--with-oracle"]) == 0
        out = capsys.readouterr().out
        cfg = load_config(path)
        exp = validate_config(cfg)
        estimate = rtf.reconstruct_rtf_many(
            fileio.load_coefficient_set(cfile), receiver[None, :], source[None, :], 400.0
        )[0]
        truth = rtf_oracle_many(exp.room, receiver[None, :],
                                source + np.asarray(cfg.regions.offset), exp.context(400.0))[0]
        assert printed_value(out, "reconstructed H") == pytest.approx(estimate, rel=1e-12)
        assert printed_value(out, "oracle") == pytest.approx(truth, rel=1e-12)

    def test_oracle_rejects_coefficients_of_another_geometry(self, tmp_path, capsys):
        path = write_yaml(tmp_path, FAST_YAML)
        mfile, cfile = str(tmp_path / "m.rtfm"), str(tmp_path / "c.rtfc")
        for argv in (["measure", "--out", mfile],
                     ["extract", "--measurements", mfile, "--out", cfile]):
            assert cli.main(argv + ["--config", path, "--seed", "777"]) == 0
        query = ["reconstruct", "--coeffs", cfile, "-f", "400", "--config", path,
                 "--receiver", "0.1,0.0,0.05", "--source", "0.05,0.1,0.0", "--with-oracle"]
        capsys.readouterr()
        assert cli.main(query) == 2
        captured = capsys.readouterr()
        assert "digest mismatch for 'geometry'" in captured.err
        assert "oracle" not in captured.out and "deviation" not in captured.out
        assert cli.main(query + ["--seed", "777"]) == 0  # the file's own geometry
        assert "oracle" in capsys.readouterr().out

    def test_oracle_rejects_coefficients_without_digests(self, fast_artifacts, tmp_path,
                                                         capsys):
        path, cfile = fast_artifacts
        bare = str(tmp_path / "bare.rtfc")
        fileio.save_coefficient_set(
            bare, replace(fileio.load_coefficient_set(cfile), digests={})
        )
        capsys.readouterr()
        assert cli.main(["reconstruct", "--coeffs", bare, "-f", "400", "--config", path,
                         "--receiver", "0.1,0.0,0.05", "--source", "0.05,0.1,0.0",
                         "--with-oracle"]) == 2
        captured = capsys.readouterr()
        assert "lacks the 'geometry' digest" in captured.err
        assert "oracle" not in captured.out and "deviation" not in captured.out

    def test_out_of_region_point_exits_2(self, fast_artifacts, capsys):
        _, cfile = fast_artifacts
        assert cli.main(["reconstruct", "--coeffs", cfile, "-f", "400",
                         "--receiver", "0.5,0.0,0.0", "--source", "0.0,0.1,0.0"]) == 2
        err = capsys.readouterr().err
        assert "receiver radius 0.5" in err and "region radius 0.4" in err

    @pytest.mark.parametrize("flag", ["--receiver", "--source"])
    def test_bad_coordinate_exits_2(self, fast_artifacts, capsys, flag):
        _, cfile = fast_artifacts
        argv = ["reconstruct", "--coeffs", cfile, "-f", "400",
                "--receiver", "0.1,0.0,0.0", "--source", "0.0,0.1,0.0"]
        argv[argv.index(flag) + 1] = "a,0,0"
        capsys.readouterr()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'a,0,0'" in captured.err

    def test_oracle_receiver_outside_room_exits_2(self, tmp_path, capsys):
        path = write_yaml(tmp_path, FAST_YAML)
        cset = rtf.RtfCoefficientSet(
            frequencies=np.array([400.0]), alpha=(np.zeros((1, 1)),),
            source_orders=np.array([0]), receiver_orders=np.array([0]),
            regions=RegionPair(5.0, 0.4, 0.3, (1.0, 1.0, 0.5)),
            digests=config_digests(path, RtfCoefficientSet),
        )
        cfile = str(tmp_path / "c.rtfc")
        fileio.save_coefficient_set(cfile, cset)
        assert cli.main(["reconstruct", "--coeffs", cfile, "-f", "400",
                         "--config", path, "--with-oracle",
                         "--receiver", "4.0,0.0,0.0", "--source", "0.0,0.1,0.0"]) == 2
        assert re.search(r"receiver at .*4\.0.* lies outside the room", capsys.readouterr().err)

    def test_coincident_pair_exits_2(self, tmp_path, capsys):
        # receiver (0.1, 0.1, 0.1) and source (-0.2, -0.2, -0.2) about O + (0.3, 0.3, 0.3)
        cset = rtf.RtfCoefficientSet(
            frequencies=np.array([900.0]), alpha=(np.zeros((1, 1)),),
            source_orders=np.array([0]), receiver_orders=np.array([0]),
            regions=RegionPair(0.4, 0.4, 0.3, (0.3, 0.3, 0.3)),
        )
        cfile = str(tmp_path / "c.rtfc")
        fileio.save_coefficient_set(cfile, cset)
        assert cli.main(["reconstruct", "--coeffs", cfile, "-f", "900",
                         "--receiver", "0.1,0.1,0.1", "--source=-0.2,-0.2,-0.2"]) == 2
        captured = capsys.readouterr()
        assert "same room point" in captured.err and "reconstructed" not in captured.out

    def test_oracle_source_outside_room_exits_2(self, tmp_path, capsys):
        # a source region that reaches through the ceiling at z = 1.25
        path = write_yaml(tmp_path, FAST_YAML)
        cset = rtf.RtfCoefficientSet(
            frequencies=np.array([400.0]), alpha=(np.zeros((1, 1)),),
            source_orders=np.array([0]), receiver_orders=np.array([0]),
            regions=RegionPair(0.4, 5.0, 0.3, (1.0, 1.0, 0.5)),
            digests=config_digests(path, RtfCoefficientSet),
        )
        cfile = str(tmp_path / "c.rtfc")
        fileio.save_coefficient_set(cfile, cset)
        assert cli.main(["reconstruct", "--coeffs", cfile, "-f", "400",
                         "--config", path, "--with-oracle",
                         "--receiver", "0.1,0.0,0.0", "--source", "0.0,0.0,1.0"]) == 2
        assert re.search(r"source at .*1\.5.* lies outside the room", capsys.readouterr().err)

    def test_cond_on_three_bins(self, tmp_path):
        path = write_yaml(tmp_path, (
            "arrays: {speakers: 40, mic_units: 3, omnis_per_mic: 16, mic_fit_order: 3}\n"
            "signal: {f_max: 500, frequencies: [300, 400, 500]}\n"
        ))
        out = tmp_path / "cond.csv"
        assert cli.main(["cond", "--config", path, "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape == (3, 3)
        assert np.all(table[:, 1:] >= 1.0)


class TestSweepReuse:
    @pytest.mark.parametrize("reused, change, code", [
        ("coefficients.rtfc", "seed", 2),
        ("measurements.rtfm", "seed", 2),
        ("coefficients.rtfc", "grid", 2),
        ("measurements.rtfm", "grid", 2),
        ("coefficients.rtfc", "solver", 2),
        ("measurements.rtfm", "solver", 0),  # the measurement does not use the margin
        # each of these was once reused, and the sweep wrote a wrong E
        ("coefficients.rtfc", "reflections", 2),
        ("measurements.rtfm", "reflections", 2),
        ("coefficients.rtfc", "image-order", 2),
        ("measurements.rtfm", "image-order", 2),
        ("coefficients.rtfc", "fit-order", 2),
        ("measurements.rtfm", "fit-order", 2),
    ])
    def test_stale_artifact_exits_2(self, tmp_path, capsys, reused, change, code):
        # 25 omnis per unit leave room for a fit of order 4
        base = (FAST_YAML.replace("omnis_per_mic: 16", "omnis_per_mic: 25")
                + f"output: {{directory: {tmp_path}/out}}\n")
        path = write_yaml(tmp_path, base)
        assert cli.main(["sweep", "--config", path]) == 0
        assert cli.main(["sweep", "--config", path]) == 0  # a matching reuse is fine
        if reused == "measurements.rtfm":
            (tmp_path / "out" / "coefficients.rtfc").unlink()
        changed = {
            "seed": base,
            "grid": base.replace("frequencies: [400]", "frequencies: [300]"),
            "solver": base + "solver: {order_margin: 1}\n",
            "reflections": base + "room: {reflections: [0.3, 0.3, 0.3, 0.3, 0.3, 0.3]}\n",
            "image-order": base + "room: {max_image_order: 0}\n",
            "fit-order": base.replace("mic_fit_order: 3", "mic_fit_order: 4"),
        }[change]
        argv = ["sweep", "--config", write_yaml(tmp_path, changed, "changed.yaml")]
        if change == "seed":
            argv += ["--seed", "777"]
        capsys.readouterr()
        assert cli.main(argv) == code
        if code:
            assert f"stale artifact {tmp_path}/out/{reused}" in capsys.readouterr().err

    def test_unchanged_config_reuses_both_artifacts(self, tmp_path, monkeypatch):
        path = write_yaml(tmp_path, FAST_YAML + f"output: {{directory: {tmp_path}/out}}\n")
        assert cli.main(["sweep", "--config", path]) == 0
        run_extract = pipeline.run_extract

        def recompute(*args, **kwargs):
            raise AssertionError("sweep recomputed an artifact it could reuse")
        monkeypatch.setattr(pipeline, "run_measure", recompute)
        monkeypatch.setattr(pipeline, "run_extract", recompute)
        assert cli.main(["sweep", "--config", path]) == 0  # the .rtfc
        (tmp_path / "out" / "coefficients.rtfc").unlink()
        monkeypatch.setattr(pipeline, "run_extract", run_extract)
        assert cli.main(["sweep", "--config", path]) == 0  # the .rtfm
        assert (tmp_path / "out" / "coefficients.rtfc").exists()

    def test_measurements_without_digests_exit_2(self, tmp_path, capsys):
        path = write_yaml(tmp_path, FAST_YAML + f"output: {{directory: {tmp_path}/out}}\n")
        (tmp_path / "out").mkdir()
        mt = run_measure(load_config(path))
        fileio.save_measurement_tensor(tmp_path / "out" / "measurements.rtfm",
                                       replace(mt, digests={}))
        capsys.readouterr()
        assert cli.main(["sweep", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"stale artifact {tmp_path}/out/measurements.rtfm" in err
        assert "lacks the 'geometry' digest" in err
        assert not (tmp_path / "out" / "coefficients.rtfc").exists()


# the geometry digest of each shipped config, over the array layouts, the
# sound speed, the room and the encoder fit order: .rtfm/.rtfc files written
# by earlier versions load only while these inputs keep their exact bits
# (freefield differs from the reference only in its reflections)
REFERENCE_DIGEST = "7cc3a59d985340398514706d9f595612e8e1a40f65b37254302168a9a63b3c21"
PINNED_DIGESTS = {
    "fig2_cond": REFERENCE_DIGEST,
    "fig3_nonoverlap": REFERENCE_DIGEST,
    "fig5_sweep": REFERENCE_DIGEST,
    "fig6_overlap": "6e21b3d13f8a24bee95a70bd190b51d914342d7c95821e636976ed9e49822cdc",
    "freefield": "f570efe34d56564eaf198d750f872d1d80151aeae22a28727c0c02c3fe6daaef",
}


class TestArtifactDigests:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_config_geometry_digest_pinned(self, path):
        assert Experiment(load_config(path)).geometry_digest == PINNED_DIGESTS[path.stem]

    def test_default_fit_order_has_the_digest_of_the_mic_order(self, tmp_path):
        # null fits at the mic order, so it encodes exactly as an explicit 3
        explicit = load_config(write_yaml(tmp_path, FAST_YAML))
        text = FAST_YAML.replace("mic_fit_order: 3", "mic_fit_order: null")
        default = load_config(write_yaml(tmp_path, text, "null.yaml"))
        assert default.arrays.mic_fit_order is None
        assert Experiment(default).geometry_digest == Experiment(explicit).geometry_digest

    def test_writers_record_the_digests_of_their_kind(self):
        cfg = fast_config()
        exp = validate_config(cfg)
        mt = run_measure(cfg)
        cset = pipeline.run_extract(cfg, mt)
        for artifact in (mt, cset):
            kind = type(artifact)
            assert set(artifact.digests) == set(pipeline.ARTIFACT_DIGESTS[kind])
            assert artifact.digests == exp.digests[kind]
        assert exp.digests[MeasurementTensor]["geometry"] == \
            exp.digests[RtfCoefficientSet]["geometry"]
        with pytest.raises(DigestMismatchError, match="lacks the 'geometry' digest"):
            pipeline.run_extract(cfg, replace(mt, digests={}))


class TestSolverSettings:
    def test_svd_cutoff_reaches_both_solves(self, monkeypatch):
        seen = {}
        for module, name in ((synthesis, "solve_all_weights"), (translation, "solve_alpha_all")):
            def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                seen[_name] = kwargs.get("cutoff")
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        cfg = fast_config(svd_cutoff=1e-6)
        pipeline.run_extract(cfg, run_measure(cfg))
        assert seen == {"solve_all_weights": 1e-6, "solve_alpha_all": 1e-6}


class TestPerRunTables:
    @pytest.mark.parametrize("removal,builds", [("coefficient", 1), ("measurement", 0)])
    def test_direct_table_built_once_per_extraction(self, monkeypatch, removal, builds):
        # the table lives on the config's one Experiment, so both runs share it
        calls = []
        build = recording.direct_table
        monkeypatch.setattr(recording, "direct_table",
                            lambda *args: calls.append(args) or build(*args))
        cfg = replace(fast_config(direct_removal=removal),
                      signal=SignalConfig(f_max=500.0, frequencies=(300.0, 400.0, 500.0)))
        mt = run_measure(cfg)
        pipeline.run_extract(cfg, mt)
        pipeline.run_extract(cfg, mt)
        assert len(calls) == builds


class TestRunCond:
    def test_past_the_aliasing_bound_reports_infinity(self):
        # 121 speakers; N = 10 at 1000 Hz gives a square T, N = 11 at 1100 Hz
        # 144 rows, so T w = beta has no solution for a general beta
        cfg = load_config(CONFIG_DIR / "fig2_cond.yaml")
        _, shell, sphere = pipeline.run_cond(cfg, [1000.0, 1100.0])
        assert math.isfinite(shell[0]) and math.isfinite(sphere[0])
        assert shell[1] == math.inf and sphere[1] == math.inf

    def test_sweep_matches_per_bin_matrices_bit_for_bit(self):
        # unsorted, with orders repeated; the 11 bins of order 7 (602-702 Hz)
        # take two Bessel batches; 1100 Hz is past the aliasing bound and
        # 857.5 Hz on the sphere's j0(kR) = 0
        cfg = load_config(CONFIG_DIR / "fig2_cond.yaml")
        exp = validate_config(cfg)
        grid = [857.5, 300.0, 1100.0, 310.0, 205.0, 999.0, 428.5, 300.0]
        grid += (700.0 - 9.0 * np.arange(11)).tolist()
        freqs, shell, sphere = pipeline.run_cond(cfg, grid)
        want = []
        for f in grid:
            ctx = exp.context(f)
            order = truncation_order(ctx.k, cfg.regions.source_radius)
            for array in (exp.speakers_local, sphere_array(121, 0.4)):
                T = per_bin_T(array, order, ctx)
                fresh = synthesis.build_T(specfun.angular_table(order, array), order, ctx)
                assert np.array_equal(fresh, T)
                want.append(synthesis.condition_number(T))
        assert np.array_equal(freqs, grid)
        assert np.array_equal(np.column_stack([shell, sphere]).ravel(), want)
        assert shell[2] == sphere[2] == math.inf and sphere[0] > 1e10

    def test_extraction_uses_a_fresh_design_order_T(self, monkeypatch):
        seen = []
        solve = synthesis.solve_all_weights
        monkeypatch.setattr(synthesis, "solve_all_weights",
                            lambda T, *args, **kwargs: seen.append(T) or solve(T, *args, **kwargs))
        cfg = replace(fast_config(), signal=SignalConfig(f_max=500.0, frequencies=(300.0, 400.0)))
        exp = validate_config(cfg)
        mt = run_measure(cfg)
        for f in cfg.signal.frequencies:
            pipeline.extract_frequency(exp, mt, f)
            want = per_bin_T(exp.speakers_local, exp.design_source_order, exp.context(f))
            assert np.array_equal(seen.pop(), want)


def per_bin_T(speakers, order, ctx):
    """T = k j_n(k|y_l|) S_nm(y_l-hat) as one ``real_regular_basis`` table of its own."""
    T = specfun.real_regular_basis(order, ctx.k, speakers, np.linalg.norm(speakers, axis=1))
    T *= ctx.k
    return T


class TestExtractionAccuracy:
    def test_small_geometry_end_to_end_error(self):
        """Full pipeline on the reduced geometry still beats the 5% target."""
        from roomtf.pipeline import run_extract, sweep_errors

        cfg = fast_config()
        mt = run_measure(cfg)
        cset = run_extract(cfg, mt)
        errors = sweep_errors(cfg, cset, radii=(0.2,))
        assert errors[0.2][0] < 0.05
