"""Experiment orchestration: config parsing, validation, determinism, CLI."""
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from roomtf import cli, fileio, pipeline, rtf
from roomtf.errors import BesselZeroError, ConfigurationError
from roomtf.geometry import RegionPair
from roomtf.room import rtf_oracle_many
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
    ], ids=["key", "section", "output-key"])
    def test_unknown_key_rejected(self, tmp_path, text, name):
        with pytest.raises(ConfigurationError, match=f"unknown .*{name}"):
            load_config(write_yaml(tmp_path, text))

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
        assert exp.null_order == 5

    def test_speaker_aliasing_named(self):
        cfg = replace(fast_config(), arrays=replace(fast_config().arrays, speakers=30))
        with pytest.raises(ConfigurationError, match=r"L = 30 < \(N_s\+1\)\^2 = 36"):
            validate_config(cfg)

    def test_mic_aliasing_named(self):
        cfg = replace(fast_config(), arrays=replace(fast_config().arrays, mic_units=2))
        with pytest.raises(ConfigurationError, match=r"Q \(A\+1\)\^2 = 32"):
            validate_config(cfg)

    def test_sensors_beyond_receiver_region(self):
        cfg = replace(
            fast_config(),
            arrays=replace(fast_config().arrays, mic_center_radius=0.35),
        )
        with pytest.raises(ConfigurationError, match="beyond the receiver region"):
            validate_config(cfg)

    def test_speakers_outside_room(self):
        cfg = replace(fast_config(), regions=RegionPair(0.4, 0.4, 0.3, (2.8, 0.0, 0.0)))
        with pytest.raises(ConfigurationError, match="outside the room"):
            validate_config(cfg)

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError, match="order_margin"):
            validate_config(fast_config(order_margin=-1))


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

    def test_threads_match_serial(self):
        cfg = replace(
            fast_config(),
            signal=SignalConfig(f_max=500.0, frequencies=(300.0, 400.0)),
        )
        serial = run_measure(cfg, threads=1)
        parallel = run_measure(cfg, threads=2)
        assert np.array_equal(serial.gamma_tilde, parallel.gamma_tilde)

    def test_bessel_zero_frequency_raises(self):
        # k r_mic = pi puts j_0 at a zero of the local encoder
        from roomtf.recording import mic_radius

        f = 343.0 / (2 * mic_radius(3, 500.0))
        cfg = replace(fast_config(), signal=SignalConfig(f_max=500.0, frequencies=(f,)))
        with pytest.raises(BesselZeroError):
            run_measure(cfg)


FAST_YAML = (
    "arrays: {speakers: 40, mic_units: 3, omnis_per_mic: 16, mic_fit_order: 3}\n"
    "signal: {f_max: 500, frequencies: [400]}\n"
)


class TestCli:
    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["measure"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_yaml(tmp_path, "arrays: {speakers: 10}\n")
        assert cli.main(["measure", "--config", path]) == 2

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

    def test_geometry_export(self, tmp_path):
        path = write_yaml(tmp_path, FAST_YAML)
        out = tmp_path / "geo"
        assert cli.main(["geometry-export", "--config", path, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["mic_centers.csv", "mic_sensors.csv",
                         "speakers_room.csv", "speakers_source_local.csv"]
        assert np.loadtxt(out / "mic_sensors.csv", delimiter=",",
                          skiprows=1).shape == (3 * 16, 4)


def printed_value(out: str, label: str) -> complex:
    """The complex number printed after ``label = `` by ``reconstruct``."""
    line = next(l for l in out.splitlines() if l.startswith(label))
    return complex(line.split("=", 1)[1].replace(" ", ""))


@pytest.fixture(scope="module")
def fast_artifacts(tmp_path_factory):
    """A measured and extracted fast config: (config path, .rtfc path)."""
    tmp = tmp_path_factory.mktemp("fast")
    path = write_yaml(tmp, FAST_YAML)
    mfile, cfile = str(tmp / "m.rtfm"), str(tmp / "c.rtfc")
    assert cli.main(["measure", "--config", path, "--out", mfile]) == 0
    assert cli.main(["extract", "--config", path, "--measurements", mfile,
                     "--out", cfile]) == 0
    return path, cfile


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

    def test_out_of_region_point_exits_2(self, fast_artifacts, capsys):
        _, cfile = fast_artifacts
        assert cli.main(["reconstruct", "--coeffs", cfile, "-f", "400",
                         "--receiver", "0.5,0.0,0.0", "--source", "0.0,0.1,0.0"]) == 2
        err = capsys.readouterr().err
        assert "receiver radius 0.5" in err and "region radius 0.4" in err

    def test_oracle_receiver_outside_room_exits_2(self, tmp_path, capsys):
        cset = rtf.RtfCoefficientSet(
            frequencies=np.array([400.0]), alpha=(np.zeros((1, 1)),),
            source_orders=np.array([0]), receiver_orders=np.array([0]),
            regions=RegionPair(5.0, 0.4, 0.3, (1.0, 1.0, 0.5)),
        )
        cfile = str(tmp_path / "c.rtfc")
        fileio.save_coefficient_set(cfile, cset)
        assert cli.main(["reconstruct", "--coeffs", cfile, "-f", "400",
                         "--config", write_yaml(tmp_path, FAST_YAML), "--with-oracle",
                         "--receiver", "4.0,0.0,0.0", "--source", "0.0,0.1,0.0"]) == 2
        assert re.search(r"receiver at .*4\.0.* lies outside the room", capsys.readouterr().err)

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
    ])
    def test_stale_artifact_exits_2(self, tmp_path, capsys, reused, change, code):
        base = FAST_YAML + f"output: {{directory: {tmp_path}/out}}\n"
        path = write_yaml(tmp_path, base)
        assert cli.main(["sweep", "--config", path]) == 0
        assert cli.main(["sweep", "--config", path]) == 0  # a matching reuse is fine
        if reused == "measurements.rtfm":
            (tmp_path / "out" / "coefficients.rtfc").unlink()
        changed = {
            "seed": base,
            "grid": base.replace("frequencies: [400]", "frequencies: [300]"),
            "solver": base + "solver: {order_margin: 1}\n",
        }[change]
        argv = ["sweep", "--config", write_yaml(tmp_path, changed, "changed.yaml")]
        if change == "seed":
            argv += ["--seed", "777"]
        capsys.readouterr()
        assert cli.main(argv) == code
        if code:
            assert f"stale artifact {tmp_path}/out/{reused}" in capsys.readouterr().err


class TestExtractionAccuracy:
    def test_small_geometry_end_to_end_error(self):
        """Full pipeline on the reduced geometry still beats the 5% target."""
        from roomtf.pipeline import run_extract, sweep_errors

        cfg = fast_config()
        mt = run_measure(cfg)
        cset = run_extract(cfg, mt)
        errors = sweep_errors(cfg, cset, radii=(0.2,))
        assert errors[0.2][0] < 0.05
