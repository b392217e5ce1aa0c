"""Experiment orchestration: config loading, measure/extract/sweep/cond commands.

The analysis origin O sits at the room center, so receiver-region coordinates
coincide with room coordinates; source-region coordinates are offset by R_sr.

Per-frequency solver policy (the knobs that make the extraction robust):

* Effective orders track the ceiling truncation rule at the current k, plus a
  configurable margin, capped at the design-frequency orders and the aliasing
  bounds of the arrays.
* Loudspeaker weights are solved against a translation matrix built to the
  largest order the array can null (``isqrt(L) - 1``), so modes just above the
  matched order are actively cancelled rather than aliased.
* Local recordings keep orders up to min(A, ceil truncation at the mic radius);
  rows above that are dropped from the translation solve.
"""
from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import fileio, recording, rtf, specfun, synthesis, translation
from .errors import ConfigurationError
from .geometry import (
    RegionPair,
    positions_to_cartesian,
    shell_array,
    sphere_array,
    export_positions_csv,
)
from .modal import WaveContext, truncation_order
from .recording import HoMicSpec, MeasurementTensor, MicArray, make_mic_array, mic_radius
from .room import RoomModel, rtf_oracle_many
from .rtf import RtfCoefficientSet, probe_pairs, relative_error


@dataclass(frozen=True)
class RoomConfig:
    dimensions: tuple[float, float, float] = (6.0, 5.0, 2.5)
    reflections: tuple[float, ...] = (0.9, 0.9, 0.9, 0.9, 0.7, 0.7)
    max_image_order: int = 2


@dataclass(frozen=True)
class ArraysConfig:
    speakers: int = 121
    mic_units: int = 9
    mic_order: int = 3
    omnis_per_mic: int = 49
    mic_fit_order: int | None = 5
    mic_center_radius: float | None = None  # default: receiver radius - mic radius
    seed: int = 12345


@dataclass(frozen=True)
class SignalConfig:
    sound_speed: float = 343.0
    f_max: float = 1000.0
    frequencies: tuple[float, ...] = tuple(np.arange(200.0, 1700.0 + 1e-9, 25.0))


@dataclass(frozen=True)
class SolverConfig:
    order_margin: int = 2
    direct_removal: str = "coefficient"  # or "measurement"
    svd_cutoff: float = 1e-10


@dataclass(frozen=True)
class ProbesConfig:
    preset: str = "paper-fig5"
    radii: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)


@dataclass(frozen=True)
class ExperimentConfig:
    room: RoomConfig = field(default_factory=RoomConfig)
    regions: RegionPair = field(
        default_factory=lambda: RegionPair(0.4, 0.4, 0.3, (1.0, 1.0, 0.5))
    )
    arrays: ArraysConfig = field(default_factory=ArraysConfig)
    signal: SignalConfig = field(default_factory=SignalConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    probes: ProbesConfig = field(default_factory=ProbesConfig)
    output_dir: str = "out"


def _tuple(seq, n=None, kind=float):
    out = tuple(kind(v) for v in seq)
    if n is not None and len(out) != n:
        raise ConfigurationError(f"expected {n} values, got {len(out)}: {seq}")
    return out


def _frequency_grid(block) -> tuple[float, ...]:
    if isinstance(block, dict):
        start, stop, step = block["start"], block["stop"], block["step"]
        return tuple(np.arange(start, stop + step * 1e-9, step).tolist())
    return _tuple(block)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    cfg = ExperimentConfig()
    if "room" in raw:
        b = raw["room"]
        cfg = replace(cfg, room=RoomConfig(
            dimensions=_tuple(b.get("dimensions", cfg.room.dimensions), 3),
            reflections=_tuple(b.get("reflections", cfg.room.reflections), 6),
            max_image_order=int(b.get("max_image_order", cfg.room.max_image_order)),
        ))
    if "regions" in raw:
        b = raw["regions"]
        cfg = replace(cfg, regions=RegionPair(
            receiver_radius=float(b.get("receiver_radius", cfg.regions.receiver_radius)),
            source_radius=float(b.get("source_radius", cfg.regions.source_radius)),
            source_inner_radius=float(
                b.get("source_inner_radius", cfg.regions.source_inner_radius)
            ),
            offset=_tuple(b.get("offset", cfg.regions.offset), 3),
        ))
    if "arrays" in raw:
        b = raw["arrays"]
        fit = b.get("mic_fit_order", cfg.arrays.mic_fit_order)
        radius = b.get("mic_center_radius", cfg.arrays.mic_center_radius)
        cfg = replace(cfg, arrays=ArraysConfig(
            speakers=int(b.get("speakers", cfg.arrays.speakers)),
            mic_units=int(b.get("mic_units", cfg.arrays.mic_units)),
            mic_order=int(b.get("mic_order", cfg.arrays.mic_order)),
            omnis_per_mic=int(b.get("omnis_per_mic", cfg.arrays.omnis_per_mic)),
            mic_fit_order=None if fit is None else int(fit),
            mic_center_radius=None if radius is None else float(radius),
            seed=int(b.get("seed", cfg.arrays.seed)),
        ))
    if "signal" in raw:
        b = raw["signal"]
        cfg = replace(cfg, signal=SignalConfig(
            sound_speed=float(b.get("sound_speed", cfg.signal.sound_speed)),
            f_max=float(b.get("f_max", cfg.signal.f_max)),
            frequencies=_frequency_grid(b.get("frequencies", cfg.signal.frequencies)),
        ))
    if "solver" in raw:
        b = raw["solver"]
        cfg = replace(cfg, solver=SolverConfig(
            order_margin=int(b.get("order_margin", cfg.solver.order_margin)),
            direct_removal=str(b.get("direct_removal", cfg.solver.direct_removal)),
            svd_cutoff=float(b.get("svd_cutoff", cfg.solver.svd_cutoff)),
        ))
    if "probes" in raw:
        b = raw["probes"]
        cfg = replace(cfg, probes=ProbesConfig(
            preset=str(b.get("preset", cfg.probes.preset)),
            radii=_tuple(b.get("radii", cfg.probes.radii)),
        ))
    if "output" in raw:
        cfg = replace(cfg, output_dir=str(raw["output"].get("directory", cfg.output_dir)))
    validate_config(cfg)
    return cfg


class Experiment:
    """Deterministic geometry and derived quantities for one config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.room = RoomModel(
            cfg.room.dimensions, cfg.room.reflections, cfg.room.max_image_order
        )
        self.speakers_local = shell_array(
            cfg.arrays.speakers,
            cfg.regions.source_radius,
            cfg.regions.source_inner_radius,
            cfg.arrays.seed,
        )
        self.speakers_local_cart = positions_to_cartesian(self.speakers_local)
        self.speakers_room = self.speakers_local_cart + np.asarray(cfg.regions.offset)
        self.mic_local_radius = mic_radius(
            cfg.arrays.mic_order, cfg.signal.f_max, cfg.signal.sound_speed
        )
        center_radius = cfg.arrays.mic_center_radius
        if center_radius is None:
            # Keep every omni sensor inside the parameterized receiver sphere.
            center_radius = cfg.regions.receiver_radius - self.mic_local_radius
        self.mic_center_radius = center_radius
        self.mics = make_mic_array(
            cfg.arrays.mic_units,
            center_radius,
            HoMicSpec(
                cfg.arrays.mic_order,
                self.mic_local_radius,
                cfg.arrays.omnis_per_mic,
                cfg.arrays.mic_fit_order,
            ),
        )
        k_max = WaveContext(cfg.signal.f_max, cfg.signal.sound_speed).k
        self.design_source_order = truncation_order(k_max, cfg.regions.source_radius)
        self.design_receiver_order = truncation_order(k_max, cfg.regions.receiver_radius)
        self.null_order = min(
            math.isqrt(cfg.arrays.speakers) - 1, self.design_source_order
        )
        self.geometry_digest = fileio.content_digest(
            self.speakers_room,
            self.mics.unit_centers,
            positions_to_cartesian(list(self.mics.local_offsets)),
            [cfg.signal.sound_speed],
        )

    def context(self, frequency: float) -> WaveContext:
        return WaveContext(frequency, self.cfg.signal.sound_speed)

    def effective_orders(self, frequency: float):
        """(source order, receiver order) used at this frequency."""
        cfg = self.cfg
        k = self.context(frequency).k
        margin = cfg.solver.order_margin
        n_s = min(
            truncation_order(k, cfg.regions.source_radius) + margin,
            self.design_source_order,
            self.null_order,
        )
        row_capacity = math.isqrt(
            cfg.arrays.mic_units * (cfg.arrays.mic_order + 1) ** 2
        ) - 1
        n_r = min(
            truncation_order(k, cfg.regions.receiver_radius) + margin,
            self.design_receiver_order,
            row_capacity,
        )
        return n_s, n_r


def validate_config(cfg: ExperimentConfig) -> Experiment:
    """Check every module-level bound up front; returns the built geometry."""
    if cfg.solver.direct_removal not in ("coefficient", "measurement"):
        raise ConfigurationError(
            "solver.direct_removal must be 'coefficient' or 'measurement', got "
            f"{cfg.solver.direct_removal!r}"
        )
    if cfg.solver.order_margin < 0:
        raise ConfigurationError(
            f"solver.order_margin must be >= 0, got {cfg.solver.order_margin}"
        )
    if not cfg.signal.frequencies:
        raise ConfigurationError("signal.frequencies must be non-empty")
    exp = Experiment(cfg)  # geometry constructors enforce their own bounds
    modes_needed = (exp.design_source_order + 1) ** 2
    if cfg.arrays.speakers < modes_needed:
        raise ConfigurationError(
            f"loudspeaker aliasing bound violated: L = {cfg.arrays.speakers} < "
            f"(N_s+1)^2 = {modes_needed} at f_max = {cfg.signal.f_max} Hz"
        )
    rows = cfg.arrays.mic_units * (cfg.arrays.mic_order + 1) ** 2
    cols = (exp.design_receiver_order + 1) ** 2
    if rows < cols:
        raise ConfigurationError(
            f"microphone aliasing bound violated: Q (A+1)^2 = {rows} < "
            f"(N_r+1)^2 = {cols} at f_max = {cfg.signal.f_max} Hz"
        )
    if exp.mic_center_radius + exp.mic_local_radius > cfg.regions.receiver_radius + 1e-12:
        raise ConfigurationError(
            "microphone sensors extend beyond the receiver region: center radius "
            f"{exp.mic_center_radius} + local radius {exp.mic_local_radius} > "
            f"R_r = {cfg.regions.receiver_radius}"
        )
    exp.room.check_inside(exp.speakers_room, "loudspeaker")
    exp.room.check_inside(exp.mics.omni_positions().reshape(-1, 3), "microphone sensor")
    return exp


def run_measure(cfg: ExperimentConfig, frequencies=None, threads: int = 1) -> MeasurementTensor:
    """Simulate the raw measurement tensor over the config's frequency grid."""
    exp = validate_config(cfg)
    if frequencies is None:
        frequencies = cfg.signal.frequencies
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    subtract = cfg.solver.direct_removal == "measurement"

    def one(f):
        return recording.simulate_raw_measurements(
            exp.room, exp.speakers_room, exp.mics, [f],
            sound_speed=cfg.signal.sound_speed,
            subtract_direct_pressure=subtract,
        )
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, frequencies))
    else:
        parts = [one(f) for f in frequencies]
    mt = MeasurementTensor(
        frequencies=frequencies,
        gamma_tilde=np.concatenate([p.gamma_tilde for p in parts], axis=0),
        mic_order=cfg.arrays.mic_order,
        mask_orders=np.concatenate([p.mask_orders for p in parts]),
        digests={
            "geometry": exp.geometry_digest,
            "direct_removal": cfg.solver.direct_removal,
        },
    )
    return mt


def extract_frequency(exp: Experiment, mt: MeasurementTensor, frequency: float):
    """One frequency's alpha block: returns (alpha (N_s+1)^2 x (N_r+1)^2, n_s, n_r)."""
    cfg = exp.cfg
    fi = mt.frequency_index(frequency)
    ctx = exp.context(frequency)
    n_s, n_r = exp.effective_orders(frequency)
    T = synthesis.build_T(exp.speakers_local, exp.null_order, ctx)
    W, _ = synthesis.solve_all_weights(T, num_modes=(n_s + 1) ** 2)
    gamma = recording.compose_all_modes(mt, fi, W)
    if cfg.solver.direct_removal == "coefficient":
        gamma = gamma - recording.direct_component_all(
            exp.speakers_room, W, exp.mics, ctx
        )
    a_eff = int(mt.mask_orders[fi])
    gamma[:, specfun.harmonic_orders(mt.mic_order) > a_eff] = 0.0
    Tp = translation.build_T_prime(exp.mics, n_r, ctx, row_order=a_eff)
    alpha, _residual = translation.solve_alpha_all(
        Tp, gamma, cutoff=cfg.solver.svd_cutoff
    )
    return alpha.T.copy(), n_s, n_r


def run_extract(cfg: ExperimentConfig, mt: MeasurementTensor,
                threads: int = 1) -> RtfCoefficientSet:
    """Extract the alpha tensor for every frequency in the measurement tensor."""
    exp = validate_config(cfg)
    fileio.check_digests(
        {
            "geometry": exp.geometry_digest,
            "direct_removal": cfg.solver.direct_removal,
        },
        mt.digests,
    )

    def one(f):
        return extract_frequency(exp, mt, f)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, mt.frequencies))
    else:
        results = [one(f) for f in mt.frequencies]
    return RtfCoefficientSet(
        frequencies=mt.frequencies,
        alpha=tuple(r[0] for r in results),
        source_orders=np.array([r[1] for r in results]),
        receiver_orders=np.array([r[2] for r in results]),
        regions=cfg.regions,
        sound_speed=cfg.signal.sound_speed,
        digests={"geometry": exp.geometry_digest},
    )


def run_cond(cfg: ExperimentConfig, frequencies=None):
    """Condition-number sweep of T for the shell array vs a matched sphere array.

    Returns (frequencies, kappa_shell, kappa_sphere).
    """
    exp = validate_config(cfg)
    if frequencies is None:
        frequencies = cfg.signal.frequencies
    sphere = sphere_array(cfg.arrays.speakers, cfg.regions.source_radius)
    kappas_shell, kappas_sphere = [], []
    for f in frequencies:
        ctx = exp.context(f)
        order = truncation_order(ctx.k, cfg.regions.source_radius)
        kappas_shell.append(
            synthesis.condition_number(synthesis.build_T(exp.speakers_local, order, ctx))
        )
        kappas_sphere.append(
            synthesis.condition_number(synthesis.build_T(sphere, order, ctx))
        )
    return np.asarray(frequencies, dtype=float), np.array(kappas_shell), np.array(kappas_sphere)


def write_cond_csv(path, frequencies, kappa_shell, kappa_sphere) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "kappa_shell", "kappa_sphere"])
        for f, ks, kp in zip(frequencies, kappa_shell, kappa_sphere):
            writer.writerow([f"{f:.17g}", f"{ks:.17g}", f"{kp:.17g}"])


def sweep_errors(cfg: ExperimentConfig, cset: RtfCoefficientSet,
                 radii=None) -> dict[float, np.ndarray]:
    """Per-frequency reconstruction error E for each probe-radius case."""
    exp = validate_config(cfg)
    if radii is None:
        radii = cfg.probes.radii
    offset = np.asarray(cfg.regions.offset)
    out = {}
    for R in radii:
        receivers, sources = probe_pairs(cfg.probes.preset, R)
        errors = []
        for f in cset.frequencies:
            ctx = exp.context(f)
            truth = np.array([
                rtf_oracle_many(exp.room, receivers[g:g + 1], sources[g] + offset, ctx)[0]
                for g in range(len(receivers))
            ])
            estimate = rtf.reconstruct_rtf_many(cset, receivers, sources, f)
            errors.append(relative_error(truth, estimate))
        out[float(R)] = np.array(errors)
    return out


def write_sweep_csv(path, frequencies, errors_by_radius: dict[float, np.ndarray]) -> None:
    radii = sorted(errors_by_radius)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz"] + [f"E_R{R:g}" for R in radii])
        for i, f in enumerate(frequencies):
            writer.writerow(
                [f"{f:.17g}"] + [f"{errors_by_radius[R][i]:.17g}" for R in radii]
            )


def run_geometry_export(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Write per-array (index, x, y, z) CSVs; returns the paths."""
    exp = validate_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, pts in (
        ("speakers_room.csv", exp.speakers_room),
        ("speakers_source_local.csv", exp.speakers_local_cart),
        ("mic_centers.csv", exp.mics.unit_centers),
        ("mic_sensors.csv", exp.mics.omni_positions().reshape(-1, 3)),
    ):
        path = os.path.join(out_dir, name)
        export_positions_csv(path, pts)
        paths.append(path)
    return paths
