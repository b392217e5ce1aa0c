"""Experiment orchestration: config loading, measure/extract/sweep/cond commands.

The analysis origin O sits at the room center, so receiver-region coordinates
coincide with room coordinates; source-region coordinates are offset by R_sr.

Per-frequency solver policy (the knobs that make the extraction robust):

* Effective orders track the ceiling truncation rule at the current k, plus a
  configurable margin, capped at the design-frequency orders, which
  ``validate_config`` holds within the aliasing bounds of the arrays.
* Loudspeaker weights are solved against a translation matrix built to the
  design source order, so modes just above the matched order are actively
  cancelled rather than aliased.
* Each bin has one local order, min(A, ceil truncation at the mic radius),
  decided when the measurement is simulated and stored with it; the
  translation solve uses the local modes up to that order.

Each config object is validated once: ``validate_config`` keeps the checked
``Experiment`` on the (frozen) config, so ``load_config`` and every later
``run_*`` call on that object share one geometry and its angular and direct
tables, and ``dataclasses.replace`` makes a new object that is checked anew.
The arrays the ``Experiment`` hands out are read-only, as every later call
on the config reads them.
"""
from __future__ import annotations

import csv
import math
import os
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import yaml

from . import fileio, recording, rtf, specfun, synthesis, translation
from .errors import ConfigurationError, DigestMismatchError
from .geometry import RegionPair, export_positions_csv, shell_array, sphere_array
from .modal import GRID_TOLERANCE, WaveContext, check_distinct_bins, truncation_order
from .recording import HoMicSpec, MeasurementTensor, make_mic_array, mic_radius
from .room import RoomModel, rtf_oracle_grid
from .rtf import RtfCoefficientSet, probe_pairs, relative_error


# The digests each artifact kind records: run_measure and run_extract write
# them, and an artifact that lacks one of its kind's digests is rejected.
ARTIFACT_DIGESTS = {
    MeasurementTensor: ("geometry", "direct_removal"),
    RtfCoefficientSet: ("geometry", "solver"),
}


@dataclass(frozen=True)
class ArraysConfig:
    speakers: int = 121
    mic_units: int = 9
    mic_order: int = 3
    omnis_per_mic: int = 49
    mic_fit_order: int | None = 5
    seed: int = 12345


@dataclass(frozen=True)
class SignalConfig:
    sound_speed: float = 343.0
    f_max: float = 1000.0
    frequencies: tuple[float, ...] = tuple(np.arange(200.0, 1700.0 + 1e-9, 25.0))

    def __post_init__(self):
        # a caller's list would stay shared, and could change a validated config
        object.__setattr__(self, "frequencies", tuple(self.frequencies))


@dataclass(frozen=True)
class SolverConfig:
    order_margin: int = 2
    direct_removal: str = "coefficient"  # or "measurement"
    svd_cutoff: float = 1e-10


@dataclass(frozen=True)
class ProbesConfig:
    preset: str = "paper-fig5"
    radii: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(self.radii))  # as SignalConfig.frequencies


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per YAML section, each the dataclass that its keys set."""

    room: RoomModel = field(
        default_factory=lambda: RoomModel((6.0, 5.0, 2.5), (0.9, 0.9, 0.9, 0.9, 0.7, 0.7), 2)
    )
    regions: RegionPair = field(
        default_factory=lambda: RegionPair(0.4, 0.4, 0.3, (1.0, 1.0, 0.5))
    )
    arrays: ArraysConfig = field(default_factory=ArraysConfig)
    signal: SignalConfig = field(default_factory=SignalConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    probes: ProbesConfig = field(default_factory=ProbesConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @cached_property
    def _experiment(self) -> Experiment:
        """The checked geometry of ``validate_config``, built on first use.

        A config that fails a check caches nothing, so it fails on every use.
        """
        return _checked_experiment(self)


def _check_mapping(block, allowed, where: str, noun: str = "key") -> None:
    """Reject a non-mapping or an unknown key, so a typo cannot fall back to a default."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be a mapping")
    unknown = sorted(set(block) - set(allowed), key=str)
    if unknown:
        raise ConfigurationError(
            f"unknown {noun} {unknown[0]!r} in {where}; expected one of {sorted(allowed)}"
        )


def _coerce(value, hint, where: str):
    """A YAML value as the annotated type of its field: scalar, optional or tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        return None if value is None else _coerce(value, args[0], where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigurationError(
                f"{where}: expected {len(args)} values, got {len(value)}: {value}"
            )
        return tuple(_coerce(v, args[0], where) for v in value)
    # int() and float() would take a bool, int() would truncate 1.5 to 1, and
    # str() would turn any scalar into a string
    if not (hint in (int, float) and isinstance(value, bool)
            or hint is int and isinstance(value, float) and not value.is_integer()
            or hint is str and not isinstance(value, str)):
        try:
            return hint(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{where} must be of type {hint.__name__}, got {value!r}")


def _frequency_range(block, where: str) -> list[float]:
    """The grid start, start + step, ... up to stop of a {start, stop, step} mapping."""
    _check_mapping(block, ("start", "stop", "step"), where)
    for key in ("start", "stop", "step"):
        if key not in block:
            raise ConfigurationError(f"{where} range lacks {key!r}")
    start, stop, step = (_coerce(block[key], float, f"{where}.{key}")
                         for key in ("start", "stop", "step"))
    if step <= 0:
        raise ConfigurationError(f"{where}.step must be > 0, got {step}")
    return np.arange(start, stop + step * 1e-9, step).tolist()


def _section(default, block, where: str):
    """``default`` with each key of ``block`` coerced by the type of its field."""
    hints = typing.get_type_hints(type(default))
    _check_mapping(block, hints, f"config section {where!r}")
    changes = {}
    for key, value in block.items():
        if key == "frequencies" and isinstance(value, dict):
            value = _frequency_range(value, f"{where}.{key}")
        changes[key] = _coerce(value, hints[key], f"{where}.{key}")
    return replace(default, **changes)


def load_config(path) -> ExperimentConfig:
    """An ExperimentConfig from YAML: one mapping per section, over its defaults."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path} is not valid YAML: {exc}") from None
    cfg = ExperimentConfig()
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    _check_mapping(raw, sections, "the config file", noun="section")
    cfg = replace(cfg, **{name: _section(sections[name], block, name)
                          for name, block in raw.items()})
    validate_config(cfg)
    return cfg


class Experiment:
    """Deterministic geometry and derived quantities for one config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.room = cfg.room
        self.mic_local_radius = mic_radius(
            cfg.arrays.mic_order, cfg.signal.f_max, cfg.signal.sound_speed
        )
        if not self.mic_local_radius < cfg.regions.receiver_radius:
            raise ConfigurationError(
                f"regions.receiver_radius = {cfg.regions.receiver_radius} m must exceed the "
                f"microphone radius r = A c / (pi e f_max) = {self.mic_local_radius:.6g} m: "
                "the mic units sit at R_r - r, so every sensor is inside the receiver region"
            )
        self.speakers_local = shell_array(  # (L, 3) about O_s
            cfg.arrays.speakers,
            cfg.regions.source_radius,
            cfg.regions.source_inner_radius,
            cfg.arrays.seed,
        )
        self.speakers_room = self.speakers_local + np.asarray(cfg.regions.offset)
        self.mics = make_mic_array(
            cfg.arrays.mic_units,
            cfg.regions.receiver_radius - self.mic_local_radius,
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
        # the highest order within the loudspeakers' aliasing bound (N+1)^2 <= L
        self.table_order = math.isqrt(cfg.arrays.speakers) - 1
        # every input that shapes gamma-tilde: array layouts, sound speed, room, encoder fit
        self.geometry_digest = fileio.content_digest(
            self.speakers_room,
            self.mics.unit_centers,
            self.mics.local_offsets,
            [cfg.signal.sound_speed],
            self.room.dimensions,
            self.room.reflections,
            [self.room.max_image_order, self.mics.spec.effective_fit_order],
        )
        values = {
            "geometry": self.geometry_digest,
            "direct_removal": cfg.solver.direct_removal,
            "solver": asdict(cfg.solver),
        }
        # per artifact kind, the digests it carries under this config
        self.digests = {kind: {key: values[key] for key in keys}
                        for kind, keys in ARTIFACT_DIGESTS.items()}
        for a in (self.speakers_local, self.speakers_room,
                  self.mics.unit_centers, self.mics.local_offsets):
            a.flags.writeable = False  # every later call on the config reads them

    @cached_property
    def speaker_table(self) -> specfun.AngularTable:
        """The loudspeakers' angular table to ``table_order``, built on first use.

        Extraction reads its first (N_s+1)^2 rows, the condition sweep every
        order up to the bound; either reads the bits of a table of its own order.
        """
        return specfun.angular_table(self.table_order, self.speakers_local)

    @cached_property
    def sphere_table(self) -> specfun.AngularTable:
        """The angular table of the matched single-radius sphere, built on first use.

        The L loudspeakers on equal-area directions at the source radius, to
        ``table_order``: the array ``run_cond`` compares the shell with.
        """
        sphere = sphere_array(self.cfg.arrays.speakers, self.cfg.regions.source_radius)
        return specfun.angular_table(self.table_order, sphere)

    @cached_property
    def direct_table(self) -> specfun.AngularTable:
        """The angular table of the unit-to-loudspeaker vectors, built on first use.

        Only the coefficient-domain direct removal reads it.
        """
        return recording.direct_table(self.speakers_room, self.mics)

    def context(self, frequency: float) -> WaveContext:
        return WaveContext(frequency, self.cfg.signal.sound_speed)

    def effective_orders(self, frequency: float):
        """(source order, receiver order) used at this frequency."""
        cfg = self.cfg
        k = self.context(frequency).k
        margin = cfg.solver.order_margin
        n_s = min(truncation_order(k, cfg.regions.source_radius) + margin,
                  self.design_source_order)
        n_r = min(truncation_order(k, cfg.regions.receiver_radius) + margin,
                  self.design_receiver_order)
        return n_s, n_r


def validate_config(cfg: ExperimentConfig) -> Experiment:
    """Check every module-level bound up front; returns the built geometry.

    The checks and the build run once per config object, on its first call
    (``load_config`` makes it); later calls return the same ``Experiment``.
    A config that fails raises on every call.
    """
    return cfg._experiment


def _checked_experiment(cfg: ExperimentConfig) -> Experiment:
    """The checks of ``validate_config``, then the ``Experiment`` they admit."""
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
    bad = [f for f in cfg.signal.frequencies if not 0.0 < f < math.inf]
    if bad:
        raise ConfigurationError(
            f"signal.frequencies must be finite and > 0 Hz, got {bad[0]}"
        )
    check_distinct_bins(np.asarray(cfg.signal.frequencies), "signal.frequencies")
    if not 0.0 < cfg.signal.sound_speed < math.inf:
        raise ConfigurationError(
            f"signal.sound_speed must be finite and > 0, got {cfg.signal.sound_speed}"
        )
    if not 0.0 < cfg.signal.f_max < math.inf:
        raise ConfigurationError(f"signal.f_max must be finite and > 0 Hz, got {cfg.signal.f_max}")
    # pinv drops singular values at or below cutoff * the largest, so a cutoff
    # of 1 or more (or NaN) zeroes both solves and every alpha
    if not 0.0 <= cfg.solver.svd_cutoff < 1.0:
        raise ConfigurationError(
            f"solver.svd_cutoff must be finite and in [0, 1), got {cfg.solver.svd_cutoff}"
        )
    if cfg.probes.preset != "paper-fig5":  # the one layout, kept as a config key
        raise ConfigurationError(f"probes.preset must be 'paper-fig5', got {cfg.probes.preset!r}")
    limit = min(cfg.regions.receiver_radius, cfg.regions.source_radius)
    if not cfg.probes.radii or not all(0.0 < R <= limit + 1e-12 for R in cfg.probes.radii):
        raise ConfigurationError(f"probes.radii must be a non-empty list of radii in (0, "
                                 f"{limit}] m, within both regions, got {list(cfg.probes.radii)}")
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
    exp.room.check_inside(exp.speakers_room, "loudspeaker")
    exp.room.check_inside(exp.mics.omni_positions().reshape(-1, 3), "microphone sensor")
    if cfg.solver.direct_removal == "coefficient":
        # the direct field's expansion about a unit center converges only at
        # sensors closer to the center than the loudspeaker is
        d = np.linalg.norm(exp.mics.unit_centers[:, None] - exp.speakers_room[None], axis=-1)
        inside = d <= exp.mic_local_radius
        if inside.any():
            q, l = np.unravel_index(np.argmin(d), d.shape)
            raise ConfigurationError(
                f"loudspeaker {l} is {d[q, l]:.3f} m from mic unit {q}, inside its "
                f"local radius {exp.mic_local_radius:.3f} m ({int(inside.sum())} "
                "loudspeaker/unit pairs in all); the coefficient-domain direct "
                "removal diverges there, so set solver.direct_removal: measurement"
            )
    return exp


def run_measure(cfg: ExperimentConfig, frequencies=None) -> MeasurementTensor:
    """Simulate the raw measurement tensor over the config's frequency grid."""
    exp = validate_config(cfg)
    if frequencies is None:
        frequencies = cfg.signal.frequencies
    mt = recording.simulate_raw_measurements(
        exp.room, exp.speakers_room, exp.mics, frequencies,
        sound_speed=cfg.signal.sound_speed,
        subtract_direct_pressure=cfg.solver.direct_removal == "measurement",
    )
    return replace(mt, digests=exp.digests[MeasurementTensor])


def extract_frequency(exp: Experiment, mt: MeasurementTensor, frequency: float):
    """One frequency's alpha' block: returns (alpha' (N_s+1)^2 x (N_r+1)^2, n_s, n_r).

    All in the real bases (Y = U S): x = pinv(T') Gamma with real weights
    and T', and alpha' = U_s^H alpha U_r = -i x^T is the block stored.
    """
    cfg = exp.cfg
    fi = mt.frequency_index(frequency)
    ctx = exp.context(frequency)
    n_s, n_r = exp.effective_orders(frequency)
    T = synthesis.build_T(exp.speaker_table, exp.design_source_order, ctx)
    W, _ = synthesis.solve_all_weights(
        T, num_modes=(n_s + 1) ** 2, cutoff=cfg.solver.svd_cutoff
    )
    direct = None
    if cfg.solver.direct_removal == "coefficient":
        direct = recording.direct_coefficients_per_speaker(exp.direct_table, exp.mics, ctx)
    gamma = recording.compose_all_modes(mt, fi, W, direct)
    local_order = int(mt.mask_orders[fi])
    Tp = translation.build_T_prime(exp.mics, local_order, n_r, ctx)
    x, _residual = translation.solve_alpha_all(
        Tp, gamma[:, :specfun.mode_count(local_order)], cutoff=cfg.solver.svd_cutoff
    )
    return -1j * x.T, n_s, n_r


def check_artifact(exp: Experiment, artifact, path) -> None:
    """Reject a reused .rtfm/.rtfc made under another geometry, solver or grid."""
    try:
        fileio.check_digests(exp.digests[type(artifact)], artifact.digests)
        grid = np.asarray(exp.cfg.signal.frequencies, dtype=float)
        if artifact.frequencies.shape != grid.shape or not np.allclose(
            artifact.frequencies, grid, rtol=0, atol=GRID_TOLERANCE
        ):
            raise DigestMismatchError("its frequency grid differs from signal.frequencies")
    except DigestMismatchError as exc:
        raise DigestMismatchError(f"stale artifact {path}: {exc}; remove it to recompute") from None


def run_extract(cfg: ExperimentConfig, mt: MeasurementTensor) -> RtfCoefficientSet:
    """Extract the alpha tensor for every frequency in the measurement tensor."""
    exp = validate_config(cfg)
    fileio.check_digests(exp.digests[MeasurementTensor], mt.digests)
    results = [extract_frequency(exp, mt, f) for f in mt.frequencies]
    return RtfCoefficientSet(
        frequencies=mt.frequencies,
        alpha=tuple(r[0] for r in results),
        source_orders=np.array([r[1] for r in results]),
        receiver_orders=np.array([r[2] for r in results]),
        regions=cfg.regions,
        sound_speed=cfg.signal.sound_speed,
        digests=exp.digests[RtfCoefficientSet],
    )


def run_cond(cfg: ExperimentConfig, frequencies=None):
    """Condition-number sweep of T for the shell array vs a matched sphere array.

    Returns (frequencies, kappa_shell, kappa_sphere).
    """
    exp = validate_config(cfg)
    if frequencies is None:
        frequencies = cfg.signal.frequencies
    ctxs = [exp.context(f) for f in frequencies]
    orders = [truncation_order(ctx.k, cfg.regions.source_radius) for ctx in ctxs]
    kappa = synthesis.condition_numbers((exp.speaker_table, exp.sphere_table), orders, ctxs)
    return np.asarray(frequencies, dtype=float), kappa[:, 0], kappa[:, 1]


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
    ks = [exp.context(f).k for f in cset.frequencies]
    out = {}
    for R in radii:
        receivers, sources = probe_pairs(R)
        truth = rtf_oracle_grid(exp.room, receivers, sources + offset, ks)
        out[float(R)] = np.array([
            relative_error(t, rtf.reconstruct_rtf_many(cset, receivers, sources, f))
            for t, f in zip(truth, cset.frequencies)
        ])
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
        ("speakers_source_local.csv", exp.speakers_local),
        ("mic_centers.csv", exp.mics.unit_centers),
        ("mic_sensors.csv", exp.mics.omni_positions().reshape(-1, 3)),
    ):
        path = os.path.join(out_dir, name)
        export_positions_csv(path, pts)
        paths.append(path)
    return paths
