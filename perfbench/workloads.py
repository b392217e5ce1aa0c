"""The benchmark's three workloads.

Each workload builds its inputs from the seed during set-up, then repeats one
fixed pass of work in two parts: ``run_batch`` does the batched work and
returns the number of items it did, which the runner times as a whole;
``run_singles`` makes the single calls and returns the time of each in ms.
``items_per_pass`` counts the items a pass attempts, single calls included.  ``check`` runs after timing and returns the failed checks, one
line each; it compares the program's outputs with the benchmark's own
image-source oracle or with properties the method must have.  ``summary``
prints what the checks measured.

The workloads drive only the entry points later refactors are meant to keep:
``pipeline.load_config``, ``run_measure``, ``run_extract``, ``run_cond``,
``pipeline.sweep_errors``, ``rtf.reconstruct_rtf_many`` and the ``fileio``
save/load pairs.  Modules are always reached through their attribute
(``pipeline.run_measure``), never bound here by name, so the traced run sees
every call.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np
import yaml
from scipy.optimize import brentq

import oracle
from roomtf import fileio, pipeline, rtf

# In-band error bound for E (see README, "Correctness checks").
E_MAX = 0.1
# Two independent paths to E (program's sweep vs benchmark oracle).
E_AGREE = 1e-9
# A single-pair call must reproduce the same pair inside a batch.
BATCH_AGREE = 1e-12

# The reference experiment of configs/fig5_sweep.yaml, minus its frequency
# grid and output directory.  The benchmark pins its own copy on purpose:
# a later edit to the shipped configs must not change the benchmark's
# workload, or two commits would be timed on different work.
BASE_CONFIG = {
    "room": {
        "dimensions": [6.0, 5.0, 2.5],
        "reflections": [0.9, 0.9, 0.9, 0.9, 0.7, 0.7],
        "max_image_order": 2,
    },
    "regions": {
        "receiver_radius": 0.4,
        "source_radius": 0.4,
        "source_inner_radius": 0.3,
        "offset": [1.0, 1.0, 0.5],
    },
    "arrays": {
        "speakers": 121, "mic_units": 9, "mic_order": 3,
        "omnis_per_mic": 49, "mic_fit_order": 5,
        # The reference array geometry, as in configs/.  It is the system
        # under test, not an input: the seed draws the points and grids.
        "seed": 12345,
    },
    "signal": {"sound_speed": 343.0, "f_max": 1000.0},
    "solver": {"order_margin": 2, "direct_removal": "coefficient", "svd_cutoff": 1.0e-10},
    "probes": {"preset": "paper-fig5", "radii": [0.1, 0.2, 0.3, 0.4]},
}


def write_config(workdir, name, frequencies):
    raw = dict(BASE_CONFIG)
    raw["signal"] = dict(BASE_CONFIG["signal"], frequencies=[float(f) for f in frequencies])
    raw["output"] = {"directory": str(workdir)}
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    return pipeline.load_config(path)


def room_oracle(cfg) -> oracle.ShoeboxOracle:
    return oracle.ShoeboxOracle(
        cfg.room.dimensions, cfg.room.reflections, cfg.room.max_image_order
    )


def wavenumber(cfg, f) -> float:
    return 2.0 * math.pi * f / cfg.signal.sound_speed


def _bit_equal(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class BroadbandSession:
    """measure -> save .rtfm -> load -> extract -> save .rtfc -> load -> score.

    Eight bins, 200-1600 Hz in 200 Hz steps (five in band, three above
    f_max), on the fig5 geometry.  Each pass also runs one single-bin
    session at 900 Hz, the fig3 case, as the single-call latency.
    """

    GRID = tuple(range(200, 1601, 200))
    SINGLE_BIN = 900.0
    RANDOM_PAIRS = 50

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.cfg = write_config(workdir, "session.yaml", self.GRID)
        self.cfg_single = write_config(workdir, "single.yaml", [self.SINGLE_BIN])
        self.rtfm = os.path.join(workdir, "session.rtfm")
        self.rtfc = os.path.join(workdir, "session.rtfc")
        self.items_per_pass = len(self.GRID) + 1
        # probe pairs scored in every pass: the fig5 axis layout at each
        # radius, then random pairs inside both regions
        recv, src = [], []
        for R in self.cfg.probes.radii:
            recv.append(oracle.axis_probes(R))
            src.append(oracle.axis_probes(R))
        self.n_axis = 7 * len(self.cfg.probes.radii)
        recv.append(oracle.random_ball(rng, self.RANDOM_PAIRS, self.cfg.regions.receiver_radius))
        src.append(oracle.random_ball(rng, self.RANDOM_PAIRS, self.cfg.regions.source_radius))
        self.receivers = np.vstack(recv)
        self.sources = np.vstack(src)
        room = room_oracle(self.cfg)
        offset = np.asarray(self.cfg.regions.offset)
        self.truth = {
            f: room.paired(self.receivers, self.sources + offset, wavenumber(self.cfg, f))
            for f in self.GRID
        }
        self.single_probes = oracle.axis_probes(self.cfg.regions.receiver_radius)

    def run_batch(self) -> int:
        mt = pipeline.run_measure(self.cfg)
        fileio.save_measurement_tensor(self.rtfm, mt)
        mt_loaded = fileio.load_measurement_tensor(self.rtfm)
        cset = pipeline.run_extract(self.cfg, mt_loaded)
        fileio.save_coefficient_set(self.rtfc, cset)
        cset_loaded = fileio.load_coefficient_set(self.rtfc)
        estimates = {
            f: rtf.reconstruct_rtf_many(cset_loaded, self.receivers, self.sources, f)
            for f in self.GRID
        }
        self.last = (mt, mt_loaded, cset, cset_loaded, estimates)
        return len(self.GRID)

    def run_singles(self) -> list[float]:
        t0 = time.perf_counter()
        mt1 = pipeline.run_measure(self.cfg_single)
        cset1 = pipeline.run_extract(self.cfg_single, mt1)
        rtf.reconstruct_rtf_many(cset1, self.single_probes, self.single_probes, self.SINGLE_BIN)
        return [1e3 * (time.perf_counter() - t0)]

    def check(self) -> list[str]:
        mt, mt_loaded, cset, cset_loaded, estimates = self.last
        bad = []
        if not (_bit_equal(mt.gamma_tilde, mt_loaded.gamma_tilde)
                and _bit_equal(mt.frequencies, mt_loaded.frequencies)
                and np.array_equal(mt.mask_orders, mt_loaded.mask_orders)
                and mt.mic_order == mt_loaded.mic_order
                and mt.digests == mt_loaded.digests):
            bad.append(".rtfm did not reload bit-exactly")
        if not (len(cset.alpha) == len(cset_loaded.alpha)
                and all(_bit_equal(a, b) for a, b in zip(cset.alpha, cset_loaded.alpha))
                and _bit_equal(cset.frequencies, cset_loaded.frequencies)
                and np.array_equal(cset.source_orders, cset_loaded.source_orders)
                and np.array_equal(cset.receiver_orders, cset_loaded.receiver_orders)
                and cset.regions == cset_loaded.regions
                and cset.sound_speed == cset_loaded.sound_speed
                and cset.digests == cset_loaded.digests):
            bad.append(".rtfc did not reload bit-exactly")

        self.errors = {}
        radii = self.cfg.probes.radii
        for f in self.GRID:
            truth, est = self.truth[f], estimates[f]
            per_radius = [
                oracle.relative_error(truth[7 * i:7 * i + 7], est[7 * i:7 * i + 7])
                for i in range(len(radii))
            ]
            random_e = oracle.relative_error(truth[self.n_axis:], est[self.n_axis:])
            self.errors[f] = (per_radius, random_e)
            if f <= self.cfg.signal.f_max and max(per_radius + [random_e]) >= E_MAX:
                bad.append(f"E at {f} Hz = {max(per_radius + [random_e]):.3g} >= {E_MAX}")

        program = pipeline.sweep_errors(self.cfg, cset_loaded, radii=radii)
        for i, R in enumerate(radii):
            ours = np.array([self.errors[f][0][i] for f in self.GRID])
            theirs = np.asarray(program[float(R)])
            gap = float(np.max(np.abs(ours - theirs) / ours))
            if not gap <= E_AGREE:
                bad.append(f"sweep_errors and the oracle disagree on E at R={R}: {gap:.3g}")
        return bad

    def summary(self) -> str:
        rows = [
            f"  {f:5d} Hz  E(R=0.4)={pr[-1]:.3e}  E(random)={re_:.3e}"
            for f, (pr, re_) in self.errors.items()
        ]
        return "broadband_session E per bin:\n" + "\n".join(rows)


class RtfQueries:
    """Batched and single-pair reconstruction from extracted coefficients.

    Coefficients at 300/600/900 Hz are extracted during set-up.  A pass
    evaluates one batch of BATCH random in-region pairs per bin, then
    SINGLES of those pairs one call at a time.
    """

    FREQS = (300.0, 600.0, 900.0)
    BATCH = 2000
    SINGLES = 40
    ORACLE_PAIRS = 300

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.cfg = write_config(workdir, "queries.yaml", self.FREQS)
        path = os.path.join(workdir, "queries.rtfc")
        cset = pipeline.run_extract(self.cfg, pipeline.run_measure(self.cfg))
        fileio.save_coefficient_set(path, cset)
        self.cset = fileio.load_coefficient_set(path)
        R_r, R_s = self.cfg.regions.receiver_radius, self.cfg.regions.source_radius
        self.pairs = {
            f: (oracle.random_ball(rng, self.BATCH, R_r), oracle.random_ball(rng, self.BATCH, R_s))
            for f in self.FREQS
        }
        self.items_per_pass = len(self.FREQS) * (self.BATCH + self.SINGLES)

    def run_batch(self) -> int:
        self.batch = {
            f: rtf.reconstruct_rtf_many(self.cset, X, Y, f) for f, (X, Y) in self.pairs.items()
        }
        return len(self.FREQS) * self.BATCH

    def run_singles(self) -> list[float]:
        single_ms, singles = [], {}
        for f, (X, Y) in self.pairs.items():
            out = []
            for i in range(self.SINGLES):
                t0 = time.perf_counter()
                out.append(rtf.reconstruct_rtf_many(self.cset, X[i:i + 1], Y[i:i + 1], f)[0])
                single_ms.append(1e3 * (time.perf_counter() - t0))
            singles[f] = np.array(out)
        self.singles = singles
        return single_ms

    def check(self) -> list[str]:
        batch, singles = self.batch, self.singles
        bad = []
        room = room_oracle(self.cfg)
        offset = np.asarray(self.cfg.regions.offset)
        self.errors = {}
        for f, (X, Y) in self.pairs.items():
            gap = np.max(np.abs(singles[f] - batch[f][:self.SINGLES]) / np.abs(batch[f][:self.SINGLES]))
            if not gap <= BATCH_AGREE:
                bad.append(f"single-pair and batched results differ at {f} Hz: {gap:.3g}")
            n = self.ORACLE_PAIRS
            truth = room.paired(X[:n], Y[:n] + offset, wavenumber(self.cfg, f))
            self.errors[f] = oracle.relative_error(truth, batch[f][:n])
            if not self.errors[f] < E_MAX:
                bad.append(f"E at {f} Hz = {self.errors[f]:.3g} >= {E_MAX}")
        return bad

    def summary(self) -> str:
        return "rtf_queries E: " + "  ".join(f"{f:g} Hz {e:.3e}" for f, e in self.errors.items())


class CondSweep:
    """Fig. 2: kappa(T) of the shell array against a single-radius sphere.

    A pass runs ``run_cond`` over BINS frequencies spaced STEP Hz from
    FIRST Hz, all moved by one seeded offset of at most JITTER Hz, then
    SINGLES one-bin calls at 600 Hz.  The checks sweep 0.1 Hz windows, at a
    seeded offset, around each j0(kR) = 0.

    The cost of a bin grows with its truncation order N = ceil(k e R / 2),
    which steps up every c / (pi e R) = 100.4 Hz (at 201, 301, ... 1004 Hz).
    The unjittered bins lie at least 6.2 Hz from every step, so a jitter of
    5 Hz moves no bin across one: every seed gives a pass the same work.
    An offset of a whole bin spacing changed the pass time by up to 18 %.
    """

    BINS = 40
    FIRST = 210.0
    STEP = 20.0
    JITTER = 5.0
    SINGLE_BIN = 600.0
    SINGLES = 4
    WINDOW_STEP = 0.1
    WINDOW_HALF = 8

    def __init__(self, rng: np.random.Generator, workdir: str):
        offset = self.JITTER * (2.0 * rng.random() - 1.0)
        self.grid = tuple(self.FIRST + offset + np.arange(self.BINS) * self.STEP)
        self.window_offset = float(rng.random())
        self.cfg = write_config(workdir, "cond.yaml", self.grid)
        self.items_per_pass = self.BINS + self.SINGLES
        self.kappas = []

    def run_batch(self) -> int:
        _, ks, kp = pipeline.run_cond(self.cfg)
        self.kappas.append(np.concatenate([ks, kp]))
        return self.BINS

    def run_singles(self) -> list[float]:
        single_ms = []
        for _ in range(self.SINGLES):
            t0 = time.perf_counter()
            _, ks1, kp1 = pipeline.run_cond(self.cfg, [self.SINGLE_BIN])
            single_ms.append(1e3 * (time.perf_counter() - t0))
            self.kappas.append(np.concatenate([ks1, kp1]))
        return single_ms

    def sphere_nulls(self):
        """Frequencies in the swept band where j0(kR) = sin(kR)/kR = 0."""
        R, c = self.cfg.regions.source_radius, self.cfg.signal.sound_speed

        def j0(f):
            x = 2.0 * math.pi * f * R / c
            return math.sin(x) / x

        scan = np.arange(self.grid[0], self.grid[-1], 1.0)
        vals = [j0(f) for f in scan]
        return [
            brentq(j0, scan[i], scan[i + 1], xtol=1e-12)
            for i in range(len(scan) - 1) if vals[i] * vals[i + 1] < 0
        ]

    def check(self) -> list[str]:
        bad = []
        if not all(np.all(k >= 1.0) for k in self.kappas):
            bad.append("kappa < 1 in a swept bin")
        self.peaks = []
        nulls = self.sphere_nulls()
        if not nulls:
            bad.append("no j0(kR) = 0 frequency found in the swept band")
        for f0 in nulls:
            window = f0 + (np.arange(-self.WINDOW_HALF, self.WINDOW_HALF + 1)
                           + self.window_offset - 0.5) * self.WINDOW_STEP
            freqs, ks, kp = pipeline.run_cond(self.cfg, window)
            if not (np.all(ks >= 1.0) and np.all(kp >= 1.0)):
                bad.append(f"kappa < 1 near {f0:.2f} Hz")
            i = int(np.argmax(kp))
            self.peaks.append((f0, freqs[i], kp[i], ks[i]))
            if abs(freqs[i] - f0) > self.WINDOW_STEP:
                bad.append(f"sphere kappa peaks at {freqs[i]:.2f} Hz, not within "
                           f"{self.WINDOW_STEP} Hz of j0 zero {f0:.3f} Hz")
            if not kp[i] >= 10.0 * ks[i]:
                bad.append(f"shell/sphere kappa ratio at {freqs[i]:.2f} Hz is only "
                           f"{kp[i] / ks[i]:.3g}")
        return bad

    def summary(self) -> str:
        return "cond_sweep peaks: " + "  ".join(
            f"j0 zero {f0:.3f} Hz: peak {fp:.3f} Hz sphere/shell {kp / ks:.3g}"
            for f0, fp, kp, ks in self.peaks
        )


WORKLOADS = {
    "broadband_session": BroadbandSession,
    "rtf_queries": RtfQueries,
    "cond_sweep": CondSweep,
}
