"""Regression anchor: the committed reference outputs regenerate.

The fig5 error sweep is recomputed in full.  The fig2 condition-number sweep
is recomputed on a subsample of its 0.5 Hz grid: every 40th bin plus the bins
at and next to the two Bessel-zero peaks.  Nothing here writes to ``out/``.
"""
from pathlib import Path

import numpy as np

from roomtf import pipeline

ROOT = Path(__file__).resolve().parents[1]
RTOL = 1e-9
# Above this kappa the sphere matrix is singular to rounding (the 0.5 Hz grid
# lands on a zero of j0(kR)); its value measures rounding, not the array.
KAPPA_ROUNDING = 1e10


def read_csv(name):
    return np.loadtxt(ROOT / "out" / name, delimiter=",", skiprows=1)


def test_fig5_sweep_regenerates():
    ref = read_csv("fig5/sweep.csv")
    cfg = pipeline.load_config(ROOT / "configs" / "fig5_sweep.yaml")
    cset = pipeline.run_extract(cfg, pipeline.run_measure(cfg))
    errors = pipeline.sweep_errors(cfg, cset)
    got = np.column_stack([cset.frequencies] + [errors[R] for R in sorted(errors)])
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=0)


def test_fig2_condition_numbers_regenerate():
    ref = read_csv("fig2/cond.csv")
    rows = np.isin(ref[:, 0], [428.5, 429.0, 857.5])
    rows[::40] = True
    ref = ref[rows]
    cfg = pipeline.load_config(ROOT / "configs" / "fig2_cond.yaml")
    freqs, kappa_shell, kappa_sphere = pipeline.run_cond(cfg, ref[:, 0])
    got = np.column_stack([freqs, kappa_shell, kappa_sphere])
    rounding = ref > KAPPA_ROUNDING
    assert rounding.any(), "the 857.5 Hz sphere peak is expected above the cut"
    assert np.all(got[rounding] > KAPPA_ROUNDING)
    np.testing.assert_allclose(got[~rounding], ref[~rounding], rtol=RTOL, atol=0)

