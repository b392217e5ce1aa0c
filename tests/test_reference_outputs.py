"""Regression anchor: the committed reference outputs regenerate.

The fig5 error sweep and the fig3 field map are recomputed in full.  The fig2
condition-number sweep is recomputed on a subsample of its 0.5 Hz grid: every
40th bin plus the bins at and next to the two Bessel-zero peaks.  Nothing
here writes to ``out/``.
"""
from pathlib import Path

import numpy as np

from roomtf import pipeline, rtf
from roomtf.room import rtf_oracle_grid

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



def test_fig3_field_map_regenerates():
    # scripts/fig3_field_map.py defaults: 900 Hz, this source point
    ref = read_csv("fig3/field_map.csv")
    cfg = pipeline.load_config(ROOT / "configs" / "fig3_nonoverlap.yaml")
    exp = pipeline.validate_config(cfg)
    cset = pipeline.run_extract(cfg, pipeline.run_measure(cfg, [900.0]))
    receivers = np.column_stack([ref[:, :2], np.zeros(len(ref))])
    source = np.array([0.05, 0.05, 0.0707])
    estimate = rtf.reconstruct_rtf_many(
        cset, receivers, np.broadcast_to(source, receivers.shape), 900.0
    )
    truth = rtf_oracle_grid(
        exp.room, receivers, source + np.asarray(cfg.regions.offset), [exp.context(900.0).k]
    )[0]
    assert len(ref) == 1257
    for got, re_im in ((estimate, ref[:, 2:4]), (truth, ref[:, 4:6])):
        want = re_im[:, 0] + 1j * re_im[:, 1]
        assert np.max(np.abs(got - want) / np.abs(want)) <= RTOL
    np.testing.assert_allclose(np.abs(estimate - truth), ref[:, 6], rtol=RTOL, atol=0)
