#!/usr/bin/env python3
"""Broadband reconstruction-error sweep over 200-1700 Hz for several probe radii.

Writes out/fig5/sweep.csv, prints its bin count and the wall times of the
measure and extract stages, then the in-band median and the 1600 Hz error for
the outermost probe radius.
"""
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from roomtf import pipeline  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# a relative output.directory is read from the repository root, not the
# working directory
ROOT = os.path.dirname(HERE)


def main():
    cfg = pipeline.load_config(os.path.join(HERE, "..", "configs", "fig5_sweep.yaml"))
    start = time.perf_counter()
    mt = pipeline.run_measure(cfg)
    measured = time.perf_counter()
    cset = pipeline.run_extract(cfg, mt)
    extracted = time.perf_counter()
    errors = pipeline.sweep_errors(cfg, cset)
    out_dir = os.path.join(ROOT, cfg.output.directory)
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "sweep.csv")
    pipeline.write_sweep_csv(out, cset.frequencies, errors)
    print(f"wrote {out}: {cset.frequencies.size} bins, measure {measured - start:.2f} s, "
          f"extract {extracted - measured:.2f} s")

    R = max(errors)
    freqs = cset.frequencies
    in_band = (freqs >= 200.0) & (freqs <= 1000.0)
    median = float(np.median(errors[R][in_band]))
    e1600 = float(errors[R][np.argmin(np.abs(freqs - 1600.0))])
    print(f"R = {R:g}: median E(200-1000 Hz) = {median:.4f}, E(1600 Hz) = {e1600:.4f}")


if __name__ == "__main__":
    main()
