#!/usr/bin/env python3
"""Condition-number sweep of the loudspeaker translation matrix (shell vs sphere).

Writes out/fig2/cond.csv and prints the sphere's peak-to-shell ratios at the
two Bessel-zero peaks inside the sweep band.  A peak whose kappa_sphere is
above ROUNDING_KAPPA is flagged: there the bin lands on a zero of j0(kR), the
sphere matrix is singular to rounding, and the ratio measures how closely the
grid hits the zero rather than the array.
"""
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from roomtf import pipeline  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROUNDING_KAPPA = 1e10


def main():
    cfg = pipeline.load_config(os.path.join(HERE, "..", "configs", "fig2_cond.yaml"))
    freqs, kappa_shell, kappa_sphere = pipeline.run_cond(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, "cond.csv")
    pipeline.write_cond_csv(out, freqs, kappa_shell, kappa_sphere)
    print(f"wrote {out}")
    for target in (420.0, 850.0):
        window = np.abs(freqs - target) < 60.0
        i = np.flatnonzero(window)[np.argmax(kappa_sphere[window])]
        flag = ""
        if kappa_sphere[i] > ROUNDING_KAPPA:
            flag = " (rounding-bound: the bin sits on a j0(kR) zero)"
        print(
            f"sphere peak near {target:.0f} Hz: f = {freqs[i]:.1f} Hz, "
            f"kappa_sphere = {kappa_sphere[i]:.3g}, kappa_shell = {kappa_shell[i]:.3g}, "
            f"ratio = {kappa_sphere[i] / kappa_shell[i]:.1f}x{flag}"
        )


if __name__ == "__main__":
    main()
