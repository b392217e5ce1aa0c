#!/usr/bin/env python3
"""Reconstructed vs oracle field maps on the z = 0 slice of the receiver region.

Runs measure + extract for the chosen config (default: the non-overlapping
900 Hz setup; pass a different config path to reproduce the overlapping case)
and writes a field-map CSV with reconstructed, oracle, and deviation columns
for a fixed source position.
"""
import argparse
import csv
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from roomtf import pipeline, rtf  # noqa: E402
from roomtf.room import rtf_oracle_grid  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# a relative output.directory is read from the repository root, not the
# working directory
ROOT = os.path.dirname(HERE)
DEFAULT_CONFIG = os.path.join(HERE, "..", "configs", "fig3_nonoverlap.yaml")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=DEFAULT_CONFIG)
    ap.add_argument("--frequency", type=float, default=900.0)
    ap.add_argument("--source", default="0.05,0.05,0.0707",
                    help="source point about the source-region center")
    ap.add_argument("--grid-size", type=int, default=41)
    args = ap.parse_args()

    cfg = pipeline.load_config(args.config)
    exp = pipeline.validate_config(cfg)
    mt = pipeline.run_measure(cfg)
    cset = pipeline.run_extract(cfg, mt)

    y_s = np.array([float(v) for v in args.source.split(",")])
    R = cfg.regions.receiver_radius
    axis = np.linspace(-R, R, args.grid_size)
    # row by row in y, keeping the grid points inside the region
    xs, ys = (g.ravel() for g in np.meshgrid(axis, axis))
    inside = xs * xs + ys * ys <= R * R
    receivers = np.column_stack([xs[inside], ys[inside], np.zeros(np.count_nonzero(inside))])
    est = rtf.reconstruct_rtf_many(
        cset, receivers, np.broadcast_to(y_s, receivers.shape), args.frequency
    )
    truth = rtf_oracle_grid(
        exp.room, receivers, y_s + np.asarray(cfg.regions.offset),
        [exp.context(args.frequency).k],
    )[0]

    out_dir = os.path.join(ROOT, cfg.output.directory)
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "field_map.csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "re_est", "im_est", "re_oracle", "im_oracle", "abs_dev"])
        for (xv, yv, _), e, t in zip(receivers, est, truth):
            writer.writerow(
                [f"{xv:.17g}", f"{yv:.17g}", f"{e.real:.17g}", f"{e.imag:.17g}",
                 f"{t.real:.17g}", f"{t.imag:.17g}", f"{abs(e - t):.17g}"]
            )
    print(f"wrote {out} ({len(receivers)} grid points inside the region)")


if __name__ == "__main__":
    main()
