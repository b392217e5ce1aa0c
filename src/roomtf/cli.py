"""Command-line interface.

Exit codes: 0 success, 2 config/validation or file failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

import numpy as np

from . import fileio, pipeline, rtf
from .errors import BesselZeroError, ConfigurationError
from .room import rtf_oracle_grid
from .rtf import RtfCoefficientSet


def _parse_point(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"expected 'x,y,z', got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigurationError(f"expected three numbers 'x,y,z', got {text!r}") from None


def _load_config(args) -> pipeline.ExperimentConfig:
    if not args.config:
        raise ConfigurationError("--config is required for this command")
    cfg = pipeline.load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, arrays=replace(cfg.arrays, seed=args.seed))
    return cfg


def _check_out(path) -> None:
    """Fail before any work when ``--out`` names a file in a missing directory."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _default_out(cfg, name):
    os.makedirs(cfg.output.directory, exist_ok=True)
    return os.path.join(cfg.output.directory, name)


def cmd_measure(args) -> int:
    _check_out(args.out)
    cfg = _load_config(args)
    mt = pipeline.run_measure(cfg)
    out = args.out or _default_out(cfg, "measurements.rtfm")
    fileio.save_measurement_tensor(out, mt)
    print(f"wrote {out}: {mt.num_units} units x {mt.num_speakers} speakers x "
          f"{mt.gamma_tilde.shape[3]} modes at {len(mt.frequencies)} frequencies")
    return 0


def cmd_extract(args) -> int:
    _check_out(args.out)
    cfg = _load_config(args)
    mpath = args.measurements or _default_out(cfg, "measurements.rtfm")
    mt = fileio.load_measurement_tensor(mpath)
    cset = pipeline.run_extract(cfg, mt)
    out = args.out or _default_out(cfg, "coefficients.rtfc")
    fileio.save_coefficient_set(out, cset)
    print(f"wrote {out}: {len(cset.frequencies)} frequency blocks")
    return 0


def cmd_reconstruct(args) -> int:
    cset = fileio.load_coefficient_set(args.coeffs)
    f = args.frequency
    receiver = _parse_point(args.receiver)
    source = _parse_point(args.source)
    value = rtf.reconstruct_rtf_many(cset, receiver[None, :], source[None, :], f)[0]
    print(f"reconstructed H = {value.real:.17g} {value.imag:+.17g}j")
    if args.with_oracle:
        cfg = _load_config(args)
        exp = pipeline.validate_config(cfg)
        # the oracle takes its geometry from the config, the estimate from the file
        fileio.check_digests(exp.digests[RtfCoefficientSet], cset.digests)
        exp.room.check_inside(receiver[None, :], "receiver")
        y_room = source + np.asarray(cfg.regions.offset)
        truth = rtf_oracle_grid(exp.room, receiver, y_room, [exp.context(f).k])[0]
        print(f"oracle        H = {truth.real:.17g} {truth.imag:+.17g}j")
        print(f"deviation |dH|/|H| = {abs(truth - value) / abs(truth):.6g}")
    return 0


def cmd_sweep(args) -> int:
    _check_out(args.out)
    cfg = _load_config(args)
    exp = pipeline.validate_config(cfg)
    mpath = _default_out(cfg, "measurements.rtfm")
    cpath = _default_out(cfg, "coefficients.rtfc")
    if os.path.exists(cpath):
        cset = fileio.load_coefficient_set(cpath)
        pipeline.check_artifact(exp, cset, cpath)
    else:
        if os.path.exists(mpath):
            mt = fileio.load_measurement_tensor(mpath)
            pipeline.check_artifact(exp, mt, mpath)
        else:
            mt = pipeline.run_measure(cfg)
            fileio.save_measurement_tensor(mpath, mt)
        cset = pipeline.run_extract(cfg, mt)
        fileio.save_coefficient_set(cpath, cset)
    errors = pipeline.sweep_errors(cfg, cset)
    out = args.out or _default_out(cfg, "sweep.csv")
    pipeline.write_sweep_csv(out, cset.frequencies, errors)
    print(f"wrote {out}")
    return 0


def cmd_cond(args) -> int:
    _check_out(args.out)
    cfg = _load_config(args)
    freqs, kappa_shell, kappa_sphere = pipeline.run_cond(cfg)
    out = args.out or _default_out(cfg, "cond.csv")
    pipeline.write_cond_csv(out, freqs, kappa_shell, kappa_sphere)
    print(f"wrote {out}")
    return 0


def cmd_geometry_export(args) -> int:
    cfg = _load_config(args)
    out_dir = args.out or cfg.output.directory
    for path in pipeline.run_geometry_export(cfg, out_dir):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roomtf",
        description="Modal parameterization of room transfer functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config (YAML)")
        p.add_argument("--out", help="output path")
        p.add_argument("--seed", type=int, help="override the config's array seed")

    p = sub.add_parser("measure", help="simulate the raw measurement tensor")
    common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("extract", help="extract the RTF coefficient tensor")
    common(p)
    p.add_argument("--measurements", help="measurement tensor file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("reconstruct", help="reconstruct the RTF at a point pair")
    common(p)
    p.add_argument("--coeffs", required=True, help="coefficient file")
    p.add_argument("--frequency", "-f", type=float, required=True)
    p.add_argument("--receiver", required=True,
                   help="receiver point 'x,y,z' about the receiver-region center; "
                        "write a negative first coordinate as --receiver=-0.1,0,0")
    p.add_argument("--source", required=True,
                   help="source point 'x,y,z' about the source-region center; "
                        "write a negative first coordinate as --source=-0.1,0,0.1")
    p.add_argument("--with-oracle", action="store_true",
                   help="also print the image-source oracle value (needs --config)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep", help="broadband reconstruction-error sweep")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cond", help="condition-number sweep (shell vs sphere)")
    common(p)
    p.set_defaults(func=cmd_cond)

    p = sub.add_parser("geometry-export", help="export array geometry CSVs")
    common(p)
    p.set_defaults(func=cmd_geometry_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing or unwritable config, artifact or output path
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except (BesselZeroError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
