"""Benchmark runner for roomtf: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from ``src/`` of the
same checkout; without it the runner exits non-zero and prints no result.

With ``--trace 0`` the run wraps nothing and reports the end-to-end metrics.
The rate and the latency are corrected for the machine's momentary speed
with the kernel of ``calibration.py``, timed between the parts of each pass.
With ``--trace 1`` timed passes alternate untraced and traced; per-layer
metrics are per traced pass, the tracing overhead is the traced pass time
over the untraced one, and the full per-function table is written to
``.perfbench_out/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  On two cores OpenBLAS's default of
# two threads ran a 40-bin condition sweep 13-16 % slower than one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from calibration import NOMINAL_S, Kernel

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_program():
    src = ROOT / "src"
    if not (src / "roomtf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no roomtf package under {src}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(src))
    import roomtf
    if Path(roomtf.__file__).resolve().parent != (src / "roomtf").resolve():
        sys.exit(f"perfbench: imported roomtf from {roomtf.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


class Pass:
    """One pass: the batched part's items and time, the single calls' times,
    and the calibration kernel's time before, between and after the two."""

    def __init__(self, items, batch_s, single_ms, singles_s, calibration):
        self.items = items
        self.batch_s = batch_s
        self.single_ms = single_ms
        self.wall_s = batch_s + singles_s
        self.calibration = calibration

    def rate(self) -> float:
        """Items per second of the reference machine."""
        before, between, _ = self.calibration
        return self.items * 0.5 * (before + between) / (self.batch_s * NOMINAL_S)

    def latencies_ms(self) -> list[float]:
        """Single-call times in ms of the reference machine."""
        _, between, after = self.calibration
        scale = NOMINAL_S / (0.5 * (between + after))
        return [ms * scale for ms in self.single_ms]


def run_passes(work, seconds, tracer, calibrate):
    """Closed loop of whole passes for ``seconds``.

    Returns (untraced passes, traced passes, failed passes).  A pass whose
    program call raises counts all its operations as failed; every pass is
    the same work, so the failed share does not depend on the run length.
    """
    untraced, traced, failed = [], [], []
    minimum = 3
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
        try:
            t0 = time.perf_counter()
            items = work.run_batch()
            batch_s = time.perf_counter() - t0
            between = calibrate()
            t0 = time.perf_counter()
            single_ms = work.run_singles()
            singles_s = time.perf_counter() - t0
        except (ValueError, ArithmeticError) as exc:  # the program's error types
            failed.append(f"{type(exc).__name__}: {exc}")
            items = None
        finally:
            if trace_this:
                tracer.uninstall()
        after = calibrate()
        if items is not None:
            sample = Pass(items, batch_s, single_ms, singles_s, (before, between, after))
            (traced if trace_this else untraced).append(sample)
        before = after
        done = min(len(untraced), len(traced)) if tracer else len(untraced)
        if time.perf_counter() >= deadline and (done >= minimum or len(failed) >= minimum):
            return untraced, traced, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np
    import workloads
    from layertrace import Tracer

    spec = json.loads(BENCHMARK_JSON.read_text())
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        rng = np.random.default_rng(args.seed)
        work = workloads.WORKLOADS[args.workload](rng, workdir)
        # warm-up: lazy tables and caches fill here
        work.run_batch()
        work.run_singles()
        raw_setup_s = seconds_since_process_start()

        calibrate = Kernel()
        calibrate()
        tracer = Tracer(workloads.room_oracle(work.cfg).num_images) if args.trace else None
        untraced, traced, failed = run_passes(work, args.seconds, tracer, calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if failed:
            print(f"{len(failed)} passes failed, first: {failed[0]}")
        if not untraced or (tracer and not traced):
            sys.exit("perfbench: passes failed; nothing was measured")
        failures = work.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = work.items_per_pass * (len(untraced) + len(traced) + len(failed))
    rate = statistics.median(p.rate() for p in untraced)
    latency = statistics.median(ms for p in untraced for ms in p.latencies_ms())
    raw = raw_figures(untraced, raw_setup_s)
    # The set-up is timed once, cold, and corrected with the run's median
    # kernel time: the speed of the machine over the run that follows it.
    setup_s = raw_setup_s * NOMINAL_S / (1e-3 * raw["calibration.kernel_ms"])
    print(work.summary())
    print(f"{args.workload}: {len(untraced)} untraced passes, {rate:.4g} items/s, "
          f"single call {latency:.4g} ms, set-up {setup_s:.4g} s (uncorrected "
          f"{raw['raw.work_items_per_s']:.4g} items/s, {raw['raw.call_latency_ms']:.4g} ms, "
          f"{raw_setup_s:.4g} s; calibration kernel {raw['calibration.kernel_ms']:.4g} ms)")
    for line in failures:
        print(f"CHECK FAILED: {line}")

    if args.trace:
        metrics = per_layer_metrics(spec, tracer, untraced, traced, raw)
        table = {
            "workload": args.workload, "seed": args.seed,
            "traced_passes": len(traced), "untraced_passes": len(untraced),
            "overhead_pct": metrics["trace.overhead_pct"]["value"],
            "absent": sorted(m for m, v in metrics.items() if v.get("absent")),
            "functions_per_run": tracer.table(),
        }
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True))
        if table["absent"]:
            print("absent from the program: " + ", ".join(table["absent"]))
        for m in metrics.values():
            m.pop("absent", None)
    else:
        values = {
            "setup_s": setup_s,
            "work_items_per_s": rate,
            "call_latency_ms": latency,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": work.items_per_pass * len(failed),
        "metrics": metrics,
    }))
    return 0


def raw_figures(passes, setup_s):
    """The untraced passes' figures before the machine-speed correction."""
    return {
        "raw.setup_s": setup_s,
        "raw.work_items_per_s": statistics.median(p.items / p.batch_s for p in passes),
        "raw.call_latency_ms": statistics.median(ms for p in passes for ms in p.single_ms),
        "calibration.kernel_ms": 1e3 * statistics.median(
            c for p in passes for c in p.calibration),
    }


def per_layer_metrics(spec, tracer, untraced, traced, raw):
    n = len(traced)
    pass_untraced = statistics.median(p.wall_s for p in untraced)
    pass_traced = statistics.median(p.wall_s for p in traced)
    out = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_pct":
            out[name] = metric(100.0 * (pass_traced / pass_untraced - 1.0), unit)
            continue
        if name in raw:
            out[name] = metric(raw[name], unit)
            continue
        value = tracer.value(name)
        if value is None:
            out[name] = {"value": 0, "unit": unit, "absent": True}
        else:
            out[name] = metric(value / n, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
