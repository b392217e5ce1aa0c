"""Run sets of benchmark runs and judge them against BENCHMARK.json's bounds.

    python3 perfbench/compare.py [--runs 10] [--workload NAME ...]

It always makes two sets of ``--runs`` runs each, every run as long as
``run_seconds`` in BENCHMARK.json, with seeds 1..runs for the first set and
runs+1..2*runs for the second.  Each run is one ``perfbench/run.py`` process;
runs of different workloads are interleaved so a slow phase of the machine
falls on all of them alike.  For every workload and end-to-end metric it
prints the median, the quartiles and the spread (interquartile distance over
the median) of each set, and fails when

* a spread exceeds the metric's bound,
* the two medians differ by more than the bound, in either direction, or
* the share of failed operations differs between the sets.

The spread of ``setup_s`` is printed but not judged: it is one cold
set-up per run, a single sample of 1-4 s, and swings with the machine's
speed of the moment; only its median over the set is meant to be steady
(README, "Steadiness").

The report is also written to ``.perfbench_out/compare-<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"], result["wall_s"] = seed, wall
    print(f"  {workload:18s} seed {seed:5d} {wall:5.1f} s  correct={result['correct']}  "
          + "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable); default: all")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]

    results = {}  # (set, workload) -> [result]
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for name in names:
                results.setdefault((s, name), []).append(
                    run_once(spec, name, seed, spec["run_seconds"]))

    ok = True
    report = {}
    for name in names:
        print(f"\n{name}")
        shares = []
        for s in range(SETS):
            runs = results[(s, name)]
            if not all(r["correct"] for r in runs):
                print(f"  set {s + 1}: a run reported incorrect output")
                ok = False
            shares.append((sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print(f"  failed share differs: {shares[0]} vs {shares[1]}")
            ok = False
        for m in spec["end_to_end"]:
            stats = [summarize([r["metrics"][m["name"]]["value"] for r in results[(s, name)]])
                     for s in range(SETS)]
            report[f"{name}/{m['name']}"] = stats
            judged = m["name"] != "setup_s"
            verdicts = ["SPREAD" for st in stats if judged and st["spread"] > m["bound"]]
            a, b = stats[0]["median"], stats[1]["median"]
            if abs(b - a) / a > m["bound"]:
                verdicts.append("DRIFT")
            ok &= not verdicts
            cells = "  ".join(
                f"set{s + 1} median {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                f"spread {st['spread']:.3f}" for s, st in enumerate(stats))
            print(f"  {m['name']:18s} bound {m['bound']:.2f}  {cells}  "
                  f"{' '.join(verdicts) or 'ok'}{'' if judged else ' (spread not judged)'}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({
        "summary": report,
        "runs": {f"set{s + 1}/{n}": r for (s, n), r in results.items()},
    }, indent=1))
    print(f"\n{'PASS' if ok else 'FAIL'}; report in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
