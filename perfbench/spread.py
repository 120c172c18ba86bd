#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload ks --seeds 1-10 [--trace 0] [--baseline]

For each metric prints the median, the quartiles (``statistics.quantiles``
with n=4), the spread (q3 - q1) / median and, for end-to-end metrics, the
bound from BENCHMARK.json, so a run-to-run spread can be compared with the
bound it must stay under.  Runs are made one at a time, in this checkout.
``--baseline`` stores the medians and quartiles in BASELINE.json, under the
workload and the kind of metric (``end_to_end`` for --trace 0, ``per_layer``
for --trace 1), with the environment row of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "BASELINE.json"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true", help="store the summary in BASELINE.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results, durations, environment = [], [], None
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        durations.append(perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if environment is None:
            environment = json.loads(next(ln for ln in lines if ln.startswith("environment "))[12:])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} run {durations[-1]:.1f}s", flush=True)
    print(f"run time: median {statistics.median(durations):.1f}s, max {max(durations):.1f}s")
    worst = 0.0
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": results[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        if bound and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"  {name:34s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
              + (f"  bound {bound}" if bound else ""))
        if bound:
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
    if args.trace == 0:
        print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    if args.baseline:
        doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        doc.setdefault(args.workload, {})["per_layer" if args.trace else "end_to_end"] = {
            "seeds": seeds(args.seeds), "environment": environment, "metrics": summary}
        BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
