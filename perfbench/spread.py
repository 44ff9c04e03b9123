"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads expand,verify]
        [--trace 0|1] [--json FILE]

Each run is a fresh process, one at a time.  For every workload and metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound.  With one seed
it is the one command that prints every metric by name, with its unit, for
each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", metavar="FILE", help="write the raw values and summary here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    doc = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res = run_once(workload, seed, spec["run_seconds"], args.trace)
            print(f"{workload} seed {seed}: attempted {res['attempted']}, failed {res['failed']}",
                  flush=True)
            runs.append(res)
        print(f"{'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{name:<28} {first['unit']:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.4f} {'' if bound is None else bound:>6}")
            summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": share, "values": values}
        print(flush=True)
        doc[workload] = {"seeds": seeds, "failed": [r["failed"] for r in runs], "metrics": summary}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
