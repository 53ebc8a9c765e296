"""Measure the baseline: repeated runs of every workload, summarized.

Usage, from the root of a checkout:
    python3 perfbench/baseline.py [--runs 10] [--workloads a,b] [--out perfbench/baseline.json]

Runs run.py --runs times per workload, each with another seed (0, 1, ...),
with the run length of BENCHMARK.json, then once traced on seed 0.  For
each end-to-end metric it reports the median, the quartiles and the
spread (distance between the quartiles as a share of the median, from
statistics.quantiles(values, n=4)), and flags a spread that is not below
a third of the metric's bound.  The summary, with the environment of the
first run, is written to --out.
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


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in args.workloads.split(","):
        results, envs = [], []
        for seed in range(args.runs):
            result, env = run(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            envs.append(env)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall_s={result['metrics']['wall_s']['value']:.4g} reps={env['reps']}", flush=True)
        traced, _ = run(workload, 0, spec["run_seconds"], 1)
        metrics = {}
        for name in bounds:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
            flag = "" if name == "setup_s" or metrics[name]["spread"] < bounds[name] / 3 else "  <-- not below bound/3"
            print(f"  {name:18s} median {metrics[name]['median']:.5g} spread "
                  f"{metrics[name]['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        summary["workloads"][workload] = {
            "end_to_end": metrics,
            "error_rate": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "in_run_wall_spread": summarize([e["wall_s_spread"] for e in envs]),
            "reps_per_run": summarize([e["reps"] for e in envs]),
            "environment": envs[0],
            "traced_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
