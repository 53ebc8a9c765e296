"""One repetition of one workload, in a fresh process.

Usage (run.py starts it; it is not meant to be run by hand):
    python3 perfbench/rep.py WORKLOAD SEED SIZE MODE OUT_PATH

Times the set-up (importing the package and building the inputs) and the
workload, and prints one JSON object with the measurements and the raw
results, which run.py checks.  MODE is "plain", "traced" (the layer
boundaries are wrapped and the spans are written to OUT_PATH +
".trace.json") or "setup" (stop after the set-up).

A timed repetition also runs a fixed pure-Python loop (calibrate) right
before and right after the workload: the host's speed at those moments,
which run.py uses to scale the times it reports.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


CALIBRATE_LOOPS = 15
CALIBRATE_ITERS = 200_000


def calibrate() -> float:
    """Median time of a fixed integer loop: how fast the host runs now.

    This is the benchmark's own code, so no change to the package moves it.
    """
    times = []
    for _ in range(CALIBRATE_LOOPS):
        t0 = perf_counter()
        acc = 0
        for i in range(CALIBRATE_ITERS):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, size, mode, out_path = argv
    import nakayama as nk
    import numpy

    inputs = wl.build_inputs(nk, workload, int(seed), size)
    setup_s = perf_counter() - T_START
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    ref_before = calibrate()
    if os.path.exists(out_path):
        os.remove(out_path)

    tracer = Tracer() if mode == "traced" else None
    if tracer:
        wl.install(tracer, workload)
    calls = wl.api(nk, tracer)
    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    if workload in wl.SWEEPS:
        result = wl.run_sweep(inputs, out_path, tracer)
    elif workload == "oracle-xcheck":
        result = (tracer.call("bench.xcheck", wl.run_oracle_xcheck, inputs, calls)
                  if tracer else wl.run_oracle_xcheck(inputs, calls))
    else:
        found = (tracer.call("bench.search", wl.run_precluster_search, inputs, calls)
                 if tracer else wl.run_precluster_search(inputs, calls))
    wall_s = perf_counter() - t0
    worker_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - kids0
    cpu_s = _cpu(resource.RUSAGE_SELF) - self0 + worker_cpu_s
    if tracer:
        tracer.restore()
    ref_after = calibrate()

    if workload == "precluster-search":
        result = {
            "searches": [[wl.algebra_key(a), n] for a, n in inputs.searches],
            "found": [[[nk.format_module(m) for m in cand] for cand in f] for f in found],
            "subsets": inputs.subsets,
        }
    jobs = wl.SWEEPS.get(workload, 1)
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        kb += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "worker_cpu_s": worker_cpu_s if jobs > 1 else 0.0,
        "jobs": jobs,
        "peak_rss_mb": kb / 1024,
        "ref_s": [ref_before, ref_after],
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "result": result,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, out)
        tracer.dump(out_path + ".trace.json")
    print(json.dumps(out))
    return 0


def layer_metrics(t: Tracer, rep: dict) -> dict:
    """Per-layer numbers of one traced repetition, by metric name."""
    algebra_ms = [d * 1000 for d in t.durations("classify.classify")]
    q = statistics.quantiles(algebra_ms, n=100) if len(algebra_ms) > 1 else [0.0] * 99
    oracle = ("is_injective", "tau", "hom_dim", "ext1_dim")
    found = sum(len(f) for f in rep["result"].get("found", ()))
    subsets = t.calls("precluster.is_precluster")
    out = {
        "classify.algebra_ms.p50": q[49],
        "classify.algebra_ms.p99": q[98],
        "cli.serialize_s": t.total("cli.serialize"),
        "cli.residual_s": t.self_time("cli.main"),
        "cli.worker_cpu_s": rep["worker_cpu_s"],
        "cli.worker_idle_s": (
            rep["jobs"] * rep["wall_s"] - rep["worker_cpu_s"] if rep["jobs"] > 1 else 0.0
        ),
        "core.enumerate_s": t.total("core.enumerate"),
        "oracle.calls": sum(t.calls(f"oracle.{f}") for f in oracle),
        "modules.hom_dim_calls": t.calls("modules.hom_dim"),
        "homology.ext_dim_calls": t.calls("homology.ext_dim"),
        "precluster.searches": t.calls("precluster.search"),
        "precluster.subsets": subsets,
        "precluster.found": found,
        "precluster.hit_ratio": found / subsets if subsets else 0.0,
    }
    for name in (
        "classify.verify_thm_gp_socle_sub", "classify.verify_ses_gpd_bounds",
        "classify.verify_thm_prinj", "classify.verify_thm31_count",
        "classify.minimal_ag_parameter", "homology.gpd", "homology.gorenstein_degree",
        "homology.domdim", "homology.gldim", "modules.hom_dim", "homology.ext_dim",
        "precluster.search", *(f"oracle.{f}" for f in oracle),
    ):
        out[f"{name}_s"] = t.total(name)
    layer_self = t.layer_self()
    for layer in ("core", "modules", "homology", "classify", "cli", "oracle", "precluster"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
