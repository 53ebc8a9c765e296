"""The repository benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-serial, oracle-xcheck, precluster-search (inputs and
reasons in workloads.py and BENCHMARK.json), and sweep-jobs2, which runs
by hand but is not in BENCHMARK.json (see README.md).

Each repetition runs in a fresh process (rep.py) that imports the package
from ``src/``, builds the inputs from the seed and runs the workload once.
Repetitions continue until ``--seconds`` have passed, with at least
MIN_REPS of them; every metric is the median over the repetitions.  A
single-process workload is pinned to one CPU.  Every repetition's results
go through the correctness gate (gate.py), and each failed operation
counts in ``failed`` and in error_rate.

The host is shared and its speed drifts by 10-20% over seconds to
minutes, for set-up, wall and CPU time alike.  Every timed repetition
therefore also times a fixed pure-Python loop just before and just after
its workload (rep.py's calibrate), and the end-to-end times are scaled by
REF_NOMINAL_S over the median of those loop times across the run: they
read as seconds on the host at its nominal speed.  The unscaled medians
are printed on the lines marked ``# raw``.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed.
With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones give the per-layer metrics, their difference in wall time is the
tracing overhead, and a traced sweep must write exactly the bytes of the
untraced one.  The spans of the last traced repetition are kept in
perfbench/_work/.

The lines before the last describe the run (environment, every metric
with its unit, error_rate); the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads as wl  # noqa: E402

MIN_REPS = 3  # untraced repetitions per run; a traced run needs one of each
SETUP_REPS = 5  # extra set-up-only repetitions per run, for a steadier setup_s
HARD_LIMIT_S = 150  # start no repetition past this, whatever --seconds says
# Median time of rep.calibrate's loop on the 2-vCPU Intel Xeon VM the
# baseline was recorded on: the unit that end-to-end times are scaled to.
REF_NOMINAL_S = 0.021


def environment() -> dict:
    """What the numbers depend on besides the code."""
    affinity = sorted(os.sched_getaffinity(0))
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(affinity),
        "pinned": len(affinity) < (os.cpu_count() or 0),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_rep(workload: str, seed: int, size: str, mode: str, out_path: str, budget: float):
    """One repetition in a fresh process group; returns its JSON or an error."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), size, mode, out_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"repetition exceeded {budget:.0f} s and was killed"
    if proc.returncode != 0:
        return None, f"repetition exited {proc.returncode}: {err.strip()[-800:]}"
    return json.loads(out.strip().splitlines()[-1]), None


def gate_rep(workload: str, rep: dict, out_path: str, ref: dict, seed: int):
    """(attempted, failed, notes, algebras, checks) for one repetition."""
    res = rep["result"]
    if workload in wl.SWEEPS:
        attempted, failed, notes = gate.check_sweep(out_path, res, ref["sweep"], seed)
        checks = gate.checked_total(out_path) if not failed else 0
        return attempted, failed, notes, res["summary"].get("computed", 0), checks
    if workload == "oracle-xcheck":
        attempted, failed, notes = gate.check_oracle(res)
        return attempted, failed, notes, res["algebras"], res["checks"]
    attempted, failed, notes = gate.check_precluster(res, ref["precluster"])
    return attempted, failed, notes, len(res["searches"]) // len(wl.PRECLUSTER_LEVELS), res["subsets"]


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                    help="'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.exists(os.path.join(ROOT, "src", "nakayama", "__init__.py")):
        print(f"perfbench: no package at {os.path.join(ROOT, 'src', 'nakayama')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ref = gate.load_reference()["sizes"][args.size]
    os.makedirs(WORK, exist_ok=True)
    if wl.SWEEPS.get(args.workload, 1) == 1:
        # One busy process: keep it, and every repetition, on one CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment()

    setups = []
    for _ in range(SETUP_REPS):
        rep, error = run_rep(args.workload, args.seed, args.size, "setup", "-", 20)
        if rep is None:
            print(f"perfbench: set-up failed; {error}", file=sys.stderr)
            return 1
        setups.append(rep)

    plain, traced = [], []  # successful repetitions
    attempted = failed = 0
    notes: list[str] = []
    rep_time: list[float] = []
    turn = 0
    while True:
        elapsed = time.monotonic() - started
        need = 1 if args.trace else MIN_REPS
        enough = len(plain) >= need and (not args.trace or len(traced) >= need)
        guess = median(rep_time)
        if enough and elapsed + guess > args.seconds or elapsed > HARD_LIMIT_S:
            break
        is_traced = bool(args.trace) and turn % 2 == 1
        out_path = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}-{turn}.jsonl")
        t0 = time.monotonic()
        rep, error = run_rep(args.workload, args.seed, args.size,
                             "traced" if is_traced else "plain", out_path, max(10.0, 175 - elapsed))
        rep_time.append(time.monotonic() - t0)
        turn += 1
        if rep is None:
            notes.append(error)
            n = max([r["attempted"] for r in plain + traced], default=1)
            attempted += n
            failed += n
            if not plain and not traced and turn >= 2:
                break
            continue
        a, f, rep_notes, algebras, checks = gate_rep(args.workload, rep, out_path, ref, args.seed)
        rep.update(attempted=a, failed=f, algebras=algebras, checks=checks)
        if os.path.exists(out_path):
            rep["bytes"] = os.path.getsize(out_path)
            with open(out_path, "rb") as fh:
                rep["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        attempted += a
        failed += f
        notes.extend(rep_notes)
        (traced if is_traced else plain).append(rep)
        if is_traced and args.workload in wl.SWEEPS and plain and rep.get("sha256") != plain[-1].get("sha256"):
            notes.append("traced sweep output differs from the untraced output")
            attempted += a
            failed += a
        for path in (out_path, out_path + ".trace.json"):
            if os.path.exists(path):
                if is_traced and path.endswith(".trace.json"):
                    os.replace(path, os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"))
                else:
                    os.remove(path)

    if not plain:
        print("perfbench: no repetition completed; " + "; ".join(notes[:3]), file=sys.stderr)
        return 1

    def per_rep(fn):
        return [fn(r) for r in plain]

    # One factor per run: the loop's median over the timed repetitions,
    # which spans the same minutes as the medians it scales.
    ref_s = median([t for r in plain + traced for t in r["ref_s"]])
    scale = REF_NOMINAL_S / ref_s
    raw = {
        "setup_s": median([r["setup_s"] for r in setups + plain + traced]),
        "wall_s": median(per_rep(lambda r: r["wall_s"])),
        "cpu_s": median(per_rep(lambda r: r["cpu_s"])),
    }
    wall = per_rep(lambda r: r["wall_s"])
    e2e = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": median(per_rep(lambda r: r["peak_rss_mb"])),
        "algebras_per_s": median(per_rep(lambda r: r["algebras"] / r["wall_s"])) / scale,
        "checks_per_cpu_s": median(per_rep(lambda r: r["checks"] / r["cpu_s"])) / scale,
    }
    extra = {"error_rate": (failed / attempted if attempted else 1.0, "ratio")}
    if args.workload == "sweep-jobs2":
        extra["core_utilization"] = (
            median(per_rep(lambda r: r["cpu_s"] / (r["jobs"] * r["wall_s"]))), "ratio")
    if args.workload == "oracle-xcheck":
        extra["oracle_pairs_per_s"] = (
            median(per_rep(lambda r: r["result"]["pairs"] / r["wall_s"])) / scale, "1/s")

    env.update(numpy=plain[0]["numpy"], reps=len(plain), traced_reps=len(traced),
               wall_s_spread=spread(wall), wall_s_min=min(wall), wall_s_max=max(wall),
               wall_s_reps=wall, ref_s=ref_s, scale=scale,
               run_s=time.monotonic() - started)
    print(f"# perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes[:10]:
        print("# FAIL " + note)

    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = median([r["layers"][name] for r in traced])
        layers["trace.overhead_s"] = median([r["wall_s"] for r in traced]) * scale - e2e["wall_s"]
        layers["core.algebras"] = median([r["algebras"] for r in traced]) if args.workload in wl.SWEEPS else 0
        layers["classify.checked"] = median([r["checks"] for r in traced]) if args.workload in wl.SWEEPS else 0
        layers["cli.bytes_written"] = median([r.get("bytes", 0) for r in traced]) if args.workload in wl.SWEEPS else 0
        layers["oracle.pairs_per_s"] = extra.get("oracle_pairs_per_s", (0.0,))[0]
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    shown = {**{k: (v["value"], v["unit"]) for k, v in metrics.items()}, **extra}
    if args.trace:
        shown.update({k: (e2e[k], "s") for k in ("wall_s", "setup_s")})
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in raw.items():
        print(f"# raw {name} = {value:.6g} s")
    print(f"# attempted={attempted} failed={failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
