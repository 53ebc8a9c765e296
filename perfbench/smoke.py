"""Smoke test of the benchmark itself, at the tiny size (about a minute).

Usage, from the root of a checkout:
    python3 perfbench/smoke.py

Checks that every workload runs traced and untraced, prints every metric
of BENCHMARK.json by name with its unit and passes the gate; that the gate
trips (error_rate > 0) on a sweep output with one byte changed and on a
wrong precluster candidate list; and that run.py fails without printing a
result where the package is missing.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads as wl  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_workloads(spec: dict) -> None:
    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run("perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            text = "\n".join(lines[:-1])
            for name, unit in want.items():
                assert f"{name} = " in text and unit in text, (workload, name)
            assert "error_rate = 0 " in text, text
            assert '"pinned"' in text and '"nproc"' in text and "wall_s_spread" in text
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"]]
                assert not zero, (workload, zero)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_gate_trips() -> None:
    ref = gate.load_reference()["sizes"]["tiny"]
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    for seed in (0, 3):  # a seed with a recorded digest and one without
        out = os.path.join(work, f"smoke-{os.getpid()}-{seed}.jsonl")
        try:
            proc = run("perfbench/rep.py", "sweep-serial", str(seed), "tiny", "0", out)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])["result"]
            attempted, failed, notes = gate.check_sweep(out, result, ref["sweep"], seed)
            assert attempted > 0 and failed == 0, notes
            with open(out, "rb") as fh:
                data = bytearray(fh.read())
            at = data.index(b'"checked":', len(data) // 2) + len(b'"checked":')
            data[at] = ord("7") if data[at] != ord("7") else ord("3")
            with open(out, "wb") as fh:
                fh.write(data)
            attempted, failed, notes = gate.check_sweep(out, result, ref["sweep"], seed)
            assert failed / attempted > 0, "the gate missed a changed byte"
            print(f"ok  one changed byte trips the sweep gate (seed {seed}): "
                  f"error_rate {failed / attempted:.3g}, {notes[0]}")
        finally:
            if os.path.exists(out):
                os.remove(out)

    key, levels = next(iter(ref["precluster"].items()))
    result = {"searches": [[key, 1]], "found": [levels["1"][1:] + levels["1"][:1]]}
    if result["found"][0] == levels["1"]:
        result["found"][0] = levels["1"] + [["M(1,1)"]]
    attempted, failed, _ = gate.check_precluster(result, ref["precluster"])
    assert failed == attempted == 1, "the gate missed reordered precluster candidates"
    print("ok  reordered candidates trip the precluster gate")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run("perfbench/run.py", "--workload", "sweep-serial", "--seed", "0",
                   "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
        print(f"ok  without the package run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_gate_trips()
    check_bare_directory()
    check_workloads(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
