"""The benchmark's correctness gate, run at size `tiny` on the library.

`perfbench/run.py` rejects a repetition whose results differ from
`perfbench/reference.json`.  This test runs the same workload bodies on
the two recorded seeds at the smallest size, shapes their results as
`perfbench/rep.py` does, and checks them with `perfbench/gate.py`.  It
imports `perfbench/` read-only: no bytecode and no output is written
there.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import nakayama

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (0, 1802)


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        wl = importlib.import_module("workloads")
        gate = importlib.import_module("gate")
        ref = gate.load_reference()["sizes"]["tiny"]
        yield SimpleNamespace(wl=wl, gate=gate, ref=ref, calls=wl.api(nakayama, None))
    finally:
        for name in ("workloads", "tracer", "gate"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_matches_reference(bench, seed, tmp_path):
    inputs = bench.wl.build_inputs(nakayama, "sweep-serial", seed, "tiny")
    out = tmp_path / "sweep.jsonl"
    result = bench.wl.run_sweep(inputs, str(out), None)
    attempted, failed, notes = bench.gate.check_sweep(
        str(out), result, bench.ref["sweep"], seed
    )
    assert attempted > 0 and failed == 0, notes


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_xcheck_matches_engine(bench, seed):
    inputs = bench.wl.build_inputs(nakayama, "oracle-xcheck", seed, "tiny")
    result = bench.wl.run_oracle_xcheck(inputs, bench.calls)
    attempted, failed, notes = bench.gate.check_oracle(result)
    assert attempted > 0 and failed == 0, notes


@pytest.mark.parametrize("seed", SEEDS)
def test_precluster_search_matches_reference(bench, seed):
    inputs = bench.wl.build_inputs(nakayama, "precluster-search", seed, "tiny")
    found = bench.wl.run_precluster_search(inputs, bench.calls)
    result = {
        "searches": [[bench.wl.algebra_key(a), n] for a, n in inputs.searches],
        "found": [
            [[nakayama.format_module(m) for m in cand] for cand in f] for f in found
        ],
        "subsets": inputs.subsets,
    }
    attempted, failed, notes = bench.gate.check_precluster(result, bench.ref["precluster"])
    assert attempted > 0 and failed == 0, notes
