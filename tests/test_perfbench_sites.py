"""The benchmark's traced runs patch library names in place.

`perfbench/tracer.py` replaces `owner.__dict__[attr]` for every entry of
`perfbench/workloads.py` SITES, so a name moved out of the module that
SITES names breaks `perfbench/run.py --trace 1` with a KeyError, and a
call moved to go through another module leaves its span reading 0.
These tests read SITES without changing anything under `perfbench/`.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        sites = importlib.import_module("workloads").SITES
    finally:
        for name in ("workloads", "tracer"):
            sys.modules.pop(name, None)
    assert sites
    missing = [
        (label, mod, attr)
        for label, mod, attr, _record in sites
        if attr not in vars(importlib.import_module(mod))
    ]
    assert not missing


def test_sweep_calls_the_traced_classify(monkeypatch, tmp_path, capsys):
    # SITES wraps nakayama.cli.classify; a serial sweep must call it once
    # per algebra, or the classify.classify span reads 0 without failing
    cli = importlib.import_module("nakayama.cli")
    original, calls = cli.classify, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "classify", counted)
    out = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--max-vertices", "4", "--max-length", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == len(out.read_text().splitlines()) == 57
