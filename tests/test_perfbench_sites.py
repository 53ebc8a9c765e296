"""The benchmark's traced runs patch library names in place.

`perfbench/tracer.py` replaces `owner.__dict__[attr]` for every entry of
`perfbench/workloads.py` SITES, so a name moved out of the module that
SITES names breaks `perfbench/run.py --trace 1` with a KeyError.  This
test reads SITES without changing anything under `perfbench/`.
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
