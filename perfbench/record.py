"""Regenerate perfbench/reference.json, the correctness gate's reference.

Usage, from the root of a checkout:
    python3 perfbench/record.py

Run it only on a commit whose outputs are trusted: the gate then holds
every later commit to byte-identical sweep files and identical precluster
candidates.  Records, per size:

- sweep: the hash of every record without its seeded sum witnesses (the
  same for every seed; see gate.py) and the sha256 of the whole output
  for the default and the held-out seed;
- precluster: the candidates of search_precluster at each level for every
  algebra in the strata the precluster sample draws from, so any seed's
  sample can be checked.

The full size takes several minutes on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = {"default": 0, "held_out": 1802}


def sweep_reference(size: str) -> dict:
    from nakayama.cli import main

    vertices, length = wl.SIZES[size]["sweep"]
    digests, hashes = {}, set()
    for seed in SEEDS.values():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            out = os.path.join(tmp, "sweep.jsonl")
            argv = ["sweep", "--max-vertices", str(vertices), "--max-length", str(length),
                    "--jobs", "2", "--seed", str(seed), "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    raise SystemExit(f"sweep {argv} failed")
            with open(out, "rb") as fh:
                data = fh.read()
        digests[str(seed)] = hashlib.sha256(data).hexdigest()
        hashes.add(tuple(gate.record_hash(json.loads(ln)) for ln in data.splitlines()))
    if len(hashes) != 1:
        raise SystemExit("record hashes depend on the seed; the gate's premise fails")
    return {"record_hashes": list(hashes.pop()), "digests": digests}


def precluster_reference(size: str) -> dict:
    import nakayama as nk

    out = {}
    for alg in wl.precluster_pool(nk, size):
        out[wl.algebra_key(alg)] = {
            str(n): [[nk.format_module(m) for m in cand] for cand in nk.search_precluster(alg, n)]
            for n in wl.PRECLUSTER_LEVELS
        }
    return dict(sorted(out.items()))


def main() -> int:
    ref = {"seeds": SEEDS, "sizes": {}}
    for size in wl.SIZES:
        ref["sizes"][size] = {
            "sweep": sweep_reference(size),
            "precluster": precluster_reference(size),
        }
        print(f"recorded {size}", file=sys.stderr)
    with open(gate.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
