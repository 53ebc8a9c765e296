"""Correctness gate: checks one repetition's results against the
reference recorded in reference.json (regenerate with record.py).

Each check returns (attempted, failed, notes); run.py sums them into the
result's ``attempted`` and ``failed`` and error_rate = failed / attempted.

Sweep records are checked one by one.  A record's only seed-dependent
bytes are the gp-socle-sub witnesses that are direct sums from the
verifier's seeded sample, so each record is compared, with those
removed, to its recorded hash, whatever the seed.  A sum witness is
kept honest by the theory instead: Gpd, socle and embedding into a
projective all go summand by summand, so a sum can only be a witness
when one of its summands is.  For the seeds in ``digests`` the whole
file must also match byte for byte; serial and --jobs 2 share that
digest.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record_hash(rec: dict) -> str:
    """Hash of one sweep record without its sampled-sum witnesses."""
    verdict = rec["theorem_verdicts"]["gp-socle-sub"]
    verdict["witnesses"] = [w for w in verdict["witnesses"] if "+" not in w["module"]]
    text = json.dumps(rec, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sum_witnesses_ok(rec: dict) -> bool:
    witnesses = rec["theorem_verdicts"]["gp-socle-sub"]["witnesses"]
    single = {w["module"] for w in witnesses if "+" not in w["module"]}
    return all(
        any(piece in single for piece in w["module"].split("+"))
        for w in witnesses
        if "+" in w["module"]
    )


def checked_total(path: str) -> int:
    """Sum of every verdict's ``checked`` over a sweep output."""
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            total += sum(v["checked"] for v in rec["theorem_verdicts"].values())
    return total


def check_sweep(path: str, result: dict, ref: dict, seed: int) -> tuple[int, int, list]:
    """One operation per expected record; a whole-run failure (exit code,
    violations, record count, file digest) fails all of them."""
    hashes = ref["record_hashes"]
    expected = len(hashes)
    fatal = []
    if result["exit"] != 0:
        fatal.append(f"sweep exited {result['exit']}")
    if result["summary"].get("violations") != 0:
        fatal.append(f"summary reports violations: {result['summary']}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return expected, expected, [f"no output: {exc}"]
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    else:
        fatal.append("output does not end in a newline")
    if len(lines) != expected:
        fatal.append(f"{len(lines)} records, expected {expected}")
    digest = ref["digests"].get(str(seed))
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        fatal.append(f"sha256 differs from the recorded digest for seed {seed}")
    bad = []
    for i, line in enumerate(lines[:expected]):
        try:
            rec = json.loads(line)
            ok = _sum_witnesses_ok(rec) and record_hash(rec) == hashes[i]
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            bad.append(i)
    notes = fatal + [f"record {i} differs from the reference" for i in bad[:3]]
    return expected, expected if fatal else len(bad), notes


def check_oracle(result: dict) -> tuple[int, int, list]:
    mismatches = result["mismatches"]
    return result["checks"], len(mismatches), [f"mismatch {m}" for m in mismatches[:3]]


def check_precluster(result: dict, ref: dict) -> tuple[int, int, list]:
    """Each search must return the recorded candidates in the recorded order."""
    failed = 0
    notes = []
    for (key, n), found in zip(result["searches"], result["found"]):
        want = ref.get(key, {}).get(str(n))
        if found != want:
            failed += 1
            notes.append(f"{key} n={n}: candidates differ from the reference")
    return len(result["searches"]), failed, notes
