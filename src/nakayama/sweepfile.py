"""The sweep file: one JSON line per algebra, its `ClassificationReport.to_json()`.
`classify` declares the record: its keys in `REPORT_KEYS` order, its four
`VERDICTS` in order, each verdict's `VERDICT_KEYS` and their `STATUSES`.  This
module checks, reads and writes it.  A resumed record must hold exactly the
REPORT_KEYS, the VERDICTS and each verdict's VERDICT_KEYS, in that order, as
every record a sweep writes does.  The summary sums TALLIED per
record (self_injective, gorenstein, minimal_ag, n_auslander, failed_verdicts,
violations), read off the verdicts and the TALLY_FIELDS.  `append_lines`
flushes each record as it writes it, so a killed sweep keeps every finished one
and `resumed` goes on after them.
"""

import itertools
import json
import os
import sys

from .classify import REPORT_KEYS, STATUSES, VERDICT_KEYS, VERDICTS
from .errors import IoError

TALLIED = (  # what the summary counts per record, in this order
    "self_injective", "gorenstein", "minimal_ag", "n_auslander",
    "failed_verdicts", "violations",
)


def _level(value) -> bool:
    return type(value) is int and value >= 0  # JSON true == 1 and 2.0 == 2


TALLY_FIELDS = {
    "self_injective": lambda value: type(value) is bool,
    "gorenstein_degree": lambda value: value == "infinity" or _level(value),
    "minimal_ag_n": lambda value: value is None or _level(value),
    "n_auslander_n": lambda value: value is None or _level(value),
}


def violations(rec: dict) -> list[str]:
    """A verifier verdict is wrong when it disagrees with the classifier.

    The characterization verdicts must pass exactly on minimal
    Auslander-Gorenstein algebras (checked at their own level), the
    short-exact-sequence bounds must hold on every Gorenstein algebra,
    and the counting verdict must pass wherever it ran.  A verdict
    failing on a non-qualifying algebra is the expected falsification
    direction, not a violation.
    """
    verdicts = rec["theorem_verdicts"]
    expected_pass = rec["minimal_ag_n"] is not None
    out = []
    for name in ("prinj", "gp-socle-sub"):
        status = verdicts[name]["status"]
        if status == "pass" and not expected_pass:
            out.append(f"{name} passed off-characterization")
        elif status == "fail" and expected_pass:
            out.append(f"{name} failed on a qualifying algebra")
    if verdicts["lemma22"]["status"] == "fail":
        out.append("lemma22 inequality breached")
    if verdicts["thm31-count"]["status"] == "fail":
        out.append("thm31-count mismatch")
    return out


def tally(rec: dict) -> tuple[bool, ...]:
    """Which of the TALLIED counts one record adds to."""
    return (
        bool(rec["self_injective"]),
        rec["gorenstein_degree"] != "infinity",
        rec["minimal_ag_n"] is not None,
        rec["n_auslander_n"] is not None,
        any(rec["theorem_verdicts"][name]["status"] == "fail" for name in VERDICTS),
        bool(violations(rec)),
    )


def check_record(rec) -> tuple[tuple[tuple[int, ...], bool], tuple[bool, ...]]:
    """A record's key (series, cyclic) and its tally; ValueError with the
    reason unless it is a whole report, its keys, verdicts and verdict keys
    exactly those classify declares, counting only values a report writes."""
    keys = tuple(rec) if isinstance(rec, dict) else None
    if keys != REPORT_KEYS:
        raise ValueError(f"keys {keys}, not REPORT_KEYS in order")
    verdicts = rec["theorem_verdicts"]
    names = tuple(verdicts) if isinstance(verdicts, dict) else None
    if names != VERDICTS:
        raise ValueError(f"verdicts {names}, not VERDICTS in order")
    for name, verdict in verdicts.items():
        fields = tuple(verdict) if isinstance(verdict, dict) else None
        if fields != VERDICT_KEYS or verdict["status"] not in STATUSES:
            raise ValueError(f"{name} verdict {verdict!r}")
    for name, countable in TALLY_FIELDS.items():
        if not countable(rec[name]):
            raise ValueError(f"{name} {rec[name]!r}")
    series, cyclic = rec["kupisch"], rec["cyclic"]
    plain = type(series) is list and all(type(c) is int for c in series)
    if not plain or type(cyclic) is not bool:  # JSON true == 1 and 2.0 == 2
        raise ValueError(f"{series!r}, cyclic {cyclic!r}")
    return (tuple(series), cyclic), tally(rec)


def _add(sums: list[int], counts: tuple[bool, ...]) -> None:
    for i, hit in enumerate(counts):
        sums[i] += hit


def resumed(path: str, fresh) -> tuple[dict, list[int]]:
    """The keys of the algebras already in a sweep file, in file order (as a
    dict with no values), and the sums of their tallies, read one line at a
    time; a missing file holds none.  Each record must pass check_record, be
    one of this run's algebras (fresh() streams them anew) and appear once,
    or the file is refused with IoError before any work.  A torn final
    record, left by a killed run, is cut off and its algebra computed again."""
    existing, sums, torn = {}, [0] * len(TALLIED), 0
    if not os.path.exists(path):
        return existing, sums
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    torn = len(line)  # the last line, whose write was cut short
                    continue
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as exc:
                    raise IoError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
                try:
                    key, counts = check_record(rec)
                except ValueError as exc:
                    raise IoError(f"{path}: malformed record: {exc}") from None
                if key in existing:
                    raise IoError(f"{path}: {list(key[0])} appears twice")
                existing[key] = None
                _add(sums, counts)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    # an enumerated key is admissible, canonical and within the bounds
    if sum((a.lengths, a.cyclic) in existing for a in fresh()) < len(existing):
        known = {(a.lengths, a.cyclic) for a in fresh()}
        lengths, cyclic = next(k for k in existing if k not in known)
        raise IoError(
            f"{path}: {('linear', 'cyclic')[cyclic]} {list(lengths)} is not a canonical "
            "series within this sweep's bounds and shapes; start afresh with another --out"
        )
    if torn:
        print(f"warning: {path}: dropping a torn final record", file=sys.stderr)
        try:
            with open(path, "r+b") as fh:
                fh.seek(-torn, os.SEEK_END)
                fh.truncate()
        except OSError as exc:
            raise IoError(f"cannot cut {path}: {exc}") from exc
    return existing, sums


def append_lines(path: str, results, sums: list[int]) -> int:
    """Append each (line, tally) result's line as soon as it is produced, so
    a killed run keeps every record finished before it, and add its tally to
    sums; return the number of lines.  The file is opened at the first
    result, so a run with nothing to compute creates none."""
    done = 0
    try:
        results = iter(results)
        first = next(results, None)
        if first is None:
            return 0
        with open(path, "a", encoding="utf-8") as fh:
            for line, counts in itertools.chain([first], results):
                fh.write(line + "\n")
                fh.flush()
                _add(sums, counts)
                done += 1
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return done
