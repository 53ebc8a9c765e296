"""Command line interface.

Subcommands: analyze (full report for one algebra), module (one query
about one module), verify (run one theorem verifier), sweep (classify an
enumerated family to a JSONL file, resumable and parallel), reproduce
(recompute a frozen table of worked examples and diff).

Exit codes: 0 pass, 1 a verifier or comparison failed, 2 bad input or an
unmet precondition.  Errors are reported as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from .classify import (
    REPORT_KEYS,
    VerifierResult,
    classify,
    is_minimal_ag,
    is_n_auslander,
    minimal_ag_parameter,
    n_auslander_parameter,
    prinj_vertices,
    verify_ses_gpd_bounds,
    verify_thm31_count,
    verify_thm_gp_socle_sub,
    verify_thm_prinj,
)
from .core import ExtendedNat, KupischSeries, enumerate_admissible
from .errors import IoError, NakayamaError, ParseError
from .homology import (
    domdim,
    ext_dim,
    gldim,
    gorenstein_degree,
    gpd,
    idim,
    pd,
    regular_id,
    regular_id_left,
)
from .modules import (
    IntervalModule,
    ModuleSum,
    in_sub_lambda,
    injective,
    injective_envelope,
    is_projective,
    projective_cover,
    simple,
    socle,
    top,
)
from .notation import format_module, parse_module
from .oracle import (
    oracle_ext1_dim,
    oracle_hom_dim,
    oracle_is_injective,
    oracle_tau,
)
from .precluster import search_precluster, tau_n

__all__ = ["main"]


def _parse_lengths(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise ParseError(f"bad --kupisch value {text!r}") from exc


def _algebra(args) -> KupischSeries:
    return KupischSeries.validate(_parse_lengths(args.kupisch), args.cyclic)


# -- analyze -------------------------------------------------------------------


def cmd_analyze(args) -> int:
    report = classify(_algebra(args), args.seed)
    print(json.dumps(report.to_json(), indent=2))
    return 0


# -- module --------------------------------------------------------------------


def _jsonable(value):
    """The JSON value printed for a library result."""
    if isinstance(value, ExtendedNat):
        return value.to_json()
    if isinstance(value, (IntervalModule, ModuleSum)):
        return format_module(value)
    if isinstance(value, VerifierResult):
        return "pass" if value.passed else "fail"
    if isinstance(value, KupischSeries):
        return list(value.lengths)
    if isinstance(value, (tuple, list)):
        return [_jsonable(x) for x in value]
    return value


_MODULE_QUERIES = {
    "pd": pd,
    "id": idim,
    "gpd": gpd,
    "socle": socle,
    "top": top,
    "envelope": injective_envelope,
    "cover": projective_cover,
    "in-sub-lambda": in_sub_lambda,
}


def cmd_module(args) -> int:
    alg = _algebra(args)
    msum = parse_module(alg, args.expr)
    query = args.query
    if query in _MODULE_QUERIES:
        result = _MODULE_QUERIES[query](alg, msum)
    elif query.startswith("ext:"):
        chunks = query.split(":", 2)
        if len(chunks) != 3 or not chunks[1].isdigit():
            raise ParseError(f"ext query wants ext:<k>:<target>, got {query!r}")
        target = parse_module(alg, chunks[2])
        result = ext_dim(alg, msum, target, int(chunks[1]))
    elif query.startswith("oracle-hom:"):
        target = parse_module(alg, query.split(":", 1)[1])
        result = oracle_hom_dim(alg, msum, target, args.field_p)
    elif query.startswith("oracle-ext1:"):
        target = parse_module(alg, query.split(":", 1)[1])
        result = sum(
            oracle_ext1_dim(alg, x, target, args.field_p) for x in msum
        )
    elif query == "oracle-injective":
        result = all(
            oracle_is_injective(alg, piece, args.field_p) for piece in msum
        )
    elif query == "oracle-tau":
        images = [oracle_tau(alg, piece, args.field_p) for piece in msum]
        result = ModuleSum.of(*(q for img in images for q in img))
    else:
        raise ParseError(f"unknown query {query!r}")
    payload = {
        "kupisch": list(alg.lengths),
        "cyclic": alg.cyclic,
        "module": format_module(msum),
        "query": query,
        "result": _jsonable(result),
    }
    print(json.dumps(payload))
    return 0


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    alg = _algebra(args)
    token = args.theorem
    if token == "precluster" or token.startswith("precluster:"):
        n = int(token.split(":", 1)[1]) if ":" in token else args.n
        if n is None:
            raise ParseError("precluster needs --n or precluster:<n>")
        found = search_precluster(alg, n, args.max_extra)
        payload = {
            "kupisch": list(alg.lengths),
            "cyclic": alg.cyclic,
            "theorem": "precluster",
            "n": n,
            "status": "pass" if found else "fail",
            "candidates": _jsonable(found),
        }
        print(json.dumps(payload))
        return 0 if found else 1
    if token == "lemma22":
        res = verify_ses_gpd_bounds(alg)
    else:
        if args.n is None:
            raise ParseError(f"theorem {token!r} needs --n")
        if token == "prinj":
            res = verify_thm_prinj(alg, args.n)
        elif token == "gp-socle-sub":
            res = verify_thm_gp_socle_sub(alg, args.n, args.seed)
        elif token == "thm31-count":
            res = verify_thm31_count(alg, args.n)
        else:
            raise ParseError(f"unknown theorem {token!r}")
    payload = {
        "kupisch": list(alg.lengths),
        "cyclic": alg.cyclic,
        "theorem": res.theorem,
        **res.to_json(),
    }
    print(json.dumps(payload))
    return 0 if res.passed else 1


# -- sweep -----------------------------------------------------------------------


def _sweep_record(payload) -> tuple[str, tuple[bool, ...]]:
    """One algebra's JSONL line and its summary tally."""
    lengths, cyclic, seed = payload
    rec = classify(KupischSeries(tuple(lengths), cyclic), seed).to_json()
    return json.dumps(rec, separators=(",", ":")), _tally(rec)


def _sweep_violations(rec: dict) -> list[str]:
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


# What the summary counts per record, in this order.
_TALLIED = (
    "self_injective",
    "gorenstein",
    "minimal_ag",
    "n_auslander",
    "failed_verdicts",
    "violations",
)


def _tally(rec: dict) -> tuple[bool, ...]:
    """Which of the _TALLIED counts one record adds to."""
    return (
        bool(rec["self_injective"]),
        rec["gorenstein_degree"] != "infinity",
        rec["minimal_ag_n"] is not None,
        rec["n_auslander_n"] is not None,
        any(v.get("status") == "fail" for v in rec["theorem_verdicts"].values()),
        bool(_sweep_violations(rec)),
    )


def _range_check(keys, spec: str, seed: int) -> tuple[int, int]:
    """Re-verify the socle characterization across a whole range of
    levels: at each n the verdict must agree with the classifier, pass
    and fail alike.  'auto' means every level up to the Gorenstein
    degree; 'A:B' an inclusive window clipped to that."""
    checked = violations = 0
    for lengths, cyclic in keys:
        alg = KupischSeries(lengths, cyclic)
        g = gorenstein_degree(alg)
        if not g.is_finite:
            continue
        top_level = max(g.value - 1, 0)
        if spec == "auto":
            levels = range(0, top_level + 1)
        else:
            lo, hi = (int(t) for t in spec.split(":"))
            levels = range(lo, min(hi, top_level) + 1)
        for n in levels:
            res = verify_thm_gp_socle_sub(alg, n, seed)
            checked += 1
            if res.passed != is_minimal_ag(alg, n):
                violations += 1
    return checked, violations


def _read_jsonl(path: str) -> tuple[list[dict], int]:
    """The records on the whole lines of a JSONL file, and the length of
    an unterminated last line: a record whose write was cut short."""
    records, torn = [], 0
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    torn = len(line)
                elif line.strip():
                    try:
                        records.append(json.loads(line))
                    except ValueError as exc:
                        raise IoError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return records, torn


def _resumed(path: str) -> dict:
    """The algebras already in a sweep file, in file order, each with its
    summary tally.  Every record must be a whole report of an admissible
    series in canonical form with a boolean cyclic flag, and no algebra
    may appear twice; anything else is a damaged file, refused before any
    work.  A torn final record, left by a killed run, is cut off so that
    its algebra is computed again."""
    records, torn = _read_jsonl(path)
    existing = {}
    for rec in records:
        missing = [k for k in REPORT_KEYS if not isinstance(rec, dict) or k not in rec]
        if missing:
            raise IoError(f"{path}: malformed record: lacks {', '.join(missing)}")
        if type(rec["cyclic"]) is not bool:
            raise IoError(
                f"{path}: malformed record: cyclic flag {rec['cyclic']!r} "
                "is not a boolean"
            )
        try:
            alg = KupischSeries.validate(rec["kupisch"], rec["cyclic"])
        except (TypeError, NakayamaError) as exc:
            raise IoError(f"{path}: malformed record: {exc}") from exc
        if list(alg.lengths) != rec["kupisch"]:
            raise IoError(f"{path}: {rec['kupisch']} is not a canonical series")
        key = (alg.lengths, alg.cyclic)
        if key in existing:
            raise IoError(f"{path}: {rec['kupisch']} appears twice")
        existing[key] = _tally(rec)
    if torn:
        print(f"warning: {path}: dropping a torn final record", file=sys.stderr)
        try:
            with open(path, "r+b") as fh:
                fh.seek(-torn, os.SEEK_END)
                fh.truncate()
        except OSError as exc:
            raise IoError(f"cannot cut {path}: {exc}") from exc
    return existing


def _append_lines(path: str, results) -> list[tuple[bool, ...]]:
    """Append each (line, tally) result's line as soon as it is produced,
    so a killed run keeps every record finished before it; return the
    tallies in order."""
    tallies = []
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for line, tally in results:
                fh.write(line + "\n")
                fh.flush()
                tallies.append(tally)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return tallies


def cmd_sweep(args) -> int:
    if args.n_range not in (None, "auto") and not re.fullmatch(
        r"\d+:\d+", args.n_range
    ):
        raise ParseError(f"--n-range wants 'auto' or 'A:B', got {args.n_range!r}")
    existing = _resumed(args.out) if os.path.exists(args.out) else {}
    shapes = ("linear", "cyclic") if args.shapes == "both" else (args.shapes,)
    algs = enumerate_admissible(args.max_vertices, args.max_length, shapes)
    todo = [a for a in algs if (a.lengths, a.cyclic) not in existing]
    payloads = [(a.lengths, a.cyclic, args.seed) for a in todo]
    computed = []
    if args.jobs > 1 and payloads:
        chunk = max(1, len(payloads) // (args.jobs * 4))
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            computed = _append_lines(
                args.out, pool.map(_sweep_record, payloads, chunksize=chunk)
            )
    elif payloads:
        computed = _append_lines(args.out, map(_sweep_record, payloads))
    tallies = [*existing.values(), *computed]
    summary = {
        "algebras": len(tallies),
        "computed": len(payloads),
        "resumed": len(existing),
    }
    for i, name in enumerate(_TALLIED):
        summary[name] = sum(t[i] for t in tallies)
    violations = summary["violations"]
    if args.n_range is not None:
        keys = [*existing, *((a.lengths, a.cyclic) for a in todo)]
        checked, range_violations = _range_check(keys, args.n_range, args.seed)
        summary["range_checked"] = checked
        summary["range_violations"] = range_violations
        violations += range_violations
    print(json.dumps(summary))
    return 1 if violations else 0


# -- reproduce ---------------------------------------------------------------------


def _over_simples(alg: KupischSeries, fn) -> list:
    return [fn(alg, simple(alg, i)) for i in alg.vertices()]


# Frozen expectations for two worked algebras, compared on demand.  Every
# expected value was derived by hand before the engine ran; the rows are
# the regression anchor for the whole package.  A row is
# (label, expected JSON value, function, *arguments): the function is
# called with the algebra first, and string arguments are module
# expressions over that algebra.
_GOLDEN = (
    (([3, 3, 4], True), (
        ("opposite", [3, 3, 4], KupischSeries.opposite),
        ("minimal_ag_n", 1, minimal_ag_parameter),
        ("n_auslander_n", None, n_auslander_parameter),
        ("gldim", "infinity", gldim),
        ("regular_id", 2, regular_id),
        ("regular_id_left", 2, regular_id_left),
        ("domdim", 2, domdim),
        ("gorenstein_degree", 2, gorenstein_degree),
        ("pd M(1,2)", 2, pd, "M(1,2)"),
        ("socle M(1,2)", "S(2)", socle, "M(1,2)"),
        ("pd S(2)", "infinity", pd, "S(2)"),
        ("I(1)", "M(2,3)", injective, 1),
        ("I(1) projective", True, is_projective, "I(1)"),
        ("I(2)", "M(3,3)", injective, 2),
        ("I(2) projective", False, is_projective, "I(2)"),
        ("I(3)", "M(3,4)", injective, 3),
        ("prinj", [2, 3], prinj_vertices),
        ("gpd S(1)", 0, gpd, "S(1)"),
        ("gpd S(2)", 2, gpd, "S(2)"),
        ("gpd S(3)", 1, gpd, "S(3)"),
        ("ext^1(S(1), algebra)", 0, ext_dim, "S(1)", "P(1)+P(2)+P(3)", 1),
        ("ext^2(S(2), algebra)", 1, ext_dim, "S(2)", "P(1)+P(2)+P(3)", 2),
        ("is_minimal_ag n=1", True, is_minimal_ag, 1),
        ("is_n_auslander n=1", False, is_n_auslander, 1),
        ("verify prinj n=1", "pass", verify_thm_prinj, 1),
        ("verify thm31-count n=1", "pass", verify_thm31_count, 1),
        ("verify lemma22", "pass", verify_ses_gpd_bounds),
    )),
    (([3, 3, 3, 3, 2, 1], False), (
        ("minimal_ag_n", 2, minimal_ag_parameter),
        ("n_auslander_n", 2, n_auslander_parameter),
        ("gldim", 3, gldim),
        ("regular_id", 3, regular_id),
        ("domdim", 3, domdim),
        ("gorenstein_degree", 3, gorenstein_degree),
        ("pd of simples", [3, 3, 2, 1, 1, 0], _over_simples, pd),
        ("gpd of simples", [3, 3, 2, 1, 1, 0], _over_simples, gpd),
        ("prinj", [1, 2, 3, 4], prinj_vertices),
        ("I(1)", "S(1)", injective, 1),
        ("I(6)", "M(4,3)", injective, 6),
        ("I(6) projective", True, is_projective, "I(6)"),
        ("pd M(3,2)", 2, pd, "M(3,2)"),
        ("socle M(3,2)", "S(4)", socle, "M(3,2)"),
        ("pd S(4)", 1, pd, "S(4)"),
        ("tau_2 S(2)", "M(4,2)", tau_n, "S(2)", 2),
        ("is_n_auslander n=2", True, is_n_auslander, 2),
        ("verify prinj n=2", "pass", verify_thm_prinj, 2),
        ("verify gp-socle-sub n=2", "pass", verify_thm_gp_socle_sub, 2),
        ("verify thm31-count n=2", "pass", verify_thm31_count, 2),
        ("verify lemma22", "pass", verify_ses_gpd_bounds),
    )),
)


def cmd_reproduce(args) -> int:
    total = mismatches = 0
    for (lengths, cyclic), rows in _GOLDEN:
        alg = KupischSeries.validate(lengths, cyclic)
        name = f"{'cyclic' if cyclic else 'linear'}({','.join(map(str, lengths))})"
        for label, expected, fn, *raw in rows:
            total += 1
            want = json.dumps(expected, separators=(",", ":"))
            try:
                fn_args = [parse_module(alg, x) if isinstance(x, str) else x for x in raw]
                got = json.dumps(_jsonable(fn(alg, *fn_args)), separators=(",", ":"))
            except Exception as exc:
                got = f"error:{type(exc).__name__}: {exc}"
            if got == want:
                print(f"ok        {name} {label} = {want}")
            else:
                mismatches += 1
                print(f"MISMATCH  {name} {label}: expected {want}, got {got}")
    print(f"{total - mismatches}/{total} rows match")
    return 1 if mismatches else 0


# -- wiring --------------------------------------------------------------------


def _add_algebra_args(sub) -> None:
    sub.add_argument("--kupisch", required=True, help="comma separated lengths")
    sub.add_argument("--cyclic", action="store_true", help="cyclic quiver")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakayama",
        description="exact homological calculator for Nakayama algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze", help="full classification report")
    _add_algebra_args(p_an)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.set_defaults(func=cmd_analyze)

    p_mod = subs.add_parser("module", help="one query about one module")
    _add_algebra_args(p_mod)
    p_mod.add_argument("--expr", required=True, help="module expression")
    p_mod.add_argument(
        "--query",
        required=True,
        help="pd | id | gpd | socle | top | envelope | cover | "
        "in-sub-lambda | ext:<k>:<target> | oracle-hom:<target> | "
        "oracle-ext1:<target> | oracle-injective | oracle-tau",
    )
    p_mod.add_argument(
        "--field-p", type=int, default=2, help="prime for oracle queries"
    )
    p_mod.set_defaults(func=cmd_module)

    p_ver = subs.add_parser("verify", help="run one theorem verifier")
    _add_algebra_args(p_ver)
    p_ver.add_argument(
        "--theorem",
        required=True,
        help="prinj | gp-socle-sub | thm31-count | lemma22 | precluster[:n]",
    )
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-extra", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = subs.add_parser("sweep", help="classify an enumerated family")
    p_sw.add_argument("--max-vertices", type=int, required=True)
    p_sw.add_argument("--max-length", type=int, required=True)
    p_sw.add_argument(
        "--shapes", choices=["linear", "cyclic", "both"], default="both"
    )
    p_sw.add_argument("--out", required=True, help="JSONL output path")
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument(
        "--n-range",
        default=None,
        help="also check the socle characterization at every level in "
        "'A:B' (inclusive) or 'auto' (all levels up to the Gorenstein "
        "degree); adds range counts to the summary",
    )
    p_sw.set_defaults(func=cmd_sweep)

    p_rep = subs.add_parser(
        "reproduce", help="recompute the frozen worked examples and diff"
    )
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NakayamaError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
