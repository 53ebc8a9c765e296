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
from concurrent.futures import ProcessPoolExecutor

from .classify import (
    REPORT_KEYS,
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
from .core import KupischSeries, enumerate_admissible
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
    ModuleSum,
    in_sub_lambda,
    injective,
    injective_envelope,
    is_projective,
    projective_cover,
    regular_module,
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


def cmd_module(args) -> int:
    alg = _algebra(args)
    msum = parse_module(alg, args.expr)
    query = args.query
    if query == "pd":
        result = pd(alg, msum).to_json()
    elif query == "id":
        result = idim(alg, msum).to_json()
    elif query == "gpd":
        result = gpd(alg, msum)
    elif query == "socle":
        result = format_module(socle(alg, msum))
    elif query == "top":
        result = format_module(top(alg, msum))
    elif query == "envelope":
        result = format_module(injective_envelope(alg, msum))
    elif query == "cover":
        result = format_module(projective_cover(alg, msum))
    elif query == "in-sub-lambda":
        result = in_sub_lambda(alg, msum)
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
        result = format_module(
            ModuleSum.of(*(q for img in images for q in img))
        )
    else:
        raise ParseError(f"unknown query {query!r}")
    payload = {
        "kupisch": list(alg.lengths),
        "cyclic": alg.cyclic,
        "module": format_module(msum),
        "query": query,
        "result": result,
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
            "candidates": [[format_module(m) for m in cand] for cand in found],
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


def _sweep_record(payload) -> str:
    lengths, cyclic, seed = payload
    alg = KupischSeries(tuple(lengths), cyclic)
    return json.dumps(classify(alg, seed).to_json(), separators=(",", ":"))


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


def _range_check(records: list[dict], spec: str, seed: int) -> tuple[int, int]:
    """Re-verify the socle characterization across a whole range of
    levels: at each n the verdict must agree with the classifier, pass
    and fail alike.  'auto' means every level up to the Gorenstein
    degree; 'A:B' an inclusive window clipped to that."""
    checked = violations = 0
    for rec in records:
        alg = KupischSeries(tuple(rec["kupisch"]), bool(rec["cyclic"]))
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


def _read_jsonl(path: str) -> list[dict]:
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise IoError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return records


def _resumed(path: str) -> set:
    """The algebras already in a sweep file.  Every record must be a whole
    report of an admissible series in canonical form; anything else is a
    damaged file, refused before any work."""
    existing = set()
    for rec in _read_jsonl(path):
        missing = [k for k in REPORT_KEYS if not isinstance(rec, dict) or k not in rec]
        if missing:
            raise IoError(f"{path}: malformed record: lacks {', '.join(missing)}")
        try:
            alg = KupischSeries.validate(rec["kupisch"], bool(rec["cyclic"]))
        except (TypeError, NakayamaError) as exc:
            raise IoError(f"{path}: malformed record: {exc}") from exc
        if list(alg.lengths) != rec["kupisch"]:
            raise IoError(f"{path}: {rec['kupisch']} is not a canonical series")
        existing.add((alg.lengths, alg.cyclic))
    return existing


def cmd_sweep(args) -> int:
    if args.n_range not in (None, "auto") and not re.fullmatch(
        r"\d+:\d+", args.n_range
    ):
        raise ParseError(f"--n-range wants 'auto' or 'A:B', got {args.n_range!r}")
    existing = _resumed(args.out) if os.path.exists(args.out) else set()
    shapes = ("linear", "cyclic") if args.shapes == "both" else (args.shapes,)
    algs = enumerate_admissible(args.max_vertices, args.max_length, shapes)
    todo = [a for a in algs if (a.lengths, a.cyclic) not in existing]
    payloads = [(a.lengths, a.cyclic, args.seed) for a in todo]
    if args.jobs > 1 and payloads:
        chunk = max(1, len(payloads) // (args.jobs * 4))
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            lines = list(pool.map(_sweep_record, payloads, chunksize=chunk))
    else:
        lines = [_sweep_record(p) for p in payloads]
    if lines:
        try:
            with open(args.out, "a", encoding="utf-8") as fh:
                for line in lines:
                    fh.write(line + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    records = _read_jsonl(args.out)
    failed = sum(
        1
        for rec in records
        if any(v.get("status") == "fail" for v in rec["theorem_verdicts"].values())
    )
    violations = sum(1 for rec in records if _sweep_violations(rec))
    summary = {
        "algebras": len(records),
        "computed": len(lines),
        "resumed": len(existing),
        "self_injective": sum(1 for r in records if r["self_injective"]),
        "gorenstein": sum(
            1 for r in records if r["gorenstein_degree"] != "infinity"
        ),
        "minimal_ag": sum(1 for r in records if r["minimal_ag_n"] is not None),
        "n_auslander": sum(1 for r in records if r["n_auslander_n"] is not None),
        "failed_verdicts": failed,
        "violations": violations,
    }
    if args.n_range is not None:
        checked, range_violations = _range_check(records, args.n_range, args.seed)
        summary["range_checked"] = checked
        summary["range_violations"] = range_violations
        violations += range_violations
    print(json.dumps(summary))
    return 1 if violations else 0


# -- reproduce ---------------------------------------------------------------------


def _golden_rows():
    """Frozen expectations for two worked algebras, compared on demand.

    Every expected value here was derived by hand before the engine ran;
    the rows are the regression anchor for the whole package.
    """
    a = KupischSeries.validate([3, 3, 4], True)
    b = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
    m12 = parse_module(a, "M(1,2)")
    rows = [
        ("cyclic(3,3,4) opposite", "[3,3,4]",
         lambda: json.dumps(list(a.opposite().lengths), separators=(",", ":"))),
        ("cyclic(3,3,4) minimal_ag_n", "1",
         lambda: json.dumps(minimal_ag_parameter(a))),
        ("cyclic(3,3,4) n_auslander_n", "null",
         lambda: json.dumps(n_auslander_parameter(a))),
        ("cyclic(3,3,4) gldim", '"infinity"',
         lambda: json.dumps(gldim(a).to_json())),
        ("cyclic(3,3,4) regular_id", "2",
         lambda: json.dumps(regular_id(a).to_json())),
        ("cyclic(3,3,4) regular_id_left", "2",
         lambda: json.dumps(regular_id_left(a).to_json())),
        ("cyclic(3,3,4) domdim", "2",
         lambda: json.dumps(domdim(a).to_json())),
        ("cyclic(3,3,4) gorenstein_degree", "2",
         lambda: json.dumps(gorenstein_degree(a).to_json())),
        ("cyclic(3,3,4) pd M(1,2)", "2",
         lambda: json.dumps(pd(a, m12).to_json())),
        ("cyclic(3,3,4) socle M(1,2)", "S(2)",
         lambda: format_module(socle(a, m12))),
        ("cyclic(3,3,4) pd S(2)", '"infinity"',
         lambda: json.dumps(pd(a, simple(a, 2)).to_json())),
        ("cyclic(3,3,4) I(1)", "M(2,3)",
         lambda: format_module(injective(a, 1))),
        ("cyclic(3,3,4) I(1) projective", "true",
         lambda: json.dumps(is_projective(a, injective(a, 1)))),
        ("cyclic(3,3,4) I(2)", "M(3,3)",
         lambda: format_module(injective(a, 2))),
        ("cyclic(3,3,4) I(2) projective", "false",
         lambda: json.dumps(is_projective(a, injective(a, 2)))),
        ("cyclic(3,3,4) I(3)", "M(3,4)",
         lambda: format_module(injective(a, 3))),
        ("cyclic(3,3,4) prinj", "[2,3]",
         lambda: json.dumps(list(prinj_vertices(a)), separators=(",", ":"))),
        ("cyclic(3,3,4) gpd S(1)", "0", lambda: json.dumps(gpd(a, simple(a, 1)))),
        ("cyclic(3,3,4) gpd S(2)", "2", lambda: json.dumps(gpd(a, simple(a, 2)))),
        ("cyclic(3,3,4) gpd S(3)", "1", lambda: json.dumps(gpd(a, simple(a, 3)))),
        ("cyclic(3,3,4) ext^1(S(1), algebra)", "0",
         lambda: json.dumps(ext_dim(a, simple(a, 1), regular_module(a), 1))),
        ("cyclic(3,3,4) ext^2(S(2), algebra)", "1",
         lambda: json.dumps(ext_dim(a, simple(a, 2), regular_module(a), 2))),
        ("cyclic(3,3,4) is_minimal_ag n=1", "true",
         lambda: json.dumps(is_minimal_ag(a, 1))),
        ("cyclic(3,3,4) is_n_auslander n=1", "false",
         lambda: json.dumps(is_n_auslander(a, 1))),
        ("cyclic(3,3,4) verify prinj n=1", "pass",
         lambda: verify_thm_prinj(a, 1).to_json()["status"]),
        ("cyclic(3,3,4) verify thm31-count n=1", "pass",
         lambda: verify_thm31_count(a, 1).to_json()["status"]),
        ("cyclic(3,3,4) verify lemma22", "pass",
         lambda: verify_ses_gpd_bounds(a).to_json()["status"]),
        ("linear(3,3,3,3,2,1) minimal_ag_n", "2",
         lambda: json.dumps(minimal_ag_parameter(b))),
        ("linear(3,3,3,3,2,1) n_auslander_n", "2",
         lambda: json.dumps(n_auslander_parameter(b))),
        ("linear(3,3,3,3,2,1) gldim", "3",
         lambda: json.dumps(gldim(b).to_json())),
        ("linear(3,3,3,3,2,1) regular_id", "3",
         lambda: json.dumps(regular_id(b).to_json())),
        ("linear(3,3,3,3,2,1) domdim", "3",
         lambda: json.dumps(domdim(b).to_json())),
        ("linear(3,3,3,3,2,1) gorenstein_degree", "3",
         lambda: json.dumps(gorenstein_degree(b).to_json())),
        ("linear(3,3,3,3,2,1) pd of simples", "[3,3,2,1,1,0]",
         lambda: json.dumps(
             [pd(b, simple(b, i)).to_json() for i in b.vertices()],
             separators=(",", ":"))),
        ("linear(3,3,3,3,2,1) gpd of simples", "[3,3,2,1,1,0]",
         lambda: json.dumps(
             [gpd(b, simple(b, i)) for i in b.vertices()],
             separators=(",", ":"))),
        ("linear(3,3,3,3,2,1) prinj", "[1,2,3,4]",
         lambda: json.dumps(list(prinj_vertices(b)), separators=(",", ":"))),
        ("linear(3,3,3,3,2,1) I(1)", "S(1)",
         lambda: format_module(injective(b, 1))),
        ("linear(3,3,3,3,2,1) I(6)", "M(4,3)",
         lambda: format_module(injective(b, 6))),
        ("linear(3,3,3,3,2,1) I(6) projective", "true",
         lambda: json.dumps(is_projective(b, injective(b, 6)))),
        ("linear(3,3,3,3,2,1) pd M(3,2)", "2",
         lambda: json.dumps(pd(b, parse_module(b, "M(3,2)")).to_json())),
        ("linear(3,3,3,3,2,1) socle M(3,2)", "S(4)",
         lambda: format_module(socle(b, parse_module(b, "M(3,2)")))),
        ("linear(3,3,3,3,2,1) pd S(4)", "1",
         lambda: json.dumps(pd(b, simple(b, 4)).to_json())),
        ("linear(3,3,3,3,2,1) tau_2 S(2)", "M(4,2)",
         lambda: format_module(tau_n(b, simple(b, 2), 2))),
        ("linear(3,3,3,3,2,1) is_n_auslander n=2", "true",
         lambda: json.dumps(is_n_auslander(b, 2))),
        ("linear(3,3,3,3,2,1) verify prinj n=2", "pass",
         lambda: verify_thm_prinj(b, 2).to_json()["status"]),
        ("linear(3,3,3,3,2,1) verify gp-socle-sub n=2", "pass",
         lambda: verify_thm_gp_socle_sub(b, 2).to_json()["status"]),
        ("linear(3,3,3,3,2,1) verify thm31-count n=2", "pass",
         lambda: verify_thm31_count(b, 2).to_json()["status"]),
        ("linear(3,3,3,3,2,1) verify lemma22", "pass",
         lambda: verify_ses_gpd_bounds(b).to_json()["status"]),
    ]
    return rows


def cmd_reproduce(args) -> int:
    mismatches = 0
    for label, expected, thunk in _golden_rows():
        try:
            got = thunk()
        except Exception as exc:
            got = f"error:{type(exc).__name__}: {exc}"
        if got == expected:
            print(f"ok        {label} = {expected}")
        else:
            mismatches += 1
            print(f"MISMATCH  {label}: expected {expected}, got {got}")
    total = len(_golden_rows())
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
