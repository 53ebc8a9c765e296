"""Command line interface.

Subcommands: analyze (full report for one algebra), module (one query
about one module), verify (run one theorem verifier), sweep (classify an
enumerated family to a JSONL file, resumable and parallel; the records'
schema, checks, resume and append live in `sweepfile`), reproduce
(recompute a frozen table of worked examples and diff).

Exit codes: 0 pass, 1 a verifier or comparison failed, 2 bad input or an
unmet precondition.  Errors are reported as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from collections import deque

from . import sweepfile
from .classify import (
    VERDICTS,
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
from .core import ExtendedNat, KupischSeries, count_admissible, iter_admissible

# Unused here: the sweep streams its algebras, but perfbench/workloads.py
# traces enumerate_admissible in this module.
from .core import enumerate_admissible  # noqa: F401
from .errors import NakayamaError, ParseError
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
# compact, built once; it encodes fresh trees of dicts and lists, which
# hold no cycle, so it skips the cycle check
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _digits(text: str, reason: str) -> int:
    """A number the command line reads by hand: ASCII digits alone, where
    int() would also take a sign, an underscore or another script's digits."""
    if not re.fullmatch("[0-9]+", text):
        raise ParseError(reason)
    return int(text)


def _integer(text: str) -> int:
    """An integer option's value: ASCII digits, after an optional leading
    minus, read as _digits reads them.  ParseError is raised out of the
    parser, so it is reported as JSON like any other."""
    reason = f"integer options take ASCII digits, got {text!r}"
    return -_digits(text[1:], reason) if text.startswith("-") else _digits(text, reason)


def _parse_lengths(text: str) -> list[int]:
    reason = f"bad --kupisch value {text!r}"
    return [_digits(tok.strip(), reason) for tok in text.split(",")]


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
        match = re.fullmatch("ext:([0-9]+):(.*)", query)
        if not match:
            raise ParseError(f"ext query wants ext:<k>:<target>, got {query!r}")
        result = ext_dim(alg, msum, parse_module(alg, match[2]), int(match[1]))
    elif query.startswith(("oracle-hom:", "oracle-ext1:")):
        name, target = query.split(":", 1)
        fn = oracle_hom_dim if name == "oracle-hom" else oracle_ext1_dim
        result = fn(alg, msum, parse_module(alg, target), args.field_p)
    elif query in ("oracle-injective", "oracle-tau"):
        fn = oracle_is_injective if query == "oracle-injective" else oracle_tau
        result = fn(alg, msum, args.field_p)
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
        n = args.n
        if ":" in token:
            reason = f"precluster wants an integer level, got {token!r}"
            n = _digits(token.partition(":")[2], reason)
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
    elif token not in VERDICTS:
        raise ParseError(f"unknown theorem {token!r}")
    elif args.n is None:
        raise ParseError(f"theorem {token!r} needs --n")
    elif token == "prinj":
        res = verify_thm_prinj(alg, args.n)
    elif token == "gp-socle-sub":
        res = verify_thm_gp_socle_sub(alg, args.n, args.seed)
    else:
        res = verify_thm31_count(alg, args.n)
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
    return _encode(rec), sweepfile.tally(rec)


def __getattr__(name: str):
    """The module attribute ProcessPoolExecutor, imported on first use and
    then kept as a global (PEP 562), so that only a sweep with workers
    loads the process pool and multiprocessing."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _sweep_chunk(payloads) -> list[tuple[str, tuple[bool, ...]]]:
    """A worker's task: the _sweep_record results of a few algebras."""
    return [_sweep_record(payload) for payload in payloads]


_CHUNK = 256  # algebras per pool task
_WINDOW = 2  # pool tasks in flight per worker


def _pooled(payloads, workers: int):
    """The _sweep_record results of payloads, in order, from a pool of
    workers.  The payloads are cut into _CHUNK-sized tasks, and at most
    _WINDOW tasks per worker are in flight: a new one is submitted only
    when the oldest one's results are taken.  So neither this process nor
    a worker holds more than a window of records, whatever the bounds.  A
    task that raises ends the results there, after every earlier task's."""
    chunks = iter(lambda: list(itertools.islice(payloads, _CHUNK)), [])
    executor = sys.modules[__name__].ProcessPoolExecutor  # patchable, see __getattr__
    with executor(max_workers=workers) as pool:
        window = deque(
            pool.submit(_sweep_chunk, chunk)
            for chunk in itertools.islice(chunks, _WINDOW * workers)
        )
        while window:
            results = window.popleft().result()
            chunk = next(chunks, None)
            if chunk is not None:
                window.append(pool.submit(_sweep_chunk, chunk))
            yield from results


def _range_check(algs, window: tuple[int, int] | None, seed: int) -> tuple[int, int]:
    """Re-verify the socle characterization across a whole range of
    levels: at each n the verdict must agree with the classifier, pass
    and fail alike.  The levels are the inclusive window (lo, hi), or
    from 0 when it is None, clipped to the Gorenstein degree minus one.
    algs is walked once."""
    checked = violations = 0
    for alg in algs:
        g = gorenstein_degree(alg)
        if not g.is_finite:
            continue
        top_level = max(g.value - 1, 0)
        lo, hi = window or (0, top_level)
        for n in range(lo, min(hi, top_level) + 1):
            res = verify_thm_gp_socle_sub(alg, n, seed)
            checked += 1
            if res.passed != is_minimal_ag(alg, n):
                violations += 1
    return checked, violations


def cmd_sweep(args) -> int:
    counts = {
        "--max-vertices": args.max_vertices,
        "--max-length": args.max_length,
        "--jobs": args.jobs,
    }
    for name, value in counts.items():
        if value < 1:
            raise ParseError(f"{name} wants at least 1, got {value}")
    window = None  # --n-range auto: every level
    if args.n_range not in (None, "auto"):
        match = re.fullmatch("([0-9]+):([0-9]+)", args.n_range)
        if not match or int(match[1]) > int(match[2]):
            raise ParseError(
                f"--n-range wants 'auto' or 'A:B' with A <= B, got {args.n_range!r}"
            )
        window = (int(match[1]), int(match[2]))
    shapes = ("linear", "cyclic") if args.shapes == "both" else (args.shapes,)

    def fresh():
        """This run's algebras, streamed anew on each call."""
        return iter_admissible(args.max_vertices, args.max_length, shapes)

    existing, sums = sweepfile.resumed(args.out, fresh())
    payloads = (
        (a.lengths, a.cyclic, args.seed)
        for a in fresh()
        if (a.lengths, a.cyclic) not in existing
    )
    workers = 1
    if args.jobs > 1:
        # the pool forks every worker at the first submit, so never ask
        # for more than there are algebras to compute or CPUs
        total = count_admissible(args.max_vertices, args.max_length, shapes)
        workers = min(args.jobs, total - len(existing), os.cpu_count() or 1)
    results = _pooled(payloads, workers) if workers > 1 else map(_sweep_record, payloads)
    computed = sweepfile.append_lines(args.out, results, sums)
    summary = {
        "algebras": len(existing) + computed,
        "computed": computed,
        "resumed": len(existing),
        **dict(zip(sweepfile.TALLIED, sums)),
    }
    violations = summary["violations"]
    if args.n_range is not None:
        checked, range_violations = _range_check(fresh(), window, args.seed)
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
            want = _encode(expected)
            try:
                fn_args = [parse_module(alg, x) if isinstance(x, str) else x for x in raw]
                got = _encode(_jsonable(fn(alg, *fn_args)))
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
    p_an.add_argument("--seed", type=_integer, default=0)
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
        "--field-p", type=_integer, default=2, help="prime for oracle queries"
    )
    p_mod.set_defaults(func=cmd_module)

    p_ver = subs.add_parser("verify", help="run one theorem verifier")
    _add_algebra_args(p_ver)
    p_ver.add_argument(
        "--theorem",
        required=True,
        help=" | ".join((*VERDICTS, "precluster[:n]")),
    )
    p_ver.add_argument("--n", type=_integer, default=None)
    p_ver.add_argument("--seed", type=_integer, default=0)
    p_ver.add_argument("--max-extra", type=_integer, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = subs.add_parser("sweep", help="classify an enumerated family")
    p_sw.add_argument("--max-vertices", type=_integer, required=True)
    p_sw.add_argument("--max-length", type=_integer, required=True)
    p_sw.add_argument(
        "--shapes", choices=["linear", "cyclic", "both"], default="both"
    )
    p_sw.add_argument("--out", required=True, help="JSONL output path")
    p_sw.add_argument("--jobs", type=_integer, default=1)
    p_sw.add_argument("--seed", type=_integer, default=0)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (NakayamaError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
