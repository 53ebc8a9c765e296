"""Workload inputs, made from the benchmark seed, and workload bodies.

Every input is a deterministic function of (workload, seed, size).  The
samples are stratified: each stratum of the pool gets a fixed quota, so
every seed draws the same amount of work and a run-to-run difference in
time is the machine's, not the sample's.

Workloads (see BENCHMARK.json for why each one is there):

- sweep-serial / sweep-jobs2: ``nakayama sweep`` over every admissible
  series within the sweep bounds, through ``nakayama.cli.main``, into a
  fresh file.
- oracle-xcheck: the matrix oracle against the combinatorial engine on
  every pair of indecomposables of a sample of small algebras.
- precluster-search: ``search_precluster`` at n = 1 and n = 2 on cyclic
  (4,4,4,4) and a sample of algebras with 7 or 8 non-projective,
  non-injective indecomposables.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from types import SimpleNamespace

from tracer import Tracer, module

SWEEPS = {"sweep-serial": 1, "sweep-jobs2": 2}  # workload -> --jobs
WORKLOADS = (*SWEEPS, "oracle-xcheck", "precluster-search")

# Per size: sweep bounds, the pool the samples come from, the oracle
# sample as (count, largest total dimension), and the precluster sample
# as (anchor, numbers of extra indecomposables to draw from, count).  The
# anchor is searched on every seed: cyclic (4,4,4,4) has 12 extras, so
# 4096 subsets per level, the heaviest case the search is sized for.  The
# drawn algebras vary with the seed around it.
SIZES = {
    "full": {
        "sweep": (7, 9),
        "pool": (6, 8),
        "oracle": (55, 20),
        "precluster": ((4, 4, 4, 4), (7, 8), 2),
    },
    "tiny": {
        "sweep": (4, 5),
        "pool": (4, 5),
        "oracle": (4, 8),
        "precluster": ((2, 2), (3,), 2),
    },
}
PRECLUSTER_LEVELS = (1, 2)


def algebra_key(alg) -> str:
    shape = "cyclic" if alg.cyclic else "linear"
    return f"{shape}:{','.join(map(str, alg.lengths))}"


def stratified_sample(rng: random.Random, items, key, count: int) -> list:
    """`count` items without replacement; each stratum (value of `key`)
    gets a quota proportional to its size, rounded by largest remainder,
    so the quotas, and with them the amount of work, are the same for
    every seed."""
    strata: dict = {}
    for item in items:
        strata.setdefault(key(item), []).append(item)
    keys = sorted(strata)
    exact = {k: count * len(strata[k]) / len(items) for k in keys}
    quota = {k: int(exact[k]) for k in keys}
    short = count - sum(quota.values())
    for k in sorted(keys, key=lambda k: (quota[k] - exact[k], k))[:short]:
        quota[k] += 1
    out = []
    for k in keys:
        out.extend(rng.sample(strata[k], quota[k]))
    return out


def extras(nk, alg) -> list:
    """Indecomposables that are neither projective nor injective: the
    members search_precluster grows its candidates from."""
    forced = {nk.projective(alg, i) for i in alg.vertices()}
    forced.update(nk.injective(alg, i) for i in alg.vertices())
    return [m for m in nk.indecomposables(alg) if m not in forced]


def precluster_pool(nk, size: str) -> list:
    """The anchor first, then the size's pool members with a number of
    extras the precluster sample draws from."""
    anchor, wanted, _ = SIZES[size]["precluster"]
    first = nk.KupischSeries.validate(list(anchor), True)
    return [first] + [
        a for a in nk.enumerate_admissible(*SIZES[size]["pool"])
        if a != first and len(extras(nk, a)) in wanted
    ]


def build_inputs(nk, workload: str, seed: int, size: str):
    """The workload's inputs for this seed; `nk` is the imported package."""
    spec = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload in SWEEPS:
        vertices, length = spec["sweep"]
        return SimpleNamespace(
            argv=[
                "sweep", "--max-vertices", str(vertices), "--max-length", str(length),
                "--jobs", str(SWEEPS[workload]), "--seed", str(seed),
            ]
        )
    if workload == "oracle-xcheck":
        count, max_dim = spec["oracle"]
        small = [a for a in nk.enumerate_admissible(*spec["pool"]) if a.total_dim <= max_dim]
        algebras = stratified_sample(
            rng, small, lambda a: (a.total_dim, a.cyclic, a.num_vertices), count
        )
        return SimpleNamespace(
            algebras=algebras, indecs=[nk.indecomposables(a) for a in algebras]
        )
    if workload == "precluster-search":
        anchor, *pool = precluster_pool(nk, size)
        count = spec["precluster"][2]
        drawn = stratified_sample(rng, pool, lambda a: (len(extras(nk, a)), a.total_dim), count)
        algebras = [anchor, *drawn]
        return SimpleNamespace(
            searches=[(a, n) for a in algebras for n in PRECLUSTER_LEVELS],
            subsets=sum(2 ** len(extras(nk, a)) for a in algebras) * len(PRECLUSTER_LEVELS),
        )
    raise ValueError(f"unknown workload {workload!r}")


# -- tracing sites -------------------------------------------------------------

# Names the package looks up at call time, wrapped in traced runs:
# (metric name, module, attribute, record a span per call).
SITES = [
    ("core.enumerate", "nakayama.cli", "enumerate_admissible", True),
    ("classify.classify", "nakayama.cli", "classify", True),
    *(
        (f"classify.{f}", "nakayama.classify", f, True)
        for f in (
            "verify_thm_gp_socle_sub", "verify_ses_gpd_bounds",
            "verify_thm_prinj", "verify_thm31_count",
        )
    ),
    ("classify.minimal_ag_parameter", "nakayama.classify", "minimal_ag_parameter", False),
    ("homology.gpd", "nakayama.classify", "gpd", False),
    ("homology.gpd", "nakayama.classify", "_gpd1", False),
    *(
        (f"homology.{f}", "nakayama.classify", f, False)
        for f in ("gorenstein_degree", "domdim", "gldim", "regular_id", "regular_id_left", "pd")
    ),
    *(
        (f"modules.{f}", "nakayama.classify", f, False)
        for f in (
            "in_sub_lambda", "socle", "indecomposables", "simple", "injective",
            "is_injective", "is_projective", "projective",
        )
    ),
    ("modules.hom_dim", "nakayama.homology", "hom_dim", False),
    ("homology.ext_dim", "nakayama.precluster", "ext_dim", False),
    ("precluster.is_precluster", "nakayama.precluster", "is_precluster", False),
]
# With --jobs 2 the workers are forked from the traced process, so only
# names that the parent alone calls are wrapped.
PARENT_SITES = [SITES[0]]


class _TracedJson:
    """Stands in for the json module inside nakayama.cli, timing dumps."""

    def __init__(self, tracer: Tracer):
        self.dumps = tracer.wrap("cli.serialize", json.dumps)

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(tracer: Tracer, workload: str) -> None:
    cli = module("nakayama.cli")
    for name, mod, attr, record in SITES if workload != "sweep-jobs2" else PARENT_SITES:
        tracer.patch(name, module(mod), attr, record)
    if workload == "sweep-jobs2":
        base = cli.ProcessPoolExecutor

        class TimedPool(base):
            """Times the parent's wait for the workers' results."""

            def map(self, fn, *iterables, **kwargs):
                results = tracer.call(
                    "cli.pool_map", lambda: list(base.map(self, fn, *iterables, **kwargs))
                )
                return iter(results)

        tracer.patch("cli.pool_map", cli, "ProcessPoolExecutor", wrapper=TimedPool)
    else:
        tracer.patch("cli.serialize", cli, "json", wrapper=_TracedJson(tracer))
        report = module("nakayama.classify").ClassificationReport
        tracer.patch("classify.to_json", report, "to_json")


def api(nk, tracer: Tracer | None) -> SimpleNamespace:
    """The public functions the benchmark's own workload code calls,
    wrapped in spans when traced."""
    names = {
        "oracle_is_injective": "oracle.is_injective",
        "oracle_tau": "oracle.tau",
        "oracle_hom_dim": "oracle.hom_dim",
        "oracle_ext1_dim": "oracle.ext1_dim",
        "is_injective": "modules.is_injective",
        "ar_translate": "precluster.ar_translate",
        "hom_dim": "modules.hom_dim",
        "ext_dim": "homology.ext_dim",
        "search_precluster": "precluster.search",
    }
    fns = {attr: getattr(nk, attr) for attr in names}
    if tracer is not None:
        fns = {attr: tracer.wrap(names[attr], fn, record=True) for attr, fn in fns.items()}
    return SimpleNamespace(**fns)


# -- workload bodies -----------------------------------------------------------


def run_sweep(inputs, out_path: str, tracer: Tracer | None) -> dict:
    main = module("nakayama.cli").main
    argv = [*inputs.argv, "--out", out_path]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.call("cli.main", main, argv) if tracer else main(argv)
    lines = buf.getvalue().strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = {"unparsed": buf.getvalue()[-500:]}
    return {"exit": code, "summary": summary}


def run_oracle_xcheck(inputs, calls) -> dict:
    """Criterion 07's pattern: every comparison is one check."""
    checks = pairs = 0
    mismatches = []
    for alg, ind in zip(inputs.algebras, inputs.indecs):
        for x in ind:
            checks += 2
            if calls.oracle_is_injective(alg, x) != calls.is_injective(alg, x):
                mismatches.append(["is_injective", algebra_key(alg), repr(x)])
            if calls.oracle_tau(alg, x) != calls.ar_translate(alg, x):
                mismatches.append(["tau", algebra_key(alg), repr(x)])
            for y in ind:
                checks += 2
                pairs += 1
                if calls.oracle_hom_dim(alg, x, y) != calls.hom_dim(alg, x, y):
                    mismatches.append(["hom", algebra_key(alg), repr(x), repr(y)])
                if calls.oracle_ext1_dim(alg, x, y) != calls.ext_dim(alg, x, y, 1):
                    mismatches.append(["ext1", algebra_key(alg), repr(x), repr(y)])
    return {"algebras": len(inputs.algebras), "checks": checks, "pairs": pairs,
            "mismatches": mismatches}


def run_precluster_search(inputs, calls) -> list:
    return [calls.search_precluster(alg, n) for alg, n in inputs.searches]
