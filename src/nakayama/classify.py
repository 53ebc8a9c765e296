"""Algebra classification and mechanical theorem verifiers.

Each verifier checks one characterization on one algebra and reports a
typed verdict with explicit witnesses on failure, so a sweep over many
algebras doubles as a falsification search.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from .core import ExtendedNat, KupischSeries
from .errors import PreconditionFailed
from .homology import (
    _finite_degree,
    _gpd_table,
    _pd_table,
    domdim,
    gldim,
    gorenstein_degree,
    regular_id,
    regular_id_left,
)
from .modules import (
    ModuleSum,
    _index,
    _torsionless,
    indecomposables,
    injective,
)

# The verifiers read the per-algebra position tables directly.  These
# names stay bound here because perfbench/workloads.py traces them in
# this module.
from .homology import _gpd1, gpd, pd  # noqa: F401
from .modules import in_sub_lambda, is_injective, is_projective  # noqa: F401
from .modules import projective, simple, socle  # noqa: F401
from .notation import format_module

__all__ = [
    "ClassificationReport",
    "VerifierResult",
    "classify",
    "is_minimal_ag",
    "is_n_auslander",
    "is_self_injective",
    "minimal_ag_parameter",
    "n_auslander_parameter",
    "prinj_vertices",
    "verify_ses_gpd_bounds",
    "verify_thm31_count",
    "verify_thm_gp_socle_sub",
    "verify_thm_prinj",
]


# -- classification predicates -------------------------------------------------


def is_self_injective(alg: KupischSeries) -> bool:
    return len(prinj_vertices(alg)) == alg.num_vertices


def _least_level(alg: KupischSeries, dim: ExtendedNat, floor: int) -> int | None:
    """Least level n >= floor with dim <= n + 1 and dominant dimension at
    least n + 1, or None.  The levels that qualify run from
    max(dim - 1, 0) up to domdim - 1, so the only candidate is
    max(dim - 1, floor)."""
    if floor < 0:
        raise ValueError("the tilting level n must be >= 0")
    if not dim.is_finite:
        return None
    n = max(dim.value - 1, floor)
    return n if domdim(alg) >= ExtendedNat(n + 1) else None


def is_minimal_ag(alg: KupischSeries, n: int) -> bool:
    """Minimal n-Auslander-Gorenstein: self-injective dimension at most
    n + 1 and dominant dimension at least n + 1."""
    return _least_level(alg, regular_id(alg), n) == n


def is_n_auslander(alg: KupischSeries, n: int) -> bool:
    """n-Auslander: global dimension at most n + 1 and dominant dimension
    at least n + 1."""
    return _least_level(alg, gldim(alg), n) == n


def minimal_ag_parameter(alg: KupischSeries) -> int | None:
    """Least n making the algebra minimal n-Auslander-Gorenstein, or None."""
    return _least_level(alg, regular_id(alg), 0)


def n_auslander_parameter(alg: KupischSeries) -> int | None:
    """Least n making the algebra n-Auslander, or None."""
    return _least_level(alg, gldim(alg), 0)


def prinj_vertices(alg: KupischSeries) -> tuple[int, ...]:
    """Vertices whose indecomposable projective is also injective, that
    is, has zero cosyzygy."""
    idx = _index(alg)
    return tuple(i for i in alg.vertices() if idx.coomega[idx.projective_at(i)] < 0)


# -- verifier verdicts ----------------------------------------------------------


@dataclass(frozen=True)
class VerifierResult:
    theorem: str
    n: int | None
    passed: bool
    checked: int
    witnesses: tuple[dict, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        return {
            "status": "pass" if self.passed else "fail",
            "n": self.n,
            "checked": self.checked,
            "witnesses": list(self.witnesses),
            "note": self.note,
        }


def _skipped_verdict(note: str, status: str = "skipped") -> dict:
    return {"status": status, "n": None, "checked": 0, "witnesses": [], "note": note}


def _require_precluster_level(n: int) -> None:
    if n < 0:
        raise PreconditionFailed("the level n must be >= 0")


# -- verifier: projective-injectives vs low-Gpd socles --------------------------


def verify_thm_prinj(alg: KupischSeries, n: int) -> VerifierResult:
    """Check, vertex by vertex: the injective at j is projective exactly
    when the simple socle at j has Gorenstein projective dimension <= n.

    Applies to self-injective algebras (any n) and to algebras of
    Gorenstein degree exactly n + 1; anything else is a precondition
    error, not a verdict.
    """
    _require_precluster_level(n)
    g = _finite_degree(alg)
    if not is_self_injective(alg) and g != n + 1:
        raise PreconditionFailed(
            f"verifier needs Gorenstein degree n+1 = {n + 1} or a "
            f"self-injective algebra; {alg.lengths} has degree {g}"
        )
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    # I(j) is projective exactly when socle-j intervals are torsionless
    inj_is_proj = _torsionless(alg)
    witnesses = []
    for j in alg.vertices():
        lhs = inj_is_proj[j]
        socle_gpd = gpd_of[idx.simple_at(j)]
        rhs = socle_gpd <= n
        if lhs != rhs:
            witnesses.append(
                {
                    "vertex": j,
                    "injective": format_module(injective(alg, j)),
                    "injective_is_projective": lhs,
                    "socle_gpd": socle_gpd,
                }
            )
    return VerifierResult(
        "prinj", n, not witnesses, alg.num_vertices, tuple(witnesses)
    )


# -- verifier: Gpd <= n versus socle and embedding -------------------------------


def _sample_positions(alg: KupischSeries, seed: int, tag: str) -> list[list[int]]:
    """Deterministic small batch of 2- and 3-term direct sums, each as
    the positions of its summands in indecomposables(alg)."""
    key = repr((alg.lengths, alg.cyclic, seed, tag)).encode()
    rng = random.Random(zlib.crc32(key))
    size = range(alg.total_dim)
    return [rng.choices(size, k=width) for width in (2, 3) for _ in range(12)]


def _sample_sums(alg: KupischSeries, seed: int, tag: str) -> list[ModuleSum]:
    """The batch of _sample_positions as module sums."""
    indec = indecomposables(alg)
    return [
        ModuleSum(tuple(indec[p] for p in pieces))
        for pieces in _sample_positions(alg, seed, tag)
    ]


def verify_thm_gp_socle_sub(
    alg: KupischSeries, n: int, seed: int = 0
) -> VerifierResult:
    """Check the three-way equivalence, on every indecomposable and on a
    seeded batch of direct sums: Gpd(N) <= n, Gpd(soc N) <= n, and N
    embeds into a finite direct sum of projectives.  Each leg is a max or
    an all over the summands, read from the algebra's tables."""
    _require_precluster_level(n)
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    simple_gpd = {j: gpd_of[idx.simple_at(j)] for j in alg.vertices()}
    sub = _torsionless(alg)
    mods = [(p,) for p in range(len(gpd_of))]
    mods.extend(_sample_positions(alg, seed, "gp-socle-sub"))
    witnesses = []
    for pieces in mods:
        gpd_n = max(gpd_of[p] for p in pieces)
        socle_gpd = max(simple_gpd[idx.socle[p]] for p in pieces)
        a = gpd_n <= n
        b = socle_gpd <= n
        c = all(sub[idx.socle[p]] for p in pieces)
        if not (a == b == c):
            indecs = indecomposables(alg)
            module = ModuleSum(tuple(indecs[p] for p in pieces))
            witnesses.append(
                {
                    "module": format_module(module),
                    "gpd": gpd_n,
                    "socle_gpd": socle_gpd,
                    "in_sub_lambda": c,
                }
            )
    return VerifierResult(
        "gp-socle-sub", n, not witnesses, len(mods), tuple(witnesses)
    )


# -- verifier: counting low-Gpd simples ------------------------------------------


def verify_thm31_count(alg: KupischSeries, n: int) -> VerifierResult:
    """Over a minimal n-Auslander-Gorenstein algebra that is not
    semisimple: every simple has Gpd <= n or exactly n + 1, and the
    number with Gpd <= n equals the number of projective-injective
    indecomposables."""
    _require_precluster_level(n)
    if all(c == 1 for c in alg.lengths):
        raise PreconditionFailed("semisimple algebra; the count is degenerate")
    if not is_minimal_ag(alg, n):
        raise PreconditionFailed(
            f"{alg.lengths} is not minimal {n}-Auslander-Gorenstein"
        )
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    low = []
    witnesses = []
    for i in alg.vertices():
        val = gpd_of[idx.simple_at(i)]
        if val <= n:
            low.append(i)
        elif val != n + 1:
            witnesses.append(
                {"vertex": i, "simple_gpd": val, "reason": "dichotomy breached"}
            )
    pi = list(prinj_vertices(alg))
    if len(low) != len(pi):
        witnesses.append(
            {
                "low_gpd_simples": low,
                "projective_injectives": pi,
                "reason": "counts differ",
            }
        )
    note = f"low-Gpd simples: {len(low)}; projective-injectives: {len(pi)}"
    return VerifierResult(
        "thm31-count", n, not witnesses, alg.num_vertices, tuple(witnesses), note
    )


# -- verifier: Gpd bounds along canonical short exact sequences -------------------


def verify_ses_gpd_bounds(alg: KupischSeries) -> VerifierResult:
    """For every interval module Y and every proper radical layer cut
    0 -> X -> Y -> Z -> 0 (X = rad^s Y, Z = Y/rad^s Y), check:
    Gpd Y <= max(Gpd X, Gpd Z), Gpd X <= max(Gpd Y, Gpd Z - 1),
    Gpd Z <= max(Gpd Y, Gpd X + 1)."""
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    indecs = indecomposables(alg)
    checked = 0
    witnesses = []
    for py, y in enumerate(indecs):
        base = idx.simple_at(y.start)
        for s in range(1, y.length):
            # X = rad^s Y starts at the socle vertex of M(start, s + 1)
            px = idx.simple_at(idx.socle[base + s]) + y.length - s - 1
            pz = base + s - 1
            gx, gy, gz = gpd_of[px], gpd_of[py], gpd_of[pz]
            checked += 1
            bad = []
            if gy > max(gx, gz):
                bad.append("middle")
            if gx > max(gy, gz - 1):
                bad.append("sub")
            if gz > max(gy, gx + 1):
                bad.append("quotient")
            if bad:
                witnesses.append(
                    {
                        "sub": format_module(indecs[px]),
                        "middle": format_module(y),
                        "quotient": format_module(indecs[pz]),
                        "gpd": [gx, gy, gz],
                        "violates": bad,
                    }
                )
    return VerifierResult(
        "lemma22", None, not witnesses, checked, tuple(witnesses)
    )


# -- the full report --------------------------------------------------------------


REPORT_KEYS = (
    "kupisch",
    "cyclic",
    "regular_id",
    "regular_id_left",
    "domdim",
    "gldim",
    "gorenstein_degree",
    "self_injective",
    "minimal_ag_n",
    "n_auslander_n",
    "prinj",
    "simple_gpd",
    "theorem_verdicts",
)


@dataclass(frozen=True)
class ClassificationReport:
    algebra: KupischSeries
    regular_id: ExtendedNat
    regular_id_left: ExtendedNat
    domdim: ExtendedNat
    gldim: ExtendedNat
    gorenstein_degree: ExtendedNat
    self_injective: bool
    minimal_ag_n: int | None
    n_auslander_n: int | None
    prinj: tuple[int, ...]
    simple_gpd: tuple
    theorem_verdicts: tuple = field(default=())

    def to_json(self) -> dict:
        vals = {
            "kupisch": list(self.algebra.lengths),
            "cyclic": self.algebra.cyclic,
            "regular_id": self.regular_id.to_json(),
            "regular_id_left": self.regular_id_left.to_json(),
            "domdim": self.domdim.to_json(),
            "gldim": self.gldim.to_json(),
            "gorenstein_degree": self.gorenstein_degree.to_json(),
            "self_injective": self.self_injective,
            "minimal_ag_n": self.minimal_ag_n,
            "n_auslander_n": self.n_auslander_n,
            "prinj": list(self.prinj),
            "simple_gpd": [
                v.to_json() if isinstance(v, ExtendedNat) else v
                for v in self.simple_gpd
            ],
            "theorem_verdicts": {name: dict(v) for name, v in self.theorem_verdicts},
        }
        return {k: vals[k] for k in REPORT_KEYS}


def classify(alg: KupischSeries, seed: int = 0) -> ClassificationReport:
    """Compute every headline invariant plus theorem verdicts for one algebra."""
    g = gorenstein_degree(alg)
    simples = list(map(_index(alg).simple_at, alg.vertices()))
    if g.is_finite:
        gpd_of = _gpd_table(alg)
        simple_gpd = tuple(gpd_of[p] for p in simples)
        n_check = max(g.value - 1, 0)
        verdicts = [
            ("prinj", verify_thm_prinj(alg, n_check).to_json()),
            ("gp-socle-sub", verify_thm_gp_socle_sub(alg, n_check, seed).to_json()),
            ("lemma22", verify_ses_gpd_bounds(alg).to_json()),
        ]
    else:
        pd_of = _pd_table(alg)
        simple_gpd = tuple(ExtendedNat(pd_of[p]) for p in simples)
        verdicts = [
            (name, _skipped_verdict("infinite Gorenstein degree", "error"))
            for name in ("prinj", "gp-socle-sub", "lemma22")
        ]

    mag = minimal_ag_parameter(alg)
    if all(c == 1 for c in alg.lengths):
        verdicts.append(("thm31-count", _skipped_verdict("semisimple algebra")))
    elif mag is None:
        verdicts.append(
            ("thm31-count", _skipped_verdict("not minimal Auslander-Gorenstein"))
        )
    else:
        verdicts.append(("thm31-count", verify_thm31_count(alg, mag).to_json()))

    return ClassificationReport(
        algebra=alg,
        regular_id=regular_id(alg),
        regular_id_left=regular_id_left(alg),
        domdim=domdim(alg),
        gldim=gldim(alg),
        gorenstein_degree=g,
        self_injective=is_self_injective(alg),
        minimal_ag_n=mag,
        n_auslander_n=n_auslander_parameter(alg),
        prinj=prinj_vertices(alg),
        simple_gpd=simple_gpd,
        theorem_verdicts=tuple(verdicts),
    )
