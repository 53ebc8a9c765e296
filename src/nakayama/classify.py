"""Algebra classification and mechanical theorem verifiers.

Each verifier checks one characterization on one algebra and reports a
typed verdict with explicit witnesses on failure, so a sweep over many
algebras doubles as a falsification search.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain

from .core import ExtendedNat, KupischSeries, _at_least, per_algebra
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
from .modules import _index, _interval_at, _torsionless

# The verifiers read the per-algebra position tables directly.  These
# names stay bound here because perfbench/workloads.py traces them in
# this module.
from .homology import _gpd1, gpd, pd  # noqa: F401
from .modules import in_sub_lambda, indecomposables, is_injective  # noqa: F401
from .modules import injective, is_projective, projective, simple, socle  # noqa: F401
from .notation import interval_text

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
    max(dim - 1, floor), and it qualifies when domdim is infinite or
    greater than n (plain ints compared)."""
    if not dim.is_finite:
        return None
    n = max(dim.value - 1, floor)
    dom = domdim(alg)
    return n if not dom.is_finite or dom.value > n else None


def is_minimal_ag(alg: KupischSeries, n: int) -> bool:
    """Minimal n-Auslander-Gorenstein: self-injective dimension at most
    n + 1 and dominant dimension at least n + 1."""
    _at_least(n, 0, "the tilting level n must be >= 0")
    return _least_level(alg, regular_id(alg), n) == n


def is_n_auslander(alg: KupischSeries, n: int) -> bool:
    """n-Auslander: global dimension at most n + 1 and dominant dimension
    at least n + 1."""
    _at_least(n, 0, "the tilting level n must be >= 0")
    return _least_level(alg, gldim(alg), n) == n


def minimal_ag_parameter(alg: KupischSeries) -> int | None:
    """Least n making the algebra minimal n-Auslander-Gorenstein, or None."""
    return _least_level(alg, regular_id(alg), 0)


def n_auslander_parameter(alg: KupischSeries) -> int | None:
    """Least n making the algebra n-Auslander, or None."""
    return _least_level(alg, gldim(alg), 0)


@per_algebra
def prinj_vertices(alg: KupischSeries) -> tuple[int, ...]:
    """Vertices whose indecomposable projective is also injective, that
    is, has zero cosyzygy."""
    idx = _index(alg)
    return tuple(i for i, p in enumerate(idx.projective, 1) if idx.coomega[p] < 0)


# -- verifier verdicts ----------------------------------------------------------


VERDICTS = ("prinj", "gp-socle-sub", "lemma22", "thm31-count")  # report order
STATUSES = ("pass", "fail", "error", "skipped")


def _verdict(status: str, n=None, checked=0, witnesses=(), note="") -> dict:
    """One entry of a report's theorem_verdicts, its keys in this order."""
    return {
        "status": status, "n": n, "checked": checked, "witnesses": list(witnesses),
        "note": note,
    }


VERDICT_KEYS = tuple(_verdict("pass"))  # every verdict's keys, in order


@dataclass(frozen=True)
class VerifierResult:
    theorem: str
    n: int | None
    passed: bool
    checked: int
    witnesses: tuple[dict, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        status = "pass" if self.passed else "fail"
        return _verdict(status, self.n, self.checked, self.witnesses, self.note)


@lru_cache(maxsize=4096)
def _text_row(i: int, c: int) -> tuple[str, ...]:
    """The texts of M(i, 1), ..., M(i, c).  They depend on (i, c) alone,
    so every algebra shares the row, and the cache holds strings only."""
    return tuple([interval_text(i, l) for l in range(1, c + 1)])


def _texts(alg: KupischSeries) -> list[str]:
    """The text of the interval at every position, in index order: M(i, l)
    for l = 1..c_i, vertex by vertex, joined from the shared rows.  A
    verifier with witnesses builds this list once and writes every
    witness's text from it."""
    rows = map(_text_row, range(1, len(alg.lengths) + 1), alg.lengths)
    return list(chain.from_iterable(rows))


# -- verifier: projective-injectives vs low-Gpd socles --------------------------


def verify_thm_prinj(alg: KupischSeries, n: int) -> VerifierResult:
    """Check, vertex by vertex: the injective at j is projective exactly
    when the simple socle at j has Gorenstein projective dimension <= n.

    Applies to self-injective algebras (any n) and to algebras of
    Gorenstein degree exactly n + 1; anything else is a precondition
    error, not a verdict.
    """
    _at_least(n, 0, "the level n must be >= 0", PreconditionFailed)
    g = _finite_degree(alg)
    if not is_self_injective(alg) and g != n + 1:
        raise PreconditionFailed(
            f"verifier needs Gorenstein degree n+1 = {n + 1} or a "
            f"self-injective algebra; {alg.lengths} has degree {g}"
        )
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    witnesses = []
    for j, (q, s) in enumerate(zip(idx.injective, idx.simple), 1):
        lhs = idx.omega[q] < 0  # I(j) is projective: zero syzygy
        socle_gpd = gpd_of[s]
        rhs = socle_gpd <= n
        if lhs != rhs:
            i, l = _interval_at(idx.offset, q)
            witnesses.append(
                {
                    "vertex": j,
                    "injective": _text_row(i, alg.lengths[i - 1])[l - 1],
                    "injective_is_projective": lhs,
                    "socle_gpd": socle_gpd,
                }
            )
    return VerifierResult(
        "prinj", n, not witnesses, alg.num_vertices, tuple(witnesses)
    )


# -- verifier: Gpd <= n versus socle and embedding -------------------------------


def _sample_positions(alg: KupischSeries, seed: int) -> list[list[int]]:
    """Deterministic small batch of 2- and 3-term direct sums, each as
    the positions of its summands in indecomposables(alg): 12 pairs and
    then 12 triples, cut from one seeded draw of 60 positions.  The key
    keeps the verifier's name, on which the pinned sweep bytes depend.
    Each draw is floor(random() * n), n the number of positions, which is
    what Random.choices(range(n), k=60) computes; so the bytes rest on
    random() alone, whose sequence for a given seed Python keeps from
    one version to the next."""
    key = repr((alg.lengths, alg.cyclic, seed, "gp-socle-sub")).encode()
    draw, size = random.Random(zlib.crc32(key)).random, alg.total_dim
    draws = [int(draw() * size) for _ in range(60)]
    return [draws[k : k + 2] for k in range(0, 24, 2)] + [
        draws[k : k + 3] for k in range(24, 60, 3)
    ]


def verify_thm_gp_socle_sub(
    alg: KupischSeries, n: int, seed: int = 0
) -> VerifierResult:
    """Check the three-way equivalence, on every indecomposable and on a
    seeded batch of direct sums: Gpd(N) <= n, Gpd(soc N) <= n, and N
    embeds into a finite direct sum of projectives.  Each position gets a
    code with one bit per leg (1: Gpd <= n, 2: socle Gpd <= n, 4:
    torsionless).  Each leg of a sum is a max or an all over its
    summands, so the AND of their codes holds the sum's legs, and the
    module passes when that AND is 0 or 7.  When every indecomposable
    passes, so does every sum, and the sums are not drawn; they count as
    checked all the same.  Only a witness gets its fields, and its text
    comes from the row of position texts."""
    _at_least(n, 0, "the level n must be >= 0", PreconditionFailed)
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    socle_at = idx.socle
    sub = _torsionless(alg)
    socle_gpd = [0] + [gpd_of[p] for p in idx.simple]
    # the two legs read off the socle vertex j, bits 2 and 4, once per j
    legs = [(g <= n) << 1 | t << 2 for g, t in zip(socle_gpd, sub)]
    code = [(g <= n) | legs[j] for g, j in zip(gpd_of, socle_at)]
    checked = len(code) + 24  # the indecomposables, then 12 pairs and 12 triples
    if code.count(0) + code.count(7) == len(code):
        return VerifierResult("gp-socle-sub", n, True, checked)
    text = _texts(alg)
    # c > 3 and bits > 3: the torsionless bit 4 is set
    witnesses = [
        {
            "module": text[p],
            "gpd": gpd_of[p],
            "socle_gpd": socle_gpd[socle_at[p]],
            "in_sub_lambda": c > 3,
        }
        for p, c in enumerate(code)
        if c and c != 7
    ]
    for pieces in _sample_positions(alg, seed):
        # a pair's last summand is its second: & and max take it twice
        a, b, c = pieces[0], pieces[1], pieces[-1]
        bits = code[a] & code[b] & code[c]
        if bits and bits != 7:
            sa, sb, sc = socle_at[a], socle_at[b], socle_at[c]
            witnesses.append(
                {
                    "module": "+".join([text[p] for p in sorted(pieces)]),
                    "gpd": max(gpd_of[a], gpd_of[b], gpd_of[c]),
                    "socle_gpd": max(socle_gpd[sa], socle_gpd[sb], socle_gpd[sc]),
                    "in_sub_lambda": bits > 3,
                }
            )
    return VerifierResult("gp-socle-sub", n, not witnesses, checked, tuple(witnesses))


# -- verifier: counting low-Gpd simples ------------------------------------------


def verify_thm31_count(alg: KupischSeries, n: int) -> VerifierResult:
    """Over a minimal n-Auslander-Gorenstein algebra that is not
    semisimple: every simple has Gpd <= n or exactly n + 1, and the
    number with Gpd <= n equals the number of projective-injective
    indecomposables."""
    _at_least(n, 0, "the level n must be >= 0", PreconditionFailed)
    if max(alg.lengths) == 1:
        raise PreconditionFailed("semisimple algebra; the count is degenerate")
    if not is_minimal_ag(alg, n):
        raise PreconditionFailed(
            f"{alg.lengths} is not minimal {n}-Auslander-Gorenstein"
        )
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    low = []
    witnesses = []
    for i, p in enumerate(idx.simple, 1):
        val = gpd_of[p]
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
    Gpd Z <= max(Gpd Y, Gpd X + 1).  The walk takes (base, c) off the
    index's simples and the Kupisch lengths, base the position of S(i),
    and Y = M(i, t + 1) at base + t.  For each vertex and s it reads Z =
    M(i, s) and the start of X once; then t runs over the two contiguous
    rows of X and Y.  Each cut tests the three bounds once, and the
    witnesses come in (vertex, t, s) order; only a witness names the
    bounds it breaks, and its text comes from the row of position texts."""
    gpd_of = _gpd_table(alg)
    idx = _index(alg)
    simple, socle_at = idx.simple, idx.socle
    checked = 0
    cuts = []
    for base, c in zip(simple, alg.lengths):
        for s in range(1, c):
            pz = base + s - 1
            gz = gpd_of[pz]
            # X = rad^s Y starts at the socle vertex of M(i, s + 1): the
            # simple there at t = s, and at every t it sits at dx + t
            dx = simple[socle_at[base + s] - 1] - s
            for t in range(s, c):
                gx, gy = gpd_of[dx + t], gpd_of[base + t]
                if gy > gx and gy > gz or gx > gy and gx >= gz or gz > gy and gz > gx + 1:
                    cuts.append((base + t, pz, dx + t))
        checked += c * (c - 1) // 2
    cuts.sort()  # Y's position orders by (vertex, t), Z's by s
    text = _texts(alg) if cuts else []
    witnesses = []
    for py, pz, px in cuts:
        gx, gy, gz = gpd_of[px], gpd_of[py], gpd_of[pz]
        breaks = (
            ("middle", gy > gx and gy > gz),
            ("sub", gx > gy and gx >= gz),
            ("quotient", gz > gy and gz > gx + 1),
        )
        witnesses.append(
            {
                "sub": text[px],
                "middle": text[py],
                "quotient": text[pz],
                "gpd": [gx, gy, gz],
                "violates": [name for name, broken in breaks if broken],
            }
        )
    return VerifierResult("lemma22", None, not witnesses, checked, tuple(witnesses))


# -- the full report --------------------------------------------------------------


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
    theorem_verdicts: dict  # verdict name -> _verdict dict, in VERDICTS order

    def to_json(self) -> dict:
        return {  # in REPORT_KEYS order
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
            "theorem_verdicts": {k: dict(v) for k, v in self.theorem_verdicts.items()},
        }


# the sweep record's keys: the report's fields, the algebra written as two
REPORT_KEYS = ("kupisch", "cyclic", *[f.name for f in fields(ClassificationReport)[1:]])


def classify(alg: KupischSeries, seed: int = 0) -> ClassificationReport:
    """Compute every headline invariant plus theorem verdicts for one algebra."""
    g = gorenstein_degree(alg)
    simples = _index(alg).simple
    if g.is_finite:
        gpd_of = _gpd_table(alg)
        simple_gpd = tuple([gpd_of[p] for p in simples])
        n_check = max(g.value - 1, 0)
        verdicts = {
            "prinj": verify_thm_prinj(alg, n_check).to_json(),
            "gp-socle-sub": verify_thm_gp_socle_sub(alg, n_check, seed).to_json(),
            "lemma22": verify_ses_gpd_bounds(alg).to_json(),
        }
    else:
        pd_of = _pd_table(alg)
        simple_gpd = tuple([ExtendedNat(pd_of[p]) for p in simples])
        error = "infinite Gorenstein degree"  # thm31-count is decided below
        verdicts = {name: _verdict("error", note=error) for name in VERDICTS[:3]}

    mag = minimal_ag_parameter(alg)
    if max(alg.lengths) == 1:
        count = _verdict("skipped", note="semisimple algebra")
    elif mag is None:
        count = _verdict("skipped", note="not minimal Auslander-Gorenstein")
    else:
        count = verify_thm31_count(alg, mag).to_json()
    verdicts["thm31-count"] = count

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
        theorem_verdicts=verdicts,
    )
