"""AR translates, their higher compositions, and precluster tilting search."""

from __future__ import annotations

from dataclasses import dataclass

from .core import KupischSeries, _at_least
from .errors import InternalInconsistency, SearchSpaceTooLarge
from .homology import _ext1, _source
from .modules import (
    IntervalModule,
    ModuleSum,
    _Index,
    _index,
    _interval_at,
    _position,
    _positions,
    _sum_at,
)
from .notation import interval_text

# Unused here: perfbench/workloads.py traces ext_dim in this module.
from .homology import ext_dim  # noqa: F401

__all__ = [
    "PreclusterVerdict",
    "ar_translate",
    "ar_translate_inverse",
    "is_precluster",
    "search_precluster",
    "tau_n",
    "tau_n_inverse",
]


def ar_translate(alg: KupischSeries, m) -> ModuleSum:
    return tau_n(alg, m, 1)


def ar_translate_inverse(alg: KupischSeries, m) -> ModuleSum:
    return tau_n_inverse(alg, m, 1)


def _tau_at(idx: _Index, p: int, n: int, forward: bool) -> int:
    """Position of tau_n (forward) or tau_n^- of the interval at p, -1 for
    zero: M(i + 1, l) or M(i - 1, l) for its source M(i, l) (_source), a
    module as c_(i+1) >= c_i - 1 >= l, or as M(i - 1, l + 1) exists."""
    q = _source(idx.omega if forward else idx.coomega, p, n)
    if q < 0:
        return -1
    start, length = _interval_at(idx.offset, q)
    i = start if forward else start - 2  # 0-based vertex of the image
    return idx.simple[i % len(idx.simple)] + length - 1


def _tau_n(alg: KupischSeries, m, n: int, forward: bool) -> ModuleSum:
    """tau of Omega^(n-1) of each summand (forward), or tau^- of
    Omega^-(n-1), each read off the index by _tau_at."""
    _at_least(n, 1, "tau_n wants n >= 1" if forward else "tau_n_inverse wants n >= 1")
    idx = _index(alg)
    images = [_tau_at(idx, p, n, forward) for p in _positions(alg, m)]
    return _sum_at(idx.offset, images)


def tau_n(alg: KupischSeries, m, n: int) -> ModuleSum:
    """Higher AR translate: the AR translate of the (n-1)-th syzygy.

    Pieces that die along the way (a syzygy vanishes, or the surviving
    piece is projective) contribute zero, matching the stable picture.
    """
    return _tau_n(alg, m, n, True)


def tau_n_inverse(alg: KupischSeries, m, n: int) -> ModuleSum:
    return _tau_n(alg, m, n, False)


@dataclass(frozen=True)
class PreclusterVerdict:
    ok: bool
    n: int
    members: tuple[IntervalModule, ...]
    failures: tuple[dict, ...]
    note: str = ""


def is_precluster(alg: KupischSeries, members, n: int) -> PreclusterVerdict:
    """Decide whether the additive closure of `members` is n-precluster
    tilting: contains all projectives and injectives, is closed under
    tau_n and its inverse, and has no self-extensions in degrees
    1..n-1.  Functorial finiteness holds for free here (finitely many
    indecomposables), recorded in the note rather than re-checked.
    Members that are not modules over `alg` raise NotAdmissible.  They
    are validated once, and the rest, failure text included, is read off
    the index: P_i and I(i) from its projective and injective lists,
    tau_n and tau_n^- by _tau_at, Ext^k by _ext1 from the member's
    _source.  The verdict's members are the given intervals, sorted,
    each once.
    """
    _at_least(n, 1, "is_precluster wants n >= 1")
    by_position = {_position(alg, m): m for m in members}
    held = sorted(by_position)
    idx, mset = _index(alg), set(held)

    def text(p: int) -> str:
        return interval_text(*_interval_at(idx.offset, p))

    failures: list[dict] = []
    for pair in zip(idx.projective, idx.injective):
        for label, p in zip(("generator", "cogenerator"), pair):
            if p not in mset:
                failures.append({"condition": label, "missing": text(p)})
    for p in held:
        for label, forward in (("tau_n", True), ("tau_n_inverse", False)):
            q = _tau_at(idx, p, n, forward)
            if q >= 0 and q not in mset:
                failures.append(
                    {"condition": label, "member": text(p), "escapes_to": text(q)}
                )
    spans = [_interval_at(idx.offset, p) for p in held]
    for p in held:
        sources = ((k, _source(idx.omega, p, k)) for k in range(1, n))
        rows = [(k, _ext1(alg, idx, q, spans)) for k, q in sources if q >= 0]
        for j, y in enumerate(held):
            for k, row in rows:
                if row[j]:
                    failures.append(
                        {
                            "condition": "ext-vanishing",
                            "source": text(p),
                            "target": text(y),
                            "degree": k,
                            "dim": row[j],
                        }
                    )
    return PreclusterVerdict(
        ok=not failures,
        n=n,
        members=tuple(by_position[p] for p in held),
        failures=tuple(failures),
        note="functorial finiteness automatic: finitely many indecomposables",
    )


def _member_masks(alg: KupischSeries, n: int) -> tuple[list[int], list[int]]:
    """Bitmasks over positions for the level-n conditions of is_precluster,
    from the index: need[p] holds the pieces of tau_n and tau_n^- of the
    interval at p, and clash[p] every y with Ext^k between it and y,
    either way round, for some k in 1..n-1 (y itself included).  Masks
    are built with `|`: tau_n and tau_n^- of one interval can coincide.
    Ext^k(p, -) is the Ext^1 row of its source Omega^(k-1)(p), and many
    p share a source, so each row is computed once."""
    idx = _index(alg)
    size = idx.offset[-1]
    spans = [_interval_at(idx.offset, p) for p in range(size)]
    need, ext, rows = [0] * size, [0] * size, {}
    for p in range(size):
        for q in (_tau_at(idx, p, n, True), _tau_at(idx, p, n, False)):
            if q >= 0:
                need[p] |= 1 << q
        for k in range(1, n):
            q = _source(idx.omega, p, k)
            if q < 0:
                break
            if q not in rows:
                row = _ext1(alg, idx, q, spans)
                rows[q] = sum(1 << j for j, d in enumerate(row) if d)
            ext[p] |= rows[q]
    clash = ext[:]
    for p, row in enumerate(ext):
        for j in range(row.bit_length()):
            if row >> j & 1:
                clash[j] |= 1 << p
    return need, clash


def _forced(alg: KupischSeries) -> list[int]:
    """Positions of the projectives and injectives, sorted."""
    idx = _index(alg)
    return sorted({*idx.projective, *idx.injective})


def search_precluster(
    alg: KupischSeries,
    n: int,
    max_extra: int | None = None,
    subset_cap: int = 200_000,
) -> tuple[tuple[IntervalModule, ...], ...]:
    """All n-precluster tilting member sets grown from the forced seed
    (projectives and injectives) by subsets of the remaining
    indecomposables (the extras) of at most max_extra members, smallest
    first and in itertools.combinations order within one size.

    A set is decided from the per-indecomposable tau_n and Ext-conflict
    masks (_member_masks): it passes when the union of its members'
    needs lies inside it and the union of their clashes misses it.  The
    seed makes it a generator and cogenerator.  The search backtracks
    over the extras in index order, adding or banning each one, and
    drops a branch as soon as its clashes hit its members or it needs a
    banned extra; an explicit stack keeps deep walks off the call stack.
    subset_cap bounds the work: the Ext pairs the masks examine
    (charged before they are built), plus the nodes the walk examines;
    past it, SearchSpaceTooLarge.  Cross-check: the sets that pass become
    intervals, is_precluster re-decides each, and a disagreement raises
    InternalInconsistency.  It shares _tau_at, _source, _ext1 and the
    index with the masks, so it guards the masks, their unions and the
    walk; the kernels themselves are checked by the tests
    (test_is_oracle_tau_of_syzygy, TestMemberMasks, the oracle tests).
    """
    _at_least(n, 1, "search_precluster wants n >= 1")
    if max_extra is not None:
        _at_least(max_extra, 0, "search_precluster wants max_extra >= 0")
    _at_least(subset_cap, 0, "search_precluster wants subset_cap >= 0")
    forced = _forced(alg)
    offset = _index(alg).offset
    extras = [p for p in range(offset[-1]) if p not in forced]
    kmax = len(extras) if max_extra is None else min(max_extra, len(extras))
    work = offset[-1] ** 2 * (n - 1)
    if work > subset_cap:
        raise SearchSpaceTooLarge(f"{work} Ext pairs exceed the work cap {subset_cap}")
    need, clash = _member_masks(alg, n)
    mask = needs = clashes = 0
    for p in forced:
        mask |= 1 << p
        needs |= need[p]
        clashes |= clash[p]
    stack = [] if clashes & mask else [(0, 0, mask, needs, clashes, 0)]
    accepted = []
    while stack:
        work += 1
        if work > subset_cap:
            raise SearchSpaceTooLarge(
                f"Ext pairs and walk nodes exceed the work cap {subset_cap}"
            )
        i, k, mask, needs, clashes, banned = stack.pop()
        if i == len(extras) or k == kmax:
            if not needs & ~mask:
                accepted.append(mask)
            continue
        p = extras[i]
        if not needs >> p & 1:
            stack.append((i + 1, k, mask, needs, clashes, banned | 1 << p))
        grown, wants, hits = mask | 1 << p, needs | need[p], clashes | clash[p]
        if not hits & grown and not wants & banned:
            stack.append((i + 1, k + 1, grown, wants, hits, banned))
    combos = [tuple(p for p in extras if mask >> p & 1) for mask in accepted]
    found = []
    for combo in sorted(combos, key=lambda c: (len(c), c)):
        members = [IntervalModule(*_interval_at(offset, p)) for p in (*forced, *combo)]
        verdict = is_precluster(alg, members, n)
        if not verdict.ok:
            raise InternalInconsistency(
                f"precluster masks accept {verdict.members} over "
                f"{alg.lengths} at n={n}, is_precluster refuses: "
                f"{verdict.failures}"
            )
        found.append(verdict.members)
    return tuple(found)
