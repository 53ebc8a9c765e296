"""AR translates, their higher compositions, and precluster tilting search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .core import KupischSeries
from .errors import InternalInconsistency, SearchSpaceTooLarge
from .homology import ext_dim
from .modules import (
    IntervalModule,
    ModuleSum,
    _as_sum,
    _index,
    _position,
    check_module,
    indecomposables,
    injective,
    projective,
)
from .notation import format_module

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


def _tau_n_piece(alg, piece: IntervalModule, n: int, forward: bool) -> IntervalModule | None:
    """tau of Omega^(n-1) of one interval (forward), or tau^- of
    Omega^-(n-1); the walk reads the algebra's index.  tau M(i, l) is
    M(i + 1, l), zero on projectives, and tau^- M(i, l) is M(i - 1, l),
    zero on injectives: exactly the intervals whose next step is zero."""
    idx = _index(alg)
    step = idx.omega if forward else idx.coomega
    p = _position(alg, piece)
    for _ in range(n - 1):
        p = step[p]
        if p < 0:
            return None
    if step[p] < 0:
        return None
    z = indecomposables(alg)[p]
    return IntervalModule(alg.shift(z.start, 1 if forward else -1), z.length)


def tau_n(alg: KupischSeries, m, n: int) -> ModuleSum:
    """Higher AR translate: the AR translate of the (n-1)-th syzygy.

    Pieces that die along the way (a syzygy vanishes, or the surviving
    piece is projective) contribute zero, matching the stable picture.
    """
    if n < 1:
        raise ValueError("tau_n wants n >= 1")
    out = [_tau_n_piece(alg, piece, n, True) for piece in _as_sum(m)]
    return ModuleSum.of(*(z for z in out if z is not None))


def tau_n_inverse(alg: KupischSeries, m, n: int) -> ModuleSum:
    if n < 1:
        raise ValueError("tau_n_inverse wants n >= 1")
    out = [_tau_n_piece(alg, piece, n, False) for piece in _as_sum(m)]
    return ModuleSum.of(*(z for z in out if z is not None))


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
    Members that are not modules over `alg` raise NotAdmissible.
    """
    if n < 1:
        raise ValueError("is_precluster wants n >= 1")
    mset = frozenset(check_module(alg, ModuleSum.of(*members)))
    ordered = tuple(sorted(mset))
    failures: list[dict] = []
    for i in alg.vertices():
        p = projective(alg, i)
        if p not in mset:
            failures.append({"condition": "generator", "missing": format_module(p)})
        inj = injective(alg, i)
        if inj not in mset:
            failures.append({"condition": "cogenerator", "missing": format_module(inj)})
    for m in ordered:
        for label, image in (
            ("tau_n", tau_n(alg, m, n)),
            ("tau_n_inverse", tau_n_inverse(alg, m, n)),
        ):
            stray = [piece for piece in image if piece not in mset]
            if stray:
                failures.append(
                    {
                        "condition": label,
                        "member": format_module(m),
                        "escapes_to": format_module(ModuleSum.of(*stray)),
                    }
                )
    for x in ordered:
        for y in ordered:
            for k in range(1, n):
                val = ext_dim(alg, x, y, k)
                if val:
                    failures.append(
                        {
                            "condition": "ext-vanishing",
                            "source": format_module(x),
                            "target": format_module(y),
                            "degree": k,
                            "dim": val,
                        }
                    )
    return PreclusterVerdict(
        ok=not failures,
        n=n,
        members=ordered,
        failures=tuple(failures),
        note="functorial finiteness automatic: finitely many indecomposables",
    )


def _member_masks(alg: KupischSeries, n: int) -> tuple[list[int], list[int]]:
    """Per-indecomposable bitmasks over indecomposables(alg) for the
    level-n conditions of is_precluster: need[i] holds the pieces of
    tau_n and tau_n^- of the i-th indecomposable, and clash[i] every y
    with Ext^k between it and y, either way round, for some k in 1..n-1
    (y itself included).  Masks are built with `|`: tau_n and tau_n^- of
    one interval can coincide."""
    indecs = indecomposables(alg)
    need = []
    for m in indecs:
        mask = 0
        for piece in (*tau_n(alg, m, n), *tau_n_inverse(alg, m, n)):
            mask |= 1 << _position(alg, piece)
        need.append(mask)
    clash = [0] * len(indecs)
    for i, x in enumerate(indecs):
        for j in range(i, len(indecs)):
            y = indecs[j]
            if any(ext_dim(alg, x, y, k) or ext_dim(alg, y, x, k) for k in range(1, n)):
                clash[i] |= 1 << j
                clash[j] |= 1 << i
    return need, clash


def search_precluster(
    alg: KupischSeries,
    n: int,
    max_extra: int | None = None,
    subset_cap: int = 200_000,
) -> tuple[tuple[IntervalModule, ...], ...]:
    """All n-precluster tilting member sets grown from the forced seed
    (projectives and injectives) by subsets of the remaining
    indecomposables, smallest first.  Raises SearchSpaceTooLarge before
    examining more than subset_cap subsets.

    Each subset is decided from the per-indecomposable tau_n and
    Ext-conflict masks (_member_masks): it passes when the union of its
    members' needs lies inside it and the union of their clashes misses
    it.  The seed makes it a generator and cogenerator.  Cross-check:
    is_precluster re-decides every set that passes, and a disagreement
    raises InternalInconsistency.
    """
    if n < 1:
        raise ValueError("search_precluster wants n >= 1")
    if max_extra is not None and max_extra < 0:
        raise ValueError("search_precluster wants max_extra >= 0")
    seed = {projective(alg, i) for i in alg.vertices()}
    seed.update(injective(alg, i) for i in alg.vertices())
    indecs = indecomposables(alg)
    extras = [i for i, m in enumerate(indecs) if m not in seed]
    kmax = len(extras) if max_extra is None else min(max_extra, len(extras))
    total = sum(comb(len(extras), k) for k in range(kmax + 1))
    if total > subset_cap:
        raise SearchSpaceTooLarge(
            f"{total} candidate member sets exceeds the cap {subset_cap}"
        )
    need, clash = _member_masks(alg, n)
    base = tuple(sorted(seed))
    base_mask = base_need = base_clash = 0
    for i, m in enumerate(indecs):
        if m in seed:
            base_mask |= 1 << i
            base_need |= need[i]
            base_clash |= clash[i]
    found = []
    for k in range(kmax + 1):
        for combo in itertools.combinations(extras, k):
            mask, needs, clashes = base_mask, base_need, base_clash
            for i in combo:
                mask |= 1 << i
                needs |= need[i]
                clashes |= clash[i]
            if needs & ~mask or clashes & mask:
                continue
            verdict = is_precluster(alg, base + tuple(indecs[i] for i in combo), n)
            if not verdict.ok:
                raise InternalInconsistency(
                    f"precluster masks accept {verdict.members} over "
                    f"{alg.lengths} at n={n}, is_precluster refuses: "
                    f"{verdict.failures}"
                )
            found.append(verdict.members)
    return tuple(found)
