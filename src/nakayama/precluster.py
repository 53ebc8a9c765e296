"""AR translates, their higher compositions, and precluster tilting search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .core import KupischSeries
from .errors import SearchSpaceTooLarge
from .homology import _cosyzygy1, _syzygy1, ext_dim
from .modules import (
    IntervalModule,
    ModuleSum,
    _as_sum,
    indecomposables,
    injective,
    is_injective,
    is_projective,
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


def _tau1(alg: KupischSeries, m: IntervalModule) -> IntervalModule | None:
    """AR translate of one interval; None on projectives."""
    if is_projective(alg, m):
        return None
    return IntervalModule(alg.shift(m.start, 1), m.length)


def _tau1_inv(alg: KupischSeries, m: IntervalModule) -> IntervalModule | None:
    """Inverse AR translate; None on injectives."""
    if is_injective(alg, m):
        return None
    return IntervalModule(alg.shift(m.start, -1), m.length)


def ar_translate(alg: KupischSeries, m) -> ModuleSum:
    out = [_tau1(alg, piece) for piece in _as_sum(m)]
    return ModuleSum.of(*(z for z in out if z is not None))


def ar_translate_inverse(alg: KupischSeries, m) -> ModuleSum:
    out = [_tau1_inv(alg, piece) for piece in _as_sum(m)]
    return ModuleSum.of(*(z for z in out if z is not None))


def _tau_n_piece(alg, piece: IntervalModule, n: int, forward: bool) -> IntervalModule | None:
    z: IntervalModule | None = piece
    step = _syzygy1 if forward else _cosyzygy1
    for _ in range(n - 1):
        z = step(alg, z)
        if z is None:
            return None
    return _tau1(alg, z) if forward else _tau1_inv(alg, z)


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
    """
    if n < 1:
        raise ValueError("is_precluster wants n >= 1")
    mset = frozenset(_as_sum(ModuleSum.of(*members)))
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


def search_precluster(
    alg: KupischSeries,
    n: int,
    max_extra: int | None = None,
    subset_cap: int = 200_000,
) -> tuple[tuple[IntervalModule, ...], ...]:
    """All member sets that pass is_precluster, grown from the forced seed
    (projectives and injectives) by subsets of the remaining
    indecomposables, smallest first.  Raises SearchSpaceTooLarge before
    examining more than subset_cap subsets.
    """
    if n < 1:
        raise ValueError("search_precluster wants n >= 1")
    if max_extra is not None and max_extra < 0:
        raise ValueError("search_precluster wants max_extra >= 0")
    seed = {projective(alg, i) for i in alg.vertices()}
    seed.update(injective(alg, i) for i in alg.vertices())
    extras = [m for m in indecomposables(alg) if m not in seed]
    kmax = len(extras) if max_extra is None else min(max_extra, len(extras))
    total = sum(comb(len(extras), k) for k in range(kmax + 1))
    if total > subset_cap:
        raise SearchSpaceTooLarge(
            f"{total} candidate member sets exceeds the cap {subset_cap}"
        )
    found = []
    base = tuple(sorted(seed))
    for k in range(kmax + 1):
        for combo in itertools.combinations(extras, k):
            verdict = is_precluster(alg, base + combo, n)
            if verdict.ok:
                found.append(verdict.members)
    return tuple(found)
