"""Interval modules: the indecomposables of a Nakayama algebra.

Every indecomposable right module is uniserial and determined by its top
vertex and its length, written M(i, l) with 1 <= l <= c_i.  Composition
factors top to socle are S_i, S_{i+1}, ..., S_{i+l-1} (successor
convention).  Finite direct sums are multisets of intervals.

All functions take the algebra as first argument and assume well-formed
inputs; `check_module` is the boundary validator for user-supplied data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import KupischSeries
from .errors import InternalInconsistency, NotAdmissible

__all__ = [
    "IntervalModule",
    "ModuleSum",
    "check_module",
    "dim_vector",
    "embeds_in",
    "hom_dim",
    "in_sub_lambda",
    "indecomposables",
    "injective",
    "injective_envelope",
    "is_injective",
    "is_projective",
    "projective",
    "projective_cover",
    "radical",
    "radical_power",
    "radical_quotient",
    "regular_module",
    "simple",
    "socle",
    "socle_part",
    "socle_vertex",
    "top",
]


@dataclass(frozen=True, order=True)
class IntervalModule:
    """The uniserial module M(start, length); top is S_start."""

    start: int
    length: int

    def __repr__(self):
        return f"M({self.start},{self.length})"


@dataclass(frozen=True)
class ModuleSum:
    """A finite direct sum of interval modules, kept sorted (canonical)."""

    summands: tuple[IntervalModule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(sorted(self.summands)))

    @classmethod
    def zero(cls) -> "ModuleSum":
        return cls(())

    @classmethod
    def of(cls, *mods: IntervalModule) -> "ModuleSum":
        return cls(tuple(mods))

    @property
    def is_zero(self) -> bool:
        return not self.summands

    @property
    def dim(self) -> int:
        return sum(m.length for m in self.summands)

    def __iter__(self) -> Iterator[IntervalModule]:
        return iter(self.summands)

    def __len__(self) -> int:
        return len(self.summands)

    def __add__(self, other: "ModuleSum") -> "ModuleSum":
        return ModuleSum(self.summands + other.summands)

    def __repr__(self):
        return "ModuleSum" + repr(tuple(self.summands))


def _as_sum(m) -> ModuleSum:
    if isinstance(m, ModuleSum):
        return m
    if isinstance(m, IntervalModule):
        return ModuleSum.of(m)
    raise TypeError(f"expected IntervalModule or ModuleSum, got {type(m).__name__}")


def check_module(alg: KupischSeries, m) -> ModuleSum:
    """Validate user-supplied summands: vertex in range, 1 <= l <= c_start."""
    msum = _as_sum(m)
    v = alg.num_vertices
    for piece in msum:
        if not 1 <= piece.start <= v:
            raise NotAdmissible(f"vertex {piece.start} outside 1..{v}")
        if not 1 <= piece.length <= alg.loewy_length(piece.start):
            raise NotAdmissible(
                f"M({piece.start},{piece.length}) is not well-formed: "
                f"length must lie in 1..{alg.loewy_length(piece.start)}"
            )
    return msum


# -- distinguished modules -------------------------------------------------


def projective(alg: KupischSeries, i: int) -> IntervalModule:
    """P_i = M(i, c_i)."""
    return IntervalModule(i, alg.loewy_length(i))


def simple(alg: KupischSeries, i: int) -> IntervalModule:
    return IntervalModule(i, 1)


def injective(alg: KupischSeries, j: int) -> IntervalModule:
    """The indecomposable injective with socle S_j (longest interval
    module with that socle)."""
    d = alg.injective_length(j)
    return IntervalModule(alg.shift(j, 1 - d), d)


def regular_module(alg: KupischSeries) -> ModuleSum:
    """The algebra as a right module over itself: the sum of all P_i."""
    return ModuleSum.of(*(projective(alg, i) for i in alg.vertices()))


def indecomposables(alg: KupischSeries) -> tuple[IntervalModule, ...]:
    """All interval modules, sorted."""

    def build():
        return tuple(
            IntervalModule(i, l)
            for i in alg.vertices()
            for l in range(1, alg.loewy_length(i) + 1)
        )

    return alg._cached("indecs", build)


def is_projective(alg: KupischSeries, m) -> bool:
    return all(piece.length == alg.loewy_length(piece.start) for piece in _as_sum(m))


def is_injective(alg: KupischSeries, m) -> bool:
    return all(
        piece.length == alg.injective_length(socle_vertex(alg, piece))
        for piece in _as_sum(m)
    )


# -- structure of a single interval ----------------------------------------


def socle_vertex(alg: KupischSeries, m: IntervalModule) -> int:
    return alg.shift(m.start, m.length - 1)


def dim_vector(alg: KupischSeries, m) -> tuple[int, ...]:
    """Multiplicity of each simple S_1..S_v among the composition factors."""
    counts = [0] * alg.num_vertices
    for piece in _as_sum(m):
        for r in range(piece.length):
            counts[alg.shift(piece.start, r) - 1] += 1
    return tuple(counts)


def socle(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(
        *(IntervalModule(socle_vertex(alg, piece), 1) for piece in _as_sum(m))
    )


def top(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(*(IntervalModule(piece.start, 1) for piece in _as_sum(m)))


def radical_power(alg: KupischSeries, m, s: int) -> ModuleSum:
    """rad^s m: drop the top s composition factors of each summand."""
    if s < 0:
        raise ValueError("radical power wants s >= 0")
    out = []
    for piece in _as_sum(m):
        if piece.length > s:
            out.append(IntervalModule(alg.shift(piece.start, s), piece.length - s))
    return ModuleSum.of(*out)


def radical(alg: KupischSeries, m) -> ModuleSum:
    return radical_power(alg, m, 1)


def radical_quotient(alg: KupischSeries, m, s: int) -> ModuleSum:
    """m / rad^s m: the top s composition factors of each summand."""
    if s < 0:
        raise ValueError("radical quotient wants s >= 0")
    out = []
    for piece in _as_sum(m):
        if s > 0:
            out.append(IntervalModule(piece.start, min(s, piece.length)))
    return ModuleSum.of(*out)


def socle_part(alg: KupischSeries, m, s: int) -> ModuleSum:
    """The length-min(s, l) submodule of each summand (bottom part)."""
    if s < 0:
        raise ValueError("socle part wants s >= 0")
    out = []
    for piece in _as_sum(m):
        if s > 0:
            t = min(s, piece.length)
            out.append(IntervalModule(alg.shift(piece.start, piece.length - t), t))
    return ModuleSum.of(*out)


# -- covers, envelopes, embeddings ------------------------------------------


def projective_cover(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(
        *(projective(alg, piece.start) for piece in _as_sum(m))
    )


def injective_envelope(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(
        *(injective(alg, socle_vertex(alg, piece)) for piece in _as_sum(m))
    )


def embeds_in(alg: KupischSeries, sub: IntervalModule, big: IntervalModule) -> bool:
    """Submodules of a uniserial module are its bottom parts, so an
    interval embeds iff the socle vertices match and it is no longer."""
    return (
        socle_vertex(alg, sub) == socle_vertex(alg, big)
        and sub.length <= big.length
    )


def _indecomposable_entry(alg: KupischSeries, table: dict, m: IntervalModule):
    """table[m] from a per-algebra table keyed by the indecomposables;
    an interval that is not one of them is refused by name."""
    try:
        return table[m]
    except KeyError:
        raise NotAdmissible(
            f"{m} is not an indecomposable module over {alg.lengths}"
        ) from None


def _torsionless(alg: KupischSeries) -> dict[IntervalModule, bool]:
    """Whether each indecomposable embeds into an indecomposable
    projective, built once per algebra.

    Cross-check: every interval is decided two independent ways (direct
    embedding search and projectivity of the injective envelope); a
    mismatch raises InternalInconsistency since both characterize
    torsionless modules.
    """

    def build():
        projectives = [projective(alg, i) for i in alg.vertices()]
        table = {}
        for piece in indecomposables(alg):
            direct = any(embeds_in(alg, piece, p) for p in projectives)
            via_envelope = is_projective(
                alg, injective(alg, socle_vertex(alg, piece))
            )
            if direct != via_envelope:
                raise InternalInconsistency(
                    f"submodule-of-projective disagreement for {piece} over "
                    f"{alg.lengths}: direct={direct}, envelope={via_envelope}"
                )
            table[piece] = direct
        return table

    return alg._cached("torsionless", build)


def in_sub_lambda(alg: KupischSeries, m) -> bool:
    """Does every summand embed into some indecomposable projective?"""
    table = _torsionless(alg)
    return all(_indecomposable_entry(alg, table, piece) for piece in _as_sum(m))


# -- hom counting ------------------------------------------------------------


def hom_dim(alg: KupischSeries, x: IntervalModule, y: IntervalModule) -> int:
    """dim Hom(M(i,l), M(j,m)).

    Any nonzero hom between uniserials factors as quotient-then-submodule:
    a length-t top part of x matching the length-t bottom part of y.  So
    count t in 1..min(l,m) with i = (start of the bottom part of y of
    length t); each t contributes one dimension, and in the cyclic case a
    long y can meet the same vertex several times.
    """
    n = 0
    for t in range(1, min(x.length, y.length) + 1):
        if alg.shift(y.start, y.length - t) == x.start:
            n += 1
    return n
