"""Interval modules: the indecomposables of a Nakayama algebra.

Every indecomposable right module is uniserial and determined by its top
vertex and its length, written M(i, l) with 1 <= l <= c_i.  Composition
factors top to socle are S_i, S_{i+1}, ..., S_{i+l-1} (successor
convention).  Finite direct sums are multisets of intervals.

Per-algebra tables are plain lists over one integer index (`_index`),
in which M(i, l) sits at position offset[i - 1] + l - 1 of
indecomposables(alg).  `_position` is the one validator of intervals from
outside: an interval that is not a module over the algebra is refused by
name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

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
    for piece in msum:
        _position(alg, piece)
    return msum


# -- the integer index -------------------------------------------------------


@dataclass(frozen=True)
class _Index:
    """Flat integer index of the indecomposables of one algebra.

    Position offset[i - 1] + l - 1 is M(i, l), in indecomposables(alg)
    order.  socle[p] is the socle vertex of the interval at p; omega[p]
    and coomega[p] are the positions of its syzygy and cosyzygy, -1 for
    zero.  These two lists are the package's only definition of the
    Omega and Omega^- steps.
    """

    offset: list[int]
    socle: list[int]
    omega: list[int]
    coomega: list[int]

    def simple_at(self, i: int) -> int:
        return self.offset[i - 1]

    def projective_at(self, i: int) -> int:
        return self.offset[i] - 1


def _index(alg: KupischSeries) -> _Index:
    """The algebra's integer index, built once per algebra.  Vertex
    arithmetic goes through alg.shift, so a walk that leaves a linear
    quiver raises InternalInconsistency."""

    def build():
        offset = [0, *accumulate(alg.lengths)]
        d = alg.injective_lengths()
        # position of the simple top of I(j), the injective envelope of S_j
        inj_top = [offset[alg.shift(j, 1 - d[j - 1]) - 1] for j in alg.vertices()]
        socle, omega, coomega = [], [], []
        for i, c in enumerate(alg.lengths, 1):
            block = [alg.shift(i, s) for s in range(c)]  # socles of M(i, 1..c)
            for l, j in enumerate(block, 1):
                # Omega M(i, l) = rad^l P_i = M(i + l, c - l), whose top
                # vertex is the socle of M(i, l + 1)
                omega.append(offset[block[l] - 1] + c - l - 1 if l < c else -1)
                # Omega^- M(i, l) = I(j) / M(i, l), the top d_j - l of I(j)
                dj = d[j - 1]
                coomega.append(inj_top[j - 1] + dj - l - 1 if l < dj else -1)
            socle += block
        return _Index(offset, socle, omega, coomega)

    return alg._cached("index", build)


def _position(alg: KupischSeries, m: IntervalModule) -> int:
    """Position of m in indecomposables(alg).  The one validator of
    intervals from outside: one that is not a module over alg raises
    NotAdmissible naming it."""
    v = len(alg.lengths)
    if not 1 <= m.start <= v:
        raise NotAdmissible(f"{m} is not well-formed: vertex {m.start} outside 1..{v}")
    c = alg.lengths[m.start - 1]
    if not 1 <= m.length <= c:
        raise NotAdmissible(f"{m} is not well-formed: length must lie in 1..{c}")
    return _index(alg).offset[m.start - 1] + m.length - 1


def _positions(alg: KupischSeries, m) -> list[int]:
    """Positions of the summands of an interval module or sum."""
    return [_position(alg, piece) for piece in _as_sum(m)]


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


def _torsionless(alg: KupischSeries) -> list[bool]:
    """For each socle vertex j (entry 0 unused), whether an indecomposable
    with socle S_j embeds into an indecomposable projective, which holds
    exactly when the injective envelope I(j) is projective; built once
    per algebra.  A submodule of a uniserial is a bottom part, so this
    depends on j only.

    Cross-check: each j is decided two independent ways.  If I(j) is
    projective the longest projective with socle j has length d_j,
    otherwise none has socle j; a mismatch raises InternalInconsistency.
    """

    def build():
        idx = _index(alg)
        longest = [0] * (alg.num_vertices + 1)
        for i in alg.vertices():
            j = idx.socle[idx.projective_at(i)]
            longest[j] = max(longest[j], alg.loewy_length(i))
        verdict = [False]
        for j in alg.vertices():
            via_envelope = is_projective(alg, injective(alg, j))
            if longest[j] != (alg.injective_length(j) if via_envelope else 0):
                raise InternalInconsistency(
                    f"submodule-of-projective disagreement at S({j}) over "
                    f"{alg.lengths}: longest={longest[j]}, envelope={via_envelope}"
                )
            verdict.append(via_envelope)
        return verdict

    return alg._cached("torsionless", build)


def in_sub_lambda(alg: KupischSeries, m) -> bool:
    """Does every summand embed into some indecomposable projective?"""
    verdict = _torsionless(alg)
    idx = _index(alg)
    return all(verdict[idx.socle[p]] for p in _positions(alg, m))


# -- hom counting ------------------------------------------------------------


def hom_dim(alg: KupischSeries, x: IntervalModule, y: IntervalModule) -> int:
    """dim Hom(M(i,l), M(j,m)); NotAdmissible for an interval that is not
    a module over alg."""
    _position(alg, x)
    _position(alg, y)
    return _hom(alg, x, y)


def _hom(alg: KupischSeries, x: IntervalModule, y: IntervalModule) -> int:
    """hom_dim of two intervals known to be modules over alg.

    A nonzero hom between uniserials factors as quotient-then-submodule:
    a length-t top part of x matching the length-t bottom part of y, one
    dimension for each t in 1..min(l, m) where that bottom part starts at
    x.start.  That is t = t0 = y.start + y.length - x.start, or on a cycle
    of v vertices any t = t0 (mod v): a long y can meet x.start again.
    """
    top = min(x.length, y.length)
    t0 = y.start + y.length - x.start
    if not alg.cyclic:
        return 1 if 1 <= t0 <= top else 0
    v = len(alg.lengths)
    r = t0 % v or v
    return 0 if r > top else (top - r) // v + 1
