"""Interval modules: the indecomposables of a Nakayama algebra.

Every indecomposable right module is uniserial and determined by its top
vertex and its length, written M(i, l) with 1 <= l <= c_i.  Composition
factors top to socle are S_i, S_{i+1}, ..., S_{i+l-1} (successor
convention).  Finite direct sums are multisets of intervals.

Per-algebra tables, each built once by `core.per_algebra`, are plain
lists over one integer index (`_index`): M(i, l) sits at position
offset[i - 1] + l - 1 of indecomposables(alg).  `_interval` (through
`_position`, which also reads the index, and `_intervals`) and
`core._vertex` are the one checks on intervals and vertices from
outside, for the engine and the matrix oracle alike: `_interval` reads
only the Kupisch lengths, so the oracle's `_codes` calls it without
reading the index under test.  A zero Omega or Omega^- step in the index
is the one test for projective and injective.
Public queries take an interval or a sum (only `socle_vertex` and
`embeds_in` want an interval).  Inside, a module is its position, and
`_interval_at` reads its (start, length) back only for text and results.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .core import KupischSeries, _at_least, _vertex, per_algebra
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


def _split(m) -> tuple[IntervalModule, ...]:
    """The summands of an interval or a sum, unchecked."""
    if isinstance(m, IntervalModule):
        return (m,)
    if isinstance(m, ModuleSum):
        return m.summands
    raise TypeError(f"expected IntervalModule or ModuleSum, got {type(m).__name__}")


def check_module(alg: KupischSeries, m) -> ModuleSum:
    """Validate user-supplied summands: vertex in range, 1 <= l <= c_start."""
    pieces = _split(m)
    for piece in pieces:
        _interval(alg, piece)
    return ModuleSum(pieces)


# -- the integer index -------------------------------------------------------


@dataclass(frozen=True)
class _Index:
    """Flat integer index of the indecomposables of one algebra.

    Position offset[i - 1] + l - 1 is M(i, l), in indecomposables(alg)
    order.  socle[p] is the socle vertex of the interval at p; omega[p]
    and coomega[p] are the positions of its syzygy and cosyzygy, -1 for
    zero.  These two lists are the package's only definition of the
    Omega and Omega^- steps.  Indexed by vertex - 1, simple holds the
    position of S_i = M(i, 1), projective that of P_i, the zero Omega
    step with top i, and injective that of I(j), the zero Omega^- step
    with socle j: the one definition of each.
    """

    offset: list[int]
    socle: list[int]
    omega: list[int]
    coomega: list[int]
    simple: list[int]
    projective: list[int]
    injective: list[int]


@per_algebra
def _index(alg: KupischSeries) -> _Index:
    """The algebra's integer index, in one pass with 0-based vertices mod
    v; injective_lengths() refuses a walk off a linear quiver first."""
    v = len(alg.lengths)
    offset = [0, *accumulate(alg.lengths)]
    d = alg.injective_lengths()
    # I(j) = M(j - d_j + 1, d_j) and P_i = M(i, c_i), with 0-based i and j
    injective = [offset[(j - dj + 1) % v] + dj - 1 for j, dj in enumerate(d)]
    projective = [p - 1 for p in offset[1:]]
    socle, omega, coomega = [], [], []
    for i, c in enumerate(alg.lengths):
        for l in range(1, c + 1):
            j = (i + l - 1) % v  # the socle of M(i, l)
            socle.append(j + 1)
            # Omega M(i, l) = rad^l P_i = M(i + l, c - l)
            omega.append(offset[(i + l) % v] + c - l - 1 if l < c else -1)
            # Omega^- M(i, l) = I(j) / M(i, l), the top d_j - l of I(j)
            coomega.append(injective[j] - l if l < d[j] else -1)
    return _Index(offset, socle, omega, coomega, offset[:-1], projective, injective)


def _interval(alg: KupischSeries, m: IntervalModule) -> tuple[int, int]:
    """(start, length) of m, checked: a start that `core._vertex` refuses
    or a length that is not a plain int in 1..c_start (True is not 1, nor
    2.0 2) raises NotAdmissible naming m, and anything but an interval
    TypeError naming its type.  A start that passes `_vertex`'s test is
    read without the call; any other goes through it, for its message."""
    if not isinstance(m, IntervalModule):
        raise TypeError(f"expected IntervalModule, got {type(m).__name__}")
    start, length = m.start, m.length
    lengths = alg.lengths
    if type(start) is int and 0 < start <= len(lengths):  # `core._vertex`'s test
        c = lengths[start - 1]
    else:
        try:
            c = lengths[_vertex(alg, start) - 1]
        except NotAdmissible as exc:
            raise NotAdmissible(f"{m} is not well-formed: {exc}") from None
    if type(length) is not int or not 0 < length <= c:
        raise NotAdmissible(f"{m} is not well-formed: length must be an int in 1..{c}")
    return start, length


def _position(alg: KupischSeries, m: IntervalModule) -> int:
    """Position of m in indecomposables(alg).  With `_interval` the one
    validator of intervals from outside, field types included: an
    interval that is not a module over alg, or whose start or length is
    not a plain int, raises NotAdmissible naming it, and anything else
    TypeError naming its type."""
    start, length = _interval(alg, m)
    return _index(alg).offset[start - 1] + length - 1


def _positions(alg: KupischSeries, m) -> list[int]:
    """Positions of the summands of an interval module or sum."""
    if type(m) is IntervalModule:
        return [_position(alg, m)]
    return [_position(alg, piece) for piece in _split(m)]


def _interval_at(offset: list[int], p: int) -> tuple[int, int]:
    """(start, length) of the interval at position p, off the offsets."""
    i = bisect_right(offset, p)
    return i, p - offset[i - 1] + 1


def _sum_at(offset: list[int], positions) -> ModuleSum:
    """The sum of the intervals at the positions; -1 stands for zero."""
    pieces = (IntervalModule(*_interval_at(offset, p)) for p in positions if p >= 0)
    return ModuleSum.of(*pieces)


# -- distinguished modules -------------------------------------------------


def projective(alg: KupischSeries, i: int) -> IntervalModule:
    """P_i = M(i, c_i); loewy_length checks the vertex."""
    return IntervalModule(i, alg.loewy_length(i))


def simple(alg: KupischSeries, i: int) -> IntervalModule:
    return IntervalModule(_vertex(alg, i), 1)


def injective(alg: KupischSeries, j: int) -> IntervalModule:
    """The indecomposable injective with socle S_j (longest interval
    module with that socle)."""
    d = alg.injective_lengths()[_vertex(alg, j) - 1]
    return IntervalModule(alg.shift(j, 1 - d), d)


def regular_module(alg: KupischSeries) -> ModuleSum:
    """The algebra as a right module over itself: the sum of all P_i."""
    return ModuleSum.of(*(projective(alg, i) for i in alg.vertices()))


@per_algebra
def indecomposables(alg: KupischSeries) -> tuple[IntervalModule, ...]:
    """All interval modules, sorted."""
    return tuple(
        IntervalModule(i, l)
        for i in alg.vertices()
        for l in range(1, alg.loewy_length(i) + 1)
    )


def is_projective(alg: KupischSeries, m) -> bool:
    omega = _index(alg).omega
    return all(omega[p] < 0 for p in _positions(alg, m))


def is_injective(alg: KupischSeries, m) -> bool:
    coomega = _index(alg).coomega
    return all(coomega[p] < 0 for p in _positions(alg, m))


# -- structure of a single interval ----------------------------------------


def socle_vertex(alg: KupischSeries, m: IntervalModule) -> int:
    """The vertex of the simple socle of an interval; TypeError for a sum."""
    return _index(alg).socle[_position(alg, m)]


def dim_vector(alg: KupischSeries, m) -> tuple[int, ...]:
    """Multiplicity of each simple S_1..S_v among the composition factors."""
    counts = [0] * alg.num_vertices
    for piece in check_module(alg, m):
        for r in range(piece.length):
            counts[alg.shift(piece.start, r) - 1] += 1
    return tuple(counts)


def socle(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(
        *(IntervalModule(socle_vertex(alg, piece), 1) for piece in _split(m))
    )


def top(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(
        *(IntervalModule(piece.start, 1) for piece in check_module(alg, m))
    )


def radical_power(alg: KupischSeries, m, s: int) -> ModuleSum:
    """rad^s m: drop the top s composition factors of each summand."""
    _at_least(s, 0, "radical power wants s >= 0")
    out = []
    for piece in check_module(alg, m):
        if piece.length > s:
            out.append(IntervalModule(alg.shift(piece.start, s), piece.length - s))
    return ModuleSum.of(*out)


def radical(alg: KupischSeries, m) -> ModuleSum:
    return radical_power(alg, m, 1)


def radical_quotient(alg: KupischSeries, m, s: int) -> ModuleSum:
    """m / rad^s m: the top s composition factors of each summand."""
    _at_least(s, 0, "radical quotient wants s >= 0")
    out = []
    for piece in check_module(alg, m):
        if s > 0:
            out.append(IntervalModule(piece.start, min(s, piece.length)))
    return ModuleSum.of(*out)


def socle_part(alg: KupischSeries, m, s: int) -> ModuleSum:
    """The length-min(s, l) submodule of each summand (bottom part)."""
    _at_least(s, 0, "socle part wants s >= 0")
    out = []
    for piece in check_module(alg, m):
        if s > 0:
            t = min(s, piece.length)
            out.append(IntervalModule(alg.shift(piece.start, piece.length - t), t))
    return ModuleSum.of(*out)


# -- covers, envelopes, embeddings ------------------------------------------


def projective_cover(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(
        *(projective(alg, piece.start) for piece in check_module(alg, m))
    )


def injective_envelope(alg: KupischSeries, m) -> ModuleSum:
    return ModuleSum.of(
        *(injective(alg, socle_vertex(alg, piece)) for piece in _split(m))
    )


def embeds_in(alg: KupischSeries, sub: IntervalModule, big: IntervalModule) -> bool:
    """Submodules of a uniserial module are its bottom parts, so an
    interval embeds iff the socle vertices match and it is no longer.
    Both arguments are intervals; TypeError for a sum."""
    return (
        socle_vertex(alg, sub) == socle_vertex(alg, big)
        and sub.length <= big.length
    )


@per_algebra
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
    idx = _index(alg)
    longest = [0] * (alg.num_vertices + 1)
    for c, p in zip(alg.lengths, idx.projective):
        j = idx.socle[p]  # the socle of P_i
        longest[j] = max(longest[j], c)
    d, v = alg.injective_lengths(), alg.num_vertices
    verdict = [False]
    for j in alg.vertices():
        # I(j) = M(j - d_j + 1, d_j) is projective when P(j - d_j + 1) has length d_j
        via_envelope = alg.lengths[(j - d[j - 1]) % v] == d[j - 1]
        if longest[j] != (d[j - 1] if via_envelope else 0):
            raise InternalInconsistency(
                f"submodule-of-projective disagreement at S({j}) over "
                f"{alg.lengths}: longest={longest[j]}, envelope={via_envelope}"
            )
        verdict.append(via_envelope)
    return verdict


def in_sub_lambda(alg: KupischSeries, m) -> bool:
    """Does every summand embed into some indecomposable projective?"""
    verdict = _torsionless(alg)
    idx = _index(alg)
    return all(verdict[idx.socle[p]] for p in _positions(alg, m))


# -- hom counting ------------------------------------------------------------


def hom_dim(alg: KupischSeries, x, y) -> int:
    """dim Hom(x, y) for intervals or sums: Hom is additive in each
    argument, so it is the sum over the summand pairs.  NotAdmissible for
    an interval that is not a module over alg.  Each summand's checked
    (start, length) pair is read once, an interval's with no list; no
    ModuleSum and no generator, since on two intervals either would cost
    more than _hom."""
    xs, ys = _intervals(alg, x), _intervals(alg, y)
    total = 0
    for a, al in xs:
        for b, bl in ys:
            total += _hom(alg, a, al, b, bl)
    return total


def _intervals(alg: KupischSeries, m) -> Sequence[tuple[int, int]]:
    """The checked (start, length) pairs of the summands of m; an
    interval is one pair, with no list."""
    if type(m) is IntervalModule:
        return (_interval(alg, m),)
    return [_interval(alg, piece) for piece in _split(m)]


def _hom(alg: KupischSeries, xs: int, xl: int, ys: int, yl: int) -> int:
    """dim Hom(x, y) for x = M(xs, xl), y = M(ys, yl) modules over alg.

    A nonzero hom between uniserials factors as quotient-then-submodule:
    a length-t top part of x matching the length-t bottom part of y, one
    dimension for each t in 1..min(xl, yl) where that bottom part starts
    at xs.  That is t = t0 = ys + yl - xs, or on a cycle of v vertices
    any t = t0 (mod v): a long y can meet xs again.
    """
    top = xl if xl < yl else yl  # not min(): this is the Ext rows' inner loop
    t0 = ys + yl - xs
    if not alg.cyclic:
        return 1 if 1 <= t0 <= top else 0
    v = len(alg.lengths)
    r = t0 % v or v
    return 0 if r > top else (top - r) // v + 1
