"""Connected Nakayama algebras presented by Kupisch series.

A basic connected Nakayama algebra over a field is determined by the list
(c_1, ..., c_v) of Loewy lengths of its indecomposable projective right
modules, indexed so that rad P_i is a quotient of P_{i+1} (successor
convention, indices cyclic when the quiver is a cycle).  Admissibility:

  cyclic quiver:  every c_i >= 2 and c_{i+1} >= c_i - 1 (indices mod v),
  linear quiver:  c_v = 1, c_i >= 2 for i < v, and c_{i+1} >= c_i - 1.

Everything else in the package is derived from this data by exact integer
combinatorics; no floating point anywhere.  `iter_admissible` yields
every admissible series within given bounds once, in canonical form and
in lexicographic order by construction; `enumerate_admissible` lists
them and `count_admissible` counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering, wraps
from types import MappingProxyType
from typing import Iterator, Sequence

from .errors import EmptySeries, InternalInconsistency, NotAdmissible

__all__ = [
    "ExtendedNat",
    "INFINITY",
    "KupischSeries",
    "count_admissible",
    "enumerate_admissible",
    "iter_admissible",
]


@total_ordering
class ExtendedNat:
    """A natural number or infinity, as a tagged value.

    Infinity is a real value of this type, never a sentinel integer, so
    arithmetic slips show up as type errors instead of silently huge
    dimensions.  Comparisons and equality also accept plain ints.  The
    finite value must be a plain int: True is refused, not taken as 1.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None = None):
        if value is not None and (type(value) is not int or value < 0):
            raise ValueError(f"ExtendedNat needs a nonnegative int, got {value!r}")
        self._value = value

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> int:
        if self._value is None:
            raise ValueError("infinity has no finite value")
        return self._value

    def _key(self, other):
        if isinstance(other, ExtendedNat):
            return other._value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __eq__(self, other):
        key = self._key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._value == key

    def __lt__(self, other):
        key = self._key(other)
        if key is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False
        if key is None:
            return True
        return self._value < key

    def __hash__(self):
        return hash(self._value) if self._value is not None else hash(float("inf"))

    def __add__(self, other: int) -> "ExtendedNat":
        if not isinstance(other, int):
            return NotImplemented
        if self._value is None:
            return self
        return ExtendedNat(self._value + other)

    __radd__ = __add__

    def __repr__(self):
        return "INFINITY" if self._value is None else f"ExtendedNat({self._value})"

    def __str__(self):
        return "infinity" if self._value is None else str(self._value)

    def to_json(self):
        """Serialize as a JSON integer, or the string "infinity"."""
        return "infinity" if self._value is None else self._value

    @classmethod
    def from_json(cls, raw) -> "ExtendedNat":
        if raw == "infinity":
            return INFINITY
        if isinstance(raw, int) and raw >= 0:
            return cls(raw)
        raise ValueError(f"not an ExtendedNat encoding: {raw!r}")


INFINITY = ExtendedNat(None)


def _vertex(alg: KupischSeries, i) -> int:
    """The one check on vertex arguments: i unchanged when it is a plain
    int in 1..v, else NotAdmissible naming it (True is not vertex 1)."""
    if type(i) is int and 0 < i <= len(alg.lengths):
        return i
    raise NotAdmissible(f"vertex {i!r} outside 1..{len(alg.lengths)}")


def _at_least(value, least: int, message: str, error=ValueError) -> None:
    """The one check on level, step and degree arguments: error(message)
    unless value is a plain int >= least (neither True nor 2.0 is one)."""
    if type(value) is not int or value < least:
        raise error(f"{message}, got {value!r}")


_NO_TABLES = MappingProxyType({})  # KupischSeries._memo before its first table
_MISSING = object()


def per_algebra(build):
    """Memoize a per-algebra table: build(alg) runs once per algebra and
    its result is kept in the algebra's `_memo` dict, under the builder's
    dotted name.  The key is a string so that the algebra still pickles.
    A hit is one `get` on the memo, and a miss raises nothing: until its
    first table is built, an algebra's `_memo` is the class's empty
    read-only mapping, and its own dict is made once a build returns.
    An error raised inside a build propagates and leaves no entry."""
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def table(alg):
        memo = alg._memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = build(alg)
            if memo is _NO_TABLES:  # the build may have made the dict itself
                memo = alg.__dict__.setdefault("_memo", {})
            memo[key] = value
        return value

    return table


@dataclass(frozen=True)
class KupischSeries:
    """An admissible Kupisch series; use :meth:`validate` to construct.

    Cyclic series are stored as their lexicographically minimal rotation,
    so equality of instances is equality of algebras up to relabeling.
    """

    lengths: tuple[int, ...]
    cyclic: bool
    _memo = _NO_TABLES  # not a field: per_algebra gives each instance its own

    # -- construction ---------------------------------------------------

    @classmethod
    def validate(cls, raw: Sequence[int], cyclic: bool) -> "KupischSeries":
        """Check admissibility and return the canonical form.

        Raises EmptySeries or NotAdmissible (with the failed constraint
        and 0-based index) on bad input.  Entries must be plain ints, so
        True is refused rather than read as 1.
        """
        lengths = tuple(raw)
        if not lengths:
            raise EmptySeries("a Kupisch series needs at least one entry")
        for idx, c in enumerate(lengths):
            if type(c) is not int or c < 1:
                raise NotAdmissible(f"entry {c!r} is not a positive integer", idx)
        v = len(lengths)
        if cyclic:
            for idx, c in enumerate(lengths):
                if c < 2:
                    raise NotAdmissible("cyclic series requires every entry >= 2", idx)
            for idx in range(v):
                nxt = lengths[(idx + 1) % v]
                if nxt < lengths[idx] - 1:
                    raise NotAdmissible(
                        f"successor length {nxt} < {lengths[idx]} - 1", (idx + 1) % v
                    )
            lengths = min(lengths[k:] + lengths[:k] for k in range(v))
        else:
            if lengths[-1] != 1:
                raise NotAdmissible("linear series must end with 1", v - 1)
            for idx in range(v - 1):
                if lengths[idx] < 2:
                    raise NotAdmissible(
                        "linear series requires entries >= 2 before the last", idx
                    )
                if lengths[idx + 1] < lengths[idx] - 1:
                    raise NotAdmissible(
                        f"successor length {lengths[idx + 1]} < {lengths[idx]} - 1",
                        idx + 1,
                    )
        return cls(lengths, cyclic)

    # -- basic queries ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.lengths)

    def loewy_length(self, i: int) -> int:
        """c_i, the length of P_i (1-based); NotAdmissible off 1..v."""
        return self.lengths[_vertex(self, i) - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.lengths)

    def vertices(self) -> range:
        return range(1, len(self.lengths) + 1)

    def shift(self, i: int, steps: int = 1) -> int:
        """Vertex reached from i after `steps` arrows (top-to-socle direction);
        NotAdmissible for i outside 1..v, ValueError for steps that are
        not a plain int (any sign).  The per-interval helpers walk
        vertices here; `injective_lengths`, the tables in `modules` and the
        AR translates work modulo v.
        """
        i = _vertex(self, i)
        if type(steps) is not int:
            raise ValueError(f"shift wants a plain int number of steps, got {steps!r}")
        v = len(self.lengths)
        if self.cyclic:
            return (i - 1 + steps) % v + 1
        j = i + steps
        if not 1 <= j <= v:
            raise InternalInconsistency(
                f"vertex walk {i}{steps:+d} leaves the linear quiver on {self.lengths}"
            )
        return j

    # -- derived tables (memoized per instance) ---------------------------

    @per_algebra
    def injective_lengths(self) -> tuple[int, ...]:
        """For each vertex j, the length d_j of the longest interval module
        with socle S_j.  That interval is the indecomposable injective
        envelope of S_j: interval modules with a fixed socle vertex are
        totally ordered by inclusion, so the longest one is injective.
        M(j - l + 1, l) has socle j and is a module when l <= c_{j-l+1};
        by admissibility the lengths that fit are 1..d_j, and M(i, l - 1)
        has socle j - 1, so d_j <= d_{j-1} + 1.  Each d_j steps down from
        d_{j-1} + 1; d_1 steps down from max c on a cyclic quiver and is 1
        on a linear one.  InternalInconsistency when a projective's socle
        lies past the end of a linear quiver."""
        c = self.lengths
        v = len(c)
        if not self.cyclic:
            for i, ci in enumerate(c):
                if i + ci > v:
                    raise InternalInconsistency(
                        f"vertex walk {i + 1}{ci - 1:+d} leaves the linear "
                        f"quiver on {c}"
                    )
        d = []
        l = max(c) if self.cyclic else 1
        for j in range(v):
            while c[(j - l + 1) % v] < l:
                l -= 1
            d.append(l)
            l += 1
        return tuple(d)

    def opposite(self) -> "KupischSeries":
        """Kupisch series of the opposite algebra, in canonical form.

        The projectives of the opposite algebra are the duals of the
        injectives here, so the opposite series is the sequence of
        injective lengths read against the arrow order.  Re-validating
        guards the construction: an inadmissible result is a bug.
        """
        d = self.injective_lengths()
        v = len(d)
        if self.cyclic:
            rev = tuple(d[(1 - j) % v] for j in range(1, v + 1))
        else:
            rev = tuple(reversed(d))
        return KupischSeries.validate(rev, self.cyclic)


def _series(v: int, max_length: int, cyclic: bool) -> Iterator[tuple[int, ...]]:
    """Each admissible series on v vertices once, in lexicographic order,
    a cyclic one as its least rotation: a walk over a[1..v] (a[0] = 0 is
    a sentinel), cyclic ones by the FKM necklace recursion with p the
    period of the prefix (Ruskey, Savage, Wang 1992).  The step rule prunes:
    an entry is at least its predecessor minus 1, and at most what can
    still step down to c_v = 1 (linear) or to c_v <= c_1 + 1 (cyclic)."""
    a = [0] * (v + 1)

    def rec(t: int, p: int) -> Iterator[tuple[int, ...]]:
        if t > v:
            if not cyclic or v % p == 0:
                yield tuple(a[1:])
            return
        if cyclic:
            lo = max(2, a[t - 1] - 1, a[t - p])
            hi = max_length if t == 1 else min(max_length, a[1] + 1 + v - t)
        else:
            lo = max(2, a[t - 1] - 1) if t < v else 1
            hi = min(max_length, v - t + 1)
        for c in range(lo, hi + 1):
            a[t] = c
            yield from rec(t + 1, p if c == a[t - p] else t)

    yield from rec(1, 1)


def _quivers(
    max_vertices: int, max_length: int, shapes: Sequence[str]
) -> Iterator[tuple[int, bool]]:
    """The (v, cyclic) blocks of the enumeration, in its order, lazily:
    linear shapes first, then cyclic, each by vertex count.  Only blocks
    that hold a series come out: every vertex but a linear sink has
    c >= 2, so a max_length of 1 admits linear (1) alone.  ValueError, at
    the call, on a bound that is not a plain int >= 0 (`_at_least`: True
    is not 1, nor 3.0 3) or a shape other than "linear" or "cyclic"."""
    _at_least(max_vertices, 0, "max_vertices must be >= 0")
    _at_least(max_length, 0, "max_length must be >= 0")
    unknown = [shape for shape in shapes if shape not in ("linear", "cyclic")]
    if unknown:
        raise ValueError(f"unknown shapes {unknown}; want 'linear' or 'cyclic'")
    top = max_vertices if max_length >= 2 else min(max_vertices, max_length)
    return (
        (v, cyclic)
        for shape, cyclic in (("linear", False), ("cyclic", True))
        if shape in shapes and (max_length >= 2 or not cyclic)
        for v in range(1, top + 1)
    )


def iter_admissible(
    max_vertices: int,
    max_length: int,
    shapes: Sequence[str] = ("linear", "cyclic"),
) -> Iterator[KupischSeries]:
    """Each admissible algebra within the bounds once, built as it is
    reached, in a fixed order: linear shapes first, then cyclic, each by
    vertex count and then by lexicographic series, so sweep output is
    reproducible byte for byte.  Each series comes out canonical and in
    that order by construction.  Nothing is kept between algebras, so a
    caller that holds none walks any bound in constant memory.  The
    bounds and shapes are checked at the call, before anything is
    yielded: ValueError on a bound that is not a plain int >= 0 or a
    shape other than "linear" or "cyclic".
    """
    quivers = _quivers(max_vertices, max_length, shapes)
    return (
        KupischSeries(s, cyclic)
        for v, cyclic in quivers
        for s in _series(v, max_length, cyclic)
    )


def count_admissible(
    max_vertices: int,
    max_length: int,
    shapes: Sequence[str] = ("linear", "cyclic"),
) -> int:
    """len(enumerate_admissible(...)) from the same walk, building no
    algebra.  ValueError on a bad bound or an unknown shape, as there."""
    return sum(
        1
        for v, cyclic in _quivers(max_vertices, max_length, shapes)
        for _ in _series(v, max_length, cyclic)
    )


def enumerate_admissible(
    max_vertices: int,
    max_length: int,
    shapes: Sequence[str] = ("linear", "cyclic"),
) -> list[KupischSeries]:
    """All admissible algebras within the bounds, as a list: the algebras
    of `iter_admissible`, in its order.  ValueError on a bad bound or an
    unknown shape."""
    return list(iter_admissible(max_vertices, max_length, shapes))
