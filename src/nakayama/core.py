"""Connected Nakayama algebras presented by Kupisch series.

A basic connected Nakayama algebra over a field is determined by the list
(c_1, ..., c_v) of Loewy lengths of its indecomposable projective right
modules, indexed so that rad P_i is a quotient of P_{i+1} (successor
convention, indices cyclic when the quiver is a cycle).  Admissibility:

  cyclic quiver:  every c_i >= 2 and c_{i+1} >= c_i - 1 (indices mod v),
  linear quiver:  c_v = 1, c_i >= 2 for i < v, and c_{i+1} >= c_i - 1.

Everything else in the package is derived from this data by exact integer
combinatorics; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Sequence

from .errors import EmptySeries, InternalInconsistency, NotAdmissible

__all__ = ["ExtendedNat", "INFINITY", "KupischSeries", "enumerate_admissible"]


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


@dataclass(frozen=True)
class KupischSeries:
    """An admissible Kupisch series; use :meth:`validate` to construct.

    Cyclic series are stored as their lexicographically minimal rotation,
    so equality of instances is equality of algebras up to relabeling.
    """

    lengths: tuple[int, ...]
    cyclic: bool

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
        """c_i, the length of the projective with top S_i (1-based)."""
        return self.lengths[i - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.lengths)

    def vertices(self) -> range:
        return range(1, len(self.lengths) + 1)

    def shift(self, i: int, steps: int = 1) -> int:
        """Vertex reached from i after `steps` arrows (top-to-socle direction).

        All composition-factor index arithmetic funnels through here, so a
        single orientation flip anywhere is a flip everywhere and the
        golden-value guard catches it.
        """
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

    def _cached(self, key, thunk):
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = self.__dict__["_memo"] = {}
        if key not in memo:
            memo[key] = thunk()
        return memo[key]

    def injective_lengths(self) -> tuple[int, ...]:
        """For each vertex j, the length of the longest interval module
        with socle S_j.  That interval is the indecomposable injective
        envelope of S_j: interval modules with a fixed socle vertex are
        totally ordered by inclusion, so the longest one is injective."""
        return self._cached("dinj", self._injective_lengths)

    def _injective_lengths(self) -> tuple[int, ...]:
        out = []
        for j in self.vertices():
            d = 1
            while True:
                m = d + 1
                if not self.cyclic and j - m + 1 < 1:
                    break
                start = self.shift(j, 1 - m)
                if m <= self.lengths[start - 1]:
                    d = m
                else:
                    break
            out.append(d)
        return tuple(out)

    def injective_length(self, j: int) -> int:
        return self.injective_lengths()[j - 1]

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


def _linear_series(v: int, max_length: int) -> Iterator[tuple[int, ...]]:
    if v == 1:
        if max_length >= 1:
            yield (1,)
        return

    def rec(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        i = len(prefix)
        if i == v - 1:
            if prefix[-1] <= 2:
                yield prefix + (1,)
            return
        lo = max(2, prefix[-1] - 1) if prefix else 2
        # entries can only drop by 1 per step, so anything too tall to
        # reach c_v = 1 is a dead end
        hi = min(max_length, v - i)
        for c in range(lo, hi + 1):
            yield from rec(prefix + (c,))

    yield from rec(())


def _cyclic_series(v: int, max_length: int) -> Iterator[tuple[int, ...]]:
    seen = set()

    def rec(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        i = len(prefix)
        if i == v:
            if prefix[0] >= prefix[-1] - 1:
                canon = min(prefix[k:] + prefix[:k] for k in range(v))
                if canon not in seen:
                    seen.add(canon)
                    yield canon
            return
        lo = max(2, prefix[-1] - 1) if prefix else 2
        for c in range(lo, max_length + 1):
            yield from rec(prefix + (c,))

    yield from rec(())


def enumerate_admissible(
    max_vertices: int,
    max_length: int,
    shapes: Sequence[str] = ("linear", "cyclic"),
) -> list[KupischSeries]:
    """All admissible algebras within the bounds, in a fixed order.

    Cyclic series are produced once per rotation class (canonical form).
    Order: linear shapes first, then cyclic, each by vertex count and
    lexicographic series, so sweep output is reproducible byte for byte.
    """
    out: list[KupischSeries] = []
    if "linear" in shapes:
        for v in range(1, max_vertices + 1):
            for series in sorted(_linear_series(v, max_length)):
                out.append(KupischSeries(series, False))
    if "cyclic" in shapes:
        for v in range(1, max_vertices + 1):
            for series in sorted(_cyclic_series(v, max_length)):
                out.append(KupischSeries(series, True))
    return out
