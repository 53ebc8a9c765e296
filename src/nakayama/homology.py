"""Exact homological invariants: syzygies, dimensions, Ext, Gpd.

Syzygies of interval modules are interval modules, so minimal resolutions
are deterministic walks on a finite set and every dimension is decided
exactly: a walk either reaches zero (finite dimension) or revisits a
state (infinite).  The Gorenstein projective dimension is the same
syzygy walk stopped at the first Gorenstein projective: over an
Iwanaga-Gorenstein algebra of degree g those are exactly the g-th
syzygies.  Ext dimensions come from the long exact sequence of the
minimal presentation, one dimension shift at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INFINITY, ExtendedNat, KupischSeries, _max_nat, _min_nat
from .errors import GorensteinAsymmetry, InternalInconsistency, NotGorenstein
from .modules import (
    IntervalModule,
    ModuleSum,
    _as_sum,
    _indecomposable_entry,
    hom_dim,
    indecomposables,
    injective,
    injective_envelope,
    is_projective,
    projective,
    projective_cover,
    simple,
    socle_vertex,
)

__all__ = [
    "Resolution",
    "cosyzygy",
    "domdim",
    "ext_dim",
    "gldim",
    "gorenstein_degree",
    "gp_census",
    "gpd",
    "idim",
    "injective_coresolution",
    "is_gorenstein_projective",
    "pd",
    "projective_resolution",
    "regular_id",
    "regular_id_left",
    "syzygy",
]


# -- syzygy steps ------------------------------------------------------------


def _syzygy1(alg: KupischSeries, m: IntervalModule) -> IntervalModule | None:
    """Kernel of the projective cover P_start ->> m, or None when projective."""
    c = alg.loewy_length(m.start)
    if m.length == c:
        return None
    return IntervalModule(alg.shift(m.start, m.length), c - m.length)


def _cosyzygy1(alg: KupischSeries, m: IntervalModule) -> IntervalModule | None:
    """Cokernel of m into its injective envelope, or None when injective."""
    d = alg.injective_length(socle_vertex(alg, m))
    if m.length == d:
        return None
    return IntervalModule(alg.shift(m.start, m.length - d), d - m.length)


def syzygy(alg: KupischSeries, m) -> ModuleSum:
    out = [_syzygy1(alg, piece) for piece in _as_sum(m)]
    return ModuleSum.of(*(z for z in out if z is not None))


def cosyzygy(alg: KupischSeries, m) -> ModuleSum:
    out = [_cosyzygy1(alg, piece) for piece in _as_sum(m)]
    return ModuleSum.of(*(z for z in out if z is not None))


# -- projective / injective dimension ----------------------------------------


def _walk_dim(alg: KupischSeries, m: IntervalModule, step, memo: dict) -> ExtendedNat:
    """Length of the minimal (co)resolution of one interval.

    Walks the deterministic orbit until it dies (finite), meets an
    interval already in `memo`, or repeats (infinite), then records every
    interval walked in `memo`.
    """
    if m in memo:
        return memo[m]
    walk: dict[IntervalModule, None] = {}  # insertion-ordered set
    cur = m
    while cur is not None and cur not in memo and cur not in walk:
        walk[cur] = None
        cur = step(alg, cur)
    # the last interval walked is one step before cur; a cur that is in the
    # walk but not yet in memo closes a cycle, so the walk never dies
    last = ExtendedNat(0) if cur is None else memo.get(cur, INFINITY) + 1
    for t, node in enumerate(reversed(walk)):
        memo[node] = last + t
    return memo[m]


def pd(alg: KupischSeries, m) -> ExtendedNat:
    """Projective dimension (0 for the zero module)."""
    memo = alg._cached("pd", dict)
    return _max_nat(_walk_dim(alg, piece, _syzygy1, memo) for piece in _as_sum(m))


def idim(alg: KupischSeries, m) -> ExtendedNat:
    """Injective dimension (0 for the zero module)."""
    memo = alg._cached("id", dict)
    return _max_nat(_walk_dim(alg, piece, _cosyzygy1, memo) for piece in _as_sum(m))


def gldim(alg: KupischSeries) -> ExtendedNat:
    return alg._cached(
        "gldim",
        lambda: _max_nat(pd(alg, simple(alg, i)) for i in alg.vertices()),
    )


def regular_id(alg: KupischSeries) -> ExtendedNat:
    """Injective dimension of the algebra as a right module over itself."""
    return alg._cached(
        "regular_id",
        lambda: _max_nat(idim(alg, projective(alg, i)) for i in alg.vertices()),
    )


def regular_id_left(alg: KupischSeries) -> ExtendedNat:
    """Injective dimension on the other side, via the opposite algebra."""
    return alg._cached("regular_id_left", lambda: regular_id(alg.opposite()))


def _domdim_one(alg: KupischSeries, i: int) -> ExtendedNat:
    """Number of leading projective terms in the minimal injective
    coresolution of P_i; infinite when the whole coresolution (possibly
    periodic) consists of projectives."""
    cur: IntervalModule | None = projective(alg, i)
    count = 0
    seen = set()
    while cur is not None:
        if cur in seen:
            return INFINITY
        seen.add(cur)
        term = injective(alg, socle_vertex(alg, cur))
        if not is_projective(alg, term):
            return ExtendedNat(count)
        count += 1
        cur = _cosyzygy1(alg, cur)
    return INFINITY


def domdim(alg: KupischSeries) -> ExtendedNat:
    return alg._cached(
        "domdim",
        lambda: _min_nat(_domdim_one(alg, i) for i in alg.vertices()),
    )


# -- Ext dimensions -----------------------------------------------------------


def _ext1_interval(alg, z: IntervalModule, y: IntervalModule) -> int:
    """dim Ext^1(z, y) for indecomposable z via the minimal presentation:
    0 -> Hom(z,y) -> Hom(P(z),y) -> Hom(Omega z,y) -> Ext^1(z,y) -> 0."""
    w = _syzygy1(alg, z)
    if w is None:
        return 0
    val = (
        hom_dim(alg, w, y)
        - hom_dim(alg, projective(alg, z.start), y)
        + hom_dim(alg, z, y)
    )
    if val < 0:
        raise InternalInconsistency(
            f"negative Ext^1({z}, {y}) = {val} over {alg.lengths}"
        )
    return val


def ext_dim(alg: KupischSeries, x, y, k: int) -> int:
    """dim Ext^k(x, y), additive over summands; k = 0 counts homs."""
    if k < 0:
        raise ValueError("ext_dim wants k >= 0")
    xs, ys = _as_sum(x), _as_sum(y)
    if k == 0:
        return sum(hom_dim(alg, a, b) for a in xs for b in ys)
    total = 0
    for piece in xs:
        z: IntervalModule | None = piece
        for _ in range(k - 1):
            z = _syzygy1(alg, z)
            if z is None:
                break
        if z is None:
            continue
        total += sum(_ext1_interval(alg, z, b) for b in ys)
    return total


# -- Gorenstein invariants ----------------------------------------------------


def gorenstein_degree(alg: KupischSeries) -> ExtendedNat:
    """Common value of the two self-injective dimensions; INFINITY when
    both are infinite.  Any one-sided or unequal answer is a bug, never a
    property of the algebra, hence the typed error."""

    def compute():
        right = regular_id(alg)
        left = regular_id_left(alg)
        if right.is_finite != left.is_finite or (
            right.is_finite and right != left
        ):
            raise GorensteinAsymmetry(
                f"self-injective dimensions disagree over {alg.lengths}: "
                f"right={right}, left={left}"
            )
        return right

    return alg._cached("gorenstein_degree", compute)


def _finite_degree(alg: KupischSeries) -> int:
    """The Gorenstein degree, for the invariants that need it finite."""
    g = gorenstein_degree(alg)
    if not g.is_finite:
        raise NotGorenstein(f"{alg.lengths} has infinite Gorenstein degree")
    return g.value


def _gp_indecomposables(alg: KupischSeries) -> frozenset[IntervalModule]:
    """The indecomposable Gorenstein projectives: the projectives and
    every nonzero g-th syzygy of an interval, g the Gorenstein degree."""

    def build():
        layer = set(indecomposables(alg))
        for _ in range(_finite_degree(alg)):
            layer = {_syzygy1(alg, z) for z in layer} - {None}
        return frozenset(layer).union(projective(alg, i) for i in alg.vertices())

    return alg._cached("gp", build)


def _gpd_table(alg: KupischSeries) -> dict[IntervalModule, int]:
    """Gpd of every indecomposable, built once per algebra by one syzygy
    walk over all intervals, each stopped at the first Gorenstein
    projective.  NotGorenstein when the degree is infinite."""

    def build():
        gp = _gp_indecomposables(alg)

        def step(a, z):
            return None if z in gp else _syzygy1(a, z)

        walked: dict[IntervalModule, ExtendedNat] = {}
        for m in indecomposables(alg):
            _walk_dim(alg, m, step, walked)
        return {m: k.value for m, k in walked.items()}

    return alg._cached("gpd", build)


def _gpd1(alg: KupischSeries, m: IntervalModule) -> int:
    return _indecomposable_entry(alg, _gpd_table(alg), m)


def gpd(alg: KupischSeries, m) -> int:
    """Gorenstein projective dimension: the most syzygy steps any summand
    of m takes to reach a Gorenstein projective, read from the algebra's
    Gpd table.  Over a Gorenstein algebra it lies in
    0..gorenstein_degree; NotGorenstein otherwise (0 for the zero
    module, which needs no table)."""
    return max((_gpd1(alg, piece) for piece in _as_sum(m)), default=0)


def is_gorenstein_projective(alg: KupischSeries, m) -> bool:
    return gpd(alg, m) == 0


def gp_census(alg: KupischSeries) -> tuple[IntervalModule, ...]:
    """All Gorenstein projective indecomposables, sorted."""
    gp = _gp_indecomposables(alg)
    return tuple(m for m in indecomposables(alg) if m in gp)


# -- explicit resolutions -----------------------------------------------------


@dataclass(frozen=True)
class Resolution:
    """A minimal (co)resolution with its successive (co)kernels.

    terms[k] covers (resp. envelopes) state_k where state_0 = module and
    state_{k+1} = kernels[k].  A terminated resolution ends with a zero
    kernel; otherwise periodic_from is the first index t with
    state_t = state_{len(terms)} (the walk revisits that state).
    """

    kind: str
    module: ModuleSum
    terms: tuple[ModuleSum, ...]
    kernels: tuple[ModuleSum, ...]
    terminated: bool
    periodic_from: int | None


def _resolve(alg, m, term_of, step, kind, max_steps) -> Resolution:
    msum = _as_sum(m)
    terms: list[ModuleSum] = []
    kernels: list[ModuleSum] = []
    seen: dict[ModuleSum, int] = {}
    cur = msum
    step_no = 0
    while True:
        if cur.is_zero:
            return Resolution(kind, msum, tuple(terms), tuple(kernels), True, None)
        if cur in seen:
            return Resolution(
                kind, msum, tuple(terms), tuple(kernels), False, seen[cur]
            )
        if max_steps is not None and step_no >= max_steps:
            raise ValueError(f"resolution of {msum} exceeded {max_steps} steps")
        seen[cur] = step_no
        terms.append(term_of(alg, cur))
        cur = step(alg, cur)
        kernels.append(cur)
        step_no += 1


def projective_resolution(alg: KupischSeries, m, max_steps: int | None = None) -> Resolution:
    return _resolve(alg, m, projective_cover, syzygy, "projective", max_steps)


def injective_coresolution(alg: KupischSeries, m, max_steps: int | None = None) -> Resolution:
    return _resolve(alg, m, injective_envelope, cosyzygy, "injective", max_steps)
