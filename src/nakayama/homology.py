"""Exact homological invariants: syzygies, dimensions, Ext, Gpd.

Syzygies and cosyzygies of interval modules are interval modules, so
Omega and Omega^- are functional graphs on the indecomposables.  pd, id,
Gpd and domdim are depths in them, steps to a sink, and one breadth-first
solver (`_depths`) decides all four exactly; a walk into a cycle never
ends.  The sinks are zero for pd and id; for Gpd the Gorenstein
projectives, over an Iwanaga-Gorenstein algebra of degree g the
projectives and the nonzero g-th syzygies; for domdim the intervals whose
injective envelope is not projective.  Ext dimensions come from the long
exact sequence of the minimal presentation, one dimension shift at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .core import ExtendedNat, KupischSeries, _max_nat, _min_nat
from .errors import GorensteinAsymmetry, InternalInconsistency, NotGorenstein
from .modules import (
    IntervalModule,
    ModuleSum,
    _as_sum,
    _indecomposable_entry,
    _torsionless,
    hom_dim,
    indecomposables,
    injective_envelope,
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


# -- depths in the Omega and Omega^- graphs ---------------------------------


def _depths(succ: list[int]) -> list[int | None]:
    """Steps from each node of a functional graph to a sink (successor
    -1), or None when the node's walk never reaches one: it ends in a
    cycle, possibly a self-loop.  Breadth-first from the sinks."""
    depth = [0 if s < 0 else None for s in succ]
    queue = [p for p, s in enumerate(succ) if s < 0]
    preds: list[list[int]] = [[] for _ in succ]
    for p, s in enumerate(succ):
        if s >= 0:
            preds[s].append(p)
    for p in queue:  # grows while it is read: each node enters once
        for q in preds[p]:
            depth[q] = depth[p] + 1
            queue.append(q)
    return depth


def _successors(alg: KupischSeries, step) -> list[int]:
    """step (_syzygy1 or _cosyzygy1) of each indecomposable as a position
    in indecomposables(alg), -1 for zero; built once per algebra."""

    def build():
        offset = [0, *accumulate(alg.lengths)]
        out = [step(alg, m) for m in indecomposables(alg)]
        return [-1 if z is None else offset[z.start - 1] + z.length - 1 for z in out]

    return alg._cached(step.__name__, build)


def _depth_table(alg: KupischSeries, key: str, step) -> dict:
    """ExtendedNat depth of every indecomposable in the graph of `step`."""

    def build():
        depths = _depths(_successors(alg, step))
        return dict(zip(indecomposables(alg), map(ExtendedNat, depths)))

    return alg._cached(key, build)


def pd(alg: KupischSeries, m) -> ExtendedNat:
    """Projective dimension (0 for the zero module)."""
    table = _depth_table(alg, "pd", _syzygy1)
    return _max_nat(_indecomposable_entry(alg, table, p) for p in _as_sum(m))


def idim(alg: KupischSeries, m) -> ExtendedNat:
    """Injective dimension (0 for the zero module)."""
    table = _depth_table(alg, "id", _cosyzygy1)
    return _max_nat(_indecomposable_entry(alg, table, p) for p in _as_sum(m))


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


def domdim(alg: KupischSeries) -> ExtendedNat:
    """Least number of leading projective terms in the minimal injective
    coresolution of a P_i; infinite when all of one (possibly periodic)
    consists of projectives.  On the Omega^- graph an interval whose
    injective envelope is not projective (one that is not torsionless)
    is a sink, and a projective-injective one loops on itself."""

    def compute():
        # the torsionless table is in indecomposables(alg) order
        sub = list(_torsionless(alg).values())
        succ = [
            (z if z >= 0 else p) if sub[p] else -1
            for p, z in enumerate(_successors(alg, _cosyzygy1))
        ]
        depths = _depths(succ)
        # P_i is the last interval with top i
        return _min_nat(ExtendedNat(depths[q - 1]) for q in accumulate(alg.lengths))

    return alg._cached("domdim", compute)


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


def _gpd_table(alg: KupischSeries) -> dict[IntervalModule, int]:
    """Gpd of every indecomposable, built once per algebra: its depth in
    the Omega graph whose sinks are the indecomposable Gorenstein
    projectives, the projectives and every nonzero Omega^g of an
    interval, g the Gorenstein degree.  NotGorenstein when g is infinite."""

    def build():
        omega = _successors(alg, _syzygy1)
        layer = set(range(len(omega)))
        for _ in range(_finite_degree(alg)):
            layer = {omega[p] for p in layer} - {-1}
        succ = [-1 if p in layer else z for p, z in enumerate(omega)]
        return dict(zip(indecomposables(alg), _depths(succ)))

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
    table = _gpd_table(alg)
    return tuple(m for m in indecomposables(alg) if table[m] == 0)


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
