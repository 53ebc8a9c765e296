"""Exact homological invariants: syzygies, dimensions, Ext, Gpd.

Syzygies and cosyzygies of interval modules are interval modules, so
Omega and Omega^- are functional graphs on the indecomposables.  The
algebra's integer index (`modules._index`) holds both as successor lists
over positions and is their one definition: `syzygy`, `cosyzygy`, Ext and
the AR translates walk its positions.  pd, id, Gpd and domdim are depths
in these graphs, steps to a sink, and one breadth-first solver
(`_depths`) decides all four exactly as plain lists over positions, None
for a walk into a cycle, which never ends.  The sinks are zero for pd and
id; for Gpd the Gorenstein projectives, over an Iwanaga-Gorenstein
algebra of degree g the projectives and the nonzero g-th syzygies; for
domdim the intervals whose injective envelope is not projective.  Ext
dimensions come from the long exact sequence of the minimal presentation,
one dimension shift at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INFINITY, ExtendedNat, KupischSeries
from .errors import GorensteinAsymmetry, InternalInconsistency, NotGorenstein
from .modules import (
    IntervalModule,
    ModuleSum,
    _as_sum,
    _hom,
    _index,
    _position,
    _positions,
    _torsionless,
    check_module,
    indecomposables,
    injective_envelope,
    projective,
    projective_cover,
)

# Ext counts homs with the unchecked kernel _hom.  hom_dim stays bound
# here because perfbench/workloads.py traces it in this module.
from .modules import hom_dim  # noqa: F401

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


def _step(alg: KupischSeries, succ: list[int], m) -> ModuleSum:
    """The nonzero successors of m's summands in succ, the index's omega
    or coomega."""
    indecs = indecomposables(alg)
    steps = [succ[p] for p in _positions(alg, m)]
    return ModuleSum.of(*(indecs[q] for q in steps if q >= 0))


def syzygy(alg: KupischSeries, m) -> ModuleSum:
    """Kernel of the projective cover, summand by summand."""
    return _step(alg, _index(alg).omega, m)


def cosyzygy(alg: KupischSeries, m) -> ModuleSum:
    """Cokernel of the injective envelope, summand by summand."""
    return _step(alg, _index(alg).coomega, m)


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


def _pd_table(alg: KupischSeries) -> list[int | None]:
    """pd of every indecomposable by position, None for infinite."""
    return alg._cached("pd", lambda: _depths(_index(alg).omega))


def _id_table(alg: KupischSeries) -> list[int | None]:
    """id of every indecomposable by position, None for infinite."""
    return alg._cached("id", lambda: _depths(_index(alg).coomega))


def _max_depth(depths: list[int | None], positions) -> ExtendedNat:
    """The largest depth at the positions, 0 when there are none."""
    vals = [depths[p] for p in positions]
    return INFINITY if None in vals else ExtendedNat(max(vals, default=0))


def pd(alg: KupischSeries, m) -> ExtendedNat:
    """Projective dimension (0 for the zero module)."""
    return _max_depth(_pd_table(alg), _positions(alg, m))


def idim(alg: KupischSeries, m) -> ExtendedNat:
    """Injective dimension (0 for the zero module)."""
    return _max_depth(_id_table(alg), _positions(alg, m))


def gldim(alg: KupischSeries) -> ExtendedNat:
    idx = _index(alg)
    return _max_depth(_pd_table(alg), map(idx.simple_at, alg.vertices()))


def regular_id(alg: KupischSeries) -> ExtendedNat:
    """Injective dimension of the algebra as a right module over itself."""
    idx = _index(alg)
    return _max_depth(_id_table(alg), map(idx.projective_at, alg.vertices()))


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
        idx = _index(alg)
        sub = _torsionless(alg)
        succ = [
            (z if z >= 0 else p) if sub[j] else -1
            for p, (z, j) in enumerate(zip(idx.coomega, idx.socle))
        ]
        depths = _depths(succ)
        lead = [depths[idx.projective_at(i)] for i in alg.vertices()]
        return min((ExtendedNat(k) for k in lead if k is not None), default=INFINITY)

    return alg._cached("domdim", compute)


# -- Ext dimensions -----------------------------------------------------------


def _ext1(alg: KupischSeries, z: IntervalModule, w: IntervalModule, y) -> int:
    """dim Ext^1(z, y) for an indecomposable z with syzygy w via the
    minimal presentation:
    0 -> Hom(z,y) -> Hom(P(z),y) -> Hom(Omega z,y) -> Ext^1(z,y) -> 0."""
    val = _hom(alg, w, y) - _hom(alg, projective(alg, z.start), y) + _hom(alg, z, y)
    if val < 0:
        raise InternalInconsistency(
            f"negative Ext^1({z}, {y}) = {val} over {alg.lengths}"
        )
    return val


def ext_dim(alg: KupischSeries, x, y, k: int) -> int:
    """dim Ext^k(x, y), additive over summands; k = 0 counts homs."""
    if k < 0:
        raise ValueError("ext_dim wants k >= 0")
    ys = check_module(alg, y)
    if k == 0:
        return sum(_hom(alg, a, b) for a in check_module(alg, x) for b in ys)
    omega = _index(alg).omega
    indecs = indecomposables(alg)
    total = 0
    for p in _positions(alg, x):
        for _ in range(k - 1):
            p = omega[p]
            if p < 0:
                break
        if p >= 0 and omega[p] >= 0:
            z, w = indecs[p], indecs[omega[p]]
            total += sum(_ext1(alg, z, w, b) for b in ys)
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


def _gpd_table(alg: KupischSeries) -> list[int]:
    """Gpd of every indecomposable by position, built once per algebra:
    its depth in the Omega graph whose sinks are the indecomposable
    Gorenstein projectives, the projectives and every nonzero Omega^g of
    an interval, g the Gorenstein degree.  NotGorenstein when g is
    infinite."""

    def build():
        omega = _index(alg).omega
        layer = set(range(len(omega)))
        for _ in range(_finite_degree(alg)):
            layer = {omega[p] for p in layer} - {-1}
        return _depths([-1 if p in layer else z for p, z in enumerate(omega)])

    return alg._cached("gpd", build)


def _gpd1(alg: KupischSeries, m: IntervalModule) -> int:
    table = _gpd_table(alg)
    return table[_position(alg, m)]


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
    return tuple(
        m for m, k in zip(indecomposables(alg), _gpd_table(alg)) if k == 0
    )


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
    msum = check_module(alg, m)
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
