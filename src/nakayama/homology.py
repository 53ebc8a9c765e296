"""Exact homological invariants: syzygies, dimensions, Ext, Gpd.

Syzygies and cosyzygies of interval modules are interval modules, so
Omega and Omega^- are functional graphs on the indecomposables.  The
algebra's integer index (`modules._index`) holds both as successor lists
over positions and is their one definition: `syzygy`, `cosyzygy`, Ext and
the AR translates walk its positions.  pd and id are depths in these
graphs, steps to the zero module, and one breadth-first solver
(`_depths`) decides both as plain lists over positions, None for a walk
into a cycle.  Gpd is read off the pd table (`_gpd_table`): a finite pd
is the Gpd, and over an Iwanaga-Gorenstein algebra of degree g a position
of infinite pd walks Omega, in at most g steps, to its first syzygy that
is Gorenstein projective, a nonzero g-th syzygy.  domdim walks Omega^- from
each P_i to the first interval whose injective envelope is not
projective.  Ext dimensions come from the long exact sequence of the
minimal presentation, one dimension shift at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INFINITY, ExtendedNat, KupischSeries, _at_least, per_algebra
from .errors import GorensteinAsymmetry, InternalInconsistency, NotGorenstein
from .modules import (
    IntervalModule,
    ModuleSum,
    _hom,
    _Index,
    _index,
    _interval_at,
    _intervals,
    _position,
    _positions,
    _split,
    _sum_at,
    _torsionless,
    check_module,
    hom_dim,
    injective_envelope,
    projective_cover,
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


def _step(alg: KupischSeries, succ: list[int], m) -> ModuleSum:
    """The nonzero successors of m's summands in succ, the index's omega
    or coomega."""
    return _sum_at(_index(alg).offset, [succ[p] for p in _positions(alg, m)])


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
    cycle, possibly a self-loop.  Breadth-first from the sinks.  The
    predecessors of s are first[s], then[first[s]], ... down to -1: two
    flat lists, not one list per node."""
    first = [-1] * len(succ)
    then = [-1] * len(succ)
    depth: list[int | None] = [None] * len(succ)
    queue = []
    for p, s in enumerate(succ):
        if s < 0:
            depth[p] = 0
            queue.append(p)
        else:
            then[p] = first[s]
            first[s] = p
    for p in queue:  # grows while it is read: each node enters once
        d, q = depth[p] + 1, first[p]
        while q >= 0:
            depth[q] = d
            queue.append(q)
            q = then[q]
    return depth


@per_algebra
def _pd_table(alg: KupischSeries) -> list[int | None]:
    """pd of every indecomposable by position, None for infinite."""
    return _depths(_index(alg).omega)


@per_algebra
def _id_table(alg: KupischSeries) -> list[int | None]:
    """id of every indecomposable by position, None for infinite."""
    return _depths(_index(alg).coomega)


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


@per_algebra
def gldim(alg: KupischSeries) -> ExtendedNat:
    """The largest pd at the simples."""
    return _max_depth(_pd_table(alg), _index(alg).simple)


@per_algebra
def regular_id(alg: KupischSeries) -> ExtendedNat:
    """Injective dimension of the algebra as a right module over itself:
    the largest id at the projectives."""
    return _max_depth(_id_table(alg), _index(alg).projective)


@per_algebra
def regular_id_left(alg: KupischSeries) -> ExtendedNat:
    """Injective dimension as a left module: by the duality D, id(_A A) =
    pd(D(A)_A), the largest pd at the injectives (zero cosyzygy)."""
    return _max_depth(_pd_table(alg), _index(alg).injective)


@per_algebra
def domdim(alg: KupischSeries) -> ExtendedNat:
    """Least number of leading projective terms in the minimal injective
    coresolution of a P_i; infinite when all of one (possibly periodic)
    consists of projectives.  The walk from P_i follows Omega^- while the
    socle is torsionless; one that reaches a projective-injective, or
    outlasts the positions and so cycles, never ends."""
    idx, sub, lead = _index(alg), _torsionless(alg), []
    for p in idx.projective:
        for k in range(len(idx.coomega)):
            if not sub[idx.socle[p]]:
                lead.append(k)
                break
            if (p := idx.coomega[p]) < 0:
                break
    return ExtendedNat(min(lead)) if lead else INFINITY


# -- Ext dimensions -----------------------------------------------------------


def _source(succ: list[int], p: int, k: int) -> int:
    """succ^(k-1)(p) when succ^k(p) is nonzero, else -1 (k >= 1).  Over
    omega its Ext^1 is Ext^k of p and its tau is tau_k of p; over coomega
    its tau^- is tau_k^- of p.  A walk still alive after len(succ) steps
    has repeated a node, so it is on its cycle: the steps past len(succ)
    are taken modulo the cycle's length, and any k costs O(len(succ))."""
    if k > 2 and k - 1 > len(succ):  # k <= 2, the usual case, skips len()
        p = _source(succ, p, len(succ) + 1)
        if p < 0:
            return -1
        cycle, q = 1, succ[p]
        while q != p:
            cycle, q = cycle + 1, succ[q]
        k = (k - 1 - len(succ)) % cycle + 1
    for _ in range(k - 1):
        p = succ[p]
        if p < 0:
            return -1
    return p if succ[p] >= 0 else -1


def _ext1(alg: KupischSeries, idx: _Index, q: int, targets) -> list[int]:
    """dim Ext^1(z, y) for the interval y = M(s, l) of each (s, l) pair of
    targets, z the non-projective interval at position q, by its minimal
    presentation off alg's index idx, with z, Omega z and P(z) = M(zs, c)
    read once per row: 0 -> Hom(z,y) -> Hom(P(z),y) -> Hom(Omega z,y) ->
    Ext^1(z,y) -> 0."""
    offset = idx.offset
    zs, zl = _interval_at(offset, q)
    ws, wl = _interval_at(offset, idx.omega[q])
    c = alg.lengths[zs - 1]
    row = []
    for s, l in targets:
        val = _hom(alg, ws, wl, s, l) - _hom(alg, zs, c, s, l) + _hom(alg, zs, zl, s, l)
        if val < 0:
            raise InternalInconsistency(
                f"negative Ext^1(M({zs},{zl}), M({s},{l})) = {val} over {alg.lengths}"
            )
        row.append(val)
    return row


def ext_dim(alg: KupischSeries, x, y, k: int) -> int:
    """dim Ext^k(x, y), additive over summands; k = 0 is hom_dim.  Each
    summand's checked (start, length) pair is read once, y's first, an
    interval's with no list.  Ext^k(a, y) is the sum of the `_ext1` row
    of Omega^(k-1) a (`_source`) over y's pairs, the rows that
    `search_precluster` reads."""
    _at_least(k, 0, "ext_dim wants k >= 0")
    if k == 0:
        return hom_dim(alg, x, y)
    ys = _intervals(alg, y)
    idx = _index(alg)
    offset = idx.offset
    total = 0
    for s, l in _intervals(alg, x):
        q = _source(idx.omega, offset[s - 1] + l - 1, k)
        if q >= 0:
            total += sum(_ext1(alg, idx, q, ys))
    return total


# -- Gorenstein invariants ----------------------------------------------------


@per_algebra
def gorenstein_degree(alg: KupischSeries) -> ExtendedNat:
    """Common value of the two self-injective dimensions, the id table at
    the projectives (right) and the pd table at the injectives (left);
    INFINITY when both are infinite.  Any one-sided or unequal answer is
    a bug, never a property of the algebra, hence the typed error."""
    right = regular_id(alg)
    left = regular_id_left(alg)
    if right != left:
        raise GorensteinAsymmetry(
            f"self-injective dimensions disagree over {alg.lengths}: "
            f"right={right}, left={left}"
        )
    return right


def _finite_degree(alg: KupischSeries) -> int:
    """The Gorenstein degree, for the invariants that need it finite."""
    g = gorenstein_degree(alg)
    if not g.is_finite:
        raise NotGorenstein(f"{alg.lengths} has infinite Gorenstein degree")
    return g.value


@per_algebra
def _gpd_table(alg: KupischSeries) -> list[int]:
    """Gpd of every indecomposable by position, built once per algebra;
    NotGorenstein when the Gorenstein degree g is infinite.

    A module of finite projective dimension has Gpd = pd (Holm,
    Gorenstein homological dimensions, JPAA 2004, Prop. 2.27), so the
    table starts as a copy of the pd table.  The other positions have
    infinite pd, and Omega keeps them there.  Over an Iwanaga-Gorenstein
    algebra of degree g, Omega^g of any module is Gorenstein projective,
    and each Gorenstein projective that is not projective is Omega^g of
    another one.  So among these positions the Gorenstein projectives
    (Gpd 0) are exactly the Omega^g images, and every other one has
    Gpd <= g.  Each walks Omega to the first solved position, and every
    position on the walk gets its distance.  A walk from p meets
    Omega^g p, which the layer has solved, so it takes at most g steps
    and never goes round a cycle."""
    g = _finite_degree(alg)
    omega = _index(alg).omega
    gpd = list(_pd_table(alg))
    infinite = [p for p, d in enumerate(gpd) if d is None]
    layer = infinite
    for _ in range(g):
        layer = [omega[p] for p in layer]
    for p in layer:
        gpd[p] = 0
    for p in infinite:
        walk = []
        while gpd[p] is None:
            walk.append(p)
            p = omega[p]
        d = gpd[p]
        for q in reversed(walk):
            d += 1
            gpd[q] = d
    return gpd


def _gpd1(alg: KupischSeries, m: IntervalModule) -> int:
    p = _position(alg, m)  # m is checked before the table is built
    return _gpd_table(alg)[p]


def gpd(alg: KupischSeries, m) -> int:
    """Gorenstein projective dimension: the most syzygy steps any summand
    of m takes to reach a Gorenstein projective, read from the algebra's
    Gpd table.  Over a Gorenstein algebra it lies in
    0..gorenstein_degree; NotGorenstein otherwise (0 for the zero
    module, which needs no table)."""
    return max((_gpd1(alg, piece) for piece in _split(m)), default=0)


def is_gorenstein_projective(alg: KupischSeries, m) -> bool:
    return gpd(alg, m) == 0


def gp_census(alg: KupischSeries) -> tuple[IntervalModule, ...]:
    """All Gorenstein projective indecomposables, sorted."""
    gp = [p for p, k in enumerate(_gpd_table(alg)) if k == 0]
    return _sum_at(_index(alg).offset, gp).summands


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


def _resolve(alg, m, term_of, step, kind) -> Resolution:
    """Walk the (co)kernels of m until one is zero or repeats.  The walk
    always ends: each summand has at most one successor, so every state
    is a multiset of at most len(m) positions, there are finitely many,
    and `seen` catches the first repeat."""
    msum = check_module(alg, m)
    terms: list[ModuleSum] = []
    kernels: list[ModuleSum] = []
    seen: dict[ModuleSum, int] = {}
    cur = msum
    while True:
        if cur.is_zero:
            return Resolution(kind, msum, tuple(terms), tuple(kernels), True, None)
        if cur in seen:
            return Resolution(
                kind, msum, tuple(terms), tuple(kernels), False, seen[cur]
            )
        seen[cur] = len(terms)
        terms.append(term_of(alg, cur))
        cur = step(alg, cur)
        kernels.append(cur)


def projective_resolution(alg: KupischSeries, m) -> Resolution:
    return _resolve(alg, m, projective_cover, syzygy, "projective")


def injective_coresolution(alg: KupischSeries, m) -> Resolution:
    return _resolve(alg, m, injective_envelope, cosyzygy, "injective")
