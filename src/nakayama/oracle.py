"""Brute-force matrix oracle over a small prime field.

Realizes modules as quiver representations and answers hom, Ext^1,
injectivity and AR-translate questions by Gaussian elimination mod p,
independently of the combinatorial engine.  The point is cross-checking:
the only shared ingredients are the Kupisch lengths and the vertex-shift
convention, never the counting formulas being tested.

Everything here is exact integer arithmetic on plain Python ints: a
matrix is a list of rows, reduced mod p by row elimination.  p = 2 by
default and the answers must not depend on p (monomial relations), which
the tests check.

Cross-check state.  Hom and Ext^1 read one private state per quiver
(v vertices, cyclic or linear) over the field held, filled on first use
and shared by every algebra on that quiver.  For A = kQ/I and A-modules
x, y, Hom_A(x, y) = Hom_kQ(x, y) (Assem-Simson-Skowronski, Elements of
the Representation Theory of Associative Algebras 1, Ch. III), and a
realization reads only the quiver's vertex walk; so realizations and
Hom bases are keyed by the interval codes of x and y alone.  Ext^1(x, y)
reads A only through c = c_{x.start}, the length of the cover P(x): the
presentation kernel is keyed by (x, c) and Ext^1 by (x, c, y).  Each
ordered pair's intertwiner system is eliminated once, for a basis of
Hom(x, y); dim Hom is its length.  The kernel table holds the kernel's
name, checked against its realization, and the cover coordinates it
keeps, so Ext^1 reads Hom(K, y) from the Hom table and restricts the
cover's basis to them.  None of it depends on a call's caps.  Each call
checks each argument in one pass (`_codes`) before it reads the state:
every summand against the Kupisch lengths, its start by `core._vertex`,
a start or length that is not a plain int refused (True is not 1, nor
2.0 2), the summand turned into its code, and the caps checked.  Hom
and Ext^1 then read the state's rows directly and compute a pair only
on a miss.  Hom and Ext^1 are additive in each argument, so a sum is
answered from its summand pairs.  Injectivity is Baer's criterion on
the same Ext^1 table, with each simple S_i under its own
c_i: over a finite-dimensional algebra m is injective exactly when
Ext^1(S, m) = 0 for every simple S.  One field is held at a time (a
one-slot lru_cache over p): a query over another field drops every
state.  Memory grows with the quivers and intervals queried, not with
the number of algebras.  The states keep no algebra and live outside
the algebra's `_memo` (`core.per_algebra`), so the oracle shares no
per-algebra state with the engine it checks.  The AR translate reads
the algebra's paths, listed once per algebra and kept for one algebra
at a time, since they read every Kupisch length; it is answered
summand by summand.
"""

from __future__ import annotations

import functools

from .core import KupischSeries, _vertex
from .errors import DimensionCapExceeded, InternalInconsistency, NotAdmissible
from .modules import IntervalModule, ModuleSum, _split

__all__ = [
    "MatrixRep",
    "realize",
    "oracle_hom_dim",
    "oracle_ext1_dim",
    "oracle_is_injective",
    "oracle_socle_vector",
    "oracle_tau",
]

DEFAULT_DIM_CAP = 128


def _check_prime(p: int):
    if type(p) is not int:
        raise ValueError(f"field order must be an int, got {p!r}")
    _check_int_prime(p)


@functools.lru_cache(maxsize=8)
def _check_int_prime(p: int):
    """Refuse p unless it is a prime with p * p <= 2**63 - 1.  The cap
    bounds the trial division, so an oversized p fails fast; accepted
    primes are kept, refusals raise and are never cached."""
    if p * p > 2**63 - 1:
        raise ValueError(
            f"field order {p} is too large: p * p exceeds 2**63 - 1, "
            "the bound on trial division"
        )
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"field order must be prime, got {p}")


def _codes(
    alg: KupischSeries, m, cap: int | None, covers: bool = False
) -> list[int]:
    """The interval codes (length - 1) * v + start - 1 of m's summands,
    the cross-check state's keys, in one pass that checks each summand
    and the cap.  Each summand is checked against the Kupisch lengths
    directly (not through the engine's index, which is under test), its
    start by `core._vertex`: a start or length that is not a plain int,
    or an interval that is not a module over alg, raises NotAdmissible
    naming it.  DimensionCapExceeded when m's dimension exceeds cap, or
    with covers, when one summand's projective cover does; no check when
    cap is None."""
    lengths = alg.lengths
    v = len(lengths)
    codes, dim = [], 0
    for piece in (m,) if type(m) is IntervalModule else _split(m):
        start, length = piece.start, piece.length
        try:
            c = lengths[_vertex(alg, start) - 1]
        except NotAdmissible as exc:
            raise NotAdmissible(f"{piece} is not a module over {lengths}: {exc}") from None
        if type(length) is not int or not 0 < length <= c:
            raise NotAdmissible(f"{piece} is not a module over {lengths}")
        codes.append((length - 1) * v + start - 1)
        if not covers:
            dim += length
        elif c > dim:
            dim = c
    if cap is not None and dim > cap:
        raise DimensionCapExceeded(f"module dimension {dim} exceeds cap {cap}")
    return codes


# -- linear algebra mod p ----------------------------------------------------


def _rref(mat: list[list[int]], p: int):
    """Row-reduce mod p; returns (nonzero reduced rows, pivot column list)."""
    rows = [[e % p for e in row] for row in mat]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        lead = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if lead is None:
            continue
        rows[r], rows[lead] = rows[lead], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        pivot = rows[r] = [e * inv % p for e in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [(e - f * q) % p for e, q in zip(row, pivot)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _rank(mat: list[list[int]], p: int) -> int:
    """Rank mod p; a matrix with no rows or no columns has rank 0 without
    any elimination."""
    return len(_rref(mat, p)[1]) if mat and mat[0] else 0


def _nullspace(mat: list[list[int]], cols: int, p: int) -> list[list[int]]:
    """Basis of the right kernel of a matrix with `cols` columns, one
    vector per free column; with no equations every column is free."""
    red, pivots = _rref(mat, p) if mat and cols else ([], [])
    bound = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in bound:
            continue
        vec = [0] * cols
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc] % p
        basis.append(vec)
    return basis


# -- representations ---------------------------------------------------------


class MatrixRep:
    """A finite-dimensional representation of a Nakayama quiver with v
    vertices, cyclic or linear; it reads no Kupisch length.

    dims[w-1] is the dimension at vertex w; maps[u] is the action of the
    arrow out of u (toward shift(u, 1)) as a (target x source) matrix,
    stored as a list of rows of ints mod p.  basis[w-1] records, per
    vertex, which (summand, position) pair each local coordinate came from.
    """

    def __init__(self, v: int, cyclic: bool, p: int):
        self.num_vertices = v
        self.cyclic = cyclic
        self.p = p
        self.basis: list[list[tuple[int, int]]] = [[] for _ in range(v)]
        self.dims = [0] * v
        self.maps: dict[int, list[list[int]]] = {}

    def arrow_sources(self) -> range:
        v = self.num_vertices
        return range(1, v + 1) if self.cyclic else range(1, v)


def realize(
    alg: KupischSeries, m, p: int = 2, dim_cap: int = DEFAULT_DIM_CAP
) -> MatrixRep:
    """Matrix realization of a module: one basis vector per composition
    factor, arrows shifting basis vectors one step toward the socle, so
    every length-c_i path from i acts as zero.  Each call builds a fresh
    representation."""
    _check_prime(p)
    return _realize(alg, _codes(alg, m, dim_cap), p)


def _realize(alg: KupischSeries, codes, p: int) -> MatrixRep:
    """The realization of the sum of the intervals with the given codes,
    walked by alg.shift; it depends only on alg's quiver."""
    v = len(alg.lengths)
    rep = MatrixRep(v, alg.cyclic, p)
    lengths = []
    for s_idx, code in enumerate(codes):
        length, start = divmod(code, v)
        lengths.append(length + 1)
        for r in range(length + 1):
            w = alg.shift(start + 1, r)
            rep.basis[w - 1].append((s_idx, r))
            rep.dims[w - 1] += 1
    index = {}
    for w0, items in enumerate(rep.basis):
        for loc, item in enumerate(items):
            index[item] = (w0, loc)
    for u in rep.arrow_sources():
        t = alg.shift(u, 1)
        mat = [[0] * rep.dims[u - 1] for _ in range(rep.dims[t - 1])]
        for loc, (s_idx, r) in enumerate(rep.basis[u - 1]):
            if r + 1 < lengths[s_idx]:
                _, tloc = index[(s_idx, r + 1)]
                mat[tloc][loc] = 1
        rep.maps[u] = mat
    return rep


def _hom_system(
    x: MatrixRep, y: MatrixRep
) -> tuple[list[list[int]], list[int], int]:
    """Linear system for intertwiners f: x -> y.

    Unknowns are the entries of the per-vertex blocks f_w, stacked in
    vertex order (row-major per block).  Returns (rows, offsets, nvars).
    """
    xdims, ydims = x.dims, y.dims
    offs = [0]
    for xd, yd in zip(xdims, ydims):
        offs.append(offs[-1] + yd * xd)
    nvars = offs[-1]
    if nvars == 0:
        return [], offs, 0
    v = len(xdims)
    rows = []
    for u, ax in x.maps.items():
        du, dt = u - 1, u % v  # 0-based u and shift(u, 1)
        xt, xu, yt = xdims[dt], xdims[du], ydims[dt]
        if not (xu and yt):
            continue  # both sides below are yt x xu matrices: no equations
        # f_t @ ax == ay @ f_u, one equation per entry (a, b), kept under
        # a * xu + b; only the nonzero entries of ax and ay contribute
        eqs: dict[int, list[int]] = {}
        ot, ou = offs[dt], offs[du]
        for c, arow in enumerate(ax):
            for b, e in enumerate(arow):
                if e:
                    for a in range(yt):
                        eq = eqs.get(a * xu + b)
                        if eq is None:
                            eq = eqs[a * xu + b] = [0] * nvars
                        eq[ot + a * xt + c] += e
        for a, arow in enumerate(y.maps[u]):
            for c, e in enumerate(arow):
                if e:
                    for b in range(xu):
                        eq = eqs.get(a * xu + b)
                        if eq is None:
                            eq = eqs[a * xu + b] = [0] * nvars
                        eq[ou + c * xu + b] -= e
        rows.extend(eqs.values())
    return rows, offs, nvars


def _restriction(cover: MatrixRep, y: MatrixRep, keep: list[list[int]]) -> list[int]:
    """The unknowns of the system cover -> y, in `_hom_system`'s order,
    that a hom keeps when it is restricted to a subrepresentation: per
    vertex w, the columns keep[w-1] of every row of the block f_w."""
    kept, o = [], 0
    for dx, dy, cols in zip(cover.dims, y.dims, keep):
        kept += [o + a * dx + k for a in range(dy) for k in cols]
        o += dx * dy
    return kept


def _presentation_kernel(cover: MatrixRep, length: int):
    """The kernel of the cover P ->> M(start, length), as a subrepresentation
    of the cover's realization P = M(start, c).

    The cover kills basis positions 0..length-1, so the kernel is spanned
    by the tail positions length..c-1; the arrow action restricts to the
    tail.  Returns (kernel rep, keep) where keep[w-1] lists the cover's
    coordinates at w that span the kernel, in the kernel's order."""
    v = cover.num_vertices
    kernel = MatrixRep(v, cover.cyclic, cover.p)
    keep: list[list[int]] = [[] for _ in range(v)]
    for w0 in range(v):
        for loc, (_, r) in enumerate(cover.basis[w0]):
            if r >= length:
                keep[w0].append(loc)
                kernel.basis[w0].append((0, r - length))
                kernel.dims[w0] += 1
    for u in kernel.arrow_sources():
        full = cover.maps[u]
        cols = keep[u - 1]
        rows = keep[u % v]  # shift(u, 1) - 1
        kernel.maps[u] = [[full[i][j] for j in cols] for i in rows]
    return kernel, keep


# -- the cross-check state ---------------------------------------------------


class _OracleState:
    """Cross-check state of one quiver with v vertices over F_p, shared by
    every algebra on it (see "Cross-check state" above).  The tables are
    keyed by interval codes (length - 1) * v + start - 1, small ints that
    need no tuple per entry; kernels and Ext^1 also by the calling
    algebra's cover length c.  Each ordered pair (x, y) is eliminated
    once, for a basis of Hom(x, y), whichever algebra asks first.  Each
    table is built on first use from the ones before it, and stored only
    once it is complete.  The methods take the calling algebra for its
    vertex walk, and keep no reference to it."""

    def __init__(self, v: int, p: int):
        self.v = v
        self.p = p
        self.reps: dict = {}  # x -> MatrixRep
        self.homs: dict = {}  # x -> {y: basis of Hom(x, y), solutions of its system}
        self.kernels: dict = {}  # (x, c) -> (code of K or None, K's coordinates in P)
        self.ext1s: dict = {}  # (x, c) -> {y: dim Ext^1(x, y)}

    def code(self, start: int, length: int) -> int:
        return (length - 1) * self.v + start - 1

    def interval(self, x: int) -> tuple[int, int]:
        """The (start, length) pair of the code x."""
        length, start = divmod(x, self.v)
        return start + 1, length + 1

    def rep(self, alg: KupischSeries, x: int) -> MatrixRep:
        rep = self.reps.get(x)
        if rep is None:
            rep = self.reps[x] = _realize(alg, (x,), self.p)
        return rep

    def hom(self, alg: KupischSeries, x: int, y: int) -> list:
        """A basis of Hom(x, y), the null space of the pair's system; dim
        Hom(x, y) is its length."""
        row = self.homs.setdefault(x, {})
        basis = row.get(y)
        if basis is None:
            system, _, nvars = _hom_system(self.rep(alg, x), self.rep(alg, y))
            basis = row[y] = _nullspace(system, nvars, self.p)
        return basis

    def kernel(self, alg: KupischSeries, x: int, c: int):
        """(name, keep) for the kernel K of P(x) ->> x with P(x) of length
        c, name None when x is projective.  The name, K's code, is read
        off the sub-representation itself: the vertex of its first basis
        vector and its total dimension.  The realization under that name
        must have exactly K's dimensions and arrow matrices, so the Hom
        table's entries for the name are K's."""
        kernel = self.kernels.get((x, c))
        if kernel is None:
            start, length = self.interval(x)
            cover = self.rep(alg, self.code(start, c))
            sub, keep = _presentation_kernel(cover, length)
            name = None
            size = sum(sub.dims)
            if size:
                top = next(w for w, items in enumerate(sub.basis, 1) if (0, 0) in items)
                name = self.code(top, size)
                named = self.rep(alg, name)
                if (named.dims, named.maps) != (sub.dims, sub.maps):
                    raise InternalInconsistency(
                        f"presentation kernel of M({start},{length}) over "
                        f"{alg.lengths} is not the realization of M({top},{size})"
                    )
            kernel = self.kernels[x, c] = (name, keep)
        return kernel


@functools.lru_cache(maxsize=1)
def _fields(p: int) -> dict:
    """The cross-check states over F_p, one per quiver (v, cyclic); one
    slot, so switching field drops every state of the previous one."""
    return {}


def _state(alg: KupischSeries, p: int) -> _OracleState:
    """The cross-check state of alg's quiver over F_p."""
    states = _fields(p)
    quiver = (len(alg.lengths), alg.cyclic)
    st = states.get(quiver)
    if st is None:
        st = states[quiver] = _OracleState(quiver[0], p)
    return st


@functools.lru_cache(maxsize=1)
def _paths(alg: KupischSeries) -> list[list[tuple[int, int]]]:
    """The algebra's paths (j, t), from j of length t, listed once and
    grouped by end vertex w under w - 1; tau reads them.  They read every
    Kupisch length, so they are kept for one algebra at a time."""
    ends: list[list[tuple[int, int]]] = [[] for _ in alg.lengths]
    for j, c in enumerate(alg.lengths, 1):
        for t in range(c):
            ends[alg.shift(j, t) - 1].append((j, t))
    return ends


# -- queries -----------------------------------------------------------------


def oracle_hom_dim(
    alg: KupischSeries, x, y, p: int = 2, dim_cap: int = DEFAULT_DIM_CAP
) -> int:
    """dim Hom(x, y) as the nullity of the intertwiner system, summed
    over summand pairs."""
    _check_prime(p)
    xs, ys = _codes(alg, x, dim_cap), _codes(alg, y, dim_cap)
    st = _state(alg, p)
    total = 0
    for a in xs:
        row = st.homs.get(a)
        for b in ys:
            basis = row.get(b) if row else None
            total += len(st.hom(alg, a, b) if basis is None else basis)
    return total


def oracle_ext1_dim(
    alg: KupischSeries, x, y, p: int = 2, dim_cap: int = DEFAULT_DIM_CAP
) -> int:
    """dim Ext^1(x, y) = dim coker(Hom(P(x), y) -> Hom(K, y)) where
    0 -> K -> P(x) -> x -> 0 is the explicit minimal presentation,
    summed over summand pairs; each pair is computed once per state.
    The caps hold for y and for the cover of each summand of x."""
    _check_prime(p)
    xs, ys = _codes(alg, x, dim_cap, covers=True), _codes(alg, y, dim_cap)
    st = _state(alg, p)
    lengths = alg.lengths
    total = 0
    for a in xs:
        c = lengths[a % st.v]
        row = st.ext1s.get((a, c))
        for b in ys:
            dim = row.get(b) if row else None
            total += _ext1(st, alg, a, c, b) if dim is None else dim
    return total


def _ext1(st: _OracleState, alg: KupischSeries, x: int, c: int, y: int) -> int:
    """dim Ext^1(x, y) over the algebras whose cover P(x) has length c,
    from the state's table, filled on first use.  Hom(K, y) is the Hom
    table's entry for K's checked name, and a hom P(x) -> y restricts to
    K by keeping K's coordinates."""
    row = st.ext1s.get((x, c))
    dim = row.get(y) if row else None
    if dim is not None:
        return dim
    name, keep = st.kernel(alg, x, c)
    dim = len(st.hom(alg, name, y)) if name is not None else 0
    if dim:
        cover = st.code(st.interval(x)[0], c)
        kept = _restriction(st.rep(alg, cover), st.rep(alg, y), keep)
        dim -= _rank([[g[k] for k in kept] for g in st.hom(alg, cover, y)], st.p)
    st.ext1s.setdefault((x, c), {})[y] = dim
    return dim


def oracle_is_injective(
    alg: KupischSeries, m, p: int = 2, dim_cap: int = DEFAULT_DIM_CAP
) -> bool:
    """Baer's criterion: m is injective exactly when Ext^1(S, m) vanishes
    for every simple S.  Ext^1 is additive in m, so a sum is injective
    when each summand is."""
    _check_prime(p)
    codes = _codes(alg, m, dim_cap)
    if max(alg.lengths) > dim_cap:  # the covers of the simples
        raise DimensionCapExceeded(
            f"module dimension {max(alg.lengths)} exceeds cap {dim_cap}"
        )
    st = _state(alg, p)
    # S_i = M(i, 1) has code i - 1
    for simple, c in enumerate(alg.lengths):
        for code in codes:
            if _ext1(st, alg, simple, c, code):
                return False
    return True


def oracle_socle_vector(
    alg: KupischSeries, m, p: int = 2, dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[int, ...]:
    """Dimension vector of the socle: per vertex, the kernel of the
    outgoing arrow action (everything, if there is no outgoing arrow)."""
    rep = realize(alg, m, p, dim_cap)
    v = alg.num_vertices
    out = []
    sources = set(rep.arrow_sources())
    for w in range(1, v + 1):
        if w in sources:
            out.append(rep.dims[w - 1] - _rank(rep.maps[w], p))
        else:
            out.append(rep.dims[w - 1])
    return tuple(out)


def oracle_tau(
    alg: KupischSeries, m, p: int = 2, dim_cap: int = DEFAULT_DIM_CAP
) -> ModuleSum:
    """AR translate, summand by summand: tau(A + B) = tau A + tau B, and
    a projective summand adds zero.  The algebra's dimension is checked
    against dim_cap before a non-projective summand is translated."""
    _check_prime(p)
    lengths = alg.lengths
    pieces = []
    for code in _codes(alg, m, None):
        length, start = divmod(code, len(lengths))
        if length + 1 < lengths[start]:
            pieces.append((start + 1, length + 1))
    if not pieces:
        return ModuleSum(())
    if alg.total_dim > dim_cap:
        raise DimensionCapExceeded(
            f"algebra dimension {alg.total_dim} exceeds cap {dim_cap}"
        )
    ends = _paths(alg)
    return ModuleSum(tuple(_tau1(alg, ends, p, i, l) for i, l in pieces))


def _tau1(alg: KupischSeries, ends, p: int, i: int, l: int) -> IntervalModule:
    """tau of the non-projective interval m = M(i, l) via the
    transpose-dual of its minimal presentation.

    Hom(-, algebra) turns the presentation map between projectives into
    right multiplication between spaces of paths with fixed endpoint; the
    transpose is the cokernel presentation of Tr m, and dualizing that
    left module componentwise gives tau m.  All steps are explicit basis
    bookkeeping plus one rank computation for the top at each vertex
    whose component is met by an incoming arrow; a vertex with an empty
    component has top 0."""
    lengths = alg.lengths
    image = {(j, t + l) for (j, t) in ends[i - 1] if t + l < lengths[j - 1]}
    coker = [b for b in ends[alg.shift(i, l) - 1] if b not in image]
    if len(coker) != l:
        raise InternalInconsistency(
            f"transpose of M({i},{l}) over {lengths} has dimension "
            f"{len(coker)}, expected {l}"
        )
    comp: dict[int, list[tuple[int, int]]] = {}  # the components by start vertex
    for b in coker:
        comp.setdefault(b[0], []).append(b)
    tops = [0] * len(lengths)
    for w, here in comp.items():
        incoming_rank = 0
        above = comp.get(alg.shift(w, -1)) if alg.cyclic or w > 1 else None
        if above:
            # left action of the arrow out of pred maps start-vertex
            # component at w to the one at pred; its transpose is the
            # incoming right action at w of the dual module
            pos = {t: k for k, (_, t) in enumerate(above)}
            mat = [[0] * len(here) for _ in above]
            for k, (_, t) in enumerate(here):
                row = pos.get(t + 1)
                if row is not None:
                    mat[row][k] = 1
            incoming_rank = _rank(mat, p)
        tops[w - 1] = len(here) - incoming_rank
    if sum(tops) != 1:
        raise InternalInconsistency(
            f"transpose-dual of M({i},{l}) over {lengths} is not uniserial: "
            f"top vector {tuple(tops)}"
        )
    return IntervalModule(tops.index(1) + 1, l)
