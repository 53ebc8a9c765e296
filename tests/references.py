"""The labelled cross-checks: every second route the tests run, in one place.

Each `reference_*` function recomputes an engine answer another way: a
former body, the public validating routes, a formula from the literature
or the matrix oracle.  ROUTES names the engine function each one checks
and the pool (v, L) it runs on in the tier-1 tests; a test takes its
route from here and its pool from `pool_of(route)` or `pool(v, L)`.  The
shared algebras, `M` and the `admissible_series` strategy live here too.
pytest does not collect this module: it has no test_ prefix.
"""

from __future__ import annotations

import itertools
import random
import sys
import zlib

from hypothesis import strategies as st

from nakayama import (
    INFINITY, ExtendedNat, IntervalModule, KupischSeries, ModuleSum, PreclusterVerdict,
    domdim, embeds_in, enumerate_admissible, ext_dim, format_module, gldim,
    gorenstein_degree, indecomposables, injective, injective_coresolution,
    injective_envelope, is_precluster, is_projective, minimal_ag_parameter,
    n_auslander_parameter, oracle, projective, radical_power, radical_quotient,
    realize, regular_id, regular_module, socle, tau_n, tau_n_inverse,
)
from nakayama.classify import VerifierResult, _sample_positions
from nakayama.homology import _depths, _finite_degree, _gpd_table, _id_table, _pd_table
from nakayama.modules import _index, _position, _torsionless, check_module
from nakayama.notation import format_interval
from nakayama.precluster import _forced, _member_masks

# the package attribute `classify` is the function, not the module; the
# references read its tables as attributes, so a patched table is seen
classify_tables = sys.modules["nakayama.classify"]

CYCLIC = KupischSeries.validate([3, 3, 4], True)
LINEAR = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
SELFINJ = KupischSeries.validate([2, 2, 2], True)
WILD = KupischSeries.validate([3, 4], True)  # not Gorenstein


def M(i, l):
    return IntervalModule(i, l)


# len(enumerate_admissible(v, L)) for the pools (v, L) the tests run on
POOL_SIZES = {(4, 5): 57, (4, 6): 74, (5, 7): 209, (6, 8): 664, (7, 9): 2_207}


def pool(v, max_length):
    """A fresh enumerate_admissible(v, max_length), of its POOL_SIZES size.
    Fresh, so that its algebras hold no tables: a test of what the engine
    builds, or leaves in `_memo`, sees only its own calls."""
    algs = enumerate_admissible(v, max_length)
    assert len(algs) == POOL_SIZES[v, max_length], (v, max_length, len(algs))
    return algs


def pool_of(route):
    """A fresh copy of the route's tier-1 pool."""
    return pool(*ROUTES[route][1])


@st.composite
def admissible_series(draw, max_vertices=10, max_length=10):
    """Any admissible Kupisch series within the bounds.  Entries drop by
    at most 1 from one vertex to the next; a linear series is drawn from
    its last entry 1 backwards, and a cyclic one stays low enough that it
    can drop back to at most c_1 + 1 at the last vertex."""
    v = draw(st.integers(1, max_vertices))
    if not draw(st.booleans()):
        lengths = [1]
        for _ in range(v - 1):
            lengths.insert(0, draw(st.integers(2, min(max_length, lengths[0] + 1))))
        return KupischSeries.validate(lengths, False)
    lengths = [draw(st.integers(2, max_length))]
    for k in range(1, v):
        hi = min(max_length, lengths[0] + v - k)
        lengths.append(draw(st.integers(max(2, lengths[-1] - 1), hi)))
    return KupischSeries.validate(lengths, True)


def reference_injective_lengths(alg):
    """The vertex walk that the one-pass injective lengths replaced: grow
    an interval with socle j upwards, one top vertex at a time, while the
    projective at the new top is long enough to hold it."""
    out = []
    for j in alg.vertices():
        d = 1
        while True:
            m = d + 1
            if not alg.cyclic and j - m + 1 < 1:
                break
            start = alg.shift(j, 1 - m)
            if m <= alg.lengths[start - 1]:
                d = m
            else:
                break
        out.append(d)
    return tuple(out)


def reference_series(v, max_length, cyclic):
    """The generators that the necklace walk replaced, sorted: every
    admissible sequence, each cyclic one reduced to its least rotation
    and deduplicated."""
    if not cyclic:
        if v == 1:
            return [(1,)] if max_length >= 1 else []

        def rec(prefix):
            i = len(prefix)
            if i == v - 1:
                if prefix[-1] <= 2:
                    yield prefix + (1,)
                return
            lo = max(2, prefix[-1] - 1) if prefix else 2
            for c in range(lo, min(max_length, v - i) + 1):
                yield from rec(prefix + (c,))

        return sorted(rec(()))

    seen = set()

    def rec(prefix):
        i = len(prefix)
        if i == v:
            if prefix[0] >= prefix[-1] - 1:
                seen.add(min(prefix[k:] + prefix[:k] for k in range(v)))
            return
        lo = max(2, prefix[-1] - 1) if prefix else 2
        for c in range(lo, max_length + 1):
            rec(prefix + (c,))

    rec(())
    return sorted(seen)


def reference_hom_dim(alg, x, y):
    """dim Hom(x, y) by the loop over t: one dimension per basis map."""
    return len(reference_basis_lengths(alg, x, y))


def reference_basis_lengths(alg, a, b):
    """T(a, b): the image lengths t of the basis maps a -> b.  The image of
    such a map is the length-t top part of a and the length-t bottom part
    of b, so that part of b must start at the top vertex of a."""
    return [
        t
        for t in range(1, min(a.length, b.length) + 1)
        if alg.shift(b.start, b.length - t) == a.start
    ]


def reference_syzygy(alg, m):
    """Kernel of the projective cover P_start ->> m, or None when projective."""
    c = alg.loewy_length(m.start)
    if m.length == c:
        return None
    return IntervalModule(alg.shift(m.start, m.length), c - m.length)


def reference_socle_vertex(alg, m):
    """The socle vertex by walking l - 1 arrows down from the top."""
    return alg.shift(m.start, m.length - 1)


def reference_cosyzygy(alg, m):
    """Cokernel of m into its injective envelope, or None when injective."""
    d = alg.injective_lengths()[reference_socle_vertex(alg, m) - 1]
    if m.length == d:
        return None
    return IntervalModule(alg.shift(m.start, m.length - d), d - m.length)


def reference_source(succ, p, k):
    """The former _source: succ^(k-1)(p) when succ^k(p) is nonzero, else
    -1, walking all k - 1 steps one at a time."""
    for _ in range(k - 1):
        p = succ[p]
        if p < 0:
            return -1
    return p if succ[p] >= 0 else -1


def reference_depths(succ):
    """Depths in a functional graph, each node walked on its own: the steps
    to a sink (successor -1), or None when the walk outlasts the nodes,
    which means it has repeated one and is going round a cycle."""
    out = []
    for p in range(len(succ)):
        k = 0
        while succ[p] >= 0 and k <= len(succ):
            p, k = succ[p], k + 1
        out.append(k if succ[p] < 0 else None)
    return out


def resolution_length(res):
    return ExtendedNat(len(res.terms) - 1) if res.terminated else INFINITY


def reference_coresolution_domdim(alg, i):
    """Leading projective terms of the minimal injective coresolution of
    P_i, read off the explicit ModuleSum walk."""
    terms = injective_coresolution(alg, projective(alg, i)).terms
    lead = [is_projective(alg, t) for t in terms]
    return INFINITY if all(lead) else ExtendedNat(lead.index(False))


def reference_domdim(alg):
    """Cross-check route for domdim: depths over every position of the
    Omega^- graph in which a non-torsionless socle is a sink and a
    torsionless projective-injective loops on itself, read at the
    projectives by the breadth-first solver."""
    idx = _index(alg)
    sub = _torsionless(alg)
    succ = [
        (z if z >= 0 else p) if sub[j] else -1
        for p, (z, j) in enumerate(zip(idx.coomega, idx.socle))
    ]
    depths = _depths(succ)
    lead = [depths[p] for p in idx.projective]
    return min((ExtendedNat(k) for k in lead if k is not None), default=INFINITY)


def reference_least_level(alg, dim, floor):
    """The former classify._least_level: the candidate level compared
    with the dominant dimension through ExtendedNat."""
    if not dim.is_finite:
        return None
    n = max(dim.value - 1, floor)
    return n if domdim(alg) >= ExtendedNat(n + 1) else None


def reference_regular_id_left(alg):
    """The left self-injective dimension as the right one of the opposite
    algebra, which builds its own index and id table."""
    return regular_id(alg.opposite())


def reference_stable_hom_dim(alg, y, b):
    """dim Hom(y, b) modulo the maps that factor through an injective.
    Such a map factors through the envelope y in I(y), and restricting the
    basis map of I(y) -> b with image length t to y gives the one with
    image length t - (|I(y)| - |y|), or zero when that is not positive."""
    (iy,) = injective_envelope(alg, y)
    cut = iy.length - y.length
    factored = sum(t > cut for t in reference_basis_lengths(alg, iy, b))
    return len(reference_basis_lengths(alg, y, b)) - factored


def reference_ext_gpd(alg, m):
    """Reference Gpd by the Ext characterization: the largest k in 1..g
    with Ext^k(m, algebra) nonzero, else 0."""
    reg = regular_module(alg)
    g = gorenstein_degree(alg).value
    return max((k for k in range(1, g + 1) if ext_dim(alg, m, reg, k)), default=0)


def reference_gpd_table(alg):
    """The former _gpd_table: depths in the Omega graph whose sinks are
    the projectives and every nonzero Omega^g of an interval, g the
    Gorenstein degree, by the breadth-first solver."""
    omega = _index(alg).omega
    layer = set(range(len(omega)))
    for _ in range(_finite_degree(alg)):
        layer = {omega[p] for p in layer} - {-1}
    return _depths([-1 if p in layer else z for p, z in enumerate(omega)])


def invariants(alg, k=1):
    """alg's pd and id tables and, when it is Gorenstein, its Gpd table,
    each repeated k times; then its gldim, domdim, Gorenstein degree,
    minimal_ag_parameter and n_auslander_parameter."""
    g = gorenstein_degree(alg)
    tables = [_pd_table(alg), _id_table(alg), _gpd_table(alg) if g.is_finite else []]
    scalars = gldim(alg), domdim(alg), g, minimal_ag_parameter(alg), n_auslander_parameter(alg)
    return [table * k for table in tables], scalars


def reference_galois_cover(alg, k):
    """Cross-check by Galois covering: for a cyclic w = alg, the cyclic
    algebra w^k (w's series repeated k times) covers w, Z/k rotating its
    quiver by len(w) vertices.  The push-down to w is exact and keeps
    projectives, injectives and indecomposables (Bongartz-Gabriel,
    Covering spaces in representation-theory, Invent. Math. 65, 1982), so
    M(i, l) over w^k has the pd, id and Gpd of M(i, l) over w with i
    read mod len(w).  Returns w^k and `invariants(w, k)`, what the engine
    must answer for `invariants(w^k)`."""
    return KupischSeries.validate(alg.lengths * k, True), invariants(alg, k)


def reference_gp_socle_sub(alg, n, seed, gpd_of):
    """verify_thm_gp_socle_sub(...).to_json() recomputed from a Gpd table
    and a direct embedding search over the projectives."""
    projectives = [projective(alg, i) for i in alg.vertices()]
    indecs = indecomposables(alg)
    mods = [ModuleSum.of(m) for m in indecs]
    mods += [
        ModuleSum(tuple(indecs[p] for p in pieces))
        for pieces in _sample_positions(alg, seed)
    ]
    witnesses = []
    for nmod in mods:
        g = max(gpd_of[p] for p in nmod)
        sg = max(gpd_of[p] for p in socle(alg, nmod))
        sub = all(any(embeds_in(alg, p, q) for q in projectives) for p in nmod)
        if not ((g <= n) == (sg <= n) == sub):
            witnesses.append(
                {
                    "module": format_module(nmod),
                    "gpd": g,
                    "socle_gpd": sg,
                    "in_sub_lambda": sub,
                }
            )
    status = "fail" if witnesses else "pass"
    return {
        "status": status,
        "n": n,
        "checked": len(mods),
        "witnesses": witnesses,
        "note": "",
    }


def reference_ses_gpd_bounds(alg, gpd_of):
    """verify_ses_gpd_bounds(...).to_json() recomputed from a Gpd table."""
    witnesses, checked = [], 0
    for y in indecomposables(alg):
        for s in range(1, y.length):
            (x,) = radical_power(alg, y, s)
            (z,) = radical_quotient(alg, y, s)
            gx, gy, gz = gpd_of[x], gpd_of[y], gpd_of[z]
            checked += 1
            bad = [
                name
                for name, breached in (
                    ("middle", gy > max(gx, gz)),
                    ("sub", gx > max(gy, gz - 1)),
                    ("quotient", gz > max(gy, gx + 1)),
                )
                if breached
            ]
            if bad:
                witnesses.append(
                    {
                        "sub": format_module(x),
                        "middle": format_module(y),
                        "quotient": format_module(z),
                        "gpd": [gx, gy, gz],
                        "violates": bad,
                    }
                )
    status = "fail" if witnesses else "pass"
    return {
        "status": status,
        "n": None,
        "checked": checked,
        "witnesses": witnesses,
        "note": "",
    }


def reference_sample_positions(alg, seed, tag):
    """The seeded sums drawn as 24 separate choices() calls, 12 pairs and
    then 12 triples."""
    key = repr((alg.lengths, alg.cyclic, seed, tag)).encode()
    rng = random.Random(zlib.crc32(key))
    size = range(alg.total_dim)
    return [rng.choices(size, k=width) for width in (2, 3) for _ in range(12)]


def reference_verify_gp_socle_sub(alg, n, seed=0):
    """The former verify_thm_gp_socle_sub: the same position codes, with
    the witness text written from indecomposables(alg)."""
    gpd_of = classify_tables._gpd_table(alg)
    idx = classify_tables._index(alg)
    sub = classify_tables._torsionless(alg)
    socle_gpd = [0] + [gpd_of[idx.simple[j - 1]] for j in alg.vertices()]
    code = [
        (g <= n) | (socle_gpd[j] <= n) << 1 | sub[j] << 2
        for g, j in zip(gpd_of, idx.socle)
    ]
    mods = [(p,) for p in range(len(code))]
    mods.extend(_sample_positions(alg, seed))
    witnesses = []
    for pieces in mods:
        bits = 7
        for p in pieces:
            bits &= code[p]
        if bits not in (0, 7):
            indecs = indecomposables(alg)
            witnesses.append(
                {
                    "module": "+".join(
                        format_interval(indecs[p]) for p in sorted(pieces)
                    ),
                    "gpd": max(gpd_of[p] for p in pieces),
                    "socle_gpd": max(socle_gpd[idx.socle[p]] for p in pieces),
                    "in_sub_lambda": bool(bits & 4),
                }
            )
    return VerifierResult(
        "gp-socle-sub", n, not witnesses, len(mods), tuple(witnesses)
    )


def reference_verify_ses_gpd_bounds(alg):
    """The former verify_ses_gpd_bounds: Y read off indecomposables(alg)."""
    gpd_of = classify_tables._gpd_table(alg)
    idx = classify_tables._index(alg)
    indecs = indecomposables(alg)
    checked = 0
    witnesses = []
    for py, y in enumerate(indecs):
        base = idx.simple[y.start - 1]
        for s in range(1, y.length):
            px = idx.simple[idx.socle[base + s] - 1] + y.length - s - 1
            pz = base + s - 1
            gx, gy, gz = gpd_of[px], gpd_of[py], gpd_of[pz]
            checked += 1
            bad = []
            if gy > gx and gy > gz:
                bad.append("middle")
            if gx > gy and gx >= gz:
                bad.append("sub")
            if gz > gy and gz > gx + 1:
                bad.append("quotient")
            if bad:
                witnesses.append(
                    {
                        "sub": format_module(indecs[px]),
                        "middle": format_module(y),
                        "quotient": format_module(indecs[pz]),
                        "gpd": [gx, gy, gz],
                        "violates": bad,
                    }
                )
    return VerifierResult(
        "lemma22", None, not witnesses, checked, tuple(witnesses)
    )


def reference_walk(step, alg, m, k):
    """k steps of a reference (co)syzygy from an interval, None for zero."""
    for _ in range(k):
        if m is None:
            return None
        m = step(alg, m)
    return m


def reference_is_precluster(alg, members, n):
    """is_precluster from the public, validating routes: projective and
    injective from the length formulas, tau_n and tau_n_inverse per
    member, and ext_dim per ordered pair of members and degree."""
    mset = frozenset(check_module(alg, ModuleSum.of(*members)))
    ordered = tuple(sorted(mset))
    failures = []
    for i in alg.vertices():
        p = projective(alg, i)
        if p not in mset:
            failures.append({"condition": "generator", "missing": format_module(p)})
        inj = injective(alg, i)
        if inj not in mset:
            failures.append({"condition": "cogenerator", "missing": format_module(inj)})
    for m in ordered:
        for label, image in (
            ("tau_n", tau_n(alg, m, n)),
            ("tau_n_inverse", tau_n_inverse(alg, m, n)),
        ):
            stray = [piece for piece in image if piece not in mset]
            if stray:
                failures.append(
                    {
                        "condition": label,
                        "member": format_module(m),
                        "escapes_to": format_module(ModuleSum.of(*stray)),
                    }
                )
    for x in ordered:
        for y in ordered:
            for k in range(1, n):
                val = ext_dim(alg, x, y, k)
                if val:
                    failures.append(
                        {
                            "condition": "ext-vanishing",
                            "source": format_module(x),
                            "target": format_module(y),
                            "degree": k,
                            "dim": val,
                        }
                    )
    return PreclusterVerdict(
        ok=not failures,
        n=n,
        members=ordered,
        failures=tuple(failures),
        note="functorial finiteness automatic: finitely many indecomposables",
    )


def _extras(alg):
    seed = {projective(alg, i) for i in alg.vertices()}
    seed.update(injective(alg, j) for j in alg.vertices())
    return [m for m in indecomposables(alg) if m not in seed]


def reference_search(alg, n, max_extra=None):
    """The search as a plain loop: is_precluster on every subset of the
    extras, in combinations order."""
    extras = _extras(alg)
    kmax = len(extras) if max_extra is None else min(max_extra, len(extras))
    base = tuple(sorted(set(indecomposables(alg)) - set(extras)))
    return tuple(
        v.members
        for k in range(kmax + 1)
        for combo in itertools.combinations(extras, k)
        if (v := is_precluster(alg, base + combo, n)).ok
    )


def reference_member_masks(alg, n):
    """_member_masks from the public, validating routes: the tau_n and
    tau_n^- pieces of every interval, and ext_dim both ways on every pair
    and degree 1..n-1."""
    indecs = indecomposables(alg)
    need = []
    for m in indecs:
        mask = 0
        for piece in (*tau_n(alg, m, n), *tau_n_inverse(alg, m, n)):
            mask |= 1 << _position(alg, piece)
        need.append(mask)
    clash = [0] * len(indecs)
    for i, x in enumerate(indecs):
        for j in range(i, len(indecs)):
            y = indecs[j]
            if any(ext_dim(alg, x, y, k) or ext_dim(alg, y, x, k) for k in range(1, n)):
                clash[i] |= 1 << j
                clash[j] |= 1 << i
    return need, clash


def reference_mask_search(alg, n, max_extra=None):
    """The search without backtracking: the member masks tested on every
    subset of the extras, in combinations order."""
    forced = _forced(alg)
    indecs = indecomposables(alg)
    extras = [p for p in range(len(indecs)) if p not in forced]
    kmax = len(extras) if max_extra is None else min(max_extra, len(extras))
    need, clash = _member_masks(alg, n)
    base_mask = base_need = base_clash = 0
    for p in forced:
        base_mask |= 1 << p
        base_need |= need[p]
        base_clash |= clash[p]
    found = []
    for k in range(kmax + 1):
        for combo in itertools.combinations(extras, k):
            mask, needs, clashes = base_mask, base_need, base_clash
            for i in combo:
                mask |= 1 << i
                needs |= need[i]
                clashes |= clash[i]
            if not (needs & ~mask or clashes & mask):
                found.append(tuple(indecs[p] for p in sorted(forced + list(combo))))
    return tuple(found)


def reference_tau1(alg, m, p):
    """Cross-check of the state's path table: tau of the non-projective
    interval m by the same transpose-dual, listing every path of the
    algebra again on each call."""
    i, l = m.start, m.length
    items = [(j, t) for j in alg.vertices() for t in range(alg.loewy_length(j))]
    end_i = [b for b in items if alg.shift(*b) == i]
    end_il = [b for b in items if alg.shift(*b) == alg.shift(i, l)]
    image = {(j, t + l) for (j, t) in end_i if t + l <= alg.loewy_length(j) - 1}
    coker = [b for b in end_il if b not in image]
    assert len(coker) == l
    comp = {w: [b for b in coker if b[0] == w] for w in alg.vertices()}
    pos = {w: {b: k for k, b in enumerate(comp[w])} for w in alg.vertices()}
    tops = []
    for w in alg.vertices():
        incoming_rank = 0
        if alg.cyclic or w > 1:
            pred = alg.shift(w, -1)
            mat = [[0] * len(comp[w]) for _ in comp[pred]]
            for b in comp[w]:
                lifted = (pred, b[1] + 1)
                if lifted in pos[pred]:
                    mat[pos[pred][lifted]][pos[w][b]] = 1
            incoming_rank = oracle._rank(mat, p)
        tops.append(len(comp[w]) - incoming_rank)
    assert sum(tops) == 1
    return IntervalModule(tops.index(1) + 1, l)


def nullity(xr, yr, p):
    system, _, nvars = oracle._hom_system(xr, yr)
    return nvars - oracle._rank(system, p)


def hom_basis(xr, yr, p):
    """A basis of Hom(xr, yr), each map as its per-vertex blocks (rows of
    ints mod p)."""
    system, offs, nvars = oracle._hom_system(xr, yr)
    return [
        [
            [vec[o + a * dx : o + (a + 1) * dx] for a in range(dy)]
            for o, dx, dy in zip(offs, xr.dims, yr.dims)
        ]
        for vec in oracle._nullspace(system, nvars, p)
    ]


def reference_whole_sum_hom_dim(alg, x, y, p):
    """Reference: the nullity of one intertwiner system between the
    realizations of the whole sums."""
    return nullity(realize(alg, x, p), realize(alg, y, p), p)


def matmul(a, b, p):
    """a @ b mod p for list matrices; b's column count is len(b[0])."""
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) % p for j in range(cols)]
        for row in a
    ]


def reference_whole_sum_ext1_dim(alg, x: IntervalModule, y, p):
    """Reference: coker(Hom(P(x), y) -> Hom(K, y)) with y realized whole,
    each hom composed with the inclusion K -> P(x) as a matrix product."""
    cover = realize(alg, projective(alg, x.start), p)
    kernel, keep = oracle._presentation_kernel(cover, x.length)
    inclusion = [
        [[int(ploc == kept) for kept in keep[w]] for ploc in range(cover.dims[w])]
        for w in range(alg.num_vertices)
    ]
    yr = realize(alg, y, p)
    rows = [
        [e for w, blk in enumerate(g) for row in matmul(blk, inclusion[w], p) for e in row]
        for g in hom_basis(cover, yr, p)
    ]
    return nullity(kernel, yr, p) - (oracle._rank(rows, p) if rows else 0)


# ROUTES[route] = (the engine function it checks, as a dotted name, and its
# tier-1 pool (v, L), None where it runs on fixed algebras or hypothesis draws)
ROUTES = {
    reference_injective_lengths: ("nakayama.core.KupischSeries.injective_lengths", (6, 8)),
    reference_series: ("nakayama.core._series", None),
    reference_hom_dim: ("nakayama.modules.hom_dim", (5, 7)),
    reference_basis_lengths: ("nakayama.modules.hom_dim", (5, 7)),
    reference_syzygy: ("nakayama.modules._index", (6, 8)),
    reference_socle_vertex: ("nakayama.modules._index", (6, 8)),
    reference_cosyzygy: ("nakayama.modules._index", (6, 8)),
    reference_source: ("nakayama.homology._source", (4, 6)),
    reference_depths: ("nakayama.homology._depths", None),
    reference_coresolution_domdim: ("nakayama.homology.domdim", (5, 7)),
    reference_domdim: ("nakayama.homology.domdim", (7, 9)),
    reference_least_level: ("nakayama.classify._least_level", (6, 8)),
    reference_regular_id_left: ("nakayama.homology.regular_id_left", (6, 8)),
    reference_stable_hom_dim: ("nakayama.homology.ext_dim", (5, 7)),
    reference_ext_gpd: ("nakayama.homology.gpd", (6, 8)),
    reference_gpd_table: ("nakayama.homology._gpd_table", (7, 9)),
    reference_galois_cover: ("nakayama.homology._gpd_table", (7, 9)),
    reference_gp_socle_sub: ("nakayama.classify.verify_thm_gp_socle_sub", (5, 7)),
    reference_ses_gpd_bounds: ("nakayama.classify.verify_ses_gpd_bounds", (5, 7)),
    reference_sample_positions: ("nakayama.classify._sample_positions", (6, 8)),
    reference_verify_gp_socle_sub: ("nakayama.classify.verify_thm_gp_socle_sub", (6, 8)),
    reference_verify_ses_gpd_bounds: ("nakayama.classify.verify_ses_gpd_bounds", (6, 8)),
    reference_walk: ("nakayama.precluster.tau_n", (5, 7)),
    reference_is_precluster: ("nakayama.precluster.is_precluster", (4, 6)),
    reference_search: ("nakayama.precluster.search_precluster", (4, 5)),
    reference_member_masks: ("nakayama.precluster._member_masks", (4, 6)),
    reference_mask_search: ("nakayama.precluster.search_precluster", (4, 6)),
    reference_tau1: ("nakayama.oracle.oracle_tau", (5, 7)),
    reference_whole_sum_hom_dim: ("nakayama.oracle.oracle_hom_dim", None),
    reference_whole_sum_ext1_dim: ("nakayama.oracle.oracle_ext1_dim", None),
}
