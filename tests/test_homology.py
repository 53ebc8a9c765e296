"""Syzygies, dimensions, Gorenstein invariants, explicit resolutions."""

from __future__ import annotations

import pytest

from nakayama import (
    INFINITY,
    ExtendedNat,
    IntervalModule,
    KupischSeries,
    ModuleSum,
    NotAdmissible,
    NotGorenstein,
    cosyzygy,
    domdim,
    enumerate_admissible,
    ext_dim,
    gldim,
    gorenstein_degree,
    gp_census,
    gpd,
    hom_dim,
    idim,
    in_sub_lambda,
    indecomposables,
    injective_coresolution,
    is_gorenstein_projective,
    is_projective,
    pd,
    projective,
    projective_resolution,
    regular_id,
    regular_id_left,
    regular_module,
    syzygy,
)
from nakayama.homology import _depths, _gpd1

CYCLIC = KupischSeries.validate([3, 3, 4], True)
LINEAR = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
SELFINJ = KupischSeries.validate([2, 2, 2], True)
WILD = KupischSeries.validate([3, 4], True)  # not Gorenstein


def M(i, l):
    return IntervalModule(i, l)


class TestSyzygy:
    def test_golden_syzygies(self):
        assert syzygy(CYCLIC, M(1, 1)) == ModuleSum.of(M(2, 2))
        assert syzygy(CYCLIC, M(2, 1)) == ModuleSum.of(M(3, 2))
        assert syzygy(CYCLIC, M(1, 2)) == ModuleSum.of(M(3, 1))

    def test_syzygy_of_projective_vanishes(self):
        for alg in (CYCLIC, LINEAR):
            for i in alg.vertices():
                assert syzygy(alg, projective(alg, i)).is_zero

    def test_cosyzygy_golden(self):
        assert cosyzygy(CYCLIC, M(1, 3)) == ModuleSum.of(M(3, 1))

    def test_syzygy_dim_bookkeeping(self):
        # dim Omega(m) + dim m = dim of the projective cover
        for alg in (CYCLIC, LINEAR):
            for m in indecomposables(alg):
                cover = projective(alg, m.start)
                assert syzygy(alg, m).dim + m.length == cover.length


class TestProjectiveDimension:
    def test_cyclic_simples(self):
        assert [pd(CYCLIC, M(i, 1)) for i in CYCLIC.vertices()] == [
            INFINITY,
            INFINITY,
            ExtendedNat(1),
        ]

    def test_linear_simples(self):
        vals = [pd(LINEAR, M(i, 1)) for i in LINEAR.vertices()]
        assert vals == [ExtendedNat(k) for k in (3, 3, 2, 1, 1, 0)]

    def test_cyclic_interval(self):
        assert pd(CYCLIC, M(1, 2)) == 2

    def test_zero_module(self):
        assert pd(CYCLIC, ModuleSum.zero()) == 0

    def test_sum_takes_max(self):
        s = ModuleSum.of(M(3, 1), M(1, 1))
        assert pd(CYCLIC, s) == INFINITY


class TestInjectiveDimension:
    def test_cyclic_projectives(self):
        assert [idim(CYCLIC, projective(CYCLIC, i)) for i in CYCLIC.vertices()] == [
            ExtendedNat(2),
            ExtendedNat(0),
            ExtendedNat(0),
        ]

    def test_cyclic_simples(self):
        assert [idim(CYCLIC, M(i, 1)) for i in CYCLIC.vertices()] == [
            INFINITY,
            INFINITY,
            ExtendedNat(1),
        ]

    def test_linear_projectives(self):
        assert idim(LINEAR, M(5, 2)) == 3
        assert idim(LINEAR, M(6, 1)) == 3
        assert idim(LINEAR, M(1, 3)) == 0


class TestGlobalInvariants:
    def test_cyclic_golden(self):
        assert gldim(CYCLIC) == INFINITY
        assert regular_id(CYCLIC) == 2
        assert regular_id_left(CYCLIC) == 2
        assert domdim(CYCLIC) == 2
        assert gorenstein_degree(CYCLIC) == 2

    def test_linear_golden(self):
        assert gldim(LINEAR) == 3
        assert regular_id(LINEAR) == 3
        assert regular_id_left(LINEAR) == 3
        assert domdim(LINEAR) == 3
        assert gorenstein_degree(LINEAR) == 3

    def test_self_injective(self):
        assert regular_id(SELFINJ) == 0
        assert domdim(SELFINJ) == INFINITY
        assert gldim(SELFINJ) == INFINITY
        assert gorenstein_degree(SELFINJ) == 0

    def test_non_gorenstein(self):
        assert gorenstein_degree(WILD) == INFINITY

    def test_finite_gldim_forces_symmetry(self):
        # whenever gldim is finite all four invariants coincide
        for alg in enumerate_admissible(4, 5):
            g = gldim(alg)
            if g.is_finite:
                assert regular_id(alg) == g
                assert regular_id_left(alg) == g
                assert gorenstein_degree(alg) == g


class TestExt:
    def test_degree_zero_is_hom(self):
        assert ext_dim(CYCLIC, M(2, 2), M(3, 4), 0) == hom_dim(
            CYCLIC, M(2, 2), M(3, 4)
        )

    def test_golden_values(self):
        reg = regular_module(CYCLIC)
        assert ext_dim(CYCLIC, M(1, 1), reg, 1) == 0
        assert ext_dim(CYCLIC, M(2, 1), reg, 2) == 1

    def test_vanishes_beyond_pd(self):
        assert ext_dim(CYCLIC, M(1, 2), regular_module(CYCLIC), 3) == 0
        assert ext_dim(CYCLIC, M(1, 2), regular_module(CYCLIC), 2) >= 0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            ext_dim(CYCLIC, M(1, 1), M(1, 1), -1)


def ext_gpd(alg, m):
    """Reference Gpd by the Ext characterization: the largest k in 1..g
    with Ext^k(m, algebra) nonzero, else 0."""
    reg = regular_module(alg)
    g = gorenstein_degree(alg).value
    return max((k for k in range(1, g + 1) if ext_dim(alg, m, reg, k)), default=0)


class TestGorensteinProjectives:
    def test_syzygy_walk_matches_ext_reference(self):
        checked = 0
        for alg in enumerate_admissible(6, 8):
            if not gorenstein_degree(alg).is_finite:
                continue
            ref = {m: ext_gpd(alg, m) for m in indecomposables(alg)}
            assert {m: gpd(alg, m) for m in ref} == ref
            assert set(gp_census(alg)) == {m for m, k in ref.items() if k == 0}
            checked += len(ref)
        assert checked == 10067

    def test_census_cyclic(self):
        assert gp_census(CYCLIC) == (M(1, 1), M(1, 3), M(2, 2), M(2, 3), M(3, 4))

    def test_census_linear_is_everything_of_finite_gldim(self):
        # finite global dimension: only the projectives are torsionless here
        assert gp_census(LINEAR) == tuple(
            projective(LINEAR, i) for i in LINEAR.vertices()
        )

    def test_gpd_golden(self):
        assert [gpd(CYCLIC, M(i, 1)) for i in CYCLIC.vertices()] == [0, 2, 1]
        assert gpd(LINEAR, M(1, 1)) == 3

    def test_gpd_matches_pd_when_finite(self):
        for alg in (CYCLIC, LINEAR):
            for m in indecomposables(alg):
                p = pd(alg, m)
                if p.is_finite:
                    assert gpd(alg, m) == p.value

    def test_gpd_zero_iff_census_member(self):
        census = set(gp_census(CYCLIC))
        for m in indecomposables(CYCLIC):
            assert is_gorenstein_projective(CYCLIC, m) == (m in census)
            assert (gpd(CYCLIC, m) == 0) == (m in census)

    def test_not_gorenstein_raises(self):
        with pytest.raises(NotGorenstein):
            gpd(WILD, M(1, 1))

    def test_zero_module_needs_no_table(self):
        # the per-algebra tables are built only when a summand is looked up
        assert gpd(WILD, ModuleSum.zero()) == 0
        assert in_sub_lambda(WILD, ModuleSum.zero())

    @pytest.mark.parametrize(
        "query",
        [gpd, _gpd1, in_sub_lambda, pd, idim],
        ids=["gpd", "_gpd1", "in_sub_lambda", "pd", "idim"],
    )
    def test_foreign_interval_refused_by_name(self, query):
        alg = KupischSeries.validate([2, 3], True)
        with pytest.raises(NotAdmissible, match=r"M\(1,9\)"):
            query(alg, M(1, 9))


def resolution_length(res):
    return ExtendedNat(len(res.terms) - 1) if res.terminated else INFINITY


def coresolution_domdim(alg, i):
    """Leading projective terms of the minimal injective coresolution of
    P_i, read off the explicit ModuleSum walk."""
    terms = injective_coresolution(alg, projective(alg, i)).terms
    lead = [is_projective(alg, t) for t in terms]
    return INFINITY if all(lead) else ExtendedNat(lead.index(False))


class TestDepthSolver:
    def test_sink_self_loop_and_cycle(self):
        # 0 -> 1 -> 2 (sink); 3 -> 3; 4 -> 5 -> 6 -> 5
        assert _depths([1, 2, -1, 3, 5, 6, 5]) == [2, 1, 0, None, None, None, None]

    def test_matches_explicit_resolutions(self):
        checked = 0
        for alg in enumerate_admissible(5, 7):
            pds, ids = {}, {}
            for m in indecomposables(alg):
                pds[m] = resolution_length(projective_resolution(alg, m))
                ids[m] = resolution_length(injective_coresolution(alg, m))
            assert {m: pd(alg, m) for m in pds} == pds
            assert {m: idim(alg, m) for m in ids} == ids
            simples = [M(i, 1) for i in alg.vertices()]
            assert gldim(alg) == max(pds[s] for s in simples)
            projs = [projective(alg, i) for i in alg.vertices()]
            assert regular_id(alg) == max(ids[p] for p in projs)
            assert domdim(alg) == min(
                coresolution_domdim(alg, i) for i in alg.vertices()
            )
            checked += len(pds)
        assert checked == 3766


class TestResolutions:
    def test_projective_resolution_terminates(self):
        res = projective_resolution(CYCLIC, M(1, 2))
        assert res.terms == (
            ModuleSum.of(M(1, 3)),
            ModuleSum.of(M(3, 4)),
            ModuleSum.of(M(1, 3)),
        )
        assert res.kernels == (
            ModuleSum.of(M(3, 1)),
            ModuleSum.of(M(1, 3)),
            ModuleSum.zero(),
        )
        assert res.terminated and res.periodic_from is None

    def test_projective_resolution_detects_period(self):
        res = projective_resolution(CYCLIC, M(1, 1))
        assert res.terms == (ModuleSum.of(M(1, 3)), ModuleSum.of(M(2, 3)))
        assert res.kernels == (ModuleSum.of(M(2, 2)), ModuleSum.of(M(1, 1)))
        assert not res.terminated and res.periodic_from == 0

    def test_injective_coresolution_golden(self):
        res = injective_coresolution(CYCLIC, M(1, 3))
        assert res.terms == (
            ModuleSum.of(M(3, 4)),
            ModuleSum.of(M(3, 4)),
            ModuleSum.of(M(3, 3)),
        )
        assert res.terminated

    def test_dimension_bookkeeping(self):
        for m in indecomposables(CYCLIC):
            res = projective_resolution(CYCLIC, m)
            state = ModuleSum.of(m)
            for term, kernel in zip(res.terms, res.kernels):
                assert term.dim == state.dim + kernel.dim
                state = kernel

    def test_max_steps_exhausted(self):
        # pd of S(1) over the linear algebra is 3, so 2 terms cannot suffice
        with pytest.raises(ValueError):
            projective_resolution(LINEAR, M(1, 1), max_steps=2)

    def test_periodicity_detected_before_cap(self):
        res = projective_resolution(CYCLIC, M(1, 1), max_steps=2)
        assert res.periodic_from == 0
