"""Socles, radicals, covers, envelopes, embeddings, Hom dimensions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import CYCLIC, LINEAR, M, pool, pool_of, reference_hom_dim

from nakayama import (
    InternalInconsistency,
    KupischSeries,
    ModuleSum,
    NotAdmissible,
    dim_vector,
    embeds_in,
    hom_dim,
    in_sub_lambda,
    indecomposables,
    injective,
    injective_envelope,
    is_injective,
    is_projective,
    projective,
    projective_cover,
    radical,
    radical_power,
    radical_quotient,
    simple,
    socle,
    socle_part,
    socle_vertex,
    top,
)
from nakayama.modules import _torsionless, check_module


class TestModuleSum:
    def test_summands_are_sorted(self):
        s = ModuleSum.of(M(3, 2), M(1, 1), M(3, 2))
        assert tuple(s) == (M(1, 1), M(3, 2), M(3, 2))
        assert s == ModuleSum.of(M(3, 2), M(3, 2), M(1, 1))

    def test_zero(self):
        z = ModuleSum.zero()
        assert z.is_zero and z.dim == 0 and len(z) == 0

    def test_addition(self):
        s = ModuleSum.of(M(1, 1)) + ModuleSum.of(M(2, 2))
        assert tuple(s) == (M(1, 1), M(2, 2))

    def test_dim_adds(self):
        assert ModuleSum.of(M(1, 2), M(3, 4)).dim == 6


class TestBoundaryChecks:
    def test_too_long_interval_rejected(self):
        with pytest.raises(NotAdmissible):
            check_module(CYCLIC, M(1, 5))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(NotAdmissible):
            check_module(CYCLIC, M(4, 1))

    def test_valid_module_passes(self):
        check_module(CYCLIC, ModuleSum.of(M(1, 2), M(3, 4)))


class TestSocleTopRadical:
    def test_socle_golden(self):
        assert socle(CYCLIC, M(1, 2)) == ModuleSum.of(M(2, 1))
        assert socle(CYCLIC, M(3, 4)) == ModuleSum.of(M(3, 1))
        assert socle(CYCLIC, M(1, 1)) == ModuleSum.of(M(1, 1))
        assert socle(LINEAR, M(3, 2)) == ModuleSum.of(M(4, 1))

    def test_socle_vertex_wraps(self):
        assert socle_vertex(CYCLIC, M(3, 4)) == 3
        assert socle_vertex(LINEAR, M(5, 2)) == 6

    def test_top(self):
        assert top(CYCLIC, M(3, 4)) == ModuleSum.of(M(3, 1))
        assert top(LINEAR, ModuleSum.of(M(2, 2), M(4, 1))) == ModuleSum.of(
            M(2, 1), M(4, 1)
        )

    def test_radical_of_projective(self):
        assert radical(CYCLIC, M(3, 4)) == ModuleSum.of(M(1, 3))

    def test_radical_power_exhausts(self):
        assert radical_power(CYCLIC, M(1, 3), 3).is_zero
        assert radical_power(CYCLIC, M(1, 3), 7).is_zero

    def test_socle_part_recovers_socle(self):
        assert socle_part(CYCLIC, M(3, 4), 1) == socle(CYCLIC, M(3, 4))

    def test_radical_layers_golden(self):
        assert radical_power(CYCLIC, M(1, 3), 1) == ModuleSum.of(M(2, 2))
        assert radical_quotient(CYCLIC, M(1, 3), 2) == ModuleSum.of(M(1, 2))
        assert socle_part(CYCLIC, M(1, 3), 2) == ModuleSum.of(M(2, 2))


class TestProjectivesInjectives:
    def test_projectives(self):
        assert projective(CYCLIC, 3) == M(3, 4)
        assert projective(LINEAR, 6) == M(6, 1)

    def test_injectives_cyclic_golden(self):
        assert [injective(CYCLIC, j) for j in CYCLIC.vertices()] == [
            M(2, 3),
            M(3, 3),
            M(3, 4),
        ]

    def test_injectives_linear_golden(self):
        assert [injective(LINEAR, j) for j in LINEAR.vertices()] == [
            M(1, 1),
            M(1, 2),
            M(1, 3),
            M(2, 3),
            M(3, 3),
            M(4, 3),
        ]

    @pytest.mark.parametrize("alg", [CYCLIC, LINEAR], ids=["cyclic", "linear"])
    @pytest.mark.parametrize("make", [projective, simple, injective])
    @pytest.mark.parametrize("bad", ["zero", "negative", "past_v", "bool"])
    def test_vertex_outside_the_quiver_refused_by_name(self, alg, make, bad):
        v = alg.num_vertices
        vertex = {"zero": 0, "negative": -1, "past_v": v + 1, "bool": True}[bad]
        with pytest.raises(NotAdmissible, match=rf"^vertex {vertex!r} outside 1\.\."):
            make(alg, vertex)

    def test_predicates_match_length_formulas(self):
        # projective: l = c_i; injective: l = d_j at the socle j of M(i, l)
        checked = 0
        for alg in pool(6, 8):
            d, v = alg.injective_lengths(), alg.num_vertices
            for m in indecomposables(alg):
                proj = m.length == alg.lengths[m.start - 1]
                inj = m.length == d[(m.start + m.length - 2) % v]
                assert is_projective(alg, m) == proj, (alg, m)
                assert is_injective(alg, m) == inj, (alg, m)
                both = ModuleSum.of(m, projective(alg, 1))
                assert is_projective(alg, both) == proj, (alg, m)
                checked += 1
        assert checked == 16833

    def test_predicates(self):
        assert is_projective(CYCLIC, M(2, 3))
        assert not is_projective(CYCLIC, M(3, 3))
        assert is_injective(CYCLIC, M(3, 3))
        assert not is_injective(CYCLIC, M(1, 3))
        assert is_projective(CYCLIC, ModuleSum.zero())

    def test_cover_golden(self):
        assert projective_cover(CYCLIC, M(1, 2)) == ModuleSum.of(M(1, 3))
        assert projective_cover(LINEAR, M(6, 1)) == ModuleSum.of(M(6, 1))
        assert projective_cover(CYCLIC, ModuleSum.zero()).is_zero

    def test_envelope_golden(self):
        assert injective_envelope(CYCLIC, M(1, 2)) == ModuleSum.of(M(3, 3))
        assert injective_envelope(LINEAR, M(5, 2)) == ModuleSum.of(M(4, 3))

    def test_envelope_idempotent(self):
        for j in CYCLIC.vertices():
            inj = injective(CYCLIC, j)
            assert injective_envelope(CYCLIC, inj) == ModuleSum.of(inj)


class TestEmbedding:
    def test_golden_cases(self):
        assert embeds_in(CYCLIC, M(1, 2), M(3, 3))
        assert not embeds_in(CYCLIC, M(1, 2), M(1, 3))
        assert embeds_in(CYCLIC, M(2, 2), M(2, 2))

    def test_in_sub_lambda_golden(self):
        assert not in_sub_lambda(CYCLIC, M(1, 2))
        assert in_sub_lambda(CYCLIC, ModuleSum.zero())
        for alg in (CYCLIC, LINEAR):
            for i in alg.vertices():
                assert in_sub_lambda(alg, radical(alg, projective(alg, i)))

    def test_torsionless_matches_projective_envelope(self):
        """The arithmetic envelope leg of _torsionless against building
        I(j) and asking is_projective, on the 6/8 pool."""
        for alg in pool(6, 8):
            envelope = [is_projective(alg, injective(alg, j)) for j in alg.vertices()]
            assert _torsionless(alg)[1:] == envelope, alg

    def test_torsionless_cross_check_fires(self):
        """A wrong injective length makes the envelope leg disagree with
        the longest projective of that socle."""
        alg = KupischSeries.validate([2, 2, 2], True)
        key = "nakayama.core.KupischSeries.injective_lengths"
        alg.__dict__["_memo"] = {key: (1, 2, 2)}
        with pytest.raises(InternalInconsistency, match="disagreement at S\\(1\\)"):
            _torsionless(alg)

    @pytest.mark.parametrize(
        "call",
        [
            lambda alg, s: socle_vertex(alg, s),
            lambda alg, s: embeds_in(alg, s, M(1, 1)),
            lambda alg, s: embeds_in(alg, M(1, 1), s),
        ],
        ids=["socle_vertex", "embeds_in sub", "embeds_in big"],
    )
    @pytest.mark.parametrize("alg", [CYCLIC, LINEAR], ids=["cyclic", "linear"])
    def test_interval_only_calls_refuse_a_sum(self, alg, call):
        for s in (ModuleSum.of(M(1, 1)), ModuleSum.zero()):
            with pytest.raises(TypeError, match="got ModuleSum"):
                call(alg, s)

    def test_embedding_implies_nonzero_hom(self):
        for alg in (CYCLIC, LINEAR):
            for x in indecomposables(alg):
                for y in indecomposables(alg):
                    if embeds_in(alg, x, y):
                        assert hom_dim(alg, x, y) >= 1


class TestHom:
    def test_golden_values(self):
        assert hom_dim(CYCLIC, M(2, 2), M(3, 4)) == 1
        assert hom_dim(CYCLIC, M(1, 1), M(2, 3)) == 1
        assert hom_dim(CYCLIC, M(3, 4), M(3, 4)) == 2
        # image S(2): quotient of M(2,2), socle of M(1,2)
        assert hom_dim(CYCLIC, M(2, 2), M(1, 2)) == 1
        assert hom_dim(CYCLIC, M(1, 2), M(1, 3)) == 0

    def test_hom_from_projective_counts_factors(self):
        # maps out of P_i match occurrences of S_i in the target
        for alg in (CYCLIC, LINEAR):
            for i in alg.vertices():
                p = projective(alg, i)
                for y in indecomposables(alg):
                    mult = sum(
                        1
                        for k in range(y.length)
                        if alg.shift(y.start, k) == i
                    )
                    assert hom_dim(alg, p, y) == mult

    def test_closed_form_matches_loop(self):
        checked = 0
        for alg in pool_of(reference_hom_dim):
            indecs = indecomposables(alg)
            for x in indecs:
                for y in indecs:
                    assert hom_dim(alg, x, y) == reference_hom_dim(alg, x, y)
                    checked += 1
        assert checked == 79904


class TestDimVector:
    def test_golden(self):
        assert dim_vector(CYCLIC, M(3, 4)) == (1, 1, 2)
        assert dim_vector(LINEAR, M(3, 2)) == (0, 0, 1, 1, 0, 0)


POOL = pool(4, 5)


@st.composite
def algebra_and_module(draw):
    alg = draw(st.sampled_from(POOL))
    ind = indecomposables(alg)
    pieces = draw(st.lists(st.sampled_from(ind), min_size=1, max_size=3))
    return alg, ModuleSum.of(*pieces)


@settings(max_examples=120, deadline=None)
@given(algebra_and_module())
def test_socle_is_preserved_by_envelope(case):
    alg, m = case
    assert socle(alg, m) == socle(alg, injective_envelope(alg, m))


@settings(max_examples=120, deadline=None)
@given(algebra_and_module(), st.integers(min_value=0, max_value=6))
def test_radical_cut_is_exact(case, s):
    alg, m = case
    sub = radical_power(alg, m, s)
    quo = radical_quotient(alg, m, s)
    assert sub.dim + quo.dim == m.dim
    if all(s < piece.length for piece in m):
        assert socle(alg, sub) == socle(alg, m)


@settings(max_examples=120, deadline=None)
@given(algebra_and_module())
def test_socle_counts_summands(case):
    alg, m = case
    assert socle(alg, m).dim == len(m)
    assert top(alg, m).dim == len(m)


@settings(max_examples=80, deadline=None)
@given(algebra_and_module())
def test_cover_and_envelope_sandwich(case):
    alg, m = case
    cover = projective_cover(alg, m)
    env = injective_envelope(alg, m)
    assert cover.dim >= m.dim
    assert env.dim >= m.dim
    assert top(alg, cover) == top(alg, m)
