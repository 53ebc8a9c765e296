"""AR translates, higher translates, and precluster search.

The first test class is the sign calibration: the combinatorial translate
must match the matrix-level one on whole algebras, not just spot values.
Getting the direction wrong here silently flips every downstream verdict.
"""

from __future__ import annotations

import random
import re
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from references import (
    CYCLIC, LINEAR, SELFINJ, M, _extras, admissible_series, pool, pool_of,
    reference_cosyzygy, reference_is_precluster, reference_mask_search,
    reference_member_masks, reference_search, reference_syzygy, reference_walk,
)

from nakayama import (
    InternalInconsistency,
    KupischSeries,
    ModuleSum,
    NotAdmissible,
    SearchSpaceTooLarge,
    ar_translate,
    ar_translate_inverse,
    format_module,
    indecomposables,
    injective,
    is_injective,
    is_precluster,
    is_projective,
    oracle_tau,
    projective,
    search_precluster,
    tau_n,
    tau_n_inverse,
)
import nakayama.precluster as precluster_module
from nakayama.precluster import _forced, _member_masks


class TestTranslateCalibration:
    def test_matches_oracle_on_selfinjective(self):
        for m in indecomposables(SELFINJ):
            assert ar_translate(SELFINJ, m) == oracle_tau(SELFINJ, m)

    def test_matches_oracle_on_cyclic_golden(self):
        for m in indecomposables(CYCLIC):
            assert ar_translate(CYCLIC, m) == oracle_tau(CYCLIC, m)

    def test_golden_values(self):
        assert ar_translate(SELFINJ, M(1, 1)) == ModuleSum.of(M(2, 1))
        assert ar_translate(CYCLIC, M(1, 2)) == ModuleSum.of(M(2, 2))

    def test_projectives_and_injectives_die(self):
        for alg in (CYCLIC, LINEAR):
            for i in alg.vertices():
                assert ar_translate(alg, projective(alg, i)).is_zero
                assert ar_translate_inverse(alg, injective(alg, i)).is_zero


class TestTranslateBijection:
    def test_inverse_on_non_projectives(self):
        for alg in pool(4, 5):
            for m in indecomposables(alg):
                if not is_projective(alg, m):
                    t = ar_translate(alg, m)
                    assert len(t) == 1
                    back = ar_translate_inverse(alg, next(iter(t)))
                    assert back == ModuleSum.of(m)

    def test_inverse_on_non_injectives(self):
        for alg in pool(4, 5):
            for m in indecomposables(alg):
                if not is_injective(alg, m):
                    t = ar_translate_inverse(alg, m)
                    assert len(t) == 1
                    back = ar_translate(alg, next(iter(t)))
                    assert back == ModuleSum.of(m)

    def test_length_preserved(self):
        for alg in pool(4, 5):
            for m in indecomposables(alg):
                t = ar_translate(alg, m)
                for piece in t:
                    assert piece.length == m.length


class TestHigherTranslate:
    POOL = pool_of(reference_walk)

    def test_is_oracle_tau_of_syzygy(self):
        checked = 0
        for alg in self.POOL:
            for m in indecomposables(alg):
                for n in (1, 2, 3):
                    w = reference_walk(reference_syzygy, alg, m, n - 1)
                    want = ModuleSum.zero() if w is None else oracle_tau(alg, w)
                    assert tau_n(alg, m, n) == want, (alg, m, n)
                    checked += 1
        assert checked == 11298

    def test_inverse_undoes_to_non_injective_cosyzygy(self):
        # tau tau_n^- M is Omega^-(n-1) M with its injective summand dropped
        for alg in self.POOL:
            for m in indecomposables(alg):
                for n in (1, 2, 3):
                    w = reference_walk(reference_cosyzygy, alg, m, n - 1)
                    keep = w is not None and reference_cosyzygy(alg, w) is not None
                    want = ModuleSum.of(w) if keep else ModuleSum.zero()
                    back = ar_translate(alg, tau_n_inverse(alg, m, n))
                    assert back == want, (alg, m, n)

    def test_golden(self):
        assert tau_n(LINEAR, M(2, 1), 2) == ModuleSum.of(M(4, 2))

    def test_projective_dies(self):
        for i in CYCLIC.vertices():
            assert tau_n(CYCLIC, projective(CYCLIC, i), 2).is_zero

    def test_degree_one_is_plain_translate(self):
        for m in indecomposables(CYCLIC):
            assert tau_n(CYCLIC, m, 1) == ar_translate(CYCLIC, m)
            assert tau_n_inverse(CYCLIC, m, 1) == ar_translate_inverse(CYCLIC, m)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            tau_n(CYCLIC, M(1, 1), 0)
        with pytest.raises(ValueError):
            tau_n_inverse(CYCLIC, M(1, 1), -2)


class TestIsPrecluster:
    def test_full_set_works_everywhere(self):
        for alg in (CYCLIC, LINEAR, SELFINJ):
            v = is_precluster(alg, indecomposables(alg), 1)
            assert v.ok and not v.failures

    def test_projectives_alone_fail_cogeneration(self):
        projs = tuple(projective(CYCLIC, i) for i in CYCLIC.vertices())
        v = is_precluster(CYCLIC, projs, 1)
        assert not v.ok
        assert {"condition": "cogenerator", "missing": "M(3,3)"} in v.failures

    def test_seed_fails_at_higher_degree(self):
        members = tuple(
            sorted(
                {projective(CYCLIC, i) for i in CYCLIC.vertices()}
                | {injective(CYCLIC, j) for j in CYCLIC.vertices()}
            )
        )
        v = is_precluster(CYCLIC, members, 2)
        assert not v.ok
        conditions = {f["condition"] for f in v.failures}
        assert "tau_n" in conditions and "tau_n_inverse" in conditions
        assert {
            "condition": "tau_n",
            "member": "M(3,3)",
            "escapes_to": "S(1)",
        } in v.failures

    def test_projectives_on_selfinjective_pass_any_degree(self):
        projs = tuple(projective(SELFINJ, i) for i in SELFINJ.vertices())
        for n in (1, 2, 3, 4):
            assert is_precluster(SELFINJ, projs, n).ok

    def test_note_mentions_automatic_finiteness(self):
        v = is_precluster(CYCLIC, indecomposables(CYCLIC), 1)
        assert "finite" in v.note

    @pytest.mark.parametrize("foreign", [M(7, 1), M(1, 9)])
    def test_foreign_member_refused_by_name(self, foreign):
        members = indecomposables(CYCLIC) + (foreign,)
        with pytest.raises(NotAdmissible, match=re.escape(repr(foreign))):
            is_precluster(CYCLIC, members, 1)


    def test_injectives_alone_fail_generation(self):
        injs = tuple(injective(CYCLIC, j) for j in CYCLIC.vertices())
        v = is_precluster(CYCLIC, injs, 1)
        assert not v.ok
        missing = format_module(projective(CYCLIC, 1))
        assert {"condition": "generator", "missing": missing} in v.failures

    def test_level_below_one_refused(self):
        with pytest.raises(ValueError, match="is_precluster wants n >= 1"):
            is_precluster(CYCLIC, indecomposables(CYCLIC), 0)
        with pytest.raises(ValueError, match="search_precluster wants n >= 1"):
            search_precluster(CYCLIC, 0)


class TestIsPreclusterDifferential:
    def test_matches_public_routes_on_random_sets(self):
        # Half the draws hold the projectives and injectives, so that the
        # tau_n and Ext conditions also decide some verdicts alone; members
        # come shuffled, some twice.
        checked, passed, conditions = 0, 0, set()
        for alg in pool_of(reference_is_precluster):
            indecs = indecomposables(alg)
            forced = [indecs[p] for p in _forced(alg)]
            for n in (1, 2, 3):
                rng = random.Random(f"{alg.lengths}{alg.cyclic}{n}")
                for draw in range(8):
                    members = [m for m in indecs if rng.random() < 0.6]
                    if draw % 2:
                        members += forced
                    members += rng.choices(indecs, k=2)
                    rng.shuffle(members)
                    verdict = is_precluster(alg, members, n)
                    want = reference_is_precluster(alg, members, n)
                    assert verdict == want, (alg, n, members)
                    checked += 1
                    passed += verdict.ok
                    conditions.update(f["condition"] for f in verdict.failures)
        assert checked == 1776
        assert passed and conditions == {
            "generator", "cogenerator", "tau_n", "tau_n_inverse", "ext-vanishing",
        }


class TestSearch:
    def test_frozen_candidates_degree_one(self):
        cands = search_precluster(CYCLIC, 1)
        assert cands == (
            (M(1, 3), M(2, 3), M(3, 3), M(3, 4)),
            (M(1, 1), M(1, 3), M(2, 1), M(2, 3), M(3, 1), M(3, 3), M(3, 4)),
            (M(1, 2), M(1, 3), M(2, 2), M(2, 3), M(3, 2), M(3, 3), M(3, 4)),
            tuple(indecomposables(CYCLIC)),
        )

    def test_every_candidate_verifies(self):
        for cand in search_precluster(CYCLIC, 1):
            assert is_precluster(CYCLIC, cand, 1).ok

    def test_no_candidates_past_the_parameter(self):
        assert search_precluster(CYCLIC, 2) == ()
        assert search_precluster(LINEAR, 3) == ()

    def test_selfinjective_minimal_candidate(self):
        cands = search_precluster(SELFINJ, 2, max_extra=0)
        assert cands == ((M(1, 2), M(2, 2), M(3, 2)),)

    def test_subset_cap(self):
        with pytest.raises(SearchSpaceTooLarge):
            search_precluster(CYCLIC, 1, subset_cap=2)

    def test_anchor_cyclic_4444(self):
        """The benchmark's anchor: 12 extras, 4096 subsets per level."""
        alg = KupischSeries.validate([4, 4, 4, 4], True)
        names = {
            n: [[format_module(m) for m in cand] for cand in search_precluster(alg, n)]
            for n in (1, 2)
        }
        assert len(names[1]) == 8 and len(names[2]) == 3
        assert names[1][0] == names[2][0] == ["M(1,4)", "M(2,4)", "M(3,4)", "M(4,4)"]
        assert names[1][-1] == [
            "S(1)", "M(1,2)", "M(1,3)", "M(1,4)", "S(2)", "M(2,2)", "M(2,3)", "M(2,4)",
            "S(3)", "M(3,2)", "M(3,3)", "M(3,4)", "S(4)", "M(4,2)", "M(4,3)", "M(4,4)",
        ]
        assert names[2][-1] == [
            "M(1,4)", "S(2)", "M(2,3)", "M(2,4)", "M(3,4)", "S(4)", "M(4,3)", "M(4,4)",
        ]


@pytest.fixture
def no_interval_table(monkeypatch):
    """indecomposables refused wherever the precluster engine and the Ext
    rows could call it; the references read their own module's binding."""

    def refuse(alg):
        raise AssertionError(f"indecomposables({alg.lengths}) in the engine")

    for name in ("nakayama.precluster", "nakayama.homology"):
        monkeypatch.setattr(sys.modules[name], "indecomposables", refuse, raising=False)


@pytest.mark.usefixtures("no_interval_table")
class TestSearchDifferential:
    POOL = pool_of(reference_search)

    def test_matches_subset_loop(self):
        # On the one-vertex cyclic algebras tau_n and tau_n^- of an
        # interval can coincide, which a mask built by `sum` gets wrong.
        assert {a.lengths for a in self.POOL if a.cyclic and a.num_vertices == 1} == {
            (2,), (3,), (4,), (5,)
        }
        for alg in self.POOL:
            for n in (1, 2, 3):
                if len(_extras(alg)) <= 8:
                    assert search_precluster(alg, n) == reference_search(alg, n), (alg, n)
                assert search_precluster(alg, n, max_extra=1) == reference_search(
                    alg, n, 1
                ), (alg, n)


@pytest.mark.usefixtures("no_interval_table")
class TestMemberMasks:
    POOL = pool_of(reference_member_masks)

    def test_match_public_routes(self):
        for alg in self.POOL:
            for n in (1, 2, 3, 4):
                assert _member_masks(alg, n) == reference_member_masks(alg, n), (alg, n)

    def test_forced_are_projectives_and_injectives(self):
        for alg in self.POOL:
            forced = {projective(alg, i) for i in alg.vertices()}
            forced.update(injective(alg, j) for j in alg.vertices())
            indecs = indecomposables(alg)
            assert [indecs[p] for p in _forced(alg)] == sorted(forced), alg


class TestBacktracking:
    def test_matches_mask_loop_on_pool(self):
        # Cyclic (6,6,6,6) has 20 extras, so the reference tests 2^20
        # subsets per level.  It is compared at n = 2 only, the lowest
        # level whose masks carry Ext rows; every other algebra at
        # n = 1, 2, 3.
        big = KupischSeries.validate([6, 6, 6, 6], True)
        for alg in pool_of(reference_mask_search):
            for n in (2,) if alg == big else (1, 2, 3):
                assert search_precluster(alg, n) == reference_mask_search(alg, n), (alg, n)

    def test_past_the_old_subset_cap(self):
        # 18 extras, 262,144 subsets: more than the default cap of 200,000,
        # which bounds the walk's work, not the number of subsets.  Tau
        # keeps each length, and the six lengths below the projectives
        # are its orbits, so 2^6 sets.
        alg = KupischSeries.validate([7, 7, 7], True)
        assert len(_extras(alg)) == 18
        cands = search_precluster(alg, 1)
        assert len(cands) == 64
        assert cands == reference_mask_search(alg, 1)

    def test_walk_stops_at_banned_needs(self):
        # tau ties M(1,l), M(2,l) and M(3,l) together: once the six extras
        # at vertex 1 are decided, each later extra has one live choice.
        # So the walk examines 2^7 - 1 + 64 * 12 = 895 nodes; one that
        # went on past a banned need would examine thousands.
        alg = KupischSeries.validate([7, 7, 7], True)
        assert len(search_precluster(alg, 1, subset_cap=1_000)) == 64

    @settings(max_examples=60, deadline=None)
    @given(admissible_series(max_vertices=5, max_length=5), st.integers(1, 3), st.data())
    def test_matches_mask_loop_on_random_series(self, alg, n, data):
        assume(len(_extras(alg)) <= 10)
        max_extra = data.draw(st.none() | st.integers(0, 10))
        assert search_precluster(alg, n, max_extra) == reference_mask_search(
            alg, n, max_extra
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_oversized_search_fails_fast(self, n):
        # 1199 extras: a recursive walk would pass the recursion limit,
        # and at n = 2 the masks alone would look at 1.4 M Ext pairs.
        alg = KupischSeries.validate([1200], True)
        start = time.perf_counter()
        with pytest.raises(SearchSpaceTooLarge):
            search_precluster(alg, n)
        assert time.perf_counter() - start < 2

    def test_mask_decision_disagreement_raises(self, monkeypatch):
        # Blank masks accept every subset of the extras; is_precluster
        # refuses the first that is not closed under tau.
        def blank(alg, n):
            size = len(indecomposables(alg))
            return [0] * size, [0] * size

        monkeypatch.setattr(precluster_module, "_member_masks", blank)
        with pytest.raises(InternalInconsistency, match="precluster masks accept"):
            search_precluster(CYCLIC, 1)

    def test_refuses_before_building_the_masks(self, monkeypatch):
        def refuse(alg, n):
            raise AssertionError("masks built for a search past the cap")

        monkeypatch.setattr(precluster_module, "_member_masks", refuse)
        with pytest.raises(SearchSpaceTooLarge):
            search_precluster(KupischSeries.validate([1200], True), 2)
