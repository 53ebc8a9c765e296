"""Classification reports and the four verdict checkers."""

from __future__ import annotations

import pytest
from test_homology import ext_gpd

from nakayama import (
    INFINITY,
    IntervalModule,
    KupischSeries,
    ModuleSum,
    NotGorenstein,
    PreconditionFailed,
    classify,
    embeds_in,
    enumerate_admissible,
    format_module,
    gorenstein_degree,
    indecomposables,
    is_minimal_ag,
    is_n_auslander,
    is_self_injective,
    minimal_ag_parameter,
    n_auslander_parameter,
    prinj_vertices,
    projective,
    radical_power,
    radical_quotient,
    socle,
    verify_ses_gpd_bounds,
    verify_thm31_count,
    verify_thm_gp_socle_sub,
    verify_thm_prinj,
)
from nakayama.classify import REPORT_KEYS, _sample_sums

CYCLIC = KupischSeries.validate([3, 3, 4], True)
LINEAR = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
SELFINJ = KupischSeries.validate([2, 2, 2], True)
WILD = KupischSeries.validate([3, 4], True)
BAD = KupischSeries.validate([2, 3, 2, 1], False)  # Gorenstein, not minimal AG
POINT = KupischSeries.validate([1], False)


class TestPredicates:
    def test_self_injective(self):
        assert is_self_injective(SELFINJ)
        assert not is_self_injective(CYCLIC)

    def test_minimal_ag_golden(self):
        assert is_minimal_ag(CYCLIC, 1)
        assert not is_minimal_ag(CYCLIC, 0)
        assert is_minimal_ag(LINEAR, 2)
        assert not is_minimal_ag(BAD, 1)

    def test_n_auslander_golden(self):
        assert is_n_auslander(LINEAR, 2)
        assert not is_n_auslander(CYCLIC, 1)  # infinite global dimension

    def test_parameters(self):
        assert minimal_ag_parameter(CYCLIC) == 1
        assert minimal_ag_parameter(LINEAR) == 2
        assert n_auslander_parameter(CYCLIC) is None
        assert n_auslander_parameter(LINEAR) == 2
        assert minimal_ag_parameter(BAD) is None
        assert minimal_ag_parameter(SELFINJ) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            is_minimal_ag(CYCLIC, -1)
        with pytest.raises(ValueError):
            is_n_auslander(CYCLIC, -1)

    def test_prinj_golden(self):
        assert prinj_vertices(CYCLIC) == (2, 3)
        assert prinj_vertices(LINEAR) == (1, 2, 3, 4)
        assert prinj_vertices(SELFINJ) == (1, 2, 3)


class TestPrinjVerifier:
    def test_passes_on_goldens(self):
        r = verify_thm_prinj(CYCLIC, 1)
        assert r.passed and r.checked == 3 and r.witnesses == ()
        r = verify_thm_prinj(LINEAR, 2)
        assert r.passed and r.checked == 6

    def test_fails_with_witnesses_on_non_minimal(self):
        r = verify_thm_prinj(BAD, 1)
        assert not r.passed
        assert r.witnesses
        w = r.witnesses[0]
        assert set(w) == {"vertex", "injective", "injective_is_projective", "socle_gpd"}

    def test_biconditional_against_predicate(self):
        for alg in (CYCLIC, LINEAR, SELFINJ, BAD):
            g = gorenstein_degree(alg)
            n = max(g.value - 1, 0)
            assert verify_thm_prinj(alg, n).passed == is_minimal_ag(alg, n)

    def test_wrong_degree_precondition(self):
        with pytest.raises(PreconditionFailed):
            verify_thm_prinj(CYCLIC, 0)

    def test_non_gorenstein_rejected(self):
        with pytest.raises(NotGorenstein):
            verify_thm_prinj(WILD, 1)

    def test_self_injective_any_level(self):
        for n in (0, 1, 2):
            assert verify_thm_prinj(SELFINJ, n).passed


class TestGpSocleSubVerifier:
    def test_passes_on_goldens(self):
        assert verify_thm_gp_socle_sub(CYCLIC, 1).passed
        assert verify_thm_gp_socle_sub(LINEAR, 2).passed

    def test_fails_on_non_minimal(self):
        r = verify_thm_gp_socle_sub(BAD, 1)
        assert not r.passed
        w = r.witnesses[0]
        assert set(w) == {"module", "gpd", "socle_gpd", "in_sub_lambda"}

    def test_checked_counts_indecomposables_plus_samples(self):
        r = verify_thm_gp_socle_sub(BAD, 1, seed=0)
        assert r.checked == sum(BAD.lengths) + 24

    def test_seeded_determinism(self):
        a = verify_thm_gp_socle_sub(CYCLIC, 0, seed=7)
        b = verify_thm_gp_socle_sub(CYCLIC, 0, seed=7)
        assert a == b

    def test_all_levels_track_predicate(self):
        for alg in (CYCLIC, LINEAR, SELFINJ, BAD):
            g = gorenstein_degree(alg)
            for n in range(max(g.value, 1)):
                assert verify_thm_gp_socle_sub(alg, n).passed == is_minimal_ag(
                    alg, n
                )

    def test_non_gorenstein_rejected(self):
        with pytest.raises(NotGorenstein):
            verify_thm_gp_socle_sub(WILD, 0)


class TestCountVerifier:
    def test_golden_counts(self):
        r = verify_thm31_count(CYCLIC, 1)
        assert r.passed
        assert r.note == "low-Gpd simples: 2; projective-injectives: 2"
        r = verify_thm31_count(LINEAR, 2)
        assert r.passed
        assert r.note == "low-Gpd simples: 4; projective-injectives: 4"

    def test_requires_minimal_ag(self):
        with pytest.raises(PreconditionFailed):
            verify_thm31_count(BAD, 1)

    def test_semisimple_rejected(self):
        with pytest.raises(PreconditionFailed):
            verify_thm31_count(POINT, 0)


class TestSesBoundsVerifier:
    def test_passes_on_goldens(self):
        for alg in (CYCLIC, LINEAR, SELFINJ, BAD):
            r = verify_ses_gpd_bounds(alg)
            assert r.passed and r.n is None
            assert r.checked > 0

    def test_checked_counts_proper_cuts(self):
        r = verify_ses_gpd_bounds(CYCLIC)
        expected = sum(
            piece.length - 1
            for piece in (
                IntervalModule(i, l)
                for i in CYCLIC.vertices()
                for l in range(1, CYCLIC.lengths[i - 1] + 1)
            )
        )
        assert r.checked == expected

    def test_non_gorenstein_rejected(self):
        with pytest.raises(NotGorenstein):
            verify_ses_gpd_bounds(WILD)


class TestClassify:
    def test_report_key_order(self):
        j = classify(CYCLIC).to_json()
        assert tuple(j.keys()) == REPORT_KEYS

    def test_cyclic_golden_report(self):
        j = classify(CYCLIC).to_json()
        assert j["kupisch"] == [3, 3, 4]
        assert j["cyclic"] is True
        assert j["regular_id"] == 2
        assert j["regular_id_left"] == 2
        assert j["domdim"] == 2
        assert j["gldim"] == "infinity"
        assert j["gorenstein_degree"] == 2
        assert j["self_injective"] is False
        assert j["minimal_ag_n"] == 1
        assert j["n_auslander_n"] is None
        assert j["prinj"] == [2, 3]
        assert j["simple_gpd"] == [0, 2, 1]
        statuses = {k: v["status"] for k, v in j["theorem_verdicts"].items()}
        assert statuses == {
            "prinj": "pass",
            "gp-socle-sub": "pass",
            "lemma22": "pass",
            "thm31-count": "pass",
        }

    def test_linear_golden_report(self):
        j = classify(LINEAR).to_json()
        assert j["gldim"] == 3
        assert j["minimal_ag_n"] == 2
        assert j["n_auslander_n"] == 2
        assert j["prinj"] == [1, 2, 3, 4]
        assert all(
            v["status"] == "pass" for v in j["theorem_verdicts"].values()
        )

    def test_non_gorenstein_report(self):
        j = classify(WILD).to_json()
        assert j["gorenstein_degree"] == "infinity"
        assert j["minimal_ag_n"] is None
        assert j["simple_gpd"] == ["infinity", 1]
        statuses = {k: v["status"] for k, v in j["theorem_verdicts"].items()}
        assert statuses == {
            "prinj": "error",
            "gp-socle-sub": "error",
            "lemma22": "error",
            "thm31-count": "skipped",
        }

    def test_failing_algebra_report(self):
        j = classify(BAD).to_json()
        assert j["minimal_ag_n"] is None
        statuses = {k: v["status"] for k, v in j["theorem_verdicts"].items()}
        assert statuses["prinj"] == "fail"
        assert statuses["gp-socle-sub"] == "fail"
        assert statuses["lemma22"] == "pass"
        assert statuses["thm31-count"] == "skipped"
        assert j["theorem_verdicts"]["prinj"]["witnesses"]

    def test_semisimple_point(self):
        j = classify(POINT).to_json()
        assert j["gldim"] == 0
        assert j["minimal_ag_n"] == 0
        assert j["n_auslander_n"] == 0
        assert j["simple_gpd"] == [0]
        assert j["theorem_verdicts"]["thm31-count"]["status"] == "skipped"

    def test_json_serializable(self):
        import json

        for alg in (CYCLIC, LINEAR, WILD, BAD, POINT):
            json.dumps(classify(alg).to_json())


# -- the verifiers against a test-side recomputation ------------------------------


def reference_gp_socle_sub(alg, n, seed, gpd_of):
    """verify_thm_gp_socle_sub(...).to_json() recomputed from a Gpd table
    and a direct embedding search over the projectives."""
    projectives = [projective(alg, i) for i in alg.vertices()]
    mods = [ModuleSum.of(m) for m in indecomposables(alg)]
    mods += _sample_sums(alg, seed, "gp-socle-sub")
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


def test_verifiers_match_ext_and_embedding_reference():
    """Every Gorenstein algebra of the 5/7 pool at every level: the
    table-driven verifiers give the same verdicts and witnesses as a
    recomputation with Gpd from Ext and embeddings searched directly."""
    levels = failing = 0
    for alg in enumerate_admissible(5, 7):
        g = gorenstein_degree(alg)
        if not g.is_finite:
            continue
        gpd_of = {m: ext_gpd(alg, m) for m in indecomposables(alg)}
        for n in range(max(g.value, 1)):
            got = verify_thm_gp_socle_sub(alg, n, 0).to_json()
            assert got == reference_gp_socle_sub(alg, n, 0, gpd_of), (alg, n)
            levels += 1
            failing += got["status"] == "fail"
        assert verify_ses_gpd_bounds(alg).to_json() == reference_ses_gpd_bounds(
            alg, gpd_of
        ), alg
    assert levels > 0 and 0 < failing < levels
