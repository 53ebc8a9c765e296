"""Classification reports and the four verdict checkers."""

from __future__ import annotations

import gc
import sys
from itertools import product

import pytest
from references import (
    CYCLIC, LINEAR, SELFINJ, WILD, pool, pool_of, reference_ext_gpd, reference_gp_socle_sub,
    reference_least_level, reference_sample_positions, reference_ses_gpd_bounds,
    reference_verify_gp_socle_sub, reference_verify_ses_gpd_bounds,
)

from nakayama import (
    IntervalModule,
    KupischSeries,
    NotGorenstein,
    PreconditionFailed,
    classify,
    domdim,
    gldim,
    gorenstein_degree,
    indecomposables,
    is_minimal_ag,
    is_n_auslander,
    is_self_injective,
    minimal_ag_parameter,
    n_auslander_parameter,
    prinj_vertices,
    regular_id,
    verify_ses_gpd_bounds,
    verify_thm31_count,
    verify_thm_gp_socle_sub,
    verify_thm_prinj,
)
from nakayama.classify import REPORT_KEYS, _sample_positions, _text_row, _texts
from nakayama.modules import _Index, _interval_at
from nakayama import parse_module, sweepfile
from nakayama.notation import format_interval, interval_text
from nakayama.sweepfile import violations

# the package attribute `classify` is the function, not the module
classify_tables = sys.modules["nakayama.classify"]

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

    def test_least_levels_match_the_extended_nat_body(self):
        """Over the 6/8 pool, self-injective series (infinite domdim)
        among them: both parameters, and both predicates at n = 0..3, are
        the former body's, which compared through ExtendedNat."""
        found, infinite = set(), 0
        for alg in pool_of(reference_least_level):
            infinite += not domdim(alg).is_finite
            for dim, parameter, predicate in (
                (regular_id(alg), minimal_ag_parameter, is_minimal_ag),
                (gldim(alg), n_auslander_parameter, is_n_auslander),
            ):
                want = reference_least_level(alg, dim, 0)
                assert parameter(alg) == want, (alg, parameter)
                found.add(want is None)
                for n in range(4):
                    assert predicate(alg, n) == (reference_least_level(alg, dim, n) == n)
        assert infinite > 0 and found == {False, True}


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

    def test_never_builds_the_opposite_algebra(self, monkeypatch):
        # The opposite algebra is a test-side cross-check only: classify
        # reads the left self-injective dimension off the algebra's own
        # tables.
        def refuse(alg):
            raise AssertionError(f"opposite() called on {alg.lengths}")

        monkeypatch.setattr(KupischSeries, "opposite", refuse)
        for alg in pool(5, 7):
            report = classify(alg)
            assert report.regular_id_left == report.regular_id


# -- the verifiers against a test-side recomputation ------------------------------


def test_verifiers_match_ext_and_embedding_reference():
    """Every Gorenstein algebra of the 5/7 pool at every level: the
    table-driven verifiers give the same verdicts and witnesses as a
    recomputation with Gpd from Ext and embeddings searched directly."""
    levels = failing = 0
    for alg in pool_of(reference_gp_socle_sub):
        g = gorenstein_degree(alg)
        if not g.is_finite:
            continue
        gpd_of = {m: reference_ext_gpd(alg, m) for m in indecomposables(alg)}
        for n in range(max(g.value, 1)):
            got = verify_thm_gp_socle_sub(alg, n, 0).to_json()
            assert got == reference_gp_socle_sub(alg, n, 0, gpd_of), (alg, n)
            levels += 1
            failing += got["status"] == "fail"
        assert verify_ses_gpd_bounds(alg).to_json() == reference_ses_gpd_bounds(
            alg, gpd_of
        ), alg
    assert levels > 0 and 0 < failing < levels


@pytest.mark.parametrize(
    "verifier", [verify_thm_prinj, verify_thm_gp_socle_sub, verify_thm31_count]
)
def test_negative_level_is_an_unmet_precondition(verifier):
    with pytest.raises(PreconditionFailed, match="n must be >= 0"):
        verifier(CYCLIC, -1)


def test_breached_theorems_report_witnesses_and_sweep_flags(monkeypatch):
    """Raise Gpd S(3) by 2 over linear (3,3,3,3,2,1), where every theorem
    holds: each verdict fails with its witnesses and the sweep names every
    disagreement with the classifier.  A verdict passing off the
    characterization is the one flag this cannot reach."""
    alg = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
    # the package attribute `classify` is the function, not the module
    classify_module = sys.modules["nakayama.classify"]
    indecs = indecomposables(alg)
    s3 = indecs.index(IntervalModule(3, 1))
    raised = [g + 2 * (p == s3) for p, g in enumerate(classify_module._gpd_table(alg))]
    monkeypatch.setattr(classify_module, "_gpd_table", lambda _alg: raised)

    got = verify_ses_gpd_bounds(alg).to_json()
    assert got == reference_ses_gpd_bounds(alg, dict(zip(indecs, raised)))
    assert len(got["witnesses"]) == 4
    count = verify_thm31_count(alg, 2)
    assert not count.passed
    reasons = [w["reason"] for w in count.witnesses]
    assert "dichotomy breached" in reasons and "counts differ" in reasons
    assert violations(classify(alg).to_json()) == [
        "prinj failed on a qualifying algebra",
        "gp-socle-sub failed on a qualifying algebra",
        "lemma22 inequality breached",
        "thm31-count mismatch",
    ]


@pytest.mark.parametrize("seed", [0, 1, 1802])
def test_one_draw_sample_matches_separate_draws(seed):
    for alg in pool_of(reference_sample_positions):
        assert _sample_positions(alg, seed) == (
            reference_sample_positions(alg, seed, "gp-socle-sub")
        ), alg


def test_passing_algebra_draws_no_sums(monkeypatch):
    """Over linear (3,3,3,3,2,1) at n = 2 every indecomposable passes
    gp-socle-sub, so every sum does: the verdict is the former body's
    without a draw, and the 24 sums still count as checked."""
    alg = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
    want = reference_verify_gp_socle_sub(alg, 2)
    classify_module = sys.modules["nakayama.classify"]

    def refuse(alg, seed):
        raise AssertionError(f"sums drawn over {alg.lengths}, where every module passes")

    monkeypatch.setattr(classify_module, "_sample_positions", refuse)
    got = verify_thm_gp_socle_sub(alg, 2)
    assert got == want and got.passed
    assert got.checked == alg.total_dim + 24


def test_breached_table_gives_reference_socle_witnesses(monkeypatch):
    """Raise Gpd S(3) by 2 over linear (3,3,3,3,2,1): at every level the
    position codes give the reference witnesses, sums and both values of
    in_sub_lambda among them."""
    alg = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
    classify_module = sys.modules["nakayama.classify"]
    indecs = indecomposables(alg)
    s3 = indecs.index(IntervalModule(3, 1))
    raised = [g + 2 * (p == s3) for p, g in enumerate(classify_module._gpd_table(alg))]
    monkeypatch.setattr(classify_module, "_gpd_table", lambda _alg: raised)
    witnesses = []
    for n in range(4):
        got = verify_thm_gp_socle_sub(alg, n).to_json()
        assert got == reference_gp_socle_sub(alg, n, 0, dict(zip(indecs, raised)))
        witnesses += got["witnesses"]
    assert any("+" in w["module"] for w in witnesses)
    assert {w["in_sub_lambda"] for w in witnesses} == {False, True}


def test_lemma22_conditions_match_max_forms(monkeypatch):
    """Over linear (2,1) the one cut is S(2) -> M(1,2) -> S(1).  Every
    Gpd triple in 0..5 on it gives the witnesses of the max forms."""
    alg = KupischSeries.validate([2, 1], False)
    classify_module = sys.modules["nakayama.classify"]
    indecs = indecomposables(alg)  # S(1), M(1,2), S(2)
    table = [0, 0, 0]
    monkeypatch.setattr(classify_module, "_gpd_table", lambda _alg: table)
    for gx, gy, gz in product(range(6), repeat=3):
        table[:] = [gz, gy, gx]
        got = verify_ses_gpd_bounds(alg).to_json()
        assert got == reference_ses_gpd_bounds(alg, dict(zip(indecs, table)))


# -- the sweep path on positions ---------------------------------------------------


POOL_6_8 = pool_of(reference_verify_gp_socle_sub)


def test_position_verifiers_match_former_bodies():
    """Every Gorenstein algebra of the 6/8 pool at every level n in
    0..g-1 (n = 0 when g = 0) and seeds 0, 7 and 1802: the position
    verifiers give the former verdicts and witness text."""
    levels = failing = sums = 0
    for alg in POOL_6_8:
        g = gorenstein_degree(alg)
        if not g.is_finite:
            continue
        for n in range(max(g.value, 1)):
            for seed in (0, 7, 1802):
                got = verify_thm_gp_socle_sub(alg, n, seed).to_json()
                want = reference_verify_gp_socle_sub(alg, n, seed).to_json()
                assert got == want, (alg, n, seed)
                levels += 1
                failing += got["status"] == "fail"
                sums += any("+" in w["module"] for w in got["witnesses"])
        got = verify_ses_gpd_bounds(alg).to_json()
        assert got == reference_verify_ses_gpd_bounds(alg).to_json(), alg
    assert levels > 0 and 0 < failing < levels and sums > 0


def test_position_text_is_format_interval():
    """At every position of the 6/8 pool, _interval_at reads the start and
    length of the interval there off the index's offsets, and the text
    made from them is format_interval of that interval."""
    for alg in POOL_6_8:
        offset = classify_tables._index(alg).offset
        for p, m in enumerate(indecomposables(alg)):
            assert _interval_at(offset, p) == (m.start, m.length), (alg, p)
            assert interval_text(*_interval_at(offset, p)) == format_interval(m)


def test_texts_join_the_shared_rows():
    """With rows of a 7/9 algebra already cached, _texts gives the text
    at every position of the 6/8 pool, and the cache of rows, keyed by
    (vertex, length) ints, holds strings and no algebra."""
    _texts(KupischSeries.validate([9, 9, 9, 9, 9, 9, 9], True))
    for alg in POOL_6_8:
        offset = classify_tables._index(alg).offset
        want = [interval_text(*_interval_at(offset, p)) for p in range(alg.total_dim)]
        assert _texts(alg) == want, alg
    held = gc.get_referents(_text_row)
    rows = [r for r in held if isinstance(r, tuple) and r and type(r[0]) is str]
    keys = [r for r in held if isinstance(r, tuple) and r and type(r[0]) is int]
    assert len(rows) == len(keys) == _text_row.cache_info().currsize > 0
    assert all(type(text) is str for row in rows for text in row)
    assert all(len(key) == 2 and {type(k) for k in key} == {int} for key in keys)
    assert not any(isinstance(r, KupischSeries) for r in held)


def test_lemma22_witnesses_keep_the_former_order():
    """A doctored Gpd table in the memo gives one algebra witnesses over
    several (vertex, t, s): they come in the former (vertex, t, s) order,
    which is not the walk's (vertex, s, t) order, and match the
    reference route's."""
    alg = KupischSeries.validate([4, 4, 4, 3, 2, 1], False)
    table = [(p * 7) % 5 for p in range(alg.total_dim)]
    alg.__dict__.setdefault("_memo", {})["nakayama.homology._gpd_table"] = table
    got = verify_ses_gpd_bounds(alg).to_json()
    assert got == reference_ses_gpd_bounds(alg, dict(zip(indecomposables(alg), table)))

    def cut(w):  # (vertex, t, s) of a witness, off Y = M(i, t + 1) and Z = M(i, s)
        ((y,), (z,)) = parse_module(alg, w["middle"]), parse_module(alg, w["quotient"])
        return y.start, y.length - 1, z.length

    order = [cut(w) for w in got["witnesses"]]
    assert len({i for i, _, _ in order}) > 1
    assert order == sorted(order)
    assert order != sorted(order, key=lambda c: (c[0], c[2], c[1]))


def test_lemma22_position_witnesses_match_former_body(monkeypatch):
    """Raised Gpd tables over a few algebras: the lemma's position walk
    reports the former body's witnesses, sub, middle and quotient text
    included."""
    for lengths, cyclic in (([3, 3, 3, 3, 2, 1], False), ([3, 3, 4], True)):
        alg = KupischSeries.validate(lengths, cyclic)
        table = list(classify_tables._gpd_table(alg))
        monkeypatch.setattr(classify_tables, "_gpd_table", lambda _alg: table)
        for p in range(len(table)):
            table[p] += 10
            got = verify_ses_gpd_bounds(alg).to_json()
            assert got == reference_verify_ses_gpd_bounds(alg).to_json(), (alg, p)
            assert got["witnesses"], (alg, p)
            table[p] -= 10
        monkeypatch.undo()


@pytest.mark.parametrize("seed", [0, 1802])
def test_classify_builds_no_interval_table(monkeypatch, seed):
    """The sweep path reads positions only: classify runs on all 664
    algebras of the 6/8 pool with indecomposables refused wherever the
    classifier, the module tables and the homology tables could call it,
    and with no IntervalModule built at all, prinj witnesses included."""

    def refuse(alg):
        raise AssertionError(f"indecomposables({alg.lengths}) on the sweep path")

    def refuse_interval(self, *args):
        raise AssertionError(f"IntervalModule{args} built on the sweep path")

    for name in ("nakayama.classify", "nakayama.modules", "nakayama.homology"):
        monkeypatch.setattr(sys.modules[name], "indecomposables", refuse, raising=False)
    monkeypatch.setattr(IntervalModule, "__init__", refuse_interval)
    prinj_witnesses = 0
    for alg in pool(6, 8):
        verdicts = dict(classify(alg, seed).theorem_verdicts)
        prinj_witnesses += len(verdicts["prinj"]["witnesses"])
    assert prinj_witnesses > 0


def test_classify_keeps_one_table_of_distinguished_positions():
    """S_i, P_i and I(j) live on the index alone: after classify the memo
    holds no separate injective table, and the index has no simple_at."""
    for lengths, cyclic in (([3, 3, 4], True), ([3, 3, 3, 3, 2, 1], False)):
        alg = KupischSeries.validate(lengths, cyclic)
        classify(alg)
        memo = alg.__dict__["_memo"]
        assert "nakayama.modules._index" in memo
        assert "nakayama.modules._injectives" not in memo
    assert not hasattr(_Index, "simple_at")


def test_every_report_follows_the_declared_record():
    """Over the 6/8 pool, every report writes the REPORT_KEYS and the
    VERDICTS in order, each verdict with a status in STATUSES, on all four
    branches of classify; and the sweep file reads the very tuples that
    classify declares."""
    infinite, skipped = set(), set()
    for alg in pool(6, 8):
        rec = classify(alg).to_json()
        verdicts = rec["theorem_verdicts"]
        assert tuple(rec) == REPORT_KEYS, alg
        assert tuple(verdicts) == classify_tables.VERDICTS, alg
        assert {v["status"] for v in verdicts.values()} <= set(classify_tables.STATUSES)
        infinite.add(rec["gorenstein_degree"] == "infinity")
        if verdicts["thm31-count"]["status"] == "skipped":
            skipped.add(verdicts["thm31-count"]["note"])
    assert infinite == {False, True}  # Gorenstein and infinite degree
    assert skipped == {"semisimple algebra", "not minimal Auslander-Gorenstein"}
    assert sweepfile.VERDICTS is classify_tables.VERDICTS
    assert sweepfile.STATUSES is classify_tables.STATUSES
