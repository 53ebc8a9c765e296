"""Series validation, canonical forms, extended naturals, enumeration."""

from __future__ import annotations

import itertools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from references import (
    POOL_SIZES,
    admissible_series,
    pool,
    pool_of,
    reference_injective_lengths,
    reference_series,
)

import nakayama
from nakayama import (
    INFINITY,
    EmptySeries,
    ExtendedNat,
    InternalInconsistency,
    KupischSeries,
    IntervalModule,
    NotAdmissible,
    PreconditionFailed,
    classify,
    count_admissible,
    enumerate_admissible,
    ext_dim,
    is_minimal_ag,
    is_n_auslander,
    is_precluster,
    iter_admissible,
    radical_power,
    radical_quotient,
    search_precluster,
    socle_part,
    tau_n,
    tau_n_inverse,
    verify_thm31_count,
    verify_thm_gp_socle_sub,
    verify_thm_prinj,
)
from nakayama.core import _series, per_algebra
from nakayama.modules import _index


class TestValidation:
    def test_golden_series_validate(self):
        a = KupischSeries.validate([3, 3, 4], True)
        assert a.lengths == (3, 3, 4) and a.cyclic
        b = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
        assert b.lengths == (3, 3, 3, 3, 2, 1) and not b.cyclic

    def test_cyclic_rotations_share_canonical_form(self):
        base = KupischSeries.validate([3, 3, 4], True)
        for rot in ([3, 4, 3], [4, 3, 3]):
            assert KupischSeries.validate(rot, True) == base

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            KupischSeries.validate([], True)
        with pytest.raises(EmptySeries):
            KupischSeries.validate([], False)

    def test_slope_violation_reports_index(self):
        with pytest.raises(NotAdmissible) as err:
            KupischSeries.validate([5, 2, 1], False)
        assert err.value.index == 1

    def test_linear_needs_terminal_one(self):
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([3, 3, 2], False)

    def test_linear_interior_entries_at_least_two(self):
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([1, 1], False)

    def test_cyclic_entries_at_least_two(self):
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([2, 1], True)

    def test_cyclic_wraparound_slope(self):
        # c_1 must be >= c_v - 1
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([2, 2, 4], True)

    def test_small_valid_series(self):
        assert KupischSeries.validate([1], False).lengths == (1,)
        assert KupischSeries.validate([2], True).lengths == (2,)
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([1], True)

    def test_nonpositive_entries(self):
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([0, 1], False)
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([-2, -1], False)

    def test_boolean_entries(self):
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([2, True], False)
        with pytest.raises(NotAdmissible):
            KupischSeries.validate([True], False)


class TestExtendedNat:
    def test_ordering(self):
        assert ExtendedNat(0) < ExtendedNat(1) < INFINITY
        assert ExtendedNat(2) <= 2 and ExtendedNat(2) >= 2
        assert 3 <= INFINITY and not INFINITY <= 3
        assert INFINITY == INFINITY and not INFINITY.is_finite

    def test_arithmetic(self):
        assert ExtendedNat(2) + 3 == 5
        assert INFINITY + 7 == INFINITY

    def test_hash_matches_int(self):
        assert hash(ExtendedNat(4)) == hash(4)
        assert len({ExtendedNat(1), 1}) == 1

    def test_json_round_trip(self):
        assert ExtendedNat(5).to_json() == 5
        assert INFINITY.to_json() == "infinity"
        assert ExtendedNat.from_json(5) == ExtendedNat(5)
        assert ExtendedNat.from_json("infinity") == INFINITY

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExtendedNat(-1)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            ExtendedNat(True)
        with pytest.raises(ValueError):
            ExtendedNat.from_json(False)


class TestInjectiveLengths:
    def test_cyclic_golden(self):
        a = KupischSeries.validate([3, 3, 4], True)
        assert a.injective_lengths() == (3, 3, 4)

    def test_linear_golden(self):
        b = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
        assert b.injective_lengths() == (1, 2, 3, 3, 3, 3)

    def test_staircase(self):
        assert KupischSeries.validate([3, 2, 1], False).injective_lengths() == (1, 2, 3)

    def test_one_pass_matches_reference_walk(self):
        for alg in pool_of(reference_injective_lengths):
            assert alg.injective_lengths() == reference_injective_lengths(alg)

    @pytest.mark.parametrize(
        "call",
        [KupischSeries.injective_lengths, _index, classify],
        ids=["injective_lengths", "index", "classify"],
    )
    def test_linear_walk_off_the_quiver_is_a_bug_signal(self, call):
        # built without validate: P_1 = M(1, 3) would have socle vertex 3
        # on a 2-vertex linear quiver
        with pytest.raises(InternalInconsistency, match="leaves the linear quiver"):
            call(KupischSeries((3, 1), False))


@settings(max_examples=100, deadline=None)
@given(admissible_series())
def test_injective_lengths_match_reference_on_random_series(alg):
    assert alg.injective_lengths() == reference_injective_lengths(alg)


class TestOpposite:
    def test_golden_series_are_self_opposite(self):
        a = KupischSeries.validate([3, 3, 4], True)
        assert a.opposite() == a
        b = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
        assert b.opposite() == b

    def test_asymmetric_linear(self):
        alg = KupischSeries.validate([2, 3, 2, 1], False)
        assert alg.opposite().lengths == (3, 2, 2, 1)

    def test_involution_and_dimension_over_family(self):
        for alg in pool(4, 5):
            opp = alg.opposite()
            assert opp.opposite() == alg
            assert opp.total_dim == alg.total_dim
            assert opp.cyclic == alg.cyclic


class TestShift:
    def test_cyclic_wraps(self):
        a = KupischSeries.validate([3, 3, 4], True)
        assert a.shift(3, 1) == 1
        assert a.shift(1, -1) == 3
        assert a.shift(2, 7) == 3

    def test_linear_out_of_range_is_a_bug_signal(self):
        b = KupischSeries.validate([3, 2, 1], False)
        assert b.shift(1, 2) == 3
        with pytest.raises(InternalInconsistency):
            b.shift(3, 1)
        with pytest.raises(InternalInconsistency):
            b.shift(1, -1)


class TestEnumeration:
    def _brute_force(self, v_max, c_max):
        found = set()
        for v in range(1, v_max + 1):
            for raw in itertools.product(range(1, c_max + 1), repeat=v):
                for cyclic in (False, True):
                    try:
                        alg = KupischSeries.validate(list(raw), cyclic)
                    except NotAdmissible:
                        continue
                    found.add((alg.lengths, alg.cyclic))
        return found

    def test_matches_brute_force(self):
        algs = enumerate_admissible(4, 5)
        got = {(a.lengths, a.cyclic) for a in algs}
        assert got == self._brute_force(4, 5)
        assert len(got) == len(algs), "no duplicates"

    def test_linear_counts_are_catalan(self):
        by_v = {}
        for alg in enumerate_admissible(6, 8, shapes=("linear",)):
            by_v[alg.num_vertices] = by_v.get(alg.num_vertices, 0) + 1
        assert by_v == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42}

    def test_order_is_deterministic(self):
        assert enumerate_admissible(5, 6) == enumerate_admissible(5, 6)

    def test_max_length_one_leaves_only_the_semisimple_point(self):
        algs = enumerate_admissible(6, 1)
        assert [(a.lengths, a.cyclic) for a in algs] == [((1,), False)]

    def test_max_length_zero_leaves_nothing(self):
        assert enumerate_admissible(6, 0) == []

    def test_cyclic_results_are_canonical(self):
        for alg in enumerate_admissible(5, 6, shapes=("cyclic",)):
            assert KupischSeries.validate(list(alg.lengths), True) == alg


class TestSeriesGenerator:
    @pytest.mark.parametrize("cyclic", [False, True], ids=["linear", "cyclic"])
    @pytest.mark.parametrize("v", range(1, 9))
    def test_matches_reference(self, v, cyclic):
        for max_length in range(v + 3):
            got = list(_series(v, max_length, cyclic))
            assert got == reference_series(v, max_length, cyclic), max_length

    def test_blocks_are_strictly_increasing(self):
        blocks = {}
        for alg in enumerate_admissible(8, 10):
            blocks.setdefault((alg.cyclic, alg.num_vertices), []).append(alg.lengths)
        assert len(blocks) == 16
        for block in blocks.values():
            assert all(a < b for a, b in zip(block, block[1:]))

    def test_count_at_10_12(self):
        algs = enumerate_admissible(10, 12)
        assert len(algs) == 104_822
        assert sum(alg.cyclic for alg in algs) == 97_904

    def test_unknown_shape_is_refused(self):
        with pytest.raises(ValueError, match="cylic"):
            enumerate_admissible(3, 3, ("cylic",))

    @pytest.mark.parametrize("fn", [iter_admissible, count_admissible])
    def test_unknown_shape_is_refused_at_the_call(self, fn):
        with pytest.raises(ValueError, match="cylic"):
            fn(3, 3, ("linear", "cylic"))


class TestStreamAndCount:
    @pytest.mark.parametrize("shapes", [("linear",), ("cyclic",), ("linear", "cyclic")])
    def test_stream_is_the_list(self, shapes):
        stream = iter_admissible(5, 7, shapes)
        assert iter(stream) is stream
        assert list(stream) == enumerate_admissible(5, 7, shapes)

    @pytest.mark.parametrize("shapes", [("linear",), ("cyclic",), ("linear", "cyclic")])
    def test_count_is_the_length_on_the_pools(self, shapes):
        for v, max_length in POOL_SIZES:
            expected = len(enumerate_admissible(v, max_length, shapes))
            assert count_admissible(v, max_length, shapes) == expected, (v, max_length)

    def test_count_at_the_pool_sizes_and_beyond(self):
        sizes = {**POOL_SIZES, (9, 11): 28_285, (10, 12): 104_822}
        assert {key: count_admissible(*key) for key in sizes} == sizes

    def test_length_one_bounds_finish_at_once(self, tmp_path):
        # Every vertex but a linear sink has c >= 2, so L = 1 admits
        # linear (1) alone, whatever the vertex bound.  The child is
        # capped at 1 GB, so a walk over every vertex count fails fast.
        code = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from nakayama import count_admissible, enumerate_admissible\n"
            "t = time.perf_counter()\n"
            "n = count_admissible(10**12, 1)\n"
            "print(n, time.perf_counter() - t)\n"
            "print([(a.lengths, a.cyclic) for a in enumerate_admissible(10**12, 1)])\n"
        )
        src = str(Path(nakayama.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        count, seconds = out.stdout.splitlines()[0].split()
        assert count == "1" and float(seconds) < 1
        assert out.stdout.splitlines()[1] == "[((1,), False)]"

    @pytest.mark.parametrize("v", range(1, 10))
    def test_linear_count_is_catalan(self, v):
        # with L >= v no length bound binds: Catalan(v - 1) series on v vertices
        catalan = math.comb(2 * (v - 1), v - 1) // v
        for max_length in (v, v + 2):
            on_v = count_admissible(v, max_length, ("linear",)) - count_admissible(
                v - 1, max_length, ("linear",)
            )
            assert on_v == catalan, max_length


class TestBasics:
    def test_loewy_and_dim(self):
        a = KupischSeries.validate([3, 3, 4], True)
        assert [a.loewy_length(i) for i in a.vertices()] == [3, 3, 4]
        assert a.total_dim == 10
        assert list(a.vertices()) == [1, 2, 3]

    @pytest.mark.parametrize(
        "lengths, cyclic, call",
        [
            ((3, 3, 4), True, lambda a: a.loewy_length(0)),
            ((3, 3, 4), True, lambda a: a.loewy_length(-1)),
            ((3, 3, 4), True, lambda a: a.shift(0, 1)),
            ((3, 3, 3, 3, 2, 1), False, lambda a: a.loewy_length(0)),
        ],
        ids=["cyclic loewy 0", "cyclic loewy -1", "cyclic shift 0", "linear loewy 0"],
    )
    def test_vertex_outside_the_quiver_refused(self, lengths, cyclic, call):
        # Python would read lengths[-1] and lengths[-2] for vertices 0 and -1.
        with pytest.raises(NotAdmissible, match="outside 1.."):
            call(KupischSeries.validate(list(lengths), cyclic))

    def test_series_is_hashable_value(self):
        a1 = KupischSeries.validate([3, 3, 4], True)
        a2 = KupischSeries.validate([4, 3, 3], True)
        assert a1 == a2 and hash(a1) == hash(a2)
        assert len({a1, a2}) == 1


class TestPerAlgebraMemo:
    def test_builds_once_per_algebra_under_a_string_key(self):
        calls = []

        @per_algebra
        def table(alg):
            calls.append(alg)
            return len(calls)

        a, b = (KupischSeries.validate([3, 3, 4], True) for _ in range(2))
        assert (table(a), table(a), table(b)) == (1, 1, 2)
        assert a.__dict__["_memo"] == {f"{__name__}.{table.__qualname__}": 1}

    def test_a_hit_does_not_call_the_build(self):
        def refuse(alg):
            raise AssertionError(f"built again over {alg.lengths}")

        table = per_algebra(refuse)
        alg = KupischSeries.validate([3, 3, 4], True)
        alg.__dict__["_memo"] = {f"{refuse.__module__}.{refuse.__qualname__}": "kept"}
        assert (table(alg), table(alg)) == ("kept", "kept")

    @pytest.mark.parametrize("first_table", [True, False], ids=["first", "later"])
    @pytest.mark.parametrize("error", [KeyError, AttributeError])
    def test_an_error_inside_a_build_propagates_and_leaves_no_entry(
        self, error, first_table
    ):
        # a KeyError or AttributeError from the build is not a memo miss
        raised = error("inside the build")
        calls = []

        @per_algebra
        def table(alg):
            calls.append(alg)
            if len(calls) == 1:
                raise raised
            return len(calls)

        alg = KupischSeries.validate([3, 3, 4], True)
        if not first_table:
            _index(alg)
        with pytest.raises(error) as info:
            table(alg)
        assert info.value is raised
        key = f"{__name__}.{table.__qualname__}"
        if first_table:
            assert "_memo" not in alg.__dict__
        else:
            assert key not in alg.__dict__["_memo"]
        assert (table(alg), table(alg), len(calls)) == (2, 2, 2)
        assert alg.__dict__["_memo"][key] == 2

    def test_classified_algebra_pickles(self):
        alg = KupischSeries.validate([3, 3, 4], True)
        report = classify(alg).to_json()
        copy = pickle.loads(pickle.dumps(alg))
        assert copy == alg
        assert copy.__dict__["_memo"].keys() == alg.__dict__["_memo"].keys()
        assert all(isinstance(key, str) for key in copy.__dict__["_memo"])
        assert classify(copy).to_json() == report

    def test_opposite_keeps_its_own_tables(self):
        # the left self-injective dimension is a cross-check through the
        # opposite algebra, so it must not reuse the algebra's index
        alg = KupischSeries.validate([3, 3, 4], True)
        assert alg.opposite() == alg
        assert _index(alg.opposite()) is not _index(alg)


# Each level, step and degree argument, the least value it takes and the
# error its function raises below that; `nakayama.core._at_least` is the
# one check behind them all.
M13, M21 = IntervalModule(1, 3), IntervalModule(2, 1)
LEVEL_ARGUMENTS = {
    "radical_power s": (lambda alg, s: radical_power(alg, M13, s), 0, ValueError),
    "radical_quotient s": (lambda alg, s: radical_quotient(alg, M13, s), 0, ValueError),
    "socle_part s": (lambda alg, s: socle_part(alg, M13, s), 0, ValueError),
    "ext_dim k": (lambda alg, k: ext_dim(alg, M13, M21, k), 0, ValueError),
    "tau_n n": (lambda alg, n: tau_n(alg, M13, n), 1, ValueError),
    "tau_n_inverse n": (lambda alg, n: tau_n_inverse(alg, M13, n), 1, ValueError),
    "is_precluster n": (lambda alg, n: is_precluster(alg, [M13], n), 1, ValueError),
    "search_precluster n": (search_precluster, 1, ValueError),
    "search_precluster max_extra": (
        lambda alg, k: search_precluster(alg, 1, k), 0, ValueError
    ),
    "search_precluster subset_cap": (
        lambda alg, cap: search_precluster(alg, 1, None, cap), 0, ValueError
    ),
    "is_minimal_ag n": (is_minimal_ag, 0, ValueError),
    "is_n_auslander n": (is_n_auslander, 0, ValueError),
    "verify_thm_prinj n": (verify_thm_prinj, 0, PreconditionFailed),
    "verify_thm_gp_socle_sub n": (verify_thm_gp_socle_sub, 0, PreconditionFailed),
    "verify_thm31_count n": (verify_thm31_count, 0, PreconditionFailed),
}


@pytest.mark.parametrize("argument", LEVEL_ARGUMENTS)
@pytest.mark.parametrize("bad", [True, 1.5, 2.0, "1", "least - 1"])
def test_level_arguments_must_be_plain_ints(argument, bad):
    # refused before any per-algebra table is built
    call, least, error = LEVEL_ARGUMENTS[argument]
    alg = KupischSeries.validate([3, 3, 4], True)
    with pytest.raises(error, match=r">= \d, got "):
        call(alg, least - 1 if bad == "least - 1" else bad)
    assert "_memo" not in alg.__dict__


@pytest.mark.parametrize("cyclic", [True, False])
@pytest.mark.parametrize("bad", [True, 1.5, 2.0, "1", None])
def test_shift_steps_must_be_plain_ints(cyclic, bad):
    # negative steps walk against the arrows and stay valid
    alg = KupischSeries.validate([3, 3, 4] if cyclic else [3, 2, 1], cyclic)
    assert alg.shift(3, -1) == 2 and alg.shift(1, 0) == 1
    with pytest.raises(ValueError, match=r"shift wants a plain int number of steps, got "):
        alg.shift(1, bad)
