"""Matrix-level cross-checks: the oracle must agree with the combinatorics."""

from __future__ import annotations

import ast
import gc
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    CYCLIC, LINEAR, M, admissible_series, hom_basis, nullity, pool, pool_of,
    reference_basis_lengths, reference_stable_hom_dim, reference_tau1,
    reference_whole_sum_ext1_dim, reference_whole_sum_hom_dim,
)

from nakayama import (
    DimensionCapExceeded,
    InternalInconsistency,
    KupischSeries,
    ModuleSum,
    NotAdmissible,
    ar_translate,
    ext_dim,
    gpd,
    hom_dim,
    indecomposables,
    injective,
    injective_envelope,
    is_injective,
    oracle_ext1_dim,
    oracle_hom_dim,
    oracle_is_injective,
    oracle_socle_vector,
    oracle_tau,
    pd,
    projective,
    realize,
    socle,
)
from nakayama import oracle


class TestRealize:
    def test_dim_vector_golden(self):
        rep = realize(CYCLIC, M(1, 2))
        assert rep.dims == [1, 1, 0]
        rep2 = realize(CYCLIC, M(3, 4))
        assert rep2.dims == [1, 1, 2]

    def test_sum_realization(self):
        rep = realize(CYCLIC, ModuleSum.of(M(1, 1), M(1, 2)))
        assert rep.dims == [2, 1, 0]

    def test_relations_hold(self):
        # composing c_i arrow steps out of vertex i must vanish
        for alg in (CYCLIC, LINEAR):
            for i in alg.vertices():
                rep = realize(alg, projective(alg, i))
                vec = [0] * rep.dims[i - 1]
                vec[0] = 1
                at = i
                for _ in range(alg.lengths[i - 1]):
                    mat = rep.maps.get(at)
                    if mat is None or not mat or not mat[0]:
                        vec = []
                        break
                    vec = [sum(a * b for a, b in zip(row, vec)) % rep.p for row in mat]
                    at = alg.shift(at, 1)
                assert len(vec) == 0 or not any(vec)

    def test_dim_cap(self):
        with pytest.raises(DimensionCapExceeded):
            realize(CYCLIC, M(3, 4), dim_cap=3)

    def test_nonprime_field_rejected(self):
        with pytest.raises(ValueError):
            realize(CYCLIC, M(1, 1), p=4)


class TestFieldSize:
    # p * p must not exceed 2**63 - 1, which bounds trial division:
    # 3037000493 is the largest prime within it, and the next primes past
    # 2**32 are beyond it
    LARGEST = 3037000493

    def test_refuses_primes_whose_products_overflow(self):
        with pytest.raises(ValueError, match=r"exceeds 2\*\*63 - 1"):
            oracle_hom_dim(CYCLIC, M(1, 1), M(1, 1), p=4294967311)

    def test_largest_prime_matches_the_engine(self):
        ind = indecomposables(CYCLIC)
        for x in ind:
            for y in ind:
                assert oracle_hom_dim(CYCLIC, x, y, p=self.LARGEST) == hom_dim(
                    CYCLIC, x, y
                )
                assert oracle_ext1_dim(CYCLIC, x, y, p=self.LARGEST) == ext_dim(
                    CYCLIC, x, y, 1
                )

    @pytest.mark.parametrize("p", [4, 1, 4294967311, 2.0])
    def test_a_refused_order_is_refused_again(self, p):
        for _ in range(2):
            with pytest.raises(ValueError):
                oracle_hom_dim(CYCLIC, M(1, 1), M(1, 1), p=p)

    def test_accepted_primes_are_checked_once(self):
        oracle._check_int_prime.cache_clear()
        for _ in range(3):
            oracle_hom_dim(CYCLIC, M(1, 1), M(1, 1), p=self.LARGEST)
        info = oracle._check_int_prime.cache_info()
        assert (info.misses, info.hits) == (1, 2)


# FIELD_CALLS[name](p) runs one public oracle call over F_p
FIELD_CALLS = {
    "realize": lambda p: realize(CYCLIC, M(1, 2), p),
    "hom_dim": lambda p: oracle_hom_dim(CYCLIC, M(1, 2), M(1, 3), p),
    "ext1_dim": lambda p: oracle_ext1_dim(CYCLIC, M(3, 2), M(1, 3), p),
    "is_injective": lambda p: oracle_is_injective(CYCLIC, M(1, 2), p),
    "tau": lambda p: oracle_tau(CYCLIC, M(1, 2), p),
    "socle_vector": lambda p: oracle_socle_vector(CYCLIC, M(1, 2), p),
}


@pytest.mark.parametrize("call", sorted(FIELD_CALLS))
@pytest.mark.parametrize("p", [5.5, 2.0, 3.0])
def test_refuses_a_field_order_that_is_not_an_int(call, p):
    with pytest.raises(ValueError, match="field order must be an int"):
        FIELD_CALLS[call](p)


class TestHomAgainstFormula:
    def test_frozen_values(self):
        assert oracle_hom_dim(CYCLIC, M(2, 2), M(3, 4)) == 1
        assert oracle_hom_dim(CYCLIC, M(3, 4), M(3, 4)) == 2
        assert oracle_hom_dim(CYCLIC, M(1, 2), M(1, 3)) == 0

    def test_all_pairs_cyclic(self):
        ind = indecomposables(CYCLIC)
        for x in ind:
            for y in ind:
                assert oracle_hom_dim(CYCLIC, x, y) == hom_dim(CYCLIC, x, y)

    def test_all_pairs_linear(self):
        ind = indecomposables(LINEAR)
        for x in ind:
            for y in ind:
                assert oracle_hom_dim(LINEAR, x, y) == hom_dim(LINEAR, x, y)

    def test_field_independence(self):
        ind = indecomposables(CYCLIC)
        for x in ind:
            for y in ind:
                assert oracle_hom_dim(CYCLIC, x, y, p=2) == oracle_hom_dim(
                    CYCLIC, x, y, p=3
                )


class TestExt1:
    def test_frozen_value(self):
        assert oracle_ext1_dim(CYCLIC, M(3, 2), M(1, 3)) == 1
        assert oracle_ext1_dim(CYCLIC, M(1, 1), M(3, 1)) == 0

    def test_vanishes_into_projectives_from_syzygy_free(self):
        # S(1) has pd 3 over the linear algebra but Ext^1(S(6), P_j) = 0
        for j in LINEAR.vertices():
            assert oracle_ext1_dim(LINEAR, M(6, 1), projective(LINEAR, j)) == 0

    def test_matches_formula_all_pairs(self):
        for alg in (CYCLIC, LINEAR):
            for x in indecomposables(alg):
                for y in indecomposables(alg):
                    assert oracle_ext1_dim(alg, x, y) == ext_dim(alg, x, y, 1)


class TestInjectivity:
    def test_cyclic_injectives(self):
        expected = {injective(CYCLIC, j) for j in CYCLIC.vertices()}
        for m in indecomposables(CYCLIC):
            assert oracle_is_injective(CYCLIC, m) == (m in expected)
            assert oracle_is_injective(CYCLIC, m) == is_injective(CYCLIC, m)

    def test_linear_injectives(self):
        for m in indecomposables(LINEAR):
            assert oracle_is_injective(LINEAR, m) == is_injective(LINEAR, m)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("alg", [CYCLIC, LINEAR], ids=["cyclic", "linear"])
    def test_sums_by_baer_criterion(self, alg, p):
        dual = ModuleSum.of(*(injective(alg, j) for j in alg.vertices()))
        assert oracle_is_injective(alg, dual, p)
        for m in indecomposables(alg):
            if not is_injective(alg, m):
                assert not oracle_is_injective(alg, dual + ModuleSum.of(m), p)
        assert oracle_is_injective(alg, ModuleSum.zero(), p)


class TestSocleVector:
    def test_golden(self):
        assert oracle_socle_vector(CYCLIC, M(1, 2)) == (0, 1, 0)
        assert oracle_socle_vector(CYCLIC, M(3, 4)) == (0, 0, 1)

    def test_matches_combinatorial_socle(self):
        for alg in (CYCLIC, LINEAR):
            for m in indecomposables(alg):
                vec = oracle_socle_vector(alg, m)
                soc = socle(alg, m)
                expect = [0] * alg.num_vertices
                for piece in soc:
                    expect[piece.start - 1] += 1
                assert vec == tuple(expect)


class TestTau:
    def test_matches_combinatorial_translate(self):
        for alg in (CYCLIC, LINEAR):
            for m in indecomposables(alg):
                assert oracle_tau(alg, m) == ar_translate(alg, m)

    def test_projectives_die(self):
        for alg in (CYCLIC, LINEAR):
            for i in alg.vertices():
                assert oracle_tau(alg, projective(alg, i)).is_zero


FOREIGN_ALG = KupischSeries.validate([2, 3], True)
# ORACLE_CALLS[name](alg, m, **kw) puts m in the named argument of one
# public call, with the keyword arguments p and dim_cap in kw
ORACLE_CALLS = {
    "realize": lambda alg, m, **kw: realize(alg, m, **kw),
    "hom_dim source": lambda alg, m, **kw: oracle_hom_dim(alg, m, M(1, 1), **kw),
    "hom_dim target": lambda alg, m, **kw: oracle_hom_dim(alg, M(1, 1), m, **kw),
    "ext1_dim source": lambda alg, m, **kw: oracle_ext1_dim(alg, m, M(1, 1), **kw),
    "ext1_dim target": lambda alg, m, **kw: oracle_ext1_dim(alg, M(1, 1), m, **kw),
    "is_injective": lambda alg, m, **kw: oracle_is_injective(alg, m, **kw),
    "tau": lambda alg, m, **kw: oracle_tau(alg, m, **kw),
    "socle_vector": lambda alg, m, **kw: oracle_socle_vector(alg, m, **kw),
}


# intervals that are not modules over FOREIGN_ALG: too long, off the
# quiver, empty, and a start or length that is not a plain int
NOT_MODULES = [
    M(1, 9), M(7, 1), M(2, 0), M(True, 1), M(1, True), M(1.0, 1), M(1, 2.0),
]


@pytest.mark.parametrize("call", sorted(ORACLE_CALLS))
@pytest.mark.parametrize("bad", NOT_MODULES, ids=repr)
def test_refuses_intervals_that_are_not_modules(call, bad):
    with pytest.raises(NotAdmissible, match=re.escape(repr(bad))):
        ORACLE_CALLS[call](FOREIGN_ALG, bad)


# ENGINE_CALLS[name](alg, m) puts m in the named argument of one engine
# query that the oracle cross-checks, or that reads the same validator
ENGINE_CALLS = {
    "hom_dim source": lambda alg, m: hom_dim(alg, m, M(1, 1)),
    "hom_dim target": lambda alg, m: hom_dim(alg, M(1, 1), m),
    "ext_dim source": lambda alg, m: ext_dim(alg, m, M(1, 1), 1),
    "ext_dim target": lambda alg, m: ext_dim(alg, M(1, 1), m, 1),
    "is_injective": is_injective,
    "ar_translate": ar_translate,
    "pd": pd,
    "gpd": gpd,
}


@pytest.mark.parametrize("call", sorted(ENGINE_CALLS))
@pytest.mark.parametrize("bad", NOT_MODULES, ids=repr)
def test_engine_refuses_the_same_intervals(call, bad):
    # the engine's one validator refuses exactly what the oracle's argument
    # pass refuses, with the same typed error naming the interval
    with pytest.raises(NotAdmissible, match=re.escape(repr(bad))):
        ENGINE_CALLS[call](FOREIGN_ALG, bad)


def clear_states():
    """Drop the oracle's cross-check states and tau's path table."""
    oracle._fields.cache_clear()
    oracle._paths.cache_clear()


def held():
    """The cross-check states alive, as sorted (v, p) pairs."""
    gc.collect()
    states = [o for o in gc.get_objects() if isinstance(o, oracle._OracleState)]
    return sorted((st.v, st.p) for st in states)


def entries(table):
    """The (outer, inner) keys of a nested state table."""
    return {(k, j) for k, row in table.items() for j in row}


@pytest.mark.parametrize("call", sorted(ORACLE_CALLS))
def test_shares_no_state_with_the_engine(call):
    # a warm state for an equal algebra would leave the fresh one untouched
    clear_states()
    alg = KupischSeries.validate([3, 3, 4], True)
    ORACLE_CALLS[call](alg, M(1, 2))
    assert "_memo" not in alg.__dict__


# ENGINE_IMPORTS[module] = the names the oracle may import from that engine
# module: the interval types and the argument check, never a formula under
# test; the package itself re-exports the engine, so it imports nothing
ENGINE_IMPORTS = {
    "nakayama": set(),
    "nakayama.modules": {"IntervalModule", "ModuleSum", "_interval", "_intervals"},
    "nakayama.homology": set(),
    "nakayama.precluster": set(),
    "nakayama.classify": set(),
}


def test_the_oracle_imports_no_engine_formula():
    # `import m` binds "*", a relative import is resolved in the package
    imported = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported += [(alias.name, "*") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["nakayama" if node.level else "", node.module]))
            imported += [(module, alias.name) for alias in node.names]
    shared = [(m, name) for m, name in imported if m in ENGINE_IMPORTS]
    assert [(m, name) for m, name in shared if name not in ENGINE_IMPORTS[m]] == []
    assert {name for m, name in shared} == ENGINE_IMPORTS["nakayama.modules"]


# REFUSALS[kind] = (m, keyword arguments, error): a query over CYCLIC
# = (3, 3, 4) that one of the checks must refuse
REFUSALS = {
    "foreign interval": (M(7, 1), {}, NotAdmissible),
    "start True": (M(True, 1), {}, NotAdmissible),
    "length 2.0": (M(1, 2.0), {}, NotAdmissible),
    "vertex 0": (M(0, 1), {}, NotAdmissible),
    "vertex v + 1": (M(4, 1), {}, NotAdmissible),
    "length c + 1": (M(1, 4), {}, NotAdmissible),
    "non-prime p": (M(1, 1), {"p": 4}, ValueError),
    "cap breach": (M(1, 1), {"dim_cap": 0}, DimensionCapExceeded),
}


@pytest.mark.parametrize("call", sorted(ORACLE_CALLS))
@pytest.mark.parametrize("kind", sorted(REFUSALS))
def test_a_refused_query_reads_no_state(call, kind):
    assert_reads_no_state(call, *REFUSALS[kind])


@pytest.mark.parametrize("call", ["ext1_dim source", "is_injective"])
def test_a_cover_cap_breach_reads_no_state(call):
    # P_3 = M(3, 4), the cover of x = M(3, 1) in Ext^1 and of the simple
    # S_3 in Baer's criterion, breaches a cap of 3
    assert_reads_no_state(call, M(3, 1), {"dim_cap": 3}, DimensionCapExceeded)


def assert_reads_no_state(call, m, kw, error):
    """Every check runs before the state is read: a refused query neither
    looks the state up nor replaces the warm one."""
    clear_states()
    ind = indecomposables(CYCLIC)
    for x in ind:
        oracle_is_injective(CYCLIC, x)
        oracle_tau(CYCLIC, x)
        for y in ind:
            oracle_hom_dim(CYCLIC, x, y)
            oracle_ext1_dim(CYCLIC, x, y)
    warm = oracle._state(CYCLIC, 2)
    before = oracle._fields.cache_info(), oracle._paths.cache_info()
    with pytest.raises(error):
        ORACLE_CALLS[call](CYCLIC, m, **kw)
    assert (oracle._fields.cache_info(), oracle._paths.cache_info()) == before
    assert oracle._state(CYCLIC, 2) is warm


class TestTauPathTable:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_the_per_call_listing_cross_check(self, p):
        translated = 0
        for alg in pool_of(reference_tau1):
            for m in indecomposables(alg):
                if m.length == alg.loewy_length(m.start):
                    assert oracle_tau(alg, m, p).is_zero
                    continue
                assert oracle_tau(alg, m, p) == ModuleSum.of(reference_tau1(alg, m, p))
                translated += 1
        assert translated == 3766 - 887

    def test_paths_are_listed_once(self, monkeypatch):
        # the table costs one shift per path, on the first call only; each
        # call then shifts at most once per vertex and once for its socle
        ind = indecomposables(CYCLIC)
        translated = sum(m.length < CYCLIC.lengths[m.start - 1] for m in ind)
        shift = KupischSeries.shift
        calls = []

        def counted(alg, i, steps=1):
            calls.append((i, steps))
            return shift(alg, i, steps)

        def tau_pass():
            calls.clear()
            for m in ind:
                oracle_tau(CYCLIC, m)
            return len(calls)

        monkeypatch.setattr(KupischSeries, "shift", counted)
        oracle._paths.cache_clear()
        first, second = tau_pass(), tau_pass()
        assert first - second == CYCLIC.total_dim
        assert second <= translated * (CYCLIC.num_vertices + 1)


class TestState:
    def test_alternating_fields_on_one_algebra(self):
        ind = indecomposables(CYCLIC)
        for k, (x, y) in enumerate((x, y) for x in ind for y in ind):
            p = 2 + k % 2
            assert oracle_hom_dim(CYCLIC, x, y, p=p) == hom_dim(CYCLIC, x, y)
            assert oracle_ext1_dim(CYCLIC, x, y, p=5 - p) == ext_dim(CYCLIC, x, y, 1)
        for k, m in enumerate(ind):
            assert oracle_is_injective(CYCLIC, m, p=2 + k % 2) == is_injective(CYCLIC, m)

    def test_caps_hold_with_warm_state(self):
        for m in indecomposables(CYCLIC):
            oracle_is_injective(CYCLIC, m)
            oracle_ext1_dim(CYCLIC, m, M(3, 4))
            oracle_hom_dim(CYCLIC, m, M(3, 4))
        with pytest.raises(DimensionCapExceeded):
            oracle_hom_dim(CYCLIC, M(1, 1), M(3, 4), dim_cap=3)
        with pytest.raises(DimensionCapExceeded):
            oracle_hom_dim(CYCLIC, ModuleSum.of(M(1, 2), M(2, 2)), M(1, 1), dim_cap=3)
        with pytest.raises(DimensionCapExceeded):
            oracle_ext1_dim(CYCLIC, M(3, 1), M(1, 1), dim_cap=3)  # the cover P_3
        with pytest.raises(DimensionCapExceeded):
            oracle_is_injective(CYCLIC, M(1, 1), dim_cap=3)  # realizes M(3, 4)

    def test_realize_returns_a_private_copy(self):
        before = oracle_hom_dim(CYCLIC, M(3, 4), M(3, 4))
        assert oracle_ext1_dim(CYCLIC, M(3, 2), M(1, 3)) == 1
        for m in indecomposables(CYCLIC):
            rep = realize(CYCLIC, m)
            for mat in rep.maps.values():
                for row in mat:
                    row[:] = [1] * len(row)
            rep.dims[0] += 1
        assert oracle_hom_dim(CYCLIC, M(3, 4), M(3, 4)) == before == 2
        assert oracle_ext1_dim(CYCLIC, M(3, 2), M(1, 3)) == 1
        assert oracle_is_injective(CYCLIC, M(3, 4))

    def test_ext1_table_is_shared_with_injectivity(self, monkeypatch):
        clear_states()
        simples = [(i, 1) for i in CYCLIC.vertices()]
        assert not oracle_is_injective(CYCLIC, M(1, 2))
        state = oracle._state(CYCLIC, 2)
        # Ext^1(S_i, M(1, 2)) under (S_i, c_i), c_i the length of P_i
        target = state.code(1, 2)
        assert entries(state.ext1s) == {
            ((state.code(*s), c), target) for s, c in zip(simples, CYCLIC.lengths)
        }

        def recompute(*args):
            raise AssertionError("Ext^1 recomputed")

        monkeypatch.setattr(oracle, "_hom_system", recompute)
        for i, _ in simples:
            assert oracle_ext1_dim(CYCLIC, M(i, 1), M(1, 2)) == ext_dim(
                CYCLIC, M(i, 1), M(1, 2), 1
            )
        assert not oracle_is_injective(CYCLIC, M(1, 2))

    @pytest.mark.parametrize(
        ("alg", "npairs"), [(CYCLIC, 100), (LINEAR, 225)], ids=["cyclic", "linear"]
    )
    @pytest.mark.parametrize("hom_first", [True, False], ids=["hom-first", "ext-first"])
    def test_each_pair_is_eliminated_once(self, monkeypatch, alg, npairs, hom_first):
        # Hom and Ext^1 on every ordered pair, in either order, eliminate
        # each pair's intertwiner system exactly once: Ext^1 reads Hom(K, y)
        # from the Hom table under the kernel's name, and restricts the
        # cover's basis from the same table
        ind = indecomposables(alg)
        pairs = [(x, y) for x in ind for y in ind]
        calls = []
        system = oracle._hom_system

        def counted(x, y):
            calls.append((x, y))
            return system(x, y)

        def hom_pass():
            for x, y in pairs:
                assert oracle_hom_dim(alg, x, y) == hom_dim(alg, x, y)

        def ext_pass():
            for x, y in pairs:
                assert oracle_ext1_dim(alg, x, y) == ext_dim(alg, x, y, 1)

        monkeypatch.setattr(oracle, "_hom_system", counted)
        clear_states()
        for run in (hom_pass, ext_pass) if hom_first else (ext_pass, hom_pass):
            run()
        state = oracle._state(alg, 2)
        assert len(calls) == len(entries(state.homs)) == len(pairs) == npairs

    @pytest.mark.parametrize("x", [M(1, 1), M(3, 1), M(3, 2)], ids=repr)
    def test_kernel_must_be_its_named_realization(self, monkeypatch, x):
        # one arrow entry of the presentation kernel flipped: the kernel is
        # no longer the realization of its name, so Ext^1 must not read the
        # Hom table under that name
        build = oracle._presentation_kernel

        def flipped(cover, length):
            kernel, keep = build(cover, length)
            u, mat = next((u, mat) for u, mat in kernel.maps.items() if mat and mat[0])
            kernel.maps[u] = [row[:] for row in mat]
            kernel.maps[u][0][0] = 1 - kernel.maps[u][0][0]
            return kernel, keep

        monkeypatch.setattr(oracle, "_presentation_kernel", flipped)
        clear_states()
        with pytest.raises(InternalInconsistency, match="presentation kernel"):
            oracle_ext1_dim(CYCLIC, x, M(1, 3))
        clear_states()

    def test_one_field_held_one_state_per_quiver(self):
        clear_states()
        oracle_hom_dim(CYCLIC, M(1, 1), M(1, 1))
        oracle_is_injective(LINEAR, M(1, 3))
        other = KupischSeries.validate([3, 4, 4], True)  # CYCLIC's quiver
        oracle_ext1_dim(other, M(1, 1), M(2, 2))
        assert held() == [(3, 2), (6, 2)]
        assert sorted(oracle._fields(2)) == [(3, True), (6, False)]
        oracle_is_injective(LINEAR, M(1, 3), p=3)
        assert held() == [(6, 3)]
        assert oracle._fields.cache_info().currsize == 1

    def test_no_algebra_held(self):
        # Hom, Ext^1 and injectivity keep no reference to the algebra
        alg = KupischSeries.validate([3, 4, 4], True)
        for m in indecomposables(alg):
            oracle_is_injective(alg, m)
            oracle_hom_dim(alg, m, M(1, 1))
            oracle_ext1_dim(alg, m, M(1, 1))
        gone = weakref.ref(alg)
        del alg
        gc.collect()
        assert gone() is None

    def test_ext1_keyed_by_the_cover_length(self):
        # S(1) has cover M(1, 2) over A and M(1, 3) over B, on one quiver:
        # Ext^1(S(1), M(2, 2)) is 0 over A and 1 over B
        a = KupischSeries.validate([2, 2, 1], False)
        b = KupischSeries.validate([3, 2, 1], False)
        clear_states()
        for alg, want in ((a, 0), (b, 1), (a, 0)):
            assert oracle_ext1_dim(alg, M(1, 1), M(2, 2)) == want
            assert ext_dim(alg, M(1, 1), M(2, 2), 1) == want
        assert oracle._state(a, 2) is oracle._state(b, 2)

    @pytest.mark.parametrize(
        ("first", "second", "cyclic"),
        [([3, 3, 4], [3, 4, 4], True), ([3, 2, 2, 1], [2, 3, 2, 1], False)],
        ids=["cyclic", "linear"],
    )
    def test_second_algebra_on_a_quiver_eliminates_only_new_pairs(
        self, monkeypatch, first, second, cyclic
    ):
        # every pair of the first algebra, then of the second: the second
        # pass eliminates exactly the pairs that the first pass did not.
        # Over linear (2,3,2,1), M(1,2) is the cover P_1, which it is not
        # over (3,2,2,1), and M(2,3) is new
        system = oracle._hom_system
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return system(x, y)

        monkeypatch.setattr(oracle, "_hom_system", counted)
        clear_states()
        tables = []
        for lengths in (first, second):
            alg = KupischSeries.validate(lengths, cyclic)
            calls.clear()
            ind = indecomposables(alg)
            for x in ind:
                for y in ind:
                    assert oracle_hom_dim(alg, x, y) == hom_dim(alg, x, y)
                    assert oracle_ext1_dim(alg, x, y) == ext_dim(alg, x, y, 1)
            state = oracle._state(alg, 2)
            code = {id(rep): x for x, rep in state.reps.items()}
            eliminated = [(code[id(x)], code[id(y)]) for x, y in calls]
            tables.append(entries(state.homs))
        assert state is oracle._state(KupischSeries.validate(first, cyclic), 2)
        assert sorted(eliminated) == sorted(tables[1] - tables[0])
        assert len(tables[1]) > len(tables[0])

    def test_sums_match_whole_sum_realization(self):
        for alg in (CYCLIC, LINEAR):
            ind = indecomposables(alg)
            sums = [ModuleSum.zero(), ModuleSum.of(ind[0], ind[0])] + [
                ModuleSum.of(a, b) for a, b in zip(ind[::3], ind[1::2])
            ]
            for s in sums:
                for t in [*sums, *ind[::2]]:
                    for p in (2, 3):
                        assert oracle_hom_dim(alg, s, t, p) == reference_whole_sum_hom_dim(
                            alg, s, t, p
                        )
                        assert oracle_hom_dim(alg, t, s, p) == reference_whole_sum_hom_dim(
                            alg, t, s, p
                        )
                        assert oracle_ext1_dim(alg, s, t, p) == sum(
                            reference_whole_sum_ext1_dim(alg, x, t, p) for x in s
                        )
            for x in ind:
                for s in sums:
                    assert oracle_ext1_dim(alg, x, s) == reference_whole_sum_ext1_dim(
                        alg, x, s, 2
                    )


def test_stable_hom_matches_oracle_restriction_cross_check():
    """Labelled cross-check of reference_stable_hom_dim, the stable-Hom
    kernel of the Auslander-Reiten formula test: Hom(y, b) modulo the
    maps that factor through an injective is the nullity of y against b
    minus the rank of Hom(I(y), b) restricted to y, with y realized as
    the bottom part of I(y) by the oracle's presentation kernel.  On the
    4/6 pool up to total dimension 20.  Dropping the injective-factoring
    term must miss somewhere."""
    pairs = nonzero = misses = 0
    for alg in pool(4, 6):
        if alg.total_dim > 20:
            continue
        ind = indecomposables(alg)
        reps = {m: realize(alg, m) for m in ind}
        for y in ind:
            (iy,) = injective_envelope(alg, y)
            env = reps[iy]
            sub, keep = oracle._presentation_kernel(env, iy.length - y.length)
            assert (sub.dims, sub.maps) == (reps[y].dims, reps[y].maps), (alg, y)
            for b in ind:
                rows = [
                    [row[k] for blk, cols in zip(g, keep) for row in blk for k in cols]
                    for g in hom_basis(env, reps[b], 2)
                ]
                dim = nullity(sub, reps[b], 2) - (oracle._rank(rows, 2) if rows else 0)
                want = reference_stable_hom_dim(alg, y, b)
                assert dim == want, (alg, y, b)
                pairs += 1
                nonzero += want > 0
                misses += len(reference_basis_lengths(alg, y, b)) != want
    assert (pairs, nonzero, misses) == (10_294, 2_119, 3_461)


@settings(max_examples=30, deadline=None)
@given(admissible_series(max_vertices=5, max_length=4), st.sampled_from([2, 3]))
def test_oracle_matches_engine_on_random_series(alg, p):
    assert alg.total_dim <= 20
    ind = indecomposables(alg)
    for x in ind:
        assert oracle_tau(alg, x, p) == ar_translate(alg, x)
        assert oracle_is_injective(alg, x, p) == is_injective(alg, x)
        for y in ind:
            assert oracle_hom_dim(alg, x, y, p) == hom_dim(alg, x, y)
            assert oracle_ext1_dim(alg, x, y, p) == ext_dim(alg, x, y, 1)


@st.composite
def matrices_mod_p(draw):
    """(matrix, column count, p): up to 17 x 17, the largest intertwiner
    system of the oracle benchmark, with entries in -2p..2p, half zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(0, 17)), draw(st.integers(0, 17))
    entry = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    row = st.lists(entry, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows)), cols, p


@settings(max_examples=200, deadline=None)
@given(matrices_mod_p(), st.data())
def test_kernels_mod_p(case, data):
    mat, cols, p = case
    rank = oracle._rank(mat, p)
    basis = oracle._nullspace(mat, cols, p)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) % p == 0 for row in mat)
    assert oracle._rank(basis, p) == len(basis)
    assert rank + len(basis) == cols
    assert oracle._rank([[row[j] for row in mat] for j in range(cols)], p) == rank
    order = data.draw(st.permutations(range(len(mat))))
    assert oracle._rank([mat[i] for i in order], p) == rank
    if mat:
        i = data.draw(st.integers(0, len(mat) - 1))
        unit = data.draw(st.integers(1, p - 1))
        scaled = [[unit * e for e in row] if k == i else row for k, row in enumerate(mat)]
        assert oracle._rank(scaled, p) == rank


def test_package_import_leaves_numpy_out():
    src = str(Path(oracle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, nakayama, nakayama.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


# -- one rule for module arguments: sums answered summand by summand ---------


def sample_sums(alg):
    """The zero sum, every adjacent pair of indecomposables (each
    projective P(i) sits next to S(i+1)) and a repeated summand."""
    indecs = indecomposables(alg)
    pairs = [ModuleSum.of(a, b) for a, b in zip(indecs, indecs[1:])]
    return [ModuleSum.zero(), *pairs, ModuleSum.of(indecs[0], indecs[0])]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("alg", [CYCLIC, LINEAR], ids=["cyclic", "linear"])
class TestSumArguments:
    def test_hom_dim_is_additive_on_either_side(self, alg, p):
        sums = sample_sums(alg)
        for s in sums:
            for y in (*indecomposables(alg), *sums):
                for x, z in ((s, y), (y, s)):
                    want = oracle_hom_dim(alg, x, z, p)
                    assert hom_dim(alg, x, z) == ext_dim(alg, x, z, 0) == want, (x, z)

    def test_tau_is_additive(self, alg, p):
        for s in sample_sums(alg):
            assert oracle_tau(alg, s, p) == ar_translate(alg, s), s
        with_projective = ModuleSum.of(projective(alg, 1), M(2, 1))
        assert oracle_tau(alg, with_projective, p) == ar_translate(alg, M(2, 1))
        assert oracle_tau(alg, ModuleSum.zero(), p).is_zero


# -- the interval path: one check per argument, the same answers -------------


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_interval_answers_match_the_one_summand_sum(p):
    # each oracle query answers an interval directly and a sum summand by
    # summand; on every pair of the 5/7 pool, an interval in either
    # argument gives the answer for the sum that holds it alone
    for alg in pool(5, 7):
        ind = indecomposables(alg)
        sums = {x: ModuleSum.of(x) for x in ind}
        for x in ind:
            assert oracle_is_injective(alg, x, p) == oracle_is_injective(alg, sums[x], p)
            assert oracle_tau(alg, x, p) == oracle_tau(alg, sums[x], p), (alg, x)
            for y in ind:
                for query in (oracle_hom_dim, oracle_ext1_dim):
                    want = query(alg, x, y, p)
                    assert query(alg, sums[x], y, p) == want, (query, alg, x, y)
                    assert query(alg, x, sums[y], p) == want, (query, alg, x, y)


def test_engine_interval_answers_match_the_one_summand_sum():
    # hom_dim and ext_dim at k = 1 and 2 read an interval's checked
    # (start, length) once and a sum's summand by summand
    for alg in pool(5, 7):
        ind = indecomposables(alg)
        sums = {x: ModuleSum.of(x) for x in ind}
        for x in ind:
            for y in ind:
                want = hom_dim(alg, x, y)
                assert hom_dim(alg, sums[x], y) == want == hom_dim(alg, x, sums[y])
                for k in (1, 2):
                    want = ext_dim(alg, x, y, k)
                    assert ext_dim(alg, sums[x], y, k) == want, (alg, x, y, k)
                    assert ext_dim(alg, x, sums[y], k) == want, (alg, x, y, k)


# INTERVAL_QUERIES[name](m) puts m in one argument of one query over CYCLIC,
# with M(1, 1) in the other and the caps given in kw
INTERVAL_QUERIES = {
    "oracle_hom_dim x": lambda m, **kw: oracle_hom_dim(CYCLIC, m, M(1, 1), **kw),
    "oracle_hom_dim y": lambda m, **kw: oracle_hom_dim(CYCLIC, M(1, 1), m, **kw),
    "oracle_ext1_dim x": lambda m, **kw: oracle_ext1_dim(CYCLIC, m, M(1, 1), **kw),
    "oracle_ext1_dim y": lambda m, **kw: oracle_ext1_dim(CYCLIC, M(1, 1), m, **kw),
    "oracle_is_injective": lambda m, **kw: oracle_is_injective(CYCLIC, m, **kw),
    "oracle_tau": lambda m, **kw: oracle_tau(CYCLIC, m, **kw),
    "realize": lambda m, **kw: realize(CYCLIC, m, **kw),
    "oracle_socle_vector": lambda m, **kw: oracle_socle_vector(CYCLIC, m, **kw),
    "hom_dim x": lambda m: hom_dim(CYCLIC, m, M(1, 1)),
    "hom_dim y": lambda m: hom_dim(CYCLIC, M(1, 1), m),
    "ext_dim k=1 x": lambda m: ext_dim(CYCLIC, m, M(1, 1), 1),
    "ext_dim k=1 y": lambda m: ext_dim(CYCLIC, M(1, 1), m, 1),
    "ext_dim k=2 x": lambda m: ext_dim(CYCLIC, m, M(1, 1), 2),
    "ext_dim k=2 y": lambda m: ext_dim(CYCLIC, M(1, 1), m, 2),
    "is_injective": lambda m: is_injective(CYCLIC, m),
    "ar_translate": lambda m: ar_translate(CYCLIC, m),
    "pd": lambda m: pd(CYCLIC, m),
}

# intervals that are not modules over CYCLIC = (3, 3, 4), with the one
# message of `modules._interval`, the check the engine and the oracle share
NOT_CYCLIC_MODULES = {
    M(True, 1): "vertex True outside 1..3",
    M(1, 2.0): "length must be an int in 1..3",
    M(0, 1): "vertex 0 outside 1..3",
    M(4, 1): "vertex 4 outside 1..3",  # v + 1
    M(1, 4): "length must be an int in 1..3",  # c_1 + 1
}


def refusal(call):
    """The type and message of the error that call raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("query", sorted(INTERVAL_QUERIES))
@pytest.mark.parametrize("bad", NOT_CYCLIC_MODULES, ids=repr)
def test_refused_interval_and_one_summand_sum_raise_alike(query, bad):
    call = INTERVAL_QUERIES[query]
    want = f"{bad} is not well-formed: {NOT_CYCLIC_MODULES[bad]}"
    assert refusal(lambda: call(bad)) == (NotAdmissible, want)
    assert refusal(lambda: call(ModuleSum.of(bad))) == (NotAdmissible, want)


# (query, m, cap) where m breaches the cap: as x, as y, and through x's
# cover P_3 = M(3, 4) in Ext^1; injectivity realizes the covers of the
# simples, and tau checks the algebra's dimension
CAP_BREACHES = [
    ("oracle_hom_dim x", M(3, 4), "module dimension 4 exceeds cap 3"),
    ("oracle_hom_dim y", M(3, 4), "module dimension 4 exceeds cap 3"),
    ("oracle_ext1_dim x", M(3, 1), "module dimension 4 exceeds cap 3"),
    ("oracle_ext1_dim y", M(3, 4), "module dimension 4 exceeds cap 3"),
    ("oracle_is_injective", M(1, 1), "module dimension 4 exceeds cap 3"),
    ("oracle_tau", M(1, 1), "algebra dimension 10 exceeds cap 3"),
]


@pytest.mark.parametrize(("query", "m", "message"), CAP_BREACHES, ids=lambda a: str(a))
def test_cap_breach_by_interval_and_one_summand_sum_raise_alike(query, m, message):
    call = INTERVAL_QUERIES[query]
    want = (DimensionCapExceeded, message)
    assert refusal(lambda: call(m, dim_cap=3)) == want
    assert refusal(lambda: call(ModuleSum.of(m), dim_cap=3)) == want


def test_refusals_keep_their_order():
    # the oracle checks x, then x's cap, then y; the engine's hom_dim x
    # then y, and ext_dim y first; a sum holding a stray summand is a
    # TypeError naming its type on both sides
    both = (M(0, 1), M(1, 4))
    assert refusal(lambda: oracle_hom_dim(CYCLIC, *both)) == refusal(
        lambda: oracle_hom_dim(CYCLIC, M(0, 1), M(1, 1))
    )
    assert refusal(lambda: oracle_hom_dim(CYCLIC, M(3, 4), M(0, 1), dim_cap=3)) == (
        DimensionCapExceeded, "module dimension 4 exceeds cap 3"
    )
    assert refusal(lambda: hom_dim(CYCLIC, *both)) == refusal(
        lambda: hom_dim(CYCLIC, M(0, 1), M(1, 1))
    )
    assert refusal(lambda: ext_dim(CYCLIC, *both, 1)) == refusal(
        lambda: ext_dim(CYCLIC, M(1, 1), M(1, 4), 1)
    )
    stray = ModuleSum.of("x")
    want = (TypeError, "expected IntervalModule, got str")
    assert refusal(lambda: oracle_hom_dim(CYCLIC, stray, M(1, 1))) == want
    assert refusal(lambda: hom_dim(CYCLIC, stray, M(1, 1))) == want


@pytest.mark.parametrize("alg", [CYCLIC, LINEAR], ids=["cyclic", "linear"])
def test_a_warm_pass_eliminates_nothing(monkeypatch, alg):
    # once every pair is in the state, a second all-pairs pass of the four
    # queries realizes, builds and reduces nothing; tau ranks no matrix
    counts = dict.fromkeys(("_realize", "_hom_system", "_rref", "_nullspace"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(oracle, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(oracle, name, counted)
    ind = indecomposables(alg)

    def all_pairs():
        counts.update(dict.fromkeys(counts, 0))
        for x in ind:
            oracle_is_injective(alg, x)
            oracle_tau(alg, x)
            for y in ind:
                oracle_hom_dim(alg, x, y)
                oracle_ext1_dim(alg, x, y)
        return dict(counts)

    clear_states()
    cold, warm = all_pairs(), all_pairs()
    assert min(cold.values()) > 0
    assert warm == dict.fromkeys(counts, 0)
