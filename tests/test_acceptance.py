"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Each test prints `ACCEPTANCE <name> PASS` only after every assertion in it
has held, so a silent pass is impossible: a failing criterion fails the test
and the line never appears.
"""

from __future__ import annotations

import random
import time

import pytest
import references

from nakayama import (
    INFINITY,
    IntervalModule,
    KupischSeries,
    ar_translate,
    ext_dim,
    gldim,
    gorenstein_degree,
    gpd,
    hom_dim,
    indecomposables,
    is_injective,
    is_minimal_ag,
    is_n_auslander,
    is_precluster,
    is_self_injective,
    minimal_ag_parameter,
    oracle_ext1_dim,
    oracle_hom_dim,
    oracle_is_injective,
    oracle_tau,
    pd,
    projective,
    socle,
    verify_ses_gpd_bounds,
    verify_thm31_count,
    verify_thm_gp_socle_sub,
    verify_thm_prinj,
)
from nakayama.cli import main

SWEEP_VERTICES = 6
SWEEP_LENGTH = 8


@pytest.fixture(scope="session")
def pool():
    return references.pool(SWEEP_VERTICES, SWEEP_LENGTH)


@pytest.fixture(scope="session")
def gorenstein_pool(pool):
    return [alg for alg in pool if gorenstein_degree(alg).is_finite]


def verdict(name):
    print(f"ACCEPTANCE {name} PASS")


def test_criterion_01_cyclic_golden():
    started = time.perf_counter()
    alg = KupischSeries.validate([3, 3, 4], True)
    assert is_minimal_ag(alg, 1)
    assert minimal_ag_parameter(alg) == 1
    assert gldim(alg) == INFINITY
    m = IntervalModule(1, 2)
    assert pd(alg, m) == 2
    assert pd(alg, socle(alg, m)) == INFINITY
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    verdict("criterion-01-cyclic-golden")


def test_criterion_02_linear_golden():
    started = time.perf_counter()
    alg = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)
    assert is_n_auslander(alg, 2)
    assert is_minimal_ag(alg, 2)
    m = IntervalModule(3, 2)
    assert pd(alg, m) == 2
    assert pd(alg, socle(alg, m)) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    verdict("criterion-02-linear-golden")


def test_criterion_03_prinj_biconditional(pool):
    checked = 0
    for alg in pool:
        g = gorenstein_degree(alg)
        if not g.is_finite:
            continue
        if g.value >= 1:
            n = g.value - 1
            assert verify_thm_prinj(alg, n).passed == is_minimal_ag(alg, n), alg
            checked += 1
        else:
            for n in (0, 1, 2):
                res = verify_thm_prinj(alg, n)
                assert res.passed and is_minimal_ag(alg, n), alg
                checked += 1
    assert checked >= 400
    verdict("criterion-03-prinj-biconditional")


def test_criterion_04_gp_socle_sub_biconditional(gorenstein_pool):
    checked = 0
    for alg in gorenstein_pool:
        g = gorenstein_degree(alg).value
        for n in range(max(g, 1)):
            res = verify_thm_gp_socle_sub(alg, n)
            assert res.passed == is_minimal_ag(alg, n), (alg, n)
            checked += 1
        k = minimal_ag_parameter(alg)
        if k is not None and g >= 1:
            assert k == g - 1
            assert verify_thm_gp_socle_sub(alg, k).passed
    assert checked >= 400
    verdict("criterion-04-gp-socle-sub-biconditional")


def test_criterion_05_ses_bounds(gorenstein_pool):
    for alg in gorenstein_pool:
        res = verify_ses_gpd_bounds(alg)
        assert res.passed, (alg, res.witnesses[:3])
    verdict("criterion-05-ses-bounds")


def test_criterion_06_gpd_caps(gorenstein_pool):
    checked = 0
    for alg in gorenstein_pool:
        g = gorenstein_degree(alg).value
        for m in indecomposables(alg):
            d = gpd(alg, m)
            assert d <= g, (alg, m)
            p = pd(alg, m)
            if p.is_finite:
                assert d == p.value, (alg, m)
            checked += 1
    assert checked >= 2000
    verdict("criterion-06-gpd-caps")


def test_criterion_07_oracle_equivalence(pool):
    rng = random.Random(20260819)
    small = [alg for alg in pool if sum(alg.lengths) <= 20]
    sample = rng.sample(small, min(55, len(small)))
    assert len(sample) >= 50
    pairs = 0
    for alg in sample:
        ind = indecomposables(alg)
        for x in ind:
            assert oracle_is_injective(alg, x) == is_injective(alg, x), (alg, x)
            assert oracle_tau(alg, x) == ar_translate(alg, x), (alg, x)
            for y in ind:
                assert oracle_hom_dim(alg, x, y) == hom_dim(alg, x, y), (alg, x, y)
                assert oracle_ext1_dim(alg, x, y) == ext_dim(alg, x, y, 1), (
                    alg,
                    x,
                    y,
                )
                pairs += 1
    assert pairs >= 1000
    verdict("criterion-07-oracle-equivalence")


def test_criterion_08_count_identity(gorenstein_pool):
    for alg in gorenstein_pool:
        k = minimal_ag_parameter(alg)
        if k is None or all(c == 1 for c in alg.lengths):
            continue
        res = verify_thm31_count(alg, k)
        assert res.passed, (alg, res.witnesses)
        assert res.checked > 0
        assert "low-Gpd simples" in res.note
    golden_c = verify_thm31_count(KupischSeries.validate([3, 3, 4], True), 1)
    assert golden_c.note == "low-Gpd simples: 2; projective-injectives: 2"
    golden_l = verify_thm31_count(
        KupischSeries.validate([3, 3, 3, 3, 2, 1], False), 2
    )
    assert golden_l.note == "low-Gpd simples: 4; projective-injectives: 4"
    verdict("criterion-08-count-identity")


def test_criterion_09_precluster_families(pool):
    for alg in pool:
        res = is_precluster(alg, indecomposables(alg), 1)
        assert res.ok, (alg, res.failures[:3])
    for alg in pool:
        if not is_self_injective(alg):
            continue
        projs = tuple(projective(alg, i) for i in alg.vertices())
        for n in (1, 2, 3, 4):
            res = is_precluster(alg, projs, n)
            assert res.ok, (alg, n, res.failures[:3])
    verdict("criterion-09-precluster-families")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    bounds = ["--max-vertices", "4", "--max-length", "6"]
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    staged = tmp_path / "staged.jsonl"

    assert main(["sweep", *bounds, "--out", str(serial)]) == 0
    assert main(["sweep", *bounds, "--out", str(parallel), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()

    # resumed two-stage run covers the same set, in a different order
    assert (
        main(
            [
                "sweep",
                "--max-vertices",
                "3",
                "--max-length",
                "6",
                "--out",
                str(staged),
            ]
        )
        == 0
    )
    assert main(["sweep", *bounds, "--out", str(staged), "--jobs", "2"]) == 0
    capsys.readouterr()
    canon = lambda p: sorted(p.read_text().splitlines())
    assert canon(staged) == canon(serial)
    verdict("criterion-10-sweep-determinism")
