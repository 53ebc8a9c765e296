"""Module expression parsing and the command line surface."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from concurrent.futures import Executor, Future
from pathlib import Path

import pytest
from references import CYCLIC, LINEAR, M, pool

import nakayama
from nakayama import (
    ModuleSum,
    ParseError,
    enumerate_admissible,
    gorenstein_degree,
    indecomposables,
    injective,
    iter_admissible,
    projective,
)
from nakayama.cli import main
from nakayama.notation import format_module, parse_module


class TestNotation:
    def test_round_trip_all_indecomposables(self):
        for alg in (CYCLIC, LINEAR):
            for m in indecomposables(alg):
                s = format_module(ModuleSum.of(m))
                assert parse_module(alg, s) == ModuleSum.of(m)

    def test_round_trip_sums(self):
        s = ModuleSum.of(M(1, 2), M(3, 1), M(3, 1))
        assert parse_module(CYCLIC, format_module(s)) == s

    def test_zero(self):
        assert format_module(ModuleSum.zero()) == "0"
        assert parse_module(CYCLIC, "0").is_zero

    def test_simple_shorthand(self):
        assert format_module(ModuleSum.of(M(2, 1))) == "S(2)"
        assert parse_module(CYCLIC, "S(2)") == ModuleSum.of(M(2, 1))

    def test_projective_injective_shorthand(self):
        assert parse_module(CYCLIC, "P(1)") == ModuleSum.of(projective(CYCLIC, 1))
        assert parse_module(CYCLIC, "I(2)") == ModuleSum.of(injective(CYCLIC, 2))
        assert parse_module(CYCLIC, "P(1)+I(2)") == ModuleSum.of(
            M(1, 3), M(3, 3)
        )

    def test_whitespace_tolerated(self):
        assert parse_module(CYCLIC, " M( 1 , 2 ) + S(3) ") == ModuleSum.of(
            M(1, 2), M(3, 1)
        )

    @pytest.mark.parametrize(
        "expr",
        [
            "M(1)", "S(1,2)", "Q(1)", "", "M(1,9)", "M(1,0)", "S(5)", "S(1)+0",
            "P(0)", "I(4)", "P(9)",
        ],
    )
    def test_rejects_malformed(self, expr):
        with pytest.raises(ParseError):
            parse_module(CYCLIC, expr)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def reverse_keys(d: dict) -> None:
    """Put the keys of d in reverse order, in place."""
    for key in reversed(list(d)):
        d[key] = d.pop(key)


class TestAnalyzeCommand:
    def test_golden(self, capsys):
        code, payload = run_cli(
            capsys, "analyze", "--kupisch", "3,3,4", "--cyclic"
        )
        assert code == 0
        assert payload["minimal_ag_n"] == 1
        assert payload["prinj"] == [2, 3]

    def test_key_order_is_stable(self, capsys):
        main(["analyze", "--kupisch", "3,3,4", "--cyclic"])
        out = capsys.readouterr().out
        ordered = json.loads(out, object_pairs_hook=lambda kv: [k for k, _ in kv])
        assert ordered[:5] == [
            "kupisch",
            "cyclic",
            "regular_id",
            "regular_id_left",
            "domdim",
        ]

    def test_inadmissible_series(self, capsys):
        code, payload = run_cli(capsys, "analyze", "--kupisch", "5,2,1")
        assert code == 2
        assert payload["error"] == "NotAdmissible"

    def test_inadmissible_cyclic(self, capsys):
        code, payload = run_cli(
            capsys, "analyze", "--kupisch", "3,1,4", "--cyclic"
        )
        assert code == 2

    def test_garbage_lengths(self, capsys):
        code, payload = run_cli(capsys, "analyze", "--kupisch", "3,x,4")
        assert code == 2
        assert payload["error"] == "ParseError"

    def test_spaced_lengths_parse(self, capsys):
        code, payload = run_cli(capsys, "analyze", "--kupisch", "3, 3, 4", "--cyclic")
        assert code == 0
        assert payload["kupisch"] == [3, 3, 4]


# A number the command line reads itself is ASCII digits alone (an integer
# option may lead with a minus), and no --kupisch entry is empty; int() would
# also take a plus, an underscore, surrounding space or another script's digits.
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--kupisch", "3,,3,4", "--cyclic"],
        ["analyze", "--kupisch", ",3,3,4,", "--cyclic"],
        ["analyze", "--kupisch", "3_3,4"],
        ["analyze", "--kupisch", "+3,3,4", "--cyclic"],
        ["analyze", "--kupisch", "\u0663,3,4", "--cyclic"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "precluster:2_0"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "precluster:+1"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "precluster: 1"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "precluster:\u0661"],
        ["module", "--kupisch", "2,1", "--expr", "M(\u0662,1)", "--query", "pd"],
        ["module", "--kupisch", "2,1", "--expr", "S(1)", "--query", "ext:\u00b2:S(1)"],
        ["sweep", "--max-vertices", "2", "--max-length", "2", "--n-range", "\u0661:\u0662"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "prinj", "--n", "\u0661"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "prinj", "--n", "1_0"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "prinj", "--n", "+1"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "prinj", "--n", "-"],
        ["verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", "prinj", "--n", " 1"],
        ["verify", "--kupisch", "2,1", "--theorem", "prinj", "--n", "1", "--seed", "\u0660"],
        ["verify", "--kupisch", "2,1", "--theorem", "precluster:1", "--max-extra", "2_0"],
        ["analyze", "--kupisch", "3,3,4", "--cyclic", "--seed", "-\u0661"],
        ["module", "--kupisch", "2,1", "--expr", "S(1)", "--query", "top", "--field-p", "\u0663"],
        ["sweep", "--max-vertices", "\u0662", "--max-length", "2"],
        ["sweep", "--max-vertices", "2", "--max-length", "2_0"],
        ["sweep", "--max-vertices", "2", "--max-length", "2", "--jobs", "\u0662"],
        ["sweep", "--max-vertices", "2", "--max-length", "2", "--seed", "1_802"],
    ],
    ids=[
        "kupisch-empty-token", "kupisch-edge-commas", "kupisch-underscore", "kupisch-sign",
        "kupisch-arabic-indic", "precluster-underscore", "precluster-sign", "precluster-space",
        "precluster-arabic-indic", "expr-arabic-indic", "ext-superscript", "n-range-arabic-indic",
        "n-arabic-indic", "n-underscore", "n-plus", "n-bare-minus", "n-space",
        "verify-seed-arabic-indic", "max-extra-underscore", "analyze-seed-minus-arabic-indic",
        "field-p-arabic-indic", "max-vertices-arabic-indic", "max-length-underscore",
        "jobs-arabic-indic", "sweep-seed-underscore",
    ],
)
def test_hand_read_numbers_are_ascii_digits(capsys, tmp_path, argv):
    out = tmp_path / "sweep.jsonl"
    extra = ["--out", str(out)] if argv[0] == "sweep" else []
    code, payload = run_cli(capsys, *argv, *extra)
    assert (code, payload["error"]) == (2, "ParseError")
    assert not out.exists()


class TestModuleCommand:
    def run(self, capsys, expr, query, *extra):
        return run_cli(
            capsys,
            "module",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--expr",
            expr,
            "--query",
            query,
            *extra,
        )

    def test_pd(self, capsys):
        code, payload = self.run(capsys, "M(1,2)", "pd")
        assert code == 0
        assert payload["result"] == 2

    def test_pd_infinite(self, capsys):
        code, payload = self.run(capsys, "S(1)", "pd")
        assert payload["result"] == "infinity"

    def test_socle_and_top(self, capsys):
        _, payload = self.run(capsys, "M(3,4)", "socle")
        assert payload["result"] == "S(3)"
        _, payload = self.run(capsys, "M(3,4)", "top")
        assert payload["result"] == "S(3)"

    def test_envelope_cover(self, capsys):
        _, payload = self.run(capsys, "M(1,2)", "envelope")
        assert payload["result"] == "M(3,3)"
        _, payload = self.run(capsys, "M(1,2)", "cover")
        assert payload["result"] == "M(1,3)"

    def test_gpd(self, capsys):
        _, payload = self.run(capsys, "S(2)", "gpd")
        assert payload["result"] == 2

    def test_in_sub_lambda(self, capsys):
        _, payload = self.run(capsys, "M(1,2)", "in-sub-lambda")
        assert payload["result"] is False

    def test_ext_query(self, capsys):
        _, payload = self.run(capsys, "M(3,2)", "ext:1:M(1,3)")
        assert payload["result"] == 1

    def test_oracle_queries(self, capsys):
        _, payload = self.run(capsys, "M(2,2)", "oracle-hom:M(3,4)")
        assert payload["result"] == 1
        _, payload = self.run(capsys, "M(3,2)", "oracle-ext1:M(1,3)")
        assert payload["result"] == 1
        _, payload = self.run(capsys, "M(3,3)", "oracle-injective")
        assert payload["result"] is True
        _, payload = self.run(capsys, "S(1)", "oracle-tau", "--field-p", "3")
        assert payload["result"] == "S(2)"

    def test_oversized_field_is_a_json_error(self, capsys):
        big = str(10**400 + 1)
        code, payload = self.run(capsys, "S(1)", "oracle-tau", "--field-p", big)
        assert code == 2
        assert payload["error"] == "ValueError"

    def test_unknown_query(self, capsys):
        code, payload = self.run(capsys, "S(1)", "nonsense")
        assert code == 2
        assert payload["error"] == "ParseError"

    def test_bad_expression(self, capsys):
        code, payload = self.run(capsys, "M(9,9)", "pd")
        assert code == 2

    @pytest.mark.parametrize(
        "query, result",
        [
            ("pd", 2),
            ("id", 2),
            ("gpd", 2),
            ("socle", "S(2)+S(3)"),
            ("top", "S(1)+S(3)"),
            ("envelope", "M(3,3)+M(3,4)"),
            ("cover", "M(1,3)+M(3,4)"),
            ("in-sub-lambda", False),
            ("ext:1:M(1,3)", 1),
            ("oracle-hom:M(3,4)", 1),
            ("oracle-ext1:M(1,3)", 1),
            ("oracle-injective", False),
            ("oracle-tau", "S(1)+M(2,2)"),
            ("pd:", ParseError),
            ("ext:x:M(1,3)", ParseError),
            ("ext:1:", ParseError),
            ("oracle-hom:", ParseError),
            ("oracle-injective:x", ParseError),
        ],
    )
    def test_every_query_form_on_a_sum(self, capsys, query, result):
        code, payload = self.run(capsys, "M(1,2)+S(3)", query)
        if result is ParseError:
            assert code == 2
            assert payload["error"] == "ParseError"
        else:
            assert code == 0
            assert payload == {
                "kupisch": [3, 3, 4],
                "cyclic": True,
                "module": "M(1,2)+S(3)",
                "query": query,
                "result": result,
            }


class TestVerifyCommand:
    def test_prinj_pass(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--theorem",
            "prinj",
            "--n",
            "1",
        )
        assert code == 0
        assert payload["status"] == "pass"
        assert payload["checked"] == 3

    def test_prinj_wrong_level(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--theorem",
            "prinj",
            "--n",
            "0",
        )
        assert code == 2
        assert payload["error"] == "PreconditionFailed"

    def test_fail_direction_exits_one(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "2,3,2,1",
            "--theorem",
            "gp-socle-sub",
            "--n",
            "1",
        )
        assert code == 1
        assert payload["status"] == "fail"
        assert payload["witnesses"]

    def test_missing_n(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--theorem",
            "prinj",
        )
        assert code == 2

    def test_lemma22_needs_no_n(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--theorem",
            "lemma22",
        )
        assert code == 0
        assert payload["status"] == "pass"

    def test_thm31_on_non_minimal(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "2,3,2,1",
            "--theorem",
            "thm31-count",
            "--n",
            "1",
        )
        assert code == 2
        assert payload["error"] == "PreconditionFailed"

    def test_precluster_search(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--theorem",
            "precluster:1",
        )
        assert code == 0
        assert len(payload["candidates"]) == 4

    def test_precluster_search_empty(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--theorem",
            "precluster:2",
        )
        assert code == 1
        assert payload["candidates"] == []

    @pytest.mark.parametrize("token", ["precluster:abc", "precluster:"])
    def test_precluster_non_integer_level_rejected(self, capsys, token):
        code, payload = run_cli(
            capsys, "verify", "--kupisch", "3,3,4", "--cyclic", "--theorem", token
        )
        assert code == 2
        assert payload["error"] == "ParseError"
        assert repr(token) in payload["detail"]

    def test_precluster_negative_max_extra_rejected(self, capsys):
        code, payload = run_cli(
            capsys,
            "verify",
            "--kupisch",
            "3,3,4",
            "--cyclic",
            "--theorem",
            "precluster:1",
            "--max-extra",
            "-1",
        )
        assert code == 2
        assert payload["error"] == "ValueError"


    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["--theorem", "precluster"], "precluster needs --n"),
            (["--theorem", "nonsense", "--n", "1"], "unknown theorem 'nonsense'"),
            (["--theorem", "nonsense"], "unknown theorem 'nonsense'"),
        ],
        ids=[
            "precluster-without-level",
            "unknown-theorem",
            "unknown-theorem-without-level",
        ],
    )
    def test_unusable_theorem_request(self, capsys, argv, detail):
        code, payload = run_cli(
            capsys, "verify", "--kupisch", "3,3,4", "--cyclic", *argv
        )
        assert code == 2
        assert payload["error"] == "ParseError"
        assert detail in payload["detail"]


class TestSweepCommand:
    def test_small_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code, summary = run_cli(
            capsys,
            "sweep",
            "--max-vertices",
            "3",
            "--max-length",
            "4",
            "--out",
            str(out),
        )
        assert code == 0
        assert summary["violations"] == 0
        assert summary["algebras"] == summary["computed"]
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == summary["algebras"]
        keys = {(tuple(r["kupisch"]), r["cyclic"]) for r in records}
        assert ((3, 3, 4), True) in keys

    def test_sweep_contains_linear_golden(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code, summary = run_cli(
            capsys,
            "sweep",
            "--max-vertices",
            "6",
            "--max-length",
            "3",
            "--shapes",
            "linear",
            "--out",
            str(out),
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        target = [
            r for r in records if r["kupisch"] == [3, 3, 3, 3, 2, 1]
        ]
        assert target and target[0]["n_auslander_n"] == 2

    def test_resume_skips_done_work(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        args = [
            "sweep",
            "--max-vertices",
            "2",
            "--max-length",
            "3",
            "--out",
            str(out),
        ]
        code, first = run_cli(capsys, *args)
        assert code == 0 and first["resumed"] == 0
        code, second = run_cli(capsys, *args)
        assert code == 0
        assert second["computed"] == 0
        assert second["resumed"] == first["computed"]

    def test_trivial_bound_yields_point(self, capsys, tmp_path):
        out = tmp_path / "one.jsonl"
        code, summary = run_cli(
            capsys,
            "sweep",
            "--max-vertices",
            "2",
            "--max-length",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["kupisch"], r["cyclic"]) for r in records] == [([1], False)]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_empty_family_writes_no_file(self, capsys, tmp_path, jobs):
        # no cyclic series has every length below 2
        out = tmp_path / "none.jsonl"
        argv = ["sweep", "--max-vertices", "3", "--max-length", "1", "--shapes", "cyclic"]
        code, summary = run_cli(capsys, *argv, "--jobs", jobs, "--out", str(out))
        assert code == 0
        assert (summary["algebras"], summary["computed"]) == (0, 0)
        assert not out.exists()

    def test_n_range_check(self, capsys, tmp_path):
        out = tmp_path / "rng.jsonl"
        code, summary = run_cli(
            capsys,
            "sweep",
            "--max-vertices",
            "3",
            "--max-length",
            "3",
            "--out",
            str(out),
            "--n-range",
            "auto",
        )
        assert code == 0
        assert summary["range_violations"] == 0
        assert summary["range_checked"] > 0

    def test_bad_n_range_fails_before_any_work(self, capsys, tmp_path):
        out = tmp_path / "rng.jsonl"
        code, payload = run_cli(
            capsys,
            "sweep",
            "--max-vertices",
            "3",
            "--max-length",
            "3",
            "--out",
            str(out),
            "--n-range",
            "bogus",
        )
        assert code == 2
        assert payload["error"] == "ParseError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            ["--jobs", "0"],
            ["--jobs", "-2"],
            ["--n-range", "3:1"],
            ["--max-vertices", "0"],
            ["--max-length", "0"],
        ],
        ids=["jobs-0", "jobs-negative", "n-range-reversed", "vertices-0", "length-0"],
    )
    def test_bad_bound_fails_before_any_work(self, capsys, tmp_path, bad):
        out = tmp_path / "bad.jsonl"
        # a repeated option overrides the earlier value
        argv = ["sweep", "--max-vertices", "3", "--max-length", "3", *bad]
        code, payload = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert payload["error"] == "ParseError"
        assert bad[0] in payload["detail"]
        assert not out.exists()

    def test_sweep_bytes_pinned(self, capsys, tmp_path):
        # the 6/8 seed-0 sweep: 664 records
        out = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--max-vertices", "6", "--max-length", "8"]
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "38f76aa4b4ccdda3d975467561ca2c1bb14e3e2c64b791a6a46e5e66ee7c8788"
        )

    def test_sweep_bytes_pinned_seed_1802(self, capsys, tmp_path):
        # the seeded sums are the only bytes that move with the seed
        out = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--max-vertices", "6", "--max-length", "8", "--seed", "1802"]
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "70c0cf1d638739c20ba92821c397c36461ce6b1e4e26c78348962a872fa9b19b"
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda rec: rec.pop("theorem_verdicts"),
            lambda rec: rec.update(kupisch=[0]),
            lambda rec: rec["theorem_verdicts"].pop("prinj"),
            lambda rec: rec["theorem_verdicts"].update(prinj="pass"),
            lambda rec: rec["theorem_verdicts"]["prinj"].update(status="banana"),
            lambda rec: rec["theorem_verdicts"]["lemma22"].update(status=["fail"]),
            lambda rec: rec.update(self_injective="no"),
            lambda rec: rec.update(self_injective=1),
            lambda rec: rec.update(gorenstein_degree=2.0),
            lambda rec: rec.update(gorenstein_degree="infinite"),
            lambda rec: rec.update(minimal_ag_n=True),
            lambda rec: rec.update(n_auslander_n=-1),
            lambda rec: rec.update(extra=1),
            lambda rec: rec["theorem_verdicts"].update(bogus=rec["theorem_verdicts"]["prinj"]),
            reverse_keys,
            lambda rec: reverse_keys(rec["theorem_verdicts"]),
            lambda rec: rec["theorem_verdicts"].update(prinj={"status": "pass", "junk": 1}),
            lambda rec: rec["theorem_verdicts"]["prinj"].update(junk=1),
            lambda rec: rec["theorem_verdicts"]["lemma22"].pop("note"),
            lambda rec: reverse_keys(rec["theorem_verdicts"]["thm31-count"]),
        ],
        ids=[
            "missing-key", "inadmissible-series", "missing-verdict", "bare-verdict",
            "unknown-status", "list-status", "string-flag", "int-flag", "float-degree",
            "misspelt-infinity", "bool-level", "negative-level", "extra-key", "extra-verdict",
            "reversed-keys", "reversed-verdicts", "status-and-junk-verdict",
            "extra-verdict-key", "missing-verdict-key", "reversed-verdict-keys",
        ],
    )
    def test_malformed_resume_record_rejected(self, capsys, tmp_path, damage):
        out = tmp_path / "sweep.jsonl"
        args = ["sweep", "--max-vertices", "2", "--max-length", "2", "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        damage(records[0])
        before = "".join(json.dumps(r) + "\n" for r in records)
        out.write_text(before)
        code, payload = run_cli(capsys, *args)
        assert code == 2
        assert payload["error"] == "IoError"
        assert out.read_text() == before

    def test_resume_refuses_values_it_cannot_count(self, capsys, tmp_path):
        # every record rewritten with a string flag and an unknown status
        # once resumed with exit 0 and counted 4 self-injective algebras
        out = tmp_path / "sweep.jsonl"
        args = ["sweep", "--max-vertices", "2", "--max-length", "2", "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for rec in records:
            rec["self_injective"] = "no"
            rec["theorem_verdicts"]["prinj"]["status"] = "banana"
        before = "".join(json.dumps(r) + "\n" for r in records)
        out.write_text(before)
        code, payload = run_cli(capsys, *args)
        assert (code, payload["error"]) == (2, "IoError")
        assert "prinj verdict" in payload["detail"]
        assert out.read_text() == before

    SWEEP_3_4 = ["sweep", "--max-vertices", "3", "--max-length", "4"]

    def test_killed_sweep_keeps_finished_records(self, capsys, tmp_path, monkeypatch):
        import nakayama.cli as cli

        whole = tmp_path / "whole.jsonl"
        assert run_cli(capsys, *self.SWEEP_3_4, "--out", str(whole))[0] == 0
        expected = whole.read_bytes()
        original, calls = cli._sweep_record, []

        def dies_after_three(payload):
            if len(calls) == 3:
                raise RuntimeError("killed")
            calls.append(payload)
            return original(payload)

        out = tmp_path / "cut.jsonl"
        monkeypatch.setattr(cli, "_sweep_record", dies_after_three)
        with pytest.raises(RuntimeError):
            main([*self.SWEEP_3_4, "--out", str(out)])
        assert out.read_bytes() == b"".join(expected.splitlines(True)[:3])
        monkeypatch.undo()
        code, summary = run_cli(capsys, *self.SWEEP_3_4, "--out", str(out))
        assert code == 0
        assert summary["resumed"] == 3
        assert out.read_bytes() == expected

    def test_enumerated_algebras_keep_no_tables(self, capsys, tmp_path, monkeypatch):
        # every record classifies a fresh algebra built from its payload, so
        # no algebra of the record stream keeps _memo; the range check fills
        # the tables of the algebras it streams, and keeps none of them
        import nakayama.cli as cli

        held = []

        def recorded(*args):
            held.append([])
            for alg in iter_admissible(*args):
                held[-1].append(weakref.ref(alg) if len(held) == 2 else alg)
                yield alg

        monkeypatch.setattr(cli, "iter_admissible", recorded)
        out = tmp_path / "sweep.jsonl"
        args = ["sweep", "--max-vertices", "5", "--max-length", "6", "--n-range", "auto"]
        code, summary = run_cli(capsys, *args, "--out", str(out))
        assert code == 0
        # one stream for the records, one for the range check
        assert summary["computed"] == 166
        assert [len(algs) for algs in held] == [166, 166]
        records, ranged = held
        assert [a for a in records if "_memo" in a.__dict__] == []
        gc.collect()
        assert [ref for ref in ranged if ref() is not None] == []

    def test_torn_final_record_is_recomputed(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        args = [*self.SWEEP_3_4, "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        expected = out.read_bytes()
        lines = expected.splitlines(True)
        out.write_bytes(b"".join(lines[:-1]) + lines[-1][:40])
        code = main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert "torn" in captured.err
        assert json.loads(captured.out)["computed"] == 1
        assert out.read_bytes() == expected

    def test_invalid_json_before_torn_tail_rejected(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        args = [*self.SWEEP_3_4, "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        lines = out.read_bytes().splitlines(True)
        before = b"{not json\n" + b"".join(lines[1:-1]) + lines[-1][:40]
        out.write_bytes(before)
        code, payload = run_cli(capsys, *args)
        assert code == 2
        assert payload["error"] == "IoError"
        assert out.read_bytes() == before

    def test_duplicate_resume_record_rejected(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        args = ["sweep", "--max-vertices", "2", "--max-length", "2", "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        before = "".join(line + "\n" + line + "\n" for line in out.read_text().splitlines())
        out.write_text(before)
        code, payload = run_cli(capsys, *args)
        assert code == 2
        assert payload["error"] == "IoError"
        assert out.read_text() == before

    def test_boolean_series_entry_rejected(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        args = ["sweep", "--max-vertices", "2", "--max-length", "2", "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        target = next(r for r in records if r["kupisch"] == [2, 1])
        target["kupisch"] = [2, True]
        out.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, payload = run_cli(capsys, *args)
        assert code == 2
        assert payload["error"] == "IoError"

    def test_non_boolean_cyclic_flag_rejected(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        args = ["sweep", "--max-vertices", "1", "--max-length", "2", "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        next(r for r in records if r["cyclic"])["cyclic"] = 7
        before = "".join(json.dumps(r) + "\n" for r in records)
        out.write_text(before)
        code, payload = run_cli(capsys, *args)
        assert code == 2
        assert payload["error"] == "IoError"
        assert out.read_text() == before

    def test_pool_is_capped_by_the_cpus(self, capsys, tmp_path, monkeypatch):
        # the pool forks all its workers at once, so --jobs 4096 must not
        # ask for 4096; a fake pool records the size and maps serially
        import nakayama.cli as cli

        serial = tmp_path / "serial.jsonl"
        assert run_cli(capsys, *self.SWEEP_3_4, "--out", str(serial))[0] == 0
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        pooled = tmp_path / "pooled.jsonl"
        args = [*self.SWEEP_3_4, "--jobs", "4096", "--out", str(pooled)]
        assert run_cli(capsys, *args)[0] == 0
        assert sizes == [2]
        assert pooled.read_bytes() == serial.read_bytes()

    def test_killed_pooled_sweep_resumes_to_the_same_bytes(
        self, capsys, tmp_path, monkeypatch
    ):
        # the tenth algebra raises in its worker; the chunks before its
        # chunk are written in order, and a resumed run finishes the file
        import nakayama.cli as cli

        whole = tmp_path / "whole.jsonl"
        assert run_cli(capsys, *self.SWEEP_3_4, "--out", str(whole))[0] == 0
        expected = whole.read_bytes()
        bad = enumerate_admissible(3, 4)[9]
        original = cli._sweep_record

        def dies_on_the_tenth(payload):
            if payload[:2] == (bad.lengths, bad.cyclic):
                raise RuntimeError("killed")
            return original(payload)

        monkeypatch.setattr(cli, "_CHUNK", 4)
        monkeypatch.setattr(cli, "_sweep_record", dies_on_the_tenth)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        out = tmp_path / "cut.jsonl"
        sweep = [*self.SWEEP_3_4, "--jobs", "2", "--out", str(out)]
        with pytest.raises(RuntimeError, match="killed"):
            main(sweep)
        assert out.read_bytes() == b"".join(expected.splitlines(True)[:8])
        monkeypatch.setattr(cli, "_sweep_record", original)
        code, summary = run_cli(capsys, *sweep)
        assert code == 0
        assert (summary["resumed"], summary["computed"]) == (8, 12)
        assert out.read_bytes() == expected

    def test_pool_keeps_a_bounded_window_in_flight(self, capsys, tmp_path, monkeypatch):
        # a fake pool runs a task only when its result is taken, and counts
        # the tasks submitted and not yet taken: at most _WINDOW per worker
        import nakayama.cli as cli

        serial = tmp_path / "serial.jsonl"
        assert run_cli(capsys, *self.SWEEP_3_4, "--out", str(serial))[0] == 0
        in_flight, peak = set(), []

        class Lazy(Future):
            def __init__(self, task):
                super().__init__()
                self.task = task

            def result(self, timeout=None):
                if self in in_flight:
                    in_flight.remove(self)
                    self.set_result(self.task())
                return super().result(timeout)

        class LazyPool(Executor):
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                future = Lazy(lambda: fn(*args))
                in_flight.add(future)
                peak.append(len(in_flight))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(cli, "_CHUNK", 2)  # ten tasks
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        pooled = tmp_path / "pooled.jsonl"
        args = [*self.SWEEP_3_4, "--jobs", "2", "--out", str(pooled)]
        assert run_cli(capsys, *args)[0] == 0
        assert max(peak) == 2 * cli._WINDOW
        assert len(peak) == 10 and not in_flight
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_resumed_summary_matches_uninterrupted(self, capsys, tmp_path, jobs):
        sweep = [*self.SWEEP_3_4, "--jobs", jobs, "--n-range", "auto"]
        whole = tmp_path / "whole.jsonl"
        code, expected = run_cli(capsys, *sweep, "--out", str(whole))
        assert code == 0
        k = 7
        out = tmp_path / "cut.jsonl"
        out.write_bytes(b"".join(whole.read_bytes().splitlines(True)[:k]))
        code, summary = run_cli(capsys, *sweep, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == whole.read_bytes()
        assert (summary["resumed"], summary["computed"]) == (k, expected["algebras"] - k)
        for key in ("resumed", "computed"):
            del summary[key], expected[key]
        assert summary == expected


    def test_n_range_window(self, capsys, tmp_path):
        # one check per level of 1..2 below each Gorenstein degree
        expected = 0
        for alg in pool(4, 5):
            g = gorenstein_degree(alg)
            if g.is_finite:
                expected += len(range(1, min(2, max(g.value - 1, 0)) + 1))
        out = tmp_path / "rng.jsonl"
        argv = ["sweep", "--max-vertices", "4", "--max-length", "5", "--n-range", "1:2"]
        code, summary = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        assert expected == 39
        assert (summary["range_checked"], summary["range_violations"]) == (expected, 0)

    def test_non_canonical_cyclic_series_rejected(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        args = [*self.SWEEP_3_4, "--out", str(out)]
        assert run_cli(capsys, *args)[0] == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        target = next(r for r in records if r["cyclic"] and r["kupisch"] == [3, 3, 4])
        target["kupisch"] = [4, 3, 3]  # a rotation of the canonical series
        before = "".join(json.dumps(r) + "\n" for r in records)
        out.write_text(before)
        code, payload = run_cli(capsys, *args)
        assert code == 2
        assert payload["error"] == "IoError"
        assert "[4, 3, 3] is not a canonical series" in payload["detail"]
        assert out.read_text() == before

    @pytest.mark.parametrize(
        "first, then, torn, stray",
        [
            ((4, 5, "both"), (2, 2, "both"), False, "linear [2, 2, 1]"),
            ((3, 4, "cyclic"), (3, 4, "linear"), False, "cyclic [2]"),
            ((4, 5, "both"), (2, 2, "both"), True, "linear [2, 2, 1]"),
        ],
        ids=["narrower-bounds", "other-shape", "narrower-bounds-torn-tail"],
    )
    def test_resume_outside_bounds_or_shapes_rejected(
        self, capsys, tmp_path, first, then, torn, stray
    ):
        # the summary counts only mean something for the file's own bounds,
        # so a record of another run is refused and its torn tail kept
        out = tmp_path / "sweep.jsonl"

        def sweep(v, length, shapes):
            argv = ["sweep", "--max-vertices", str(v), "--max-length", str(length)]
            return run_cli(capsys, *argv, "--shapes", shapes, "--out", str(out))

        assert sweep(*first)[0] == 0
        before = out.read_bytes()
        if torn:
            before += before.splitlines(True)[-1][:40]
            out.write_bytes(before)
        code, payload = sweep(*then)
        assert code == 2
        assert payload["error"] == "IoError"
        assert "is not a canonical series within this sweep's bounds" in payload["detail"]
        # the first record of the file, in file order, that is not in the run
        assert f": {stray} is not" in payload["detail"]
        assert out.read_bytes() == before

    def test_linear_file_widened_to_both_shapes_matches_fresh(self, capsys, tmp_path):
        # linear algebras come first in the enumeration, so resuming them
        # with the cyclic ones appends exactly what a fresh run writes after
        fresh = tmp_path / "fresh.jsonl"
        assert run_cli(capsys, *self.SWEEP_3_4, "--out", str(fresh))[0] == 0
        out = tmp_path / "widened.jsonl"
        linear = [*self.SWEEP_3_4, "--shapes", "linear"]
        assert run_cli(capsys, *linear, "--out", str(out))[0] == 0
        code, summary = run_cli(capsys, *self.SWEEP_3_4, "--out", str(out))
        assert code == 0 and summary["resumed"] > 0 and summary["computed"] > 0
        assert out.read_bytes() == fresh.read_bytes()


class TestReproduceCommand:
    def test_all_rows_match(self, capsys):
        code = main(["reproduce"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MISMATCH" not in out
        assert out.strip().endswith("rows match")

    def test_flipped_convention_is_caught(self, capsys, monkeypatch):
        # negating the walk direction must break the frozen row set loudly
        import nakayama.core as core

        original = core.KupischSeries.shift

        def flipped(self, vertex, steps):
            return original(self, vertex, -steps)

        monkeypatch.setattr(core.KupischSeries, "shift", flipped)
        code = main(["reproduce"])
        capsys.readouterr()
        assert code == 1


def run_python(*args, cwd):
    """A fresh interpreter with this package's source on its path."""
    src = str(Path(nakayama.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_runs_as_a_module(tmp_path):
    out = run_python("-m", "nakayama", "analyze", "--kupisch", "2,1", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["kupisch"] == [2, 1]


def test_serial_sweep_loads_no_process_pool(tmp_path):
    # the pool is imported on first use of cli.ProcessPoolExecutor, which
    # only a sweep with workers makes
    code = (
        "import sys\n"
        "from nakayama.cli import main\n"
        "argv = ['sweep', '--max-vertices', '2', '--max-length', '2', '--out', 'o.jsonl']\n"
        "assert main(argv) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    out = run_python("-c", code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_length_one_sweep_over_a_huge_vertex_bound(tmp_path):
    # only linear (1) is admissible; the child is capped at 1 GB, so a
    # walk over every vertex count fails fast instead of hanging
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from nakayama.cli import main\n"
        "argv = ['sweep', '--max-vertices', '1000000000000', '--max-length', '1',\n"
        "        '--out', 'o.jsonl']\n"
        "raise SystemExit(main(argv))\n"
    )
    out = run_python("-c", code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["algebras"] == 1
    records = (tmp_path / "o.jsonl").read_text().splitlines()
    assert [json.loads(line)["kupisch"] for line in records] == [[1]]


def test_version_is_declared_once():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == nakayama.__version__


def test_sweepfile_loads_no_cli(tmp_path):
    # the record schema and its checks are importable without the CLI
    code = "import sys, nakayama.sweepfile\nprint('nakayama.cli' in sys.modules)\n"
    out = run_python("-c", code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False"
