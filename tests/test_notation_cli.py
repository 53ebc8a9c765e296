"""Module expression parsing and the command line surface."""

from __future__ import annotations

import json

import pytest

from nakayama import (
    IntervalModule,
    KupischSeries,
    ModuleSum,
    ParseError,
    indecomposables,
    injective,
    projective,
)
from nakayama.cli import main
from nakayama.notation import format_module, parse_module

CYCLIC = KupischSeries.validate([3, 3, 4], True)
LINEAR = KupischSeries.validate([3, 3, 3, 3, 2, 1], False)


def M(i, l):
    return IntervalModule(i, l)


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
        ["M(1)", "S(1,2)", "Q(1)", "", "M(1,9)", "M(1,0)", "S(5)", "S(1)+0"],
    )
    def test_rejects_malformed(self, expr):
        with pytest.raises(ParseError):
            parse_module(CYCLIC, expr)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


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
        "damage",
        [
            lambda rec: rec.pop("theorem_verdicts"),
            lambda rec: rec.update(kupisch=[0]),
        ],
        ids=["missing-key", "inadmissible-series"],
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
