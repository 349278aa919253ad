"""Session grammar, report records, and the bundled corpus."""

import json
import shutil
import time
from argparse import Namespace
from pathlib import Path

import pytest

from cremona.cli import (ScriptError, _cmd_fixtures, corpus_dir, main,
                         parse_session, render_report, render_session,
                         run_script)

HEADER = "ring R = QQ[x0..x2];\n"
FIELD_KEYS = ["command", "status", "values", "degrees", "verdicts",
              "field", "elapsed_ms"]


def parse_err(source):
    with pytest.raises(ScriptError) as info:
        parse_session(source)
    return info.value


class TestParsing:
    def test_range_expansion(self):
        script = parse_session("ring S = QQ[x0..x4];")
        assert script.ring_name == "S"
        assert script.ring.names == ("x0", "x1", "x2", "x3", "x4")

    def test_name_list(self):
        script = parse_session("ring R = QQ[a, b, c];")
        assert script.ring.names == ("a", "b", "c")

    def test_prime_field(self):
        script = parse_session("ring R = Fp(31991)[x0..x2];")
        assert script.ring.field.characteristic == 31991
        assert script.ring.field.label == "Fp(31991)"

    def test_comments_skipped(self):
        script = parse_session("# leading note\n" + HEADER
                               + "ideal I = x0*x1; # trailing\n")
        assert "I" in script.bindings

    def test_matrix_rows(self):
        script = parse_session(
            HEADER + "matrix M[2][2] = x0, x1, x1, x2;")
        kind, mat = script.bindings["M"]
        assert kind == "matrix"
        assert mat.nrows == 2 and str(mat[1, 0]) == "x1"


class TestDiagnostics:
    def test_empty_ideal_points_at_semicolon(self):
        e = parse_err(HEADER + "ideal I = ;")
        assert e.line == 2 and e.col == 11
        assert "';'" in str(e)
        assert str(e).startswith("line 2, column 11:")

    def test_unbound_name(self):
        e = parse_err(HEADER + "inverse J;")
        assert "unbound name 'J'" in str(e)

    def test_kind_mismatch(self):
        e = parse_err(HEADER + "ideal I = x0*x1;\nappendix I;")
        assert "needs" in str(e) and "matrix" in str(e)

    def test_matrix_arity(self):
        e = parse_err(HEADER + "matrix M[2][2] = x0, x1, x2;")
        assert "declared 2x2 but 3 entries" in str(e)

    def test_bad_polynomial_positioned(self):
        e = parse_err(HEADER + "ideal I = x0 +;")
        assert e.line == 2

    def test_exponent_out_of_range_positioned(self):
        e = parse_err(HEADER + "ideal I = x1, x0^8388608;")
        assert (e.line, e.col) == (2, 15)
        assert "exceeds the limit" in str(e)

    def test_unknown_statement(self):
        e = parse_err(HEADER + "frobnicate I;")
        assert "unknown statement" in str(e)

    def test_second_ring_rejected(self):
        e = parse_err(HEADER + "ring S = QQ[y0..y1];")
        assert "already declared" in str(e)

    def test_unknown_field(self):
        e = parse_err("ring R = ZZ[x0..x2];")
        assert "QQ or Fp" in str(e)

    def test_composite_characteristic(self):
        e = parse_err("ring R = Fp(6)[x0..x2];")
        assert e.line == 1

    def test_empty_range(self):
        e = parse_err("ring R = QQ[x4..x0];")
        assert "empty variable range" in str(e)

    def test_unknown_option(self):
        e = parse_err(HEADER + "ideal I = x0*x1;\nsympow I 2 fast=1;")
        assert "unknown option" in str(e)

    def test_sat_matrix_rejected(self):
        e = parse_err(HEADER + "ideal I = x0*x1;\n"
                      "matrix M[2][1] = x0, x1;\nsympow I 2 sat=M;")
        assert "names a matrix" in str(e)


class TestRoundTrip:
    def test_polar_session(self):
        src = corpus_dir().joinpath("polar-quartic.session") \
                          .read_text(encoding="utf-8")
        s1 = parse_session(src)
        rendered = render_session(s1)
        s2 = parse_session(rendered)
        assert s2.ring.names == s1.ring.names
        assert s2.ring.field.label == s1.ring.field.label
        assert list(s2.bindings) == list(s1.bindings)
        for name in s1.bindings:
            assert s1.bindings[name][0] == s2.bindings[name][0]
            assert s1.bindings[name][1] == s2.bindings[name][1]
        assert [(c.op, c.args) for c in s2.commands] == \
            [(c.op, c.args) for c in s1.commands]
        assert render_session(s2) == rendered


class TestRunScript:
    SOURCE = (HEADER
              + "ideal I = x1*x2, x0*x2, x0*x1;\n"
              + "inverse I;\nsympow I 2;\n")

    def test_record_shape(self):
        records = run_script(parse_session(self.SOURCE))
        assert [rec["status"] for rec in records] == ["ok", "ok"]
        for rec in records:
            assert list(rec) == FIELD_KEYS
            assert rec["field"] == "QQ"
            assert isinstance(rec["elapsed_ms"], int)

    def test_inverse_record(self):
        records = run_script(parse_session(self.SOURCE))
        assert records[0]["values"] == ["y1*y2", "y0*y2", "y0*y1"]
        assert records[0]["degrees"] == [2]
        assert records[0]["verdicts"]["birational"] is True

    def test_deterministic_modulo_elapsed(self):
        r1 = run_script(parse_session(self.SOURCE))
        r2 = run_script(parse_session(self.SOURCE))
        strip = lambda rs: [{k: v for k, v in rec.items()
                             if k != "elapsed_ms"} for rec in rs]
        assert render_report(strip(r1)) == render_report(strip(r2))

    def test_failure_does_not_abort(self):
        src = (HEADER + "ideal I = x0^2, x1^2, x2^2;\n"
               + "invfactor I;\nsympow I 1;\n")
        records = run_script(parse_session(src))
        assert [rec["status"] for rec in records] == ["failed", "ok"]
        assert "error" in records[0]["verdicts"]

    def test_non_birational_inverse_is_ok_record(self):
        src = HEADER + "ideal I = x0^2, x1^2, x2^2;\ninverse I;\n"
        records = run_script(parse_session(src))
        assert records[0]["status"] == "ok"
        assert records[0]["verdicts"] == {"birational": False}

    def test_timeout_status(self):
        src = (HEADER + "ideal I = x1*x2, x0*x2, x0*x1;\nsymrees I;\n")
        records = run_script(parse_session(src), deadline_s=1e-6)
        assert records[0]["status"] == "timeout"

    def test_template_redraws_on_standing_assumption(self):
        # seed 236476 draws a linear part whose 2-minors are not
        # irrelevant-primary; the command redraws instead of failing
        src = HEADER + "template 3 1 seed=236476;\n"
        rec = run_script(parse_session(src))[0]
        assert rec["status"] == "ok"
        rejected = rec["verdicts"]["rejected"]
        assert [r["seed"] for r in rejected] == [236476]
        assert "standing assumption" in rejected[0]["reason"]

    def test_report_is_jsonl(self):
        records = run_script(parse_session(self.SOURCE))
        lines = render_report(records).splitlines()
        assert len(lines) == 2
        for line in lines:
            assert list(json.loads(line)) == FIELD_KEYS


class TestFixtures:
    ARGS = Namespace(lmax=4, deadline=600.0, seed=0)

    def test_bundled_corpus_matches(self):
        assert _cmd_fixtures(self.ARGS) == 0

    def test_mismatch_flagged(self, tmp_path):
        base = corpus_dir()
        for p in base.iterdir():
            if p.name.startswith("standard-quadratic"):
                shutil.copy(str(p), tmp_path / p.name)
        exp = tmp_path / "standard-quadratic.expected.jsonl"
        doctored = exp.read_text().replace("x0*x1*x2", "x0^3")
        exp.write_text(doctored)
        assert _cmd_fixtures(self.ARGS, base=tmp_path) == 1

    def test_missing_expected_flagged(self, tmp_path):
        src = corpus_dir().joinpath("standard-quadratic.session")
        shutil.copy(str(src), tmp_path / src.name)
        assert _cmd_fixtures(self.ARGS, base=tmp_path) == 1


class TestMain:
    def test_run_writes_report(self, tmp_path):
        script = tmp_path / "s.session"
        script.write_text(TestRunScript.SOURCE, encoding="utf-8")
        out = tmp_path / "report.jsonl"
        assert main(["run", str(script), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["status"] == "ok"

    def test_run_parse_error_exit_two(self, tmp_path, capsys):
        script = tmp_path / "bad.session"
        script.write_text(HEADER + "ideal I = ;", encoding="utf-8")
        assert main(["run", str(script)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_parse_runs_under_deadline(self, tmp_path, capsys):
        # squaring (x0+x1+x2)^64 alone takes tens of seconds
        script = tmp_path / "big.session"
        script.write_text(HEADER + "ideal I = x0,\n  (x0+x1+x2)^200;\n",
                          encoding="utf-8")
        t0 = time.monotonic()
        assert main(["run", str(script), "--deadline", "0.5"]) == 2
        assert time.monotonic() - t0 < 10
        err = capsys.readouterr().err
        assert "line 3, column 3" in err and "time budget" in err

    def test_run_failure_exit_one(self, tmp_path):
        script = tmp_path / "f.session"
        script.write_text(HEADER + "ideal I = x0^2, x1^2, x2^2;\n"
                          "invfactor I;\n", encoding="utf-8")
        assert main(["run", str(script), "--out",
                     str(tmp_path / "r.jsonl")]) == 1
